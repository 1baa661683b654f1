import copy
import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import brnr.cohomology
from brnr.caps import Caps
from brnr.cli import main, parse_job, run_job
from brnr.cohomology import ReducedCocycleSpace, h1, scalar_module, sha
from brnr.errors import ParseError, ValidationError
from brnr.fastpath import build_example_714
from brnr.groups import abelian_group, cyclic_group

REPO = Path(__file__).resolve().parents[1]


def run_cli(*args):
    # the checkout's src first, as pytest's pythonpath setting does not reach a subprocess
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "brnr.cli", *args],
                          capture_output=True, text=True, cwd=REPO,
                          env={**os.environ, "PYTHONPATH": path})
    return proc


def strip_timing(text: str) -> str:
    return "\n".join(l for l in text.splitlines() if not l.startswith("# timing:"))


def test_parse_error_has_location():
    with pytest.raises(ParseError) as err:
        parse_job("{ not json }")
    assert err.value.line is not None


def test_unknown_task_rejected():
    with pytest.raises(ValidationError):
        parse_job(json.dumps({"task": "nope"}))


def test_job_roundtrip_canonicalization():
    raw = {"task": "b0", "group": {"kind": "table",
                                   "table": cyclic_group(4).mul.tolist()}}
    job = parse_job(json.dumps(raw))
    again = parse_job(job.canonical())
    assert again.canonical() == job.canonical()
    assert again.task == job.task


def test_worked_job_files_run_and_match_expectations(tmp_path):
    out1, _ = run_job(parse_job((REPO / "jobs" / "b0-z8.json").read_text()))
    assert "B_0 = 0" in out1

    out2, _ = run_job(parse_job((REPO / "jobs" / "real-order2.json").read_text()))
    assert "Br0_nr = 0" in out2
    assert "galois witness" in out2

    out3, _ = run_job(parse_job((REPO / "jobs" / "augmentation-p2.json").read_text()))
    assert "Sha1_bic(Q, N^) = Z/2" in out3
    assert "[4]" in out3

    out4, _ = run_job(parse_job((REPO / "jobs" / "obstruction-p2.json").read_text()))
    assert "excluded" in out4
    assert "NonzeroCertified" in out4


def test_worked_job_reports_match_golden(capsys):
    """`brnr run` on each worked job prints its report in tests/golden, timing aside.

    When a report is meant to change, regenerate it with
    `brnr run jobs/<job>.json > tests/golden/<job>.txt`.
    """
    golden_dir = REPO / "tests" / "golden"
    jobs = sorted((REPO / "jobs").glob("*.json"))
    assert [p.stem for p in jobs] == sorted(p.stem for p in golden_dir.glob("*.txt"))
    for path in jobs:
        assert main(["run", str(path)]) == 0
        golden = (golden_dir / f"{path.stem}.txt").read_text()
        assert strip_timing(capsys.readouterr().out) == strip_timing(golden), path.name


def test_augmentation_golden_generator_is_the_class_p2_a():
    """The Sha generator printed in the augmentation-p2 golden is p^2 [a].

    The golden pins one representative table, and any cohomologous table
    would do; this pins its class in H^1(Q, N^).
    """
    ex = build_example_714(2)
    H = h1(ex.sd.Q, ex.sd.N_hat)
    lines = (REPO / "tests" / "golden" / "augmentation-p2.txt").read_text().splitlines()
    top = lines.index("generator 0 (1-cocycle on Q) (shape 8x7):") + 1
    table = np.array([line.split() for line in lines[top:top + 8]], dtype=np.int64)
    p2a = H.coordinates(ex.expected_generator_multiple * ex.a_table % 8)
    assert p2a.any()
    assert np.array_equal(H.coordinates(table), p2a)


def test_determinism_two_runs_byte_identical():
    text = (REPO / "jobs" / "real-order2.json").read_text()
    r1, _ = run_job(parse_job(text))
    r2, _ = run_job(parse_job(text))
    assert strip_timing(r1) == strip_timing(r2)


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{ nope")
    assert main(["run", str(bad)]) == 2

    # malformed chi: a non-unit entry must name the offending index
    job = {
        "task": "brnr",
        "group": {"kind": "table", "table": cyclic_group(2).mul.tolist()},
        "galois": {"delta_table": cyclic_group(2).mul.tolist(),
                   "chi": [1, 2], "action": [[0, 1], [0, 1]]},
    }
    f = tmp_path / "badchi.json"
    f.write_text(json.dumps(job))
    assert main(["run", str(f)]) == 3

    # cap exceeded
    capjob = {
        "task": "b0",
        "group": {"kind": "table", "table": cyclic_group(8).mul.tolist()},
        "caps": {"class_module_unknowns": 0},
    }
    f2 = tmp_path / "cap.json"
    f2.write_text(json.dumps(capjob))
    assert main(["run", str(f2)]) == 4


@pytest.mark.parametrize("case", ["missing", "directory", "not utf-8"])
def test_unreadable_job_file_is_a_parse_error(tmp_path, capsys, case):
    path = {"missing": tmp_path / "missing.json", "directory": tmp_path,
            "not utf-8": tmp_path / "latin1.json"}[case]
    if case == "not utf-8":
        path.write_bytes('{"task": "b0", "note": "caf\u00e9"}'.encode("latin-1"))
    assert main(["run", str(path)]) == 2
    assert f"parse error: cannot read job file {path}" in capsys.readouterr().err


@pytest.mark.parametrize("factors", [[2**70], [2**63], [-1, 2**63], [2**64 - 1]])
def test_integers_out_of_range_are_named(tmp_path, capsys, factors):
    # numpy reads them as object, uint64 or float64 arrays: they are
    # integers, and the message says so
    f = tmp_path / "job.json"
    f.write_text(json.dumps({"task": "b0",
                             "group": {"kind": "abelian", "invariant_factors": factors}}))
    assert main(["run", str(f)]) == 3
    assert ("group.invariant_factors holds integers out of the 64-bit range"
            in capsys.readouterr().err)


@pytest.mark.parametrize("factors", [[0, 4], [False, 4], [[]]], ids=str)
@pytest.mark.parametrize("where", ["abelian", "semidirect q"])
def test_malformed_invariant_factors_exit_3(tmp_path, capsys, where, factors):
    # a factor below 2 is named before the divisor-chain test divides by
    # it, and an empty array of the wrong rank is no factor list
    group = {"kind": "abelian", "invariant_factors": factors}
    if where != "abelian":
        group = {"kind": "semidirect", "q": {"invariant_factors": factors},
                 "n": {"invariant_factors": [2]}}
    f = tmp_path / "job.json"
    f.write_text(json.dumps({"task": "sha1bic" if where != "abelian" else "b0",
                             "group": group}))
    assert main(["run", str(f)]) == 3
    field = "group.invariant_factors" if where == "abelian" else "group.q.invariant_factors"
    assert field in capsys.readouterr().err


def _order3_action(d):
    """Z/3 acting on (Z/d)^2 by the order-3 matrix [[0, -1], [1, -1]]."""
    return [[[1, 0], [0, 1]], [[0, d - 1], [1, d - 1]], [[d - 1, 1], [d - 1, 0]]]


@pytest.mark.parametrize("task, group, field", [
    # unbounded, 2^61 - 1 ran the trial division of the prime-power split
    # past 20 s, and 3^21 overflowed int64 in the module's moduli check
    ("sha1bic", {"kind": "semidirect", "q": {"invariant_factors": [2]},
                 "n": {"invariant_factors": [2**61 - 1]}}, "group.n.invariant_factors"),
    ("sha1bic", {"kind": "semidirect", "q": {"invariant_factors": [3]},
                 "n": {"invariant_factors": [3**21] * 2, "action": _order3_action(3**21)}},
     "group.n.invariant_factors"),
    ("sha1bic", {"kind": "semidirect", "q": {"invariant_factors": [2**15 + 1]},
                 "n": {"invariant_factors": [2]}}, "group.q.invariant_factors"),
    ("b0", {"kind": "abelian", "invariant_factors": [2, 2**61 - 1]},
     "group.invariant_factors"),
], ids=["n 2^61-1", "n 3^21", "q 2^15+1", "abelian 2^61-1"])
def test_module_factors_above_the_modulus_bound_exit_3_at_once(tmp_path, capsys, task,
                                                               group, field):
    f = tmp_path / "job.json"
    f.write_text(json.dumps({"task": task, "group": group}))
    start = time.perf_counter()
    assert main(["run", str(f)]) == 3
    assert time.perf_counter() - start < 1
    assert f"{field} must be at most 32768" in capsys.readouterr().err


def test_module_factors_at_the_modulus_bound_run(tmp_path, capsys):
    # the bound itself is a factor: a valid order-3 action mod 2^15 runs
    f = tmp_path / "job.json"
    f.write_text(json.dumps({"task": "sha1bic", "group": {
        "kind": "semidirect", "q": {"invariant_factors": [3]},
        "n": {"invariant_factors": [2**15] * 2, "action": _order3_action(2**15)}}}))
    assert main(["run", str(f)]) == 0
    assert "Sha1_bic(Q, N^) = " in capsys.readouterr().out


def test_closure_cap_bounds_the_bicyclic_pairs_before_any_member_set(tmp_path, capsys,
                                                                     monkeypatch):
    # Q = (Z/2)^10 has 1023 * 1022 / 2 commuting pairs of least generators != 1,
    # above the default cap; they are counted before any member set is built
    def forbidden(*args):
        raise AssertionError("member sets built before the cap check")

    monkeypatch.setattr(brnr.cohomology, "_pair_members", forbidden)
    f = tmp_path / "sha1bic.json"
    f.write_text(json.dumps({"task": "sha1bic", "group": {
        "kind": "semidirect", "q": {"invariant_factors": [2] * 10},
        "n": {"invariant_factors": [2]}}}))
    start = time.perf_counter()
    assert main(["run", str(f)]) == 4
    assert time.perf_counter() - start < 1
    assert "cap closure=262144 exceeded (required 522753)" in capsys.readouterr().err


def test_permutation_closure_stops_at_the_table_cap(tmp_path, capsys):
    # S10, of order 3628800 from a transposition and a 10-cycle: the
    # closure stops at element table_group + 1
    f = tmp_path / "s10.json"
    f.write_text(json.dumps({"task": "b0", "group": {"kind": "permutations", "generators": [
        [1, 0] + list(range(2, 10)), list(range(1, 10)) + [0]]}}))
    start = time.perf_counter()
    assert main(["run", str(f)]) == 4
    assert time.perf_counter() - start < 1
    assert "cap table_group=4096 exceeded (required 4097)" in capsys.readouterr().err


@pytest.mark.parametrize("task, galois, required", [
    ("brnr", {"galois": {"kind": "real"}}, 4106), ("b0", {}, 4097)], ids=["brnr", "b0"])
def test_class_module_unknowns_are_counted_before_any_table(tmp_path, capsys, monkeypatch,
                                                            task, galois, required):
    # on (Z/2)^9 the class module of a real-like datum has 4106 unknowns and
    # H^2 its 512 * 9 - 512 + 1 = 4097 Schreier atoms; the cap refuses both
    # before the atom expressions of the 512 x 512 cocycles are built
    def forbidden(self):
        raise AssertionError("atom expressions built before the cap check")

    monkeypatch.setattr(ReducedCocycleSpace, "expr", property(forbidden))
    f = tmp_path / "job.json"
    f.write_text(json.dumps({"task": task, **galois,
                             "group": {"kind": "abelian", "invariant_factors": [2] * 9}}))
    start = time.perf_counter()
    assert main(["run", str(f)]) == 4
    assert time.perf_counter() - start < 1
    assert (f"cap class_module_unknowns=2048 exceeded (required {required})"
            in capsys.readouterr().err)


def test_cap_override_flag(tmp_path):
    job = {"task": "b0",
           "group": {"kind": "table", "table": cyclic_group(8).mul.tolist()}}
    f = tmp_path / "ok.json"
    f.write_text(json.dumps(job))
    # Z/8 has one Schreier atom
    assert main(["run", str(f), "--cap", "class_module_unknowns=0"]) == 4
    assert main(["run", str(f), "--cap", "class_module_unknowns=1"]) == 0


def test_closure_cap_leaves_sha2ab_unchanged(tmp_path, capsys):
    # sha2ab reads commuting-pair and cyclic-splitting rows and lists no
    # subgroup, so a closure cap below the 67 subgroups of (Z/2)^4 leaves its
    # report unchanged; at degree 1 the abelian family is refused
    job = {"task": "sha2ab", "modulus": 2,
           "group": {"kind": "abelian", "invariant_factors": [2, 2, 2, 2]}}
    f = tmp_path / "sha2ab.json"
    f.write_text(json.dumps(job))
    reports = []
    for extra in (["--cap", "closure=3"], []):
        assert main(["run", str(f), *extra]) == 0
        reports.append([line for line in capsys.readouterr().out.splitlines()
                        if not line.startswith("# timing")])
    assert reports[0] == reports[1] and "Sha2_ab(G, Z/2) = 0" in reports[0]
    G = abelian_group([2, 2, 2, 2])
    with pytest.raises(ValidationError, match="unknown subgroup family 'ab' at degree 1"):
        sha(G, scalar_module(2, G), 1, "ab", caps=Caps(closure=3))


def test_selftest_via_subprocess():
    proc = run_cli("selftest")
    assert proc.returncode == 0
    assert "PASS" in proc.stdout
    assert "FAIL" not in proc.stdout


def test_bad_cap_overrides_are_validation_errors(tmp_path, capsys):
    job = tmp_path / "b0.json"
    job.write_text((REPO / "jobs" / "b0-z8.json").read_text())
    assert main(["run", str(job), "--cap", "nosuch=3"]) == 3
    assert "nosuch" in capsys.readouterr().err
    # no class scan, no dense H^2 and no H^2 order cap are left: H^2
    # counts its unknowns against class_module_unknowns
    for gone in ("element_scan", "h2_dense_group", "h2_group"):
        assert main(["run", str(job), "--cap", f"{gone}=5"]) == 3
        assert gone in capsys.readouterr().err
    assert main(["run", str(job), "--cap", "class_module_unknowns"]) == 3
    assert "class_module_unknowns needs an integer value" in capsys.readouterr().err
    bogus = tmp_path / "bogus.json"
    bogus.write_text(json.dumps({"task": "b0", "caps": {"bogus": 1},
                                 "group": {"kind": "table",
                                           "table": cyclic_group(2).mul.tolist()}}))
    assert main(["run", str(bogus)]) == 3
    assert "bogus" in capsys.readouterr().err


Z2 = cyclic_group(2).mul.tolist()
BM_REAL = {"task": "bmreport", "group": {"kind": "table", "table": Z2},
           "galois": {"kind": "real"}}
PLACE = {"delta_v_table": Z2, "to_delta": [0, 1]}
Z4 = cyclic_group(4).mul.tolist()
NONASSOCIATIVE = cyclic_group(6).mul.copy()
NONASSOCIATIVE[2, 3] = 1            # identity and inverses intact


def explicit_galois(delta, chi, action):
    return {"task": "brnr", "group": {"kind": "table", "table": Z4},
            "galois": {"delta_table": delta, "chi": chi, "action": action, "modulus": 4}}


@pytest.mark.parametrize("job, field", [
    ({"task": "b0", "group": {"kind": "table", "table": [[0, 1], [1]]}}, "group.table"),
    ({"task": "sha2ab", "modulus": "x", "group": {"kind": "table", "table": Z2}},
     "modulus"),
    ({"task": "b0", "group": {"kind": "abelian"}}, "invariant_factors"),
    ({"task": "brnr", "group": {"kind": "table", "table": Z2},
      "galois": {"kind": "real", "modulus": "7"}}, "galois.modulus"),
    ({"task": "bmreport", "group": {"kind": "example714", "p": 2}, "local": 5},
     "local must be a list"),
    ({"task": "b0", "group": {"kind": "table", "table": Z2},
      "caps": {"table_group": -1}}, "table_group"),
    ({"task": "sha1bic", "group": {"kind": "example714", "p": 4}}, "p must be 2 or 3"),
    ({"task": "bmreport", "group": {"kind": "table", "table": Z2},
      "galois": {"kind": "real"},
      "local": [{"delta_v_table": Z2, "to_delta": [7, 9]}]}, "to_delta"),
    ({**BM_REAL, "local": [{**PLACE, "generators": 5}]}, "local.generators"),
    ({**BM_REAL, "local": [{**PLACE, "generators": [7]}]}, "generators"),
    ({**BM_REAL, "local": [{**PLACE, "generators": ["a"]}]}, "local.generators"),
    ({**BM_REAL, "local": [{**PLACE, "label": [1]}]}, "local.label"),
    ({**BM_REAL, "local": [{**PLACE, "label": "v"}, PLACE]}, "local.label"),
    ({"task": "bmreport", "group": {"kind": "example714", "p": 2},
      "local": [{"label": "v2", "delta_v_table": [[i ^ j for j in range(8)] for i in range(8)],
                 "to_delta": [0] * 8, "c_v": [0, 1, 2, 3, 4, 5, 6, 99]}]}, "c_v"),
    # one report, one task: evaluate was a second name for bmreport
    ({**BM_REAL, "task": "evaluate", "local": [PLACE]}, "task must be one of"),
    # an explicit empty sequence is taken as given, not replaced by a default
    ({**BM_REAL, "local": [{**PLACE, "generators": []}]},
     "generating sequence does not generate"),
    # Z/1 is no coefficient module: the job field is named, not the module
    ({"task": "sha2ab", "modulus": 1, "group": {"kind": "table", "table": Z2}},
     "sha2ab modulus must be at least 2 (witness: 1)"),
    # the table laws, each read at generators
    ({"task": "b0", "group": {"kind": "table", "table": NONASSOCIATIVE.tolist()}},
     "group.table: associativity fails"),
    (explicit_galois(Z2, [1, 1], [[0, 1, 2, 3], [0, 1, 1, 3]]), "action row is not a permutation"),
    (explicit_galois(Z2, [1, 1], [[0, 1, 2, 3], [0, 2, 1, 3]]),
     "action row is not an automorphism"),
    (explicit_galois(Z4, [1] * 4, [[0, 1, 2, 3], [0, 3, 2, 1], [0, 3, 2, 1], [0, 1, 2, 3]]),
     "action is not a homomorphism"),
    (explicit_galois(Z2, [1, 2], [[0, 1, 2, 3]] * 2), "chi value is not a unit mod N^2"),
    (explicit_galois(Z4, [1, 3, 1, 5], [[0, 1, 2, 3]] * 4), "chi is not multiplicative"),
    ({"task": "b0", "group": {"kind": "semidirect", "q": {"invariant_factors": [4]},
                              "n": {"invariant_factors": [5],
                                    "action": [[[1]], [[2]], [[4]], [[2]]]}}},
     "group.n: module action is not a homomorphism"),
    # an explicit Galois datum names the field of each law
    (explicit_galois(Z2, [1, 1], [[0, 1, 2, 3], [0, 1, 1, 3]]),
     "galois.action: action row is not a permutation (witness: 1)"),
    (explicit_galois(Z2, [1, 1], [[0, 1, 2, 3], [0, 2, 1, 3]]),
     "galois.action: action row is not an automorphism"),
    (explicit_galois(Z4, [1] * 4, [[0, 1, 2, 3], [0, 3, 2, 1], [0, 3, 2, 1], [0, 1, 2, 3]]),
     "galois.action: action is not a homomorphism"),
    (explicit_galois(Z2, [1, 1], [[0, 1, 2, 3]] * 3), "galois.action: action table has wrong shape"),
    (explicit_galois(Z2, [1, 2], [[0, 1, 2, 3]] * 2), "galois.chi: chi value is not a unit"),
    (explicit_galois(Z4, [1, 3, 1, 5], [[0, 1, 2, 3]] * 4), "galois.chi: chi is not multiplicative"),
    (explicit_galois(Z2, [3, 1], [[0, 1, 2, 3]] * 2), "galois.chi: chi(identity) must be 1"),
    (explicit_galois(Z2, [1, 1, 1], [[0, 1, 2, 3]] * 2), "galois.chi: chi table has wrong length"),
    # the level N must be a multiple of exp(G), for every kind of datum
    ({"task": "algebraic", "group": {"kind": "abelian", "invariant_factors": [4]},
      "galois": {"kind": "real", "modulus": 2}},
     "galois.modulus: modulus must be a multiple of exp(G) = 4 (witness: 2)"),
    ({**explicit_galois(Z2, [1, 3], [[0, 1, 2, 3]] * 2), "task": "algebraic",
      "galois": {**explicit_galois(Z2, [1, 3], [[0, 1, 2, 3]] * 2)["galois"], "modulus": 2}},
     "galois.modulus: modulus must be a multiple of exp(G) = 4"),
    # found by the job fuzz: an unknown cap name and a place's generators
    # that do not generate named no job field
    ({"task": "b0", "group": {"kind": "table", "table": Z2}, "caps": {"c_v": 1}},
     "caps: unknown cap name (witness: 'c_v')"),
    ({**BM_REAL, "local": [{**PLACE, "generators": []}]},
     "local: generating sequence does not generate"),
])
def test_malformed_job_fields_are_validation_errors(tmp_path, capsys, job, field):
    f = tmp_path / "job.json"
    f.write_text(json.dumps(job))
    assert main(["run", str(f)]) == 3
    assert field in capsys.readouterr().err


E8 = [[i ^ j for j in range(8)] for i in range(8)]
WELL_FORMED = {
    "b0-table": {"task": "b0", "group": {"kind": "table", "table": cyclic_group(4).mul.tolist()},
                 "caps": {"table_group": 64}},
    "b0-perm": {"task": "b0", "group": {"kind": "permutations", "degree": 3,
                                        "generators": [[1, 2, 0]]}},
    "b0-abelian": {"task": "b0", "group": {"kind": "abelian", "invariant_factors": [2, 2]}},
    "b0-semidirect": {"task": "b0", "group": {
        "kind": "semidirect", "q": {"invariant_factors": [2]},
        "n": {"invariant_factors": [3], "action": [[[1]], [[2]]]}}},
    "brnr-real": {"task": "brnr", "group": {"kind": "table", "table": Z2},
                  "galois": {"kind": "real", "modulus": 2}},
    "brnr-trivial": {"task": "brnr", "group": {"kind": "table", "table": Z2},
                     "galois": {"kind": "trivial", "base_algebraically_closed": False}},
    "brnr-explicit": {"task": "brnr", "group": {"kind": "table", "table": Z2},
                      "galois": {"delta_table": Z2, "chi": [1, 3],
                                 "action": [[0, 1], [0, 1]], "modulus": 2}},
    "bm-table": {**BM_REAL, "local": [{"label": "v", "delta_v_table": Z2,
                                       "to_delta": [0, 1], "generators": [1]}]},
    "bm-trivial-place": {**BM_REAL, "local": [{"label": "v", "delta_v_table": [[0]],
                                               "to_delta": [0], "generators": []}]},
    "bm-714": {"task": "bmreport", "group": {"kind": "example714", "p": 2},
               "local": [{"label": "v2", "delta_v_table": E8, "to_delta": [0] * 8,
                          "c_v": list(range(8)), "search_cup": False}]},
    "sha1bic-714": {"task": "sha1bic", "group": {"kind": "example714", "p": 2}},
    "sha1bic-semidirect": {"task": "sha1bic", "group": {
        "kind": "semidirect", "q": {"invariant_factors": [2]},
        "n": {"invariant_factors": [4], "action": [[[1]], [[3]]]}}},
    "algebraic-real": {"task": "algebraic", "group": {"kind": "table", "table": Z2},
                       "galois": {"kind": "real", "modulus": 2}},
    "algebraic-explicit": {"task": "algebraic", "group": {"kind": "table", "table": Z2},
                           "galois": {"delta_table": Z2, "chi": [1, 3],
                                      "action": [[0, 1], [0, 1]], "modulus": 2}},
    "sha2ab": {"task": "sha2ab", "modulus": 4, "group": {"kind": "table", "table": Z2}},
}
S3_SEMIDIRECT = WELL_FORMED["b0-semidirect"]["group"]
WELL_FORMED.update({
    "brnr-semidirect": {"task": "brnr", "group": S3_SEMIDIRECT,
                        "galois": {"kind": "real", "modulus": 6}},
    "algebraic-semidirect": {"task": "algebraic", "group": S3_SEMIDIRECT,
                             "galois": {"kind": "real", "modulus": 6}},
    "sha2ab-semidirect": {"task": "sha2ab", "modulus": 2, "group": S3_SEMIDIRECT},
    "sha1bic-s3": {"task": "sha1bic", "group": S3_SEMIDIRECT},
    # Hom(G, Z/1) = 0: no character group over Z/1 is built (N = 1 needs
    # exp(G) = 1, so G is trivial)
    "algebraic-modulus-1": {"task": "algebraic", "group": {"kind": "table", "table": [[0]]},
                            "galois": {"kind": "real", "modulus": 1}},
    "brnr-modulus-1": {"task": "brnr", "group": {"kind": "table", "table": [[0]]},
                       "galois": {"kind": "real", "modulus": 1}},
})
MISSING = object()
# (job, path to the field, a wrong-typed value, an out-of-range value or
# None if the field has no range, whether the field is required); the
# error message must name the last key of the path
JOB_FIELDS = [
    ("b0-table", ("task",), 5, "nope", True),
    ("b0-table", ("group",), 5, None, True),
    ("b0-table", ("group", "kind"), 5, "nosuch", True),
    ("b0-table", ("group", "table"), "x", [[0, 5], [5, 0]], True),
    ("b0-table", ("caps",), [1], None, False),
    ("b0-table", ("caps", "table_group"), "x", -1, False),
    ("b0-perm", ("group", "generators"), "x", [[0, 5, 1]], True),
    ("b0-perm", ("group", "degree"), "3", 10**30, False),
    ("b0-abelian", ("group", "invariant_factors"), "x", [0], True),
    ("b0-semidirect", ("group", "q"), 5, None, True),
    ("b0-semidirect", ("group", "q", "invariant_factors"), "x", [1], True),
    ("b0-semidirect", ("group", "n"), 5, None, True),
    ("b0-semidirect", ("group", "n", "invariant_factors"), "x", [1], True),
    ("b0-semidirect", ("group", "n", "action"), "x", [[[2]], [[2]]], False),
    ("brnr-real", ("galois",), 5, None, False),
    ("brnr-real", ("galois", "kind"), 5, "imaginary", False),
    ("brnr-real", ("galois", "modulus"), "2", 10**30, False),
    ("brnr-trivial", ("galois", "base_algebraically_closed"), "no", None, False),
    ("brnr-explicit", ("galois", "delta_table"), "x", [[0, 2], [2, 0]], True),
    ("brnr-explicit", ("galois", "chi"), "x", [1, 2], True),
    ("brnr-explicit", ("galois", "action"), "x", [[1, 0], [0, 1]], True),
    ("brnr-explicit", ("galois", "modulus"), 2.5, 0, False),
    ("bm-table", ("local",), 5, None, False),
    ("bm-table", ("local", 0), 5, None, False),
    ("bm-table", ("local", 0, "label"), [1], None, False),
    ("bm-table", ("local", 0, "delta_v_table"), "x", [[0, 2], [2, 0]], True),
    ("bm-table", ("local", 0, "to_delta"), "x", [0, 7], True),
    ("bm-table", ("local", 0, "generators"), "x", [7], False),
    ("bm-714", ("group", "p"), "2", 4, False),
    ("bm-714", ("local", 0, "c_v"), "x", [0, 1, 2, 3, 4, 5, 6, 99], True),
    ("bm-714", ("local", 0, "search_cup"), "no", None, False),
    ("sha1bic-714", ("group",), 5, None, True),
    ("sha1bic-714", ("group", "kind"), 5, "nosuch", True),
    ("sha1bic-714", ("group", "p"), "2", 4, False),
    ("sha1bic-semidirect", ("group", "q"), 5, None, True),
    ("sha1bic-semidirect", ("group", "q", "invariant_factors"), "x", [1], True),
    ("sha1bic-semidirect", ("group", "n"), 5, None, True),
    ("sha1bic-semidirect", ("group", "n", "invariant_factors"), "x", [1], True),
    ("sha1bic-semidirect", ("group", "n", "action"), "x", [[[2]], [[2]]], False),
    ("algebraic-real", ("group",), 5, None, True),
    ("algebraic-real", ("group", "table"), "x", [[0, 5], [5, 0]], True),
    ("algebraic-real", ("galois",), 5, None, False),
    ("algebraic-real", ("galois", "kind"), 5, "imaginary", False),
    ("algebraic-real", ("galois", "modulus"), "2", 10**30, False),
    ("algebraic-explicit", ("galois", "delta_table"), "x", [[0, 2], [2, 0]], True),
    ("algebraic-explicit", ("galois", "chi"), "x", [1, 2], True),
    ("algebraic-explicit", ("galois", "action"), "x", [[1, 0], [0, 1]], True),
    ("algebraic-explicit", ("galois", "modulus"), 2.5, 0, False),
    ("sha2ab", ("modulus",), "x", 0, False),
    ("sha2ab", ("group",), 5, None, True),
    ("sha2ab", ("group", "table"), "x", [[0, 5], [5, 0]], True),
]

# where the message names the field in other words
NAMED_AS = {
    (("galois", "kind"), "missing"): "galois.delta_table",   # then the datum is explicit
    (("group", "n", "invariant_factors"), "out of range"): "group.n: invariant factors",
}


def _malformed_jobs():
    for job, path, wrong, out_of_range, required in JOB_FIELDS:
        cases = {"wrong type": wrong, "out of range": out_of_range,
                 "missing": MISSING if required else None}
        for case, value in cases.items():
            if value is None:
                continue
            name = NAMED_AS.get((path, case),
                                next(k for k in reversed(path) if isinstance(k, str)))
            field = ".".join(map(str, path))
            yield pytest.param(job, path, value, name, id=f"{job}:{field}:{case}")


@pytest.mark.parametrize("job", sorted(WELL_FORMED))
def test_well_formed_jobs_run(tmp_path, job):
    f = tmp_path / "job.json"
    f.write_text(json.dumps(WELL_FORMED[job]))
    assert main(["run", str(f)]) == 0


@pytest.mark.parametrize("job, path, value, name", _malformed_jobs())
def test_every_malformed_job_field_is_named(tmp_path, capsys, job, path, value, name):
    raw = json.loads(json.dumps(WELL_FORMED[job]))
    spec = raw
    for key in path[:-1]:
        spec = spec[key]
    if value is MISSING:
        del spec[path[-1]]
    else:
        spec[path[-1]] = value
    f = tmp_path / "job.json"
    f.write_text(json.dumps(raw))
    assert main(["run", str(f)]) in (2, 3, 4)
    assert name in capsys.readouterr().err


@pytest.mark.parametrize("job, cap", [
    ("b0-perm", 2), ("b0-abelian", 2), ("b0-semidirect", 1), ("b0-semidirect", 2),
    ("brnr-semidirect", 2), ("algebraic-semidirect", 2), ("sha2ab-semidirect", 2),
    ("sha1bic-s3", 2),
])
def test_table_group_cap_binds_every_group_kind(tmp_path, capsys, job, cap):
    # the abelian kind, the q of the semidirect kind and, for the tasks that
    # need a table of G, the order-6 semidirect group itself tabulate under
    # the job's caps, as the permutation kind does; sha1bic needs no table of
    # G and still runs
    f = tmp_path / "job.json"
    f.write_text(json.dumps({**WELL_FORMED[job], "caps": {"table_group": cap}}))
    if job.startswith("sha1bic"):
        assert main(["run", str(f)]) == 0
        return
    assert main(["run", str(f)]) == 4
    assert "table_group" in capsys.readouterr().err


def _job_paths(node, prefix=()):
    """The path of every field of a job: object keys, and the indices of short lists."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _job_paths(value, prefix + (key,))
    elif isinstance(node, list) and len(node) <= 8:
        for i, value in enumerate(node):
            yield from _job_paths(value, prefix + (i,))


FUZZ_JOBS = ([json.loads(p.read_text()) for p in sorted((REPO / "jobs").glob("*.json"))]
             + [WELL_FORMED[name] for name in sorted(WELL_FORMED)])
FUZZ_FIELDS = sorted({path[-1] for job in FUZZ_JOBS for path in _job_paths(job)
                      if path and isinstance(path[-1], str)} | set(Caps.__dataclass_fields__))
FUZZ_VALUES = [0, -1, 1, 2, 3, 4, 8, 64, 2**15, 2**15 + 1, 3**21, 2**61 - 1, 2**70, 1.5,
               float("nan"), "x", "", "2", None,
               True, False, [], [[]], [0, 4], [3, 9], [2] * 10, [64, 64], [1, [2]],
               [[0, 1], [1]], [[0]], Z2, {}]
FUZZ_CAPS = ["--cap", "table_group=64", "--cap", "closure=4096", "--cap",
             "class_module_unknowns=256", "--cap", "nonabelian_enum=100000",
             "--cap", "local_tuples=1000"]


def _mutate(job, rng):
    """One seeded edit of a field: replace its value, delete it, or add a sibling."""
    path = rng.choice([p for p in _job_paths(job) if p])
    parent = job
    for key in path[:-1]:
        parent = parent[key]
    value = copy.deepcopy(rng.choice(FUZZ_VALUES))
    edit = rng.choice(["replace", "delete", "add"])
    if edit == "replace":
        parent[path[-1]] = value
    elif edit == "delete":
        del parent[path[-1]]
    elif isinstance(parent, dict):
        parent[rng.choice(FUZZ_FIELDS)] = value
    else:
        parent.insert(path[-1], value)


def test_seeded_job_fuzz_exits_0_2_3_or_4_and_names_the_field(tmp_path, capsys):
    # one or two seeded edits of a worked or well-formed job, run under small
    # caps: the CLI never exits 1, and a validation error names a job field
    # (the witness it quotes does not count); each input this found is a case
    # of test_malformed_job_fields_are_validation_errors
    rng = random.Random(33)
    f = tmp_path / "job.json"
    for _ in range(3000):
        job = copy.deepcopy(rng.choice(FUZZ_JOBS))
        for _ in range(rng.randint(1, 2)):
            _mutate(job, rng)
        f.write_text(json.dumps(job))
        try:
            code = main(["run", str(f), *FUZZ_CAPS])
        except Exception as err:       # noqa: BLE001 - name the input that escaped
            pytest.fail(f"{json.dumps(job)} raised {err!r}")
        message = capsys.readouterr().err.split("(witness")[0]
        assert code in (0, 2, 3, 4), json.dumps(job)
        if code == 3:
            assert any(re.search(rf"\b{name}\b", message) for name in FUZZ_FIELDS), \
                (json.dumps(job), message)
