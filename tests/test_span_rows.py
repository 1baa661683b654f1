"""The one coboundary test against the solve that answers it on every row.

``zmod.span_rows`` gives rows that vanish exactly on a column span, and
``cohomology.coboundary_mask`` reduces the gauged atoms of a cocycle
against the reduced Howell form of the coboundary columns.
``reference.is_scalar_coboundary`` solves on every row of d1; it is the
reference here.  Every reference stays off the production path: no
production module imports ``brnr.reference``, and the worked jobs and
reports run with each of its callables switched off (``no_reference``).
"""

import ast
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

import brnr.reference
from brnr.cli import main, parse_job, run_job
from brnr.cohomology import (
    _kernel_from_batches,
    coboundary_mask,
    cup_h1_h1,
    h1,
    scalar_module,
)
from brnr.extensions import GaloisDatum, class_module
from brnr.fastpath import build_example_714, local_witness
from brnr.groups import (
    AbelianModule,
    FiniteGroup,
    abelian_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)
from brnr.localeval import ClassEntry, FastpathClassEntry, bm_report, nonabelian_h1
from brnr.reference import evaluate, is_scalar_coboundary
from brnr.zmod import _howell_residue, _leads, echelon_compress, preimage_rows, span_rows

from dense_h2 import _d2_matrix_rows, coboundary1
from test_fastpath import _cup_search_cases
from test_cli import strip_timing
from test_localeval import places_onto

REPO = Path(__file__).resolve().parents[1]


def column_span(A: np.ndarray, m: int) -> set:
    """Every combination of the columns of A mod m, grown one column at a time."""
    span = np.zeros((1, A.shape[0]), dtype=np.int64)
    for a in A.T:
        span = (span[:, None] + np.arange(m)[:, None] * a) % m
        span = np.unique(span.reshape(-1, A.shape[0]), axis=0)
    return set(map(tuple, span.tolist()))


@pytest.mark.parametrize("m", [4, 6, 8, 9])
def test_span_rows_vanish_exactly_on_the_column_span(m):
    # the columns of the wide A (2n + 17 of them) lie in a random rank-2
    # submodule, and all columns are scaled by non-units, so the span is
    # often proper
    rng = np.random.default_rng(m)
    for n in (1, 2, 3):
        for cols in (0, 1, 2, 4, 2 * n + 17):
            A = rng.integers(0, m, size=(n, cols)) if cols < 8 else \
                rng.integers(0, m, size=(n, 2)) @ rng.integers(0, m, size=(2, cols))
            A = A * rng.choice([1, 2, 3], size=cols) % m
            span = column_span(A, m)
            R = span_rows(A, m)
            for v in itertools.product(range(m), repeat=n):
                assert (not (R @ np.array(v) % m).any()) == (v in span)


@pytest.mark.parametrize("m", [4, 6, 8, 9, 12, 27, 36])
def test_preimage_rows_vanish_exactly_on_the_preimage(m):
    # one stack of members of heights 1 to 3, padded with zero rows to the
    # tallest; member k's A is random, of rank <= 2 with its columns
    # scaled by non-units, or zero, and a stack may have no columns at
    # all.  Every x in (Z/m)^t is checked against the enumerated span
    rng = np.random.default_rng(m)
    nonunits = [a for a in range(2, m) if math.gcd(a, m) > 1]
    for t, c in ((2, 0), (2, 1), (2, 3), (3, 2), (2, 4)):
        heights = rng.integers(1, 4, size=6)
        r = int(heights.max())
        A = np.zeros((len(heights), r, c), dtype=np.int64)
        V = np.zeros((len(heights), r, t), dtype=np.int64)
        for k, h in enumerate(heights):
            if k % 3 == 1:
                A[k, :h] = rng.integers(0, m, size=(h, 2)) @ rng.integers(0, m, size=(2, c))
                A[k, :h] *= rng.choice(nonunits, size=c)
            elif k % 3 == 0:
                A[k, :h] = rng.integers(0, m, size=(h, c))
            V[k, :h] = rng.integers(0, m, size=(h, t)) * rng.choice([1] + nonunits, size=t)
        S = preimage_rows(A, V, m)
        assert S.shape == (len(heights), r, t)
        X = np.array(list(itertools.product(range(m), repeat=t)), dtype=np.int64)
        for k, h in enumerate(heights):
            span = column_span(A[k, :h] % m, m)
            inside = [v in span for v in map(tuple, (X @ V[k, :h].T % m).tolist())]
            assert (~(X @ S[k].T % m).any(axis=1)).tolist() == inside
    assert preimage_rows(np.zeros((0, 2, 1)), np.zeros((0, 2, 3)), m).shape == (0, 2, 3)


@pytest.mark.parametrize("m", [4, 8, 9, 12, 36])
def test_howell_residue_vanishes_exactly_on_the_row_span(m):
    # rows scaled by non-units, so the reduced Howell forms have non-unit
    # pivots; every vector of (Z/m)^n is reduced, and the residue must
    # vanish exactly on the brute-force span and be one vector per coset
    rng = np.random.default_rng(m)
    nonunit = 0
    for n in (1, 2, 3):
        X = np.array(list(itertools.product(range(m), repeat=n)), dtype=np.int64)
        for rows in (1, 2, 4):
            A = rng.integers(0, m, size=(rows, n)) * rng.choice([1, 2, 3, 6], size=(rows, 1)) % m
            E = echelon_compress(A, m)
            nonunit += int((E[np.arange(len(E)), _leads(E)] != 1).sum())
            span = column_span(A.T, m)
            res = _howell_residue(E, X[None], m)[0]
            assert [not r.any() for r in res] == [x in span for x in map(tuple, X.tolist())]
            shift = np.array(sorted(span))[rng.integers(len(span), size=len(X))]
            assert np.array_equal(_howell_residue(E, X + shift, m), res)
    assert nonunit


def sign_character(D: FiniteGroup) -> np.ndarray:
    """A nontrivial homomorphism D -> {1, -1}, as an array over the elements."""
    S = D.minimal_generators()
    for signs in itertools.product((1, -1), repeat=len(S)):
        chi = np.ones(D.order, dtype=np.int64)
        for x, parent, i in D.tree_levels(S):
            chi[x] = chi[parent] * np.array(signs)[i]
        if (chi == -1).any() and np.array_equal(chi[D.mul], chi[:, None] * chi[None, :]):
            return chi
    raise AssertionError("D has a sign character")


NONABELIAN = {"S3": lambda: symmetric_group(3), "D4": lambda: dihedral_group(4),
              "Q8": quaternion_group}


def padded_generators(D: FiniteGroup) -> tuple:
    """A generating tuple that is not minimal: 1, a repeat and a product ahead of the rest."""
    S = D.minimal_generators()
    return (0, int(D.mul[S[0], S[-1]]), S[0], S[0], *S[1:], 0)


@pytest.mark.parametrize("twisted", [False, True], ids=["trivial", "twisted"])
@pytest.mark.parametrize("name", sorted(NONABELIAN))
def test_coboundary_mask_matches_every_row_solve(name, twisted):
    # random normalized 2-cocycles from the dense d2 kernel, each alone and
    # plus a random coboundary, and that coboundary alone; the verdict must
    # be the reference's, read from the columns at the minimal generators
    # and at a generating tuple with 1 and repeats in it
    D = NONABELIAN[name]()
    n = D.order
    verdicts = set()
    for m in (4, 6, 8, 12):
        units = sign_character(D) % m if twisted else None
        M = scalar_module(m, D, units) if twisted else scalar_module(m)
        Z = _kernel_from_batches(_d2_matrix_rows(D, M), (n - 1) ** 2, m).generator_lifts
        rng = np.random.default_rng(n * m + twisted)
        tables = []
        for x in rng.integers(0, m, size=(Z.shape[1], 6)).T:
            f = np.zeros((n, n), dtype=np.int64)
            f[1:, 1:] = (Z @ x % m).reshape(n - 1, n - 1)
            b = rng.integers(0, m, size=(n, 1))
            b[0] = 0
            db = coboundary1(D, M, b)[:, :, 0]
            tables += [f, (f + db) % m, db]
        tables = np.array(tables)
        expect = [is_scalar_coboundary(D, t, m, units=units) is not None for t in tables]
        S = D.minimal_generators()
        assert coboundary_mask(D, tables[..., S], m, units).tolist() == expect
        gens = padded_generators(D)
        assert coboundary_mask(D, tables[..., gens], m, units, gens).tolist() == expect
        verdicts.update(expect)
    assert verdicts == {True, False}


def cup_search_by_generators(sd, a_table, delta_v, c_v):
    """The cup search as one loop: generators from the last, one every-row solve each.

    Returns the first (y, beta) with beta = [a] cup y no coboundary, or None.
    """
    nhat_tw = sd.N_hat.with_actor(delta_v, c_v)
    n_tw = sd.N.with_actor(delta_v, c_v)
    inflated = sd.N_hat.reduce(a_table)[c_v]
    h_pts = h1(delta_v, n_tw)
    for ycoords in np.eye(len(h_pts.invariant_factors), dtype=np.int64)[::-1]:
        y = h_pts.element_table(ycoords)
        beta = cup_h1_h1(delta_v, nhat_tw, inflated, n_tw, y)
        if is_scalar_coboundary(delta_v, beta, sd.N.exponent) is None:
            return y, beta
    return None


def _example_p2_cases():
    """(name, datum, a, Delta_v, c_v) on the p = 2 group-ring example."""
    ex = build_example_714(2)
    gen = 4 * ex.a_table % 8
    Q = ex.sd.Q
    yield "714 identity", ex.sd, gen, Q, np.arange(8)
    yield "714 Q x Z2", ex.sd, gen, abelian_group([2, 2, 2, 2]), np.arange(16) >> 1
    rng = np.random.default_rng(0)
    module = AbelianModule((2, 2, 2))
    index = {tuple(module.vector_of_index(i)): i for i in range(8)}
    for k in range(2):
        while round(np.linalg.det(A := rng.integers(0, 2, size=(3, 3)))) % 2 == 0:
            pass
        c_v = [index[tuple(A @ module.vector_of_index(i) % 2)] for i in range(8)]
        yield f"714 automorphism {k}", ex.sd, gen, Q, np.array(c_v)


CUP_CASES = [case[:5] for case in _cup_search_cases()] + list(_example_p2_cases())


@pytest.mark.parametrize("case", CUP_CASES, ids=lambda case: case[0])
def test_cup_search_matches_the_per_generator_loop(case):
    _, sd, a, delta_v, c_v = case
    c_v = np.asarray(c_v, dtype=np.int64)
    w = local_witness(sd, h1(sd.Q, sd.N_hat), a, delta_v, c_v, search_cup=True)
    expect = cup_search_by_generators(sd, a, delta_v, c_v)
    assert w.cup_status == ("NoneAtThisLevel" if expect is None else "WitnessPairFound")
    if expect is None:
        assert w.cup_point is None and w.cup_beta is None
    else:
        assert np.array_equal(w.cup_point.y_table, expect[0])
        assert np.array_equal(w.cup_beta, expect[1])


def _forbidden(*args, **kwargs):
    raise AssertionError("a reference was called")


REFERENCES = [obj for obj in vars(brnr.reference).values()
              if callable(obj) and getattr(obj, "__module__", None) == "brnr.reference"]


@pytest.fixture
def no_reference(monkeypatch):
    """Make every callable of brnr.reference raise wherever brnr binds it."""
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "brnr" or name.startswith("brnr.")):
            for attr, obj in list(vars(mod).items()):
                if any(obj is ref for ref in REFERENCES):
                    monkeypatch.setattr(mod, attr, _forbidden)


def _imports_reference(node) -> bool:
    """Whether an import statement inside src/brnr reads brnr.reference."""
    if isinstance(node, ast.Import):
        return any(a.name.split(".")[:2] == ["brnr", "reference"] for a in node.names)
    if not isinstance(node, ast.ImportFrom):
        return False
    module = node.module or ""
    if node.level:
        module = f"brnr.{module}" if module else "brnr"
    return "brnr.reference" in [module] + [f"{module}.{a.name}" for a in node.names]


def test_no_production_module_imports_the_references():
    # the selftest suite and the package's re-exports are the only readers
    importers = {path.name for path in (REPO / "src" / "brnr").glob("*.py")
                 if any(map(_imports_reference, ast.walk(ast.parse(path.read_text()))))}
    assert importers == {"selfchecks.py", "__init__.py"}
    assert len(REFERENCES) > 20


@pytest.mark.parametrize("job", sorted(p.stem for p in (REPO / "jobs").glob("*.json")))
def test_worked_jobs_match_their_goldens_without_the_references(no_reference, job, capsys):
    assert main(["run", str(REPO / "jobs" / f"{job}.json")]) == 0
    golden = (REPO / "tests" / "golden" / f"{job}.txt").read_text()
    assert strip_timing(capsys.readouterr().out) == strip_timing(golden)


def test_obstruction_and_cup_jobs_run_without_the_reference(no_reference, capsys):
    assert main(["run", str(REPO / "jobs" / "obstruction-p2.json")]) == 0
    assert "NonzeroCertified" in capsys.readouterr().out
    job = json.loads((REPO / "jobs" / "obstruction-p2.json").read_text())
    job["local"][0]["search_cup"] = True
    report, code = run_job(parse_job(json.dumps(job)))
    assert code == 0 and "excluded" in report


def test_real_like_bm_report_runs_without_the_reference(no_reference):
    # table classes through the per-place span test, and a fast-path entry
    # whose cup witness goes through the theta-cup verdict
    gal = GaloisDatum.real_like(dihedral_group(4))
    cm = class_module(gal)
    entries = [ClassEntry(f"c{i}", cm.element(np.array(x))) for i, x in enumerate(
        itertools.islice(itertools.product(*map(range, cm.invariant_factors)), 8))]
    _, sd, a, V, c_v = next(case for case in CUP_CASES if case[0].startswith("V4"))
    w = local_witness(sd, h1(sd.Q, sd.N_hat), a, V, np.array(c_v), search_cup=True)
    assert w.cup_status == "WitnessPairFound"
    entries.append(FastpathClassEntry("fast", sd, a, sd.group_order, {"V4": w}))
    rep = bm_report(entries, places_onto(gal), gal)
    verdicts = {pv.verdict for rows in rep.per_class.values() for pv in rows}
    assert {"Zero", "Unknown"} <= verdicts
    assert any(pv.point_label == "theta-cup" for pv in rep.per_class["fast"])
    # the references themselves are switched off: evaluate solves on every row
    ld = places_onto(gal)[2]
    with pytest.raises(AssertionError, match="a reference was called"):
        evaluate(entries[1].ext, ld, nonabelian_h1(ld, gal)[0])
