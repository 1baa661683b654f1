"""Command-line surface: JSON job files in, deterministic text reports out.

One job per file.  A job names a task, the group data it needs, and
optionally a Galois datum, local data, and cap overrides.  Reports echo
the canonicalized input, print group structure as invariant factors with
representative tables, and list witnesses for every rejection.  Exit codes:
0 success, 2 parse error, 3 validation error, 4 cap exceeded, 1 internal.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .engine import algebraic_unramified, b0, br_nr, sha2_ab
from .errors import BrnrError, CapError, ParseError, ValidationError
from .extensions import GaloisDatum
from .fastpath import (
    SemidirectDatum,
    build_example_714,
    local_witness,
    sha1_bic,
)
from .groups import (
    AbelianModule,
    FiniteGroup,
    GroupAction,
    abelian_group,
    group_from_permutations,
    group_from_table,
    semidirect_product,
)
from .localeval import ClassEntry, FastpathClassEntry, LocalDatum, bm_report
from .zmod import MAX_MODULUS

TASKS = ("b0", "brnr", "sha1bic", "algebraic", "bmreport", "sha2ab")


@dataclass
class Job:
    task: str
    raw: dict
    caps: Caps

    def canonical(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


def parse_job(text: str) -> Job:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.msg, line=err.lineno, column=err.colno) from err
    if not isinstance(raw, dict):
        raise ParseError("job must be a JSON object")
    task = raw.get("task")
    if task not in TASKS:
        raise ValidationError(f"task must be one of {TASKS}", witness=task)
    caps = raw.get("caps", {})
    if not isinstance(caps, dict):
        raise ValidationError("caps must be a JSON object", witness=caps)
    with _naming("caps"):
        return Job(task, raw, DEFAULT_CAPS.with_overrides(caps))


# ---------------------------------------------------------------------------
# builders from job records
# ---------------------------------------------------------------------------


def _field(spec, key: str, owner: str):
    """spec[key]; a ValidationError naming owner.key if it is missing."""
    if not isinstance(spec, dict):
        raise ValidationError(f"{owner} must be a JSON object", witness=spec)
    if key not in spec:
        raise ValidationError(f"{owner}.{key} is missing")
    return spec[key]


def _ints(spec, key: str, owner: str, ndim: int) -> np.ndarray:
    """spec[key] as a rectangular integer array of rank ndim (or empty of lower rank)."""
    value = _field(spec, key, owner)
    try:
        arr = np.asarray(value)
    except ValueError as err:               # ragged nesting
        raise ValidationError(f"{owner}.{key} must be a rectangular array") from err
    # numpy reads integers outside int64 as uint64, float64 or object
    if arr.size and arr.ndim == ndim and (
            arr.dtype.kind == "u" and arr.max() > np.iinfo(np.int64).max
            or arr.dtype.kind not in "iu"
            and all(type(x) is int for x in np.asarray(value, dtype=object).flat)):
        raise ValidationError(f"{owner}.{key} holds integers out of the 64-bit range")
    if arr.ndim > ndim or arr.size and (arr.ndim != ndim or arr.dtype.kind not in "iu"):
        raise ValidationError(f"{owner}.{key} must be a {ndim}-dimensional "
                              "array of integers")
    return arr.astype(np.int64)


def _factors(spec, owner: str) -> np.ndarray:
    """spec["invariant_factors"], each at most MAX_MODULUS."""
    factors = _ints(spec, "invariant_factors", owner, 1)
    if (factors > MAX_MODULUS).any():
        raise ValidationError(f"{owner}.invariant_factors must be at most {MAX_MODULUS}",
                              witness=int(factors.max()))
    return factors


def _positive_int(spec: dict, key: str, owner: str, most: int | None = None) -> int | None:
    """Optional spec[key], which must be a positive integer (at most ``most``)."""
    value = spec.get(key)
    if value is not None and (isinstance(value, bool) or not isinstance(value, int)
                              or value < 1 or (most is not None and value > most)):
        raise ValidationError(f"{owner}.{key} must be a positive integer"
                              + ("" if most is None else f" at most {most}"), witness=value)
    return value


def _bool(spec: dict, key: str, owner: str) -> bool:
    """Optional spec[key], which must be true or false when present."""
    value = spec.get(key, False)
    if not isinstance(value, bool):
        raise ValidationError(f"{owner}.{key} must be true or false", witness=value)
    return value


@contextmanager
def _naming(field: str):
    """Prefix a validation error raised inside with the job field it concerns."""
    try:
        yield
    except ValidationError as err:
        raise ValidationError(f"{field}: {err}") from err


def _group_table(spec, key: str, owner: str) -> FiniteGroup:
    table = _ints(spec, key, owner, 2)
    with _naming(f"{owner}.{key}"):
        return group_from_table(table)


def _build_group(spec, caps: Caps):
    """Returns (FiniteGroup | None, SemidirectDatum | None, AugmentationExample | None).

    A semidirect group is left untabulated: ``run_job`` tabulates it, under
    the ``table_group`` cap, only for the tasks that need its table.
    """
    kind = _field(spec, "kind", "group")
    if kind == "table":
        return _group_table(spec, "table", "group"), None, None
    if kind == "permutations":
        gens = _ints(spec, "generators", "group", 2)
        degree = _positive_int(spec, "degree", "group")
        with _naming("group.generators"):
            return group_from_permutations(gens, degree=degree, caps=caps), None, None
    if kind == "abelian":
        factors = _factors(spec, "group")
        with _naming("group.invariant_factors"):
            return abelian_group(factors, caps), None, None
    if kind == "semidirect":
        factors = _factors(_field(spec, "q", "group"), "group.q")
        with _naming("group.q.invariant_factors"):
            q = abelian_group(factors, caps)
        n_spec = _field(spec, "n", "group")
        factors = _factors(n_spec, "group.n")
        action = None if n_spec.get("action") is None \
            else _ints(n_spec, "action", "group.n", 3)
        with _naming("group.n"):
            module = AbelianModule(tuple(factors), q, action)
            module.validate()
        return None, SemidirectDatum(q, module), None
    if kind == "example714":
        ex = build_example_714(_positive_int(spec, "p", "group") or 2)
        return None, ex.sd, ex
    raise ValidationError("unknown group kind", witness=kind)


def _build_galois(spec, G: FiniteGroup) -> GaloisDatum:
    if spec is None:
        return GaloisDatum.trivial(G)
    if not isinstance(spec, dict):
        raise ValidationError("galois must be a JSON object", witness=spec)
    kind = spec.get("kind")
    if kind not in (None, "trivial", "real"):
        raise ValidationError('galois.kind must be "trivial", "real" or absent',
                              witness=kind)
    modulus = _positive_int(spec, "modulus", "galois", most=MAX_MODULUS)
    closed = _bool(spec, "base_algebraically_closed", "galois")
    with _naming("galois.modulus"):            # exp(G) | N, a precondition of every kind
        trivial = GaloisDatum.trivial(G, modulus, base_algebraically_closed=closed)
    if kind == "trivial":
        return trivial
    if kind == "real":
        return GaloisDatum.real_like(G, modulus)
    delta = _group_table(spec, "delta_table", "galois")
    table = _ints(spec, "action", "galois", 2)
    with _naming("galois.action"):
        action = GroupAction(delta, G, table)
    chi = _ints(spec, "chi", "galois", 1)
    with _naming("galois.chi"):
        gal = GaloisDatum(delta, G, chi, action, modulus, closed)
        gal.validate_chi()
    with _naming("galois.action"):
        action.validate()
    return gal


def _build_local(spec) -> LocalDatum:
    delta_v = _group_table(spec, "delta_v_table", "local")
    to_delta = _ints(spec, "to_delta", "local", 1)
    gens = (tuple(map(int, _ints(spec, "generators", "local", 1)))
            if "generators" in spec else None)
    label = spec.get("label", "v")
    if not isinstance(label, str):
        raise ValidationError("local.label must be a string", witness=label)
    return LocalDatum(label, delta_v, to_delta, gens)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _fmt_factors(factors) -> str:
    if not factors:
        return "0"
    return " x ".join(f"Z/{d}" for d in factors)


def _fmt_table(arr: np.ndarray, name: str, limit: int = 16) -> list[str]:
    arr = np.asarray(arr)
    out = [f"{name} (shape {'x'.join(map(str, arr.shape))}):"]
    if arr.size > limit * limit:
        out.append("  [omitted: larger than the print cap]")
        return out
    if arr.ndim == 1:
        out.append("  " + " ".join(map(str, arr.tolist())))
    else:
        for row in arr.reshape(arr.shape[0], -1):
            out.append("  " + " ".join(map(str, row.tolist())))
    return out


def run_job(job: Job) -> tuple[str, int]:
    """Execute the task; returns (report text, exit code)."""
    lines: list[str] = []
    start = time.time()
    lines.append("job: " + job.canonical())
    task = job.task
    caps = job.caps
    raw = job.raw

    group, sd, example = _build_group(raw.get("group", {}), caps)
    if task in ("b0", "brnr", "algebraic", "sha2ab") and group is None:
        if example is not None:
            raise ValidationError(f"task {task} needs a tabulated group")
        group = semidirect_product(sd.N, sd.Q, caps=caps).group

    if task == "b0":
        rep = b0(group, caps)
        lines.append(f"B_0 = {_fmt_factors(rep.invariant_factors)}")
        for i, ext in enumerate(rep.representatives):
            lines.extend(_fmt_table(ext.f, f"generator {i} cocycle"))

    elif task == "brnr":
        gal = _build_galois(raw.get("galois"), group)
        rep = br_nr(gal, caps)
        lines.append(f"Br0_nr = {_fmt_factors(rep.invariant_factors)}")
        for coords, ok, wit in rep.tested:
            if not ok:
                lines.append(f"rejected class {coords}: {wit[0]} witness {wit[1]}")
        for i, ext in enumerate(rep.representatives):
            lines.extend(_fmt_table(ext.f, f"generator {i} cocycle"))
            lines.extend(_fmt_table(ext.c, f"generator {i} twist"))

    elif task == "sha1bic":
        if sd is None:
            raise ValidationError("task sha1bic needs a semidirect group")
        rep = sha1_bic(sd, caps)
        lines.append(f"Sha1_bic(Q, N^) = {_fmt_factors(rep.invariant_factors)}")
        if example is not None:
            amb = rep.ambient
            gen = (example.expected_generator_multiple * example.a_table) \
                % sd.N_hat.exponent
            coords = amb.coordinates(gen)
            lines.append(
                f"H1(Q, N^) = {_fmt_factors(amb.invariant_factors)}; "
                f"p^2*[a] has coordinates {coords.tolist()}")
        for i, table in enumerate(rep.representatives):
            lines.extend(_fmt_table(table, f"generator {i} (1-cocycle on Q)"))

    elif task == "algebraic":
        gal = _build_galois(raw.get("galois"), group)
        rep = algebraic_unramified(gal, caps)
        lines.append(f"Br0_nr_alg = {_fmt_factors(rep.invariant_factors)}")

    elif task == "sha2ab":
        m = _positive_int(raw, "modulus", "job", most=MAX_MODULUS) or 2
        rep = sha2_ab(group, m, caps)
        lines.append(f"Sha2_ab(G, Z/{m}) = {_fmt_factors(rep.invariant_factors)}")

    elif task == "bmreport":
        local = raw.get("local", [])
        if not isinstance(local, list):
            raise ValidationError("local must be a list of objects", witness=local)
        data = [_build_local(spec) for spec in local]
        labels = [ld.label for ld in data]
        for i, label in enumerate(labels):
            if label in labels[:i]:
                raise ValidationError("local.label must be unique", witness=label)
        if sd is not None:
            gal = GaloisDatum.trivial(group_from_table([[0]]), N=1)
        elif group is None:
            raise ValidationError("evaluation needs a group")
        else:
            gal = _build_galois(raw.get("galois"), group)
        for ld in data:
            with _naming("local"):
                ld.validate(gal)
        entries = []
        if sd is not None:
            fast = sha1_bic(sd, caps)
            witnesses: dict[str, Any] = {}
            if fast.invariant_factors:
                gen = fast.representatives[0]
                for spec, ld in zip(local, data):
                    c_v = _ints(spec, "c_v", "local", 1)
                    witnesses[ld.label] = local_witness(
                        sd, fast.ambient, gen, ld.delta_v, c_v, caps=caps,
                        search_cup=_bool(spec, "search_cup", "local"))
                entries.append(FastpathClassEntry(
                    "sha-generator", sd, gen, sd.group_order, witnesses))
        else:
            rep = br_nr(gal, caps)
            for i, ext in enumerate(rep.representatives):
                entries.append(ClassEntry(f"class{i}", ext))
        report = bm_report(entries, data, gal, caps)
        counts = report.counts()
        lines.append(
            f"tuples: {counts['Admissible']} admissible, "
            f"{counts['Excluded']} excluded, "
            f"{counts['Undetermined']} undetermined")
        for label, rows in report.per_class.items():
            for pv in rows:
                lines.append(
                    f"{label} @ {pv.place} [{pv.point_label}]: {pv.verdict}"
                    + (f" ({pv.detail})" if pv.detail else ""))
        for combo, status in report.tuple_rows:
            lines.append("tuple " + " | ".join(combo) + f" -> {status}")

    lines.append(f"# timing: {time.time() - start:.3f}s (excluded from determinism)")
    return "\n".join(lines) + "\n", 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------


def selftest(verbose: bool = True) -> int:
    """Run the bundled oracle checks; returns the number of failures."""
    from . import selfchecks

    failures = 0
    for name, fn in selfchecks.CHECKS:
        try:
            fn()
            status = "PASS"
        except Exception as err:  # noqa: BLE001 - report and continue
            status = f"FAIL ({err})"
            failures += 1
        if verbose:
            print(f"[{status.split()[0]:4}] {name}" +
                  ("" if status == "PASS" else f" :: {status}"))
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="brnr",
        description="unramified Brauer groups of SL_n/G and their local evaluation")
    parser.add_argument("command", choices=["run", "selftest"])
    parser.add_argument("jobfile", nargs="?", help="JSON job file for 'run'")
    parser.add_argument("--cap", action="append", default=[],
                        metavar="NAME=VALUE", help="override a cap")
    args = parser.parse_args(argv)

    try:
        if args.command == "selftest":
            failures = selftest()
            return 1 if failures else 0
        if not args.jobfile:
            print("run requires a job file", file=sys.stderr)
            return 2
        try:
            with open(args.jobfile, "r", encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as err:
            raise ParseError(f"cannot read job file {args.jobfile}: {err}") from err
        job = parse_job(text)
        overrides = {name: value for name, _, value in
                     (item.partition("=") for item in args.cap)}
        if overrides:
            job = Job(job.task, job.raw, job.caps.with_overrides(overrides))
        report, code = run_job(job)
        sys.stdout.write(report)
        return code
    except ParseError as err:
        print(f"parse error: {err}", file=sys.stderr)
        return 2
    except (ValidationError, BrnrError) as err:
        if isinstance(err, CapError):
            print(f"cap exceeded: {err}", file=sys.stderr)
            return 4
        print(f"validation error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
