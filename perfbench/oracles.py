"""Untimed answer checks for the benchmark jobs.

Every check returns ``None`` when the answer is right and a one-line
message when it is not.  The expected values come from routes that do not
share the code path the job timed: theorems (``B_0 = 0`` for abelian
groups), the semidirect fast path against the general engine, exhaustive
search, and the published values of the group-ring example.
"""

from __future__ import annotations

import itertools
import re

import numpy as np

from brnr import cohomology, engine, extensions, fastpath


def fmt_factors(factors) -> str:
    """The CLI's rendering of an abelian group by invariant factors."""
    return " x ".join(f"Z/{d}" for d in factors) if factors else "0"


def report_line(report: str, prefix: str) -> str:
    for line in report.splitlines():
        if line.startswith(prefix):
            return line[len(prefix):].strip()
    raise ValueError(f"report has no line starting with {prefix!r}")


def expect_line(report: str, prefix: str, expected: str):
    got = report_line(report, prefix)
    if got != expected:
        return f"{prefix}{got!r}, expected {expected!r}"
    return None


class Oracles:
    """Expected values, each computed once per run and cached by input type."""

    def __init__(self):
        self._cache: dict = {}

    def memo(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]

    # -- B_0 --------------------------------------------------------------

    def b0_expected(self, gtype) -> tuple[int, ...]:
        """B_0 of a group type, from a route other than ``b0`` itself."""
        kind = gtype.kind
        if kind == "abelian":
            return ()                                  # B_0 = 0 for abelian G
        if kind == "semidirect":                       # sha1_bic == b0
            return self.memo(("sha1", gtype.key), lambda: tuple(
                fastpath.sha1_bic(gtype.datum()).invariant_factors))
        # remaining groups: br_nr over the trivial Galois datum equals b0
        return self.memo(("brnr-trivial", gtype.key), lambda: tuple(
            engine.br_nr(extensions.GaloisDatum.trivial(gtype.group())).invariant_factors))

    # -- the group-ring example -------------------------------------------

    def example_h1(self, p: int):
        return self.memo(("h1", p), lambda: _example_h1(p))

    def check_example_sha1bic(self, report: str, p: int):
        """p=2: H1 = Z/8, Sha = Z/2 generated by 4[a]; p=3: Sha = Z/3."""
        q = p ** 3
        msg = expect_line(report, "Sha1_bic(Q, N^) = ", fmt_factors((p,)))
        msg = msg or expect_line(report, "H1(Q, N^) = ",
                                 f"{fmt_factors((q,))}; p^2*[a] has coordinates [{p * p}]")
        if msg or p != 2:
            return msg
        ex, H = self.example_h1(p)
        table = _parse_table(report, "generator 0 (1-cocycle on Q)")
        gen = H.coordinates(table)
        four_a = H.coordinates((p * p * ex.a_table) % q)
        if gen is None or four_a is None or not np.array_equal(gen % q, four_a % q):
            return f"Sha generator has H1 coordinates {gen}, 4[a] has {four_a}"
        return None

    # -- local evaluation -------------------------------------------------

    def point_count(self, gtype, G, place) -> int:
        return self.memo(("points", gtype.key, place.key),
                         lambda: hom_classes(G.mul, place.table))


def _example_h1(p):
    ex = fastpath.build_example_714(p)
    return ex, cohomology.h1(ex.sd.Q, ex.sd.N_hat)


def _parse_table(report: str, title: str) -> np.ndarray:
    lines = report.splitlines()
    for i, line in enumerate(lines):
        if line.startswith(title):
            rows = int(re.search(r"shape (\d+)x", line).group(1))
            return np.array([[int(x) for x in lines[i + 1 + r].split()]
                             for r in range(rows)], dtype=np.int64)
    raise ValueError(f"report has no table {title!r}")


def check_bm_report(report: str, min_excluded: int = 1):
    """The obstruction report: the base point is Zero, some row is Excluded."""
    m = re.search(r"tuples: (\d+) admissible, (\d+) excluded", report)
    if m is None:
        return "report has no tuple summary"
    if int(m.group(2)) < min_excluded:
        return f"{m.group(2)} excluded tuple rows, expected at least {min_excluded}"
    if not re.search(r"@ \S+ \[base\]: Zero", report):
        return "base point does not evaluate to Zero"
    return None


def hom_classes(g_mul: np.ndarray, d_mul: np.ndarray) -> int:
    """|Hom(D, G) / conjugation by G|, by exhaustive search over all maps.

    This is the number of local points for a Galois datum acting trivially
    on G (the real-like data): twisted cocycles are then homomorphisms and
    twisted conjugation is conjugation.
    """
    g_mul = np.asarray(g_mul)
    d_mul = np.asarray(d_mul)
    n, k = g_mul.shape[0], d_mul.shape[0]
    g_inv = np.argmin(g_mul, axis=1)                 # g * g_inv[g] = 0
    classes = set()
    for tail in itertools.product(range(n), repeat=k - 1):
        h = np.array((0,) + tail)
        if not np.array_equal(h[d_mul], g_mul[h[:, None], h[None, :]]):
            continue
        classes.add(min(tuple(g_mul[g_mul[g_inv[g], h], g]) for g in range(n)))
    return len(classes)


def admissible_triples(gal) -> list[tuple[int, int, int]]:
    """All (d, tau, gamma) with gamma (d.tau) gamma^-1 = tau^chi(d)."""
    G = gal.G
    mul, n = G.mul, G.order
    inv = [int(np.nonzero(mul[g] == 0)[0][0]) for g in range(n)]
    out = []
    for d in range(gal.delta.order):
        chi = int(gal.chi[d])
        for tau in range(n):
            cycle = [0]                               # tau^0, tau^1, ...
            while len(cycle) == 1 or cycle[-1] != 0:
                cycle.append(int(mul[cycle[-1], tau]))
            power = cycle[chi % (len(cycle) - 1)]
            d_tau = int(gal.action.table[d, tau])
            for gamma in range(n):
                if int(mul[mul[gamma, d_tau], inv[gamma]]) == power:
                    out.append((d, tau, gamma))
    return out


def check_galois_triples(gal, rng: np.random.Generator, classes: int = 1,
                         triples: int = 3):
    """Closed-form Galois condition vs exhaustive search on sampled triples."""
    cm = extensions.class_module(gal)
    if not cm.invariant_factors:
        return None
    adm = admissible_triples(gal)
    for _ in range(classes):
        coords = [int(rng.integers(0, d)) for d in cm.invariant_factors]
        ext = cm.element(coords)
        for i in rng.choice(len(adm), size=min(triples, len(adm)), replace=False):
            d, tau, gamma = adm[int(i)]
            closed = engine.galois_condition_single(ext, d, tau, gamma)
            brute = engine.galois_condition_bruteforce(ext, d, tau, gamma)
            if closed != brute:
                return (f"Galois condition at {(d, tau, gamma)} for class {coords}: "
                        f"closed form {closed}, search {brute}")
    return None
