"""The four workloads: seeded inputs, the timed calls, and their checks.

A workload is a list of slots, each a fixed kind of job on a fixed group
type.  One round draws one job per slot from the seed and shuffles them; a
run executes a fixed number of rounds, so every run carries the same mix
of work.  The seed draws each job's multiplication table as a relabelling
of its type (the identity stays at index 0) and, where a slot has them,
its Galois character, structure maps and module action.  The answers are
invariant under relabelling, so each check compares against an expected
value computed once per group type; the cost is not invariant, because the
package walks elements in index order, and that is part of what the
benchmark measures.

Most jobs are JSON job texts sent through ``cli.parse_job`` and
``cli.run_job``, as a user of the CLI would send them.  The local
evaluation jobs and the p = 3 group-ring job call the package directly;
see README.md for why.
"""

from __future__ import annotations

import functools
import itertools
import json
from dataclasses import dataclass
from math import gcd
from typing import Callable

import numpy as np

from brnr import cli, engine, extensions, fastpath, groups, localeval

import oracles
from oracles import expect_line, fmt_factors


@dataclass
class Job:
    label: str                                   # slot and group type
    call: Callable[[], object]                   # the timed call
    check: Callable[[object], "str | None"]      # untimed; message on mismatch


@dataclass(frozen=True)
class GroupType:
    """A group up to isomorphism: abelian, N x| Q by diagonal units, or Q8 x A."""

    kind: str                  # "abelian" | "semidirect" | "quaternion"
    key: str
    args: tuple

    def datum(self) -> fastpath.SemidirectDatum:
        n_factors, q_factors, units = self.args
        return diagonal_datum(n_factors, q_factors, units)

    def group(self) -> groups.FiniteGroup:
        if self.kind == "abelian":
            return groups.abelian_group(list(self.args))
        if self.kind == "semidirect":
            sd = self.datum()
            return groups.semidirect_product(sd.N, sd.Q).group
        return groups.semidirect_product(groups.abelian_group(list(self.args)),
                                         groups.quaternion_group()).group


def ab(*factors) -> GroupType:
    return GroupType("abelian", "x".join(f"Z{d}" for d in factors), factors)


def sd(key, n_factors, q_factors, units) -> GroupType:
    return GroupType("semidirect", key, (tuple(n_factors), tuple(q_factors),
                                         tuple(map(tuple, units))))


def q8(*factors) -> GroupType:
    return GroupType("quaternion", "x".join(["Q8"] + [f"Z{d}" for d in factors]), factors)


def diagonal_datum(n_factors, q_factors, units) -> fastpath.SemidirectDatum:
    """Q acting on N = prod Z/d, generator i of Q scaling coordinate j by units[i][j]."""
    Q = groups.abelian_group(list(q_factors))
    gens = Q.minimal_generators()
    d = np.array(n_factors, dtype=np.int64)[:, None]
    mats = {0: np.eye(len(n_factors), dtype=np.int64)}
    frontier = [0]
    for x in frontier:
        for g, u in zip(gens, units):
            y = int(Q.mul[x, g])
            if y not in mats:
                mats[y] = mats[x] @ np.diag(u) % d
                frontier.append(y)
    module = groups.AbelianModule(tuple(n_factors), Q,
                                  np.array([mats[q] for q in range(Q.order)]))
    module.validate()
    return fastpath.SemidirectDatum(Q, module)


def relabel(mul: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """The same group with element i renamed perm[i] (perm[0] = 0)."""
    inv = np.argsort(perm)
    return perm[mul[np.ix_(inv, inv)]]


def random_perm(n: int, rng: np.random.Generator) -> np.ndarray:
    return np.concatenate([[0], 1 + rng.permutation(n - 1)]).astype(np.int64)


class Context:
    """Per-run state shared by the slots: oracle caches and canonical tables."""

    def __init__(self, oracle: oracles.Oracles):
        self.oracle = oracle
        self._inputs: dict = {}

    def input(self, key, build):
        if key not in self._inputs:
            self._inputs[key] = build()
        return self._inputs[key]

    def group(self, gtype: GroupType) -> groups.FiniteGroup:
        return self.input(gtype.key, gtype.group)


def cli_job(label: str, spec: dict, check) -> Job:
    text = json.dumps(spec, separators=(",", ":"))
    return Job(label, lambda: cli.run_job(cli.parse_job(text))[0], check)


def table_spec(mul: np.ndarray) -> dict:
    return {"kind": "table", "table": mul.tolist()}


# ---------------------------------------------------------------------------
# bogomolov-scan: b0 jobs over groups of order 16 and 32
# ---------------------------------------------------------------------------

# Orders 16 and 32, placed so that each reported order statistic falls
# inside a run of one group type: six copies of Z2xZ2xZ4 hold the median,
# four of Z2xZ2xZ8 the tail, with (Z/2)^5 (187 bicyclic subgroups) above.
B0_TYPES = [
    sd("M16", [8], [2], [[5]]), sd("SD16", [8], [2], [[3]]), ab(2, 8),
    sd("D8", [8], [2], [[-1]]), ab(4, 4), sd("Z4:Z4", [4], [4], [[-1]]),
    *[ab(2, 2, 4)] * 6,
    sd("D4xZ2", [2, 4], [2], [[1, -1]]), ab(2, 2, 2, 2), q8(2), sd("D16", [16], [2], [[-1]]),
    *[ab(2, 2, 8)] * 4,
    ab(2, 2, 2, 2, 2),
]


def b0_slot(gtype: GroupType):
    def make(rng, ctx: Context) -> Job:
        G = ctx.group(gtype)
        table = relabel(G.mul, random_perm(G.order, rng))
        return cli_job(
            f"b0 {gtype.key}", {"task": "b0", "group": table_spec(table)},
            lambda rep: expect_line(rep, "B_0 = ",
                                    fmt_factors(ctx.oracle.b0_expected(gtype))))
    return make


def b0_warmup(ctx: Context) -> list[Job]:
    return [cli_job("warm-up b0 Z4", {"task": "b0", "group": table_spec(
        groups.cyclic_group(4).mul)}, lambda rep: expect_line(rep, "B_0 = ", "0"))]


# ---------------------------------------------------------------------------
# galois-filter: brnr and algebraic jobs over Galois data
# ---------------------------------------------------------------------------

# brnr over real-like data.  Five copies of Z5xZ5 hold the median and five
# of Z2xZ2xZ4 the tail, with (Z/2)^4 above them.
REAL_BELOW = [ab(2, 2, 2), ab(16), ab(2, 4)]
REAL_MEDIAN = [ab(5, 5)] * 5 + [ab(3, 9)]
REAL_TAIL = [ab(2, 2, 4)] * 5 + [ab(2, 2, 2, 2)]


def swap_datum(half) -> tuple[groups.FiniteGroup, np.ndarray]:
    """(A x A, the coordinate swap as a permutation of its element indices)."""
    factors = list(half) * 2
    G = groups.abelian_group(factors)
    module = groups.AbelianModule(tuple(factors))
    index = {tuple(module.vector_of_index(i)): i for i in range(G.order)}
    k = len(half)
    swap = np.array([index[v[k:] + v[:k]] for v in
                     (tuple(module.vector_of_index(i)) for i in range(G.order))])
    return G, swap


def cyclotomic_units(N: int, k: int, one_mod_n: bool) -> list[int]:
    """Units u mod N^2 of exact order k, optionally with u = 1 mod N."""
    n2 = N * N
    return [u for u in range(2, n2) if gcd(u, n2) == 1 and pow(u, k, n2) == 1
            and all(pow(u, j, n2) != 1 for j in range(1, k))
            and (not one_mod_n or u % N == 1)]


@dataclass
class GaloisInput:
    """A Galois datum as job tables: Delta's table, chi mod N^2, the action."""

    G: np.ndarray
    delta: np.ndarray
    chi: list
    action: np.ndarray

    def relabelled(self, rng) -> "GaloisInput":
        perm = random_perm(self.G.shape[0], rng)
        act = np.empty_like(self.action)
        act[:, perm] = perm[self.action]
        return GaloisInput(relabel(self.G, perm), self.delta, self.chi, act)

    def spec(self) -> dict:
        return {"delta_table": self.delta.tolist(), "chi": list(self.chi),
                "action": self.action.tolist(), "modulus": int(self.G.shape[0])}

    def datum(self) -> extensions.GaloisDatum:
        G = groups.FiniteGroup(self.G, validate=False)
        delta = groups.FiniteGroup(self.delta, validate=False)
        return extensions.GaloisDatum(delta, G, np.array(self.chi),
                                      groups.GroupAction(delta, G, self.action))


def real_slot(gtype: GroupType):
    def make(rng, ctx: Context) -> Job:
        G = ctx.group(gtype)
        table = relabel(G.mul, random_perm(G.order, rng))
        spec = {"task": "brnr", "group": table_spec(table), "galois": {"kind": "real"}}
        # real-like data give 0 on abelian 2-groups and on odd-order groups
        return cli_job(f"brnr real {gtype.key}", spec,
                       lambda rep: expect_line(rep, "Br0_nr = ", "0"))
    return make


def swap_input(half):
    """Delta = Z/2 swapping the halves of G = A x A; chi(sigma) = 1 or -1 mod N^2."""
    def make(rng, chi_one: bool) -> tuple[str, GaloisInput]:
        G, swap = swap_datum(half)
        N = G.order
        c = 1 if chi_one else int(rng.choice([1, N * N - 1]))
        gin = GaloisInput(G.mul, groups.cyclic_group(2).mul, [1, c],
                          np.array([np.arange(N), swap]))
        return f"swap {'x'.join(map(str, half * 2))} chi={c}", gin
    return make


def twist_input(gtype: GroupType, k: int):
    """Delta = Z/k acting trivially on G, chi(d) = u^d for a seeded unit u mod N^2."""
    def make(rng, one_mod_n: bool) -> tuple[str, GaloisInput]:
        G = gtype.group()
        n2 = G.order * G.order
        u = int(rng.choice(cyclotomic_units(G.order, k, one_mod_n)))
        gin = GaloisInput(G.mul, groups.cyclic_group(k).mul,
                          [pow(u, d, n2) for d in range(k)],
                          np.tile(np.arange(G.order), (k, 1)))
        return f"twist {gtype.key} k={k} u={u}", gin
    return make


def brnr_galois_slot(make_input):
    """brnr on a swap or twist datum.

    No closed form is known for these answers, so the check is twofold:
    the closed-form Galois condition agrees with exhaustive search in the
    extension group on seeded triples of this job's datum, and the answer
    equals the answer for the unrelabelled datum (Br_nr is an isomorphism
    invariant).
    """
    def make(rng, ctx: Context) -> Job:
        key, canonical = make_input(rng, False)
        gin = canonical.relabelled(rng)
        check_seed = int(rng.integers(2**31))
        # depends on the datum only, so it is made once however often the job runs
        check_datum = functools.cache(lambda: oracles.check_galois_triples(
            gin.datum(), np.random.default_rng(check_seed)))

        def check(rep):
            expected = ctx.oracle.memo(("brnr", key), lambda: fmt_factors(
                engine.br_nr(canonical.datum()).invariant_factors))
            return expect_line(rep, "Br0_nr = ", expected) or check_datum()

        spec = {"task": "brnr", "group": table_spec(gin.G), "galois": gin.spec()}
        return cli_job(f"brnr {key}", spec, check)
    return make


def algebraic_slot(make_input):
    """algebraic on data with chi = 1 mod N: the algebraic part is 0.

    For a twist the action on G is trivial, so every (d, tau) is admissible
    with gamma = 1 and kills c_d(tau).  For a swap, Hom(A x A, Z/N) with the
    swap is an induced module, so its H^1 vanishes (Shapiro).
    """
    def make(rng, ctx: Context) -> Job:
        key, canonical = make_input(rng, True)
        gin = canonical.relabelled(rng)
        spec = {"task": "algebraic", "group": table_spec(gin.G), "galois": gin.spec()}
        return cli_job(f"algebraic {key}", spec,
                       lambda rep: expect_line(rep, "Br0_nr_alg = ", "0"))
    return make


def galois_warmup(ctx: Context) -> list[Job]:
    z2 = table_spec(groups.cyclic_group(2).mul)
    trivial = {"delta_table": [[0, 1], [1, 0]], "chi": [1, 1],
               "action": [[0, 1], [0, 1]], "modulus": 2}
    return [
        cli_job("warm-up brnr real Z2", {"task": "brnr", "group": z2,
                                         "galois": {"kind": "real"}},
                lambda rep: expect_line(rep, "Br0_nr = ", "0")),
        cli_job("warm-up algebraic Z2", {"task": "algebraic", "group": z2,
                                         "galois": trivial},
                lambda rep: expect_line(rep, "Br0_nr_alg = ", "0")),
    ]


# ---------------------------------------------------------------------------
# augmentation: the group-ring example and seeded semidirect products
# ---------------------------------------------------------------------------

# (N factors, Q factors) with |N| |Q| <= 16, so the b0 oracle stays cheap
SEMIDIRECT_SHAPES = [((8,), (2,)), ((2, 4), (2,)), ((4,), (2, 2)), ((3,), (4,))]


def example_p3_slot(rng, ctx: Context) -> Job:
    ex = ctx.input("example p=3", lambda: fastpath.build_example_714(3))
    return Job("sha1_bic example p=3", lambda: fastpath.sha1_bic(ex.sd),
               lambda rep: None if tuple(rep.invariant_factors) == (3,)
               else f"Sha1_bic at p=3 is {rep.invariant_factors}, expected (3,)")


def example_p2_slot(rng, ctx: Context) -> Job:
    return cli_job("sha1bic example p=2",
                   {"task": "sha1bic", "group": {"kind": "example714", "p": 2}},
                   lambda rep: ctx.oracle.check_example_sha1bic(rep, 2))


def obstruction_slot(rng, ctx: Context) -> Job:
    """bmreport at p=2 with the cup search on, along a seeded Delta_v ->> Q.

    Delta_v is (Z/2)^3 and the structure map a seeded automorphism.
    """
    Q = groups.abelian_group([2, 2, 2])
    module = groups.AbelianModule((2, 2, 2))
    while True:
        M = rng.integers(0, 2, size=(3, 3))
        if round(np.linalg.det(M)) % 2:
            break
    index = {tuple(module.vector_of_index(i)): i for i in range(8)}
    c_v = [index[tuple(M @ module.vector_of_index(i) % 2)] for i in range(8)]
    spec = {"task": "bmreport", "group": {"kind": "example714", "p": 2},
            "local": [{"label": "v2", "delta_v_table": Q.mul.tolist(),
                       "to_delta": [0] * 8, "c_v": c_v, "search_cup": True}]}
    return cli_job("bmreport example p=2 cup", spec, oracles.check_bm_report)


def semidirect_slot(n_factors, q_factors):
    """sha1bic on N x| Q with seeded units; sha1_bic equals b0 of the tabulated group."""
    return lambda rng, ctx: _semidirect_job(rng, ctx, n_factors, q_factors)


def _semidirect_job(rng, ctx: Context, n_factors, q_factors) -> Job:
    units = []
    for q in q_factors:
        row = []
        for d in n_factors:
            choices = [u for u in range(1, d) if gcd(u, d) == 1 and pow(u, q, d) == 1]
            row.append(int(rng.choice(choices)))
        units.append(row)
    gtype = sd(f"{n_factors}:{q_factors}{units}", n_factors, q_factors, units)
    module = gtype.datum().N
    spec = {"task": "sha1bic", "group": {
        "kind": "semidirect", "q": {"invariant_factors": list(q_factors)},
        "n": {"invariant_factors": list(n_factors), "action": module.action.tolist()}}}
    expected = lambda: fmt_factors(ctx.oracle.memo(
        ("b0", gtype.key), lambda: engine.b0(gtype.group()).invariant_factors))
    return cli_job(f"sha1bic {gtype.key}", spec,
                   lambda rep: expect_line(rep, "Sha1_bic(Q, N^) = ", expected()))


def augmentation_warmup(ctx: Context) -> list[Job]:
    spec = {"task": "sha1bic", "group": {
        "kind": "semidirect", "q": {"invariant_factors": [2]},
        "n": {"invariant_factors": [4], "action": [[[1]], [[3]]]}}}
    return [cli_job("warm-up sha1bic D4", spec,
                    lambda rep: expect_line(rep, "Sha1_bic(Q, N^) = ", "0"))]


# ---------------------------------------------------------------------------
# local-eval: bm_report over every class of real-like data at three places
# ---------------------------------------------------------------------------

# four classes, sixteen classes, thirty-two classes: the median falls among
# the sixteen-class groups and the tail among the thirty-two-class ones
LOCAL_TYPES = [ab(8), ab(12), ab(16),
               q8(), sd("M16", [8], [2], [[5]]), sd("SD16", [8], [2], [[3]]),
               ab(2, 2), sd("D4", [4], [2], [[-1]]), ab(2, 4), sd("D6", [6], [2], [[-1]])]


@dataclass(frozen=True)
class Place:
    key: str                   # Delta_v up to isomorphism: Z2, Z4 or V4
    table: np.ndarray
    to_delta: tuple


def places(rng) -> list[Place]:
    """A Z/2, a Z/4 and a (Z/2)^2 place over the order-2 Delta of real-like data.

    The (Z/2)^2 place maps onto Delta by a seeded nonzero functional.
    """
    v4 = groups.AbelianModule((2, 2))
    a = [(1, 0), (0, 1), (1, 1)][int(rng.integers(3))]
    return [
        Place("Z2", groups.cyclic_group(2).mul, (0, 1)),
        Place("Z4", groups.cyclic_group(4).mul, (0, 1, 0, 1)),
        Place("V4", groups.abelian_group([2, 2]).mul,
              tuple(int(np.dot(a, v4.vector_of_index(i))) % 2 for i in range(4))),
    ]


def local_call(table: np.ndarray, where: list[Place]):
    def call():
        G = groups.group_from_table(table)
        gal = extensions.GaloisDatum.real_like(G)
        cm = extensions.class_module(gal)
        entries = [localeval.ClassEntry(f"c{i}", cm.element(coords)) for i, coords in
                   enumerate(itertools.product(*(range(d) for d in cm.invariant_factors)))]
        data = [localeval.LocalDatum(p.key, groups.group_from_table(p.table),
                                     np.array(p.to_delta)) for p in where]
        return localeval.bm_report(entries, data, gal)
    return call


def check_local(report, gtype: GroupType, where: list[Place], ctx: Context):
    """Base points evaluate to Zero; point and tuple counts match exhaustive search."""
    counts = {p.key: ctx.oracle.point_count(gtype, ctx.group(gtype), p) for p in where}
    for label, rows in report.per_class.items():
        for p in where:
            at = [pv for pv in rows if pv.place == p.key]
            if len(at) != counts[p.key]:
                return f"{label} has {len(at)} points at {p.key}, expected {counts[p.key]}"
            if [pv.verdict for pv in at if pv.point_label == "base"] != ["Zero"]:
                return f"{label} base point at {p.key} is not a single Zero"
    expected_rows = int(np.prod(list(counts.values())))
    if len(report.tuple_rows) != expected_rows:
        return f"{len(report.tuple_rows)} tuple rows, expected {expected_rows}"
    return None


def local_slot(gtype: GroupType):
    def make(rng, ctx: Context) -> Job:
        G = ctx.group(gtype)
        table = relabel(G.mul, random_perm(G.order, rng))
        where = places(rng)
        return Job(f"bm_report {gtype.key}", local_call(table, where),
                   lambda rep: check_local(rep, gtype, where, ctx))
    return make


def local_warmup(ctx: Context) -> list[Job]:
    gtype = ab(2)
    where = [Place("Z2", groups.cyclic_group(2).mul, (0, 1))]
    return [Job("warm-up bm_report Z2", local_call(ctx.group(gtype).mul, where),
                lambda rep: check_local(rep, gtype, where, ctx))]


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


@dataclass
class Workload:
    name: str
    round_s: float            # seconds per round at the reference speed
    slots: list
    warmup: Callable[[Context], list[Job]]

    def rounds(self, seconds: float) -> int:
        return max(1, round(seconds / self.round_s))

    def batch(self, seed: int, rounds: int, ctx: Context) -> list[Job]:
        rng = np.random.default_rng([seed, WORKLOAD_NAMES.index(self.name)])
        jobs = []
        for _ in range(rounds):
            one = [slot(rng, ctx) for slot in self.slots]
            jobs.extend(one[i] for i in rng.permutation(len(one)))
        return jobs


WORKLOADS = {
    w.name: w for w in [
        Workload("bogomolov-scan", 4.8, [b0_slot(t) for t in B0_TYPES], b0_warmup),
        Workload("galois-filter", 3.4,
                 [real_slot(t) for t in REAL_BELOW]
                 + [brnr_galois_slot(swap_input((2,))),
                    algebraic_slot(swap_input((4,))),
                    algebraic_slot(twist_input(ab(16), 2))]
                 + [real_slot(t) for t in REAL_MEDIAN]
                 + [brnr_galois_slot(swap_input((4,))),
                    brnr_galois_slot(twist_input(ab(4, 4), 4)),
                    brnr_galois_slot(swap_input((2, 2)))]
                 + [real_slot(t) for t in REAL_TAIL],
                 galois_warmup),
        Workload("augmentation", 7.7,
                 [example_p3_slot] + [example_p2_slot] * 4 + [obstruction_slot] * 2
                 + [semidirect_slot(n, q) for n, q in SEMIDIRECT_SHAPES],
                 augmentation_warmup),
        Workload("local-eval", 2.55, [local_slot(t) for t in LOCAL_TYPES], local_warmup),
    ]
}
WORKLOAD_NAMES = list(WORKLOADS)
