import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import brnr.reference
from brnr.caps import Caps
from brnr.cli import main, parse_job, run_job
from brnr.cohomology import (
    character_group_generators,
    class_subgroup,
    commuting_pair_rows,
    h1,
    h2,
    scalar_module,
    sha,
)
from brnr.engine import (
    _character_module,
    _galois_obstructions,
    _galois_rows,
    _kummer_quotient,
    algebraic_unramified,
    b0,
    br_nr,
    galois_condition_bruteforce,
    galois_condition_single,
    sha2_ab,
)
from brnr.errors import OrderBound, PreconditionViolated
from brnr.extensions import (
    EquivariantExtension,
    GaloisDatum,
    class_module,
    kummer_kernel,
)
from brnr.groups import (
    AbelianModule,
    FiniteGroup,
    GroupAction,
    abelian_group,
    alternating_group,
    cyclic_group,
    dihedral_group,
    group_from_permutations,
    group_from_table,
    quaternion_group,
    semidirect_product,
    symmetric_group,
)
from brnr.reference import (
    _admissible_triples,
    bockstein,
    bogomolov_condition,
    commuting_pair_rows_of_tables,
    dies_in_qz,
    galois_condition,
    is_unramified,
    splits_equivariantly,
    zero_extension,
)
from brnr.selfchecks import (
    bicyclic_by_pairs,
    class_span,
    family_by_pairs,
    unramified_by_enumeration,
)

REPO = Path(__file__).resolve().parents[1]


def real_datum(G, N=None) -> GaloisDatum:
    gal = GaloisDatum.real_like(G, N)
    gal.validate()
    return gal


def swap_datum() -> GaloisDatum:
    """Order-2 Galois group swapping the factors of Z/2 x Z/2, chi = -1 mod 16."""
    V = abelian_group([2, 2])
    delta = cyclic_group(2)
    swap = np.array([[0, 1, 2, 3], [0, 2, 1, 3]])
    gal = GaloisDatum(delta, V, np.array([1, 15]), GroupAction(delta, V, swap), 4)
    gal.validate()
    return gal


def twist_datum(G, u: int) -> GaloisDatum:
    """Order-2 Galois group acting trivially on G, chi(sigma) = u mod |G|^2."""
    delta = cyclic_group(2)
    gal = GaloisDatum(delta, G, np.array([1, u]), GroupAction.trivial(delta, G))
    gal.validate()
    return gal


def constant_z4_pair(gal) -> EquivariantExtension:
    f, _ = bockstein(gal.G, np.array([0, 1]), gal.N)
    return EquivariantExtension(gal, f, np.zeros((gal.delta.order, 2), dtype=np.int64))


# ---------------------------------------------------------------------------
# the Galois condition: examples and the brute-force equivalence
# ---------------------------------------------------------------------------


def test_galois_condition_zero_pair_trivially_true():
    gal = real_datum(cyclic_group(2))
    ext = zero_extension(gal)
    for d, tau, gamma in _admissible_triples(gal):
        assert galois_condition_single(ext, d, tau, gamma)


def test_galois_condition_remark_case_fails():
    # the constant Z/4 extension over the order-2 real-like datum
    gal = real_datum(cyclic_group(2))
    ext = constant_z4_pair(gal)
    assert galois_condition_single(ext, 1, 1, 0) is False
    ok, wit = galois_condition(ext)
    assert not ok and wit == (1, 1, 0)
    # ... while its Kummer companion (twisted pair) passes: it is the
    # trivial class after pushing into Q/Z(1)
    f, c = bockstein(gal.G, np.array([0, 1]), gal.N, gal.delta, gal.chi,
                     gal.action.table)
    kum = EquivariantExtension(gal, f, c)
    assert galois_condition(kum)[0]


def test_galois_condition_precondition():
    gal = GaloisDatum.trivial(symmetric_group(3), N=6)
    ext = zero_extension(gal)
    # tau = a 3-cycle, gamma = a transposition not normalizing correctly
    S3 = gal.G
    three = int(np.nonzero(S3.element_orders == 3)[0][0])
    twos = np.nonzero(S3.element_orders == 2)[0]
    bad = None
    for gamma in twos:
        if S3.conjugate(three, int(gamma)) != three:
            bad = int(gamma)
            break
    assert bad is not None
    with pytest.raises(PreconditionViolated):
        galois_condition_single(ext, 0, three, bad)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_galois_closed_form_matches_bruteforce(seed):
    """Criterion core: closed form == exhaustive search, small data."""
    rng = np.random.default_rng(seed)
    data = []
    # trivial Galois group, G = S3, N = 6
    data.append(GaloisDatum.trivial(symmetric_group(3), N=6))
    # order-2 Galois group inverting roots of unity, G = Z/4
    data.append(real_datum(cyclic_group(4)))
    # order-2 Galois group acting on G = Z/2 x Z/2 by swap, chi = -1
    data.append(swap_datum())
    # real-like Q8: the transfer sums T_j enter with a sign that matters
    data.append(real_datum(quaternion_group()))
    for gal in data:
        cm = class_module(gal)
        if not cm.invariant_factors:
            continue
        for _ in range(3):
            coords = rng.integers(0, 8, size=len(cm.invariant_factors))
            ext = cm.element(coords)
            triples = list(_admissible_triples(gal))
            # cap the scan but keep it representative
            if len(triples) > 40:
                take = rng.choice(len(triples), size=40, replace=False)
                triples = [triples[i] for i in take]
            for d, tau, gamma in triples:
                closed = galois_condition_single(ext, d, tau, gamma)
                brute = galois_condition_bruteforce(ext, d, tau, gamma)
                assert closed == brute, (gal.N, d, tau, gamma)


FILTER_DATA = {
    "real Z4": lambda: real_datum(cyclic_group(4)),
    "real Z2xZ2": lambda: real_datum(abelian_group([2, 2])),
    "real Z2xZ4": lambda: real_datum(abelian_group([2, 4])),
    "real S3": lambda: real_datum(symmetric_group(3)),
    "real D4": lambda: real_datum(dihedral_group(4)),
    "real Q8": lambda: real_datum(quaternion_group()),
    "trivial D4": lambda: GaloisDatum.trivial(dihedral_group(4)),
    # only condition (i) acts here; br_nr drops the Galois rows at d = 1,
    # so on every datum condition (i) comes from the commuting-pair rows alone
    "closed D4": lambda: GaloisDatum.trivial(dihedral_group(4),
                                             base_algebraically_closed=True),
    "swap Z2xZ2": swap_datum,
    "twist Z2xZ4 k=2": lambda: twist_datum(abelian_group([2, 4]), 31),
}


@pytest.mark.parametrize("name", sorted(FILTER_DATA))
def test_linear_galois_filter_matches_per_class_bruteforce(name):
    """br_nr's obstruction matrix agrees with is_unramified on every class."""
    gal = FILTER_DATA[name]()
    assert br_nr(gal).invariant_factors == unramified_by_enumeration(gal)


@pytest.mark.parametrize("name", sorted(FILTER_DATA))
def test_br_nr_verdict_per_quotient_generator(name):
    """Each tested entry is the per-class verdict of one Kummer-quotient generator."""
    gal = FILTER_DATA[name]()
    report = br_nr(gal)
    q_orders, q_coords = _kummer_quotient(report.ambient)
    fs, cs = report.ambient.tables(q_coords)
    gens = [EquivariantExtension(gal, f, c) for f, c in zip(fs, cs)]
    s = len(q_orders)
    assert [coords for coords, _, _ in report.tested] == [
        tuple(int(k == i) for k in range(s)) for i in range(s)]
    for (_, ok, wit), ext in zip(report.tested, gens):
        assert ok == is_unramified(ext)[0]
        assert (wit is None) == ok
        assert (not ok and wit[0] == "bogomolov") == (not bogomolov_condition(ext)[0])
        if not ok and wit[0] == "bogomolov":
            x, y = wit[1]
            assert gal.G.mul[x, y] == gal.G.mul[y, x] and ext.f[x, y] != ext.f[y, x]
        if not ok and wit[0] == "galois":
            assert not galois_condition_single(ext, *wit[1])


@pytest.mark.parametrize("name", ["real D4", "real Z2xZ4", "swap Z2xZ2",
                                  "twist Z2xZ4 k=2"])
def test_galois_obstruction_vanishes_on_coboundary_and_kummer_pairs(name):
    """The premise of the linear filter: the obstruction is a class function."""
    gal = FILTER_DATA[name]()
    G, N = gal.G, gal.N
    rng = np.random.default_rng(11)
    b = rng.integers(0, N, size=(6, G.order))
    b[:, 0] = 0
    fs = [(b[:, :, None] + b[:, None, :] - b[:, G.mul]) % N]
    cs = [(gal.chi_mod_n[None, :, None] * b[:, None, :] - b[:, gal.action.table]) % N]
    phis = character_group_generators(G, N, equivariance=(gal.chi, gal.action.table))
    assert phis
    for phi in phis:
        f, c = bockstein(G, phi, N, gal.delta, gal.chi, gal.action.table)
        fs.append(f[None])
        cs.append(c[None])
    A = _galois_obstructions(gal, list(_admissible_triples(gal)),
                             np.concatenate(fs), np.concatenate(cs))
    assert A.shape[1] == 6 + len(phis)
    assert not A.any()


def br_nr_by_all_triples(gal):
    """br_nr's answer from every admissible triple with d != 1 as a Galois row:
    (invariant factors, representatives as (f, c), tested)."""
    N = gal.N
    cm = class_module(gal)
    q_orders, coords = _kummer_quotient(cm)
    fs, cs = cm.tables(coords)
    pairs, S = commuting_pair_rows_of_tables(gal.G, fs, N)
    triples = [t for t in _admissible_triples(gal) if t[0] != 0]
    A = np.vstack([S, _galois_obstructions(gal, triples, fs, cs)])
    witnesses = [("bogomolov", p) for p in pairs] + [("galois", t) for t in triples]
    tested = []
    for i, col in enumerate(A.T):
        bad = np.nonzero(col)[0]
        tested.append((tuple(int(k == i) for k in range(len(q_orders))), not bad.size,
                       witnesses[bad[0]] if bad.size else None))
    factors, coords = class_subgroup(A, q_orders, N)
    reps = [(np.tensordot(x, fs, axes=1) % N, np.tensordot(x, cs, axes=1) % N)
            for x in coords]
    return factors, reps, tested


ROW_DATA = {
    "real D4": lambda: real_datum(dihedral_group(4)),
    "real Q8": lambda: real_datum(quaternion_group()),
    "inner D4 chi=31": lambda: conjugation_datum(dihedral_group(4), 31),
    "inner S3 chi=35": lambda: conjugation_datum(symmetric_group(3), 35),
    "wang 8": lambda: wang_datum(8),
    "wang 16": lambda: wang_datum(16),
    **{f"psi {a},{b}": (lambda a=a, b=b: psi_datum(a, b))
       for a, b in itertools.product((1, 3, 5, 7), repeat=2)},
}


@pytest.mark.parametrize("name", sorted(ROW_DATA))
def test_br_nr_galois_rows_match_all_admissible_triples(name):
    # one row per (d, <tau>) gives the kernel, the representatives and the
    # first failing rows of every admissible triple
    gal = ROW_DATA[name]()
    G = gal.G
    keys = [t[:2] for t in _admissible_triples(gal) if t[0] != 0]
    pairs = set(keys)
    assert len(pairs) < len(keys)                   # several gamma for one (d, tau)
    cyclic = {tau: G.closure([tau]) for _, tau in pairs}
    assert len({(d, cyclic[tau]) for d, tau in pairs}) < len(pairs)   # tau^k, k a unit
    rows = _galois_rows(gal)
    assert len(rows) == len({(d, cyclic[tau]) for d, tau in pairs if tau})
    factors, reps, tested = br_nr_by_all_triples(gal)
    report = br_nr(gal)
    assert report.invariant_factors == factors
    assert report.tested == tested
    assert len(report.representatives) == len(reps)
    for ext, (f, c) in zip(report.representatives, reps):
        assert np.array_equal(ext.f, f) and np.array_equal(ext.c, c)


def test_no_production_path_enumerates_admissible_triples(monkeypatch, capsys):
    # _admissible_triples stays as the reference of the Galois rows only
    def forbidden(gal):
        raise AssertionError("the reference enumeration was called")

    monkeypatch.setattr(brnr.reference, "_admissible_triples", forbidden)
    for name in ("real Q8", "inner D4 chi=31", "psi 1,1", "wang 8"):
        gal = ROW_DATA[name]()
        br_nr(gal)
        algebraic_unramified(gal)
    assert main(["run", str(REPO / "jobs" / "real-order2.json")]) == 0
    assert "galois witness (1, 1, 0)" in capsys.readouterr().out
    job = {"task": "algebraic", "group": {"kind": "table", "table": [[0, 1], [1, 0]]},
           "galois": {"kind": "real"}}
    assert run_job(parse_job(json.dumps(job)))[1] == 0
    with pytest.raises(AssertionError, match="reference enumeration"):
        galois_condition(zero_extension(gal))


@pytest.mark.parametrize("name", ["real D4", "real Q8", "inner D4 chi=31", "psi 3,5",
                                  "wang 8"])
def test_galois_value_at_a_unit_power_is_that_multiple(name):
    # v(d, tau^k, gamma) = k v(d, tau, gamma) mod N for k a unit mod ord tau,
    # and ord(tau) v = 0, on class-module elements that need not pass
    # condition (i)
    gal = ROW_DATA[name]()
    G, N = gal.G, gal.N
    cm = class_module(gal)
    rng = np.random.default_rng(len(name))
    exts = [cm.element(rng.integers(0, N, size=len(cm.invariant_factors))) for _ in range(3)]
    fs = np.array([e.f for e in exts])
    cs = np.array([e.c for e in exts])
    triples = list(_admissible_triples(gal))
    base = _galois_obstructions(gal, triples, fs, cs)
    orders = np.array([G.element_order(tau) for _, tau, _ in triples])
    assert not (orders[:, None] * base % N).any()
    checked = 0
    for k in range(2, G.exponent):
        at = [i for i, (_, tau, _) in enumerate(triples)
              if math.gcd(k, G.element_order(tau)) == 1 and G.element_order(tau) > 2]
        powered = [(d, G.power(tau, k), gamma) for d, tau, gamma in (triples[i] for i in at)]
        assert np.array_equal(_galois_obstructions(gal, powered, fs, cs),
                              k * base[at] % N)
        for i in rng.choice(len(at), size=min(len(at), 8), replace=False):
            for ext in exts:
                assert galois_condition_single(ext, *triples[at[i]]) == \
                    galois_condition_single(ext, *powered[i])
        checked += len(at)
    assert checked and base.any()


# ---------------------------------------------------------------------------
# Bogomolov condition and B_0
# ---------------------------------------------------------------------------


def test_bogomolov_condition_zero_pair():
    gal = GaloisDatum.trivial(abelian_group([2, 2]))
    assert bogomolov_condition(zero_extension(gal))[0]


def test_bogomolov_rejects_surviving_class_with_witness():
    V8 = abelian_group([2, 2, 2])
    gal = GaloisDatum.trivial(V8)  # N = 8
    cm = class_module(gal)
    rejected = 0
    for coords in itertools.islice(itertools.product(*map(range, cm.invariant_factors)), 256):
        ext = cm.element(np.asarray(coords))
        ok, wit = bogomolov_condition(ext)
        if not ok:
            rejected += 1
            assert wit is not None and len(wit) >= 2
    assert rejected > 0


def test_b0_of_small_abelian_groups_is_zero():
    for factors in ([2], [3], [4], [2, 2], [2, 4], [8], [2, 2, 2],
                    [3, 3], [16], [2, 8], [4, 4], [2, 2, 4]):
        G = abelian_group(factors)
        assert b0(G).invariant_factors == (), factors


def test_b0_of_next_abelian_sizes_is_zero():
    for factors in ([2, 2, 2, 2], [32], [2, 16], [4, 8], [2, 2, 8], [2, 4, 4],
                    [2, 2, 2, 4], [2, 2, 2, 2, 2], [27], [3, 9], [3, 3, 3],
                    [25], [5, 5]):
        G = abelian_group(factors)
        assert b0(G).invariant_factors == (), factors


def test_b0_of_nonabelian_small_groups_is_zero():
    assert b0(symmetric_group(3)).invariant_factors == ()
    assert b0(dihedral_group(4)).invariant_factors == ()
    assert b0(quaternion_group()).invariant_factors == ()
    assert b0(alternating_group(4)).invariant_factors == ()
    # H^2(A5, Z/60) = Z/2 with no character to take a Bockstein of
    assert b0(alternating_group(5)).invariant_factors == ()


def classes_dying_in_qz(G, H) -> set:
    """Coordinates of the classes of H = H^2(G, Z/|G|) whose restriction to
    every bicyclic subgroup dies in Q/Z, one dies_in_qz call each."""
    N = G.order
    bics = [G.subgroup_table(e) for e in bicyclic_by_pairs(G) if len(e) > 1]
    dying = set()
    for x in itertools.product(*(range(o) for o in H.invariant_factors)):
        table = H.element_table(x)[:, :, 0]
        if all(dies_in_qz(table[np.ix_(idx, idx)], B, N) for B, idx in bics):
            dying.add(x)
    return dying


def b0_order_by_classes(G) -> int:
    """|B_0(G)| class by class: the classes of H^2(G, Z/N) whose restriction
    to every bicyclic subgroup dies in Q/Z, over the span of the Bocksteins."""
    N = G.order
    H = h2(G, scalar_module(N))
    orders = H.invariant_factors
    dying = classes_dying_in_qz(G, H)
    kummer = [H.coordinates(bockstein(G, phi, N)[0][:, :, None]) % orders
              for phi in character_group_generators(G, N)]
    span, frontier = {(0,) * len(orders)}, [(0,) * len(orders)]
    while frontier:
        x = frontier.pop()
        for k in kummer:
            y = tuple((np.array(x) + k) % orders)
            if y not in span:
                span.add(y)
                frontier.append(y)
    assert span <= dying
    return len(dying) // len(span)


def _metacyclic(n: int, q: int, u: int) -> FiniteGroup:
    """Z/n x| Z/q with the generator of Z/q acting as multiplication by u."""
    Q = cyclic_group(q)
    action = np.array([[[pow(u, k, n)]] for k in range(q)], dtype=np.int64)
    return semidirect_product(AbelianModule((n,), Q, action), Q).group


# nonabelian Z/n x| Z/q, the generator of Z/q acting by u
METACYCLIC = [(3, 2, 2), (4, 2, 3), (5, 4, 2), (7, 3, 2), (8, 2, 3), (8, 2, 5),
              (4, 4, 3), (9, 2, 8)]


@pytest.mark.parametrize("seed", range(len(METACYCLIC)))
def test_b0_matches_per_class_dies_in_qz(seed):
    # each group under a seeded relabelling
    rng = np.random.default_rng(seed)
    n, q, u = METACYCLIC[seed]
    G = _metacyclic(n, q, u)
    perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    inv = np.argsort(perm)
    G = group_from_table(perm[G.mul[np.ix_(inv, inv)]])
    assert b0(G).order == b0_order_by_classes(G), (n, q, u)


def random_permutation_group(seed: int, most: int = 24):
    """The group of two seeded random permutations of degree 4 to 6, of order 2 to ``most``."""
    rng = np.random.default_rng(seed)
    while True:
        degree = int(rng.integers(4, 7))
        try:
            G = group_from_permutations([rng.permutation(degree) for _ in range(2)], degree,
                                        caps=Caps(table_group=most))
        except OrderBound:
            continue
        if G.order > 1:
            return G


@pytest.mark.parametrize("seed", range(12))
def test_b0_matches_per_class_dies_in_qz_on_random_permutation_groups(seed):
    # the commuting-pair rows keep exactly the classes that die in Q/Z on
    # every bicyclic subgroup, and b0 is their quotient by the Bocksteins
    G = random_permutation_group(seed)
    N = G.order
    H = h2(G, scalar_module(N))
    orders = H.invariant_factors
    _, S = commuting_pair_rows(H.space, H.sub.generator_lifts)
    assert class_span(*class_subgroup(S, orders, N), orders) == classes_dying_in_qz(G, H)
    assert b0(G).order == b0_order_by_classes(G)


def test_sha2_ab_examples():
    assert sha2_ab(abelian_group([2, 2]), 2).invariant_factors == ()
    assert sha2_ab(symmetric_group(3), 2).invariant_factors == ()
    from brnr.groups import group_from_table
    assert sha2_ab(group_from_table([[0]]), 2).invariant_factors == ()


def test_sha2_ab_of_an_abelian_group_is_zero():
    # an abelian G is one of its own abelian subgroups, and (Z/2)^6 has 64
    # elements and 2,825 subgroups, none of them listed
    res = sha2_ab(abelian_group([2] * 6), 2)
    assert res.ambient.invariant_factors == (2,) * 21
    assert res.invariant_factors == ()


# ---------------------------------------------------------------------------
# the full pipeline
# ---------------------------------------------------------------------------


def test_br_nr_trivial_datum_equals_b0_small():
    for G in (cyclic_group(4), abelian_group([2, 2]), symmetric_group(3),
              dihedral_group(4), quaternion_group()):
        gal = GaloisDatum.trivial(G)
        rep = br_nr(gal)
        assert rep.invariant_factors == b0(G).invariant_factors


def test_br_nr_real_like_abelian_two_groups_vanish():
    for factors in ([2], [4], [2, 2], [8], [2, 4], [2, 2, 2], [16],
                    [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2]):
        G = abelian_group(factors)
        gal = real_datum(G)
        assert br_nr(gal).invariant_factors == (), factors


def test_br_nr_real_like_odd_groups_vanish():
    for factors in ([3], [9], [3, 3], [27], [3, 9], [3, 3, 3], [5], [25],
                    [5, 5], [7], [15], [21]):
        G = abelian_group(factors)
        gal = real_datum(G)
        assert br_nr(gal).invariant_factors == (), factors


def test_br_nr_every_generator_passes_and_failures_have_witnesses():
    gal = real_datum(cyclic_group(2))
    report = br_nr(gal)
    for coords, ok, wit in report.tested:
        if not ok:
            assert wit is not None
    for rep in report.representatives:
        assert is_unramified(rep)[0]


# ---------------------------------------------------------------------------
# algebraic part
# ---------------------------------------------------------------------------


def test_algebraic_unramified_cyclotomic_constant_case_is_zero():
    # chi = 1 mod N and trivial action: must vanish for every group
    for G in (cyclic_group(8), abelian_group([2, 4]), symmetric_group(3),
              dihedral_group(4), quaternion_group(), abelian_group([2, 2, 2])):
        delta = cyclic_group(2)
        N = G.order
        gal = GaloisDatum(delta, G, np.array([1, 1]), GroupAction.trivial(delta, G), N)
        rep = algebraic_unramified(gal)
        assert rep.invariant_factors == ()


def test_algebraic_unramified_trivial_delta_is_zero():
    gal = GaloisDatum.trivial(abelian_group([2, 4]))
    assert algebraic_unramified(gal).invariant_factors == ()


def test_algebraic_unramified_perfect_group_is_zero():
    A5 = alternating_group(5)
    gal = real_datum(A5, N=60)          # the level must be a multiple of exp(A5) = 30
    assert algebraic_unramified(gal).invariant_factors == ()


def test_algebraic_unramified_of_real_like_z3_is_zero():
    # Delta = Z/2 acting trivially on G = Z/3 with chi(sigma) = -1 mod 9:
    # the pairs with f = 0 are the c_sigma in Hom(Z/3, Z/3) (C3 holds for
    # each, 3 c = 0), modulo the shifts chi(sigma) b - b = -2 b, which are
    # all of them, so the count gives 0 before any filter
    G = cyclic_group(3)
    gal = real_datum(G)  # N = 3, chi(-1) = 8 mod 9
    rep = algebraic_unramified(gal)
    chi = 2  # -1 mod 3
    valid = []
    for c1 in range(3):
        for c2 in range(3):
            c = {1: c1, 2: c2}
            # additivity on Z/3: c(2) = 2 c(1)
            if (c[2] - 2 * c[1]) % 3:
                continue
            valid.append((c1, c2))
    shifts = {((chi * b1 - b1) % 3, (chi * 2 * b1 - 2 * b1) % 3) for b1 in range(3)}
    classes = len(valid) // len(shifts)
    expected = () if classes == 1 else (classes,)
    assert rep.invariant_factors == expected


def cyclotomic_datum(factors, N: int) -> GaloisDatum:
    """The constant group G = prod Z/factors (or the group ``factors``) over Q
    at level Q(mu_(N^2)): Delta = (Z/N^2)^x, tabulated on the residues prime
    to N, chi the residue itself, acting trivially on G; the table of Delta
    and the datum are validated."""
    units = np.array([r for r in range(1, N * N) if math.gcd(r, N) == 1])
    delta = group_from_table(np.searchsorted(units, np.outer(units, units) % (N * N)))
    G = factors if isinstance(factors, FiniteGroup) else abelian_group(factors)
    gal = GaloisDatum(delta, G, units, GroupAction.trivial(delta, G), N)
    gal.validate()
    return gal


def wang_datum(N: int) -> GaloisDatum:
    """Wang's counterexample to Grunwald's theorem: constant G = Z/N over Q,
    N a power of 2."""
    return cyclotomic_datum([N], N)


def psi_datum(a: int, b: int) -> GaloisDatum:
    """Wang's Delta = (Z/64)^x at N = 8, chi the residue, acting on G = Z/8 by
    g -> psi(d) g, where psi : Delta -> (Z/8)^x sends -1 to a and 5 to b."""
    base = wang_datum(8)
    res = [int(r) for r in base.chi]
    psi = {(-1) ** i * 5 ** j % 64: a ** i * b ** j % 8 for i in range(2) for j in range(16)}
    G = cyclic_group(8)
    act = np.array([[psi[r] * g % 8 for g in range(8)] for r in res])
    gal = GaloisDatum(base.delta, G, base.chi, GroupAction(base.delta, G, act), 8)
    gal.validate()
    return gal


def conjugation_datum(G, u: int) -> GaloisDatum:
    """Delta = Z/2 acting by conjugation with the first noncentral involution t
    of G, chi(sigma) = u mod |G|^2."""
    n = G.order
    t = next(t for t in range(1, n) if G.mul[t, t] == 0 and (G.mul[t] != G.mul[:, t]).any())
    conj = G.mul[G.mul[t], G.inv[t]]
    delta = cyclic_group(2)
    gal = GaloisDatum(delta, G, np.array([1, u]),
                      GroupAction(delta, G, np.array([np.arange(n), conj])))
    gal.validate()
    return gal


def cyclic_unit_datum(n: int, u: int, c: int) -> GaloisDatum:
    """Delta = Z/4 acting on G = Z/n by k.g = u^k g, chi(k) = c^k mod n^2."""
    delta, G = cyclic_group(4), cyclic_group(n)
    act = np.array([[pow(u, k, n) * g % n for g in range(n)] for k in range(4)])
    gal = GaloisDatum(delta, G, np.array([pow(c, k, n * n) for k in range(4)]),
                      GroupAction(delta, G, act))
    gal.validate()
    return gal


def _along_tree(G, gens, start, step):
    """A table on G with t(1) = start and t(x s_i) = step(x, t(x), i) along
    the BFS tree of G over gens."""
    out, queue = {0: start}, [0]
    while queue:
        x = queue.pop(0)
        for i, s in enumerate(gens):
            y = int(G.mul[x, s])
            if y not in out:
                out[y] = step(x, out[x], i)
                queue.append(y)
    return np.array([out[g] for g in range(G.order)], dtype=np.int64)


def algebraic_by_enumeration(gal):
    """The f = 0 classes by exhaustive search, and which of them are unramified.

    A pair (0, c) satisfying C2 and C3 is fixed by the values c_e(s) at the
    generators e of Delta and s of G (C2 extends c_e along G, C3 extends c
    along Delta), so every choice of those values is extended, and kept iff
    C2 holds at every (d, g, h) and C3 at every (d, e, g).  A class is keyed
    by the least of c + (chi(d) b - b o d) over the homomorphisms b.
    Returns the keys of all classes and of the unramified ones (one
    is_unramified call per class), and the key function.
    """
    G, D, N = gal.G, gal.delta, gal.N
    n, nd = G.order, D.order
    act, chi = gal.action.table, gal.chi_mod_n
    S, SD = G.minimal_generators(), D.minimal_generators()

    def hom(vals):
        return _along_tree(G, S, 0, lambda x, v, i: (v + vals[i]) % N)

    chars = [b for b in map(hom, itertools.product(range(N), repeat=len(S)))
             if not ((b[G.mul] - b[:, None] - b[None, :]) % N).any()]
    shifts = [(chi[:, None] * b - b[act]) % N for b in chars]

    def key(c):
        return min(((c + s) % N).tobytes() for s in shifts)

    classes = {}
    for vals in itertools.product(range(N), repeat=len(SD) * len(S)):
        ce = [hom(vals[k * len(S):(k + 1) * len(S)]) for k in range(len(SD))]
        # C3 at (d, e): c_{de} = chi(d) c_e + c_d o e
        c = _along_tree(D, SD, np.zeros(n, dtype=np.int64),
                        lambda d, cd, k: (chi[d] * ce[k] + cd[act[SD[k]]]) % N)
        c2 = c[:, G.mul] - c[:, :, None] - c[:, None, :]
        c3 = c[D.mul] - chi[:, None, None] * c[None] - c[np.arange(nd)[:, None, None], act[None]]
        if not (c2 % N).any() and not (c3 % N).any():
            classes.setdefault(key(c), c)
    zero = np.zeros((n, n), dtype=np.int64)
    unramified = {k for k, c in classes.items()
                  if is_unramified(EquivariantExtension(gal, zero, c))[0]}
    return set(classes), unramified, key


ALGEBRAIC_DATA = {
    **{f"psi {a},{b}": (lambda a=a, b=b: psi_datum(a, b))
       for a, b in itertools.product((1, 3, 5, 7), repeat=2)},
    # H^1 is nonzero here and the filter kills all of it
    "S3 chi=17": lambda: twist_datum(symmetric_group(3), 17),
    "S3 chi=35": lambda: twist_datum(symmetric_group(3), 35),
    "inner D4 chi=31": lambda: conjugation_datum(dihedral_group(4), 31),
    # Delta acts with order 4, so d and d^-1 act differently
    "Z4 on Z8 u=7 chi=15": lambda: cyclic_unit_datum(8, 7, 15),
    "Z4 on Z10 u=3 chi=43": lambda: cyclic_unit_datum(10, 3, 43),
}


@pytest.mark.parametrize("name", sorted(ALGEBRAIC_DATA))
def test_algebraic_unramified_matches_enumeration(name):
    gal = ALGEBRAIC_DATA[name]()
    classes, unramified, key = algebraic_by_enumeration(gal)
    # the pre-filter group is H^1(Delta, G^(chi))
    assert len(classes) == h1(gal.delta, _character_module(gal)[1]).order
    if not name.startswith("psi"):
        # the filter kills a nonzero H^1
        assert len(classes) > 1 and len(unramified) == 1
    rep = algebraic_unramified(gal)
    assert rep.order == len(unramified)
    for alg in rep.representatives:
        assert not alg.f.any() and alg.violated_law() is None
    spanned = {key(sum(x * r.c for x, r in zip(xs, rep.representatives)) % gal.N)
               for xs in itertools.product(*map(range, rep.invariant_factors))}
    assert spanned == unramified


def test_algebraic_unramified_wang_counterexample_is_z2():
    gal = wang_datum(8)
    rep = algebraic_unramified(gal)
    assert rep.invariant_factors == (2,)
    (alg,) = rep.representatives
    assert not alg.f.any() and alg.violated_law() is None and is_unramified(alg)[0]
    cm = class_module(gal)
    assert cm.invariant_factors == (2, 2, 2)
    # in any basis: alg is a class outside the Kummer classes, and modulo
    # them it is the generator of Br^0_nr = Z/2
    x = cm.coordinates(alg)
    K = kummer_kernel(cm)
    kummer = {tuple(K @ t % 2) for t in itertools.product(range(2), repeat=K.shape[1])}
    assert tuple(x) not in kummer
    (gen,) = br_nr(gal).representatives
    assert tuple((cm.coordinates(gen) - x) % 2) in kummer
    # independent count: a class has an f = 0 representative iff f is a
    # coboundary db, which on Z/8 = <1> means sum_k f(k, 1) = 0 mod 8; then
    # (f - db, c - (chi(d) - 1) b) is one, and is_unramified decides it
    n, N, chi = gal.G.order, gal.N, gal.chi_mod_n
    count = 0
    for x in itertools.product(range(2), repeat=3):
        f = sum(k * t for k, t in zip(x, cm.fs)) % N
        c = sum(k * t for k, t in zip(x, cm.cs)) % N
        if sum(f[k, 1] for k in range(n)) % N:
            continue
        b = np.zeros(n, dtype=np.int64)
        for k in range(1, n - 1):
            b[k + 1] = (b[k] - f[k, 1]) % N
        db = (b[None, :] - b[(np.arange(n)[:, None] + np.arange(n)) % n] + b[:, None]) % N
        assert np.array_equal(db, f)
        zero_f = EquivariantExtension(gal, np.zeros((n, n), dtype=np.int64),
                                      (c - (chi[:, None] - 1) * b) % N)
        assert zero_f.violated_law() is None
        count += bool(is_unramified(zero_f)[0])
    assert count == 2


def test_algebraic_unramified_wang_counterexample_mod_16_in_bounded_memory():
    # |Delta| = 128 on Z/16: the full C2 and C3 systems held 435 MB and 3.96 GB
    rep = algebraic_unramified(wang_datum(16))
    assert rep.invariant_factors == (2,)
    (alg,) = rep.representatives
    assert not alg.f.any() and alg.violated_law() is None


def test_br_nr_wang_counterexample_mod_16():
    # |Delta| = 128 on Z/16: the class module solves for the one Schreier
    # atom f(15, 1) of the cyclic group (the other f(y, 1) lie on the tree)
    # and c_e(1) at the two generators e of Delta, not for (127)(15) values c_d(g)
    gal = wang_datum(16)
    rep = br_nr(gal)
    assert rep.invariant_factors == (2,)
    assert rep.ambient.invariant_factors == (2, 2, 2)
    assert rep.ambient._sub.generator_lifts.shape[0] == 1 + 2
    (gen,) = rep.representatives
    assert gen.violated_law() is None and is_unramified(gen)[0]
    alg = algebraic_unramified(gal).representatives[0]
    x = rep.ambient.coordinates([gen, alg])
    K = kummer_kernel(rep.ambient)
    kummer = {tuple(K @ t % 2) for t in itertools.product(range(2), repeat=K.shape[1])}
    # the algebraic generator is the generator of Br^0_nr modulo Kummer classes
    assert tuple(x[:, 0] % 2) not in kummer
    assert tuple((x[:, 0] - x[:, 1]) % 2) in kummer


@pytest.mark.parametrize("factors, N, expect", [
    *(([n], n, (2,) if n % 8 == 0 else ()) for n in (8, 12, 16, 24, 32, 48)),
    ([2, 8], 8, (2,)), ([8, 8], 8, (2, 2)), ([4, 4], 8, ()), ([64], 64, (2,)),
    (semidirect_product(cyclic_group(8), dihedral_group(4)).group, 8, (2,)),
    (_metacyclic(3, 8, 2), 24, (2,))])
def test_grunwald_wang_constant_groups_over_q(factors, N, expect):
    # constant prod Z/n_i over Q: Br^0_nr = (Z/2)^#{i : 8 | n_i} (Wang, Ann.
    # of Math. 51 (1950)); 16 is an 8th power at every odd place, not at 2.
    # D4 x Z/8 and Z/3 x| Z/8 (exp G | N) have one Z/8 in G^ab, so Z/2 too
    gal = cyclotomic_datum(factors, N)
    assert br_nr(gal).invariant_factors == expect
    assert algebraic_unramified(gal).invariant_factors == expect


@pytest.mark.parametrize("factors, levels, expect", [
    ([8], (8, 16, 24), (2,)), ([16], (16, 32), (2,)), ([2, 8], (8, 16), (2,)),
    ([4], (4, 8), ()), ([4, 4], (4, 8), ())])
def test_constant_group_answers_do_not_depend_on_the_level(factors, levels, expect):
    # metamorphic: with exp(G) | N, Br^0_nr and Br^0_nr,alg of the constant
    # group G over Q(mu_(N^2)) do not depend on N
    for N in levels:
        gal = cyclotomic_datum(factors, N)
        assert br_nr(gal).invariant_factors == expect, N
        assert algebraic_unramified(gal).invariant_factors == expect, N


@pytest.mark.parametrize("seed", [1, 2])
def test_constant_group_answers_do_not_depend_on_the_labelling(seed):
    # metamorphic: a seeded renaming of the elements of Z2xZ8 (the identity
    # stays 0) leaves both answers at N = 8 unchanged
    G = abelian_group([2, 8])
    perm = np.concatenate([[0], 1 + np.random.default_rng(seed).permutation(G.order - 1)])
    inv = np.argsort(perm)
    H = group_from_table(perm[G.mul[np.ix_(inv, inv)]])
    assert not np.array_equal(H.mul, G.mul)
    for gal in (cyclotomic_datum(G, 8), cyclotomic_datum(H, 8)):
        assert br_nr(gal).invariant_factors == (2,)
        assert algebraic_unramified(gal).invariant_factors == (2,)


SHA1_CYC_DATA = {
    **{f"Z/{n}": (lambda n=n: cyclotomic_datum([n], n)) for n in (8, 16, 24, 48, 64)},
    "Z2xZ8": lambda: cyclotomic_datum([2, 8], 8),
    "Z8xZ8": lambda: cyclotomic_datum([8, 8], 8),
    **{f"psi {a},{b}": (lambda a=a, b=b: psi_datum(a, b))
       for a, b in itertools.product((1, 3, 5, 7), repeat=2)},
}


@pytest.mark.parametrize("name", sorted(SHA1_CYC_DATA))
def test_algebraic_unramified_is_sha1_cyc(name):
    # Harari's Sha^1_cyc(k, G^): the classes of H^1(Delta, G^(chi)) that die
    # on every cyclic subgroup of Delta, by listing those subgroups.  Its
    # generators pass every Galois row, c_d(tau) = b_d(d.tau) = 0 (f = 0), and
    # it has the order of algebraic_unramified, so the two subgroups are equal
    gal = SHA1_CYC_DATA[name]()
    B, module = _character_module(gal)
    ref = sha(gal.delta, module, 1, "cyc")
    assert algebraic_unramified(gal).invariant_factors == ref.invariant_factors
    d, tau, _ = _galois_rows(gal).T
    for b in ref.representatives:
        b = np.asarray(b) @ B.T % gal.N                                  # b[d, g] = b_d(g)
        assert not b[d, gal.action.table[d, tau]].any()


# ---------------------------------------------------------------------------
# split-cyclotomic simplification agreement
# ---------------------------------------------------------------------------


def simplified_unramified_cyclotomic(ext) -> bool:
    """(i) plus d-equivariant splitting over every cyclic subgroup at the
    lifted modulus N*exp(C), valid when chi = 1 mod exp(G) and the action
    is trivial."""
    gal = ext.gal
    ok, _ = bogomolov_condition(ext)
    if not ok:
        return False
    for elems in family_by_pairs(gal.G, "cyc"):
        eC = 1
        for e in elems:
            o = gal.G.element_order(int(e))
            eC = eC * o // np.gcd(eC, o)
        m = gal.N * int(eC)
        for d in range(gal.delta.order):
            if splits_equivariantly(ext, elems, [d], modulus=m) is None:
                return False
    return True


def test_cyclotomic_simplification_agrees_with_main_test():
    # chi = 1 mod exp(G), trivial action; exercise nontrivial chi mod N^2
    for G in (cyclic_group(2), cyclic_group(4), abelian_group([2, 2])):
        N = G.order
        e = G.exponent
        delta = cyclic_group(2)
        n2 = N * N
        # chi = 1 + k*e must be a unit mod N^2 and multiplicative of order 2
        chi_val = None
        for k in range(1, n2 // e):
            cand = (1 + k * e) % n2
            if np.gcd(cand, n2) == 1 and (cand * cand) % n2 == 1:
                chi_val = cand
                break
        if chi_val is None:
            continue
        gal = GaloisDatum(delta, G, np.array([1, chi_val]),
                          GroupAction.trivial(delta, G), N)
        gal.validate()
        cm = class_module(gal)
        count = 0
        for coords in itertools.product(*map(range, cm.invariant_factors)):
            ext = cm.element(np.asarray(coords))
            main = is_unramified(ext)[0]
            simple = simplified_unramified_cyclotomic(ext)
            assert main == simple, (G.name, tuple(coords))
            count += 1
            if count > 256:
                break
