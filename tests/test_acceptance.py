"""Acceptance gate: one test per criterion, exact tolerances, with a
pass/fail line printed per criterion.

Each criterion is implemented as stated, at its stated tolerance (all are
exact equalities here); expected values marked as derived are recomputed
by the independent oracle inside the test rather than hard-coded.
"""

import itertools
import time

import numpy as np
import pytest

from brnr.caps import DEFAULT_CAPS
from brnr.cohomology import h1, h2, scalar_module
from brnr.engine import (
    algebraic_unramified,
    b0,
    br_nr,
    galois_condition_bruteforce,
    galois_condition_single,
)
from brnr.errors import ValidationError
from brnr.extensions import EquivariantExtension, GaloisDatum, class_module
from brnr.fastpath import (
    SemidirectDatum,
    build_example_714,
    local_witness,
    sha1_bic,
)
from brnr.groups import (
    AbelianModule,
    FiniteGroup,
    GroupAction,
    abelian_group,
    alternating_group,
    cyclic_group,
    dihedral_group,
    group_from_table,
    quaternion_group,
    semidirect_product,
    symmetric_group,
)
from brnr.localeval import (
    FastpathClassEntry,
    LocalDatum,
    NonabelianCocycle,
    bm_report,
    nonabelian_h1,
)
from brnr.reference import (
    _admissible_triples,
    bockstein,
    bogomolov_condition,
    dies_in_qz,
    evaluate,
    extension_group,
    is_unramified,
    splits_equivariantly,
    splits_over,
)


def report(criterion: str, passed: bool, extra: str = ""):
    status = "PASS" if passed else "FAIL"
    print(f"[{status}] {criterion}" + (f" :: {extra}" if extra else ""))
    assert passed, criterion


# -- criterion 1: group-ring example regression at p = 2 ---------------------


def test_criterion_1_augmentation_p2():
    t0 = time.time()
    ex = build_example_714(2)
    H = h1(ex.sd.Q, ex.sd.N_hat, DEFAULT_CAPS)
    ok_h1 = H.invariant_factors == (8,)
    rep = sha1_bic(ex.sd, DEFAULT_CAPS)
    ok_sha = rep.invariant_factors == (2,)
    four_a = (4 * ex.a_table) % 8
    coords = H.coordinates(four_a)
    gen_coords = rep.coordinates_in_ambient[0]
    ok_gen = coords is not None and np.array_equal(coords % 8, gen_coords % 8)
    elapsed = time.time() - t0
    report("criterion 1: p=2 H1=[8], Sha=[2], generator = 4[a]",
           ok_h1 and ok_sha and ok_gen and elapsed < 300,
           f"H1={H.invariant_factors}, Sha={rep.invariant_factors}, "
           f"coords(4a)={coords}, {elapsed:.1f}s")


# -- criterion 2: group-ring example regression at p = 3 ---------------------


def test_criterion_2_augmentation_p3():
    t0 = time.time()
    ex = build_example_714(3)
    rep = sha1_bic(ex.sd, DEFAULT_CAPS)
    elapsed = time.time() - t0
    report("criterion 2: p=3 Sha1_bic = [3]",
           rep.invariant_factors == (3,) and elapsed < 1800,
           f"Sha={rep.invariant_factors}, {elapsed:.1f}s")


# -- criterion 3: fast path vs engine on >= 10 semidirect products -----------


def _character_action_datum(n_factors, q_factors, unit_assignments):
    """Q acting on N = prod Z/d via units, one unit per Q-generator."""
    Q = abelian_group(q_factors)
    r = len(n_factors)
    d = np.array(n_factors, dtype=np.int64)
    gens = Q.minimal_generators()
    assert len(gens) == len(unit_assignments)
    mats = {0: np.eye(r, dtype=np.int64)}
    order_out = [0]
    seen = {0}
    qi = 0
    while qi < len(order_out):
        x = order_out[qi]
        qi += 1
        for g, u in zip(gens, unit_assignments):
            y = int(Q.mul[x, g])
            if y not in seen:
                seen.add(y)
                mats[y] = mats[x] @ (np.diag(u) % d[:, None]) % d[:, None]
                order_out.append(y)
    M = AbelianModule(tuple(n_factors), Q,
                      np.array([mats[q] for q in range(Q.order)]))
    M.validate()
    return SemidirectDatum(Q, M)


def test_criterion_3_fastpath_oracle_equivalence():
    t0 = time.time()
    cases = [
        ("S3", _character_action_datum([3], [2], [[-1]])),
        ("D4", _character_action_datum([4], [2], [[-1]])),
        ("D8", _character_action_datum([8], [2], [[-1]])),
        ("D_Z9", _character_action_datum([9], [2], [[-1]])),
        ("(Z3)^2 x| Z2", _character_action_datum([3, 3], [2], [[-1, -1]])),
        ("Z5 x| Z4", _character_action_datum([5], [4], [[2]])),
        ("Z7 x| Z3", _character_action_datum([7], [3], [[2]])),
        ("Z4 x| (Z2)^2 trivial+invert",
         _character_action_datum([4], [2, 2], [[-1], [1]])),
        ("Z3 x Z4 direct", _character_action_datum([3], [4], [[1]])),
        ("Z8xZ2 x| (Z2)^2",
         _character_action_datum([2, 8], [2, 2], [[1, -1], [1, 3]])),
        ("Z24 x| (Z2)^3 faithful",
         _character_action_datum([24], [2, 2, 2], [[5], [7], [13]])),
    ]
    all_ok = True
    details = []
    for name, sd in cases:
        fast = sha1_bic(sd, DEFAULT_CAPS)
        G = semidirect_product(sd.N, sd.Q, caps=DEFAULT_CAPS).group
        slow = b0(G, DEFAULT_CAPS)
        same = fast.invariant_factors == slow.invariant_factors
        all_ok = all_ok and same
        details.append(f"{name}(|G|={G.order}): "
                       f"{fast.invariant_factors}=={slow.invariant_factors}")
    elapsed = time.time() - t0
    report("criterion 3: sha1_bic == b0 on >= 10 semidirect products (<=192)",
           all_ok and len(cases) >= 10 and elapsed < 600,
           "; ".join(details) + f"; {elapsed:.1f}s")


# -- criterion 4: br_nr(trivial) == b0 up to order 32, plus an order-64 group
#    with b0 != 0 found by oracle scan ---------------------------------------


GROUPS_UP_TO_32 = [
    ("Z1", lambda: abelian_group([2]).subgroup_table([0])[0]),
    ("Z2", lambda: cyclic_group(2)),
    ("Z3", lambda: cyclic_group(3)),
    ("Z4", lambda: cyclic_group(4)),
    ("V4", lambda: abelian_group([2, 2])),
    ("Z6", lambda: cyclic_group(6)),
    ("S3", lambda: symmetric_group(3)),
    ("Z8", lambda: cyclic_group(8)),
    ("Z2xZ4", lambda: abelian_group([2, 4])),
    ("E8", lambda: abelian_group([2, 2, 2])),
    ("D4", lambda: dihedral_group(4)),
    ("Q8", lambda: quaternion_group()),
    ("Z9", lambda: cyclic_group(9)),
    ("Z3^2", lambda: abelian_group([3, 3])),
    ("Z12", lambda: cyclic_group(12)),
    ("A4", lambda: alternating_group(4)),
    ("D6", lambda: dihedral_group(6)),
    ("Z16", lambda: cyclic_group(16)),
    ("Z2xZ8", lambda: abelian_group([2, 8])),
    ("Z4^2", lambda: abelian_group([4, 4])),
    ("Z2^2xZ4", lambda: abelian_group([2, 2, 4])),
    ("E16", lambda: abelian_group([2, 2, 2, 2])),
    ("D8", lambda: dihedral_group(8)),
    ("Z18", lambda: cyclic_group(18)),
    ("Z20", lambda: cyclic_group(20)),
    ("Z24", lambda: cyclic_group(24)),
    ("Z27", lambda: cyclic_group(27)),
    ("Z3xZ9", lambda: abelian_group([3, 9])),
    ("Z3^3", lambda: abelian_group([3, 3, 3])),
    ("D4xZ2", None),   # filled below
    ("Q8xZ2", None),
    ("Z32", lambda: cyclic_group(32)),
    ("D16", lambda: dihedral_group(16)),
    ("Z2xZ16", lambda: abelian_group([2, 16])),
    ("Z4xZ8", lambda: abelian_group([4, 8])),
    ("E32", lambda: abelian_group([2, 2, 2, 2, 2])),
]


def _direct_with_z2(G):
    from brnr.groups import GroupAction, semidirect_product as sp
    return sp(cyclic_group(2), G).group


def test_criterion_4a_brnr_equals_b0_up_to_32():
    t0 = time.time()
    bad = []
    for name, make in GROUPS_UP_TO_32:
        if make is None:
            base = dihedral_group(4) if name.startswith("D4") else quaternion_group()
            G = _direct_with_z2(base)
        else:
            G = make()
        gal = GaloisDatum.trivial(G)
        lhs = br_nr(gal, DEFAULT_CAPS).invariant_factors
        rhs = b0(G, DEFAULT_CAPS).invariant_factors
        if lhs != rhs:
            bad.append((name, lhs, rhs))
    elapsed = time.time() - t0
    report("criterion 4a: br_nr(trivial Delta) == b0 for groups <= 32",
           not bad, f"{len(GROUPS_UP_TO_32)} groups, {elapsed:.1f}s; bad={bad}")


def _pc_group(powers, conjugates, n_gens):
    """Group of order 2^n_gens given by a power-conjugate presentation.

    Generators g_0 .. g_{n-1} all have relative order 2, and the element
    with index x is the normal word g_0^e_0 ... g_{n-1}^e_{n-1}, e_k = bit k
    of x.  powers[k] is the normal word of g_k^2, conjugates[(i, j)] (i < j)
    that of g_i^-1 g_j g_i; both are bitmasks over generators after k
    resp. i, and absent entries mean g_k^2 = 1 and g_j^g_i = g_j.  Products
    are formed by collection from the left.  Returns None when the
    presentation is inconsistent, since collected products are then not
    associative.
    """
    def letters(word):
        return [k for k in range(n_gens) if word >> k & 1]

    def times_gen(x, gen):
        pending = [gen]
        while pending:
            g = pending.pop()
            above = [j for j in letters(x) if j > g]
            x &= (1 << (g + 1)) - 1
            word = []
            if x >> g & 1:
                x ^= 1 << g
                word += letters(powers.get(g, 0))
            else:
                x |= 1 << g
            # (g_j1 g_j2 ...) g = g (g_j1^g g_j2^g ...)
            for j in above:
                word += letters(conjugates.get((g, j), 1 << j))
            pending.extend(reversed(word))
        return x

    n = 1 << n_gens
    right = np.array([[times_gen(x, g) for g in range(n_gens)] for x in range(n)])
    mul = np.empty((n, n), dtype=np.int64)
    for y in range(n):
        col = np.arange(n)
        for g in letters(y):
            col = right[col, g]
        mul[:, y] = col
    try:
        return FiniteGroup(mul)
    except ValidationError:
        return None


def _bits(*gens):
    return sum(1 << k for k in gens)


# Q = Z/4 x| D_4 of order 32 and class 2 on pc generators g0 .. g4: a = g0,
# b = g1, c = g2, a^2 = g3, c^2 = g4; b inverts a, and a and b invert c.
ORDER64_Q_POWERS = {0: _bits(3), 2: _bits(4)}
ORDER64_Q_CONJUGATES = {(0, 1): _bits(1, 3), (0, 2): _bits(2, 4),
                        (1, 2): _bits(2, 4)}
# Q's 15 relations, named by the generator they rewrite: g_i^-1 g_j g_i as
# (i, j) and g_j^2 as (j, j).  Bit s of a tail set stands for the s-th
# relation here; those of g4 come first, then those of g3, ..., g0.
ORDER64_RELATIONS = [(i, j) for j in range(4, -1, -1) for i in range(j + 1)]


def _order64_candidate(tails):
    """Member `tails` of a deterministic family of order-64 candidates.

    The family is the central extensions E of Q (above) by Z/2 = <z>,
    z = g5.  The tail set `tails` (an integer below 2^15) picks the
    relations of Q that get z appended to their right-hand side in E; z is
    central.  Every central extension of Q by Z/2 appears, as every lift
    of g0 .. g4 gives it such a presentation.  Of the 2^15 tail sets, 256
    are consistent, i.e. present a group of order 64; for the others this
    returns None.  g3 = a^2 and g4 = c^2 lie in [Q, Q] and Z(Q), so a tail
    on g_i^-1 g_j g_i (j = 3, 4) makes [g_j, g_i] = z and E of class 3;
    the relations of g4 and g3 vary fastest in the scan order, which is
    increasing `tails`.
    """
    powers = dict(ORDER64_Q_POWERS)
    conjugates = dict(ORDER64_Q_CONJUGATES)
    for s, (i, j) in enumerate(ORDER64_RELATIONS):
        if tails >> s & 1:
            if i == j:
                powers[j] = powers.get(j, 0) | _bits(5)
            else:
                conjugates[i, j] = conjugates.get((i, j), _bits(j)) | _bits(5)
    return _pc_group(powers, conjugates, 6)


def test_criterion_4b_order_64_nonzero_found_by_scan():
    t0 = time.time()
    # the recorded prefix is scanned before the hit, so the test re-derives
    # through the oracle (b0 of each candidate) that the hit is the first
    # candidate with b0 != 0 in scan order
    scan_list = ORDER64_SCAN_PREFIX + [ORDER64_HIT_TAILS]
    hit = None
    not_groups = []
    for tails in scan_list:
        G = _order64_candidate(tails)
        if G is None:
            not_groups.append(tails)
            continue
        rep = b0(G, DEFAULT_CAPS)
        if rep.invariant_factors:
            hit = (tails, G, rep)
            break
    ok_found = hit is not None and not not_groups
    extra = f"no hit; inconsistent tails {not_groups}"
    if hit is not None:
        tails, G, rep = hit
        gal = GaloisDatum.trivial(G)
        full = br_nr(gal, DEFAULT_CAPS)
        ok_match = full.invariant_factors == rep.invariant_factors
        # CHKK 2010: B_0 = Z/2 for each order-64 group where it is nonzero
        ok_literature = rep.invariant_factors == (2,)
        extra = (f"tails {tails} (recorded {ORDER64_HIT_TAILS}), "
                 f"|G| = {G.order}: b0 = {rep.invariant_factors}, "
                 f"br_nr = {full.invariant_factors}; inconsistent tails "
                 f"{not_groups}; {time.time()-t0:.1f}s")
        ok_found = (ok_found and tails == ORDER64_HIT_TAILS and ok_match
                    and ok_literature)
    report("criterion 4b: order-64 group with b0 != 0, br_nr == b0",
           ok_found, extra)


# Recorded from the discovery scan of the whole family: b0 on
# _order64_candidate(t) for every t in range(2**15) that gives a group, about
# 15 minutes on one core, summed up in CHANGES.md.  b0 = Z/2 on 32 of the
# 256 groups and 0 on the rest.  ORDER64_SCAN_PREFIX holds the consistent
# tail sets below the first hit.  The hit is Z/8 x| D_4 (a -> -1, b -> 3):
# class 3, exponent 8, |Z(G)| = 4, [G, G] = Z/4 x Z/2.  The test re-derives
# the hit through the oracle rather than trusting these constants.
ORDER64_SCAN_PREFIX = [0, 19, 320, 339, 512]
ORDER64_HIT_TAILS = 531


def _relabelled_order64_hits():
    """The criterion-4b hit with its elements renamed, under seeds 1 and 2."""
    G = _order64_candidate(ORDER64_HIT_TAILS)
    for seed in (1, 2):
        rng = np.random.default_rng(seed)
        perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
        inv = np.argsort(perm)
        yield seed, group_from_table(perm[G.mul[np.ix_(inv, inv)]])


def test_b0_of_order_64_hit_is_invariant_under_relabelling():
    # metamorphic: B_0 is a group invariant, so renaming the elements of the
    # criterion-4b hit must leave b0 = Z/2; its generator must also pass the
    # per-subgroup reference, death in Q/Z on every bicyclic subgroup
    for seed, H in _relabelled_order64_hits():
        rep = b0(H, DEFAULT_CAPS)
        assert rep.invariant_factors == (2,), seed
        assert bogomolov_condition(rep.representatives[0])[0], seed


@pytest.mark.parametrize("name, k", [("S3", 4), ("D4", 2), ("Q8", 3), ("A4", 2),
                                     ("Q8xZ2", 2), ("hit", 2), ("hit", 3), ("hit", 8)])
def test_b0_is_unchanged_by_a_cyclic_direct_factor(name, k):
    # metamorphic: B_0(G x Z/k) = B_0(G); the criterion-4b hit carries Z/2.
    # hit x Z/8 has order 512 and 1537 Schreier atoms, within the default cap
    G = {"S3": lambda: symmetric_group(3), "D4": lambda: dihedral_group(4),
         "Q8": quaternion_group, "A4": lambda: alternating_group(4),
         "Q8xZ2": lambda: _direct_with_z2(quaternion_group()),
         "hit": lambda: _order64_candidate(ORDER64_HIT_TAILS)}[name]()
    GxZk = semidirect_product(cyclic_group(k), G).group
    got = b0(GxZk, DEFAULT_CAPS).invariant_factors
    assert got == b0(G, DEFAULT_CAPS).invariant_factors
    assert got == ((2,) if name == "hit" else ())


def test_br_nr_of_order_64_hit_is_invariant_under_relabelling():
    # the same for Br^0_nr over the trivial datum, a nonzero answer of the
    # stacked kernel; its generator must pass the per-class reference
    for seed, H in _relabelled_order64_hits():
        rep = br_nr(GaloisDatum.trivial(H), DEFAULT_CAPS)
        assert rep.invariant_factors == (2,), seed
        assert is_unramified(rep.representatives[0]) == (True, None), seed


# -- criterion 5: real-like vanishing ----------------------------------------


def test_criterion_5_real_field_vanishing():
    t0 = time.time()
    bad = []
    for factors in ([2], [4], [2, 2], [8], [2, 4], [2, 2, 2],
                    [16], [2, 8], [4, 4], [2, 2, 4], [2, 2, 2, 2]):
        G = abelian_group(factors)
        gal = GaloisDatum.real_like(G)
        gal.validate()
        got = br_nr(gal, DEFAULT_CAPS).invariant_factors
        if got != ():
            bad.append((tuple(factors), got))
    for factors in ([3], [9], [3, 3], [27], [3, 9], [3, 3, 3],
                    [5], [25], [5, 5], [7], [15], [21]):
        G = abelian_group(factors)
        gal = GaloisDatum.real_like(G)
        got = br_nr(gal, DEFAULT_CAPS).invariant_factors
        if got != ():
            bad.append((tuple(factors), got))
    elapsed = time.time() - t0
    report("criterion 5: real-like datum kills abelian 2-groups <= 16 and "
           "odd order <= 27", not bad, f"{elapsed:.1f}s; bad={bad}")


# -- criterion 6: the order-2 real datum -------------------------------------


def test_criterion_6_remark_case():
    gal = GaloisDatum.real_like(cyclic_group(2))
    f, _ = bockstein(cyclic_group(2), np.array([0, 1]), 2)
    const_z4 = EquivariantExtension(gal, f, np.zeros((2, 2), dtype=np.int64))
    twisted_f, twisted_c = bockstein(cyclic_group(2), np.array([0, 1]), 2,
                                     gal.delta, gal.chi, gal.action.table)
    kummer_pair = EquivariantExtension(gal, twisted_f, twisted_c)
    none_const = splits_equivariantly(const_z4, [0, 1]) is None
    none_twist = splits_equivariantly(kummer_pair, [0, 1]) is None
    dies = dies_in_qz(const_z4.f, cyclic_group(2), 2)
    report("criterion 6: no equivariant splitting; dies after pushforward",
           none_const and none_twist and dies,
           f"splits_eq(const)={not none_const}, dies_in_QZ={dies}")


# -- criterion 7: algebraic part vanishes in the cyclotomic constant case ----


def test_criterion_7_algebraic_vanishing():
    t0 = time.time()
    bad = []
    groups = [cyclic_group(8), abelian_group([2, 4]), abelian_group([2, 2, 2]),
              symmetric_group(3), dihedral_group(4), quaternion_group(),
              alternating_group(4), cyclic_group(27), abelian_group([4, 4]),
              dihedral_group(8), abelian_group([2, 2, 2, 2]), cyclic_group(32),
              abelian_group([3, 9])]
    for G in groups:
        delta = cyclic_group(2)
        gal = GaloisDatum(delta, G, np.array([1, 1]),
                          GroupAction.trivial(delta, G), G.order)
        got = algebraic_unramified(gal, DEFAULT_CAPS).invariant_factors
        if got != ():
            bad.append((G.name, got))
    elapsed = time.time() - t0
    report("criterion 7: algebraic part = 0 when chi = 1 mod N, constant G <= 32",
           not bad, f"{len(groups)} groups, {elapsed:.1f}s; bad={bad}")


# -- criterion 8: evaluation soundness + the p = 2 witness pipeline ----------


def test_criterion_8_evaluation_soundness():
    t0 = time.time()
    # base-point evaluation of every normalized class is Zero (sampled
    # exhaustively over small class modules)
    ok_base = True
    for G in (cyclic_group(4), symmetric_group(3), abelian_group([2, 2])):
        gal = GaloisDatum.trivial(G)
        cm = class_module(gal, DEFAULT_CAPS)
        ld = LocalDatum("v", cyclic_group(2), np.zeros(2, dtype=np.int64))
        h0 = NonabelianCocycle(np.zeros(2, dtype=np.int64))
        for coords in itertools.product(*map(range, cm.invariant_factors)):
            ext = cm.element(np.asarray(coords))
            if evaluate(ext, ld, h0).verdict != "Zero":
                ok_base = False

    # the p = 2 witness pipeline
    ex = build_example_714(2)
    gen = (4 * ex.a_table) % 8
    w = local_witness(ex.sd, h1(ex.sd.Q, ex.sd.N_hat), gen, ex.sd.Q, np.arange(8),
                      caps=DEFAULT_CAPS, search_cup=False)
    ok_witness = w.verdict == "ObstructionWitnessed"
    entry = FastpathClassEntry("sha-gen", ex.sd, gen, ex.sd.group_order,
                               {"v2": w})
    trivial_gal = GaloisDatum.trivial(cyclic_group(2).subgroup_table([0])[0], N=1)
    ld = LocalDatum("v2", ex.sd.Q, np.zeros(8, dtype=np.int64))
    rep = bm_report([entry], [ld], trivial_gal, DEFAULT_CAPS)
    counts = rep.counts()
    certified = any(pv.verdict == "NonzeroCertified"
                    for pv in rep.per_class["sha-gen"])
    report("criterion 8: base-point Zero; p=2 pipeline NonzeroCertified "
           "with an Excluded row",
           ok_base and ok_witness and certified and counts["Excluded"] >= 1,
           f"counts={counts}, {time.time()-t0:.1f}s")


# -- criterion 9: closed forms vs exhaustive search --------------------------


def test_criterion_9_closed_forms_vs_bruteforce():
    t0 = time.time()
    rng = np.random.default_rng(42)
    data = []
    data.append(GaloisDatum.trivial(symmetric_group(3), N=6))
    data.append(GaloisDatum.real_like(cyclic_group(4)))
    data.append(GaloisDatum.real_like(abelian_group([2, 2]), N=4))
    V = abelian_group([2, 2])
    delta = cyclic_group(2)
    swap = np.array([[0, 1, 2, 3], [0, 2, 1, 3]])
    gal_swap = GaloisDatum(delta, V, np.array([1, 15]),
                           GroupAction(delta, V, swap), 4)
    gal_swap.validate()
    data.append(gal_swap)
    data.append(GaloisDatum.trivial(abelian_group([2, 4]), N=8))
    D4 = dihedral_group(4)
    data.append(GaloisDatum.trivial(D4, N=8))
    data.append(GaloisDatum.real_like(cyclic_group(3), N=3))
    Z16 = cyclic_group(16)
    data.append(GaloisDatum.real_like(Z16, N=16))
    # real-like nonabelian data: only there does the sign of the transfer
    # sum T_j in the closed form change the verdict
    for G in (symmetric_group(3), D4, quaternion_group()):
        data.append(GaloisDatum.real_like(G))

    mismatches = []
    checked = 0
    for gal in data:
        cm = class_module(gal, DEFAULT_CAPS)
        if not cm.invariant_factors:
            continue
        triples = list(_admissible_triples(gal))
        for _ in range(2):
            coords = rng.integers(0, 16, size=len(cm.invariant_factors))
            ext = cm.element(coords)
            sample = triples
            if len(sample) > 30:
                take = rng.choice(len(sample), size=30, replace=False)
                sample = [sample[i] for i in take]
            for d, tau, gamma in sample:
                closed = galois_condition_single(ext, d, tau, gamma)
                brute = galois_condition_bruteforce(ext, d, tau, gamma)
                checked += 1
                if closed != brute:
                    mismatches.append((gal.N, d, tau, gamma))
    # splitting systems vs exhaustive section search in extension groups
    split_bad = 0
    for gal in (GaloisDatum.trivial(cyclic_group(2), N=2),
                GaloisDatum.real_like(cyclic_group(2)),
                GaloisDatum.trivial(abelian_group([2, 2]), N=2),
                GaloisDatum.real_like(abelian_group([2, 2]), N=2)):
        cm = class_module(gal, DEFAULT_CAPS)
        for coords in itertools.product(*map(range, cm.invariant_factors)):
            ext = cm.element(np.asarray(coords))
            eg = extension_group(ext)
            G = gal.G
            n = G.order
            for elems in ([0, 1], list(range(n))):
                elems = sorted(set(elems))
                expect = splits_over(ext, elems) is not None
                brute = False
                others = [e for e in elems if e]
                for choice in itertools.product(range(gal.N), repeat=len(others)):
                    table = {0: 0}
                    for lam, g in zip(choice, others):
                        table[g] = eg.pair_index(lam, g)
                    if all(eg.group.mul[table[a], table[b]] == table[int(G.mul[a, b])]
                           for a in elems for b in elems):
                        brute = True
                        break
                if expect != brute:
                    split_bad += 1
                checked += 1
    # evaluation cocycle formula vs direct pullback in E x| Delta_v
    eval_bad = 0
    for gal in (GaloisDatum.real_like(cyclic_group(2)),
                GaloisDatum.real_like(cyclic_group(4))):
        cm = class_module(gal, DEFAULT_CAPS)
        ld = LocalDatum("v", gal.delta, np.arange(gal.delta.order))
        points = nonabelian_h1(ld, gal, DEFAULT_CAPS)
        for coords in itertools.product(*map(range, cm.invariant_factors)):
            ext = cm.element(np.asarray(coords))
            eg = extension_group(ext)
            big = semidirect_product(eg.group, gal.delta,
                                     GroupAction(gal.delta, eg.group,
                                                 eg.action.table))
            for h in points:
                beta = evaluate(ext, ld, h).beta
                # honest pullback: shat(s) = ((0, h_s), s)
                for s in range(gal.delta.order):
                    for t in range(gal.delta.order):
                        i = big.pair_index(eg.pair_index(0, int(h.table[s])), s)
                        j = big.pair_index(eg.pair_index(0, int(h.table[t])), t)
                        st = int(gal.delta.mul[s, t])
                        k = big.pair_index(eg.pair_index(0, int(h.table[st])), st)
                        prod = int(big.group.mul[i, j])
                        # prod = (lam, h_st) x| st; extract lam
                        lam = None
                        for cand in range(gal.N):
                            if big.pair_index(eg.pair_index(cand, int(h.table[st])),
                                              st) == prod:
                                lam = cand
                                break
                        checked += 1
                        if lam is None or lam != int(beta[s, t]):
                            eval_bad += 1
    elapsed = time.time() - t0
    report("criterion 9: closed forms == exhaustive search (zero discrepancies)",
           not mismatches and split_bad == 0 and eval_bad == 0 and elapsed < 900,
           f"{checked} comparisons, {elapsed:.1f}s; galois={mismatches}, "
           f"split_bad={split_bad}, eval_bad={eval_bad}")


# -- criterion 10: cohomology kernel values ----------------------------------


def test_criterion_10_cohomology_kernel():
    t0 = time.time()
    bad = []
    for n in range(2, 13):
        for m in range(2, 13):
            H = h2(cyclic_group(n), scalar_module(m), DEFAULT_CAPS)
            g = int(np.gcd(n, m))
            expect = () if g == 1 else (g,)
            if H.invariant_factors != expect:
                bad.append((n, m, H.invariant_factors))
    abelian_list = ([2], [3], [4], [2, 2], [5], [6], [7], [8], [2, 4],
                    [2, 2, 2], [9], [3, 3], [10], [11], [12], [2, 6],
                    [13], [14], [15], [16], [2, 8], [4, 4], [2, 2, 4],
                    [2, 2, 2, 2], [18], [20], [21], [22], [24], [25],
                    [5, 5], [26], [27], [3, 9], [3, 3, 3], [28], [30],
                    [32], [2, 16], [4, 8], [2, 2, 8], [2, 4, 4],
                    [2, 2, 2, 4], [2, 2, 2, 2, 2])
    for factors in abelian_list:
        G = abelian_group(factors)
        if b0(G, DEFAULT_CAPS).invariant_factors != ():
            bad.append(("b0", tuple(factors)))
    for G in (symmetric_group(3), dihedral_group(4), quaternion_group(),
              alternating_group(4)):
        if b0(G, DEFAULT_CAPS).invariant_factors != ():
            bad.append(("b0", G.name))
    elapsed = time.time() - t0
    report("criterion 10: H^2(Z/n, Z/m) = Z/gcd; B_0 = 0 for abelian <= 32 "
           "and S3, D4, Q8, A4", not bad, f"{elapsed:.1f}s; bad={bad}")
