"""Bundled oracle suite for `brnr selftest`.

Each check compares a production code path against an independent route:
exhaustive enumeration, a reference of ``brnr.reference`` (explicit
extension-group search, a solve on every row), or a theorem-level
regression value.  They are small and deterministic; the pytest suite runs
the heavier versions.
"""

from __future__ import annotations

import itertools

import numpy as np

from .cohomology import (
    ShaResult,
    _d0_columns,
    _row_scales,
    class_subgroup,
    commuting_pair_rows,
    h1,
    h2,
    scalar_module,
    sha,
)
from .engine import b0, br_nr, galois_condition_bruteforce, galois_condition_single
from .extensions import EquivariantExtension, GaloisDatum, class_module, kummer_kernel
from .fastpath import SemidirectDatum, build_example_714, sha1_bic
from .groups import (
    AbelianModule,
    GroupAction,
    abelian_group,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    semidirect_product,
    symmetric_group,
)
from .localeval import LocalDatum, NonabelianCocycle, nonabelian_h1
from .reference import (
    _admissible_triples,
    bockstein,
    centralizer,
    dies_in_qz,
    direct_product_extension_group,
    evaluate,
    extension_from_q_cocycle,
    extension_group,
    galois_condition,
    is_scalar_coboundary,
    is_unramified,
    semidirect_cocycle_from_section,
    solve,
    splits_equivariantly,
    splits_over,
    subgroup_module,
    subgroups_abelian,
)
from .zmod import as_mod, kernel, smith_normal_form_raw, span_rows, subquotient


def _assert(cond, msg):
    if not cond:
        raise AssertionError(msg)


def bicyclic_by_pairs(G) -> list[tuple[int, ...]]:
    """Every bicyclic subgroup, the closure of each commuting pair t <= c."""
    seen = {G.closure([t, c]) for t in range(G.order) for c in centralizer(G, t) if c >= t}
    return sorted(seen, key=lambda h: (len(h), h))


def family_by_pairs(G, family: str) -> list[tuple[int, ...]]:
    """Every member of a subgroup family, the cyclic ones among ``bicyclic_by_pairs``."""
    if family == "ab":
        return subgroups_abelian(G)
    return [H for H in bicyclic_by_pairs(G)
            if family == "bic" or G.element_orders[list(H)].max() == len(H)]


def check_snf_reconstruction():
    # 5 x 4 dense, 40 x 6 sparse (row keys of rows the column clears
    # rewrite) and moduli 30 and 36 (three and two prime-power parts)
    rng = np.random.default_rng(2024)
    cases = [(m, (5, 4), 1.0) for m in (2, 4, 12, 64)]
    cases += [(12, (40, 6), 0.1), (30, (6, 6), 0.5), (36, (7, 5), 1.0)]
    for m, shape, fill in cases:
        for _ in range(20):
            A = rng.integers(0, m, size=shape) * (rng.random(shape) < fill)
            snf = smith_normal_form_raw(A, m)
            D = np.zeros(shape, dtype=np.int64)
            for i, d in enumerate(snf.diag):
                D[i, i] = d
            _assert(np.array_equal(snf.Pinv @ D @ snf.Qinv % m, as_mod(A, m)),
                    f"U D V != A mod {m} for a {shape} matrix")


def check_h2_gcd_law():
    for n in (2, 3, 4, 6, 8, 12):
        for m in (2, 3, 4, 6, 8, 12):
            H = h2(cyclic_group(n), scalar_module(m))
            g = int(np.gcd(n, m))
            _assert(H.invariant_factors == (() if g == 1 else (g,)),
                    f"H^2(Z/{n}, Z/{m}) != Z/gcd")


def check_dies_in_qz_bruteforce():
    G = cyclic_group(2)
    H = h2(G, scalar_module(2))
    table = H.representatives[0][:, :, 0]
    _assert(dies_in_qz(table, G, 2), "Bockstein class must die in Q/Z")
    V = abelian_group([2, 2])
    HV = h2(V, scalar_module(2))
    survivors = 0
    for c in itertools.product(range(2), repeat=3):
        t = HV.element_table(np.array(c))[:, :, 0]
        # brute force at modulus N*exp = 8 over 4 unknowns is 8^3 candidates
        e, m = 2, 4
        target = (2 * t) % m
        brute = False
        for b1 in range(m):
            for b2 in range(m):
                for b3 in range(m):
                    b = np.array([0, b1, b2, b3])
                    db = (b[:, None] + b[None, :] - b[V.mul]) % m
                    db[0, :] = 0
                    db[:, 0] = 0
                    if np.array_equal(db, target):
                        brute = True
                        break
                if brute:
                    break
            if brute:
                break
        _assert(dies_in_qz(t, V, 2) == brute, f"dies_in_qz mismatch at {c}")
        if not brute:
            survivors += 1
    _assert(survivors > 0, "some class of (Z/2)^2 must survive in Q/Z")


def class_span(factors, coords, orders) -> set[tuple[int, ...]]:
    """Every combination of the generators ``coords``, each over its own invariant factor."""
    mods = np.array(orders, dtype=np.int64)
    gens = np.array(coords, dtype=np.int64).reshape(len(factors), len(mods))
    return {tuple(map(int, np.array(cs, dtype=np.int64) @ gens % mods))
            for cs in itertools.product(*(range(f) for f in factors))}


def check_qz_filter_vs_dies_in_qz():
    # the classes of H^2(G, Z/|G|) in the kernel of the commuting-pair rows
    # are those for which dies_in_qz holds on each bicyclic subgroup
    for G in (dihedral_group(4), quaternion_group()):
        N = G.order
        H = h2(G, scalar_module(N))
        orders = H.invariant_factors
        bics = [G.subgroup_table(e) for e in bicyclic_by_pairs(G) if len(e) > 1]
        _, S = commuting_pair_rows(H.space, H.sub.generator_lifts)
        expect = {x for x in itertools.product(*(range(o) for o in orders))
                  if all(dies_in_qz(H.element_table(x)[:, :, 0][np.ix_(idx, idx)], B, N)
                         for B, idx in bics)}
        _assert(class_span(*class_subgroup(S, orders, N), orders) == expect,
                f"commuting-pair kernel disagrees with dies_in_qz on {G}")


def check_galois_condition_vs_bruteforce():
    # real-like nonabelian data make every term of the closed form matter,
    # the sign of the transfer sum T_j included
    rng = np.random.default_rng(7)
    for G in (cyclic_group(4), symmetric_group(3), dihedral_group(4),
              quaternion_group()):
        gal = GaloisDatum.real_like(G)
        cm = class_module(gal)
        triples = list(_admissible_triples(gal))
        for _ in range(3):
            coords = rng.integers(0, 6, size=len(cm.invariant_factors))
            ext = cm.element(coords)
            for d, tau, gamma in triples:
                closed = galois_condition_single(ext, d, tau, gamma)
                brute = galois_condition_bruteforce(ext, d, tau, gamma)
                _assert(closed == brute,
                        f"galois closed form disagrees at {(d, tau, gamma)} on {G.name}")


def unramified_by_enumeration(gal: GaloisDatum) -> tuple[int, ...]:
    """Br^0_nr from is_unramified on every class of the class module.

    Asserts that the unramified classes form a subgroup holding the Kummer
    classes, and returns the invariant factors of their quotient: the answer
    br_nr reads from its linear filter, found here class by class.
    """
    cm = class_module(gal)
    orders = cm.invariant_factors
    if not orders:
        return ()
    mods = np.array(orders, dtype=np.int64)
    bics = bicyclic_by_pairs(gal.G)
    passing = {x for x in itertools.product(*map(range, orders))
               if is_unramified(cm.element(x), bics)[0]}
    _assert((0,) * len(orders) in passing, "the zero class must be unramified")
    for a in passing:
        for b in passing:
            _assert(tuple(map(int, np.add(a, b) % mods)) in passing,
                    f"unramified classes are not closed under addition: {a} + {b}")
    kum = kummer_kernel(cm) % mods[:, None]
    for col in kum.T:
        _assert(tuple(map(int, col)) in passing, f"Kummer class {col} is ramified")
    lattice = np.diag(mods)
    U = np.hstack([np.array(sorted(passing), dtype=np.int64).T, lattice])
    W = kernel(span_rows(U, gal.N), gal.N)
    return subquotient(W, np.hstack([lattice, kum])).invariant_factors


def check_linear_galois_filter():
    G = abelian_group([2, 4])
    delta = cyclic_group(2)
    twist = GaloisDatum(delta, G, np.array([1, 31]), GroupAction.trivial(delta, G))
    for gal in (GaloisDatum.real_like(dihedral_group(4)), twist):
        _assert(br_nr(gal).invariant_factors == unramified_by_enumeration(gal),
                f"br_nr disagrees with per-class is_unramified on {gal.G.name}")


def check_splitting_vs_section_search():
    gal = GaloisDatum.trivial(cyclic_group(2), N=2)
    f, _ = bockstein(cyclic_group(2), np.array([0, 1]), 2)
    ext = EquivariantExtension(gal, f, np.zeros((1, 2), dtype=np.int64))
    eg = extension_group(ext)
    brute = False
    for lam in range(2):
        table = {0: eg.pair_index(0, 0), 1: eg.pair_index(lam, 1)}
        ok = all(eg.group.mul[table[a], table[b]] == table[(a + b) % 2]
                 for a in range(2) for b in range(2))
        brute = brute or ok
    _assert((splits_over(ext, [0, 1]) is not None) == brute,
            "splits_over disagrees with section search")


def check_remark_real_case():
    gal = GaloisDatum.real_like(cyclic_group(2))
    f, _ = bockstein(cyclic_group(2), np.array([0, 1]), 2)
    const_z4 = EquivariantExtension(gal, f, np.zeros((2, 2), dtype=np.int64))
    _assert(splits_equivariantly(const_z4, [0, 1]) is None,
            "constant Z/4 must not split equivariantly over the real datum")
    _assert(dies_in_qz(const_z4.f, cyclic_group(2), 2),
            "the class must still die in Q/Z abstractly")
    ok, wit = galois_condition(const_z4)
    _assert(not ok and wit == (1, 1, 0), "the Galois condition must fail at sigma")
    _assert(br_nr(gal).invariant_factors == (),
            "the order-2 real-like datum has no unramified classes")


def check_augmentation_example_p2():
    ex = build_example_714(2)
    H = h1(ex.sd.Q, ex.sd.N_hat)
    _assert(H.invariant_factors == (8,), "H1(Q, N^) must be Z/8")
    rep = sha1_bic(ex.sd)
    _assert(rep.invariant_factors == (2,), "Sha1_bic must be Z/2")
    coords = H.coordinates((4 * ex.a_table) % 8)
    _assert(coords is not None and coords.any(), "4[a] must be the generator")


def classes_dying_by_full_rows(res: ShaResult) -> set[tuple[int, ...]]:
    """Ambient coordinates of the classes that restrict to a coboundary on
    every subgroup of the family, each restriction solved on every row."""
    amb = res.ambient
    G, M, N = amb.group, amb.module, amb.module.exponent
    subgroups = [G.subgroup_table(e) for e in family_by_pairs(G, res.family) if len(e) > 1]

    def dies(table, B, idx) -> bool:
        if res.degree == 2:
            return is_scalar_coboundary(B, table[np.ix_(idx, idx)][:, :, 0], N) is not None
        scales = np.tile(_row_scales(M), B.order - 1)
        D = _d0_columns(subgroup_module(M, B, idx), range(1, B.order)) * scales[:, None]
        return solve(D, table[idx][1:].reshape(-1) * scales, N) is not None

    return {x for x in itertools.product(*(range(o) for o in amb.invariant_factors))
            if all(dies(amb.element_table(x), B, idx) for B, idx in subgroups)}


def check_sha_vs_per_class_restriction():
    # the stacked death kernel passes exactly the classes whose restriction
    # to every subgroup of the family is a coboundary
    ex = build_example_714(2)
    for res in (sha(ex.sd.Q, ex.sd.N_hat, 1, "bic"),
                sha(abelian_group([2, 4]), scalar_module(4), 2, "cyc")):
        span = class_span(res.invariant_factors, res.coordinates_in_ambient,
                          res.ambient.invariant_factors)
        _assert(res.invariant_factors and classes_dying_by_full_rows(res) == span,
                f"Sha_{res.family} disagrees with per-class restriction on {res.ambient.group}")


def check_fastpath_oracle_equivalence():
    Q = cyclic_group(2)
    M = AbelianModule((4,), Q, np.array([[[1]], [[3]]]))
    sd = SemidirectDatum(Q, M)
    fast = sha1_bic(sd)
    slow = b0(semidirect_product(sd.N, sd.Q).group)
    _assert(fast.invariant_factors == slow.invariant_factors,
            "fast path disagrees with the engine on D4")


def check_extension_formula_cross_validation():
    Q = cyclic_group(2)
    M = AbelianModule((4,), Q, np.array([[[1]], [[3]]]))
    sd = SemidirectDatum(Q, M)
    H = h1(Q, sd.N_hat)
    for rep in H.representatives:
        ext = extension_from_q_cocycle(sd, rep)
        f_direct = semidirect_cocycle_from_section(sd, direct_product_extension_group(sd, rep))
        scale = ext.gal.N // sd.N.exponent
        _assert(np.array_equal(ext.f, scale * f_direct % ext.gal.N),
                "coordinate formula disagrees with the direct construction")


def check_base_point_evaluation_zero():
    G = symmetric_group(3)
    gal = GaloisDatum.trivial(G)
    cm = class_module(gal)
    ld = LocalDatum("v", cyclic_group(2), np.zeros(2, dtype=np.int64))
    h0 = NonabelianCocycle(np.zeros(2, dtype=np.int64))
    for coords in itertools.islice(itertools.product(*map(range, cm.invariant_factors)), 6):
        ext = cm.element(coords)
        _assert(evaluate(ext, ld, h0).verdict == "Zero",
                "base point must evaluate to Zero")


def check_nonabelian_h1_vs_orbit_count():
    """Point count on D4 under an outer Galois action vs orbits of all cochains."""
    Q = cyclic_group(2)
    G = semidirect_product(AbelianModule((4,), Q, np.array([[[1]], [[3]]])), Q).group
    # r^n s^q has index 2n + q; r -> r^-1, s -> s r is an involutive outer automorphism
    n, q = np.divmod(np.arange(8), 2)
    outer = (-n - q) % 4 * 2 + q
    gal = GaloisDatum(Q, G, np.array([1, 63]),
                      GroupAction(Q, G, np.array([np.arange(8), outer])))
    gal.validate()
    counts = []
    for ld in (LocalDatum("Z4", cyclic_group(4), np.array([0, 1, 0, 1])),
               LocalDatum("V4", abelian_group([2, 2]), np.array([0, 1, 1, 0])),
               LocalDatum("V4 off", abelian_group([2, 2]), np.zeros(4, dtype=np.int64))):
        D, act = ld.delta_v, ld.action_v(gal)
        h = np.indices((G.order,) * D.order).reshape(D.order, -1).T    # every cochain
        s = np.arange(D.order)[:, None]
        law = (h[:, D.mul] == G.mul[h[:, :, None], act[s, h[:, None, :]]]).all(axis=(1, 2))
        orbits = {frozenset(tuple(G.mul[G.mul[G.inv[g], t], act[:, g]]) for g in range(G.order))
                  for t in h[law]}
        _assert(len(nonabelian_h1(ld, gal)) == len(orbits),
                f"nonabelian_h1 at {ld.label} disagrees with the orbit count")
        counts.append(len(orbits))
    _assert(max(counts) > 2, "some place should have more than two points")


CHECKS = [
    ("smith normal form reconstruction", check_snf_reconstruction),
    ("H^2 of cyclic groups: gcd law", check_h2_gcd_law),
    ("Q/Z death vs brute-force coboundary search", check_dies_in_qz_bruteforce),
    ("commuting-pair Q/Z lattice vs dies_in_qz on D4 and Q8",
     check_qz_filter_vs_dies_in_qz),
    ("Galois condition closed form vs extension-group search",
     check_galois_condition_vs_bruteforce),
    ("linear Galois filter vs per-class is_unramified", check_linear_galois_filter),
    ("splitting solver vs section search", check_splitting_vs_section_search),
    ("order-2 real-like regression", check_remark_real_case),
    ("group-ring example, p = 2", check_augmentation_example_p2),
    ("Sha stacked kernel vs per-class restriction", check_sha_vs_per_class_restriction),
    ("fast path vs engine on a dihedral case", check_fastpath_oracle_equivalence),
    ("extension coordinate formula vs direct construction",
     check_extension_formula_cross_validation),
    ("base-point evaluation is Zero", check_base_point_evaluation_zero),
    ("nonabelian H^1 vs orbits of all cochains", check_nonabelian_h1_vs_orbit_count),
]
