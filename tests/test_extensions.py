import itertools

import numpy as np
import pytest

import brnr.extensions
from brnr.cohomology import character_group_generators
from brnr.engine import br_nr
from brnr.extensions import (
    EquivariantExtension,
    GaloisDatum,
    class_module,
    kummer_kernel,
    violated_laws,
)
from brnr.groups import (
    GroupAction,
    abelian_group,
    cyclic_group,
    dihedral_group,
    group_from_table,
    quaternion_group,
    symmetric_group,
)
from brnr.reference import (
    MismatchedBase,
    baer_sum,
    bockstein,
    dies_in_qz,
    extension_group,
    splits_equivariantly,
    splits_over,
    zero_extension,
)
from brnr.selfchecks import family_by_pairs
from test_engine import cyclic_unit_datum, wang_datum
from test_generator_rows import C2_DATA, relabel_datum


def real_datum_z2() -> GaloisDatum:
    """G = Z/2 constant, Delta = Z/2 with chi = -1 mod 4 (complex conjugation)."""
    gal = GaloisDatum.real_like(cyclic_group(2))
    gal.validate()
    return gal


def bockstein_pair(gal: GaloisDatum, phi) -> EquivariantExtension:
    f, c = bockstein(gal.G, np.asarray(phi), gal.N, gal.delta, gal.chi,
                     gal.action.table)
    return EquivariantExtension(gal, f, c)


def brute_sections(eg, elems, group):
    """All homomorphic sections H -> E over the subgroup (tiny sizes only)."""
    N = eg.N
    others = [int(e) for e in elems if e != 0]
    for choice in itertools.product(range(N), repeat=len(others)):
        table = {0: eg.pair_index(0, 0)}
        for lam, g in zip(choice, others):
            table[g] = eg.pair_index(lam, g)
        good = True
        for a in elems:
            for b in elems:
                prod = int(group.mul[a, b])
                if eg.group.mul[table[int(a)], table[int(b)]] != table[prod]:
                    good = False
                    break
            if not good:
                break
        if good:
            yield table


def test_validate_zero_pair():
    for gal in (GaloisDatum.trivial(cyclic_group(2)), real_datum_z2(),
                GaloisDatum.trivial(symmetric_group(3))):
        assert zero_extension(gal).violated_law() is None


def test_validate_bockstein_pair():
    gal = real_datum_z2()
    ext = bockstein_pair(gal, [0, 1])
    assert ext.violated_law() is None
    assert ext.c[1, 1] == 1  # the nontrivial twist


def test_validate_catches_non_homomorphism_c():
    # f = 0 forces c_d to be a homomorphism (C2); break it
    G = abelian_group([2, 2])
    gal = GaloisDatum.real_like(G, N=2)
    c = np.zeros((2, 4), dtype=np.int64)
    c[1] = [0, 1, 1, 1]  # not additive on (Z/2)^2
    ext = EquivariantExtension(gal, np.zeros((4, 4), dtype=np.int64), c)
    law, witness = ext.violated_law()
    assert law == "C2"


def test_extension_group_direct_product():
    gal = GaloisDatum.trivial(cyclic_group(2), N=2)
    eg = extension_group(zero_extension(gal))
    assert eg.group.order == 4
    assert eg.group.is_abelian
    assert sorted(eg.group.element_orders.tolist()) == [1, 2, 2, 2]


def test_extension_group_remark_real_case_is_z4_with_inversion():
    gal = real_datum_z2()
    ext = bockstein_pair(gal, [0, 1])
    eg = extension_group(ext)
    # the group is cyclic of order 4
    assert sorted(eg.group.element_orders.tolist()) == [1, 2, 4, 4]
    # the action inverts a generator
    gen = int(np.nonzero(eg.group.element_orders == 4)[0][0])
    acted = eg.action.table[1, gen]
    assert acted == eg.group.inv[gen]
    assert acted != gen


def test_extension_group_bockstein_is_cyclic_square():
    for n in (2, 3, 4):
        G = cyclic_group(n)
        gal = GaloisDatum.trivial(G, N=n)
        f, _ = bockstein(G, np.arange(n), n)
        ext = EquivariantExtension(gal, f, np.zeros((1, n), dtype=np.int64))
        eg = extension_group(ext)
        # (1, 1) must have order n^2
        x = eg.pair_index(1, 1)
        k, acc = 1, x
        while acc != 0:
            acc = int(eg.group.mul[acc, x])
            k += 1
        assert k == n * n


def test_splits_over_examples():
    gal = GaloisDatum.trivial(cyclic_group(2), N=2)
    assert splits_over(zero_extension(gal), [0, 1]) is not None

    f, _ = bockstein(cyclic_group(2), np.array([0, 1]), 2)
    ext = EquivariantExtension(gal, f, np.zeros((1, 2), dtype=np.int64))
    assert splits_over(ext, [0, 1]) is None          # Z/4 does not split mod 2
    assert dies_in_qz(ext.f, cyclic_group(2), 2)     # but dies in Q/Z
    assert splits_over(ext, [0]) is not None         # trivial subgroup


def test_splits_equivariantly_remark_case():
    gal = real_datum_z2()
    # the constant-Z/4 pair: carry cocycle, no twist
    f, _ = bockstein(cyclic_group(2), np.array([0, 1]), 2)
    const_z4 = EquivariantExtension(gal, f, np.zeros((2, 2), dtype=np.int64))
    assert const_z4.violated_law() is None
    assert splits_equivariantly(const_z4, [0, 1]) is None
    # and the twisted companion does not split equivariantly either (f blocks)
    twisted = bockstein_pair(gal, [0, 1])
    assert splits_equivariantly(twisted, [0, 1]) is None
    # with trivial Delta the joint system reduces to the abstract one
    triv = GaloisDatum.trivial(cyclic_group(2), N=2)
    ext = EquivariantExtension(triv, f, np.zeros((1, 2), dtype=np.int64))
    assert splits_equivariantly(ext, [0, 1]) is None
    assert splits_equivariantly(zero_extension(triv), [0, 1]) is not None


def assert_splitting_witness(ext, elems, b, modulus=None, equivariant=False):
    """f = b(gh) - b(g) - b(h) on H, and chi(d) b(g) + c_d(g) = b(d.g)."""
    N = ext.modulus if modulus is None else modulus
    scale = N // ext.modulus
    gal = ext.gal
    val = dict(zip(sorted(elems), (int(x) for x in b)))
    assert len(val) == len(b)
    for g, h in itertools.product(val, repeat=2):
        lhs = scale * int(ext.f[g, h])
        assert (lhs - val[int(gal.G.mul[g, h])] + val[g] + val[h]) % N == 0
    if equivariant:
        for d, g in itertools.product(range(gal.delta.order), val):
            lhs = int(gal.chi[d]) * val[g] + scale * int(ext.c[d, g])
            assert (lhs - val[int(gal.action.table[d, g])]) % N == 0


def test_splitting_witnesses_satisfy_their_equations():
    G = abelian_group([2, 4])
    subgroups = [list(e) for e in family_by_pairs(G, "cyc")] + [list(range(G.order))]
    found = 0
    for gal in (GaloisDatum.trivial(G), GaloisDatum.real_like(G)):
        cm = class_module(gal)
        for coords in itertools.product(*map(range, cm.invariant_factors)):
            ext = cm.element(coords)
            for elems in subgroups:
                b = splits_over(ext, elems)
                if b is not None:
                    assert_splitting_witness(ext, elems, b)
                    found += 1
                b = splits_equivariantly(ext, elems)
                if b is not None:
                    assert_splitting_witness(ext, elems, b, equivariant=True)
                    found += 1
    gal = real_datum_z2()
    for phi in character_group_generators(gal.G, gal.N,
                                          equivariance=(gal.chi, gal.action.table)):
        ext = bockstein_pair(gal, phi)
        b = splits_equivariantly(ext, [0, 1], modulus=gal.N * gal.N)
        assert_splitting_witness(ext, [0, 1], b, gal.N * gal.N, equivariant=True)
        found += 1
    assert found > 50


def test_splitting_matches_brute_force_sections():
    rng = np.random.default_rng(3)
    G = abelian_group([2, 2])
    for gal in (GaloisDatum.trivial(G, N=2), GaloisDatum.real_like(G, N=2)):
        cm = class_module(gal)
        for coords in itertools.product(*map(range, cm.invariant_factors)):
            ext = cm.element(coords)
            eg = extension_group(ext)
            for elems in ([0, 1], [0, 1, 2, 3]):
                expect = splits_over(ext, elems) is not None
                brute = any(True for _ in brute_sections(eg, elems, G))
                assert expect == brute
                # equivariant version against brute equivariant sections
                expect_eq = splits_equivariantly(ext, elems) is not None
                brute_eq = False
                for table in brute_sections(eg, elems, G):
                    ok = all(
                        eg.action.table[d, table[g]]
                        == table[int(gal.action.table[d, g])]
                        for d in range(gal.delta.order) for g in elems)
                    if ok:
                        brute_eq = True
                        break
                assert expect_eq == brute_eq


def test_conjugation_formula_matches_extension_group():
    # (0,gamma)(x,y)(0,gamma)^-1 = (x + f(gamma,y) - f(gamma,gamma^-1)
    #                                 + f(gamma y, gamma^-1), gamma y gamma^-1)
    G = symmetric_group(3)
    gal = GaloisDatum.trivial(G, N=6)
    cm = class_module(gal)
    rng = np.random.default_rng(8)
    for _ in range(4):
        coords = rng.integers(0, 6, size=len(cm.invariant_factors))
        ext = cm.element(coords)
        eg = extension_group(ext)
        f = ext.f
        for gamma in range(6):
            for lam in range(6):
                for y in range(6):
                    e_g = eg.pair_index(0, gamma)
                    x = eg.pair_index(lam, y)
                    lhs = eg.group.mul[eg.group.mul[e_g, x], eg.group.inv[e_g]]
                    ginv = int(G.inv[gamma])
                    coeff = (lam + f[gamma, y] - f[gamma, ginv]
                             + f[int(G.mul[gamma, y]), ginv]) % 6
                    rhs = eg.pair_index(int(coeff), G.conjugate(y, gamma))
                    assert lhs == rhs


def test_baer_sum_and_class_module_functoriality():
    gal = real_datum_z2()
    cm = class_module(gal)
    assert cm.invariant_factors == (2, 2)
    exts = [cm.element(c) for c in itertools.product(*map(range, cm.invariant_factors))]
    for e1 in exts:
        for e2 in exts:
            s = baer_sum(e1, e2)
            c1, c2 = cm.coordinates(e1), cm.coordinates(e2)
            cs = cm.coordinates(s)
            mods = np.array(cm.invariant_factors)
            assert np.array_equal(cs, (c1 + c2) % mods)


def test_baer_sum_mismatch():
    g1 = GaloisDatum.trivial(cyclic_group(2), N=2)
    g2 = GaloisDatum.trivial(cyclic_group(3), N=3)
    with pytest.raises(MismatchedBase):
        baer_sum(zero_extension(g1), zero_extension(g2))


def test_class_module_trivial_delta_z2():
    gal = GaloisDatum.trivial(cyclic_group(2), N=2)
    cm = class_module(gal)
    assert cm.invariant_factors == (2,)
    # brute-force: all pairs are (f(1,1), -) with no c; 2 classes
    # (cross-checked against H^2(Z/2, Z/2) = Z/2)


def test_class_module_trivial_group():
    gal = GaloisDatum.trivial(group_from_table([[0]]), N=1)
    cm = class_module(gal)
    assert cm.invariant_factors == ()


def test_class_module_real_datum_contains_remark_pair():
    gal = real_datum_z2()
    cm = class_module(gal)
    f, _ = bockstein(cyclic_group(2), np.array([0, 1]), 2)
    const_z4 = EquivariantExtension(gal, f, np.zeros((2, 2), dtype=np.int64))
    coords = cm.coordinates(const_z4)
    assert coords is not None and coords.any()


def test_class_module_brute_force_tiny():
    """Enumerate all pairs (f, c) for G = Z/2, Delta = Z/2, chi = -1 mod 4."""
    gal = real_datum_z2()
    cm = class_module(gal)
    valid = []
    for fv in range(2):
        for cv in range(2):
            f = np.zeros((2, 2), dtype=np.int64)
            f[1, 1] = fv
            c = np.zeros((2, 2), dtype=np.int64)
            c[1, 1] = cv
            ext = EquivariantExtension(gal, f, c)
            if ext.violated_law() is None:
                valid.append(ext)
    assert len(valid) == 4
    # coboundary pairs: b(1) in {0,1}: db = 2b = 0, twist chi*b - b = 0 mod 2
    # so all 4 pairs are distinct classes
    coord_set = {tuple(cm.coordinates(e)) for e in valid}
    assert len(coord_set) == 4


def test_kummer_kernel_z2():
    gal = GaloisDatum.trivial(cyclic_group(2), N=2)
    cm = class_module(gal)
    K = kummer_kernel(cm)
    # generated by the Bockstein of the identity character: nonzero
    assert K.shape[1] >= 1 and K.any()


def test_kummer_kernel_perfect_group_is_zero():
    # A5, the smallest perfect group: Hom(A5, Z/N) = 0, so no Kummer class
    from brnr.groups import alternating_group
    A5 = alternating_group(5)
    gal = GaloisDatum.trivial(A5, N=60)  # the level must be a multiple of exp(A5) = 30
    cm = class_module(gal)
    K = kummer_kernel(cm)
    assert K.shape[1] == 0 or not K.any()


def test_kummer_classes_split_equivariantly_at_lifted_modulus():
    for gal in (GaloisDatum.trivial(cyclic_group(2), N=2),
                real_datum_z2(),
                GaloisDatum.trivial(abelian_group([2, 2]), N=2)):
        from brnr.cohomology import character_group_generators
        phis = character_group_generators(gal.G, gal.N,
                                          equivariance=(gal.chi, gal.action.table))
        for phi in phis:
            ext = bockstein_pair(gal, phi)
            all_elems = list(range(gal.G.order))
            w = splits_equivariantly(ext, all_elems, modulus=gal.N * gal.N)
            assert w is not None


def test_sum_of_bocksteins_is_bockstein_of_sum():
    gal = GaloisDatum.trivial(abelian_group([2, 2]), N=2)
    cm = class_module(gal)
    phis = [np.array([0, 1, 0, 1]), np.array([0, 0, 1, 1])]
    e1 = bockstein_pair(gal, phis[0])
    e2 = bockstein_pair(gal, phis[1])
    esum = bockstein_pair(gal, (phis[0] + phis[1]) % 2)
    lhs = cm.coordinates(baer_sum(e1, e2))
    rhs = cm.coordinates(esum)
    assert np.array_equal(lhs, rhs)


def test_scale_extension():
    gal = GaloisDatum.trivial(cyclic_group(4), N=4)
    f, _ = bockstein(cyclic_group(4), np.arange(4), 4)
    ext = EquivariantExtension(gal, f, np.zeros((1, 4), dtype=np.int64))
    cm = class_module(gal)
    c1 = cm.coordinates(ext)
    c2 = cm.coordinates(EquivariantExtension(gal, 3 * ext.f, 3 * ext.c))
    assert np.array_equal((3 * c1) % np.array(cm.invariant_factors), c2)


CLASS_MODULE_DATA = {
    "real D4": lambda: GaloisDatum.real_like(dihedral_group(4)),
    **{f"{name} relabelled": (lambda name=name: relabel_datum(C2_DATA[name](), 11))
       for name in C2_DATA},
}


@pytest.mark.parametrize("name", sorted(CLASS_MODULE_DATA))
def test_class_module_coordinates_take_a_batch(name):
    # the representatives get the unit vectors and element(x) gets x back;
    # a list of pairs gives one column per pair, equal to the pair-by-pair
    # coordinates; one pair breaking C1, or C2 or C3, makes the batch None
    gal = CLASS_MODULE_DATA[name]()
    cm = class_module(gal)
    k = len(cm.invariant_factors)
    orders = np.array(cm.invariant_factors, dtype=np.int64).reshape(k, 1)
    rng = np.random.default_rng(9)
    coords = np.array([rng.integers(0, d, size=5) for d in cm.invariant_factors],
                      dtype=np.int64).reshape(k, 5)
    if k:
        assert np.array_equal(cm.coordinates(cm.fs, cm.cs), np.eye(k, dtype=np.int64))
        for x in coords.T:
            assert np.array_equal(cm.coordinates(cm.element(x)), x)
    exts = []
    for x in coords.T:
        b = rng.integers(0, gal.N, size=gal.G.order)
        b[0] = 0
        f = (b[:, None] + b[None, :] - b[gal.G.mul]) % gal.N
        c = (gal.chi_mod_n[:, None] * b[None, :] - b[gal.action.table]) % gal.N
        exts.append(baer_sum(cm.element(x), EquivariantExtension(gal, f, c)))
    batch = cm.coordinates(exts)
    assert np.array_equal(batch % orders, coords % orders)
    for j, ext in enumerate(exts):
        assert np.array_equal(cm.coordinates(ext), batch[:, j])
    # bad by construction (|G| >= 3): adding 1 to f(1, 2) changes the C1 sum
    # at (x, 1, 2), x != 1, by -1, and adding 1 to c_1(1) changes the C2 sum
    # at (1, 1, 2) by -1 (indices are elements, 0 the identity)
    assert gal.G.order >= 3
    f = exts[0].f.copy()
    f[1, 2] += 1
    bads = [("C1", EquivariantExtension(gal, f, exts[0].c))]
    if gal.delta.order > 1:
        c = exts[0].c.copy()
        c[1, 1] += 1
        bads.append(("C2", EquivariantExtension(gal, exts[0].f, c)))
    for law, bad in bads:
        assert bad.violated_law()[0] == law
        assert cm.coordinates(bad) is None
        assert cm.coordinates(exts[:2] + [bad] + exts[2:]) is None


@pytest.mark.parametrize("name", sorted(CLASS_MODULE_DATA))
def test_a_pair_shifted_by_a_constant_coboundary_is_normalized(name):
    # the constant b = k has the coboundary pair (db, chi b - b o d) =
    # (k, (chi - 1) k), so the shifted pair has f(1, 1) = k != 0; it comes
    # back as the representative, with the same class coordinates
    gal = CLASS_MODULE_DATA[name]()
    cm = class_module(gal)
    assert len(cm.fs)
    for f, c, k in zip(cm.fs, cm.cs, itertools.cycle(range(1, gal.N))):
        rep = EquivariantExtension(gal, f, c)
        assert np.array_equal(rep.f, f) and np.array_equal(rep.c, c)
        shifted = EquivariantExtension(gal, rep.f + k, rep.c + (gal.chi_mod_n[:, None] - 1) * k)
        assert np.array_equal(shifted.f, rep.f) and np.array_equal(shifted.c, rep.c)
        assert shifted.violated_law() is None
        assert np.array_equal(cm.coordinates(shifted), cm.coordinates(rep))


def _violations_by_all_rows(ext: EquivariantExtension) -> tuple[list, list, list]:
    """Reference: every violated row of C1 (g, h, k), C2 (d, g, h) and C3
    (d, e, g) over all arguments, each list in lexicographic order."""
    gal, f, c = ext.gal, ext.f, ext.c
    G, N, mul = gal.G, gal.N, gal.G.mul
    c1 = []
    for g in range(G.order):
        lhs = f[g][:, None] + f[mul[g]]        # f(g,h) + f(gh,k)
        rhs = f[g][mul] + f                     # f(g,hk) + f(h,k)
        c1 += [(g, int(h), int(k)) for h, k in np.argwhere((lhs - rhs) % N)]
    act, chi_n = gal.action.table, gal.chi_mod_n
    c2, c3 = [], []
    for d in range(gal.delta.order):
        lhs = c[d][mul] - c[d][:, None] - c[d][None, :]
        bad = np.argwhere((lhs - f[np.ix_(act[d], act[d])] + chi_n[d] * f) % N)
        c2 += [(d, int(g), int(h)) for g, h in bad]
    for d in range(gal.delta.order):
        for e in range(gal.delta.order):
            bad = np.nonzero((c[gal.delta.mul[d, e]] - chi_n[d] * c[e] - c[d][act[e]]) % N)[0]
            c3 += [(d, e, int(g)) for g in bad]
    return c1, c2, c3


def _laws_by_all_rows(ext: EquivariantExtension) -> tuple[list, object]:
    """Reference: every C1 violation (g, h, k) over all g, in order, and the
    first violated law among C2, C3 with its witness (or None)."""
    c1, c2, c3 = _violations_by_all_rows(ext)
    return c1, ("C2", c2[0]) if c2 else ("C3", c3[0]) if c3 else None


def _law_at_generator_rows(ext: EquivariantExtension) -> object:
    """The first violated law and witness among the rows of ``_laws_by_all_rows``
    that the check reads: C1 at g in {1} u S, C2 at d in S_Delta and C3 at
    (d, e in S_Delta, g).  It finds a violation exactly when some row is violated."""
    rows = {0, *ext.gal.G.minimal_generators()}
    SD = set(ext.gal.delta.minimal_generators())
    c1, c2, c3 = _violations_by_all_rows(ext)
    read = [("C1", [t for t in c1 if t[0] in rows]), ("C2", [t for t in c2 if t[0] in SD]),
            ("C3", [t for t in c3 if t[1] in SD])]
    law = next(((name, bad[0]) for name, bad in read if bad), None)
    assert (law is None) == (not (c1 or c2 or c3))
    return law


LAW_DATA = {
    "real D4": lambda: GaloisDatum.real_like(dihedral_group(4)),
    "real Q8": lambda: GaloisDatum.real_like(quaternion_group()),
    "trivial S3": lambda: GaloisDatum.trivial(symmetric_group(3)),
    "twist Z2xZ4": lambda: GaloisDatum(cyclic_group(2), abelian_group([2, 4]), np.array([1, 31]),
                                       GroupAction.trivial(cyclic_group(2),
                                                           abelian_group([2, 4]))),
}


@pytest.mark.parametrize("name", sorted(LAW_DATA))
def test_violated_law_on_generator_rows_matches_all_rows(name):
    # C1 is read at first arguments {1} u S only; the verdict must be that of
    # every row, and the C1 witness the first bad triple in those rows.
    # Pairs: class-module elements, each perturbed at one entry of f (every
    # other time in a row f(g, .) with g outside {1} u S) or, when Delta is
    # not trivial, of c.
    gal = LAW_DATA[name]()
    G, N = gal.G, gal.N
    n = G.order
    rows = {G.identity, *G.minimal_generators()}
    others = [g for g in range(1, n) if g not in rows]
    cm = class_module(gal)
    rng = np.random.default_rng(n * 7 + gal.delta.order)
    seen = set()
    for trial in range(40):
        ext = cm.element(rng.integers(0, N, size=len(cm.invariant_factors)))
        assert ext.violated_law() is None and _laws_by_all_rows(ext) == ([], None)
        f, c = ext.f.copy(), ext.c.copy()
        if trial % 4 == 3 and gal.delta.order > 1:
            c[rng.integers(1, gal.delta.order), rng.integers(1, n)] += 1
        else:
            g = int(rng.choice(others)) if trial % 2 and others else int(rng.integers(1, n))
            f[g, rng.integers(1, n)] += int(rng.integers(1, N))
        bad = EquivariantExtension(gal, f, c)
        c1, rest = _laws_by_all_rows(bad)
        got = bad.violated_law()
        if c1:
            assert got == ("C1", next(t for t in c1 if t[0] in rows)), trial
        else:
            assert got == rest, trial
        seen.add(got[0])
    assert seen == ({"C1", "C2"} if gal.delta.order > 1 else {"C1"})


def _crossed_defect(ext: EquivariantExtension, d: int, e: int, g: int) -> int:
    """C3 at (d, e, g): c_{de}(g) - chi(d) c_e(g) - c_d(e.g) mod N."""
    gal = ext.gal
    return int((ext.c[gal.delta.mul[d, e], g] - gal.chi_mod_n[d] * ext.c[e, g]
                - ext.c[d, gal.action.table[e, g]]) % gal.N)


def test_violated_law_finds_a_crossed_witness():
    # f = 0 and c_d(g) = k_d g on Z/8: C1 and C2 hold and C3 alone decides;
    # Delta = Z/4 acts by u = 7, so d and d^-1 act differently.  C3 is read
    # at (d, e, g) with e in S_Delta, so the witness is a violated row, not
    # always the first one over every e ((2, 1, 1) where that is (1, 2, 1))
    gal = cyclic_unit_datum(8, 7, 15)
    rng = np.random.default_rng(4)
    seen = set()
    for trial in range(20):
        k = rng.integers(0, 8, size=4) * (trial > 0)           # trial 0: the zero pair
        k[0] = 0
        ext = EquivariantExtension(gal, np.zeros((8, 8), dtype=np.int64),
                                   np.outer(k, np.arange(8)) % 8)
        got = ext.violated_law()
        c1, rest = _laws_by_all_rows(ext)
        assert c1 == [] and (got is None) == (rest is None)
        if got is not None:
            assert got[0] == rest[0] == "C3" and _crossed_defect(ext, *got[1])
        seen.add(got is None)
    assert seen == {False, True}


def test_violated_law_catches_a_twist_off_the_generators_of_delta():
    # Wang's Delta = (Z/64)^x = Z/2 x Z/16 has two generators; a class-module
    # element changed at one c_d, d not among them, is caught by C3
    gal = wang_datum(8)
    SD = gal.delta.minimal_generators()
    assert len(SD) == 2
    others = [d for d in range(1, gal.delta.order) if d not in SD]
    cm = class_module(gal)
    rng = np.random.default_rng(8)
    for _ in range(10):
        ext = cm.element(rng.integers(0, 2, size=len(cm.invariant_factors)))
        assert ext.violated_law() is None
        c = ext.c.copy()
        d = int(rng.choice(others))
        c[d, rng.integers(1, 8)] += rng.integers(1, 8)
        bad = EquivariantExtension(gal, ext.f, c)
        got = bad.violated_law()
        assert got is not None and _laws_by_all_rows(bad)[1] is not None
        assert got[0] == "C3" and _crossed_defect(bad, *got[1])


STACK_DATA = {**LAW_DATA, "Z4 on Z8 u=7 chi=15": lambda: cyclic_unit_datum(8, 7, 15),
              "Wang Z8": lambda: wang_datum(8)}


def _mixed_pairs(gal: GaloisDatum, rng, count: int) -> list:
    """Class-module elements, most broken at one or two random entries: of f,
    of c_e for e in S_Delta (when Delta is not trivial), of both, or of c_d
    for d outside S_Delta (which only C3 reads)."""
    G, N, n, nd = gal.G, gal.N, gal.G.order, gal.delta.order
    SD = gal.delta.minimal_generators()
    off = [d for d in range(1, nd) if d not in SD]
    cm = class_module(gal)
    modes = ["valid", "f", "c", "f and c", "c off S_Delta"][:2 + 2 * (nd > 1) + bool(off)]
    pairs = []
    for trial in range(count):
        ext = cm.element(rng.integers(0, N, size=len(cm.invariant_factors)))
        f, c = ext.f.copy(), ext.c.copy()
        mode = modes[trial % len(modes)]
        if mode in ("f", "f and c"):
            f[rng.integers(1, n), rng.integers(1, n)] += rng.integers(1, N)
        if mode in ("c", "f and c"):
            c[rng.choice(SD), rng.integers(1, n)] += rng.integers(1, N)
        if mode == "c off S_Delta":
            c[rng.choice(off), rng.integers(1, n)] += rng.integers(1, N)
        pairs.append(EquivariantExtension(gal, f, c))
    return pairs


@pytest.mark.parametrize("name", sorted(STACK_DATA))
def test_violated_laws_reports_the_first_broken_pair_of_a_stack(name):
    # the stacked check must report what a pair-by-pair check over every row
    # reports first: the lowest broken pair, and in it C1 before C2 before
    # C3, with the first violated row the check reads as witness
    gal = STACK_DATA[name]()
    n, nd = gal.G.order, gal.delta.order
    rng = np.random.default_rng(n + 3 * nd)
    pairs = _mixed_pairs(gal, rng, 24)
    expect = [_law_at_generator_rows(e) for e in pairs]
    assert expect.count(None) >= 3
    laws = {law for law, _ in filter(None, expect)}
    assert laws == {"C1", "C2", "C3"} if nd > 2 else laws >= {"C1"}
    seen = set()
    for _ in range(30):
        k = int(rng.integers(1, 8))
        pick = rng.choice(len(pairs), size=k, replace=False)
        fs = np.array([pairs[i].f for i in pick])
        cs = np.array([pairs[i].c for i in pick])
        first = next((j for j, i in enumerate(pick) if expect[i] is not None), None)
        got = violated_laws(gal, fs, cs)
        assert got == (None if first is None else (first, *expect[pick[first]]))
        seen.add(None if got is None else (got[0] > 0, got[1]))
    assert (True, "C1") in seen and (nd == 1 or (False, "C2") in seen)
    # an empty stack and a stack of valid pairs break no law
    assert violated_laws(gal, np.zeros((0, n, n), dtype=np.int64),
                         np.zeros((0, nd, n), dtype=np.int64)) is None
    valid = [e for e, law in zip(pairs, expect) if law is None]
    assert violated_laws(gal, np.array([e.f for e in valid]),
                         np.array([e.c for e in valid])) is None
    cm = class_module(gal)
    assert violated_laws(gal, cm.fs, cm.cs) is None


def test_the_laws_are_checked_once_per_stack(monkeypatch):
    # class_module checks its representatives and coordinates its whole
    # stack in one call each, kummer_kernel builds no pair to check, and
    # br_nr builds a pair only for each representative of its report
    calls, built = [], []
    check, post_init = brnr.extensions.violated_laws, EquivariantExtension.__post_init__

    def check_spy(gal, fs, cs):
        calls.append(len(fs))
        return check(gal, fs, cs)

    def post_init_spy(self):
        built.append(1)
        post_init(self)

    monkeypatch.setattr(brnr.extensions, "violated_laws", check_spy)
    gal = wang_datum(8)
    cm = class_module(gal)
    assert calls == [3]
    exts = _mixed_pairs(gal, np.random.default_rng(5), 10)
    calls.clear()
    assert cm.coordinates(exts[::5]) is not None
    assert cm.coordinates(exts) is None
    assert cm.coordinates(np.array([e.f for e in exts]), np.array([e.c for e in exts])) is None
    kummer_kernel(cm)
    assert calls == [2, 10, 10]
    calls.clear()
    monkeypatch.setattr(EquivariantExtension, "__post_init__", post_init_spy)
    report = br_nr(gal)
    assert calls == [3] and len(built) == len(report.representatives) == 1
