import itertools
import numpy as np
import pytest

import brnr.cohomology

from brnr.groups import (
    AbelianModule,
    FiniteGroup,
    abelian_group,
    alternating_group,
    cyclic_group,
    dihedral_group,
    group_from_table,
    quaternion_group,
    semidirect_product,
    symmetric_group,
)
from brnr.cohomology import (
    _cocycle1_space,
    _d0_columns,
    _row_scales,
    character_group_generators,
    class_subgroup,
    cocycle1_defect,
    cocycle2_defect,
    commuting_pair_rows,
    cup_h1_h1,
    death_rows,
    family_generators,
    h1,
    h2,
    h2_trivial_scalar,
    scalar_module,
    sha,
)
from brnr.engine import b0
from brnr.errors import NotACocycle, ValidationError
from brnr.fastpath import build_example_714
from brnr.reference import (
    NotEquivariant,
    _coboundary_rows,
    _twist_rows,
    bockstein,
    commuting_pair_rows_of_tables,
    dies_in_qz,
    is_scalar_coboundary,
    subgroup_module,
    tate_h0,
)
from brnr.selfchecks import (
    bicyclic_by_pairs,
    class_span,
    classes_dying_by_full_rows,
    family_by_pairs,
)
from brnr.zmod import echelon_compress, kernel, smith_normal_form_raw
from dense_h2 import coboundary1, dense_h2
from test_engine import METACYCLIC, _metacyclic, random_permutation_group
from test_generator_rows import relabel
from test_groups import assert_family_generators_cover


def brute_h2_order(G: FiniteGroup, m: int) -> int:
    """|H^2(G, Z/m)| by enumerating all normalized 2-cochains (tiny cases)."""
    n = G.order
    cells = (n - 1) ** 2
    assert m**cells <= 300_000, "brute force only for tiny cases"
    cocycles = []
    for flat in itertools.product(range(m), repeat=cells):
        f = np.zeros((n, n), dtype=np.int64)
        f[1:, 1:] = np.array(flat, dtype=np.int64).reshape(n - 1, n - 1)
        ok = True
        for g in range(n):
            for h in range(n):
                for k in range(n):
                    lhs = (f[h, k] - f[G.mul[g, h], k] + f[g, G.mul[h, k]] - f[g, h]) % m
                    if lhs:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            cocycles.append(f)
    coboundaries = set()
    for bflat in itertools.product(range(m), repeat=n - 1):
        b = np.zeros(n, dtype=np.int64)
        b[1:] = bflat
        db = (b[:, None] + b[None, :] - b[G.mul]) % m
        db[0, :] = 0
        db[:, 0] = 0
        coboundaries.add(db.tobytes())
    return len(cocycles) // len(coboundaries)


def test_h1_trivial_group():
    G = group_from_table([[0]])
    M = scalar_module(4)
    assert h1(G, M).invariant_factors == ()


def test_h1_z2_negating_z4():
    G = cyclic_group(2)
    M = AbelianModule((4,), G, np.array([[[1]], [[3]]]))
    H = h1(G, M)
    assert H.invariant_factors == (2,)
    # the nonzero class: a(s) = 2 is a coboundary? d0(v)(s) = -v - v = 2v,
    # so a(s)=2 IS a coboundary; the generator must be one of a(s) in {1,3}
    rep = H.representatives[0]
    assert rep[1, 0] in (1, 3)
    # brute force: all 4 normalized 1-cochains
    cocycles = []
    for v in range(4):
        a = np.array([[0], [v]])
        lhs = (3 * v - 0 + v) % 4  # s.a(s) - a(ss) + a(s)
        if lhs == 0:
            cocycles.append(v)
    assert sorted(cocycles) == [0, 1, 2, 3]  # all are cocycles here
    cob = sorted({(2 * v) % 4 for v in range(4)})
    assert cob == [0, 2]
    assert H.order == len(cocycles) // len(cob)


def _sign_units(G: FiniteGroup, m: int) -> np.ndarray:
    """u(g) = -1 outside the kernel of the first character of Hom(G, Z/2)."""
    phi = character_group_generators(G, 2)[0]
    return (1 - 2 * phi) % m


def _swap_module(G: FiniteGroup, d: int) -> AbelianModule:
    """(Z/d)^2 with the elements outside the kernel of a character swapping."""
    phi = character_group_generators(G, 2)[0]
    swap = np.array([[0, 1], [1, 0]], dtype=np.int64)
    return AbelianModule((d, d), G, np.array([swap if p else np.eye(2, dtype=np.int64)
                                              for p in phi]))


def _trivial_module(G: FiniteGroup, factors) -> AbelianModule:
    return AbelianModule(tuple(factors), G,
                         np.tile(np.eye(len(factors), dtype=np.int64), (G.order, 1, 1)))


# nontrivial actions, a nonabelian actor, and mixed invariant factors
H1_DATA = {
    "S3 sign Z/4": lambda: (symmetric_group(3), scalar_module(4, symmetric_group(3),
                                                             _sign_units(symmetric_group(3), 4))),
    "S3 sign Z/6": lambda: (symmetric_group(3), scalar_module(6, symmetric_group(3),
                                                             _sign_units(symmetric_group(3), 6))),
    "Z2 swap (Z/2)^2": lambda: (cyclic_group(2), _swap_module(cyclic_group(2), 2)),
    "Z2 swap (Z/4)^2": lambda: (cyclic_group(2), _swap_module(cyclic_group(2), 4)),
    "D4 swap (Z/2)^2": lambda: (dihedral_group(4), _swap_module(dihedral_group(4), 2)),
    "Z4 trivial Z2xZ4": lambda: (cyclic_group(4), _trivial_module(cyclic_group(4), (2, 4))),
    "Z2xZ4 trivial Z/4": lambda: (abelian_group([2, 4]),
                                  _trivial_module(abelian_group([2, 4]), (4,))),
    "Z2 shear Z2xZ4": lambda: (cyclic_group(2), AbelianModule(
        (2, 4), cyclic_group(2), np.array([np.eye(2, dtype=np.int64), [[1, 0], [2, 1]]]))),
}


def brute_h1_order(G: FiniteGroup, M: AbelianModule) -> int:
    """|H^1(G, M)| = |Z^1| / |B^1| by enumerating all normalized 1-cochains."""
    n = G.order
    assert M.order ** (n - 1) <= 20_000, "brute force only for tiny cases"
    vecs = np.array(list(itertools.product(*(range(d) for d in M.invariant_factors))),
                    dtype=np.int64)
    a = np.zeros((len(vecs) ** (n - 1), n, M.rank), dtype=np.int64)
    a[:, 1:] = vecs[np.array(list(itertools.product(range(len(vecs)), repeat=n - 1)))]
    acts = np.array([M.matrix(g) for g in range(n)])
    lhs = np.einsum("gij,khj->kghi", acts, a) - a[:, G.mul] + a[:, :, None, :]
    n_cocycles = int((~M.reduce(lhs).any(axis=(1, 2, 3))).sum())
    coboundaries = {M.reduce(np.einsum("gij,j->gi", acts, v) - v).tobytes() for v in vecs}
    return n_cocycles // len(coboundaries)


@pytest.mark.parametrize("name", sorted(H1_DATA))
def test_h1_matches_bruteforce(name):
    # Z^1 is cut out by the cocycle rows at the generators alone: its order
    # matches enumeration, and every kernel column of those rows expands to
    # a full cocycle
    G, M = H1_DATA[name]()
    H = h1(G, M)
    assert H.order == brute_h1_order(G, M)
    _, E, rows = _cocycle1_space(G, M)
    K = kernel(rows, M.exponent).generator_lifts
    for j in range(K.shape[1]):
        assert cocycle1_defect(G, M, E @ K[:, j]) is None
    for i, rep in enumerate(H.representatives):
        assert cocycle1_defect(G, M, rep) is None
        assert np.array_equal(H.coordinates(rep), np.eye(len(H.invariant_factors))[i])


def test_h1_of_group_ring_example():
    ex = build_example_714(2)
    H = h1(ex.sd.Q, ex.sd.N_hat)
    assert H.invariant_factors == ex.expected_h1
    for rep in H.representatives:
        assert cocycle1_defect(ex.sd.Q, ex.sd.N_hat, rep) is None


@pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4)])
def test_h2_cyclic_brute_force(n, m):
    G = cyclic_group(n)
    assert brute_h2_order(G, m) == np.gcd(n, m)
    H = h2(G, scalar_module(m))
    expected = () if np.gcd(n, m) == 1 else (int(np.gcd(n, m)),)
    assert H.invariant_factors == expected


@pytest.mark.parametrize("n,m", [(n, m) for n in range(2, 13) for m in range(2, 13)])
def test_h2_cyclic_gcd_law(n, m):
    H = h2(cyclic_group(n), scalar_module(m))
    g = int(np.gcd(n, m))
    assert H.invariant_factors == (() if g == 1 else (g,))


def test_h2_klein_four_mod_2():
    G = abelian_group([2, 2])
    H = h2(G, scalar_module(2))
    assert H.invariant_factors == (2, 2, 2)
    assert brute_h2_order(G, 2) == 8


def test_h2_trivial_group():
    G = group_from_table([[0]])
    assert h2(G, scalar_module(6)).invariant_factors == ()


def test_h2_dense_vs_reduced_agree():
    for G in (cyclic_group(4), abelian_group([2, 2]), symmetric_group(3),
              dihedral_group(4), quaternion_group()):
        for m in (2, 4, G.order):
            Hd = dense_h2(G, _trivial_module(G, (m,)))
            Hr = h2_trivial_scalar(G, m)
            assert Hd.invariant_factors == Hr.invariant_factors
            # cross coordinates: each dense generator must be recognized by
            # the reduced computation and vice versa, with matching orders
            for rep in Hd.representatives:
                c = Hr.coordinates(rep[:, :, 0])
                assert c is not None
            for rep in Hr.representatives:
                c = Hd.coordinates(rep)
                assert c is not None


def _relabelled(G, M, seed):
    """G under a seeded relabelling, with M's action carried along."""
    G2, perm = relabel(G, seed)
    return G2, AbelianModule(M.invariant_factors, G2,
                             None if M.action is None else M.action[np.argsort(perm)])


def _metacyclic_h2(n, q, u, seed):
    G, M = _relabelled(_metacyclic(n, q, u), scalar_module(n * q), seed)
    return h2(G, M)


ROUND_TRIP = {
    "h2 Z6": lambda: h2(cyclic_group(6), scalar_module(6)),
    "h2 Z2xZ4": lambda: h2(abelian_group([2, 4]), scalar_module(8)),
    "h2 S3": lambda: h2(symmetric_group(3), scalar_module(6)),
    **{f"h2 Z{n}:Z{q} u={u}": (lambda n=n, q=q, u=u: _metacyclic_h2(n, q, u, n + q))
       for n, q, u in METACYCLIC},
    **{f"h1 {name}": (lambda name=name: h1(*_relabelled(*H1_DATA[name](), 7)))
       for name in ("S3 sign Z/6", "D4 swap (Z/2)^2", "Z4 trivial Z2xZ4")},
    "sha1 ambient D4 swap": lambda: sha(*_relabelled(*H1_DATA["D4 swap (Z/2)^2"](), 8),
                                        1, "cyc").ambient,
    "sha2 ambient SD16": lambda: sha(*_relabelled(_metacyclic(8, 2, 3), scalar_module(16), 9),
                                     2, "ab").ambient,
}


@pytest.mark.parametrize("name", sorted(ROUND_TRIP))
def test_representatives_are_cocycles_and_coordinates_are_unit_vectors(name):
    # kernel bases are not canonical, so the basis must round-trip: the
    # representatives get the unit vectors, element_table(x) gets x back,
    # coboundaries add nothing and a cochain outside Z^d gets None
    H = ROUND_TRIP[name]()
    G, M = H.group, H.module
    k = len(H.invariant_factors)
    assert k
    defect = cocycle1_defect if H.degree == 1 else cocycle2_defect
    for rep in H.representatives:
        assert defect(G, M, rep) is None
    assert np.array_equal(H.coordinates(np.array(H.representatives)),
                          np.eye(k, dtype=np.int64))
    rng = np.random.default_rng(17)
    orders = np.array(H.invariant_factors, dtype=np.int64)
    for x in rng.integers(0, orders, size=(4, k)):
        assert np.array_equal(H.coordinates(H.element_table(x)), x)
    tables, coords = _random_cocycles(H, rng, 4)
    assert np.array_equal(H.coordinates(tables), coords % orders[:, None])
    cells = (slice(1, None),) * H.degree
    bad = np.zeros_like(tables[0])
    while defect(G, M, bad) is None:
        bad[cells] = rng.integers(0, M.exponent, size=bad[cells].shape)
    assert H.coordinates(bad) is None
    assert H.coordinates(np.array([tables[0], bad])) is None


def test_h2_needs_trivial_scalar_coefficients():
    # twisted or higher-rank coefficients have only the dense reference
    G = symmetric_group(3)
    for M in (_trivial_module(G, (6,)), scalar_module(6, G, _sign_units(G, 6)),
              AbelianModule((2, 4))):
        with pytest.raises(ValidationError):
            h2(G, M)


def test_tate_h0_examples():
    # (Z/2)^3 acting trivially on Z/8: norm = 8 * id = 0, invariants all
    Q = abelian_group([2, 2, 2])
    M = AbelianModule((8,), Q, np.tile(np.eye(1, dtype=np.int64), (8, 1, 1)))
    T = tate_h0(Q, M)
    assert T.invariant_factors == (8,)

    # trivial group: H^0 = M, norm = identity, quotient = 0
    T = tate_h0(group_from_table([[0]]), scalar_module(6))
    assert T.invariant_factors == ()

    # Z/2 negating Z/4: invariants {0,2}, norms = 0 -> Z/2
    G = cyclic_group(2)
    M = AbelianModule((4,), G, np.array([[[1]], [[3]]]))
    T = tate_h0(G, M)
    assert T.invariant_factors == (2,)


def test_restriction_to_trivial_subgroup_is_zero():
    G = cyclic_group(4)
    H2 = h2(G, scalar_module(4))
    rep = H2.representatives[0]
    sub = rep[np.ix_([0], [0])]
    assert not sub.any()


def test_restrict_h2_generator_of_z4_to_z2():
    G = cyclic_group(4)
    H2 = h2(G, scalar_module(4))
    assert H2.invariant_factors == (4,)
    elems = np.array([0, 2])
    B, idx = G.subgroup_table(elems)
    rep = H2.representatives[0]
    restricted = rep[np.ix_(idx, idx)][:, :, 0]
    # brute-force: is the restriction a coboundary mod 4 on Z/2?
    witness = is_scalar_coboundary(B, restricted, 4)
    HB = h2(B, scalar_module(4))
    coords = HB.coordinates(restricted[:, :, None])
    assert (witness is None) == bool(coords.any())


def test_dies_in_qz():
    # zero cocycle dies
    B = cyclic_group(2)
    assert dies_in_qz(np.zeros((2, 2)), B, 2)

    # the nonzero class of H^2(Z/2, Z/2) dies in Q/Z (it is a Bockstein)
    f = np.zeros((2, 2), dtype=np.int64)
    f[1, 1] = 1
    assert dies_in_qz(f, B, 2)

    # the alternating class on (Z/2)^2 does not die mod 8
    V = abelian_group([2, 2])
    H = h2(V, scalar_module(2))
    # find a class whose Q/Z image survives: scan all 8 classes
    alive = []
    for c in itertools.product(range(2), repeat=3):
        table = H.element_table(np.array(c))
        if not dies_in_qz(table[:, :, 0], V, 2):
            alive.append(c)
    assert alive  # (Z/2)^2 has H^2(-, Q/Z) = Z/2, so something survives


def brute_force_dies_in_qz(f, B: FiniteGroup, N: int) -> bool:
    """Enumerate witnesses b: B -> Z/(N*exp B) for e*f = db."""
    e = B.exponent
    m = N * e
    n = B.order
    target = (e * np.asarray(f, dtype=np.int64)) % m
    for bflat in itertools.product(range(m), repeat=n - 1):
        b = np.zeros(n, dtype=np.int64)
        b[1:] = bflat
        db = (b[:, None] + b[None, :] - b[B.mul]) % m
        db[0, :] = 0
        db[:, 0] = 0
        if np.array_equal(db, target):
            return True
    return False


@pytest.mark.parametrize("group,m", [("z2", 2), ("z4", 2), ("z2z2", 2), ("z2", 4)])
def test_dies_in_qz_matches_brute_force(group, m):
    G = {"z2": cyclic_group(2), "z4": cyclic_group(4),
         "z2z2": abelian_group([2, 2])}[group]
    rng = np.random.default_rng(17)
    H = h2(G, scalar_module(m))
    for _ in range(10):
        coords = rng.integers(0, 4, size=len(H.invariant_factors))
        table = H.element_table(coords)[:, :, 0]
        assert dies_in_qz(table, G, m) == brute_force_dies_in_qz(table, G, m)


def test_cup_product():
    # Z/2, trivial module Z/2, x = y = identity character
    G = cyclic_group(2)
    M = scalar_module(2, G)
    Mdual = M.dual()
    x = np.array([[0], [1]])
    out = cup_h1_h1(G, M, x, Mdual, x)
    # nonzero class of H^2(Z/2, Z/2): f(1,1) = 1
    H = h2(G, scalar_module(2))
    coords = H.coordinates(out[:, :, None])
    assert coords is not None and coords.any()

    # x = 0 gives the zero cocycle
    z = cup_h1_h1(G, M, np.zeros((2, 1), dtype=np.int64), Mdual, x)
    assert not z.any()


def cup_by_pairing(G, M, x, Mdual, y):
    """Reference cup table: one AbelianModule.pairing call per (s, t)."""
    n = G.order
    x, y = M.reduce(x), Mdual.reduce(y)
    out = np.zeros((n, n), dtype=np.int64)
    for s in range(n):
        ys = y @ Mdual.matrix(s).T
        for t in range(n):
            out[s, t] = M.pairing(Mdual.reduce(ys[t]), x[s])
    out[0, :] = 0
    out[:, 0] = 0
    return out % M.exponent


@pytest.mark.parametrize("p", [2, 3])
def test_cup_table_matches_the_pairing_loop(p):
    # the example 7.14 modules, acted on by Q (of order 27 at p = 3) directly
    # and through a relabelling, and a trivial module with mixed factors
    ex = build_example_714(p)
    sd, Q = ex.sd, ex.sd.Q
    rng = np.random.default_rng(p)
    V = abelian_group([2, 4])
    triv = AbelianModule((2, 4), V, None)
    cases = [(V, triv, triv, rng.integers(0, 4, size=(8, 2)))]
    for c_v in (np.arange(Q.order), np.concatenate([[0], 1 + rng.permutation(Q.order - 1)])):
        cases.append((Q, sd.N_hat.with_actor(Q, c_v), sd.N.with_actor(Q, c_v), ex.a_table))
    for G, M, Md, x in cases:
        for _ in range(2):
            y = rng.integers(0, Md.exponent, size=(G.order, Md.rank))
            assert np.array_equal(cup_h1_h1(G, M, x, Md, y), cup_by_pairing(G, M, x, Md, y))


def test_cup_of_coboundary_is_coboundary():
    G = cyclic_group(4)
    M = scalar_module(4, G)
    Md = M.dual()
    # a coboundary 1-cochain: d0(v) = g.v - v = 0 for trivial action, so
    # use a nontrivial action: negation on Z/4
    G2 = cyclic_group(2)
    M2 = AbelianModule((4,), G2, np.array([[[1]], [[3]]]))
    M2d = M2.dual()
    v = np.array([1], dtype=np.int64)
    cob = np.stack([M2.reduce(M2.matrix(g) @ v) - v for g in range(2)]) % 4
    y = np.array([[0], [1]])
    out = cup_h1_h1(G2, M2, cob, M2d, y)
    # the pairing is equivariant, so the cup lands in trivial-action H^2
    H = h2(G2, scalar_module(4))
    coords = H.coordinates(out[:, :, None])
    assert coords is not None
    assert not coords.any()


def test_bockstein_basics():
    G = cyclic_group(2)
    # phi = 0
    f, c = bockstein(G, np.zeros(2, dtype=np.int64), 2)
    assert not f.any()

    # phi = identity character of Z/2, trivial chi
    f, c = bockstein(G, np.array([0, 1]), 2)
    assert f[1, 1] == 1
    H = h2(G, scalar_module(2))
    assert H.coordinates(f[:, :, None]).any()

    # nontrivial chi mod 4: the twist appears
    D = cyclic_group(2)
    act = np.tile(np.arange(2), (2, 1))
    f, c = bockstein(G, np.array([0, 1]), 2, D, np.array([1, 3]), act)
    assert c[1, 1] == 1

    with pytest.raises(NotACocycle):
        bockstein(G, np.array([0, 3]), 4)


def test_bockstein_not_equivariant():
    G = cyclic_group(4)
    D = cyclic_group(2)
    act = np.tile(np.arange(4), (2, 1))
    # phi = identity: chi = -1 mod 16 requires phi(d.g) = -phi(g), fails
    with pytest.raises(NotEquivariant):
        bockstein(G, np.arange(4), 4, D, np.array([1, 15]), act)


def test_character_group_generators():
    G = abelian_group([2, 4])
    gens = character_group_generators(G, 4)
    # Hom(Z/2 x Z/4, Z/4) = Z/2 x Z/4, order 8
    span = set()
    frontier = [np.zeros(G.order, dtype=np.int64)]
    span.add(frontier[0].tobytes())
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = (x + g) % 4
            if y.tobytes() not in span:
                span.add(y.tobytes())
                frontier.append(y)
    assert len(span) == 8

    S3 = symmetric_group(3)
    gens = character_group_generators(S3, 6)
    orders = []
    for g in gens:
        k, acc = 1, g.copy()
        while acc.any():
            acc = (acc + g) % 6
            k += 1
        orders.append(k)
    assert np.prod(orders) == 2  # S3^ab = Z/2


def test_sha1_trivial_family_cases():
    G = group_from_table([[0]])
    M = scalar_module(2, G)
    res = sha(G, M, 1, "bic")
    assert res.invariant_factors == ()


def test_sha2_bic_abelian_groups_vanish():
    # the Q/Z bicyclic filter of B_0 kills everything for small abelian groups
    for factors in ([2, 2], [4], [2, 4], [3, 3]):
        assert b0(abelian_group(factors)).invariant_factors == ()


def test_coboundary_rows_match_coboundary1_columns():
    # reference: d1 of each basis 1-cochain, one column at a time
    rng = np.random.default_rng(5)
    for G in (abelian_group([2, 4]), quaternion_group(), symmetric_group(3),
              abelian_group([3, 3])):
        n, m = G.order, 12
        units = np.concatenate([[1], rng.choice([1, 5, 7, 11], size=n - 1)])
        M = scalar_module(m, G, units)
        ref = np.zeros(((n - 1) ** 2, n - 1), dtype=np.int64)
        for b in range(1, n):
            a = np.zeros((n, 1), dtype=np.int64)
            a[b, 0] = 1
            ref[:, b - 1] = coboundary1(G, M, a)[1:, 1:, 0].reshape(-1)
        assert np.array_equal(_coboundary_rows(G, M), ref)
        plain = coboundary1(G, scalar_module(m), np.eye(n, dtype=np.int64)[:, 1:2])
        assert np.array_equal(_coboundary_rows(G, scalar_module(m))[:, 0],
                              plain[1:, 1:, 0].reshape(-1))
    # Z/1 needs no module object
    Z1 = _coboundary_rows(cyclic_group(2), 1)
    assert Z1.shape == (1, 1) and not Z1.any()


def test_twist_rows_match_loop():
    G = symmetric_group(3)
    act = np.array([np.arange(6), G.inv[np.arange(6)]])
    chi = np.array([1, 5])
    rows = _twist_rows(act, chi, 6)
    for d in range(2):
        for g in range(1, 6):
            for b in range(1, 6):
                expect = (chi[d] * (g == b) - (act[d, g] == b)) % 6
                assert rows[d * 5 + g - 1, b - 1] == expect


@pytest.mark.parametrize("name", ["S3", "D4", "Q8", "Q8xZ2", "D4xZ2", "Z2^3",
                                  "M16", "SD16", "D8", "Z4:Z4"])
def test_qz_death_lattice_matches_dies_in_qz(name):
    # the kernel of the commuting-pair rows shared by b0 and br_nr holds a
    # class of H^2(G, Z/|G|) iff dies_in_qz holds on every bicyclic subgroup
    G = {
        "S3": lambda: symmetric_group(3),
        "D4": lambda: dihedral_group(4),
        "Q8": quaternion_group,
        "Q8xZ2": lambda: semidirect_product(cyclic_group(2), quaternion_group()).group,
        "D4xZ2": lambda: semidirect_product(cyclic_group(2), dihedral_group(4)).group,
        "Z2^3": lambda: abelian_group([2, 2, 2]),
        "M16": lambda: _metacyclic(8, 2, 5),
        "SD16": lambda: _metacyclic(8, 2, 3),
        "D8": lambda: _metacyclic(8, 2, 7),
        "Z4:Z4": lambda: _metacyclic(4, 4, 3),
    }[name]()
    N = G.order
    H = h2(G, scalar_module(N))
    orders = H.invariant_factors
    bics = [G.subgroup_table(e) for e in bicyclic_by_pairs(G) if len(e) > 1]
    _, S = commuting_pair_rows(H.space, H.sub.generator_lifts)
    expect = {x for x in itertools.product(*(range(o) for o in orders))
              if all(dies_in_qz(H.element_table(x)[:, :, 0][np.ix_(idx, idx)], B, N)
                     for B, idx in bics)}
    assert class_span(*class_subgroup(S, orders, N), orders) == expect


def all_commuting_pair_rows(G, tables, N):
    """Reference: the rows of condition (i) at every commuting pair x < y of elements != 1."""
    commuting = np.triu(G.mul == G.mul.T, 1)
    commuting[0] = False
    x, y = np.nonzero(commuting)
    T = np.asarray(tables, dtype=np.int64)
    return list(zip(x.tolist(), y.tolist())), (T[:, x, y] - T[:, y, x]).T % N


PAIR_GROUPS = {
    "S4": lambda: symmetric_group(4),
    "A5": lambda: alternating_group(5),
    "D16": lambda: dihedral_group(8),
    "Q8xZ4": lambda: semidirect_product(cyclic_group(4), quaternion_group()).group,
    "Z4:Z4": lambda: _metacyclic(4, 4, 3),
    "Z/64": lambda: cyclic_group(64),
}


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("name", sorted(PAIR_GROUPS))
def test_commuting_pair_rows_at_least_generators_match_all_pairs(name, seed):
    # on the H^2(G, Z/|G|) representatives and on random cocycles (random
    # combinations of them plus coboundaries), the rows at pairs of least
    # cyclic generators and the rows at all commuting pairs have one
    # reduced Howell form and the same first nonzero pair in each column,
    # the witness br_nr prints; the cyc and bic generating tuples of the
    # same group cover the pair loop's subgroups
    G, _ = relabel(PAIR_GROUPS[name](), seed)
    N = G.order
    rng = np.random.default_rng(seed)
    reps = np.array([rep[:, :, 0] for rep in h2(G, scalar_module(N)).representatives])
    b = rng.integers(0, N, size=(6, N))
    b[:, 0] = 0
    db = b[:, :, None] + b[:, None, :] - b[:, G.mul]
    mixed = np.tensordot(rng.integers(0, N, size=(6, len(reps))), reps, axes=1) + db
    tables = np.concatenate([reps, mixed % N])
    pairs, S = commuting_pair_rows_of_tables(G, tables, N)
    every, A = all_commuting_pair_rows(G, tables, N)
    assert set(pairs) <= set(every) and S.shape[1] == A.shape[1] == len(tables)
    assert np.array_equal(echelon_compress(S, N), echelon_compress(A, N))
    for s, a in zip(S.T, A.T):
        assert [pairs[i] for i in np.flatnonzero(s)[:1]] == [every[i] for i in np.flatnonzero(a)[:1]]
    assert_family_generators_cover(G)


@pytest.mark.parametrize("N", [12, 24, 36])
def test_class_subgroup_matches_enumeration(N):
    # {x in prod Z/o_j : S x = 0 mod N} / <relations> against enumeration of
    # every class vector: S has column j in (N/o_j) Z/N, the relations are
    # random members of the kernel.  The quotient's order must match, and
    # the combinations of the generators over the returned invariant
    # factors must hit every coset exactly once.
    rng = np.random.default_rng(N)
    divisors = [d for d in range(2, N + 1) if N % d == 0]
    for trial in range(16):
        orders = tuple(int(o) for o in rng.choice(divisors, size=int(rng.integers(1, 4))))
        mods = np.array(orders)
        S = rng.integers(0, mods, size=(int(rng.integers(0, 4)), len(orders))) * (N // mods)
        every = np.array(list(itertools.product(*(range(o) for o in orders))))
        members = every[~(every @ S.T % N).any(axis=1)]
        picks = members[rng.integers(0, len(members), size=int(rng.integers(0, 3)))]
        rels = class_span((N,) * len(picks), picks, orders)
        factors, coords = class_subgroup(S, orders, N, picks.T if len(picks) else None)
        assert len(members) == np.prod(factors, dtype=int) * len(rels), (trial, orders)
        cosets = {frozenset(tuple(map(int, (np.array(x) + r) % mods)) for r in rels)
                  for x in class_span(factors, coords, orders)}
        assert len(cosets) == np.prod(factors, dtype=int)
        assert set().union(*cosets) == set(map(tuple, members.tolist()))
    # column j must vanish on o_j e_j: a 1 in a column of order 2 does not
    with pytest.raises(AssertionError):
        class_subgroup(np.array([[0, 1]]), (N, 2), N)


def _example_714_data(p=2):
    ex = build_example_714(p)
    return ex.sd.Q, ex.sd.N_hat


# (group and module, degree, family): Sha != 0 first, then Sha = 0 with
# a nonzero ambient group, then Sha equal to the ambient group.  The
# reference keeps every member of the family; death_rows keeps the maximal
# ones, which drops the lines of (Z/p)^3 under its planes in "714 p=3 bic"
# and the centre of Q8 under its three Z/4 in "Q8 swap (Z/4)^2 cyc".  In
# "S3 mod 6 bic" and "S4 mod 24 bic" some cyclic members are maximal
# (every member of S3, the Z/3 of S4)
SHA_DATA = {
    "714 p=2 bic": (_example_714_data, 1, "bic"),
    "714 p=2 cyc": (_example_714_data, 1, "cyc"),
    "714 p=3 bic": (lambda: _example_714_data(3), 1, "bic"),
    "Z2xZ4 mod 4 cyc": (lambda: (abelian_group([2, 4]), scalar_module(4)), 2, "cyc"),
    "Z2^3 mod 4 cyc": (lambda: (abelian_group([2, 2, 2]), scalar_module(4)), 2, "cyc"),
    "Z4xZ4 mod 16 cyc": (lambda: (abelian_group([4, 4]), scalar_module(16)), 2, "cyc"),
    "S4 mod 24 cyc": (lambda: (symmetric_group(4), scalar_module(24)), 2, "cyc"),
    "S3 sign Z/6 cyc": (H1_DATA["S3 sign Z/6"], 1, "cyc"),
    "D4 swap (Z/2)^2 bic": (H1_DATA["D4 swap (Z/2)^2"], 1, "bic"),
    "Z4 trivial Z2xZ4 bic": (H1_DATA["Z4 trivial Z2xZ4"], 1, "bic"),
    "Q8 swap (Z/4)^2 cyc": (lambda: (quaternion_group(), _swap_module(quaternion_group(), 4)),
                            1, "cyc"),
    "S3 mod 6 bic": (lambda: (symmetric_group(3), scalar_module(6)), 2, "bic"),
    "S4 mod 24 bic": (lambda: (symmetric_group(4), scalar_module(24)), 2, "bic"),
    "Z2xZ4 mod 4 ab": (lambda: (abelian_group([2, 4]), scalar_module(4)), 2, "ab"),
    "S3 mod 24 cyc": (lambda: (symmetric_group(3), scalar_module(24)), 2, "cyc"),
    "Q8 mod 2 ab": (lambda: (quaternion_group(), scalar_module(2)), 2, "ab"),
    "Q8 mod 2 cyc": (lambda: (quaternion_group(), scalar_module(2)), 2, "cyc"),
    "M16 mod 4 ab": (lambda: (_metacyclic(8, 2, 5), scalar_module(4)), 2, "ab"),
    "SD16 mod 2 bic": (lambda: (_metacyclic(8, 2, 3), scalar_module(2)), 2, "bic"),
    "Z4:Z4 mod 2 ab": (lambda: (_metacyclic(4, 4, 3), scalar_module(2)), 2, "ab"),
    "D4 mod 8 cyc": (lambda: (dihedral_group(4), scalar_module(8)), 2, "cyc"),
    "D4 mod 8 ab": (lambda: (dihedral_group(4), scalar_module(8)), 2, "ab"),
    "A4 mod 4 cyc": (lambda: (alternating_group(4), scalar_module(4)), 2, "cyc"),
    "A4 mod 4 ab": (lambda: (alternating_group(4), scalar_module(4)), 2, "ab"),
}

@pytest.mark.parametrize("name", list(SHA_DATA))
def test_sha_matches_per_class_restriction(name):
    # the stacked death kernel passes exactly the classes whose restriction
    # to every subgroup of the family is a coboundary, solved on every row
    make, degree, family = SHA_DATA[name]
    G, M = make()
    res = sha(G, M, degree, family)
    orders = res.ambient.invariant_factors
    assert orders
    span = class_span(res.invariant_factors, res.coordinates_in_ambient, orders)
    assert classes_dying_by_full_rows(res) == span
    assert len(span) == res.order


@pytest.mark.parametrize("name, factors", [
    ("Q8 mod 2 cyc", (2, 2)), ("Q8 mod 2 ab", (2, 2)), ("M16 mod 4 ab", (2,)),
    ("SD16 mod 2 bic", (2,)), ("Z4:Z4 mod 2 ab", (2,)),
    ("D4 mod 8 cyc", (2,)), ("D4 mod 8 ab", ()), ("A4 mod 4 cyc", (2,)), ("A4 mod 4 ab", ())])
def test_sha2_of_nonabelian_groups(name, factors):
    # on D4 mod 8 and A4 mod 4 a class splits over every cyclic subgroup
    # and is cut by the commuting-pair rows
    make, degree, family = SHA_DATA[name]
    assert sha(*make(), degree, family).invariant_factors == factors


@pytest.mark.parametrize("seed", range(12))
def test_sha2_ab_equals_sha2_bic_on_random_permutation_groups(seed):
    # an abelian extension of sum <b_i> splits iff it splits over each <b_i>,
    # so the classes dying on every abelian subgroup, each solved on every
    # row, are those dying on every bicyclic one
    G = random_permutation_group(seed)
    for m in (2, 4, 6):
        bic, ab = (sha(G, scalar_module(m), 2, family) for family in ("bic", "ab"))
        orders = ab.ambient.invariant_factors
        spans = [class_span(r.invariant_factors, r.coordinates_in_ambient, orders)
                 for r in (bic, ab)]
        assert spans[0] == spans[1] == classes_dying_by_full_rows(ab)


def test_sha2_lists_no_subgroup(monkeypatch):
    # degree 2 reads two row blocks over the H^2 representatives: no member
    # of the family is listed, tabulated or solved
    def forbidden(*args, **kwargs):
        raise AssertionError("degree-2 sha enumerated a subgroup")

    monkeypatch.setattr(brnr.cohomology, "family_generators", forbidden)
    monkeypatch.setattr(FiniteGroup, "subgroup_table", forbidden)
    monkeypatch.setattr(brnr.cohomology, "death_rows", forbidden)
    monkeypatch.setattr(brnr.cohomology, "preimage_rows", forbidden)
    for name in ("D4 mod 8 ab", "Z4:Z4 mod 2 ab", "SD16 mod 2 bic", "A4 mod 4 cyc"):
        make, degree, family = SHA_DATA[name]
        sha(*make(), degree, family)


@pytest.mark.parametrize("p, planes", [(2, 7), (3, 13)])
def test_death_rows_solve_the_maximal_members_only(p, planes, monkeypatch):
    # the bicyclic family of Q = (Z/p)^3 is the trivial group, p^2 + p + 1
    # lines and as many planes; one preimage_rows call stacks the planes,
    # each the d0 columns at its two generators
    Q, M = _example_714_data(p)
    assert len(bicyclic_by_pairs(Q)) == 1 + 2 * planes
    shapes = []
    preimage_rows = brnr.cohomology.preimage_rows
    monkeypatch.setattr(brnr.cohomology, "preimage_rows",
                        lambda A, V, m: shapes.append(A.shape) or preimage_rows(A, V, m))
    assert sha(Q, M, 1, "bic").invariant_factors == (p,)
    assert shapes == [(planes, 2 * M.rank, M.rank)]


@pytest.mark.parametrize("name", sorted(n for n in H1_DATA if not n.startswith("Z2 swap")))
def test_death_rows_of_the_trivial_subgroup_alone_are_empty(name):
    # every class dies on the trivial subgroup: it has no generators, so its
    # member adds only zero rows, which are dropped (Z2 on a swap module has
    # H^1 = 0, where sha returns before it builds rows)
    G, M = H1_DATA[name]()
    tables = h1(G, M).representatives
    assert tables
    assert death_rows(G, [(0,)], tables, M).shape == (0, len(tables))


def snf_death_rows(G, M, family, tables) -> np.ndarray:
    """The death rows of every member of the family, one Smith normal form each.

    For P D Q = diag(d) the rows of P scaled by m / gcd(d, m) vanish
    exactly on colspan(D), so their product with V reads V x in it.
    """
    m, T = M.exponent, np.asarray(tables, dtype=np.int64)
    blocks = [np.zeros((0, len(T)), dtype=np.int64)]
    for elems in family_by_pairs(G, family):
        if len(elems) == 1:
            continue
        B, idx = G.subgroup_table(elems)
        gens = B.minimal_generators()
        scales = np.tile(_row_scales(M), len(gens))[:, None]
        D = _d0_columns(subgroup_module(M, B, idx), gens) * scales % m
        V = T[:, idx[gens]].reshape(len(T), -1).T * scales % m
        snf = smith_normal_form_raw(D, m)
        d = np.zeros(len(D), dtype=np.int64)
        d[:len(snf.diag)] = snf.diag
        blocks.append((m // np.gcd(d, m))[:, None] * snf.P % m @ V % m)
    return np.vstack(blocks)


@pytest.mark.parametrize("name", [n for n, (_, degree, _) in SHA_DATA.items() if degree == 1])
def test_death_rows_have_the_row_span_of_the_per_member_smith_forms(name):
    # the batched elimination over the maximal members and one SNF per
    # member of the whole family cut out the same classes, so over Z/m
    # (where a row span is the annihilator of its kernel) they have one
    # reduced Howell form
    make, _, family = SHA_DATA[name]
    G, M = make()
    tables = h1(G, M).representatives
    rows = death_rows(G, family_generators(G, family), tables, M)
    assert rows.any(axis=1).all()
    ref = snf_death_rows(G, M, family, tables)
    assert np.array_equal(echelon_compress(rows, M.exponent), echelon_compress(ref, M.exponent))


def test_coboundary_rows_module_coefficients():
    # rank > 1, mixed invariant factors: row (g, h, i) of d1 scaled by exp/d_i
    Z2 = cyclic_group(2)
    cases = [(symmetric_group(3), _swap_module(symmetric_group(3), 4)),
             (Z2, H1_DATA["Z2 shear Z2xZ4"]()[1]),
             (cyclic_group(4), _trivial_module(cyclic_group(4), (2, 4))),
             (Z2, AbelianModule((2, 4)))]
    for G, M in cases:
        n, r, m = G.order, M.rank, M.exponent
        scales = np.tile(_row_scales(M), (n - 1) ** 2)
        ref = np.zeros(((n - 1) ** 2 * r, (n - 1) * r), dtype=np.int64)
        for col in range((n - 1) * r):
            a = np.zeros((n, r), dtype=np.int64)
            a[1 + col // r, col % r] = 1
            ref[:, col] = coboundary1(G, M, a)[1:, 1:].reshape(-1) * scales % m
        assert np.array_equal(_coboundary_rows(G, M), ref)
    # Z/1 needs no module object
    Z1 = _coboundary_rows(cyclic_group(2), 1)
    assert Z1.shape == (1, 1) and not Z1.any()


def test_inflation_restriction_h1_consistency():
    # surjection Z/4 -> Z/2 with module Z/2 fixed by the kernel
    G4, G2 = cyclic_group(4), cyclic_group(2)
    M2 = AbelianModule((2,), G2, np.tile(np.eye(1, dtype=np.int64), (2, 1, 1)))
    H_q = h1(G2, M2)
    surj = np.array([0, 1, 0, 1])
    M4 = AbelianModule((2,), G4, np.tile(np.eye(1, dtype=np.int64), (4, 1, 1)))
    H_g = h1(G4, M4)
    for rep in H_q.representatives:
        inflated = rep[surj]
        coords = H_g.coordinates(inflated)
        assert coords is not None
        # inflation of a nonzero class stays nonzero (injectivity on H^1)
        assert coords.any() == H_q.coordinates(rep).any()


def test_coboundary_compositions_vanish():
    # d2(d1(a)) = 0 for every 1-cochain basis vector, across several (G, M)
    cases = [
        (cyclic_group(4), scalar_module(4)),
        (symmetric_group(3), scalar_module(6)),
    ]
    G2 = cyclic_group(2)
    cases.append((G2, AbelianModule((4,), G2, np.array([[[1]], [[3]]]))))
    for G, M in cases:
        for g in range(1, G.order):
            for i in range(M.rank):
                a = np.zeros((G.order, M.rank), dtype=np.int64)
                a[g, i] = 1
                img = coboundary1(G, M, a)
                # the image of d1 is always a 2-cocycle: d2 o d1 = 0
                assert cocycle2_defect(G, M, img) is None


def _cocycle2_violations(G: FiniteGroup, M: AbelianModule, f: np.ndarray) -> list:
    """Reference: every (g, h, k) violating the cocycle identity, in order."""
    n = G.order
    f = M.reduce(f)
    acts = np.array([M.matrix(g) for g in range(n)])
    lhs = (np.einsum("gij,hkj->ghki", acts, f) - f[G.mul] + f[:, G.mul]
           - f[:, :, None, :])
    return [tuple(int(x) for x in t) for t in np.argwhere(M.reduce(lhs).any(axis=3))]


DEFECT_DATA = {
    "D4 sign Z/4": lambda: (dihedral_group(4), scalar_module(
        4, dihedral_group(4), _sign_units(dihedral_group(4), 4))),
    "Q8 sign Z/4": lambda: (quaternion_group(), scalar_module(
        4, quaternion_group(), _sign_units(quaternion_group(), 4))),
    "S3 sign Z/6": lambda: (symmetric_group(3), scalar_module(
        6, symmetric_group(3), _sign_units(symmetric_group(3), 6))),
    "S3 trivial Z/3": lambda: (symmetric_group(3), scalar_module(3)),
    "D4 swap (Z/2)^2": lambda: (dihedral_group(4), _swap_module(dihedral_group(4), 2)),
    "SD16 swap (Z/4)^2": lambda: (_metacyclic(8, 2, 3), _swap_module(_metacyclic(8, 2, 3), 4)),
}


@pytest.mark.parametrize("name", sorted(DEFECT_DATA))
def test_cocycle2_defect_on_generator_rows_matches_all_rows(name):
    # the cocycle check reads only the rows g in {1} u S; its verdict must be
    # that of every row, and its witness the first bad triple in those rows.
    # Cochains: coboundaries of 1-cochains with a(1) != 0 (so f(1, x) != 0)
    # and H^2 representatives, each perturbed at one entry, every other time
    # in the row f(1, .).
    G, M = DEFECT_DATA[name]()
    n, r = G.order, M.rank
    rows = {G.identity, *G.minimal_generators()}
    d = np.array(M.invariant_factors, dtype=np.int64)
    rng = np.random.default_rng(n * 101 + r)
    cocycles = [coboundary1(G, M, rng.integers(0, d, size=(n, r))) for _ in range(6)]
    if n <= 8:
        cocycles += dense_h2(G, M).representatives
    for f in cocycles:
        assert _cocycle2_violations(G, M, f) == []
        assert cocycle2_defect(G, M, f) is None
        for trial in range(8):
            g = G.identity if trial % 2 == 0 else int(rng.integers(0, n))
            h, i = int(rng.integers(0, n)), int(rng.integers(0, r))
            bad = f.copy()
            bad[g, h, i] = (bad[g, h, i] + rng.integers(1, d[i])) % d[i]
            ref = _cocycle2_violations(G, M, bad)
            got = cocycle2_defect(G, M, bad)
            assert (got is None) == (not ref), (g, h, i)
            if ref:
                assert got == next(t for t in ref if t[0] in rows), (g, h, i)


def test_zero_verdict_witness_is_sound():
    # whenever is_scalar_coboundary returns b, d1(b) equals the table
    rng = np.random.default_rng(31)
    for G in (cyclic_group(4), abelian_group([2, 2]), symmetric_group(3)):
        n, m = G.order, 8
        for _ in range(20):
            b = np.zeros(n, dtype=np.int64)
            b[1:] = rng.integers(0, m, size=n - 1)
            table = (b[:, None] + b[None, :] - b[G.mul]) % m
            table[0, :] = 0
            table[:, 0] = 0
            w = is_scalar_coboundary(G, table, m)
            assert w is not None
            again = (w[:, None] + w[None, :] - w[G.mul]) % m
            again[0, :] = 0
            again[:, 0] = 0
            assert np.array_equal(again, table)


def _random_cocycles(H, rng, k):
    """k random members of Z^d: class combinations plus coboundaries, with their classes."""
    G, M = H.group, H.module
    n, r = G.order, M.rank
    coords = np.array([rng.integers(0, d, size=k) for d in H.invariant_factors],
                      dtype=np.int64).reshape(-1, k)
    tables = []
    for j in range(k):
        if H.degree == 1:
            v = rng.integers(0, M.exponent, size=r)
            cob = np.array([M.matrix(g) @ v - v for g in range(n)])
        else:
            b = np.zeros((n, r), dtype=np.int64)
            b[1:] = rng.integers(0, M.exponent, size=(n - 1, r))
            cob = coboundary1(G, M, b)
        tables.append(M.reduce(H.element_table(coords[:, j]) + cob))
    return np.array(tables), coords


COORDINATE_DATA = {
    "h1 S3 sign Z/6": lambda: h1(*H1_DATA["S3 sign Z/6"]()),
    "h1 D4 swap (Z/2)^2": lambda: h1(*H1_DATA["D4 swap (Z/2)^2"]()),
    "h1 Z2 shear Z2xZ4": lambda: h1(*H1_DATA["Z2 shear Z2xZ4"]()),
    "h2 dense D4": lambda: dense_h2(dihedral_group(4),
                                    _trivial_module(dihedral_group(4), (4,))),
    "h2 scalar Q8": lambda: h2(quaternion_group(), scalar_module(8)),
    "h2 scalar SD16": lambda: h2(_metacyclic(8, 2, 3), scalar_module(16)),
}


@pytest.mark.parametrize("name", sorted(COORDINATE_DATA))
def test_cohomology_coordinates_take_a_batch(name):
    # a stack of cocycles gives one column per table, equal to the
    # table-by-table coordinates; one non-cocycle makes the batch None
    H = COORDINATE_DATA[name]()
    assert H.invariant_factors
    rng = np.random.default_rng(3)
    tables, coords = _random_cocycles(H, rng, 6)
    batch = H.coordinates(tables)
    orders = np.array(H.invariant_factors)[:, None]
    assert np.array_equal(batch % orders, coords % orders)
    for j, table in enumerate(tables):
        assert np.array_equal(H.coordinates(table), batch[:, j])
    defect = cocycle1_defect if H.degree == 1 else cocycle2_defect
    cells = (slice(1, None),) * H.degree
    bad = np.zeros_like(tables[0])
    while defect(H.group, H.module, bad) is None:
        bad[cells] = rng.integers(0, H.module.exponent, size=bad[cells].shape)
    assert H.coordinates(np.array([*tables[:3], bad, *tables[3:]])) is None
