"""The cocycle systems at generator rows against the full-row systems.

Production writes the cocycle identity (C1) only at first arguments g in
S = ``G.minimal_generators()``, and solves the class module for the atoms
and the values c_e(s), e in S_Delta = ``delta.minimal_generators()``, with
the automorphism law (C2) at d in S_Delta and first arguments in S and the
crossed law (C3) at second arguments in S_Delta.  The references below keep
one unknown per c_d(g), every first argument g != 1, as the systems did
before, with the full n x n x atoms expression tensor, and C3 at every
pair d, e != 1.  Production also fixes the gauge: its f vanishes on the
tree edges of G below level 1, so it solves only on the Schreier atoms, and
its kernel is compared with the reference kernel cut by those atoms = 0;
with the coboundaries it spans the whole reference kernel.  Over Z/m equal
kernels have equal Howell forms, so the comparison is bit for bit.  The
f = 0 part of the full system, modulo the
character shifts, is the reference for the algebraic part, which production
computes as H^1(Delta, G^(chi)) with ``h1``.

``h1`` and the character groups solve for the values of a 1-cocycle at S
(``_cocycle1_space``).  The references keep one unknown per value a(g),
g != 1: H^1 cut out by the rows (g, s) of d1, one batch per generator, and
Hom(G, Z/N) as the kernel of those rows stacked on the twist rows at
every element of G.
"""

import numpy as np
import pytest

from brnr.cohomology import (
    _d0_columns,
    _kernel_from_batches,
    _lattice_columns,
    character_group_generators,
    class_subgroup,
    cocycle2_defect,
    h1,
    reduced_cocycle_space,
    scalar_module,
)
from brnr.engine import _character_module, algebraic_unramified, br_nr
from brnr.extensions import GaloisDatum, _c_expressions, class_module
from brnr.fastpath import build_example_714
from brnr.groups import (
    AbelianModule,
    GroupAction,
    abelian_group,
    cyclic_group,
    dihedral_group,
    group_from_table,
    quaternion_group,
    semidirect_product,
    symmetric_group,
)
from brnr.reference import _coboundary_rows, _twist_rows
from brnr.zmod import as_mod, echelon_compress, kernel, subquotient

from dense_h2 import coboundary_rows_at
from test_engine import FILTER_DATA, conjugation_datum, psi_datum, wang_datum


def full_expr(G, gens) -> np.ndarray:
    """expr[g, x]: f(g, x) in the atoms f(y, s), for every g, by BFS over x."""
    n, k = G.order, len(gens)
    expr = np.zeros((n, n, (n - 1) * k), dtype=np.int64)
    seen, queue = {0}, [0]
    while queue:
        parent = queue.pop(0)
        for i, s in enumerate(gens):
            x = int(G.mul[parent, s])
            if x in seen:
                continue
            seen.add(x)
            queue.append(x)
            expr[:, x] = expr[:, parent]
            for g in range(n):
                gp = int(G.mul[g, parent])
                if gp:
                    expr[g, x, (gp - 1) * k + i] += 1
            if parent:
                expr[:, x, (parent - 1) * k + i] -= 1
    return expr


def tree_edge_rows(G, gens, width=None) -> np.ndarray:
    """Rows f(parent, s) = 0 at the edges x = parent s, parent != 1, of the
    BFS tree that ``full_expr`` follows: the gauge, on the atoms f(y, s)."""
    n, k = G.order, len(gens)
    rows, seen, queue = [], {0}, [0]
    while queue:
        parent = queue.pop(0)
        for i, s in enumerate(gens):
            x = int(G.mul[parent, s])
            if x not in seen:
                seen.add(x)
                queue.append(x)
                if parent:
                    rows.append((parent - 1) * k + i)
    out = np.zeros((len(rows), (n - 1) * k if width is None else width), dtype=np.int64)
    out[np.arange(len(rows)), rows] = 1
    return out


def embedded_atoms(space, K) -> np.ndarray:
    """The rows f(y, s), y != 1 and s in S, of the tables of kernel columns K."""
    return space.expand(K)[:, 1:, space.gens].reshape(K.shape[1], -1)


def full_c1_rows(G, gens, m, width=None) -> np.ndarray:
    """f(g,h) + f(gh,s) - f(g,hs) - f(h,s) for every g, h != 1 and s in S."""
    n, k = G.order, len(gens)
    expr = full_expr(G, gens)
    rows = []
    for i, s in enumerate(gens):
        for g in range(1, n):
            for h in range(1, n):
                row = expr[g, G.mul[h, s]] - expr[g, h]
                row[(h - 1) * k + i] += 1
                gh = int(G.mul[g, h])
                if gh:
                    row[(gh - 1) * k + i] -= 1
                rows.append(row)
    rows = np.array(rows, dtype=np.int64) % m
    width = rows.shape[1] if width is None else width
    return np.hstack([rows, np.zeros((len(rows), width - rows.shape[1]), dtype=np.int64)])


def full_c2_rows(gal, gens) -> np.ndarray:
    """c_d(gh) - c_d(g) - c_d(h) - f(dg, dh) + chi(d) f(g, h) for d, g, h != 1."""
    G, N, nd = gal.G, gal.N, gal.delta.order
    n = G.order
    expr = full_expr(G, gens)
    n_atoms = expr.shape[2]
    act, chi = gal.action.table, gal.chi_mod_n
    rows = []
    for d in range(1, nd):
        for g in range(1, n):
            for h in range(1, n):
                row = np.zeros(n_atoms + (nd - 1) * (n - 1), dtype=np.int64)
                row[:n_atoms] = chi[d] * expr[g, h] - expr[act[d, g], act[d, h]]
                c = n_atoms + (d - 1) * (n - 1) - 1          # column of c_d(x) is c + x
                gh = int(G.mul[g, h])
                if gh:
                    row[c + gh] += 1
                row[c + g] -= 1
                row[c + h] -= 1
                rows.append(row)
    return np.array(rows, dtype=np.int64).reshape(-1, n_atoms + (nd - 1) * (n - 1)) % N


def full_c3_rows(gal) -> np.ndarray:
    """c_{de}(g) - chi(d) c_e(g) - c_d(e.g) for every d, e, g != 1."""
    n, nd = gal.G.order, gal.delta.order
    d = np.arange(1, nd)[:, None, None]
    e = np.arange(1, nd)[None, :, None]
    g = np.arange(1, n)[None, None, :]
    act = gal.action.table
    out = np.zeros((nd - 1, nd - 1, n - 1, nd, n), dtype=np.int64)  # c_1, c_d(1) = 0
    out[d - 1, e - 1, g - 1, gal.delta.mul[d, e], g] += 1
    out[d - 1, e - 1, g - 1, e, g] -= gal.chi_mod_n[d]
    out[d - 1, e - 1, g - 1, d, act[e, g]] -= 1
    return out[:, :, :, 1:, 1:].reshape((nd - 1) ** 2 * (n - 1), (nd - 1) * (n - 1)) % gal.N


def howell_of_kernel(rows, m) -> np.ndarray:
    return echelon_compress(kernel(rows, m).generator_lifts.T, m)


def relabel(G, seed):
    rng = np.random.default_rng(seed)
    perm = np.concatenate([[0], 1 + rng.permutation(G.order - 1)])
    inv = np.argsort(perm)
    return group_from_table(perm[G.mul[np.ix_(inv, inv)]]), perm


def metacyclic(n, q, u):
    Q = cyclic_group(q)
    action = np.array([[[pow(u, k, n)]] for k in range(q)], dtype=np.int64)
    return semidirect_product(AbelianModule((n,), Q, action), Q).group


GROUPS = {
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "M16": lambda: metacyclic(8, 2, 5),
    "SD16": lambda: metacyclic(8, 2, 3),
    "D8": lambda: metacyclic(8, 2, 7),
    "Z4:Z4": lambda: metacyclic(4, 4, 3),
    "D4xZ2": lambda: semidirect_product(cyclic_group(2), dihedral_group(4)).group,
    "Q8xZ2": lambda: semidirect_product(cyclic_group(2), quaternion_group()).group,
    "D16": lambda: dihedral_group(16),
}


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_c1_generator_rows_match_full_rows(name, seed):
    G = GROUPS[name]()
    if seed is not None:
        G, _ = relabel(G, seed)
    for m in (2, 4, 12, G.order):
        space = reduced_cocycle_space(G, m)
        n_atoms = space.expr.shape[2]
        assert n_atoms == G.order * (len(space.gens) - 1) + 1
        K = _kernel_from_batches(space.c1_batches(), n_atoms, m).generator_lifts
        rows = full_c1_rows(G, space.gens, m)
        # the gauged cocycles are the full kernel with the tree atoms = 0
        full = embedded_atoms(space, K)
        ref = howell_of_kernel(np.vstack([rows, tree_edge_rows(G, space.gens)]), m)
        assert np.array_equal(echelon_compress(full, m), ref), m
        # and with the coboundaries db (every b, at every atom) they span it
        cob = coboundary_rows_at(G, m, space.gens).T
        assert np.array_equal(echelon_compress(np.vstack([full, cob]), m),
                              howell_of_kernel(rows, m)), m
        # every kernel vector is a whole cocycle
        for table in space.expand(K):
            assert cocycle2_defect(G, scalar_module(m), table[:, :, None]) is None


def relabel_datum(gal, seed) -> GaloisDatum:
    G, perm = relabel(gal.G, seed)
    act = np.zeros_like(gal.action.table)
    act[:, perm] = perm[gal.action.table]
    out = GaloisDatum(gal.delta, G, gal.chi, GroupAction(gal.delta, G, act), gal.N)
    out.validate()
    return out


C2_DATA = {
    **FILTER_DATA,
    # chi = -1
    "inner D4": lambda: conjugation_datum(dihedral_group(4), 63),
    "inner D4xZ2": lambda: conjugation_datum(GROUPS["D4xZ2"](), 255),
    # Delta = (Z/64)^x = Z/2 x Z/16 needs two generators
    "Wang Z8": lambda: wang_datum(8),
}


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("name", sorted(C2_DATA))
def test_c2_generator_rows_match_full_rows(name, seed):
    gal = C2_DATA[name]()
    if seed is not None:
        gal = relabel_datum(gal, seed)
    G, N, nd = gal.G, gal.N, gal.delta.order
    n = G.order
    gens = G.minimal_generators()
    n_atoms = (n - 1) * len(gens)
    dim = n_atoms + (nd - 1) * (n - 1)
    c3 = full_c3_rows(gal)
    ref = np.vstack([full_c1_rows(G, gens, N, dim), full_c2_rows(gal, gens),
                     np.hstack([np.zeros((len(c3), n_atoms), dtype=np.int64), c3])])
    cm = class_module(gal)
    # production solves for the Schreier atoms and c_e(s), e in S_Delta, s in
    # S; the tables of the atoms and the expression table C map its class
    # lifts onto the pairs (atoms, c_d(g))
    W, space = cm._sub.generator_lifts, cm._space
    assert len(W) == n * (len(gens) - 1) + 1 + len(gal.delta.minimal_generators()) * len(gens)
    C = _c_expressions(gal, space, G.tree_levels(space.gens, left=True),
                       gal.delta.tree_levels(gal.delta.minimal_generators()))
    full = np.hstack([embedded_atoms(space, W[:space.expr.shape[2]]),
                      (C[1:, 1:] @ W).reshape(-1, W.shape[1]).T]) % N
    # the coboundary pairs (db, chi(d) b - b o d), one row per b = e_x, and
    # among them the gauged ones, whose db vanishes on the tree edges
    pairs = np.vstack([coboundary_rows_at(G, N, gens),
                       _twist_rows(gal.action.table[1:], gal.chi_mod_n[1:], N)]).T
    edges = tree_edge_rows(G, gens) @ pairs[:, :n_atoms].T % N
    gauged_pairs = kernel(edges, N).generator_lifts.T @ pairs % N
    # the lifts and the gauged coboundary pairs span the gauged kernel: the
    # full kernel with the tree atoms of f = 0
    gauged = np.vstack([ref, tree_edge_rows(G, gens, dim)])
    assert np.array_equal(echelon_compress(np.vstack([full, gauged_pairs]), N),
                          howell_of_kernel(gauged, N))
    # and with every coboundary pair they span the whole kernel
    assert np.array_equal(echelon_compress(np.vstack([full, pairs]), N),
                          howell_of_kernel(ref, N))


CROSSED_DATA = {
    **{k: v for k, v in C2_DATA.items() if k != "trivial D4"},
    "psi Z8 3,3": lambda: psi_datum(3, 3),
    "psi Z8 7,5": lambda: psi_datum(7, 5),
}


@pytest.mark.parametrize("name", sorted(CROSSED_DATA))
def test_crossed_hom_generator_rows_match_full_rows(name):
    # the f = 0 pairs: each c_d a homomorphism (C2 at every h) and d -> c_d
    # crossed (C3 at every pair d, e), modulo the shifts chi(d) b - b o d by
    # characters b, are H^1(Delta, G^(chi)) under c_d(g) = b_d(d.g)
    gal = CROSSED_DATA[name]()
    G, N, nd = gal.G, gal.N, gal.delta.order
    act, chi = gal.action.table, gal.chi_mod_n
    full = np.vstack([np.kron(np.eye(nd - 1, dtype=np.int64), _coboundary_rows(G, N)),
                      full_c3_rows(gal)])
    shifts = [(chi[1:, None] * b[1:] - b[act[1:, 1:]]).reshape(-1) % N
              for b in character_group_generators(G, N)]
    ref = subquotient(kernel(full, N), np.array(shifts, dtype=np.int64).T)
    B, module = _character_module(gal)
    H = h1(gal.delta, module)
    assert H.invariant_factors == ref.invariant_factors
    if not H.invariant_factors:
        return
    cs = (np.array(H.representatives) @ B.T)[:, np.arange(nd)[:, None], act] % N
    x = ref.coordinates(cs[:, 1:, 1:].reshape(len(cs), -1).T)
    # the images of the generators of H generate the reference group
    assert x is not None
    assert class_subgroup(np.zeros((0, len(x)), dtype=np.int64), ref.invariant_factors, N,
                          relations=x)[0] == ()


def relabel_delta(gal, seed) -> GaloisDatum:
    """The same datum with Delta's elements renamed: table, chi and action rows."""
    delta, perm = relabel(gal.delta, seed)
    chi = np.zeros_like(gal.chi)
    chi[perm] = gal.chi
    act = np.zeros_like(gal.action.table)
    act[perm] = gal.action.table
    out = GaloisDatum(delta, gal.G, chi, GroupAction(delta, gal.G, act), gal.N)
    out.validate()
    return out


# the psi data where the algebraic part is Z/2; (1, 1) is Wang's datum at N = 8
@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("psi", [(1, 1), (1, 7), (3, 3), (3, 7), (5, 1), (5, 3)], ids=str)
def test_algebraic_unramified_is_invariant_under_relabelling(psi, seed):
    gal = psi_datum(*psi)
    assert algebraic_unramified(gal).invariant_factors == (2,)
    for moved in (relabel_datum(gal, seed), relabel_delta(gal, seed),
                  relabel_delta(relabel_datum(gal, seed), seed + 10)):
        assert algebraic_unramified(moved).invariant_factors == (2,)


# class module and Br^0_nr of every psi datum, (1, 1) being Wang's at N = 8
PSI_ANSWERS = {
    (1, 1): ((2, 2, 2), (2,)), (1, 3): ((2, 2, 2), ()), (1, 5): ((2, 2, 2), ()),
    (1, 7): ((2, 2, 2), (2,)), (3, 1): ((4, 4), ()), (3, 3): ((2, 2), (2,)),
    (3, 5): ((4, 4), ()), (3, 7): ((2, 2), (2,)), (5, 1): ((2, 2), (2,)),
    (5, 3): ((2, 2), (2,)), (5, 5): ((2, 2), ()), (5, 7): ((2, 2), ()),
    (7, 1): ((2, 4, 4), ()), (7, 3): ((2, 2, 2), ()), (7, 5): ((2, 8, 8), ()),
    (7, 7): ((2, 2, 2), ()),
}


@pytest.mark.parametrize("psi", sorted(PSI_ANSWERS), ids=str)
def test_class_module_and_br_nr_are_invariant_under_relabelling(psi):
    # the c-unknowns sit at the generators of G and of Delta, and the trees
    # of c depend on both; renaming either must not change the answers
    gal = psi_datum(*psi)
    for moved in (gal, relabel_datum(gal, 5), relabel_delta(gal, 5),
                  relabel_delta(relabel_datum(gal, 6), 16)):
        assert class_module(moved).invariant_factors == PSI_ANSWERS[psi][0]
        assert br_nr(moved).invariant_factors == PSI_ANSWERS[psi][1]


def full_h1(G, M):
    """H^1(G, M) on the (|G| - 1) rank unknowns a(g), g != 1, with the rows
    (g, s) of d1 fed one generator s at a time and d0 at every element."""
    n, m = G.order, M.exponent
    W = _kernel_from_batches((coboundary_rows_at(G, M, [s])
                              for s in G.minimal_generators()), (n - 1) * M.rank, m)
    R = np.hstack([_d0_columns(M, range(1, n)), _lattice_columns(n - 1, M)])
    return subquotient(W, R)


def full_characters(G, N, equivariance=None) -> np.ndarray:
    """Rows of the Howell form of Hom(G, Z/N), optionally the chi-equivariant
    part, on the unknowns phi(g), g != 1, from every row of the system."""
    rows = [coboundary_rows_at(G, N, G.minimal_generators())]
    if equivariance is not None:
        chi, act = equivariance
        rows.append(_twist_rows(act, as_mod(chi, N), N))
    return howell_of_kernel(np.vstack(rows), N)


def character_module(G, factors, matrix_of) -> AbelianModule:
    """prod Z/factors with g acting by the matrix ``matrix_of(phi(g))``, for
    phi the first character of Hom(G, Z/2)."""
    phi = character_group_generators(G, 2)[0]
    return AbelianModule(factors, G, np.array([matrix_of(p) for p in phi], dtype=np.int64))


def augmentation_module(G, m) -> AbelianModule:
    """The augmentation ideal of (Z/m)[G] on the basis [g] - [1], g != 1,
    under left translation."""
    n = G.order
    mats = np.zeros((n, n - 1, n - 1), dtype=np.int64)
    for x in range(n):
        for g in range(1, n):
            xg = int(G.mul[x, g])
            if xg:
                mats[x, xg - 1, g - 1] += 1
            if x:
                mats[x, x - 1, g - 1] -= 1
    return AbelianModule((m,) * (n - 1), G, mats % m)


def relabel_module(M, seed) -> AbelianModule:
    G, perm = relabel(M.actor, seed)
    action = np.zeros_like(M.action)
    action[perm] = M.action
    return AbelianModule(M.invariant_factors, G, action)


SHEAR = lambda p: [[1, 0], [2 * p, 1]]                      # on Z/2 x Z/4
SIGN = lambda p: [[1, 0], [0, 1 - 2 * p]]
SWAP = lambda p: [[1 - p, p], [p, 1 - p]]
ONE = group_from_table([[0]])
H1_MODULES = {
    "S3 augmentation Z/6": lambda: augmentation_module(symmetric_group(3), 6),
    "D4 augmentation Z/4": lambda: augmentation_module(dihedral_group(4), 4),
    "Q8 augmentation Z/8": lambda: augmentation_module(quaternion_group(), 8),
    "S3 sign Z2xZ4": lambda: character_module(symmetric_group(3), (2, 4), SIGN),
    "D4 shear Z2xZ4": lambda: character_module(dihedral_group(4), (2, 4), SHEAR),
    "Q8 shear Z2xZ4": lambda: character_module(quaternion_group(), (2, 4), SHEAR),
    "D4 swap (Z/4)^2": lambda: character_module(dihedral_group(4), (4, 4), SWAP),
    "Z2xZ4 sign Z2xZ4": lambda: character_module(abelian_group([2, 4]), (2, 4), SIGN),
    "group ring p=2": lambda: build_example_714(2).sd.N_hat,
    "trivial group Z/4": lambda: AbelianModule((4,), ONE, np.ones((1, 1, 1), dtype=np.int64)),
    "S3 rank 0": lambda: AbelianModule((), symmetric_group(3),
                                       np.zeros((6, 0, 0), dtype=np.int64)),
}


@pytest.mark.parametrize("seed", [None, 4])
@pytest.mark.parametrize("name", sorted(H1_MODULES))
def test_h1_at_generators_matches_full_system(name, seed):
    M = H1_MODULES[name]()
    if seed is not None and M.actor.order > 1:
        M = relabel_module(M, seed)
    G = M.actor
    M.validate()
    H, ref = h1(G, M), full_h1(G, M)
    assert H.invariant_factors == ref.invariant_factors
    if not H.invariant_factors:
        return
    # the representatives of h1 have reference coordinates that generate
    # the reference group; with equal orders the map is an isomorphism
    x = ref.coordinates(np.array([rep[1:].reshape(-1) for rep in H.representatives]).T)
    assert x is not None
    assert class_subgroup(np.zeros((0, len(x)), dtype=np.int64), ref.invariant_factors,
                          M.exponent, relations=x)[0] == ()
    # and the reference lifts are cocycles whose h1 coordinates generate H^1
    lifts = ref.generator_lifts.T.reshape(-1, G.order - 1, M.rank)
    tables = np.concatenate([np.zeros((len(lifts), 1, M.rank), dtype=np.int64), lifts], axis=1)
    y = H.coordinates(tables)
    assert y is not None
    assert class_subgroup(np.zeros((0, len(y)), dtype=np.int64), H.invariant_factors,
                          M.exponent, relations=y)[0] == ()


@pytest.mark.parametrize("seed", [None, 2])
@pytest.mark.parametrize("name", sorted(GROUPS))
def test_characters_at_generators_match_full_rows(name, seed):
    G = GROUPS[name]()
    if seed is not None:
        G, _ = relabel(G, seed)
    for N in (2, 4, G.order):
        phis = np.array(character_group_generators(G, N), dtype=np.int64).reshape(-1, G.order)
        assert np.array_equal(echelon_compress(phis[:, 1:], N), full_characters(G, N))


@pytest.mark.parametrize("seed", [None, 3])
@pytest.mark.parametrize("name", sorted(CROSSED_DATA))
def test_character_module_matches_full_rows(name, seed):
    gal = CROSSED_DATA[name]()
    if seed is not None:
        gal = relabel_datum(gal, seed)
    G, N = gal.G, gal.N
    # the equivariant characters, whose Bocksteins are the Kummer classes
    equivariance = (gal.chi, gal.action.table)
    phis = np.array(character_group_generators(G, N, equivariance),
                    dtype=np.int64).reshape(-1, G.order)
    assert np.array_equal(echelon_compress(phis[:, 1:], N),
                          full_characters(G, N, equivariance))
    # G^(chi): its generators span Hom(G, Z/N), and the action matrices read
    # at the generators of G give (d.b)(y) = chi(d) b(d^-1.y) at every y
    B, module = _character_module(gal)
    assert np.array_equal(echelon_compress(B[1:].T, N), full_characters(G, N))
    module.validate()
    for d in range(gal.delta.order):
        acted = gal.chi_mod_n[d] * B[gal.action.table[gal.delta.inv[d]]] % N
        assert np.array_equal(acted, B @ module.matrix(d) % N)
