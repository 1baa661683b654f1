"""The cocycle systems at generator rows against the full-row systems.

Production writes the cocycle identity (C1) only at first arguments g in
S = ``G.minimal_generators()``, and solves the class module for the atoms
and the values c_e(s), e in S_Delta = ``delta.minimal_generators()``, with
the automorphism law (C2) at d in S_Delta and first arguments in S and the
crossed law (C3) at second arguments in S_Delta.  The references below keep
one unknown per c_d(g), every first argument g != 1, as the systems did
before, with the full n x n x atoms expression tensor, and C3 at every
pair d, e != 1.  Over Z/m equal kernels have equal Howell forms, so the
comparison is bit for bit.  The f = 0 part of the full system, modulo the
character shifts, is the reference for the algebraic part, which production
computes as H^1(Delta, G^(chi)) with ``h1``.
"""

import numpy as np
import pytest

from brnr.cohomology import (
    _coboundary_rows,
    _kernel_from_batches,
    character_group_generators,
    class_subgroup,
    cocycle2_defect,
    h1,
    reduced_cocycle_space,
    scalar_module,
)
from brnr.engine import _character_module, algebraic_unramified, br_nr
from brnr.extensions import GaloisDatum, _c_expressions, class_module
from brnr.groups import (
    AbelianModule,
    GroupAction,
    cyclic_group,
    dihedral_group,
    group_from_table,
    quaternion_group,
    semidirect_product,
)
from brnr.zmod import echelon_compress, kernel, subquotient

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
    return echelon_compress(kernel(rows, m).gens.T, m)


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
        K = _kernel_from_batches(space.c1_batches(), n_atoms, m).gens
        ref = howell_of_kernel(full_c1_rows(G, space.gens, m), m)
        assert np.array_equal(echelon_compress(K.T, m), ref), m
        # every kernel vector is a whole cocycle
        for table in space.expand(K):
            assert cocycle2_defect(G, scalar_module(m), table[:, :, None]) is None


def relabel_datum(gal, seed) -> GaloisDatum:
    G, perm = relabel(gal.G, seed)
    act = np.zeros_like(gal.action.table)
    act[:, perm] = perm[gal.action.table]
    out = GaloisDatum(gal.delta, G, gal.chi, GroupAction(gal.delta, G, act), gal.N,
                      gal.base_algebraically_closed)
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
    G, N = gal.G, gal.N
    gens = G.minimal_generators()
    n_atoms = (G.order - 1) * len(gens)
    dim = n_atoms + (gal.delta.order - 1) * (G.order - 1)
    c3 = full_c3_rows(gal)
    ref = np.vstack([full_c1_rows(G, gens, N, dim), full_c2_rows(gal, gens),
                     np.hstack([np.zeros((len(c3), n_atoms), dtype=np.int64), c3])])
    cm = class_module(gal)
    # production solves for the atoms and c_e(s), e in S_Delta, s in S; the
    # expression table C maps its kernel onto the pairs (atoms, c_d(g))
    W = cm._sub._W.gens
    C = _c_expressions(gal, cm._space)
    full = np.vstack([W[:n_atoms], (C[1:, 1:] @ W).reshape(-1, W.shape[1])]) % N
    assert np.array_equal(echelon_compress(full.T, N), howell_of_kernel(ref, N))


CROSSED_DATA = {
    **{k: v for k, v in C2_DATA.items() if k not in ("trivial D4", "closed D4")},
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
    ref = subquotient(kernel(full, N), np.array(shifts, dtype=np.int64).T, N)
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
    out = GaloisDatum(delta, gal.G, chi, GroupAction(delta, gal.G, act), gal.N,
                      gal.base_algebraically_closed)
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
