"""The gauge of the 2-cocycle systems against gauge-free references.

``h2_trivial_scalar`` and ``class_module`` solve only on the Schreier
atoms: a cocycle is moved by the coboundary of b(x) = b(parent) +
f(parent, s) along the BFS tree of G until it vanishes on the tree edges,
and the coboundaries left are the |S| of b(x) = word(x) . b(S).  The
references here know nothing of the tree: the dense bar-resolution H^2 of
``dense_h2``, and coordinates read before and after adding an arbitrary
coboundary (pair).
"""

from functools import cache

import numpy as np
import pytest

from brnr.caps import Caps
from brnr.cohomology import (
    class_subgroup,
    cocycle2_defect,
    h2_trivial_scalar,
    reduced_cocycle_space,
    scalar_module,
)
from brnr.errors import CapExceeded
from brnr.extensions import EquivariantExtension, class_module
from brnr.groups import (abelian_group, alternating_group, dihedral_group, quaternion_group,
                         symmetric_group)

from dense_h2 import dense_h2
from test_engine import conjugation_datum, psi_datum, real_datum, wang_datum
from test_generator_rows import GROUPS, full_c1_rows, relabel, tree_edge_rows

SMALL = {
    "S3": lambda: symmetric_group(3),
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "A4": lambda: alternating_group(4),
    **{f"{name} relabelled": (lambda name=name: relabel(GROUPS[name](), 7)[0])
       for name in ("SD16", "D4xZ2", "Q8xZ2")},
}


# Wang's Delta = (Z/64)^x needs two generators; on real D4 f is nonabelian.
# Both act trivially on G, where c + chi b - b o d at (e, s) needs no gauge of
# its own (b(e.s) = b(s) = 0); psi acts on Z/8 by units and inner D4 by
# conjugation, so e.s leaves S and the c-part's gauge matters
DATA = {"Wang Z8": lambda: wang_datum(8), "real D4": lambda: real_datum(dihedral_group(4)),
        "psi Z8 3,3": lambda: psi_datum(3, 3),
        "inner D4": lambda: conjugation_datum(dihedral_group(4), 63)}


@cache
def group(name):
    return SMALL[name]()


@cache
def dense(name, m):
    """The dense H^2 of a SMALL group, shared by the tests (0.4 s at order 16)."""
    return dense_h2(group(name), scalar_module(m))


def generate(coords, orders, m) -> bool:
    """Whether the columns of coords generate prod Z/orders."""
    return class_subgroup(np.zeros((0, coords.shape[1]), dtype=np.int64), orders, m,
                          relations=coords)[0] == ()


def coboundary(G, b, m) -> np.ndarray:
    """db(g, h) = b(g) + b(h) - b(gh) for a stack of 1-cochains b (..., n)."""
    return (b[..., :, None] + b[..., None, :] - b[..., G.mul]) % m


def random_cochains(G, count, m, seed) -> np.ndarray:
    b = np.random.default_rng(seed).integers(0, m, size=(count, G.order))
    b[:, 0] = 0
    return b


@pytest.mark.parametrize("m", ["2", "4", "12", "|G|"])
@pytest.mark.parametrize("name", sorted(SMALL))
def test_gauged_h2_matches_dense_h2(name, m):
    G = group(name)
    m = G.order if m == "|G|" else int(m)
    H, D = h2_trivial_scalar(G, m), dense(name, m)
    assert H.invariant_factors == D.invariant_factors
    if not H.invariant_factors:
        return
    # each side's representatives are cocycles whose coordinates on the
    # other side generate it: equal orders make the map an isomorphism
    x = D.coordinates(np.array(H.representatives))
    y = H.coordinates(np.array(D.representatives))
    assert x is not None and y is not None
    assert generate(x, D.invariant_factors, m) and generate(y, H.invariant_factors, m)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_h2_coordinates_ignore_coboundaries(name):
    G = group(name)
    m = G.order
    H = h2_trivial_scalar(G, m)
    # dense representatives are not gauged; random combinations of them
    reps = np.array(dense(name, m).representatives)[..., 0]
    t = np.random.default_rng(1).integers(0, m, size=(6, len(reps)))
    f = np.concatenate([reps, np.einsum("kr,rgh->kgh", t, reps) % m])
    moved = (f + coboundary(G, random_cochains(G, len(f), m, 2), m)) % m
    x, y = H.coordinates(f[..., None]), H.coordinates(moved[..., None])
    assert x is not None and x.shape == (len(H.invariant_factors), len(f))
    assert np.array_equal(x, y)
    # a coboundary alone has coordinates 0
    assert not H.coordinates(coboundary(G, random_cochains(G, 4, m, 3), m)[..., None]).any()


@pytest.mark.parametrize("make", [lambda: dihedral_group(4), lambda: abelian_group([2, 4])],
                         ids=["D4", "Z2xZ4"])
def test_h2_coordinates_of_cocycles_that_are_not_normalized(make):
    # a cocycle has f(1, g) = f(g, 1) = f(1, 1), which need not be 0: the
    # constant table c is the coboundary of the constant cochain c
    G, m = make(), 4
    H = h2_trivial_scalar(G, m)
    reps = np.array(H.representatives)
    x = H.coordinates(reps)
    for c in range(1, m):
        const = np.full((G.order, G.order, 1), c, dtype=np.int64)
        assert not H.coordinates(const).any()
        assert np.array_equal(H.coordinates((reps + const) % m), x)
        # off the constant, a table is still no cocycle
        bad = const.copy()
        bad[1, 1] += 1
        assert cocycle2_defect(G, scalar_module(m), bad) is not None
        assert H.coordinates(bad) is None


@pytest.mark.parametrize("name", sorted(SMALL))
def test_gauge_kills_the_tree_edges(name):
    G = group(name)
    m = G.order
    space = reduced_cocycle_space(G, m)
    f = np.array(dense(name, m).representatives)[..., 0]
    cols = f[..., space.gens]
    gauged = (f + coboundary(G, space.gauge(cols), m)) % m
    atoms = gauged[:, 1:, space.gens].reshape(len(f), -1)
    assert not (tree_edge_rows(G, space.gens) @ atoms.T).any()
    # and the atoms are the gauged table's values off the tree
    assert np.array_equal(space.expand(space.atomize(cols).T), gauged)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_c1_rows_vanish_at_tree_edges(name):
    # the row (g, h, s) at a tree edge x = h s says f(g, x) = f(g, h) +
    # f(gh, s) - f(h, s), which is how f(g, x) is expanded: its relator is 1
    G = group(name)
    gens = G.minimal_generators()
    n, k = G.order, len(gens)
    rows = full_c1_rows(G, gens, G.order).reshape(k, n - 1, n - 1, -1)   # (s, g, h, atoms)
    edges = tree_edge_rows(G, gens).argmax(axis=1)                       # (h - 1) k + i
    h, i = edges // k + 1, edges % k
    assert not rows[i, :, h - 1].any()
    # production writes the other rows at g in S, |S| per Schreier atom
    space = reduced_cocycle_space(G, G.order)
    n_atoms = space.expr.shape[2]
    assert n_atoms == n * k - n + 1 == (n - 1) * k - len(edges)
    assert sum(len(batch) for batch in space.c1_batches()) == k * n_atoms


def gauge_pair(ext, b) -> EquivariantExtension:
    """(f + db, c + chi b - b o d): the same class."""
    gal, N = ext.gal, ext.gal.N
    c = ext.c + gal.chi_mod_n[:, None] * b - b[gal.action.table]
    return EquivariantExtension(gal, ext.f + coboundary(gal.G, b, N), c % N)


@pytest.mark.parametrize("datum", sorted(DATA))
def test_class_module_coordinates_ignore_coboundary_pairs(datum):
    gal = DATA[datum]()
    cm = class_module(gal)
    N, SD = gal.N, gal.delta.minimal_generators()
    t = np.random.default_rng(4).integers(0, N, size=(4, len(cm.invariant_factors)))
    exts = [EquivariantExtension(gal, f, c) for f, c in zip(cm.fs, cm.cs)] + [
        cm.element(x) for x in t]
    b = random_cochains(gal.G, len(exts), N, 5)
    moved = [gauge_pair(e, bb) for e, bb in zip(exts, b)]
    # the pairs moved at the generators of G and of Delta, f off the tree
    assert any((e.c[SD] != m.c[SD]).any() for e, m in zip(exts, moved))
    assert all(m.violated_law() is None for m in moved)
    x, y = cm.coordinates(exts), cm.coordinates(moved)
    assert x is not None and np.array_equal(x, y)
    assert np.array_equal(x[:, :len(cm.invariant_factors)],
                          np.eye(len(cm.invariant_factors), dtype=np.int64))
    # a coboundary pair alone has coordinates 0
    zero = EquivariantExtension(gal, np.zeros_like(exts[0].f), np.zeros_like(exts[0].c))
    assert not cm.coordinates([gauge_pair(zero, bb) for bb in b]).any()


@pytest.mark.parametrize("datum", sorted(DATA))
def test_class_module_representatives_are_gauged(datum):
    gal = DATA[datum]()
    cm = class_module(gal)
    G = gal.G
    fs = cm.fs
    assert not (cm._space.gauge(fs[..., cm._space.gens])).any()
    assert not (tree_edge_rows(G, G.minimal_generators())
                @ fs[:, 1:, G.minimal_generators()].reshape(len(fs), -1).T).any()
    assert cocycle2_defect(G, scalar_module(gal.N), fs[..., None]) is None


# (n|S| - n + 1) Schreier atoms + |S_Delta| |S| values c_e(s):
# Wang Z8 has n = 8, |S| = 1, |S_Delta| = 2; real D4 has n = 8, |S| = 2, |S_Delta| = 1
@pytest.mark.parametrize("datum, unknowns", [("Wang Z8", 1 + 2), ("real D4", 9 + 2)])
def test_class_module_cap_counts_the_solved_unknowns(datum, unknowns):
    gal = DATA[datum]()
    expect = class_module(gal).invariant_factors
    assert class_module(gal, Caps(class_module_unknowns=unknowns)).invariant_factors == expect
    with pytest.raises(CapExceeded) as err:
        class_module(gal, Caps(class_module_unknowns=unknowns - 1))
    assert (err.value.cap_name, err.value.measured) == ("class_module_unknowns", unknowns)


@pytest.mark.parametrize("name", ["D4", "Q8", "D4xZ2"])
def test_h2_cap_counts_the_schreier_atoms(name):
    # H^2 solves on its n|S| - n + 1 Schreier atoms alone, whatever the order
    G = GROUPS[name]()
    atoms = reduced_cocycle_space(G, 4).n_atoms
    assert atoms == G.order * len(G.minimal_generators()) - G.order + 1
    expect = h2_trivial_scalar(G, 4).invariant_factors
    assert h2_trivial_scalar(G, 4, Caps(class_module_unknowns=atoms)).invariant_factors == expect
    with pytest.raises(CapExceeded) as err:
        h2_trivial_scalar(G, 4, Caps(class_module_unknowns=atoms - 1))
    assert (err.value.cap_name, err.value.measured) == ("class_module_unknowns", atoms)
