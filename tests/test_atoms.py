"""Degree-2 classes on their Schreier atoms, against the table references.

``cohomology.kummer_columns`` writes the gauged Bockstein of a character on
the unknowns of the solve (atoms, then c_e(s) under a Galois twist), and
``cohomology.commuting_pair_rows`` reads f(x, y) - f(y, x) as path sums of
the atoms.  Both are compared with the tables they replace: the gauged
unknowns and class coordinates of ``reference.bockstein`` pairs, and the
rows of ``reference.commuting_pair_rows_of_tables``.  Untwisted on the
groups of ``test_b0_count``; twisted on real-like, swap, trivial-action
twist, cyclotomic, psi, outer and conjugation data, where every term of
the formula is nonzero somewhere.
"""

import numpy as np
import pytest

from brnr.cohomology import (
    character_group_generators,
    commuting_pair_rows,
    h2,
    kummer_columns,
    scalar_module,
)
from brnr.extensions import class_module
from brnr.groups import abelian_group, dihedral_group, quaternion_group, symmetric_group
from brnr.reference import bockstein, commuting_pair_rows_of_tables

from test_b0_count import DATA
from test_engine import (
    conjugation_datum,
    cyclotomic_datum,
    psi_datum,
    real_datum,
    swap_datum,
    twist_datum,
)
from test_localeval import d4_outer_datum, swap_datum as swap_datum_chi

GALOIS = {
    "real Z4": lambda: real_datum(abelian_group([4])),
    "real Z2xZ4": lambda: real_datum(abelian_group([2, 4])),
    "real D4": lambda: real_datum(dihedral_group(4)),
    "real Q8": lambda: real_datum(quaternion_group()),
    "real Z3xZ3": lambda: real_datum(abelian_group([3, 3])),
    "swap Z2xZ2 chi=15": swap_datum,
    "swap Z2xZ2 chi=1": lambda: swap_datum_chi(1),
    "swap Z2xZ2 chi=7": lambda: swap_datum_chi(7),
    "twist Z2xZ4 chi=31": lambda: twist_datum(abelian_group([2, 4]), 31),
    "twist S3 chi=17": lambda: twist_datum(symmetric_group(3), 17),
    "cyclotomic Z8": lambda: cyclotomic_datum([8], 8),
    "cyclotomic Z2xZ4": lambda: cyclotomic_datum([2, 4], 4),
    "psi 3,3": lambda: psi_datum(3, 3),
    "psi 3,7": lambda: psi_datum(3, 7),
    "outer D4": d4_outer_datum,
    "inner D4 chi=31": lambda: conjugation_datum(dihedral_group(4), 31),
}


def bockstein_tables(G, N, phis, gal=None):
    """The stacks (fs, cs) of the reference Bockstein pairs."""
    n, nd = G.order, 1 if gal is None else gal.delta.order
    twist = () if gal is None else (gal.delta, gal.chi, gal.action.table)
    pairs = [bockstein(G, phi, N, *twist) for phi in phis]
    fs = np.array([f for f, _ in pairs], dtype=np.int64).reshape(-1, n, n)
    cs = np.array([c for _, c in pairs], dtype=np.int64).reshape(-1, nd, n)
    return fs, cs


@pytest.mark.parametrize("name", sorted(DATA))
def test_kummer_columns_are_the_gauged_bockstein_tables(name):
    G = DATA[name]()
    N = G.order
    H = h2(G, scalar_module(N))
    space = H.space
    phis = character_group_generators(G, N)
    fs, _ = bockstein_tables(G, N, phis)
    cols = kummer_columns(space, phis)
    assert cols.shape == (space.n_atoms, len(phis))
    np.testing.assert_array_equal(cols, space.atomize(fs[..., space.gens]).T)
    np.testing.assert_array_equal(H.sub.coordinates(cols), H.coordinates(fs[..., None]))


@pytest.mark.parametrize("name", sorted(GALOIS))
def test_twisted_kummer_columns_are_the_gauged_bockstein_pairs(name):
    gal = GALOIS[name]()
    G, N, act = gal.G, gal.N, gal.action.table
    cm = class_module(gal)
    space, S = cm._space, cm._space.gens
    SD = gal.delta.minimal_generators()
    phis = character_group_generators(G, N, equivariance=(gal.chi, act))
    fs, cs = bockstein_tables(G, N, phis, gal)
    # the unknowns of the gauged pair: the atoms, then c_e(s) - b(e.s)
    b = space.gauge(fs[..., S])
    c = (cs[:, SD][:, :, S] - b[:, act[SD][:, S]]) % N
    ref = np.hstack([space.atomize(fs[..., S]), c.reshape(len(phis), len(SD) * len(S))]).T
    cols = kummer_columns(space, phis, (gal.chi[SD], act[SD]))
    np.testing.assert_array_equal(cols, ref)
    np.testing.assert_array_equal(cm._sub.coordinates(cols), cm.coordinates(fs, cs))


@pytest.mark.parametrize("name", sorted(DATA))
def test_path_sum_rows_are_the_table_rows(name):
    G = DATA[name]()
    N = G.order
    H = h2(G, scalar_module(N))
    if not H.invariant_factors:
        return
    pairs, rows = commuting_pair_rows(H.space, H.sub.generator_lifts)
    ref_pairs, ref = commuting_pair_rows_of_tables(
        G, [rep[:, :, 0] for rep in H.representatives], N)
    assert pairs == ref_pairs
    np.testing.assert_array_equal(rows, ref)


@pytest.mark.parametrize("name", sorted(GALOIS))
def test_path_sum_rows_of_the_class_module_are_the_table_rows(name):
    cm = class_module(GALOIS[name]())
    atoms = cm._sub.generator_lifts[:cm._space.n_atoms]
    pairs, rows = commuting_pair_rows(cm._space, atoms)
    ref_pairs, ref = commuting_pair_rows_of_tables(cm.gal.G, cm.fs, cm.gal.N)
    assert pairs == ref_pairs
    np.testing.assert_array_equal(rows, ref)
