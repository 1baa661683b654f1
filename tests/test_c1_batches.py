"""The C1 row batches of the reduced cocycle space against a per-block builder.

``ReducedCocycleSpace.c1_batches`` builds the rows of every first argument
g in S for one generator s in one gather from ``expr``, and groups whole
generators into batches of at most ``cohomology._C1_ROWS`` rows.  The
reference here builds one (g, s) block at a time, as the rows were first
written, and groups 16 blocks per batch.  The stacked rows must agree byte
for byte and in order, padding included; every ``bogomolov-scan`` group
type must reach ``RowEchelon`` in one batch, and (Z/2)^8 in batches no
larger than 16 blocks.
"""

import numpy as np
import pytest

import brnr.cohomology
from brnr.cohomology import reduced_cocycle_space
from brnr.engine import b0
from brnr.groups import abelian_group, alternating_group, dihedral_group, symmetric_group

from test_b0_count import SCAN, SCAN_TYPES
from test_engine import conjugation_datum, psi_datum


def per_block_batches(space, width=None, blocks=16):
    """The rows of each (g, s) block, s outer, ``blocks`` blocks per batch."""
    G, m, n_atoms = space.group, space.modulus, space.n_atoms
    width = n_atoms if width is None else width
    batch = []
    for i, s in enumerate(space.gens):
        h = np.flatnonzero(space.column[:, i] >= 0)
        hs = G.mul[h, s]
        for g in space.gens:
            rows = np.zeros((len(h), width), dtype=np.int64)
            rows[:, :n_atoms] = space.at(g, hs) - space.at(g, h)
            rows[np.arange(len(h)), space.column[h, i]] += 1
            gh = space.column[G.mul[g, h], i]
            ok = np.flatnonzero(gh >= 0)
            rows[ok, gh[ok]] -= 1
            batch.append(rows % m)
            if len(batch) == blocks:
                yield np.vstack(batch)
                batch = []
    if batch:
        yield np.vstack(batch)


def _same_rows(space, width=None):
    got = list(space.c1_batches(width))
    ref = np.vstack(list(per_block_batches(space, width)))
    stacked = np.vstack(got)
    assert all(b.dtype == np.int64 for b in got)
    assert stacked.shape == ref.shape
    assert stacked.tobytes() == ref.tobytes()
    return got


GROUPS = {**SCAN, "S4": lambda: symmetric_group(4), "A5": lambda: alternating_group(5)}


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_c1_batches_match_the_per_block_rows(name):
    G = GROUPS[name]()
    for m in sorted({2, 4, G.order}):
        space = reduced_cocycle_space(G, m)
        _same_rows(space)
        _same_rows(space, space.n_atoms + 5)        # zero padding on the right


@pytest.mark.parametrize("make", [lambda: psi_datum(3, 7),
                                  lambda: conjugation_datum(dihedral_group(4), 31)],
                         ids=["psi 3,7", "inner D4 chi=31"])
def test_c1_batches_of_the_class_module_match_the_per_block_rows(make):
    # Delta moves the generators, so the space builds expressions at their
    # images too, and the class module pads the rows to its c_e(s) unknowns
    gal = make()
    SD = gal.delta.minimal_generators()
    space = reduced_cocycle_space(gal.G, gal.N, autos=gal.action.table[SD])
    assert (space.slot < gal.G.order).sum() > len(space.gens)
    _same_rows(space, space.n_atoms + len(SD) * len(space.gens))


def test_every_scan_type_feeds_row_echelon_one_c1_batch(monkeypatch):
    batches = []

    class Spy(brnr.cohomology.RowEchelon):
        def add(self, batch):
            batches.append(len(batch))
            super().add(batch)

    monkeypatch.setattr(brnr.cohomology, "RowEchelon", Spy)
    for name in sorted(SCAN):
        batches.clear()
        assert b0(SCAN[name]()).invariant_factors == ()
        assert len(batches) == 1, (name, batches)
    assert len(SCAN) == 2 * len(SCAN_TYPES)


def test_c1_batches_of_z2_8_hold_at_most_16_blocks():
    # whole generators per batch: two of the eight, 16 of the 64 blocks,
    # the most that the per-block builder put in one batch
    space = reduced_cocycle_space(abelian_group([2] * 8), 2)
    k = len(space.gens)
    block = [(space.column[:, i] >= 0).sum() for i in range(k)]
    got = [len(b) for b in space.c1_batches()]
    ref = [len(b) for b in per_block_batches(space)]
    assert sum(got) == sum(ref) == k * space.n_atoms
    assert max(got) <= max(ref)
    assert got == [k * (block[i] + block[i + 1]) for i in range(0, k, 2)]
