"""Dense bar-resolution H^2, kept as an independent reference for the tests.

Every row of d2 : C^2 -> C^3 and every column of d1 is written out, so
the system has (n-1)^3 r rows over (n-1)^2 r unknowns: fine for groups of
order up to about 24, and independent of the generator-row reductions of
``brnr.cohomology``.  Any coefficient module is allowed.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from brnr.cohomology import (
    CohomologyGroup,
    _kernel_from_batches,
    _lattice_columns,
    _row_scales,
    cocycle2_defect,
)
from brnr.groups import AbelianModule, FiniteGroup
from brnr.reference import _coboundary_rows
from brnr.zmod import subquotient


def _d2_matrix_rows(G: FiniteGroup, M: AbelianModule):
    """Yield batches of scaled rows of d2 : C^2 -> C^3 (one batch per g)."""
    n, r, m = G.order, M.rank, M.exponent
    dim2 = (n - 1) * (n - 1) * r
    scales = np.tile(_row_scales(M), n - 1)

    def pcol(a: int, b: int, i: int) -> int:
        return ((a - 1) * (n - 1) + (b - 1)) * r + i

    for g in range(1, n):
        Ag = M.matrix(g)
        rows = np.zeros(((n - 1) * (n - 1) * r, dim2), dtype=np.int64)
        idx = 0
        for h in range(1, n):
            gh = int(G.mul[g, h])
            for k in range(1, n):
                blk = rows[idx : idx + r]
                blk[:, pcol(h, k, 0) : pcol(h, k, 0) + r] += Ag
                if gh != 0:
                    blk[np.arange(r), pcol(gh, k, np.arange(r))] -= 1
                hk = int(G.mul[h, k])
                if hk != 0:
                    blk[np.arange(r), pcol(g, hk, np.arange(r))] += 1
                blk[np.arange(r), pcol(g, h, np.arange(r))] -= 1
                idx += r
        yield rows * np.tile(scales, n - 1)[:, None] % m


def coboundary_rows_at(G: FiniteGroup, M: AbelianModule | int, second) -> np.ndarray:
    """The rows (g, h, i) of ``_coboundary_rows`` with h in ``second`` (no 1), g outer."""
    n, r = G.order, M.rank if isinstance(M, AbelianModule) else 1
    full = _coboundary_rows(G, M)
    full = full.reshape(n - 1, n - 1, r, full.shape[1])        # (g, h, coordinate, columns)
    rows = full[:, np.asarray(second, dtype=np.int64) - 1]
    return rows.reshape(np.prod(rows.shape[:-1]), full.shape[-1])


def coboundary1(G: FiniteGroup, M: AbelianModule, a: np.ndarray) -> np.ndarray:
    """d1 a as a full normalized 2-cochain table: g.a(h) - a(gh) + a(g)."""
    n = G.order
    a = M.reduce(np.asarray(a, dtype=np.int64))
    if M.action is not None:
        acted = np.stack([a @ M.matrix(g).T for g in range(n)])  # (g, h, r)
    else:
        acted = np.broadcast_to(a[None, :, :], (n, n, M.rank)).copy()
    out = acted - a[G.mul] + a[:, None, :]
    return M.reduce(out)


def dense_h2(G: FiniteGroup, M: AbelianModule) -> CohomologyGroup:
    """H^2(G, M) = Z^2/B^2 on normalized 2-cochains, every row of d2 kept."""
    n, r, m = G.order, M.rank, M.exponent
    dim2 = (n - 1) * (n - 1) * r
    W = _kernel_from_batches(_d2_matrix_rows(G, M), dim2, m)
    # columns of d1 are images of the basis 1-cochains
    cols = np.zeros((dim2, (n - 1) * r), dtype=np.int64)
    for g in range(1, n):
        for i in range(r):
            a = np.zeros((n, r), dtype=np.int64)
            a[g, i] = 1
            cols[:, (g - 1) * r + i] = coboundary1(G, M, a)[1:, 1:].reshape(-1)
    R = np.hstack([cols, _lattice_columns((n - 1) * (n - 1), M)])
    sub = subquotient(W, R)

    def tables(x: np.ndarray) -> np.ndarray:
        out = np.zeros((x.shape[1], n, n, r), dtype=np.int64)
        out[:, 1:, 1:] = (sub.generator_lifts @ x).T.reshape(-1, n - 1, n - 1, r)
        return M.reduce(out)

    def coords(tables: np.ndarray) -> Optional[np.ndarray]:
        if any(cocycle2_defect(G, M, t) is not None for t in tables):
            return None
        return sub.coordinates(M.reduce(tables)[:, 1:, 1:].reshape(len(tables), -1).T)

    return CohomologyGroup(G, M, 2, sub, tables, coords)
