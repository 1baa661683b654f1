"""Exact linear algebra over Z/m.

Everything downstream (cohomology, extension classes, the unramified
filters) reduces to a few primitives over Z/m: Smith normal form with
unimodular transforms, subquotients and ``preimage_rows`` (rows that
vanish exactly where V x lies in the column span of A, for a whole stack
of pairs (A, V) from row operations alone; ``span_rows`` is V = I).
Every group these give is one :class:`Subquotient` W/R with its
invariant factors, generator lifts and coordinates: ``kernel`` is the
case R = 0, ``cokernel`` the case W = (Z/m)^n, and ``subquotient``
divides any of them by a column span.
All of it is done directly mod m -- never over Z and then reduced.  The
Smith normal form, ``RowEchelon`` and ``preimage_rows`` each eliminate
mod every prime-power factor q = p^n of m and join the parts by CRT:
over Z/q the pivot of least valuation divides all that is left to
eliminate.  The Smith normal form finds it from one key per row, reads Q
and Q^-1 off the pivot rows of one row elimination of A, and P and P^-1
off its row operations.

Kernels are read off the reduced Howell form, which ``RowEchelon``
computes per prime power and joins by CRT.  A unit pivot solves its own
column in terms of the columns that carry no unit pivot, so only the
non-unit rows on those columns go through a Smith normal form, often a
small one or none (see ``kernel``).  The kernel keeps the rows of that
factorization that give coordinates in it, so ``subquotient`` of a
kernel and its ``coordinates`` need no second factorization; one SNF
remains, on the small relation matrix of the quotient.  The sweep takes
unit pivots in rounds, many columns at once: each round applies its
pivots with one Schur-complement product through the inverse of their
unit triangular block, and keeps every other row zero on their columns,
so only non-unit pivots are left to back-reduce.
Every modulus lies in [1, MAX_MODULUS], so each product is an exact
float64 matmul (see ``_matmul``).

Matrices are numpy int64 arrays with entries reduced into [0, m).
Column spans are "submodules generated by the columns".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, prod
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError

# The moduli the package accepts.  Two entries in [0, m) multiply exactly in
# int64, a float64 sum of fewer than 2^23 such products stays below 2^53, and
# chi mod N^2 multiplies in int64, as N^4 < 2^63.
MAX_MODULUS = 1 << 15


def as_mod(a, m: int) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    return np.mod(arr, m) if m > 1 else np.zeros_like(arr)


def unit_scale(a: int, m: int) -> tuple[int, int]:
    """Return (u, d) with u a unit mod m, d = gcd(a, m), and u*a = d mod m."""
    a = int(a) % m
    if a == 0:
        return 1, 0
    d = gcd(a, m)
    a1, m1 = a // d, m // d
    if m1 == 1:
        return 1, d
    u = pow(a1, -1, m1)
    # lift u to a unit mod m: u + t*m1 is coprime to m for some 0 <= t < d
    for t in range(d):
        cand = u + t * m1
        if gcd(cand, m) == 1:
            return cand % m, d
    raise AssertionError("unit lift must exist")  # unreachable


# ---------------------------------------------------------------------------
# Smith normal form
# ---------------------------------------------------------------------------


@dataclass
class SmithNormalForm:
    """P A Q = D over Z/m; P, P^-1, Q and Q^-1 are computed when first read.

    ``_parts`` holds (q, e_q, rows, cols, R, L, w) for each prime-power
    factor q of m, as :func:`smith_normal_form_raw` defines them.
    """

    modulus: int
    diag: np.ndarray        # canonical divisors of m (0 stands for the zero element)
    shape: tuple[int, int]
    _parts: list = field(repr=False)

    @cached_property
    def P(self) -> np.ndarray:
        """sum e_q diag(w) L^-1 S, L^-1 = diag(u) (L diag(u))^-1 for the 1/u_t on L's diagonal."""
        out = np.zeros((self.shape[0],) * 2, dtype=np.int64)
        for q, e, rows, _, _, L, w in self._parts:
            u = np.array([pow(int(x), -1, q) for x in np.diag(L)], dtype=np.int64)
            Linv = _unit_triangular_inverse((L * u % q).T, q).T * u[:, None] % q
            out[:, rows] += e * (Linv * w[:, None] % q)
        return out % self.modulus

    @cached_property
    def Q(self) -> np.ndarray:
        """sum e_q Pi R^-1, R^-1 = (I - e_0 r_0) ... (I - e_(k-1) r_(k-1)), r_s = R_s - e_s."""
        out = np.zeros((self.shape[1],) * 2, dtype=np.int64)
        for q, e, _, cols, R, _, _ in self._parts:
            X = np.eye(len(cols), dtype=np.int64)
            for s, row in enumerate(R):
                X[:s + 1, s + 1:] = (X[:s + 1, s + 1:] - X[:s + 1, s, None] * row[s + 1:]) % q
            out[cols] += e * X
        return out % self.modulus

    @cached_property
    def Qinv(self) -> np.ndarray:
        """sum e_q R Pi^T, R continued by the identity past its k rows."""
        out = np.zeros((self.shape[1],) * 2, dtype=np.int64)
        for _, e, _, cols, R, _, _ in self._parts:
            X = np.eye(len(cols), dtype=np.int64)
            X[:len(R)] = R
            out[:, cols] += e * X
        return out % self.modulus

    @cached_property
    def Pinv(self) -> np.ndarray:
        """sum e_q S^T L diag(w)^-1."""
        out = np.zeros((self.shape[0],) * 2, dtype=np.int64)
        for q, e, rows, _, _, L, w in self._parts:
            winv = np.array([pow(int(x), -1, q) for x in w], dtype=np.int64)
            out[rows] += e * (L * winv % q)
        return out % self.modulus


def _eliminate(A: np.ndarray, q: int):
    """Row-reduce A mod the prime power q: (d, rows, cols, R, L).

    d holds the pivots p^v (q past the rank), and L the 1/u_t and the
    multipliers f of each step (see :func:`smith_normal_form_raw`).
    ``keys[i]`` is the least gcd(a, q) in row i (gcd(0, q) = q).  Rows from
    t on are zero left of column t, so it is that of the block: built once,
    carried by row swaps and recomputed for the rows a clear rewrites.
    """
    r, c = A.shape
    W = A % q
    keys = np.gcd(W, q).min(axis=1, initial=q)
    rows, cols = np.arange(r), np.arange(c)
    d = np.full(r, q, dtype=np.int64)
    L = np.eye(r, dtype=np.int64)
    for t in range(min(r, c)):
        i = t + int(keys[t:].argmin())
        if keys[i] == q:
            break
        if i != t:
            W[[t, i]], keys[[t, i]], rows[[t, i]] = W[[i, t]], keys[[i, t]], rows[[i, t]]
            L[[t, i], :t] = L[[i, t], :t]
        j = t + int(np.gcd(W[t, t:], q).argmin())
        if j != t:
            W[:, [t, j]], cols[[t, j]] = W[:, [j, t]], cols[[j, t]]
        u, d[t] = unit_scale(int(W[t, t]), q)
        if u != 1:
            W[t] = W[t] * u % q
            L[t, t] = pow(u, -1, q)
        f = W[t + 1:, t] // d[t]
        below = t + 1 + f.nonzero()[0]
        if below.size:
            L[below, t] = f[below - t - 1]
            W[below, t:] = (W[below, t:] - L[below, t, None] * W[t, t:]) % q
            keys[below] = np.gcd(W[below, t:], q).min(axis=1)
    k = np.count_nonzero(d < q)
    return d, rows, cols, W[:k] // d[:k, None], L


def smith_normal_form_raw(A: np.ndarray, m: int) -> SmithNormalForm:
    """Diagonalize A over Z/m: P A Q = D with d_i | d_(i+1) as divisors of m.

    Each prime-power factor q = p^n of m row-reduces A mod q
    (``_eliminate``), and the parts are joined by CRT (Howell 1986;
    Storjohann-Mulders 1998):

    - Step t pivots on the least (gcd(a, q), row, column) over the nonzero
      a in the block of rows t.. and columns t.. of A, swapped to (t, t)
      and scaled by a unit u_t to d_t = p^v.  Over Z/q every entry is a
      unit times a power of p, so p^v divides the whole block: each row i
      below loses f_i = a_i / p^v times row t, which clears column t
      exactly, and the rows stay multiples of p^v.  So valuations do not
      decrease, and d_t | d_(t+1), with d_t = q (the zero element) past
      the rank k.
    - With S A = A[rows] and A Pi = A[:, cols] the swaps, the row
      operations P give P A Pi = U, zero past row k, and pivot row t is
      d_t R_t, R_t = U_t / d_t (exact, as p^v divides the row).  R,
      continued by the identity, is unit upper triangular, so D = P A Q
      for Q = Pi R^-1, and Q^-1 = R Pi^T.
    - A swap only moves rows that are not yet pivots, so P = E S, E the
      steps taken in the final row order.  The inverse of step t is the
      identity with column t replaced by 1/u_t on the diagonal and f
      below it, and these products collect column by column: E^-1 is the
      lower-triangular L of those entries, P^-1 = S^T L and P = L^-1 S.
      Later swaps carry the multipliers set so far, as in LU with partial
      pivoting.
    - For composite m the chain is d_t = prod_q d_(q,t) (0 when that is
      m): row t of P_q is scaled by the unit w_t = d_t / d_(q,t) mod q, so
      P_q A Q_q = D mod q, and the columns of P_q^-1 by 1/w_t.  A matrix
      is 0 mod m iff it is 0 mod every q, so P = sum e_q P_q,
      Q = sum e_q Q_q and their inverses (e_q = 1 mod q, 0 mod m/q) give
      P A Q = D mod m.  Each factor of the chain divides the next, so
      d_t | d_(t+1).
    """
    A = as_mod(A, m)
    r, c = A.shape
    chain, elims = np.ones(r, dtype=np.int64), []
    for q in _prime_powers(m):
        elims.append((q, *_eliminate(A, q)))
        chain *= elims[-1][1]
    parts = [(q, (m // q) * pow(m // q, -1, q) % m, rows, cols, R, L, chain // d % q)
             for q, d, rows, cols, R, L in elims]
    return SmithNormalForm(m, chain[:min(r, c)] % m, (r, c), parts)


# ---------------------------------------------------------------------------
# Howell form (span-preserving row reduction); kernels start from it
# ---------------------------------------------------------------------------


def _prime_powers(m: int) -> list[int]:
    """The prime-power factors of m, smallest prime first; m must lie in [1, MAX_MODULUS]."""
    if not 1 <= m <= MAX_MODULUS:
        raise ValidationError(f"modulus must be between 1 and {MAX_MODULUS}", witness=m)
    out, p = [], 2
    while p * p <= m:
        q = 1
        while m % p == 0:
            m //= p
            q *= p
        if q > 1:
            out.append(q)
        p += 1
    return out + [m] if m > 1 else out


def _leads(rows: np.ndarray) -> np.ndarray:
    """Column of the first nonzero entry of each row; the width for a zero row."""
    nz = np.hstack([rows != 0, np.ones((rows.shape[0], 1), dtype=bool)])
    return nz.argmax(axis=1)


_PANEL = 64     # rows, columns and terms per matmul block; pivots per sweep round


def _mod(x: np.ndarray, q: int) -> np.ndarray:
    """x mod q in place for int64 x, q > 0: a mask x & (q - 1) when q is a power of 2."""
    if q & (q - 1):
        return np.remainder(x, q, out=x)
    return np.bitwise_and(x, q - 1, out=x)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for entries in [0, MAX_MODULUS), exact in float64.

    Each product of entries is below 2^30, so a sum of fewer than 2^23 of
    them is exact.  Each matmul has at most 2^18 multiply-adds, which
    OpenBLAS runs on the calling thread: on a 2-core machine under outside
    load its threaded GEMM was slower than one thread.  A product that size
    or smaller is one matmul; a larger one is taken in blocks of at most
    _PANEL rows, columns and terms, which add up in float64.
    """
    assert a.shape[1] < 2 ** 23
    a, b = a.astype(np.float64), b.astype(np.float64)
    if a.shape[0] * a.shape[1] * b.shape[1] <= _PANEL ** 3:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]))
    for i in range(0, a.shape[0], _PANEL):
        for j in range(0, b.shape[1], _PANEL):
            block = 0
            for k in range(0, a.shape[1], _PANEL):
                block = block + a[i:i + _PANEL, k:k + _PANEL] @ b[k:k + _PANEL, j:j + _PANEL]
            out[i:i + _PANEL, j:j + _PANEL] = block
    return out


def _product(a: np.ndarray, b: np.ndarray, q: int) -> np.ndarray:
    """a @ b mod q, as int64 in [0, q), for q <= MAX_MODULUS: one reduction of the exact product."""
    return _mod(_matmul(a, b).astype(np.int64), q)


def _unit_triangular_inverse(T: np.ndarray, q: int) -> np.ndarray:
    """T^-1 mod q for a unit upper-triangular T (entries in [0, q)).

    With T = I - N, N strictly upper triangular and so nilpotent,
    T^-1 = (I + N)(I + N^2)(I + N^4)...: log-doubling, which stops at the
    first zero power, after few squarings when the pivots of T hardly
    depend on each other.  Past _PANEL rows, T = [[A, B], [0, C]] inverts
    as [[A^-1, -A^-1 B C^-1], [0, C^-1]], so no squaring is wider.
    """
    k = len(T)
    if k > _PANEL:
        h = k // 2
        X = np.zeros_like(T)
        X[:h, :h] = A = _unit_triangular_inverse(T[:h, :h], q)
        X[h:, h:] = C = _unit_triangular_inverse(T[h:, h:], q)
        X[:h, h:] = -_product(_product(A, T[:h, h:], q), C, q) % q
        return X
    N = -T % q
    np.fill_diagonal(N, 0)
    X = N + np.eye(k, dtype=np.int64)
    while N.any() and (N := _product(N, N, q)).any():
        X = (X + _product(X, N, q)) % q
    return X


def _solved(P: np.ndarray, cols, q: int) -> np.ndarray:
    """T^-1 P for pivot rows P led by 1 at the increasing columns ``cols``.

    T = P[:, cols] is unit upper triangular, so T^-1 P has P's row span
    and the identity on ``cols``.
    """
    T = P[:, cols]
    if np.count_nonzero(T) == len(T):
        return P
    G = np.zeros_like(P)
    span = np.flatnonzero(P.any(axis=0))
    G[:, span] = _product(_unit_triangular_inverse(T, q), P[:, span], q)
    return G


def _clear(X: np.ndarray, G: np.ndarray, cols, q: int) -> None:
    """X -= X[:, cols] G mod q in place, which zeroes X on ``cols`` (G from :func:`_solved`).

    Only the rows of X that are nonzero on ``cols`` change, and of them
    only the columns where G is nonzero.  When those columns cover at least
    half the width, the whole rows are updated, with no column gather;
    otherwise only that block, so a wide, sparse system does not multiply
    its zero columns.  The exact float64 product is subtracted and the
    difference reduced once: no entry leaves [-2^53, 2^53].  The rows go
    _PANEL * 4 at a time, which bounds the memory of the update.
    """
    hit = np.flatnonzero(X[:, cols].any(axis=1))
    if hit.size:
        span = np.flatnonzero(G.any(axis=0))
        whole = 2 * len(span) >= X.shape[1]
        if not whole:
            G = G[:, span]
        for i in range(0, len(hit), _PANEL * 4):
            rows = hit[i:i + _PANEL * 4]
            at = rows if whole else np.ix_(rows, span)
            P = _matmul(X[np.ix_(rows, cols)], G)
            Y = X[at]
            np.subtract(Y, P, out=Y, casting="unsafe")
            X[at] = _mod(Y, q)


def _sweep(batch: np.ndarray, q: int, pivots: dict[int, np.ndarray]) -> None:
    """Eliminate the rows of ``batch`` mod q (a prime power) into ``pivots``.

    The rows are reduced mod q in a copy, which the sweep alone holds, and
    their zero rows dropped as it goes.

    Every stored pivot and every pending row is kept zero on every unit
    pivot column but its own.  So the stored unit pivots are already
    solved against each other (T = I in :func:`_solved`), the rows first
    lose their parts on them (:func:`_clear`), and then no pending row
    leads at a unit pivot: the pivot of least valuation at each column is
    found among the rows led there.

    - While some pending row has a unit lead, a round makes the first such
      row at each of the (at most _PANEL) least distinct lead columns a
      pivot, scaled to lead 1 and solved against the others
      (:func:`_solved`); a non-unit pivot it displaces from its column is
      pending again.  Every pending row (the new pivots' own rows vanish)
      and every stored pivot is then cleared on the round's columns by one
      Schur-complement product.  A row uses only pivots led at or right of
      its own lead, so leads only move right.  The cap keeps a round to the
      rows led near its columns: uncapped, the first round of a large
      sparse system (6,148 x 1,537, an H^2 system mod 8) took hundreds of
      pivots and updated every pending row with all of them.
    - Otherwise one Howell step runs at the least lead c: the row of least
      valuation, or the stored pivot if none is smaller, becomes the pivot
      p^v, which divides every pending entry at c, and exact division
      clears them.  A displaced pivot is pending again, and the
      annihilator row (q/p^v) * pivot is pushed into the pending rows.
    """
    rows = _mod(batch.copy(), q)
    units = [c for c in pivots if pivots[c][c] == 1]
    if units:
        _clear(rows, np.array([pivots[c] for c in units]), units, q)
    while True:
        nz = rows != 0
        lead = nz.argmax(axis=1)
        live = nz[np.arange(len(rows)), lead]
        if not live.all():
            rows, lead = rows[live], lead[live]
        if not len(rows):
            return
        vals = np.gcd(rows[np.arange(len(rows)), lead], q)
        unit = np.flatnonzero(vals == 1)
        if unit.size:
            cols, first = np.unique(lead[unit], return_index=True)
            cols, new = cols[:_PANEL], unit[first[:_PANEL]]
            inv = np.array([pow(int(x), -1, q) for x in rows[new, cols]], dtype=np.int64)
            G = _solved(rows[new] * inv[:, None] % q, cols, q)
            cols = cols.tolist()
            back = [pivots.pop(c) for c in cols if c in pivots]
            if back:
                rows = np.vstack([rows, *back])
            _clear(rows, G, cols, q)
            if pivots:
                X = np.array(list(pivots.values()))
                _clear(X, G, cols, q)
                pivots.update(zip(list(pivots), X))
            pivots.update(zip(cols, G))
            continue
        c = int(lead.min())
        at = np.flatnonzero(lead == c)
        k = int(np.argmin(vals[at]))
        piv = pivots.get(c)
        if piv is None or vals[at[k]] < piv[c]:
            i = at[k]
            u, d = unit_scale(int(rows[i, c]), q)
            new = rows[i] * u % q
            ann = (q // d) * new % q
            if piv is None:
                rows[i] = ann           # vanishes at c, so the step leaves it as it is
            else:
                rows[i] = piv
                rows = np.vstack([rows, ann])
            pivots[c] = piv = new
        rows[at] = (rows[at] - (rows[at, c] // piv[c])[:, None] * piv) % q


class RowEchelon:
    """Span-preserving row reduction over Z/m, kept in Howell form.

    Feed row batches with :meth:`add`; :meth:`matrix` returns the reduced
    Howell form of everything fed in, which depends only on its row span.
    Rows are eliminated once per prime-power factor q of m (Howell 1986;
    Storjohann 2000): over Z/q the least-valuation pivot divides its whole
    column, so pivots never merge, and pushing each pivot's annihilator
    multiple back into the pending rows gives the Howell property.  Pivot
    rows are stored only for the columns that have one.  The sweep takes
    unit pivots in rounds, each applied with one Schur-complement product
    (Storjohann-Mulders 1998), and keeps every row zero on the other
    unit pivot columns; the form is canonical, so it is the one that
    per-column elimination gives.
    """

    def __init__(self, ncols: int, m: int):
        self.ncols = ncols
        self.m = m
        self._pivots: dict[int, dict[int, np.ndarray]] = {q: {} for q in _prime_powers(m)}

    def add(self, batch: np.ndarray) -> None:
        batch = np.asarray(batch, dtype=np.int64)
        if batch.any():
            for q, pivots in self._pivots.items():
                _sweep(batch, q, pivots)

    def matrix(self) -> np.ndarray:
        """Join the per-prime pivots of each column by CRT, then back-reduce.

        Each pivot is scaled to its canonical associate gcd(v, m).  A column
        that is a unit pivot mod m is one mod every q, so the sweeps left
        every other row zero on it.  A non-unit pivot v reduces every row
        above it, pivot by pivot, subtracting floor(r / v) times its row
        from an entry r in its column.  That row is zero on the unit pivot
        columns too, so they stay cleared.
        """
        m = self.m
        cols = np.array(sorted(set().union(*self._pivots.values())), dtype=np.int64)
        rows = np.zeros((len(cols), self.ncols), dtype=np.int64)
        for q, pivots in self._pivots.items():
            if pivots:
                e = (m // q) * pow(m // q, -1, q) % m       # 1 mod q, 0 mod m/q
                rows[np.searchsorted(cols, list(pivots))] += e * np.array(list(pivots.values()))
        rows %= m
        for k in np.flatnonzero(rows[np.arange(len(cols)), cols] != 1):
            c = cols[k]
            u, _ = unit_scale(int(rows[k, c]), m)
            rows[k] = rows[k] * u % m
            qs = rows[:k, c] // rows[k, c]
            idx = np.flatnonzero(qs)
            if idx.size:
                rows[idx, c:] = (rows[idx, c:] - qs[idx, None] * rows[k, c:]) % m
        return rows


def echelon_compress(A: np.ndarray, m: int) -> np.ndarray:
    """The reduced Howell form of A: at most cols rows with A's row span."""
    A = np.asarray(A, dtype=np.int64)
    ech = RowEchelon(A.shape[1], m)
    ech.add(A)
    return ech.matrix()


def _howell_residue(E: np.ndarray, X: np.ndarray, m: int) -> np.ndarray:
    """The rows of X (..., n) reduced against a reduced Howell form E: zero exactly on rowspan(E).

    Each row loses floor(x_c / e) of each pivot row (column c, entry e | m).
    For x in the span that is its own multiple up to (m / e) pivot rows,
    which vanish up to c: by the Howell property, the later rows span them.
    """
    X = as_mod(X, m)
    for row, c in zip(E, _leads(E)):
        X = (X - (X[..., c] // row[c])[..., None] * row) % m
    return X


# ---------------------------------------------------------------------------
# subquotients and span rows
# ---------------------------------------------------------------------------


@dataclass
class Subquotient:
    """A finite abelian group W/R for submodules R <= W of (Z/m)^n.

    W/R is the product of the Z/invariant_factors[j], and the columns of
    ``generator_lifts`` are members of W that map to its unit vectors.
    ``coordinates`` maps a member of W to its coordinates (each mod its
    factor), a matrix column by column, and gives None if any column is
    outside W.  A kernel is the case R = 0 (:func:`kernel`), a cokernel
    the case W = (Z/m)^n (:func:`cokernel`).
    """

    modulus: int
    invariant_factors: tuple[int, ...]
    generator_lifts: np.ndarray         # n x r
    _coords: Callable[[np.ndarray], Optional[np.ndarray]] = field(repr=False)

    def coordinates(self, vec: np.ndarray) -> Optional[np.ndarray]:
        return self._coords(as_mod(vec, self.modulus))

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)


def kernel(A: np.ndarray | RowEchelon, m: int) -> Subquotient:
    """{x : A x = 0 mod m} for A (rows x cols), or for the rows fed to a RowEchelon.

    A has the kernel of its reduced Howell form E.  In E each unit pivot is
    1 and the only nonzero entry of its column (the back-reduction clears
    above it, the echelon shape below), and the other rows vanish on the
    unit pivot columns P.  So E x = 0 exactly when
    x_P = -E[unit rows, rest] x_rest and E' x_rest = 0, for
    E' = E[non-unit rows, rest] and ``rest`` the columns outside P.  Only
    E' is put in Smith normal form, P' E' Q' = D: ker E' is generated by
    the columns (m/g_j) Q'_j of order g_j = gcd(d_j, m) > 1, and each
    generator gets its x_P from the unit rows.  With no non-unit rows
    Q' = I and every rest column is free; with no rows at all there is no
    elimination.

    The coordinates t of a member x (``generator_lifts`` t = x) are read
    off the same factorization: Q'^-1 x_rest is (m/g_j) t_j in coordinate
    j.  Off the kernel that division is meaningless, so the result is
    checked.
    """
    E = A.matrix() if isinstance(A, RowEchelon) else echelon_compress(A, m)
    n = E.shape[1]
    lead = _leads(E)
    unit = E[np.arange(len(E)), lead] == 1
    free = np.ones(n, dtype=bool)
    free[lead[unit]] = False
    rest = np.flatnonzero(free)
    g = np.full(len(rest), m, dtype=np.int64)
    Q = Qinv = np.eye(len(rest), dtype=np.int64)
    if not unit.all():
        snf = smith_normal_form_raw(E[~unit][:, rest], m)
        Q, Qinv = snf.Q, snf.Qinv
        g[:len(snf.diag)] = np.gcd(snf.diag, m)
    keep = np.flatnonzero(g > 1)
    g, inv = g[keep], Qinv[keep]
    gens = np.zeros((n, len(keep)), dtype=np.int64)
    gens[rest] = Q[:, keep] * (m // g) % m
    gens[lead[unit]] = -E[unit][:, rest] @ gens[rest] % m

    def coords(vec: np.ndarray) -> Optional[np.ndarray]:
        x = (inv @ vec[rest] % m) // (m // g.reshape((-1,) + (1,) * (vec.ndim - 1)))
        return None if ((gens @ x - vec) % m).any() else x

    return Subquotient(m, tuple(int(d) for d in g), gens, coords)


def preimage_rows(A: np.ndarray, V: np.ndarray, m: int) -> np.ndarray:
    """Rows S (b, r, n) with S[k] x = 0 mod m exactly when V[k] x lies in colspan(A[k]).

    A (b, r, c) and V (b, r, n) are stacks of b pairs of maps into
    (Z/m)^r, and the rows of S[k] cut out the preimage under V[k] of the
    column span of A[k].  A zero row of both A and V adds the row 0, so
    members of unequal height may be padded to one.  Each prime-power
    factor q = p^k of m eliminates [A | V] mod q by row operations alone,
    all b members per numpy step (Howell 1986; Storjohann-Mulders 1998):

    - Step t takes the entry a_t of least gcd(a, q) = p^v in the block of
      rows t.. and columns t.. of A and swaps it to (t, t); a column swap
      keeps the span.  Rows t.. are zero left of column t, and over Z/q
      every entry is a unit times a power of p, so p^v divides every entry
      of those rows.  Each row i > t is scaled by the unit a_t / p^v and
      loses a_i / p^v times row t, which clears column t below row t.  The
      rows stay multiples of p^v, so pivot valuations do not decrease.
    - The row operations are an invertible P.  Column operations taken
      left to right, column j > t losing (P A)_tj / p^v times column t,
      clear pivot row t right of its pivot and touch no other row: column
      t is zero below row t by the row clear and above it by the earlier
      column operations.  So P A Q = D is diagonal, d_t = a_t up to the
      rank and 0 past it, and colspan(P A) = colspan(P A Q) = sum d_t e_t.
    - Hence V x lies in colspan(A) iff each (P V x)_t lies in d_t Z/q,
      iff (q / gcd(d_t, q)) (P V x)_t = 0 mod q, with d_t = 0 past the
      rank (scale 1).  A unit pivot gives a zero row.

    The rows S_q of the prime powers are joined by the CRT idempotents
    e_q (1 mod q, 0 mod m/q): y = 0 mod m iff y = 0 mod every q, and
    colspan(A) mod m is the product of its reductions mod q, so
    S = sum e_q S_q mod m.
    """
    A, V = as_mod(A, m), as_mod(V, m)
    b, r, c = A.shape
    S = np.zeros(V.shape, dtype=np.int64)
    at = np.arange(b)
    for q in _prime_powers(m):
        W = np.concatenate([A % q, V % q], axis=2)
        d = np.full((b, r), q, dtype=np.int64)          # gcd(d_t, q); q past the rank
        for t in range(min(r, c) if b else 0):
            g = np.gcd(W[:, t:, t:c], q).reshape(b, (r - t) * (c - t))
            k = g.argmin(axis=1)
            g = g[at, k]
            d[:, t] = g
            if (g == q).all():
                break
            i, j = t + k // (c - t), t + k % (c - t)
            W[at, t], W[at, i] = W[at, i], W[at, t]
            W[at, :, t], W[at, :, j] = W[at, :, j], W[at, :, t]
            s = W[:, t, t] // g
            s[s == 0] = 1                               # no pivot left: keep the rows
            e = W[:, t + 1:, t] // g[:, None]
            W[:, t + 1:, t:] = (s[:, None, None] * W[:, t + 1:, t:]
                                - e[..., None] * W[:, t, None, t:]) % q
        e_q = (m // q) * pow(m // q, -1, q) % m
        S += e_q * ((q // d)[..., None] * W[..., c:] % q)
    return S % m


def span_rows(A: np.ndarray, m: int) -> np.ndarray:
    """Rows R with R x = 0 mod m exactly when x lies in colspan(A).

    The preimage of colspan(A) under the identity (:func:`preimage_rows`),
    without the zero rows that unit pivots leave.
    """
    A = np.asarray(A, dtype=np.int64)
    R = preimage_rows(A[None], np.eye(len(A), dtype=np.int64)[None], m)[0]
    return R[R.any(axis=1)]


def subquotient(W: Subquotient, R: np.ndarray) -> Subquotient:
    """W / colspan(R) for a Subquotient W; R must lie inside W.

    In W's coordinates the quotient is Z^k modulo the coordinates T of R
    and the relations f_j e_j of W's factors, so one Smith normal form
    P [T | relations] Q = D gives it: the kept diagonal positions are the
    invariant factors gcd(d, m) > 1, the rows P[keep] map W's coordinates
    to the quotient's, and W's lifts times the columns P^-1[:, keep] lift
    its generators.  A column span A is ``kernel(span_rows(A, m), m)``.
    """
    T = W.coordinates(R)
    if T is None:
        raise ValueError("R is not contained in the span of W")
    if not W.invariant_factors:
        return W
    m = W.modulus
    f = np.array(W.invariant_factors, dtype=np.int64)
    snf = smith_normal_form_raw(np.hstack([T, np.diag(f)[:, f < m]]), m)   # order m: no relation
    d = np.zeros(len(f), dtype=np.int64)
    d[:len(snf.diag)] = snf.diag
    g = np.gcd(d, m)                            # gcd(0, m) = m: a free Z/m
    keep = np.flatnonzero(g > 1)
    g, P = g[keep], snf.P[keep]

    def coords(vec: np.ndarray) -> Optional[np.ndarray]:
        x = W._coords(vec)
        return None if x is None else P @ x % m % g.reshape((-1,) + (1,) * (x.ndim - 1))

    return Subquotient(m, tuple(int(x) for x in g), W.generator_lifts @ snf.Pinv[:, keep] % m,
                       coords)


def cokernel(A: np.ndarray, m: int) -> Subquotient:
    """(Z/m)^r / colspan(A) for A (r x c): a subquotient of the whole space."""
    A = np.asarray(A, dtype=np.int64)
    return subquotient(kernel(np.zeros((0, A.shape[0]), dtype=np.int64), m), A)
