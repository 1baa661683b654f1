"""Exact linear algebra over Z/m.

Everything downstream (cohomology, extension classes, the unramified
filters) reduces to a few primitives over Z/m: Smith normal form with
unimodular transforms, kernels, cokernel structure and ``preimage_rows``
(rows that vanish exactly where V x lies in the column span of A, for a
whole stack of pairs (A, V) from row operations alone; ``span_rows`` is
V = I), with ``solve`` for witnesses.
All of it is done directly mod m -- never over Z and then reduced.  The
Smith normal form, ``RowEchelon`` and ``preimage_rows`` each eliminate
mod every prime-power factor q = p^n of m and join the parts by CRT:
over Z/q the pivot of least valuation divides all that is left to
eliminate.  The Smith normal form finds it from one key per row and reads
its transforms off one row elimination of [A | I].

Kernels are read off the reduced Howell form, which ``RowEchelon``
computes per prime power: one column sweep for each prime-power factor of
m, joined by CRT.  A unit pivot solves its own column in terms of the
columns that carry no unit pivot, so only the non-unit rows on those
columns go through a Smith normal form, often a small one or none (see
``kernel``).  The resulting ``Kernel`` keeps the rows of that
factorization that give coordinates in it, so ``subquotient`` of a kernel
and its ``coordinates`` need no second factorization; one SNF remains, on
the small relation matrix of the quotient.  The sweep and the
back-reduction run in panels of columns (pivots): inside a panel only its
own columns are kept current, and the columns right of it get the panel's
updates at its end from one exact matmul, float64 while the sums stay
below 2^53 and int64 below 2^63, with a narrower panel where even that
would overflow (see ``_panel``).

Matrices are numpy int64 arrays with entries reduced into [0, m).
Column spans are "submodules generated by the columns".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from math import gcd, prod
from typing import Optional

import numpy as np


def as_mod(a, m: int) -> np.ndarray:
    arr = np.asarray(a, dtype=np.int64)
    return np.mod(arr, m) if m > 1 else np.zeros_like(arr)


def gcd_with_modulus(x: int, m: int) -> int:
    """gcd(x, m), with 0 mapped to m (the annihilator of the zero element)."""
    return gcd(int(x) % m, m) or m


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
    """P A Q = D over Z/m; Q, Q^-1 and P^-1 are computed when first read.

    ``_parts`` holds (q, e_q, rows, cols, R, L, w) for each prime-power
    factor q of m, as :func:`smith_normal_form_raw` defines them.
    """

    modulus: int
    diag: np.ndarray        # canonical divisors of m (0 stands for the zero element)
    P: np.ndarray
    shape: tuple[int, int]
    _parts: list = field(repr=False)

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
    """Row-reduce [A | I] mod the prime power q: (d, rows, cols, R, L, P).

    d holds the pivots p^v (q past the rank), and L the 1/u_t and the
    multipliers f of each step (see :func:`smith_normal_form_raw`).
    ``keys[i]`` is the least gcd(a, q) in row i of A (gcd(0, q) = q).  Rows
    from t on are zero left of column t, so it is that of the block: built
    once, carried by row swaps and recomputed for the rows a clear rewrites.
    """
    r, c = A.shape
    W = np.hstack([A % q, np.eye(r, dtype=np.int64)])
    keys = np.gcd(W[:, :c], q).min(axis=1, initial=q)
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
        j = t + int(np.gcd(W[t, t:c], q).argmin())
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
            keys[below] = np.gcd(W[below, t:c], q).min(axis=1)
    k = np.count_nonzero(d < q)
    return d, rows, cols, W[:k, :c] // d[:k, None], L, W[:, c:]


def smith_normal_form_raw(A: np.ndarray, m: int) -> SmithNormalForm:
    """Diagonalize A over Z/m: P A Q = D with d_i | d_(i+1) as divisors of m.

    Each prime-power factor q = p^n of m row-reduces [A | I] mod q
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
      lower-triangular L of those entries, and P^-1 = S^T L.  Later swaps
      carry the multipliers set so far, as in LU with partial pivoting.
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
    P, parts = np.zeros((r, r), dtype=np.int64), []
    for q, d, rows, cols, R, L, Pq in elims:
        e = (m // q) * pow(m // q, -1, q) % m
        w = chain // d % q
        P += e * (Pq * w[:, None] % q)
        parts.append((q, e, rows, cols, R, L, w))
    return SmithNormalForm(m, chain[:min(r, c)] % m, P % m, (r, c), parts)


# ---------------------------------------------------------------------------
# Howell form (span-preserving row reduction); kernels start from it
# ---------------------------------------------------------------------------


def _prime_powers(m: int) -> list[int]:
    """The prime-power factors of m, smallest prime first."""
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


_PANEL = 64     # columns per panel, pivots per back-reduction run, rows and columns per matmul


def _panel(q: int) -> tuple[int, type]:
    """Panel width w and matmul dtype for sums of w products of entries in [0, q).

    float64 GEMM is exact while w (q-1)^2 < 2^53.  Past that, int64 ``@`` is
    exact while w (q-1)^2 < 2^63, and w shrinks until it is, down to 1: the
    per-column update, exact for every q with q^2 < 2^63.
    """
    sq = (q - 1) ** 2
    if _PANEL * sq < 2 ** 53:
        return _PANEL, np.float64
    return max(1, min(_PANEL, (2 ** 63 - 1) // sq)), np.int64


def _product(a: np.ndarray, b: np.ndarray, dtype) -> np.ndarray:
    """a @ b in ``dtype``, exact for b.shape[0] terms when :func:`_panel` chose it.

    The product is taken in blocks of at most _PANEL rows and columns, so
    each matmul (with b.shape[0] <= _PANEL) has at most 2^18 multiply-adds
    and OpenBLAS runs it on the calling thread: on a 2-core machine under
    outside load its threaded GEMM was slower than one thread.
    """
    a, b = a.astype(dtype, copy=False), b.astype(dtype, copy=False)
    out = np.empty((a.shape[0], b.shape[1]), dtype=dtype)
    for i in range(0, a.shape[0], _PANEL):
        for j in range(0, b.shape[1], _PANEL):
            np.matmul(a[i:i + _PANEL], b[:, j:j + _PANEL], out=out[i:i + _PANEL, j:j + _PANEL])
    return out


def _sub_product(rows, idx, start: int, coef, pivs, q: int, dtype) -> np.ndarray:
    """rows[idx, start:] -= coef @ pivs[:, start:] mod q, _PANEL columns at a time.

    A block where every pivot row is zero is left as it is (block-diagonal
    batches have many), but it is still scanned for leads.  Returns the
    column of each updated row's first nonzero entry from ``start`` on (the
    width for none).
    """
    n = rows.shape[1]
    lead = np.full(coef.shape[0], n, dtype=np.int64)
    coef = coef.astype(dtype, copy=False)
    for s in range(start, n, _PANEL):
        e = min(n, s + _PANEL)
        block = rows[idx, s:e]
        if pivs[:, s:e].any():
            np.subtract(block, _product(coef, pivs[:, s:e], dtype), out=block, casting="unsafe")
            rows[idx, s:e] = np.mod(block, q, out=block)
        nz = block != 0
        first = (lead == n) & nz.any(axis=1)
        lead[first] = s + nz[first].argmax(axis=1)
    return lead


def _sweep(rows: np.ndarray, q: int, pivots: dict[int, np.ndarray]) -> np.ndarray:
    """Eliminate rows (entries in [0, q), q a prime power) into ``pivots``.

    Columns are taken left to right.  At column c the row of least valuation,
    or the stored pivot if none is smaller, becomes the pivot p^v; it divides
    every pending entry at c, which exact division clears.  A displaced pivot
    is pending again.  Returns the annihilator rows (q/p^v) * pivot of the
    pivots set here, which are still to be eliminated.

    Columns are taken in panels of w (see :func:`_panel`).  Inside a panel
    only the panel columns of the rows led there are kept current, and each
    such row records the multiple of each pivot it subtracted; the columns
    right of the panel are updated once, at its end, by one exact matmul of
    those coefficients with the pivot rows.  A row promoted to pivot inside
    the panel first gets its own delayed update (one vector-matrix product),
    and the displaced pivot it trades places with starts with no
    coefficients.  Every value is the one the per-column update gives.
    """
    n = rows.shape[1]
    w, dtype = _panel(q)
    lead = _leads(rows)
    anns = []
    c0 = int(lead.min(initial=n))
    while c0 < n:
        c1 = min(c0 + w, n)
        tail = c1 < n                  # columns right of the panel, updated at its end
        if tail:
            act = np.flatnonzero(lead < c1)
            coef = np.zeros((rows.shape[0], c1 - c0), dtype=np.int64)
            used = np.zeros((c1 - c0, n), dtype=np.int64)     # the pivot row of each column
        while (c := int(lead.min())) < c1:
            at = np.flatnonzero(lead == c)
            vals = np.gcd(rows[at, c], q)
            k = int(np.argmin(vals))
            piv = pivots.get(c)
            if piv is None or vals[k] < piv[c]:
                i = at[k]
                new = rows[i]
                if tail:
                    new = np.concatenate([new[:c1], (new[c1:] - coef[i] @ used[:, c1:]) % q])
                    coef[i] = 0
                u, d = unit_scale(int(new[c]), q)
                new = new * u % q
                rows[i] = 0 if piv is None else piv
                pivots[c] = piv = new
                if d > 1:
                    anns.append((q // d) * new % q)
            f = rows[at, c] // piv[c]
            if tail:
                used[c - c0] = piv
                coef[at, c - c0] = f
            block = (rows[at, c:c1] - f[:, None] * piv[c:c1]) % q
            rows[at, c:c1] = block
            lead[at] = c + _leads(block)
        if tail:
            lead[act] = _sub_product(rows, act, c1, coef[act], used, q, dtype)
        c0 = int(lead.min())
    return np.array(anns, dtype=np.int64).reshape(-1, n)


class RowEchelon:
    """Span-preserving row reduction over Z/m, kept in Howell form.

    Feed row batches with :meth:`add`; :meth:`matrix` returns the reduced
    Howell form of everything fed in, which depends only on its row span.
    Rows are eliminated once per prime-power factor q of m (Howell 1986;
    Storjohann 2000): over Z/q the least-valuation pivot divides its whole
    column, so pivots never merge, and pushing each pivot's annihilator
    multiple back into the pending rows gives the Howell property.  Pivot
    rows are stored only for the columns that have one.  Both the sweep and
    the back-reduction delay their updates right of a panel and apply them
    with one exact matmul per panel (Storjohann-Mulders 1998); the form is
    canonical, so it is the one the per-column updates give.
    """

    def __init__(self, ncols: int, m: int):
        self.ncols = ncols
        self.m = m
        self._pivots: dict[int, dict[int, np.ndarray]] = {q: {} for q in _prime_powers(m)}

    def add(self, batch: np.ndarray) -> None:
        batch = np.asarray(batch, dtype=np.int64)
        for q, pivots in self._pivots.items():
            rows = np.mod(batch, q)
            rows = rows[rows.any(axis=1)]
            while rows.size:
                rows = _sweep(rows, q, pivots)

    def matrix(self) -> np.ndarray:
        """Join the per-prime pivots of each column by CRT, then back-reduce.

        Each pivot is scaled to its canonical associate gcd(v, m), and, pivot
        by pivot, every row above it is reduced below it in its column.  Row
        k is used only at step k, before any later pivot touches it.  So a
        run of up to w unit pivots (see :func:`_panel`) acts as it stood at
        the run's start: the multiples f that the steps subtract solve
        f T = r, with T the run's rows on its pivot columns (unit upper
        triangular) and r a row's entries there (for a row of the run, only
        those right of its own pivot), and one matmul applies them.  A
        non-unit pivot v subtracts floor(r / v), which is no linear map, so
        it reduces the rows above it alone.
        """
        m = self.m
        cols = sorted(set().union(*self._pivots.values()))
        rows = np.zeros((len(cols), self.ncols), dtype=np.int64)
        for q, pivots in self._pivots.items():
            e = (m // q) * pow(m // q, -1, q) % m       # 1 mod q, 0 mod m/q
            for k, c in enumerate(cols):
                if c in pivots:
                    rows[k] += e * pivots[c]
        rows %= m
        for k, c in enumerate(cols):
            u, _ = unit_scale(int(rows[k, c]), m)
            if u != 1:
                rows[k] = rows[k] * u % m
        w, dtype = _panel(m)
        unit = rows[np.arange(len(cols)), cols] == 1
        k = 0
        while k < len(cols):
            c = cols[k]
            if not unit[k]:
                qs = rows[:k, c] // rows[k, c]
                idx = np.flatnonzero(qs)
                if idx.size:
                    rows[idx, c:] = (rows[idx, c:] - qs[idx, None] * rows[k, c:]) % m
                k += 1
                continue
            k1 = k + 1
            while k1 < min(k + w, len(cols)) and unit[k1]:
                k1 += 1
            pc = cols[k:k1]
            block = rows[k:k1].copy()
            T = block[:, pc]
            Tinv = np.eye(k1 - k, dtype=np.int64)
            for t in range(k1 - k - 2, -1, -1):
                Tinv[t, t + 1:] = -(T[t, t + 1:] @ Tinv[t + 1:, t + 1:]) % m
            r = rows[:k1, pc]
            r[k:] -= np.eye(k1 - k, dtype=np.int64)
            f = _product(r, Tinv, dtype).astype(np.int64) % m
            _sub_product(rows, slice(0, k1), c, f, block, m, dtype)
            k = k1
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
# kernel / solve / cokernel
# ---------------------------------------------------------------------------


@dataclass
class Kernel:
    """{x : A x = 0 mod m} as independent generators with their orders.

    The columns of ``gens`` generate the kernel and sum t_j gens[:, j] = 0
    exactly when every orders[j] divides t_j, so the kernel is the product
    of the Z/orders[j].  ``coordinates`` reads t off the factorization the
    generators came from (see :func:`kernel`): the rows ``_inv`` of Q'^-1
    on the non-unit-pivot columns ``_rest``.
    """

    modulus: int
    gens: np.ndarray            # cols x k
    orders: tuple[int, ...]
    _rest: np.ndarray
    _inv: np.ndarray            # k x len(_rest)

    def coordinates(self, vec: np.ndarray) -> Optional[np.ndarray]:
        """t with gens t = vec, one column per column of a matrix; None if any is outside.

        On the kernel, Q'^-1 x_rest is (m/g_j) t_j in coordinate j; off it
        the division is meaningless, so ``gens t = vec`` is checked.
        """
        m = self.modulus
        vec = as_mod(vec, m)
        g = np.array(self.orders, dtype=np.int64).reshape((-1,) + (1,) * (vec.ndim - 1))
        x = (self._inv @ vec[self._rest] % m) // (m // g)
        return None if ((self.gens @ x - vec) % m).any() else x


def kernel(A: np.ndarray | RowEchelon, m: int) -> Kernel:
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
    Q' = I and every rest column is free.
    """
    if isinstance(A, RowEchelon):
        n, E = A.ncols, A.matrix()
    else:
        n, E = np.shape(A)[1], echelon_compress(A, m)
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
    g = g[keep]
    gens = np.zeros((n, len(keep)), dtype=np.int64)
    gens[rest] = Q[:, keep] * (m // g) % m
    gens[lead[unit]] = -E[unit][:, rest] @ gens[rest] % m
    return Kernel(m, gens, tuple(int(d) for d in g), rest, Qinv[keep])


def solve(A: np.ndarray, b: np.ndarray, m: int) -> Optional[np.ndarray]:
    """One solution x of A x = b mod m, or None.

    ``b`` is a vector or a matrix; a matrix is solved column by column and
    gives None if any column is inconsistent.
    """
    A = as_mod(A, m)
    b = as_mod(b, m)
    r, c = A.shape
    y = np.zeros((c,) + b.shape[1:], dtype=np.int64)
    if m <= 1:
        return y
    snf = smith_normal_form_raw(A, m)
    cvec = snf.P @ b % m
    ndiag = len(snf.diag)
    for i in range(r):
        d = int(snf.diag[i]) if i < ndiag else 0
        g = gcd_with_modulus(d, m)
        if (cvec[i] % g).any():
            return None
        if i < c and g != m:
            mg = m // g
            y[i] = (cvec[i] // g) * pow(d // g, -1, mg) % mg
    return snf.Q @ y % m


@dataclass
class AbelianStructure:
    """Invariant-factor description of a quotient (Z/m)^n / column-span.

    ``project`` maps ambient vectors to coordinates in prod Z/d_i; the
    ``generator_lifts`` columns project to the unit vectors.
    """

    modulus: int
    ambient_dim: int
    invariant_factors: tuple[int, ...]
    generator_lifts: np.ndarray       # ambient_dim x r
    _proj_rows: np.ndarray            # r x ambient_dim (rows of P for kept factors)

    def project(self, vec: np.ndarray) -> np.ndarray:
        """Coordinates of a vector, or of each column of a matrix."""
        vec = as_mod(vec, self.modulus)
        coords = self._proj_rows @ vec % self.modulus
        mods = np.array(self.invariant_factors, dtype=np.int64)
        return coords % mods.reshape((-1,) + (1,) * (vec.ndim - 1))

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)


def cokernel(A: np.ndarray, m: int, rows: int | None = None) -> AbelianStructure:
    """Structure of (Z/m)^rows / colspan(A).

    P A Q = D is the Smith normal form; the kept diagonal positions are the
    invariant factors f = gcd(d, m) > 1, and P and P^-1 are cut to them:
    the rows of P project, the columns of P^-1 lift.
    """
    A = as_mod(A, m)
    n = rows if rows is not None else A.shape[0]
    if A.shape[0] != n:
        raise ValueError("row count mismatch")
    if m <= 1 or n == 0:
        return AbelianStructure(m, n, (), np.zeros((n, 0), dtype=np.int64),
                                np.zeros((0, n), dtype=np.int64))
    snf = smith_normal_form_raw(A, m)
    d = np.zeros(n, dtype=np.int64)
    d[:len(snf.diag)] = snf.diag
    f = np.gcd(d, m)                            # gcd(0, m) = m: a free Z/m
    keep = np.flatnonzero(f > 1)
    return AbelianStructure(m, n, tuple(int(x) for x in f[keep]), snf.Pinv[:, keep] % m,
                            snf.P[keep] % m)


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


# ---------------------------------------------------------------------------
# submodules and subquotients
# ---------------------------------------------------------------------------


@dataclass
class SubquotientModule:
    """W / R for a :class:`Kernel` W and a submodule R <= W of (Z/m)^n.

    ``coordinates`` finds x with W.gens x = vec (one matmul with the rows the
    kernel's factorization kept) and projects it mod R; it returns None for
    vectors outside W.  A matrix gives one coordinate column per column, and
    None if any column is outside W.
    """

    invariant_factors: tuple[int, ...]
    generator_lifts: np.ndarray      # n x r, representatives in W
    _W: Kernel
    _inner: AbelianStructure

    def coordinates(self, vec: np.ndarray) -> Optional[np.ndarray]:
        x = self._W.coordinates(vec)
        return None if x is None else self._inner.project(x)


def subquotient(W: Kernel, R: np.ndarray, m: int) -> SubquotientModule:
    """Structure of W/colspan(R); R must lie inside W.

    W / R is Z^k modulo the coordinates T of R in W's generators and the
    relations among those generators, so one SNF of [T | relations] gives
    it.  The :class:`Kernel` brings both from its own factorization: T from
    its ``coordinates`` and the relations orders[j] e_j.  A column span A is
    the Kernel ``kernel(span_rows(A, m), m)``.
    """
    T = W.coordinates(as_mod(R, m))
    if T is None:
        raise ValueError("R is not contained in the span of W")
    orders = np.array(W.orders, dtype=np.int64)
    rels = np.diag(orders)[:, orders < m]       # order m: no relation
    inner = cokernel(np.hstack([T, rels]), m, rows=len(orders))
    return SubquotientModule(inner.invariant_factors, W.gens @ inner.generator_lifts % m,
                             W, inner)
