import functools
import re
import time
import types
from math import gcd

import numpy as np
import pytest

import brnr.zmod
from brnr.cohomology import reduced_cocycle_space
from brnr.extensions import GaloisDatum
from brnr.fastpath import build_example_714
from brnr.errors import ValidationError
from brnr.groups import AbelianModule, abelian_group, cyclic_group
from brnr.reference import solve
from brnr.zmod import (
    _PANEL,
    MAX_MODULUS,
    RowEchelon,
    _howell_residue,
    _leads,
    _prime_powers,
    _product,
    _unit_triangular_inverse,
    as_mod,
    cokernel,
    echelon_compress,
    kernel,
    preimage_rows,
    smith_normal_form_raw,
    span_rows,
    subquotient,
    unit_scale,
)

from dense_h2 import coboundary_rows_at
from test_generator_rows import full_c1_rows, full_c2_rows, full_c3_rows, relabel

MODULI = [2, 3, 4, 8, 12, 64]
LARGEST_MODULI = [3**9, 32749, MAX_MODULUS]      # 32749: the largest prime in range


def gcd_with_modulus(x: int, m: int) -> int:
    """gcd(x, m), with 0 mapped to m (the annihilator of the zero element)."""
    return gcd(int(x) % m, m) or m


def brute_span(cols: np.ndarray, m: int) -> set[tuple[int, ...]]:
    """All elements of the column span, by closure."""
    span = {tuple(np.zeros(cols.shape[0], dtype=int))}
    frontier = list(span)
    gens = [tuple(cols[:, j] % m) for j in range(cols.shape[1])]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = tuple((np.array(x) + np.array(g)) % m)
            if y not in span:
                span.add(y)
                frontier.append(y)
    return span


def order_multiset(elems: set[tuple[int, ...]], m: int, add) -> dict[int, int]:
    out: dict[int, int] = {}
    for e in elems:
        k, acc = 1, e
        while any(acc):
            acc = add(acc, e)
            k += 1
        out[k] = out.get(k, 0) + 1
    return out


def test_unit_scale_exhaustive_small_moduli():
    for m in MODULI:
        for a in range(m):
            u, d = unit_scale(a, m)
            assert np.gcd(u, m) == 1
            assert u * a % m == d
            assert d == (np.gcd(a, m) if a else 0)


def snf_full(A, m):
    """(D, U, V) with A = U D V mod m, from the transforms of smith_normal_form_raw."""
    snf = smith_normal_form_raw(A, m)
    D = np.zeros(snf.shape, dtype=np.int64)
    for i, d in enumerate(snf.diag):
        D[i, i] = d
    return D, snf.Pinv, snf.Qinv


def test_snf_trivial_examples():
    D, U, V = snf_full(np.zeros((3, 3), dtype=np.int64), 5)
    assert not D.any()
    assert np.array_equal(U, np.eye(3, dtype=np.int64))
    assert np.array_equal(V, np.eye(3, dtype=np.int64))

    D, _, _ = snf_full(np.array([[2]]), 4)
    assert D[0, 0] == 2


def test_snf_reconstruction_example_mod_12():
    A = np.array([[2, 4], [4, 8]])
    D, U, V = snf_full(A, 12)
    assert list(np.diag(D)) == [2, 0]
    assert np.array_equal(U @ D @ V % 12, A)


@pytest.mark.parametrize("m", MODULI + [36])
def test_snf_reconstruction_random(m):
    rng = np.random.default_rng(12345 + m)
    shapes = [(1, 1), (2, 3), (3, 2), (4, 4), (5, 3), (6, 6), (8, 5)]
    samples = [rng.integers(0, m, size=shape) for shape in shapes for _ in range(40)]
    # sparse, tall and of rank at most 3: most rows are zero or multiples
    samples += [rng.integers(0, m, size=(40, 3)) * (rng.random((40, 3)) < 0.2)
                @ rng.integers(0, m, size=(3, 6)) for _ in range(40)]
    for A in samples:
        r, c = A.shape
        snf = smith_normal_form_raw(A, m)
        D = np.zeros((r, c), dtype=np.int64)
        for i, d in enumerate(snf.diag):
            D[i, i] = d
        assert np.array_equal(snf.P @ as_mod(A, m) @ snf.Q % m, D)
        assert np.array_equal(snf.Pinv @ D @ snf.Qinv % m, as_mod(A, m))
        assert np.array_equal(snf.P @ snf.Pinv % m, np.eye(r, dtype=np.int64))
        assert np.array_equal(snf.Q @ snf.Qinv % m, np.eye(c, dtype=np.int64))
        divs = [gcd_with_modulus(int(d), m) for d in snf.diag]
        for a, b in zip(divs, divs[1:]):
            assert b % a == 0


def test_snf_reconstruction_large():
    rng = np.random.default_rng(7)
    for m in (8, 12):
        A = rng.integers(0, m, size=(40, 40))
        D, U, V = snf_full(A, m)
        assert np.array_equal(U @ D @ V % m, as_mod(A, m))


class _Transform:
    """Tracks P (row ops) or Q (col ops, as row ops on Q^T) with its inverse."""

    def __init__(self, n, q):
        self.q = q
        self.mat = np.eye(n, dtype=np.int64)
        self.inv = np.eye(n, dtype=np.int64)

    # P <- E P, Pinv <- Pinv E^-1
    def row_swap(self, i, k):
        self.mat[[i, k]] = self.mat[[k, i]]
        self.inv[:, [i, k]] = self.inv[:, [k, i]]

    def row_scale(self, i, u):
        self.mat[i] = self.mat[i] * u % self.q
        self.inv[:, i] = self.inv[:, i] * pow(int(u), -1, self.q) % self.q

    def rows_addmul_bulk(self, idx, k, qs):
        # rows idx -= qs * row k
        self.mat[idx] = (self.mat[idx] - qs[:, None] * self.mat[k]) % self.q
        self.inv[:, k] = (self.inv[:, k] + self.inv[:, idx] @ qs) % self.q


def _snf_scan_prime_power(A, q):
    """Reference SNF mod a prime power with every transform tracked: each pivot
    is found by scanning the whole trailing block for the least
    (gcd(a, q), row, column), and clears its column and then its row."""
    A = as_mod(A, q).copy()
    r, c = A.shape
    P, Q = _Transform(r, q), _Transform(c, q)
    diag = np.zeros(min(r, c), dtype=np.int64)
    for t in range(min(r, c)):
        sub = A[t:, t:]
        nz_r, nz_c = np.nonzero(sub)
        if nz_r.size == 0:
            break
        best = np.lexsort((nz_c, nz_r, np.gcd(sub[nz_r, nz_c], q)))[0]
        i, j = t + int(nz_r[best]), t + int(nz_c[best])
        A[[t, i]] = A[[i, t]]
        P.row_swap(t, i)
        A[:, [t, j]] = A[:, [j, t]]
        Q.row_swap(t, j)
        u, diag[t] = unit_scale(int(A[t, t]), q)
        A[t] = A[t] * u % q
        P.row_scale(t, u)
        qs = A[t + 1:, t] // diag[t]
        A[t + 1:] = (A[t + 1:] - qs[:, None] * A[t]) % q
        P.rows_addmul_bulk(t + 1 + np.arange(len(qs)), t, qs)
        qs = A[t, t + 1:] // diag[t]
        A[:, t + 1:] = (A[:, t + 1:] - A[:, t, None] * qs) % q
        Q.rows_addmul_bulk(t + 1 + np.arange(len(qs)), t, qs)
        # the pivot divides its block: no remainder is left
        assert not A[t + 1:, t].any() and not A[t, t + 1:].any()
    return diag, P, Q


def _snf_full_scan(A, m):
    """Reference SNF: the prime-power scans, each row t of P_q scaled by the unit
    that turns its pivot into the chain d_t = prod_q gcd(d_(q,t), q) (q past
    the pivots, and on every row past the diagonal), joined by the CRT
    idempotents."""
    r, c = np.shape(A)
    scans = []
    chain = np.ones(r, dtype=np.int64)
    for q in _prime_powers(m):
        diag, P, Q = _snf_scan_prime_power(A, q)
        g = np.full(r, q, dtype=np.int64)
        g[:len(diag)] = np.gcd(diag, q)
        chain *= g
        scans.append((q, g, P, Q))
    out = {name: 0 for name in ("P", "Pinv", "Q", "Qinv")}
    for q, g, P, Q in scans:
        for t, w in enumerate(chain // g % q):
            P.row_scale(t, w)
        e = (m // q) * pow(m // q, -1, q) % m
        for name, mat in (("P", P.mat), ("Pinv", P.inv), ("Q", Q.mat.T), ("Qinv", Q.inv.T)):
            out[name] = (out[name] + e * mat) % m
    return types.SimpleNamespace(diag=chain[:min(r, c)] % m, **out)


def _assert_same_snf(A, m):
    got = smith_normal_form_raw(A, m)
    ref = _snf_full_scan(A, m)
    for name in ("diag", "P", "Pinv", "Q", "Qinv"):
        assert np.array_equal(getattr(got, name), getattr(ref, name)), (name, A.shape, m)


@pytest.mark.parametrize("m", [12, 30, 36, 100, 8, 27, 64])
def test_snf_matches_full_scan_reference(m):
    # the row-key pivot search picks the same pivots as a scan of the whole
    # trailing block, so every transform is bit-identical; composite moduli
    # also pin the scaling to the chain and the CRT join
    rng = np.random.default_rng(2000 + m)
    for r in range(13):
        for c in range(13):
            for fill in (0.15, 0.5, 1.0):
                A = rng.integers(0, m, size=(r, c)) * (rng.random((r, c)) < fill)
                _assert_same_snf(A, m)


@functools.cache
def _group_ring_h1_batches():
    """The rows (g, s) of d1 for the p = 3 group-ring example on all 676
    values a(g), one batch mod 27 per generator s: the H^1 system before
    h1 solved at the generators, kept as a large Howell form (read-only,
    shared by the tests)."""
    ex = build_example_714(3)
    G, M = ex.sd.Q, ex.sd.N_hat
    S, ncols = G.minimal_generators(), (G.order - 1) * M.rank
    rows = coboundary_rows_at(G, M, S).reshape(G.order - 1, len(S), M.rank, ncols)
    batches = tuple(rows[:, j].reshape(-1, ncols) for j in range(len(S)))
    for batch in batches:
        batch.setflags(write=False)
    return batches, ncols, M.exponent


def test_snf_matches_full_scan_reference_on_group_ring_howell_form():
    batches, ncols, m = _group_ring_h1_batches()
    ech = RowEchelon(ncols, m)
    for batch in batches:
        ech.add(batch)
    E = ech.matrix()
    assert E.shape == (650, 676) and m == 27
    _assert_same_snf(E, 27)


def _sweep_per_column(rows, q, pivots):
    """Reference sweep: each column step rewrites the whole tail of every
    pending row led there (the elimination before column panels)."""
    lead = _leads(rows)
    n = rows.shape[1]
    anns = []
    while True:
        c = int(lead.min(initial=n))
        if c == n:
            return np.array(anns, dtype=np.int64).reshape(-1, n)
        at = np.flatnonzero(lead == c)
        vals = np.gcd(rows[at, c], q)
        k = int(np.argmin(vals))
        piv = pivots.get(c)
        if piv is None or vals[k] < piv[c]:
            i = at[k]
            u, d = unit_scale(int(rows[i, c]), q)
            new = rows[i] * u % q
            rows[i] = 0 if piv is None else piv
            pivots[c] = piv = new
            if d > 1:
                anns.append((q // d) * new % q)
        block = (rows[at, c:] - (rows[at, c] // piv[c])[:, None] * piv[c:]) % q
        rows[at, c:] = block
        lead[at] = c + _leads(block)


def _howell_per_column(batches, ncols, m):
    """Reference RowEchelon: per-column sweeps, then a back-reduction that
    reduces the rows above each pivot, one pivot at a time."""
    per_q = {q: {} for q in _prime_powers(m)}
    for batch in batches:
        batch = np.asarray(batch, dtype=np.int64)
        for q, pivots in per_q.items():
            rows = np.mod(batch, q)
            rows = rows[rows.any(axis=1)]
            while rows.size:
                rows = _sweep_per_column(rows, q, pivots)
    cols = sorted(set().union(*per_q.values()))
    rows = np.zeros((len(cols), ncols), dtype=np.int64)
    for q, pivots in per_q.items():
        e = (m // q) * pow(m // q, -1, q) % m
        for k, c in enumerate(cols):
            if c in pivots:
                rows[k] += e * pivots[c]
    rows %= m
    for k, c in enumerate(cols):
        u, v = unit_scale(int(rows[k, c]), m)
        if u != 1:
            rows[k] = rows[k] * u % m
        qs = rows[:k, c] // v
        idx = np.flatnonzero(qs)
        if idx.size:
            rows[idx, c:] = (rows[idx, c:] - qs[idx, None] * rows[k, c:]) % m
    return rows


def _assert_same_howell(batches, ncols, m):
    ech = RowEchelon(ncols, m)
    for batch in batches:
        ech.add(batch)
    got = ech.matrix()
    ref = _howell_per_column(batches, ncols, m)
    assert np.array_equal(got, ref), (ncols, m)
    return got


def _random_batches(rng, m, ncols):
    """Up to three batches of rows that are divisor multiples of random
    entries, at a random density, so non-unit pivots and displacements occur."""
    divisors = [d for d in range(1, min(m, 100) + 1) if m % d == 0]
    out = []
    for _ in range(int(rng.integers(1, 4))):
        r = int(rng.integers(0, ncols + 8))
        A = rng.choice(divisors, size=(r, ncols)) * rng.integers(0, m, size=(r, ncols)) % m
        out.append(A * (rng.random((r, ncols)) < rng.random()))
    return out


@pytest.mark.parametrize("m", [2, 4, 8, 27, 64, 6, 12, 36, 60, 72] + LARGEST_MODULI)
def test_panel_howell_matches_per_column_reference(m):
    # widths 1-200 cover one matmul block, several and a ragged last one;
    # the same matrix() must come out, bit for bit
    rng = np.random.default_rng(3100 + m % 1000)
    for ncols in (1, 2, 7, 63, 64, 65, 130, 200):
        _assert_same_howell(_random_batches(rng, m, ncols), ncols, m)


@pytest.mark.parametrize("m", [4, 27, 12])
def test_panel_howell_matches_per_column_reference_on_block_diagonal_batches(m):
    # each batch is nonzero only in its own 15 columns, as the per-d batches
    # of algebraic_unramified on Wang's N = 16 datum are, so most 64-column
    # blocks right of a panel have all-zero pivot rows; the last batches
    # couple the first block to a far one (a row led into a block whose
    # update is skipped) and then every block
    rng = np.random.default_rng(4100 + m)
    ncols, width = 200, 15
    batches = []
    for s in range(0, ncols, width):
        block = _random_batches(rng, m, width)[0]
        if s == 0:      # a unit pivot at every column of the first block
            block = np.vstack([np.triu(rng.integers(0, m, size=(width, width)), 1)
                               + np.eye(width, dtype=np.int64), block])
        batch = np.zeros((len(block), ncols), dtype=np.int64)
        batch[:, s:s + width] = block[:, :ncols - s]
        batches.append(batch)
    far = rng.integers(0, m, size=(3, ncols))
    far[:, width:150] = 0
    batches += [far, rng.integers(0, m, size=(3, ncols))]
    _assert_same_howell(batches, ncols, m)


@pytest.mark.parametrize("m", [8, 27, 72])
def test_panel_howell_displaced_pivots_empty_and_zero_batches(m):
    # non-unit pivots stored first, then unit rows that displace them;
    # empty and all-zero batches change nothing
    rng = np.random.default_rng(77 + m)
    ncols = 150
    p = min(d for d in range(2, m + 1) if m % d == 0)
    low = p * rng.integers(0, m, size=(ncols, ncols)) % m
    unit = rng.integers(0, m, size=(ncols, ncols))
    empty, zero = np.zeros((0, ncols), dtype=np.int64), np.zeros((5, ncols), dtype=np.int64)
    _assert_same_howell([empty, low, zero, unit, empty], ncols, m)
    ech = RowEchelon(ncols, m)
    ech.add(low)
    stored = {q: {c: int(piv[c]) for c, piv in pivs.items()} for q, pivs in ech._pivots.items()}
    ech.add(unit)
    assert any(int(ech._pivots[q][c][c]) < v for q in stored for c, v in stored[q].items())
    ech = RowEchelon(ncols, m)
    ech.add(empty)
    ech.add(zero)
    assert ech.matrix().shape == (0, ncols)


def test_panel_howell_matches_per_column_reference_on_group_ring_system():
    batches, ncols, m = _group_ring_h1_batches()
    assert _assert_same_howell(batches, ncols, m).shape == (650, 676)


@pytest.mark.parametrize("name", ["Z2xZ2xZ8", "(Z/2)^5"])
@pytest.mark.parametrize("seed", [1, 2])
def test_row_echelon_matches_per_column_reference_on_h2_batches(name, seed):
    # the sparse, mostly unit-pivot batches that h2_trivial_scalar feeds to
    # RowEchelon at m = |G|, on relabelled groups
    G, _ = relabel(abelian_group([2, 2, 8] if name == "Z2xZ2xZ8" else [2] * 5), seed)
    space = reduced_cocycle_space(G, G.order)
    E = _assert_same_howell(list(space.c1_batches()), space.n_atoms, G.order)
    assert (E[np.arange(len(E)), _leads(E)] == 1).mean() > 0.5


@pytest.mark.parametrize("m", [8, 24])
def test_unit_row_in_a_later_batch_displaces_a_stored_non_unit_pivot(m):
    # the first batch stores the non-unit pivots 2 at columns 0 and 2; the
    # second brings a unit at column 0, which displaces the first, and one
    # at column 3, which the pivot kept at column 2 must lose
    low = np.array([[2, 1, 0, 4], [0, 0, 2, 5]])
    unit = np.array([[1, 0, 0, 1], [0, 0, 0, 1]])
    _assert_same_howell([low, unit], 4, m)
    ech = RowEchelon(4, m)
    ech.add(low)
    assert ech._pivots[8][0][0] == 2
    ech.add(unit)
    assert ech._pivots[8][0][0] == 1 and ech._pivots[8][3][3] == 1
    assert list(ech._pivots[8][2]) == [0, 0, 2, 0]


@pytest.mark.parametrize("q", LARGEST_MODULI)
def test_a_round_of_a_panel_of_pivots_stays_exact_at_the_largest_moduli(q, monkeypatch):
    # 100 rows with distinct unit leads: the first round takes the _PANEL
    # least of them, and each sum in its products adds _PANEL products of
    # entries up to q - 1
    k, n = 100, 130
    p = next(d for d in range(2, q + 1) if q % d == 0)
    rng = np.random.default_rng(19)
    leads = np.sort(rng.choice(n, size=k, replace=False))
    rows = rng.integers(0, q, size=(k, n)) * (np.arange(n) > leads[:, None])
    rows[np.arange(k), leads] = p * rng.integers(0, q // p, size=k) + rng.integers(1, p, size=k)
    sizes = []
    solved = brnr.zmod._solved
    monkeypatch.setattr(brnr.zmod, "_solved",
                        lambda P, cols, q: sizes.append(len(cols)) or solved(P, cols, q))
    _assert_same_howell([rows[rng.permutation(k)], rng.integers(0, q, size=(20, n))], n, q)
    assert sizes[0] == _PANEL


@pytest.mark.parametrize("q", [2, 27] + LARGEST_MODULI)
def test_unit_triangular_inverse_times_its_matrix_is_the_identity(q):
    # sizes past _PANEL take the block split
    rng = np.random.default_rng(q % 1000)
    for k in (1, 2, 5, 64, 65, 97):
        for fill in (0.05, 1.0):
            T = np.triu(rng.integers(0, q, size=(k, k)) * (rng.random((k, k)) < fill), 1)
            T += np.eye(k, dtype=np.int64)
            X = _unit_triangular_inverse(T, q)
            assert X.dtype == np.int64 and ((X >= 0) & (X < q)).all()
            assert np.array_equal(T @ X % q, np.eye(k)), (q, k, fill)


def test_product_is_exact_at_the_largest_modulus():
    # every entry q - 1 makes every product and sum as large as it gets;
    # 200 terms span several blocks of _PANEL, with a ragged last one
    q = MAX_MODULUS
    a = np.full((70, 200), q - 1, dtype=np.int64)
    b = np.full((200, 65), q - 1, dtype=np.int64)
    assert np.array_equal(_product(a, b, q), a.astype(object) @ b.astype(object) % q)


_A = np.array([[2, 4, 6], [1, 3, 5]])


def _snf_answers(m):
    snf = smith_normal_form_raw(_A, m)
    D = np.zeros(_A.shape, dtype=np.int64)
    D[np.arange(len(snf.diag)), np.arange(len(snf.diag))] = snf.diag
    return np.array_equal(snf.P @ _A @ snf.Q % m, D)


def _row_echelon_answers(m):
    ech = RowEchelon(3, m)
    ech.add(_A)
    return not _howell_residue(ech.matrix(), _A, m).any()


def _kernel_answers(m):
    # A's rows span {(a, 3a + 2b, 5a + 4b)}, of order m^2 / 2
    K = kernel(_A, m)
    return K.order == 2 * m and not (_A @ K.generator_lifts % m).any()


def _preimage_rows_answers(m):
    # V = I: the rows vanish on colspan(A) and not on a vector outside it
    S = preimage_rows(_A[None], np.eye(2, dtype=np.int64)[None], m)[0]
    return not (S @ _A % m).any() and (S @ [1, 0] % m).any()


def _solve_answers(m):
    x = solve(_A, np.array([2, 1]), m)
    return np.array_equal(_A @ x % m, [2, 1])


def _cokernel_answers(m):
    # (Z/m)^2 modulo the span of (2, 1) and (0, 1): Z/2
    return cokernel(_A, m).invariant_factors == (2,)


def _galois_datum_answers(m):
    return GaloisDatum.trivial(cyclic_group(2), m).N == m


def _abelian_module_answers(m):
    M = AbelianModule((m,), cyclic_group(2), np.array([[[1]], [[m - 1]]]))
    return M.action[1, 0, 0] == m - 1


ENTRIES = {"smith_normal_form_raw": _snf_answers, "RowEchelon": _row_echelon_answers,
           "kernel": _kernel_answers, "preimage_rows": _preimage_rows_answers,
           "solve": _solve_answers, "cokernel": _cokernel_answers,
           "GaloisDatum": _galois_datum_answers, "AbelianModule": _abelian_module_answers}


@pytest.mark.parametrize("m", [MAX_MODULUS, MAX_MODULUS + 1, 3**20, 2**61 - 1, 0, -4])
@pytest.mark.parametrize("entry", list(ENTRIES))
def test_every_entry_answers_in_the_modulus_range_and_raises_outside_it(entry, m):
    # the check comes before any work, so even 2^61 - 1 is refused at once
    start = time.perf_counter()
    if m == MAX_MODULUS:
        assert ENTRIES[entry](m)
    else:
        bound = rf"between [12] and {MAX_MODULUS} \(witness: {re.escape(str(m))}\)"
        with pytest.raises(ValidationError, match=bound):
            ENTRIES[entry](m)
    assert time.perf_counter() - start < 1


def test_a_module_past_the_range_raises_the_bound_not_a_false_action_error():
    # Z/3 acts on (Z/3^21)^2 by [[0, -1], [1, -1]], of order 3
    g = np.array([[0, -1], [1, -1]])
    action = np.array([np.eye(2, dtype=np.int64), g, g @ g])
    with pytest.raises(ValidationError, match=f"between 2 and {MAX_MODULUS}"):
        AbelianModule((3**21,) * 2, cyclic_group(3), action).validate()


def _identity_block_P(A, m):
    """Reference P: the row elimination of [A | I] per prime power, with the
    pivot rule of zmod._eliminate, whose identity block collects the row
    operations, scaled to the chain and joined by CRT."""
    A = as_mod(A, m)
    r, c = A.shape
    chain, blocks = np.ones(r, dtype=np.int64), []
    for q in _prime_powers(m):
        W = np.hstack([A % q, np.eye(r, dtype=np.int64)])
        keys = np.gcd(W[:, :c], q).min(axis=1, initial=q)
        d = np.full(r, q, dtype=np.int64)
        for t in range(min(r, c)):
            i = t + int(keys[t:].argmin())
            if keys[i] == q:
                break
            W[[t, i]], keys[[t, i]] = W[[i, t]], keys[[i, t]]
            j = t + int(np.gcd(W[t, t:c], q).argmin())
            W[:, [t, j]] = W[:, [j, t]]
            u, d[t] = unit_scale(int(W[t, t]), q)
            W[t] = W[t] * u % q
            W[t + 1:] = (W[t + 1:] - (W[t + 1:, t] // d[t])[:, None] * W[t]) % q
            keys[t + 1:] = np.gcd(W[t + 1:, t:c], q).min(axis=1, initial=q)
        chain *= d
        blocks.append((q, d, W[:, c:]))
    P = np.zeros((r, r), dtype=np.int64)
    for q, d, Pq in blocks:
        e = (m // q) * pow(m // q, -1, q) % m
        P += e * (Pq * (chain // d % q)[:, None] % q)
    return P % m


@pytest.mark.parametrize("m", [8, 27, 64, 12, 30, 36, 100])
def test_snf_P_is_the_identity_block_of_the_row_elimination(m):
    # P = L^-1 S from the recorded steps, bit for bit the [A | I] result
    rng = np.random.default_rng(5100 + m)
    for r, c in [(0, 3), (1, 1), (3, 7), (7, 3), (12, 12), (30, 20), (70, 80)]:
        for fill in (0.2, 1.0):
            A = rng.integers(0, m, size=(r, c)) * (rng.random((r, c)) < fill)
            assert np.array_equal(smith_normal_form_raw(A, m).P, _identity_block_P(A, m))


def test_solve_examples():
    x = solve(np.eye(3, dtype=np.int64), np.array([1, 2, 3]), 5)
    assert np.array_equal(x, [1, 2, 3])
    assert kernel(np.eye(3, dtype=np.int64), 5).generator_lifts.shape[1] == 0

    assert solve(np.array([[2]]), np.array([1]), 4) is None

    x = solve(np.array([[2]]), np.array([2]), 4)
    assert x is not None
    assert 2 * x[0] % 4 == 2
    k = kernel(np.array([[2]]), 4).generator_lifts
    assert {int(g[0]) for g in k.T} <= {0, 2}
    assert any(int(g[0]) == 2 for g in k.T)

    # a matrix right-hand side is solved column by column
    X = solve(np.array([[2, 0], [0, 3]]), np.array([[2, 4], [3, 0]]), 6)
    assert X is not None and not ((np.array([[2, 0], [0, 3]]) @ X
                                   - np.array([[2, 4], [3, 0]])) % 6).any()
    assert solve(np.array([[2]]), np.array([[2, 1]]), 4) is None

    # no rows: x = 0 solves it; no columns: only b = 0 is solved
    none = np.zeros(0, dtype=np.int64)
    assert np.array_equal(solve(np.zeros((0, 3), dtype=np.int64), none, 5), [0, 0, 0])
    assert solve(np.zeros((2, 0), dtype=np.int64), np.zeros(2, dtype=np.int64), 5).shape == (0,)
    assert solve(np.zeros((2, 0), dtype=np.int64), np.ones(2, dtype=np.int64), 5) is None


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7, 8])
def test_solve_matches_brute_force(m):
    rng = np.random.default_rng(99 + m)
    for _ in range(60):
        r = int(rng.integers(1, 4))
        c = int(rng.integers(1, 4))
        A = rng.integers(0, m, size=(r, c))
        b = rng.integers(0, m, size=r)
        brute = []
        for x in np.ndindex(*([m] * c)):
            if not ((A @ np.array(x) - b) % m).any():
                brute.append(np.array(x))
        x0 = solve(A, b, m)
        if x0 is None:
            assert not brute
        else:
            assert not ((A @ x0 - b) % m).any()
            # the kernel spans exactly the solution differences
            kr = kernel(A, m).generator_lifts
            kspan = brute_span(kr, m) if kr.size else {tuple([0] * c)}
            diffs = {tuple((s - x0) % m) for s in brute}
            assert kspan == diffs


def test_cokernel_examples():
    st = cokernel(np.eye(4, dtype=np.int64), 6)
    assert st.invariant_factors == ()

    st = cokernel(np.zeros((2, 0), dtype=np.int64), 6)
    assert st.invariant_factors == (6, 6)

    st = cokernel(np.array([[2]]), 8)
    assert st.invariant_factors == (2,)


def _assert_lifts_and_relations(st, R, rng):
    """Each generator lift maps to its unit vector and each column of R to
    zero; a matrix of members maps column by column, to the coefficients
    of the lifts in it."""
    k, m = len(st.invariant_factors), st.modulus
    for i, lift in enumerate(st.generator_lifts.T):
        assert np.array_equal(st.coordinates(lift), np.eye(k, dtype=np.int64)[i])
    for col in R.T:
        assert not st.coordinates(col).any()
    x = rng.integers(0, m, size=(k, 3))
    X = (st.generator_lifts @ x + R @ rng.integers(0, m, size=(R.shape[1], 3))) % m
    coords = st.coordinates(X)
    assert np.array_equal(coords, np.array([st.coordinates(v) for v in X.T]).T.reshape(k, 3))
    assert np.array_equal(coords, x % np.array(st.invariant_factors, dtype=np.int64)[:, None])


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8, 12])
def test_cokernel_matches_brute_force(m):
    rng = np.random.default_rng(4321 + m)
    for _ in range(40):
        r = int(rng.integers(1, 4))
        c = int(rng.integers(0, 4))
        A = rng.integers(0, m, size=(r, c))
        st = cokernel(A, m)
        span = brute_span(A, m) if c else {tuple([0] * r)}
        quotient_order = m**r // len(span)
        assert st.order == quotient_order
        _assert_lifts_and_relations(st, A, rng)
        # multiset of coordinate orders equals multiset of coset orders
        cosets: dict[tuple, tuple] = {}
        for x in np.ndindex(*([m] * r)):
            key = tuple(st.coordinates(np.array(x)))
            cosets.setdefault(key, x)
        assert len(cosets) == st.order


def test_kernel_is_exact_random():
    rng = np.random.default_rng(11)
    for m in MODULI:
        for _ in range(30):
            r = int(rng.integers(1, 5))
            c = int(rng.integers(1, 5))
            A = rng.integers(0, m, size=(r, c))
            K = kernel(A, m).generator_lifts
            assert not (A @ K % m).any()
            if c <= 3 and m <= 8:
                brute = {tuple(x) for x in np.ndindex(*([m] * c))
                         if not ((A @ np.array(x)) % m).any()}
                assert brute_span(K, m) == brute if K.size else brute == {tuple([0] * c)}


def test_echelon_preserves_row_span():
    rng = np.random.default_rng(5)
    for m in (4, 12, 64):
        A = rng.integers(0, m, size=(60, 7))
        E = echelon_compress(A, m)
        assert E.shape[0] <= 2 * 7 + 2
        # every original row is in the span of E and conversely
        for row in A % m:
            assert solve(E.T, row, m) is not None
        for row in E:
            assert solve(A.T % m, row, m) is not None


def test_subquotient_structure():
    m = 8
    W = np.array([[1, 0], [0, 2]])  # Z/8 + 2Z/8
    R = np.array([[4], [0]])        # 4Z/8 inside the first factor
    sq = subquotient(kernel(span_rows(W, m), m), R)
    assert sq.invariant_factors == (4, 4)
    assert sq.coordinates(np.array([1, 0])) is not None
    assert sq.coordinates(np.array([0, 1])) is None  # not in W
    v = sq.generator_lifts @ np.array([1, 0]) % m
    assert sq.coordinates(v) is not None


def test_subquotient_coordinates_take_a_batch():
    # a matrix of members gives their coordinates as columns; one column
    # outside W makes the whole batch None
    rng = np.random.default_rng(7)
    m = 12
    W = rng.integers(0, m, size=(6, 3))
    sq = subquotient(kernel(span_rows(W, m), m), 2 * W[:, :1] % m)
    assert sq.invariant_factors
    V = W @ rng.integers(0, m, size=(3, 5)) % m
    batch = sq.coordinates(V)
    assert batch.shape == (len(sq.invariant_factors), 5)
    for j in range(5):
        assert np.array_equal(batch[:, j], sq.coordinates(V[:, j]))
    outside = next(v for v in rng.integers(0, m, size=(20, 6)) if sq.coordinates(v) is None)
    assert sq.coordinates(np.column_stack([V[:, :2], outside, V[:, 2:]])) is None


@pytest.mark.parametrize("m", [4, 8, 27, 6, 12, 60, 72])
def test_row_echelon_is_the_canonical_howell_form(m):
    rng = np.random.default_rng(2024 + m)
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    for _ in range(30):
        c = int(rng.integers(1, 6))
        r = int(rng.integers(1, 7))
        A = rng.choice(divisors, size=(r, c)) * rng.integers(0, m, size=(r, c)) % m
        E = echelon_compress(A, m)
        # the same form under every row order and batch split
        for _ in range(4):
            ech = RowEchelon(c, m)
            rows = A[rng.permutation(r)]
            cuts = [0, *sorted(rng.integers(0, r + 1, size=2)), r]
            for a, b in zip(cuts, cuts[1:]):
                ech.add(rows[a:b])
            assert np.array_equal(ech.matrix(), E)
        # echelon form with canonical pivots and reduced entries above them
        piv = [int(np.flatnonzero(row)[0]) for row in E]
        assert piv == sorted(set(piv))
        for i, p in enumerate(piv):
            v = int(E[i, p])
            assert m % v == 0 and v < m
            assert (E[:i, p] < v).all()
        # the row span is unchanged
        if m**c <= 4096:
            span = brute_span(A.T, m)
            assert brute_span(E.T, m) == span
            # Howell property: span vectors that vanish before column j are
            # spanned by the rows whose pivot is at j or later
            for j in range(c + 1):
                tail = E[[i for i, p in enumerate(piv) if p >= j]]
                expect = {x for x in span if not any(x[:j])}
                assert brute_span(tail.T, m) == expect
        else:
            for row in A % m:
                assert solve(E.T, row, m) is not None
            for row in E:
                assert solve(A.T % m, row, m) is not None


# ---------------------------------------------------------------------------
# kernels from the Howell form against one SNF of the whole system
# ---------------------------------------------------------------------------


def _snf_kernel(A, m):
    """Reference kernel: generators (m/g_j) Q_j from one SNF of all of A."""
    A = as_mod(A, m)
    cols = A.shape[1]
    if m <= 1 or cols == 0:
        return np.zeros((cols, 0), dtype=np.int64)
    if A.shape[0] == 0 or not A.any():
        return np.eye(cols, dtype=np.int64)
    snf = smith_normal_form_raw(A, m)
    gens = []
    for j in range(cols):
        g = gcd_with_modulus(int(snf.diag[j]) if j < len(snf.diag) else 0, m)
        if g > 1:
            gens.append(snf.Q[:, j] * (m // g) % m)
    return np.array(gens, dtype=np.int64).reshape(-1, cols).T


def _solve_subquotient(W, R, m):
    """Reference subquotient: T by solve, relations by the SNF kernel of W."""
    W, R = as_mod(W, m), as_mod(R, m)
    T = solve(W, R, m) if R.shape[1] else np.zeros((W.shape[1], 0), dtype=np.int64)
    assert T is not None
    return cokernel(np.hstack([T, _snf_kernel(W, m)]), m)


def _solve_coordinates(W, inner, vec, m):
    """Reference subquotient coordinates: one solve in W, projected mod R."""
    x = solve(W, vec, m)
    return None if x is None else inner.coordinates(x)


def _span_order(howell, m):
    """|row span| of a reduced Howell form: prod m / pivot."""
    out = 1
    for row in howell:
        out *= m // int(row[np.flatnonzero(row)[0]])
    return out


def _pivot_kinds(A, m):
    E = echelon_compress(A, m)
    unit = E[np.arange(len(E)), _leads(E)] == 1
    return int(unit.sum()), int((~unit).sum())


def _assert_kernel_matches_reference(A, m):
    """Same span as the SNF kernel, independent generators of the stated
    orders, A K = 0, and coordinates that give back random combinations."""
    K = kernel(A, m)
    ref = _snf_kernel(A, m)
    n = np.shape(A)[1]
    assert K.generator_lifts.shape == (n, len(K.invariant_factors))
    assert not (as_mod(A, m) @ K.generator_lifts % m).any()
    howell = echelon_compress(K.generator_lifts.T, m)
    assert np.array_equal(howell, echelon_compress(ref.T, m))
    assert int(np.prod(K.invariant_factors, dtype=object)) == _span_order(howell, m)
    for col, g in zip(K.generator_lifts.T, K.invariant_factors):
        assert 1 < g and m % g == 0 and not (g * col % m).any()
        assert gcd_with_modulus(int(np.gcd.reduce(col)), m) == m // g
    _assert_lifts_and_relations(K, np.zeros((n, 0), dtype=np.int64),
                                np.random.default_rng(n * 1000 + m))
    return K, ref


MIXED_MODULI = [2, 4, 8, 16, 27, 12, 36, 72]


@pytest.mark.parametrize("m", MIXED_MODULI)
def test_kernel_matches_snf_reference_on_mixed_pivots(m):
    rng = np.random.default_rng(5200 + m)
    kinds = np.zeros(2, dtype=np.int64)
    for ncols in (1, 2, 5, 9, 17, 40):
        for _ in range(4):
            A = np.vstack(_random_batches(rng, m, ncols))
            kinds += _pivot_kinds(A, m) if len(A) else (0, 0)
            _assert_kernel_matches_reference(A, m)
    # units occur at every modulus, and non-units at every composite one
    assert kinds[0] and (kinds[1] or m == 2)


@pytest.mark.parametrize("m", MIXED_MODULI)
def test_subquotient_of_a_kernel_matches_solve_reference(m):
    rng = np.random.default_rng(5300 + m)
    divisors = [d for d in range(1, m + 1) if m % d == 0]
    for ncols in (1, 3, 6, 12, 30):
        for _ in range(3):
            A = np.vstack(_random_batches(rng, m, ncols))
            K, ref = _assert_kernel_matches_reference(A, m)
            k = len(K.invariant_factors)
            R = K.generator_lifts @ (rng.choice(divisors, size=(k, 3))
                                     * rng.integers(0, m, size=(k, 3))) % m
            sub = subquotient(K, R)
            inner = _solve_subquotient(ref, R, m)
            assert sub.invariant_factors == inner.invariant_factors
            span = kernel(span_rows(K.generator_lifts, m), m)
            assert sub.invariant_factors == subquotient(span, R).invariant_factors
            if not sub.invariant_factors:
                continue
            _assert_lifts_and_relations(sub, R, rng)
            # in the reference's coordinates the lifts are a basis with the
            # same orders: they generate, and lift j has order f_j
            ref_x = _solve_coordinates(ref, inner, sub.generator_lifts, m)
            ref_f = np.array(inner.invariant_factors, dtype=np.int64)[:, None]
            scaled = ref_x * (m // ref_f) % m
            assert np.array_equal(echelon_compress(scaled.T, m),
                                  echelon_compress(np.diag(m // ref_f[:, 0]), m))
            for col, f in zip(scaled.T, sub.invariant_factors):
                assert m // gcd_with_modulus(int(np.gcd.reduce(col)), m) == f


@pytest.mark.parametrize("m", [2, 3, 4, 6])
def test_kernel_coordinates_reject_exactly_the_vectors_outside(m):
    # brute force over (Z/m)^n: None exactly off the span of the kernel
    rng = np.random.default_rng(5400 + m)
    for n in (1, 2, 3):
        for _ in range(6):
            A = np.vstack(_random_batches(rng, m, n))
            K = kernel(A, m)
            span = brute_span(_snf_kernel(A, m), m) if len(K.invariant_factors) else {(0,) * n}
            sub = subquotient(K, np.zeros((n, 0), dtype=np.int64))
            for v in np.ndindex(*([m] * n)):
                v = np.array(v, dtype=np.int64)
                inside = tuple(v) in span
                x = K.coordinates(v)
                assert (x is not None) == inside
                assert (sub.coordinates(v) is not None) == inside
                if inside:
                    assert np.array_equal(K.generator_lifts @ x % m, v)
            # one column outside makes a batch None
            out = [v for v in np.ndindex(*([m] * n)) if v not in span]
            if out and K.invariant_factors:
                V = np.column_stack([K.generator_lifts[:, 0], np.array(out[0])])
                assert K.coordinates(V) is None


def test_kernel_of_the_all_unit_group_ring_system_needs_no_snf(monkeypatch):
    # the p = 3 h1 system: 650 unit pivots over 676 columns mod 27, so the
    # kernel is read off E with no SNF at all
    batches, ncols, m = _group_ring_h1_batches()
    ech = RowEchelon(ncols, m)
    for batch in batches:
        ech.add(batch)
    E = ech.matrix()
    assert _pivot_kinds(E, m) == (650, 0)
    ref = _snf_kernel(E, m)
    monkeypatch.setattr("brnr.zmod.smith_normal_form_raw", None)
    K = kernel(ech, m)
    assert K.invariant_factors == (27,) * 26
    assert np.array_equal(echelon_compress(K.generator_lifts.T, m), echelon_compress(ref.T, m))
    assert not (E @ K.generator_lifts % m).any()
    x = np.random.default_rng(1).integers(0, m, size=(26, 3))
    assert np.array_equal(K.coordinates(K.generator_lifts @ x % m), x)


@pytest.mark.parametrize("G, kinds", [
    (cyclic_group(16), (0, 29)),            # all non-unit: the SNF is all of E
    (abelian_group([2, 2, 2, 2]), (39, 32)),
    (abelian_group([5, 5]), (48, 0)),
])
def test_kernel_on_real_like_class_module_systems(G, kinds):
    # the C1-C3 rows on one unknown per atom and per c_d(g), as one matrix
    gal, m = GaloisDatum.real_like(G), G.order
    gens = G.minimal_generators()
    n_atoms = (G.order - 1) * len(gens)
    c3 = full_c3_rows(gal)
    A = np.vstack([full_c1_rows(G, gens, m, n_atoms + G.order - 1), full_c2_rows(gal, gens),
                   np.hstack([np.zeros((len(c3), n_atoms), dtype=np.int64), c3])])
    assert _pivot_kinds(A, m) == kinds
    _assert_kernel_matches_reference(A, m)


def test_kernel_special_cases():
    # a zero matrix: everything, one free generator per column
    K = _assert_kernel_matches_reference(np.zeros((3, 4), dtype=np.int64), 6)[0]
    assert K.invariant_factors == (6,) * 4
    K = _assert_kernel_matches_reference(np.zeros((0, 2), dtype=np.int64), 4)[0]
    assert K.invariant_factors == (4, 4)
    # m = 1: the zero module
    K = kernel(np.array([[1, 2], [3, 4]]), 1)
    assert K.generator_lifts.shape == (2, 0) and K.invariant_factors == ()
    assert K.coordinates(np.array([5, 7])).shape == (0,)
    assert subquotient(K, np.zeros((2, 0), dtype=np.int64)).invariant_factors == ()
    # a single column, unit, non-unit and zero
    for col, orders in (([[3], [2]], ()), ([[2], [4]], (2,)), ([[0]], (8,))):
        assert _assert_kernel_matches_reference(np.array(col), 8)[0].invariant_factors == orders
    # a unit row that ends in non-unit columns
    A = np.array([[1, 2, 4], [0, 4, 0]])
    K = _assert_kernel_matches_reference(A, 8)[0]
    assert K.coordinates(np.array([1, 0, 0])) is None


@pytest.mark.parametrize("m", [1, 4, 16])
def test_kernel_of_no_rows_is_the_whole_space_without_an_elimination(m, monkeypatch):
    # 0 x t: every column is a free generator of order m (none for m = 1),
    # read off Q' = I, as a zero row gives it through the elimination
    ref = kernel(np.zeros((1, 4), dtype=np.int64), m)
    monkeypatch.setattr("brnr.zmod._sweep", None)
    monkeypatch.setattr("brnr.zmod.smith_normal_form_raw", None)
    K = kernel(np.zeros((0, 4), dtype=np.int64), m)
    assert K.invariant_factors == ref.invariant_factors == (m,) * 4 * (m > 1)
    assert np.array_equal(K.generator_lifts, ref.generator_lifts)
    x = np.arange(4 * 3).reshape(4, 3) % m
    assert np.array_equal(K.coordinates(x), ref.coordinates(x))


def test_product_in_one_matmul_is_exact_at_the_largest_modulus():
    # (4, 16000) @ (16000, 4) is 256,000 <= 2^18 multiply-adds: one matmul,
    # each sum 16000 products (q - 1)^2 = 1 mod q, about 2^44 before reduction
    q = MAX_MODULUS
    a = np.full((4, 16000), q - 1, dtype=np.int64)
    b = np.full((16000, 4), q - 1, dtype=np.int64)
    assert a.shape[0] * a.shape[1] * b.shape[1] <= _PANEL ** 3
    got = _product(a, b, q)
    assert got.dtype == np.int64
    assert np.array_equal(got, a.astype(object) @ b.astype(object) % q)
    assert (got == 16000).all()


@pytest.mark.parametrize("q", [2, 4, MAX_MODULUS])
def test_clear_reduces_negative_updates_like_the_per_column_reference(q, monkeypatch):
    # dense rows take whole-row updates, in several slices of rows, and
    # block-diagonal ones the block update; entries near q - 1 in the pivots make X - X[:, cols] G go
    # negative, which the mask (q a power of 2) must reduce as % does
    negative, paths = [], set()
    mod, clear = brnr.zmod._mod, brnr.zmod._clear

    def mod_spy(x, q):
        negative.append(bool((x < 0).any()))
        return mod(x, q)

    def clear_spy(X, G, cols, q):
        paths.add(2 * np.count_nonzero(G.any(axis=0)) >= X.shape[1])
        clear(X, G, cols, q)

    monkeypatch.setattr(brnr.zmod, "_mod", mod_spy)
    monkeypatch.setattr(brnr.zmod, "_clear", clear_spy)
    rng = np.random.default_rng(q + 5)
    ncols = 150
    dense = rng.integers(0, q, size=(40, ncols))
    dense[:, :40] = np.triu(q - 1 - rng.integers(0, 2, size=(40, 40)), 1) + np.eye(40, dtype=np.int64)
    sparse = []
    for s in range(0, ncols, 15):
        block = np.zeros((12, ncols), dtype=np.int64)
        block[:, s:s + 15] = rng.integers(q // 2, q, size=(12, 15))
        sparse.append(block)
    _assert_same_howell([dense, rng.integers(0, q, size=(300, ncols))], ncols, q)   # > _PANEL * 4 rows
    _assert_same_howell(sparse + [rng.integers(0, q, size=(5, ncols))], ncols, q)
    assert any(negative)
    assert paths == {True, False}
