"""Cohomology of finite groups with finite abelian coefficients.

H^1 (any module) and H^2 (scalar coefficients with trivial action) are
solved in generator coordinates over Z/m, m the exponent of the
coefficient module (mixed invariant factors are handled by scaling each
equation row into Z/m).  A class is a vector on the unknowns; its
normalized cochain table, indexed by group elements, is built on read.

Cocycle and coboundary questions are asked on generator rows: a
normalized cocycle is fixed by its values with the last argument in a
generating set S, and satisfies the cocycle identity once it does there.
``_cocycle1_space`` is the one 1-cocycle system: its unknowns are the
values a(s), s in S, every a(g) is a fixed combination of them, and its
rows are the cocycle identity at (g, s).  ``h1`` and the character groups
(``character_group_generators``, ``engine._character_module``) solve it,
so H^1 has |S| rank(M) unknowns.  For scalar coefficients with trivial
action, ``h2_trivial_scalar`` fixes the gauge: a coboundary moves every
cocycle to one that vanishes on the edges f(parent, s) of the BFS tree of
G over S, so its unknowns are the n|S| - n + 1 Schreier atoms f(y, s) off
the tree, the values on a free basis of the relators R of the
presentation F -> G.  It writes the cocycle identity at first arguments g
in S and the atoms, |S|(n|S| - n + 1) rows: they say that the relators
keep their values under conjugation by S, hence by F, and by Hopf's
formula that is the whole cocycle identity.  The coboundaries left are the
|S| of the homomorphisms F -> Z/m.  The class module of extensions.py
reuses the atoms, the rows and the gauge (``ReducedCocycleSpace``).  The
commuting-pair rows (``path_sums``) and the Kummer classes
(``kummer_columns``) are read off the atoms, with no table.

A table is a cocycle iff the identity holds at first arguments {1} u S
(``cocycle1_defect``, ``cocycle2_defect``, on stacks of tables, twisted
scalars included).  A 1-cocycle dies on a subgroup iff its values at the
subgroup's generators lie in the span of d0 there (``death_rows``, one
``zmod.preimage_rows`` call for all subgroups).  A scalar 2-cocycle,
twisted by units u(g) or not, is a coboundary iff the atoms of its
gauged form lie in the span of the |S| u-twisted coboundary columns
(Gruenberg's H^2 = coker(Der(F, M) -> Hom_G(R^ab, M))):
``coboundary_mask`` reads only the values f(y, s), s in S, and does not
check the cocycle law, which its callers prove.

Every answer is a subgroup of classes cut out by linear rows, modulo a
relation subgroup; ``class_subgroup`` is the one solve that turns such
rows into invariant factors and generators, and the only code that knows
how a class of order o sits in Z/N.  Death in Q/Z on every bicyclic
subgroup (B_0 and the Bogomolov condition of the engine) needs no
subgroups: a central extension of an abelian group by the divisible Q/Z
splits iff it is abelian, so a class dies there iff f(x, y) = f(y, x)
mod N for every commuting pair, read at least cyclic generators in
``commuting_pair_rows`` (Bogomolov 1987; Moravec 2012).  Counting the
cocycles mod m that pass those rows gives |B_0(G)[m]| with no quotient
(``b0_torsion_order``).  Literal death
mod N of a degree-2 class on a family (the Sha^2 filters of ``sha``)
needs none either: it is the kernel of one cyclic-splitting row per g != 1
(``_power_sums``) and, for the bicyclic and abelian families, of the
commuting-pair rows, so Sha^2_ab = Sha^2_bic.  Degree 1 (the cyclic and
bicyclic families) reads ``death_rows``, one batched span test at the
generating tuples of ``family_generators``: a class that dies on B dies
on every subgroup of B, since restriction to it factors through B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod
from typing import Callable, Optional

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .errors import OrderBound, ValidationError
from .groups import AbelianModule, FiniteGroup
from .zmod import (
    RowEchelon,
    Subquotient,
    _howell_residue,
    as_mod,
    echelon_compress,
    kernel,
    preimage_rows,
    subquotient,
)


def scalar_module(m: int, actor: FiniteGroup | None = None,
                  units: np.ndarray | None = None) -> AbelianModule:
    """Z/m, optionally with an actor operating through a table of units."""
    if actor is None:
        return AbelianModule((m,))
    if units is None:
        units = np.ones(actor.order, dtype=np.int64)
    return AbelianModule((m,), actor, np.asarray(units, dtype=np.int64)
                         .reshape(actor.order, 1, 1))


# ---------------------------------------------------------------------------
# cocycle identities (exact table checks)
# ---------------------------------------------------------------------------


def cocycle1_defect(G: FiniteGroup, M: AbelianModule, a: np.ndarray) -> Optional[tuple]:
    """First (..., g, h), g in {1} u S, where g.a(h) - a(gh) + a(g) != 0, or None.

    a is a table (n, rank) or a stack (..., n, rank), S is
    ``G.minimal_generators()``.  That is the whole law, by induction on word
    length: a(s g' h) = a(s) + s.a(g' h) = a(s g') + s g'.a(h).
    """
    a = M.reduce(a)
    rows = np.array(sorted({G.identity, *G.minimal_generators()}))
    bad = np.zeros(a.shape[:-2] + (len(rows), G.order), dtype=bool)
    for i, g in enumerate(rows):
        acted = a if M.action is None else np.einsum("...i,ji->...j", a, M.matrix(g))
        bad[..., i, :] = M.reduce(acted + a[..., g, None, :] - a[..., G.mul[g], :]).any(axis=-1)
    hit = np.argwhere(bad)[:1]
    hit[:, -2] = rows[hit[:, -2]]
    return tuple(map(int, hit[0])) if len(hit) else None


def cocycle2_defect(G: FiniteGroup, M: AbelianModule, f: np.ndarray) -> Optional[tuple]:
    """First (..., g, h, k), g in {1} u S, violating the 2-cocycle identity, or None.

    f is a table (n, n, rank) or a stack (..., n, n, rank), S is
    ``G.minimal_generators()``.  F = df is a 3-cocycle, and dF = 0 at
    (s, g, h, k) reads F(sg, h, k) = s.F(g, h, k) once F(s, ., .) = 0: so F
    vanishes everywhere if it vanishes at 1 and at S, O(|S| |G|^2) work.
    """
    n = G.order
    f = M.reduce(f)
    rows = np.array(sorted({G.identity, *G.minimal_generators()}))
    bad = np.zeros(f.shape[:-3] + (len(rows), n, n), dtype=bool)
    for i, g in enumerate(rows):
        acted = f if M.action is None else np.einsum("...i,ji->...j", f, M.matrix(g))
        lhs = acted - f[..., G.mul[g], :, :] + f[..., g, G.mul, :] - f[..., g, :, None, :]
        bad[..., i, :, :] = M.reduce(lhs).any(axis=-1)
    if not bad.any():
        return None
    hit = list(np.unravel_index(bad.argmax(), bad.shape))      # the first, in C order
    hit[-3] = rows[hit[-3]]
    return tuple(map(int, hit))


# ---------------------------------------------------------------------------
# flattening helpers
# ---------------------------------------------------------------------------


def _row_scales(M: AbelianModule) -> np.ndarray:
    m = M.exponent
    return np.array([m // d for d in M.invariant_factors], dtype=np.int64)


def _lattice_columns(dim_blocks: int, M: AbelianModule) -> np.ndarray:
    """Columns d_i * e_(block, i): the coefficient lattice relations."""
    d = np.tile(np.array(M.invariant_factors, dtype=np.int64), dim_blocks)
    return np.diag(d)[:, d != M.exponent]


def _d0_columns(M: AbelianModule, elements) -> np.ndarray:
    """Columns of d0 : M -> C^1 read at ``elements`` of the actor, (d0 v)(g) = g.v - v."""
    r, elements = M.rank, np.asarray(elements, dtype=np.int64)
    if M.action is None:
        return np.zeros((len(elements) * r, r), dtype=np.int64)
    cols = M.action[elements] - np.eye(r, dtype=np.int64)
    return cols.reshape(len(elements) * r, r) % M.exponent


def _cocycle1_space(G: FiniteGroup, M: AbelianModule) -> tuple[list[int], np.ndarray, np.ndarray]:
    """Generator coordinates for normalized Z^1(G, M): (S, E, rows).

    The unknowns v are the values a(s), s in S = ``G.minimal_generators()``,
    coordinate inner.  a(g) = E[g] @ v, E of shape (|G|, rank, |S| rank),
    filled along the BFS tree of G over S by a(x s) = a(x) + x.a(s), so a
    cocycle is E applied to its values at S.  ``rows`` are
    E[g s] - E[g] - g.E[s] at every g and s in S, coordinate i scaled into
    Z/exp(M) by exp(M)/d_i.  They give the whole cocycle law: if
    a(g h) = a(g) + g.a(h), then a(g h s) = a(g) + g.a(h) + g h.a(s)
    = a(g) + g.a(h s), by induction on the word length of h.
    """
    S = G.minimal_generators()
    n, r, k, m = G.order, M.rank, len(S), M.exponent
    acts = np.array([M.matrix(g) for g in range(n)], dtype=np.int64).reshape(n, r, r)
    E = np.zeros((n, r, k, r), dtype=np.int64)     # (g, coordinate, s, coordinate of a(s))
    for x, parent, i in G.tree_levels(S):
        E[x] = E[parent]
        E[x, :, i] += acts[parent]
    E = E.reshape(n, r, k * r) % m
    rows = E[G.mul[:, S]] - E[:, None] - acts[:, None] @ E[S]
    rows *= _row_scales(M)[:, None]
    return S, E, rows.reshape(n * k * r, k * r) % m


def _kernel_from_batches(batches, dim: int, m: int) -> Subquotient:
    ech = RowEchelon(dim, m)
    for batch in batches:
        ech.add(batch)
    return kernel(ech, m)


# ---------------------------------------------------------------------------
# cohomology group container
# ---------------------------------------------------------------------------


@dataclass
class CohomologyGroup:
    """Computed H^d(G, M) on the unknowns of its solve (for H^2 the atoms of
    ``space``): ``_tables`` maps class coordinates, one column per class, to
    a stack of cocycle tables, built only when read."""

    group: FiniteGroup
    module: AbelianModule
    degree: int
    sub: Subquotient
    _tables: Callable[[np.ndarray], np.ndarray]
    _coords: Callable[[np.ndarray], Optional[np.ndarray]]
    space: Optional["ReducedCocycleSpace"] = None

    @property
    def invariant_factors(self) -> tuple[int, ...]:
        return self.sub.invariant_factors

    @cached_property
    def representatives(self) -> list[np.ndarray]:
        """The cocycle table of each generator."""
        return list(self._tables(np.eye(len(self.invariant_factors), dtype=np.int64)))

    def coordinates(self, table: np.ndarray) -> Optional[np.ndarray]:
        """Class coordinates of a cocycle table; None if it is no cocycle.

        A stack of k tables (a leading axis before the full table shape
        (n,) * degree + (rank,)) gives a (classes, k) matrix, one column per
        table, from one solve; None if any of them is no cocycle.
        """
        table = np.asarray(table, dtype=np.int64)
        if table.ndim == self.degree + 2:
            return self._coords(table)
        x = self._coords(table[None])
        return None if x is None else x[:, 0]

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def element_table(self, coords) -> np.ndarray:
        """Representative cocycle for the given coordinate tuple."""
        return self._tables(np.asarray(coords, dtype=np.int64)[:, None])[0]


def h1(G: FiniteGroup, M: AbelianModule, caps: Caps = DEFAULT_CAPS) -> CohomologyGroup:
    """H^1(G, M) = Z^1/B^1 in the values of a 1-cocycle at the generators.

    Z^1 is the kernel of the rows of ``_cocycle1_space``, |S| rank(M)
    unknowns a(s) for s in S = ``G.minimal_generators()``.  B^1 and the
    coefficient lattice are read there too: d0 v at S is s.v - v.  A table
    is a(g) = E[g] @ a(S), and a cocycle table has the coordinates of its
    values at S.  Only the generator tables E @ lifts are kept: a class is
    the combination of them that its coordinates give.
    """
    caps.check_unknowns(len(G.minimal_generators()) * M.rank)
    S, E, rows = _cocycle1_space(G, M)
    R = np.hstack([_d0_columns(M, S), _lattice_columns(len(S), M)])
    sub = subquotient(kernel(rows, M.exponent), R)
    k, n, r = len(sub.invariant_factors), G.order, M.rank
    gens = M.reduce(np.moveaxis(E @ sub.generator_lifts, 2, 0)).reshape(k, n * r)

    def tables(x: np.ndarray) -> np.ndarray:
        return M.reduce((x.T @ gens).reshape(x.shape[1], n, r))

    def coords(tables: np.ndarray) -> Optional[np.ndarray]:
        if cocycle1_defect(G, M, tables) is not None:
            return None
        return sub.coordinates(M.reduce(tables)[:, S].reshape(len(tables), -1).T)

    return CohomologyGroup(G, M, 1, sub, tables, coords)


def h2(G: FiniteGroup, M: AbelianModule, caps: Caps = DEFAULT_CAPS) -> CohomologyGroup:
    """H^2(G, M) = Z^2/B^2 for scalar coefficients with trivial action."""
    if M.rank != 1 or M.action is not None:
        raise ValidationError("H^2 needs scalar coefficients with trivial action")
    return h2_trivial_scalar(G, int(M.invariant_factors[0]), caps)


# ---------------------------------------------------------------------------
# reduced H^2 for scalar coefficients with trivial action
# ---------------------------------------------------------------------------


@dataclass
class ReducedCocycleSpace:
    """Gauge-fixed coordinates for scalar 2-cocycles of G: the Schreier atoms.

    G acts on Z/m by units u(x) (u = 1: trivially).  Let F be free on
    S = ``gens``, R the kernel of F -> G, and w_x the word of x along the
    BFS tree of G over S (``levels``: arrays (x, parent, position of s),
    x = parent s, one BFS level at a time).  The relators
    r(y, s) = w_y s w_ys^-1, (y, s) off the tree, are a free basis of R
    (Nielsen-Schreier): the n|S| - n + 1 Schreier atoms (a repeated s or
    s = 1 labels no tree edge).  A normalized cocycle f lifts s to (0, s)
    in Z/m x G, (a, g)(c, h) = (a + u(g) c + f(g, h), gh), so w_x goes to
    (b(x), x), b(x) = b(parent) + f(parent, s) (``gauge``, zero on S), and
    r(y, s) to (f + db)(y, s) = f(y, s) + b(y) - b(ys).  So f + db vanishes
    on the tree edges, its atoms are the values of a G-map R^ab -> Z/m, and
    it is a coboundary iff they are the values of a derivation F -> Z/m,
    free on S: H^2 = coker(Der(F, Z/m) -> Hom_G(R^ab, Z/m)) (Gruenberg,
    Cohomological Topics in Group Theory, LNM 143 (1970); Hopf's formula
    for u = 1).  Directly: if f + db = db', then db' = 0 on the tree edges,
    b'(x s) = b'(x) + u(x) b'(s), so b' = ``words(u)`` . b'(S) and the atoms
    are ``coboundaries(u)`` b'(S).  Conversely, if the atoms are
    ``coboundaries(u)`` v, then f + db and db' for b' = ``words(u)`` . v
    agree at every (y, s), s in S, hence everywhere, by induction on word
    length with f(x, ys) = f(x, y) + f(xy, s) - u(x) f(y, s).

    ``gauge`` and ``atomize`` read the columns f(., s), s in S, (..., n, |S|).
    ``column`` numbers the atoms row by row, -1 on the tree edges.  For
    u = 1, f(g, x) = f(g, parent) + f(g parent, s) along the tree: so
    ``expand`` rebuilds tables, ``path_sums`` reads single values, and
    ``expr`` (built on first use) writes f(g, x) in atoms for the g with
    ``slot[g] < n``.
    """

    group: FiniteGroup
    modulus: int
    gens: list[int]
    levels: list[np.ndarray]    # (3, nodes of the level) each
    column: np.ndarray          # (n, |S|): atom f(y, s_i) -> its unknown, -1 if zero
    slot: np.ndarray            # first argument g -> its block of expr, n if none

    @property
    def n_atoms(self) -> int:
        return int((self.column >= 0).sum())

    @cached_property
    def expr(self) -> np.ndarray:
        """(blocks, n, n_atoms) int32: f(g, x) in atoms, along the tree in x."""
        G, firsts = self.group, np.flatnonzero(self.slot < self.group.order)
        expr = np.zeros((len(firsts), G.order, self.n_atoms), dtype=np.int32)
        for x, parent, i in self.levels:
            expr[:, x] = expr[:, parent]
            col = self.column[G.mul[firsts[:, None], parent], i]
            j, l = np.nonzero(col >= 0)
            expr[j, x[l], col[j, l]] += 1
        return expr

    @cached_property
    def tree(self) -> np.ndarray:
        """(2, n): parent[x] and letter[x], x = parent s_letter on the tree, 0 at 1."""
        tree = np.zeros((2, self.group.order), dtype=np.int64)
        for x, parent, i in self.levels:
            tree[:, x] = parent, i
        return tree

    def path_sums(self, atoms: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """f(x, y) (len(x), k) of the gauged cocycles with atom columns ``atoms`` (n_atoms, k).

        f is 0 on the tree edges, so f(x, a) = f(x, parent a) + f(x parent a, s)
        for a = parent s: a sum of atoms over the tree ancestors a != 1 of y.
        """
        parent, letter = self.tree
        a = np.vstack([as_mod(atoms, self.modulus),                    # column -1 reads 0
                       np.zeros((1, np.shape(atoms)[1]), dtype=np.int64)])
        out = np.zeros((len(x), a.shape[1]), dtype=np.int64)
        while y.any():
            col = self.column[self.group.mul[x, parent[y]], letter[y]]
            out += a[np.where(y > 0, col, -1)]
            y = parent[y]
        return out % self.modulus

    def at(self, g, x) -> np.ndarray:
        """Atom expressions of f(g, x) for indices g and x, broadcast.

        g must have a block of ``expr``; any other g raises IndexError.
        """
        return self.expr[self.slot[g], x].astype(np.int64)

    def expand(self, atoms: np.ndarray) -> np.ndarray:
        """The (n, n) table of an atom vector, or (k, n, n) for the k columns of a matrix."""
        G, m, gens = self.group, self.modulus, np.asarray(self.gens, dtype=np.int64)
        a = as_mod(atoms, m)
        a = a[:, None] if a.ndim == 1 else a
        a = np.vstack([a, np.zeros((1, a.shape[1]), dtype=np.int64)])   # column -1 reads 0
        f = np.zeros((a.shape[1], G.order, G.order), dtype=np.int64)
        f[:, :, gens] = np.moveaxis(a[self.column], 2, 0)
        for x, parent, i in self.levels[1:]:
            f[:, :, x] = f[:, :, parent] + f[:, G.mul[:, parent], gens[i]]
        f %= m
        return f[0] if np.ndim(atoms) == 1 else f

    def gauge(self, cols: np.ndarray) -> np.ndarray:
        """b along the tree, b(x) = b(parent) + f(parent, s_i), from columns (..., n, |S|).

        For a normalized cocycle f, f + db vanishes on every tree edge.
        """
        f = np.asarray(cols, dtype=np.int64)
        b = np.zeros(f.shape[:-1], dtype=np.int64)
        for x, parent, i in self.levels:
            b[..., x] = b[..., parent] + f[..., parent, i]
        return b % self.modulus

    def _atoms(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(y, i, ys_i) of each atom f(y, s_i), in the order of the unknowns."""
        y, i = np.nonzero(self.column >= 0)
        return y, i, self.group.mul[y, np.asarray(self.gens, dtype=np.int64)[i]]

    def atomize(self, cols: np.ndarray) -> np.ndarray:
        """Atoms (..., n_atoms) of the gauged cocycles with columns (..., n, |S|)."""
        f, b = np.asarray(cols, dtype=np.int64), self.gauge(cols)
        y, i, ys = self._atoms()
        return (f[..., y, i] + b[..., y] - b[..., ys]) % self.modulus

    def words(self, units: np.ndarray | None = None) -> np.ndarray:
        """The gauge W (n, |S|) of f(y, s_i) = u(y) e_i: b = W b(S) if db = 0 on the tree edges."""
        n, k = self.group.order, len(self.gens)
        u = np.ones(n, dtype=np.int64) if units is None else units
        return self.gauge(np.einsum("y,ij->jyi", u, np.eye(k, dtype=np.int64))).T

    def coboundaries(self, units: np.ndarray | None = None) -> np.ndarray:
        """(db)(y, s) = u(y) b(s) - b(ys) + b(y) on the atoms for b = ``words`` . b(S)."""
        m, y, i, ys = self.modulus, *self._atoms()
        u = np.ones(self.group.order, dtype=np.int64) if units is None else as_mod(units, m)
        W = self.words(u)
        return (u[y, None] * W[np.asarray(self.gens, dtype=np.int64)[i]] + W[y] - W[ys]) % m

    def c1_batches(self, width: int | None = None):
        """Row batches of the cocycle identity with first and third argument generators.

        The rows act on atom vectors, zero-padded on the right to ``width``
        columns: f(g,h) + f(gh,s) - f(g,hs) - f(h,s) = 0 for g, s in S and
        (h, s) an atom.  The row (g, h, s) says that phi(r(h, s)) keeps its
        value under conjugation by g, and the r(h, s) generate R, so
        invariance under S, hence under F, is phi([F, R]) = 0.  At a tree
        edge (h, s) the relator is 1 in F and the row vanishes identically,
        since f(g, hs) is expanded by that very identity: it is not built.
        """
        G, m = self.group, self.modulus
        n_atoms = self.n_atoms
        width = n_atoms if width is None else width
        batch = []
        for i, s in enumerate(self.gens):
            h = np.flatnonzero(self.column[:, i] >= 0)
            hs = G.mul[h, s]
            for g in self.gens:
                rows = np.zeros((len(h), width), dtype=np.int64)
                rows[:, :n_atoms] = self.at(g, hs) - self.at(g, h)
                rows[np.arange(len(h)), self.column[h, i]] += 1
                gh = self.column[G.mul[g, h], i]
                ok = np.flatnonzero(gh >= 0)
                rows[ok, gh[ok]] -= 1
                batch.append(rows % m)
                if len(batch) == 16:
                    yield np.vstack(batch)
                    batch = []
        if batch:
            yield np.vstack(batch)


def _off_tree(n: int, k: int, levels) -> np.ndarray:
    """(n, k) mask of the pairs (y, i) that are no edge (parent y, generator i) of a tree."""
    off = np.ones((n, k), dtype=bool)
    for _, parent, i in levels:
        off[parent, i] = False
    return off


def reduced_cocycle_space(G: FiniteGroup, m: int, gens=None,
                          autos: np.ndarray | None = None) -> ReducedCocycleSpace:
    """Schreier atoms over ``gens`` (default ``G.minimal_generators()``).

    ``autos`` is an image table of automorphisms of G, one row each (a
    Galois action); expressions are then built at the images of the
    generators too, which the class module's C2 rows read.  The cocycle
    identity itself is not eliminated here: callers feed ``c1_batches``
    into their own system (h2_trivial_scalar alone, the class module
    together with its Galois rows).
    """
    n = G.order
    gens = G.minimal_generators() if gens is None else list(gens)
    levels = G.tree_levels(gens)
    atom = _off_tree(n, len(gens), levels)
    column = np.full((n, len(gens)), -1, dtype=np.int64)
    column[atom] = np.arange(atom.sum())
    firsts = set(gens) if autos is None else {*gens, *autos[:, gens].ravel().tolist()}
    slot = np.full(n, n, dtype=np.int64)
    slot[sorted(firsts)] = np.arange(len(firsts))
    return ReducedCocycleSpace(G, m, gens, levels, column, slot)


def kummer_columns(space: ReducedCocycleSpace, phis,
                   twist: tuple[np.ndarray, np.ndarray] | None = None) -> np.ndarray:
    """The gauged Bocksteins of the characters ``phis`` on the unknowns, one column each.

    Let phi : G -> Z/N, N = ``space.modulus``, have lift p in [0, N), and
    D(x) be the sum of p over the letters of the tree word of x.  The gauge
    b(x) = b(parent) + f(parent, s) of the carry cocycle
    f(g, h) = (p(g) + p(h) - p(gh)) / N telescopes to (D(x) - p(x)) / N, so
    the gauged atom f(y, s) + b(y) - b(ys) is (D(y) + p(s) - D(ys)) / N.
    ``twist`` = (chi(e) mod N^2, act[e]) at e in S_Delta is for
    chi-equivariant characters: the twist c_e(g) = (chi(e) p(g) - p(e.g)) / N
    of the pair gauges to the unknown c_e(s) - b(e.s) (b(s) = 0) of the
    class module, (chi(e) p(s) - D(e.s)) / N, after the atoms, e outer.
    Each division is exact, as D(x) = phi(x) mod N and phi is equivariant;
    values are mod N, and no table is built: O(|G| |S|) integers each.
    """
    G, N, S = space.group, space.modulus, np.asarray(space.gens, dtype=np.int64)
    p = np.array(phis, dtype=np.int64).reshape(-1, G.order) % N
    D = np.zeros_like(p)
    for x, parent, i in space.levels:
        D[:, x] = D[:, parent] + p[:, S[i]]
    y, i, ys = space._atoms()
    cols = [(D[:, y] + p[:, S[i]] - D[:, ys]) // N % N]
    if twist is not None:
        chi, act = twist
        c = chi[:, None] * p[:, None, S] - D[:, act[:, S]]
        cols.append(c.reshape(len(p), chi.size * S.size) // N % N)
    return np.hstack(cols).T


def h2_trivial_scalar(G: FiniteGroup, m: int, caps: Caps = DEFAULT_CAPS) -> CohomologyGroup:
    """H^2(G, Z/m) on the n|S| - n + 1 Schreier atoms, modulo the |S| gauged coboundaries.

    The coboundary map (Z/m)^|S| -> atoms has image B^2 and kernel
    Hom(G, Z/m): db = 0 on every atom makes b a homomorphism.
    """
    n = G.order
    space = reduced_cocycle_space(G, m)
    caps.check_unknowns(space.n_atoms)
    cocycles = _kernel_from_batches(space.c1_batches(), space.n_atoms, m)
    sub = subquotient(cocycles, space.coboundaries())
    M = scalar_module(m)

    def coords(tables: np.ndarray) -> Optional[np.ndarray]:
        # a cocycle has f(1, g) = f(g, 1) = f(1, 1); minus the coboundary of
        # the constant cochain f(1, 1), it is normalized, as atomize needs
        tables = as_mod(tables, m).reshape(-1, n, n)
        tables = (tables - tables[:, :1, :1]) % m
        if cocycle2_defect(G, M, tables[..., None]) is not None:
            return None
        return sub.coordinates(space.atomize(tables[..., space.gens]).T)

    return CohomologyGroup(G, M, 2, sub,
                           lambda x: space.expand(sub.generator_lifts @ x % m)[..., None],
                           coords, space)


# ---------------------------------------------------------------------------
# coboundaries
# ---------------------------------------------------------------------------


def coboundary_mask(B: FiniteGroup, cols: np.ndarray, m: int,
                    units: np.ndarray | None = None, gens=None) -> np.ndarray:
    """Which normalized scalar 2-cocycles mod m, twisted by units u(g) if given, are coboundaries.

    ``cols`` (..., n, |S|) holds their values f(y, s), s in S = ``gens``
    (default ``B.minimal_generators()``); the caller proves the cocycle law.
    The gauged atoms are reduced against the reduced Howell form of the |S|
    ``coboundaries(u)`` (``ReducedCocycleSpace``): no n_atoms^2 matrix.
    """
    space = reduced_cocycle_space(B, m, gens)
    E = echelon_compress(space.coboundaries(units).T, m)
    return ~_howell_residue(E, space.atomize(as_mod(cols, m)), m).any(axis=-1)


# ---------------------------------------------------------------------------
# cup products
# ---------------------------------------------------------------------------


def cup_h1_h1(G: FiniteGroup, M: AbelianModule, x: np.ndarray, Mdual: AbelianModule,
              y: np.ndarray, cols=None) -> np.ndarray:
    """(x cup y)(s, t) = < s.y(t), x(s) > valued in Z/exp(M).

    x is a 1-cocycle valued in M, y one valued in the dual module, and the
    evaluation pairing Hom(M, Z/e) x M -> Z/e is applied.  ``cols`` lists
    the second arguments t to compute (default every element): the table is
    (|G|, len(cols)).
    """
    n = G.order
    e = M.exponent
    t = np.arange(n) if cols is None else np.asarray(cols, dtype=np.int64)
    x = M.reduce(x)
    y = Mdual.reduce(y)
    mats = np.array([Mdual.matrix(s) for s in range(n)])
    ys = Mdual.reduce(np.einsum("sij,tj->sti", mats, y[t]))     # ys[s, j] = s.y(t_j)
    w = np.array([e // d for d in M.invariant_factors], dtype=np.int64)
    out = np.einsum("sti,si->st", ys, w * x)
    out[0, :] = 0
    out[:, t == 0] = 0
    return out % e


def _power_sums(G: FiniteGroup, fs: np.ndarray, N: int) -> np.ndarray:
    """T[:, k, g] = T_k(g) = sum_{i=1}^{k-1} f(g^i, g) mod N for 0 <= k <= exp(G).

    fs is a stack (tables, |G|, |G|) of normalized scalar 2-cocycles mod N.
    The lift (a, g) in the extension Z/N x_f G has k-th power
    (k a + T_k(g), g^k).  With k = ord g, f dies on <g> iff some lift has
    order k, iff gcd(k, N) divides T_k(g): the cyclic-splitting row of
    ``sha`` is (N / gcd(k, N)) T_k(g) mod N.  On a coboundary db,
    T_k(g) = k b(g) - b(g^k), which is k b(g) at k = ord g, so that row is
    defined on classes.  The Galois obstructions of the engine read T at
    other k too.
    """
    P = G.powers
    T = np.zeros((len(fs), len(P) + 1, G.order), dtype=np.int64)
    T[:, 2:] = np.cumsum(fs[:, P[1:], np.arange(G.order)], axis=1) % N
    return T


# ---------------------------------------------------------------------------
# Sha: classes dying on a family of subgroups
# ---------------------------------------------------------------------------

@dataclass
class ShaResult:
    """Subgroup of H^d(G, M) of classes dying on every subgroup of a family."""

    ambient: CohomologyGroup
    invariant_factors: tuple[int, ...]
    representatives: list[np.ndarray]
    coordinates_in_ambient: list[np.ndarray]
    family: str
    degree: int

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)


def class_subgroup(S: np.ndarray, orders: tuple[int, ...], N: int,
                   relations: np.ndarray | None = None
                   ) -> tuple[tuple[int, ...], list[np.ndarray]]:
    """{x in prod Z/orders[j] : S x = 0 mod N} / <relations>, with generators.

    The rows of S (one column per class) must vanish on every orders[j] e_j,
    so the kernel of S in (Z/N)^t holds the lattice L of the orders[j] e_j,
    and the classes that S kills are ker S / L.  The answer is one
    subquotient of that kernel by L and the columns of ``relations``,
    coordinate vectors that satisfy S.  Returns the invariant factors of
    the quotient and one coordinate vector (mod orders) per generator.
    """
    mods = np.array(orders, dtype=np.int64)
    S = np.asarray(S, dtype=np.int64)
    if (S * mods % N).any():
        raise AssertionError("rows are not defined on classes")
    K = kernel(S, N)
    lattice = np.diag(mods)[:, mods < N]            # a class of order N needs none
    R = lattice if relations is None else np.hstack([lattice, relations])
    sub = subquotient(K, R)
    return sub.invariant_factors, list(sub.generator_lifts.T % mods)


def _generator_pairs(G: FiniteGroup) -> tuple[np.ndarray, np.ndarray]:
    """The commuting pairs s < t of least cyclic generators != 1, as two arrays."""
    reps = G.cyclic_generators[1:]
    mul = G.mul[np.ix_(reps, reps)]
    return tuple(reps[k] for k in np.nonzero(np.triu(mul == mul.T, 1)))


def _pair_members(G: FiniteGroup, s: np.ndarray, t: np.ndarray) -> np.ndarray:
    """The members of each <s, t> as one bit-packed bytes key: s and t commute, so
    <s, t> = <s><t> is the products s^i t^j, i < ord s, j < ord t (i, j up to the
    largest orders of all s and all t; a power past ord s repeats one), 2^22 cells
    a batch."""
    P, n = G.powers, G.order
    a, b = (int(G.element_orders[x].max(initial=1)) for x in (s, t))
    step = max(1, (1 << 22) // max(a * b, n))
    keys = np.zeros((len(s), (n + 7) // 8), dtype=np.uint8)
    for lo in range(0, len(s), step):
        x, y = P[:a, s[lo:lo + step]].T, P[:b, t[lo:lo + step]].T
        members = np.zeros((len(x), n), dtype=bool)
        np.put_along_axis(members, G.mul[x[:, :, None], y[:, None, :]].reshape(len(x), -1),
                          True, axis=1)
        keys[lo:lo + step] = np.packbits(members, axis=1)
    return keys.view(f"S{keys.shape[1]}").ravel()


def family_generators(G: FiniteGroup, family: str, caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """Generating tuples, padded with the identity, of members of ``family``
    that every member lies in.

    ``cyc``: (s) for each least cyclic generator s that is no power g^k with
    ord g^k < ord g.  ``bic``: <x, y> = <s, t> for s, t the least generators
    of <x>, <y>; so (s, t) for each distinct <s, t> over the commuting pairs
    s < t of least generators != 1, and (s) for each one that commutes with
    no other.  More than ``caps.closure`` pairs raise OrderBound naming
    ``closure`` before any member set is built.
    """
    reps, P, orders = G.cyclic_generators[1:], G.powers, G.element_orders
    if family == "cyc":
        return reps[~np.isin(reps, P[orders[P] < orders]), None]
    s, t = _generator_pairs(G)
    if len(s) > caps.closure:
        raise OrderBound("closure", caps.closure, len(s))
    _, first = np.unique(_pair_members(G, s, t), return_index=True)
    alone = reps[~np.isin(reps, np.concatenate([s, t]))]
    return np.vstack([np.stack([s, t], 1)[np.sort(first)], np.stack([alone, 0 * alone], 1)])


def death_rows(G: FiniteGroup, generators, tables: list[np.ndarray],
               M: AbelianModule) -> np.ndarray:
    """Rows (one column per 1-cocycle) whose kernel holds the classes dying on every member.

    ``generators`` has a row per member B, its generators padded with the
    identity (``family_generators``).  A class is sum x_j [tables[j]], the
    tables 1-cocycles valued in M, and dying on B means restricting to d0 v.
    The restriction minus a coboundary is a cocycle, which vanishes iff it
    vanishes at B's generators; so the class dies on B iff its values V x
    there lie in the span of the columns D of d0 on them.  One
    ``zmod.preimage_rows`` call decides this for every B, on the stacks of
    D and V; the zero rows of the identity and of unit pivots are dropped.
    """
    T = np.asarray(tables, dtype=np.int64)
    defect = cocycle1_defect(G, M, T)
    if defect is not None:
        raise AssertionError(f"table is not a cocycle at {defect}")
    gens = np.asarray(generators, dtype=np.int64)
    height = gens.shape[1] * M.rank
    scales = np.tile(_row_scales(M), gens.shape[1])[:, None]
    D = _d0_columns(M, gens.ravel()).reshape(len(gens), height, M.rank) * scales
    V = np.moveaxis(T[:, gens].reshape(len(T), len(gens), height), 0, 2) * scales
    rows = preimage_rows(D, V, M.exponent).reshape(-1, len(T))
    return rows[rows.any(axis=1)]


def commuting_pair_rows(space: ReducedCocycleSpace,
                        atoms: np.ndarray) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The commuting pairs x < y of least cyclic generators != 1, and the matrix of condition (i).

    On an abelian subgroup a central extension by Q/Z splits iff it is
    abelian, so the Q/Z-pushforward of a scalar 2-cocycle f mod N dies on
    every bicyclic subgroup iff f(x, y) = f(y, x) mod N for every commuting
    pair: one row per pair, one column per gauged cocycle of ``space``,
    entry f(x, y) - f(y, x) in path sums of its ``atoms``.  Coboundaries and
    Bocksteins are symmetric on commuting pairs, so the rows are defined on
    classes.  For x = s^i, y = t^j with s, t the least
    generators of <x>, <y>, f(x, y) - f(y, x) is alternating and bilinear
    on the abelian <s, t>, so row(x, y) = ij row(s, t): the rows at pairs of
    ``G.cyclic_generators`` keep the span, and the first nonzero pair (x, y)
    of a column, where row(s, t) != 0 with s <= x, t <= y and s != t (s > t
    would make (t, s) an earlier one).
    """
    x, y = _generator_pairs(space.group)
    rows = space.path_sums(atoms, x, y) - space.path_sums(atoms, y, x)
    return list(zip(x.tolist(), y.tolist())), rows % space.modulus


def b0_torsion_order(G: FiniteGroup, m: int, caps: Caps = DEFAULT_CAPS) -> int:
    """|B_0(G)[m]|, the m-torsion of Bogomolov's B_0(G), as |Z_sym(m)| / m^|S|.

    Z_sym(m) is the group of gauged 2-cocycles mod m (the kernel of
    ``c1_batches`` on the atoms of ``reduced_cocycle_space``) with
    f(x, y) = f(y, x) on the commuting pairs of least cyclic generators
    (``commuting_pair_rows``).  For every m, |Z_sym(m)| = |B_0(G)[m]| m^|S|:

    - 0 -> Z/m -> Q/Z -m-> Q/Z -> 0 gives the exact sequence
      H^1(G, Q/Z) -m-> H^1(G, Q/Z) -delta-> H^2(G, Z/m) -> H^2(G, Q/Z) -m->,
      so H^2(G, Z/m) maps onto H^2(G, Q/Z)[m], with kernel the image of
      delta, isomorphic to Hom(G, Q/Z) / m, of order |Hom(G, Z/m)|.
    - The pushforward of a class dies on a bicyclic subgroup iff its
      cocycle is symmetric mod m there (``commuting_pair_rows``), and the
      image of delta passes, as Bocksteins are symmetric on commuting
      pairs.  So the symmetric classes are the preimage of B_0(G)[m], of
      order |B_0(G)[m]| |Hom(G, Z/m)|.
    - The gauged coboundaries B^2 are the image of (Z/m)^|S| with kernel
      Hom(G, Z/m) (``h2_trivial_scalar``), so |B^2| = m^|S| / |Hom(G, Z/m)|,
      and |Z_sym(m)| = |B^2| |B_0(G)[m]| |Hom(G, Z/m)|: the Hom terms cancel.

    Z is one kernel mod m, with generator lifts of orders d_j; its
    symmetric members are the x in prod Z/d_j with S x = 0 for the
    commuting-pair rows S on the lifts, that is the kernel of S mod m over
    the lattice of the d_j e_j.  Over a squarefree m every pivot mod each
    prime is a unit, so no Howell step runs.
    """
    space = reduced_cocycle_space(G, m)
    caps.check_unknowns(space.n_atoms)
    Z = _kernel_from_batches(space.c1_batches(), space.n_atoms, m)
    _, S = commuting_pair_rows(space, Z.generator_lifts)
    t = len(Z.invariant_factors) + len(space.gens)
    return kernel(S, m).order * Z.order // m ** t


def sha(G: FiniteGroup, M: AbelianModule, degree: int, family: str,
        caps: Caps = DEFAULT_CAPS) -> ShaResult:
    """Classes of H^degree(G, M) dying on every subgroup of the family.

    Dying is literal: the restriction is a coboundary with coefficients in
    M.  Degree 1 reads ``death_rows`` at the generating tuples of
    ``family_generators``, for ``cyc`` and ``bic``.  Degree 2 needs scalar
    coefficients Z/N with trivial action (for death in Q/Z see
    ``engine.b0``) and lists no subgroup: its rows are the cyclic-splitting
    rows of ``_power_sums``, one per g != 1, and for ``bic`` and ``ab`` the
    ``commuting_pair_rows`` under them.  On an abelian B where f is symmetric, the extension
    Z/N x_f B is abelian, and an abelian extension of B = sum <b_i> splits
    iff it splits over each <b_i>: lifts of order ord b_i extend
    additively.  Conversely a split extension of an abelian B is abelian.
    So f dies on every abelian subgroup, or on every bicyclic one, iff both
    blocks vanish on it, and Sha^2_ab = Sha^2_bic.
    """
    if family not in ("ab", "bic", "cyc") or (family, degree) == ("ab", 1):
        raise ValidationError(f"unknown subgroup family {family!r} at degree {degree}")
    if degree not in (1, 2):
        raise ValidationError("degree must be 1 or 2")
    if degree == 2 and (M.rank != 1 or M.action is not None):
        raise ValidationError("degree 2 needs trivial scalar coefficients")
    ambient = h1(G, M, caps) if degree == 1 else h2(G, M, caps)
    orders = ambient.invariant_factors
    N = M.exponent
    if not orders:
        return ShaResult(ambient, (), [], [], family, degree)
    if degree == 1:
        rows = death_rows(G, family_generators(G, family, caps), ambient.representatives, M)
    else:
        f = np.array([rep[:, :, 0] for rep in ambient.representatives])
        g, k = np.arange(1, G.order), G.element_orders[1:]
        rows = (N // np.gcd(k, N))[:, None] * _power_sums(G, f, N)[:, k, g].T % N
        if family != "cyc":
            rows = np.vstack([rows, commuting_pair_rows(ambient.space,
                                                        ambient.sub.generator_lifts)[1]])
    factors, coords = class_subgroup(rows, orders, N)
    reps = [ambient.element_table(x) for x in coords]
    return ShaResult(ambient, factors, reps, coords, family, degree)


def character_group_generators(G: FiniteGroup, N: int,
                               equivariance: tuple[np.ndarray, np.ndarray] | None = None
                               ) -> list[np.ndarray]:
    """Generators of Hom(G, Z/N), optionally chi-twisted equivariant ones.

    ``equivariance`` is (chi mod N^2 over Delta, action table Delta x G).
    A homomorphism is a 1-cocycle for the trivial action, solved for its
    values at S (``_cocycle1_space``).  phi(d.g) - chi(d) phi(g) is a
    homomorphism in g, so equivariance is asked at S only.
    """
    if G.order == 1 or N == 1:
        return []
    S, E, rows = _cocycle1_space(G, scalar_module(N))
    E = E[:, 0]                                     # phi(g) = E[g] @ phi(S)
    if equivariance is not None:
        chi, act = equivariance
        twist = E[act[:, S]] - as_mod(chi, N)[:, None, None] * E[S]
        rows = np.vstack([rows, twist.reshape(-1, len(S)) % N])
    return list((E @ kernel(rows, N).generator_lifts % N).T)
