"""Galois-equivariant central extensions as table pairs (f, c).

An extension of a finite group G by mu_N compatible with a finite Galois
quotient Delta is stored as two tables mod N: the extension 2-cocycle
f : G x G -> Z/N and the Galois twist c : Delta x G -> Z/N.  Three exact
laws make the pair a Delta-group:

  C1 (cocycle)        f(g,h) + f(gh,k) = f(g,hk) + f(h,k)
  C2 (automorphism)   c_d(gh) - c_d(g) - c_d(h) = f(d.g, d.h) - chi(d) f(g,h)
  C3 (crossed)        c_{de}(g) = chi(d) c_e(g) + c_d(e.g)

Everything here is linear in (f, c), which turns enumeration-of-extensions
into kernel computations: the class module is the solution space of C1-C3
modulo the coboundary pairs of a change of section.  It is solved in
generator coordinates and a fixed gauge, for the Schreier atoms f(y, s)
off the spanning tree of G and the values c_e(s), with s and e generators
of G and of Delta; the other values follow along spanning trees.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import prod
from typing import Optional

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .cohomology import (
    _coboundary_rows,
    _kernel_from_batches,
    _off_tree,
    _twist_rows,
    bockstein,
    character_group_generators,
    cocycle2_defect,
    is_scalar_coboundary,
    reduced_cocycle_space,
    scalar_module,
)
from .errors import (
    MismatchedBase,
    NotASubgroup,
    NotStable,
    OrderBound,
    ValidationError,
)
from .groups import FiniteGroup, GroupAction
from .zmod import MAX_MODULUS, Subquotient, as_mod, solve, subquotient


@dataclass
class GaloisDatum:
    """Finite Galois quotient acting on G, with cyclotomic character mod N^2."""

    delta: FiniteGroup
    G: FiniteGroup
    chi: np.ndarray                 # units mod N^2, one per Delta element
    action: GroupAction             # Delta on G by automorphisms
    N: int | None = None            # defaults to |G|
    base_algebraically_closed: bool = False

    def __post_init__(self):
        if self.N is None:
            self.N = self.G.order
        if not 1 <= self.N <= MAX_MODULUS:
            raise ValidationError(f"modulus must be between 1 and {MAX_MODULUS}", witness=self.N)
        # exp(G) | N, else a Kummer class (zero in Br) can have an f = 0 representative
        if self.N % self.G.exponent:
            raise ValidationError(f"modulus must be a multiple of exp(G) = {self.G.exponent}",
                                  witness=self.N)
        self.chi = as_mod(self.chi, self.N * self.N)
        if self.chi.shape != (self.delta.order,):
            raise ValidationError("chi table has wrong length")

    def validate(self) -> None:
        """chi (``validate_chi``), then the action."""
        self.validate_chi()
        self.action.validate()

    def validate_chi(self) -> None:
        """chi(1) = 1 and units mod N^2; chi(de) = chi(d) chi(e) is read at e in
        S_Delta: the e where it holds for all d are closed under products, so are all."""
        n2, chi = self.N * self.N, self.chi
        if chi[0] % n2 != 1 % n2:
            raise ValidationError("chi(identity) must be 1", witness=0)
        bad = np.gcd(chi, n2) != 1
        if bad.any():
            raise ValidationError("chi value is not a unit mod N^2", witness=int(bad.argmax()))
        SD = self.delta.minimal_generators()
        bad = np.argwhere((chi[:, None] * chi[SD] - chi[self.delta.mul[:, SD]]) % n2)
        if bad.size:
            d, i = map(int, bad[0])
            raise ValidationError("chi is not multiplicative", witness=(d, SD[i]))

    @property
    def chi_mod_n(self) -> np.ndarray:
        return self.chi % self.N

    @staticmethod
    def trivial(G: FiniteGroup, N: int | None = None,
                base_algebraically_closed: bool = False) -> "GaloisDatum":
        one = FiniteGroup(np.zeros((1, 1), dtype=np.int64), validate=False)
        return GaloisDatum(one, G, np.array([1]), GroupAction.trivial(one, G),
                           N, base_algebraically_closed)

    @staticmethod
    def real_like(G: FiniteGroup, N: int | None = None) -> "GaloisDatum":
        """Order-2 Galois group inverting roots of unity, trivial on G."""
        delta = FiniteGroup(np.array([[0, 1], [1, 0]]), validate=False)
        N = N if N is not None else G.order
        chi = np.array([1, N * N - 1])
        return GaloisDatum(delta, G, chi, GroupAction.trivial(delta, G), N)


def _first(defect: np.ndarray, N: int) -> Optional[tuple[int, ...]]:
    """Index of the first entry of ``defect`` that is nonzero mod N, or None."""
    bad = defect % N != 0
    return tuple(map(int, np.unravel_index(bad.argmax(), bad.shape))) if bad.any() else None


def violated_laws(gal: GaloisDatum, fs: np.ndarray,
                  cs: np.ndarray) -> Optional[tuple[int, str, tuple]]:
    """First pair of a stack to break C1, C2 or C3, as (k, law, witness), or None.

    fs is (k, n, n) and cs is (k, |Delta|, n).  C1 is read at first
    arguments g in {1} u S (``cocycle2_defect``), C2 at e in S_Delta =
    ``delta.minimal_generators()`` and C3 at (d, e in S_Delta, g): for a
    validated datum that gives all three laws, as in ``class_module``.
    Witnesses: (g, h, k), (e, g, h) and (d, e, g).  Each law's first bad
    row over the stack lies in the first pair that breaks it, so the least
    (pair, law) among the three, C1 before C2 before C3, is what checking
    the pairs one by one reports first.
    """
    G, N, delta = gal.G, gal.N, gal.delta
    if N == 1 or not len(fs):                       # every law holds mod 1
        return None
    fs, cs = np.asarray(fs, dtype=np.int64), np.asarray(cs, dtype=np.int64)
    act, chi_n = gal.action.table, gal.chi_mod_n
    SD = delta.minimal_generators()
    found = []
    bad = cocycle2_defect(G, scalar_module(N), fs[..., None])
    if bad is not None:
        found.append((bad[0], "C1", bad[1:]))
    # row (k, e, g, h): c_e(gh) - c_e(g) - c_e(h) - f(e.g, e.h) + chi(e) f(g, h)
    ce, ae = cs[:, SD], act[SD]
    bad = _first(ce[:, :, G.mul] - ce[..., None] - ce[:, :, None, :]
                 - fs[:, ae[:, :, None], ae[:, None, :]] + chi_n[SD, None, None] * fs[:, None], N)
    if bad is not None:
        k, i, g, h = bad
        found.append((k, "C2", (SD[i], g, h)))
    # row (k, d, e, g): c_{de}(g) - chi(d) c_e(g) - c_d(e.g)
    bad = _first(cs[:, delta.mul[:, SD]] - chi_n[:, None, None] * ce[:, None] - cs[:, :, ae], N)
    if bad is not None:
        k, d, i, g = bad
        found.append((k, "C3", (d, SD[i], g)))
    return min(found, default=None)


@dataclass
class EquivariantExtension:
    """Pair (f, c) mod N defining a central extension of Delta-groups."""

    gal: GaloisDatum
    f: np.ndarray                   # (n, n)
    c: np.ndarray                   # (|Delta|, n)

    def __post_init__(self):
        N = self.gal.N
        n = self.gal.G.order
        self.f = as_mod(self.f, N)
        self.c = as_mod(self.c, N)
        if self.f.shape != (n, n):
            raise ValidationError("f table has wrong shape")
        if self.c.shape != (self.gal.delta.order, n):
            raise ValidationError("c table has wrong shape")
        # normalize: a cocycle has f(1, -) = f(-, 1) = f(1, 1), so subtract the
        # coboundary pair (db, chi b - b o d) = (b, (chi - 1) b) of the constant b = f(1, 1)
        const = int(self.f[0, 0])
        if const:
            self.f = (self.f - const) % N
            self.c = (self.c - (self.gal.chi_mod_n[:, None] - 1) * const) % N
        if self.f[0].any() or self.f[:, 0].any() or self.c[:, 0].any() or self.c[0].any():
            raise ValidationError("extension pair is not normalizable",
                                  witness=(int(self.f[0].argmax()),))

    @property
    def modulus(self) -> int:
        return self.gal.N

    def violated_law(self) -> Optional[tuple[str, tuple]]:
        """First violated law among C1, C2, C3 with its witness, or None (``violated_laws``)."""
        bad = violated_laws(self.gal, self.f[None], self.c[None])
        return None if bad is None else bad[1:]

    def validated(self) -> "EquivariantExtension":
        v = self.violated_law()
        if v is not None:
            raise ValidationError(f"extension law {v[0]} fails", witness=v[1])
        return self


def zero_extension(gal: GaloisDatum) -> EquivariantExtension:
    n = gal.G.order
    return EquivariantExtension(gal, np.zeros((n, n), dtype=np.int64),
                                np.zeros((gal.delta.order, n), dtype=np.int64))


def baer_sum(e1: EquivariantExtension, e2: EquivariantExtension) -> EquivariantExtension:
    if e1.gal is not e2.gal and (
        e1.gal.N != e2.gal.N
        or e1.gal.G.order != e2.gal.G.order
        or not np.array_equal(e1.gal.G.mul, e2.gal.G.mul)
        or not np.array_equal(e1.gal.chi, e2.gal.chi)
        or not np.array_equal(e1.gal.action.table, e2.gal.action.table)
    ):
        raise MismatchedBase("extensions live over different data")
    return EquivariantExtension(e1.gal, (e1.f + e2.f) % e1.modulus,
                                (e1.c + e2.c) % e1.modulus)


# ---------------------------------------------------------------------------
# the explicit extension group
# ---------------------------------------------------------------------------


@dataclass
class ExtensionGroup:
    """The group of pairs (lambda, g), lambda mod N, with its Delta-action."""

    group: FiniteGroup
    action: GroupAction             # Delta on the extension group
    N: int
    base_order: int

    def pair_index(self, lam: int, g: int) -> int:
        return (lam % self.N) * self.base_order + g


def extension_group(ext: EquivariantExtension, gal: GaloisDatum | None = None,
                    caps: Caps = DEFAULT_CAPS) -> ExtensionGroup:
    """Build the order N*|G| group with law (a,g)(b,h) = (a+b+f(g,h), gh)."""
    gal = ext.gal if gal is None else gal
    G, N = gal.G, gal.N
    n = G.order
    total = N * n
    if total > caps.table_group:
        raise OrderBound("table_group", caps.table_group, total)
    lam = np.repeat(np.arange(N), n)
    gpart = np.tile(np.arange(n), N)
    mul = np.empty((total, total), dtype=np.int64)
    for i in range(total):
        a, g = int(lam[i]), int(gpart[i])
        coeff = (a + lam + ext.f[g, gpart]) % N
        mul[i] = coeff * n + G.mul[g, gpart]
    group = FiniteGroup(mul)
    coeff = (gal.chi_mod_n[:, None] * lam + ext.c[:, gpart]) % N
    action = GroupAction(gal.delta, group, coeff * n + gal.action.table[:, gpart])
    action.validate()
    return ExtensionGroup(group, action, N, n)


# ---------------------------------------------------------------------------
# splitting tests
# ---------------------------------------------------------------------------


def _check_subgroup(G: FiniteGroup, elements) -> np.ndarray:
    elems = np.array(sorted(set(int(x) for x in elements)), dtype=np.int64)
    if elems.size == 0 or elems[0] != 0:
        raise NotASubgroup("subgroup must contain the identity")
    sub = G.mul[np.ix_(elems, elems)]
    if not np.isin(sub, elems).all():
        a, b = map(int, np.argwhere(~np.isin(sub, elems))[0])
        raise NotASubgroup("set not closed", witness=(int(elems[a]), int(elems[b])))
    return elems


def splits_over(ext: EquivariantExtension, elements,
                modulus: int | None = None) -> Optional[np.ndarray]:
    """Witness b with f(g,h) = b(gh) - b(g) - b(h) on H, or None.

    b is indexed by the positions of H's sorted elements.  This is splitting
    of the mu_N-level extension pulled back to H; the Q/Z-level question is
    dies_in_qz of the restriction instead.
    """
    G = ext.gal.G
    N = ext.modulus if modulus is None else modulus
    scale = 1 if modulus is None else modulus // ext.modulus
    elems = _check_subgroup(G, elements)
    H, _ = G.subgroup_table(elems)
    return is_scalar_coboundary(H, -scale * ext.f[np.ix_(elems, elems)], N)


def splits_equivariantly(ext: EquivariantExtension, elements, delta_elements=None,
                         modulus: int | None = None) -> Optional[np.ndarray]:
    """Witness of a Delta'-equivariant splitting over a stable subgroup H.

    Solves jointly: f = -(d b) on H x H and chi(d) b(g) + c_d(g) = b(d.g)
    for d in Delta', g in H.  ``modulus`` lifts the test to a multiple of N
    (tables are scaled by modulus/N, chi is reduced mod modulus).
    """
    gal = ext.gal
    G = gal.G
    N = ext.modulus if modulus is None else modulus
    scale = 1 if modulus is None else modulus // ext.modulus
    elems = _check_subgroup(G, elements)
    dels = np.arange(gal.delta.order) if delta_elements is None \
        else np.array(sorted(set(int(d) for d in delta_elements)), dtype=np.int64)
    imgs = gal.action.table[np.ix_(dels, elems)]
    bad = np.argwhere(~np.isin(imgs, elems))
    if bad.size:
        raise NotStable("subgroup is not stable under the Galois action",
                        witness=(int(dels[bad[0, 0]]), int(elems[bad[0, 1]])))
    k = elems.size
    if k == 1:
        return np.zeros(1, dtype=np.int64)
    H, _ = G.subgroup_table(elems)
    rows = np.vstack([-_coboundary_rows(H, N),
                      _twist_rows(np.searchsorted(elems, imgs), gal.chi[dels], N)])
    rhs = np.concatenate([scale * ext.f[np.ix_(elems[1:], elems[1:])].reshape(-1),
                          -scale * ext.c[np.ix_(dels, elems[1:])].reshape(-1)])
    x = solve(rows % N, rhs % N, N)
    if x is None:
        return None
    b = np.zeros(k, dtype=np.int64)
    b[1:] = x
    return b


def pullback(ext: EquivariantExtension, elements,
             sub_gal: GaloisDatum | None = None) -> tuple[EquivariantExtension, np.ndarray]:
    """Restrict (f, c) along a subgroup inclusion; returns (ext, elements).

    The subgroup must be stable under the Galois action.  The returned
    extension lives over the reindexed subgroup with the induced datum.
    """
    gal = ext.gal
    elems = _check_subgroup(gal.G, elements)
    imgs = gal.action.table[:, elems]
    stable = np.isin(imgs, elems).all(axis=1)
    if not stable.all():
        raise NotStable("subgroup not Galois-stable", witness=int(np.argmin(stable)))
    H, idx = gal.G.subgroup_table(elems)
    new_gal = sub_gal or GaloisDatum(gal.delta, H, gal.chi,
                                     GroupAction(gal.delta, H, np.searchsorted(idx, imgs)),
                                     gal.N, gal.base_algebraically_closed)
    f = ext.f[np.ix_(idx, idx)]
    c = ext.c[:, idx]
    return EquivariantExtension(new_gal, f, c), idx


# ---------------------------------------------------------------------------
# the class module: all pairs (f, c) modulo coboundary pairs
# ---------------------------------------------------------------------------


@dataclass
class ClassModule:
    """Solutions of C1-C3 modulo coboundary pairs, with representatives.

    The tables of the r representatives, one per invariant factor, are
    built once, as stacks: ``fs`` (r, n, n) and ``cs`` (r, |Delta|, n).
    """

    gal: GaloisDatum
    invariant_factors: tuple[int, ...]
    fs: np.ndarray
    cs: np.ndarray
    _sub: Subquotient
    _space: object                  # ReducedCocycleSpace for the f-part

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    def coordinates(self, ext, cs: np.ndarray | None = None) -> Optional[np.ndarray]:
        """Class coordinates of a pair; None if it breaks one of C1-C3.

        A list of k pairs, or a stack of k normalized f-tables (k, n, n)
        with their twists ``cs`` (k, |Delta|, n), gives a (classes, k)
        matrix, one column per pair, from one law check (``violated_laws``)
        and one solve; None if any of them breaks a law.
        """
        n, nd = self.gal.G.order, self.gal.delta.order
        single = isinstance(ext, EquivariantExtension)
        if cs is None:
            exts = [ext] if single else list(ext)
            fs = np.array([e.f for e in exts], dtype=np.int64).reshape(len(exts), n, n)
            cs = np.array([e.c for e in exts], dtype=np.int64).reshape(len(exts), nd, n)
        else:
            fs, cs = np.asarray(ext, dtype=np.int64), np.asarray(cs, dtype=np.int64)
        if violated_laws(self.gal, fs, cs) is not None:
            return None
        space, act = self._space, self.gal.action.table
        SD, S = self.gal.delta.minimal_generators(), space.gens
        # the c-part of the gauged pair: c + chi b - b o d, b(s) = 0
        b = space.gauge(fs[..., S])
        cs = cs[:, SD][:, :, S] - b[:, act[SD][:, S]]
        x = self._sub.coordinates(np.vstack([space.atomize(fs[..., S]).T,
                                             cs.reshape(len(fs), len(SD) * len(S)).T]))
        return x[:, 0] if single and x is not None else x

    def tables(self, coords) -> tuple[np.ndarray, np.ndarray]:
        """Stacks (fs, cs) of the pairs with class coordinates the rows of ``coords``."""
        x, N = as_mod(coords, self.gal.N), self.gal.N
        fs, cs = (x @ t.reshape(len(t), -1) % N for t in (self.fs, self.cs))
        return fs.reshape(-1, *self.fs.shape[1:]), cs.reshape(-1, *self.cs.shape[1:])

    def element(self, coords) -> EquivariantExtension:
        """The pair with these class coordinates, a combination of the representatives."""
        fs, cs = self.tables(np.reshape(coords, (1, -1)))
        return EquivariantExtension(self.gal, fs[0], cs[0])


def _c_expressions(gal: GaloisDatum, space, left_levels, delta_levels) -> np.ndarray:
    """C[d, g, :]: c_d(g) as a combination of the unknowns of ``class_module``.

    The unknowns are the atoms of ``space``, then c_e(s) for e in S_Delta =
    ``delta.minimal_generators()`` (outer) and s in S = ``space.gens``.  For
    e in S_Delta, c_e runs along the left BFS tree of G over S
    (``left_levels``) by C2 at first argument s,
    c_e(s x) = c_e(s) + c_e(x) + f(e.s, e.x) - chi(e) f(s, x), which reads f
    only at first arguments in S and e(S).  The other c_d run along the
    right BFS tree of Delta over S_Delta (``delta_levels``) by C3,
    c_{pe}(g) = chi(p) c_e(g) + c_p(e.g).
    """
    G, N, delta = gal.G, gal.N, gal.delta
    act, chi = gal.action.table, gal.chi_mod_n
    S = np.asarray(space.gens, dtype=np.int64)
    SD = np.asarray(delta.minimal_generators(), dtype=np.int64)
    E = SD[:, None]                                 # c_e for every e at once
    n_atoms = space.n_atoms
    C = np.zeros((delta.order, G.order, n_atoms + SD.size * S.size), dtype=np.int64)
    C[E, S, n_atoms + np.arange(SD.size * S.size).reshape(SD.size, S.size)] = 1
    for x, parent, i in left_levels:
        s = S[i]
        C[E, x] = C[E, s] + C[E, parent]
        C[E, x, :n_atoms] += (space.at(act[E, s], act[E, parent])
                              - chi[E][..., None] * space.at(s, parent))
        C[E, x] %= N
    for x, parent, j in delta_levels:
        e = SD[j]
        C[x] = (chi[parent, None, None] * C[e] + C[parent[:, None], act[e]]) % N
    return C


def class_module(gal: GaloisDatum, caps: Caps = DEFAULT_CAPS) -> ClassModule:
    """Solve C1-C3 mod N and quotient by the coboundary pairs.

    Every pair (f, c) is cohomologous to one with f gauge-fixed: the pair
    of b = ``space.gauge(f)``, (db, chi b - b o d), makes f vanish on the
    tree edges of G (``ReducedCocycleSpace``).  So the system runs on the
    gauged pairs, in generator coordinates: its unknowns are the Schreier
    atoms of f, then c_e(s) for e in S_Delta = ``delta.minimal_generators()``
    and s in S = ``G.minimal_generators()``, (n|S| - n + 1) + |S_Delta||S|
    in all, and every c_d(g) is a fixed combination of them
    (``_c_expressions``).  C1 rows come from the reduced cocycle space.  C2
    rows sit at d = e in S_Delta and first arguments s in S: once f is a
    cocycle, F = dc_e - (e*f - chi(e) f) is a trivial-action 2-cocycle, and
    F(s, h) = 0 for every s in S gives F(sg, h) = F(g, h), so F = 0 by
    induction on the word length of the first argument.  C3 rows sit at
    (d, e, g) with e in S_Delta: with b_d = c_d o d^-1 they read
    b_{de} = b_d + d.b_e, the left 1-cocycle law for the action
    (d.b)(y) = chi(d) b(d^-1.y), which then holds for every e by induction
    on its word length.  C2 at the other d follows from C3:
    dc_{de} = chi(d) dc_e + (dc_d)(e., e.) = (de)*f - chi(de) f by induction
    on the word length of d.  The rows along the three trees vanish
    identically and are not built: C1 at the tree edges of G, C2 at the
    edges of the left tree of G that ``_c_expressions`` follows, C3 at the
    tree edges of Delta.

    A gauged pair is a coboundary pair exactly when its b keeps f gauged,
    db = 0 on the tree edges, i.e. b(x) = word(x) . b(S) (Hopf's formula,
    as for H^2): the |S| columns of ``space.coboundaries`` on the atoms,
    with chi(e) b(s) - b(e.s) on the c_e(s).

    The representatives are expanded into the stacks ``fs`` and ``cs`` of
    the ClassModule, and the laws are checked at every row on the whole
    stack, in one ``violated_laws`` call.
    """
    G, N = gal.G, gal.N
    n = G.order
    act, chi_n = gal.action.table, gal.chi_mod_n
    SD = np.array(gal.delta.minimal_generators(), dtype=np.int64)
    space = reduced_cocycle_space(G, N, autos=act[SD])
    S, n_atoms = np.array(space.gens, dtype=np.int64), space.n_atoms
    dim = n_atoms + len(SD) * len(S)
    caps.check_unknowns(dim)
    left_levels, delta_levels = G.tree_levels(S, left=True), gal.delta.tree_levels(SD)
    C = _c_expressions(gal, space, left_levels, delta_levels)
    # C2: c_e(sh) - c_e(s) - c_e(h) - f(e.s, e.h) + chi(e) f(s, h), h != 1,
    # off the left BFS tree of G over S (h = 1 is on it)
    h, i = np.nonzero(_off_tree(n, len(S), left_levels))
    e, s, h = np.repeat(SD, len(h)), np.tile(S[i], len(SD)), np.tile(h, len(SD))
    c2 = C[e, G.mul[s, h]] - C[e, s] - C[e, h]
    c2[:, :n_atoms] += chi_n[e, None] * space.at(s, h) - space.at(act[e, s], act[e, h])
    # C3: c_{de}(g) - chi(d) c_e(g) - c_d(e.g), g != 1, at the (d, e) off
    # the right BFS tree of Delta over S_Delta (d = 1 is on it)
    d, e = np.nonzero(_off_tree(gal.delta.order, len(SD), delta_levels))
    d, e, g = np.repeat(d, n - 1), np.repeat(SD[e], n - 1), np.tile(np.arange(1, n), len(d))
    c3 = C[gal.delta.mul[d, e], g] - C[d, act[e, g]]
    c3 -= chi_n[d, None] * C[e, g]
    W = _kernel_from_batches(chain(space.c1_batches(dim), [c2, c3]), dim, N)
    # coboundary pairs of b(x) = word(x) . b(S): db on the atoms, then
    # chi(e) b(s) - b(e.s) on the c_e(s)
    twist = chi_n[SD, None, None] * np.eye(len(S), dtype=np.int64) - space.words()[act[SD][:, S]]
    cols = np.vstack([space.coboundaries(), twist.reshape(len(SD) * len(S), len(S)) % N])
    sub = subquotient(W, cols)

    lifts = sub.generator_lifts
    fs, cs = space.expand(lifts[:n_atoms]), np.moveaxis(C @ lifts % N, 2, 0)
    bad = violated_laws(gal, fs, cs)
    if bad is not None:
        raise ValidationError(f"extension law {bad[1]} fails", witness=bad[2])
    return ClassModule(gal, sub.invariant_factors, fs, cs, sub, space)


def kummer_kernel(cm: ClassModule) -> np.ndarray:
    """Coordinates (columns) spanning the classes killed by Q/Z pushforward.

    Generated by the carry/twist pairs of the chi-equivariant characters
    G -> Z/N; these become trivial once the kernel is enlarged to Q/Z(1).
    The pairs go to ``cm.coordinates`` as one stack, checked once.
    """
    gal = cm.gal
    G, N = gal.G, gal.N
    phis = character_group_generators(
        G, N, equivariance=(gal.chi, gal.action.table))
    pairs = [bockstein(G, phi, N, gal.delta, gal.chi, gal.action.table) for phi in phis]
    fs = np.array([f for f, _ in pairs], dtype=np.int64).reshape(-1, G.order, G.order)
    cs = np.array([c for _, c in pairs], dtype=np.int64).reshape(-1, gal.delta.order, G.order)
    x = cm.coordinates(fs, cs)
    if x is None:
        raise AssertionError("equivariant bockstein must satisfy C1-C3")
    return x
