"""The references that the tests and ``brnr selftest`` compare the pipeline against.

The production path decides each condition with one linear map: the class
module, the Kummer quotient, the commuting-pair and Galois rows, and one
span test per place for the Brauer-Manin report.  The functions here
answer its questions the direct way, one class, subgroup or point at a
time, most of them with a witness solved on every row.  No production
module imports this one.

- ``solve`` finds one x with A x = b mod m from the reduced Howell form
  of [A^T | I]; the witnesses below come from it.
- ``is_scalar_coboundary`` solves d1 b = f on every row of the bar
  complex (``_coboundary_rows``), twisted by units or not: the reference
  for ``cohomology.coboundary_mask``.  ``dies_in_qz`` asks it at level
  N exp(B), and ``bogomolov_condition`` asks that on every bicyclic
  subgroup: the reference for the commuting-pair rows.
- ``galois_condition`` evaluates the closed-form obstruction at every
  admissible triple (``_admissible_triples``), not one per (d, <tau>):
  the reference for ``engine._galois_rows``.  ``is_unramified`` takes both
  conditions for one class, and ``selfchecks`` runs it on every class of
  the class module against ``br_nr``.
- ``bockstein`` tabulates the carry cocycle of a character and its
  Galois twist, the reference for ``cohomology.kummer_columns``, and
  ``commuting_pair_rows_of_tables`` reads the commuting-pair rows off
  whole tables, the reference for their path sums.  ``zero_extension``
  and ``baer_sum`` build pairs for the tests.
- ``subgroups_abelian`` lists every abelian subgroup (with
  ``centralizer``), for the Sha^2_ab = Sha^2_bic tests through
  ``selfchecks.family_by_pairs``;
  ``subgroup_module`` views a module over a subgroup, for restriction one
  subgroup at a time; ``tate_h0`` is invariants modulo norms, which the
  group-ring example's H^1 is checked against.
- ``extension_group`` tabulates Z/N x_f G with its Delta-action, for the
  section searches; ``splits_over`` and ``splits_equivariantly`` solve for
  a splitting on a subgroup.
- ``extension_from_q_cocycle`` writes the pair (f, 0) of a fast-path class
  on the tabulated N x| Q; ``direct_product_extension_group`` and
  ``semidirect_cocycle_from_section`` build the same extension from its
  displayed action, which cross-checks that formula.
- ``evaluate`` evaluates one class at one point: the whole table, its
  cocycle check and a solve on every row, against ``bm_report``'s span test.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .cohomology import (
    _d0_columns,
    _generator_pairs,
    _lattice_columns,
    _row_scales,
    cocycle1_defect,
    cocycle2_defect,
    family_generators,
    scalar_module,
)
from .engine import _galois_obstructions
from .errors import NotACocycle, NotASubgroup, OrderBound, ValidationError
from .extensions import EquivariantExtension, GaloisDatum
from .fastpath import SemidirectDatum
from .groups import AbelianModule, FiniteGroup, GroupAction, semidirect_product
from .localeval import _DETAILS, UNKNOWN, ZERO, LocalDatum, NonabelianCocycle, _beta_tables
from .zmod import Subquotient, _howell_residue, as_mod, echelon_compress, kernel, subquotient


# ---------------------------------------------------------------------------
# errors that only the references raise
# ---------------------------------------------------------------------------


class NotStable(ValidationError):
    """A subgroup is not stable under the required group action."""


class NotEquivariant(ValidationError):
    """A character fails the required twisted equivariance law."""


class MismatchedBase(ValidationError):
    """Two extensions do not share the same base group / Galois datum."""


class InvalidCocycle(ValidationError):
    """A nonabelian 1-cocycle table fails the twisted cocycle law."""


# ---------------------------------------------------------------------------
# linear algebra
# ---------------------------------------------------------------------------


def solve(A: np.ndarray, b: np.ndarray, m: int) -> Optional[np.ndarray]:
    """One solution x of A x = b mod m, or None.

    ``b`` is a vector or a matrix; a matrix gives None if any column is
    inconsistent.  The rows of [A^T | I] span the ((A y)^T, y^T), so
    reducing [b^T | 0] against their reduced Howell form E
    (``_howell_residue``) leaves [(b - A y)^T | -y^T] for some y, and x = y
    if its A-part is 0.  The residue is the same for the whole coset of
    [b^T | 0] modulo the span; when b = A y that coset holds [0 | -y^T],
    which no pivot row led at an A-column changes.  So the A-part vanishes
    exactly when b lies in colspan(A).  Every column of b is reduced at once.
    """
    A, b = as_mod(A, m), as_mod(b, m)
    r, c = A.shape
    B = (b if b.ndim > 1 else b[:, None]).T
    E = echelon_compress(np.hstack([A.T, np.eye(c, dtype=np.int64)]), m)
    X = _howell_residue(E, np.hstack([B, np.zeros((len(B), c), dtype=np.int64)]), m)
    if X[:, :r].any():
        return None
    return (-X[:, r:].T % m).reshape((c,) + b.shape[1:])


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------


def _coboundary_rows(B: FiniteGroup, M: AbelianModule | int) -> np.ndarray:
    """Scaled matrix of d1 on 1-cochains: a -> g.a(h) - a(gh) + a(g) mod exp(M).

    Rows are the pairs (g, h) with g != 1 outer and h != 1 inner, then the
    coordinates i of M, each scaled into Z/exp(M) by exp(M)/d_i; columns
    are a(1), ..., a(|B|-1), coordinate inner.  An integer m stands for Z/m
    with trivial action; a unit twist u(g) is the rank-1 module
    ``scalar_module(m, B, u)``.
    """
    n = B.order
    if isinstance(M, AbelianModule):
        r, m, acts, scales = M.rank, M.exponent, M.action, _row_scales(M)
    else:
        r, m, acts, scales = 1, M, None, np.ones(1, dtype=np.int64)
    eye = np.eye(r, dtype=np.int64)
    acts = np.broadcast_to(eye, (n, r, r)) if acts is None else acts
    g = np.arange(1, n)[:, None]
    h = np.arange(1, n)[None, :]
    out = np.zeros((n - 1, n - 1, r, n, r), dtype=np.int64)   # block 0 is a(1) = 0
    out[g - 1, h - 1, :, h, :] += acts[1:, None]
    out[g - 1, h - 1, :, g, :] += eye
    out[g - 1, h - 1, :, B.mul[g, h], :] -= eye
    out *= scales[:, None, None]
    return out[:, :, :, 1:].reshape((n - 1) * (n - 1) * r, (n - 1) * r) % m


def _twist_rows(act: np.ndarray, chi: np.ndarray, m: int) -> np.ndarray:
    """Matrix of b -> chi(d) b(g) - b(d.g) mod m on scalar 1-cochains.

    Row block d uses the images ``act[d]`` and the unit ``chi[d]``; rows are
    the elements g != 1 and columns are b(1), ..., b(n-1).
    """
    nd, n = act.shape
    d = np.arange(nd)[:, None]
    g = np.arange(1, n)[None, :]
    out = np.zeros((nd, n - 1, n), dtype=np.int64)        # column 0 is b(1) = 0
    out[d, g - 1, g] += np.asarray(chi, dtype=np.int64)[:, None] % m
    out[d, g - 1, act[:, 1:]] -= 1
    return out[:, :, 1:].reshape(nd * (n - 1), n - 1) % m


def is_scalar_coboundary(B: FiniteGroup, table: np.ndarray, m: int,
                         units: np.ndarray | None = None) -> Optional[np.ndarray]:
    """Witness b with d1 b = table for scalar coefficients (optional unit twist).

    With a twist, (d1 b)(g, h) = u(g) b(h) - b(gh) + b(g).  Every row is
    solved: the reference for ``coboundary_mask``.
    """
    n = B.order
    table = as_mod(table, m).reshape(n, n)
    if n == 1:
        return np.zeros(1, dtype=np.int64)
    coeffs = m if units is None or m == 1 else scalar_module(m, B, units)
    x = solve(_coboundary_rows(B, coeffs), table[1:, 1:].reshape(-1), m)
    if x is None:
        return None
    b = np.zeros(n, dtype=np.int64)
    b[1:] = x
    return b


def dies_in_qz(f_table: np.ndarray, B: FiniteGroup, N: int) -> bool:
    """Whether a mod-N class on B dies after pushing into Q/Z.

    Equivalent test: e*f becomes a coboundary mod N*e, where e = exp(B).
    """
    e = B.exponent
    n = B.order
    f = as_mod(f_table, N).reshape(n, n)
    if n == 1 or not f.any():
        return True
    return is_scalar_coboundary(B, e * f, N * e) is not None


def tate_h0(G: FiniteGroup, M: AbelianModule) -> Subquotient:
    """Invariants modulo norms: M^G / N_G(M), in the coordinates of M mod exp(M)."""
    m = M.exponent
    scales = np.tile(_row_scales(M), G.order - 1)[:, None]
    W = kernel(_d0_columns(M, range(1, G.order)) * scales % m, m)
    norm = sum(M.matrix(g) for g in range(G.order)) % m
    return subquotient(W, np.hstack([norm, _lattice_columns(1, M)]))


def subgroup_module(M: AbelianModule, H: FiniteGroup, elements: np.ndarray) -> AbelianModule:
    """The coefficient module viewed over a subgroup of its actor."""
    if M.action is None:
        return AbelianModule(M.invariant_factors, H, None) if H is not None else M
    return AbelianModule(M.invariant_factors, H, M.action[np.asarray(elements)])


def centralizer(G: FiniteGroup, elements) -> np.ndarray:
    """The elements that commute with g, or with every element of a list."""
    h = np.atleast_1d(elements)
    return np.flatnonzero((G.mul[h] == G.mul[:, h].T).all(axis=0))


def subgroups_abelian(G: FiniteGroup) -> list[tuple[int, ...]]:
    """All abelian subgroups, grown by extending with centralizing elements."""
    found = {G.closure([g]) for g in G.cyclic_generators}
    frontier = list(found)
    while frontier:
        H = frontier.pop()
        for g in np.setdiff1d(centralizer(G, list(H)), H).tolist():
            H2 = G.closure(list(H) + [g])
            if H2 not in found:
                found.add(H2)
                frontier.append(H2)
    return sorted(found, key=lambda h: (len(h), h))


# ---------------------------------------------------------------------------
# the explicit extension group and splitting
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


# ---------------------------------------------------------------------------
# degree-2 classes as tables: Bocksteins, commuting-pair rows, Baer sums
# ---------------------------------------------------------------------------


def bockstein(G: FiniteGroup, phi: np.ndarray, N: int,
              delta: FiniteGroup | None = None,
              chi: np.ndarray | None = None,
              action_table: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Carry 2-cocycle of a character lift, plus the Galois twist table.

    phi must be a homomorphism G -> Z/N; with a nontrivial chi (given mod
    N^2) it must satisfy phi(d.g) = chi(d) phi(g) mod N.  Returns
    (f, c): f(g,h) = (phi(g)+phi(h)-phi(gh))/N mod N lifted through N^2,
    c_d(g) = (chi(d) phi(g) - phi(d.g))/N mod N.
    """
    n = G.order
    phi = as_mod(phi, N)
    bad = np.argwhere((phi[:, None] + phi[None, :] - phi[G.mul]) % N)
    if bad.size:
        raise NotACocycle("phi is not a homomorphism", witness=tuple(map(int, bad[0])))
    lift = phi.astype(np.int64)  # canonical integer lift in [0, N)
    f = (lift[:, None] + lift[None, :] - lift[G.mul])
    if (f % N).any():
        raise AssertionError("carry defect")
    f = (f // N) % N
    if delta is None:
        return f, np.zeros((1, n), dtype=np.int64)
    nd = delta.order
    chi = as_mod(chi, N * N)
    acted = lift[action_table]  # (delta, g) -> phi(d.g)
    c = (chi[:, None] * lift[None, :] - acted)
    if (c % N).any():
        d, g = map(int, np.argwhere(c % N)[0])
        raise NotEquivariant("character is not chi-equivariant", witness=(d, g))
    c = (c % (N * N)) // N % N
    c[0] = 0
    c[:, 0] = 0
    return f, c


def commuting_pair_rows_of_tables(G: FiniteGroup, tables,
                                  N: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """``cohomology.commuting_pair_rows`` read off whole tables: the pairs,
    and one row per pair with entry t[x, y] - t[y, x] for each table t."""
    x, y = _generator_pairs(G)
    T = np.asarray(tables, dtype=np.int64)
    return list(zip(x.tolist(), y.tolist())), (T[:, x, y] - T[:, y, x]).T % N


def zero_extension(gal: GaloisDatum) -> EquivariantExtension:
    """The pair (0, 0)."""
    n = gal.G.order
    return EquivariantExtension(gal, np.zeros((n, n), dtype=np.int64),
                                np.zeros((gal.delta.order, n), dtype=np.int64))


def baer_sum(e1: EquivariantExtension, e2: EquivariantExtension) -> EquivariantExtension:
    """The pair (f1 + f2, c1 + c2) of two extensions over the same datum."""
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
# the unramified conditions, one class at a time
# ---------------------------------------------------------------------------


def bogomolov_condition(ext: EquivariantExtension,
                        bicyclics: list | None = None) -> tuple[bool, Optional[tuple]]:
    """True iff the Q/Z-pushforward of f splits on every bicyclic subgroup."""
    G, N = ext.gal.G, ext.gal.N
    if bicyclics is None:
        bicyclics = [G.closure(gens) for gens in family_generators(G, "bic")]
    for elems in bicyclics:
        if len(elems) == 1:
            continue
        B, idx = G.subgroup_table(elems)
        if not dies_in_qz(ext.f[np.ix_(idx, idx)], B, N):
            return False, tuple(int(e) for e in elems)
    return True, None


def _admissible_triples(gal: GaloisDatum):
    """Yield (d, tau, gamma) with gamma (d.tau) gamma^-1 = tau^chi(d)."""
    G = gal.G
    for d in range(gal.delta.order):
        for tau in range(G.order):
            target = G.power(tau, int(gal.chi[d]) % G.element_order(tau))
            conj = G.mul[G.mul[:, gal.action.table[d, tau]], G.inv]   # gamma (d.tau) gamma^-1
            for gamma in np.nonzero(conj == target)[0]:
                yield d, tau, int(gamma)


def galois_condition(ext: EquivariantExtension) -> tuple[bool, Optional[tuple]]:
    """Condition (ii) over all of Delta and all admissible (tau, gamma)."""
    gal = ext.gal
    if gal.base_algebraically_closed:
        return True, None
    triples = list(_admissible_triples(gal))
    bad = np.nonzero(_galois_obstructions(gal, triples, ext.f[None], ext.c[None]))[0]
    if bad.size:
        return False, triples[bad[0]]
    return True, None


def is_unramified(ext: EquivariantExtension,
                  bicyclics: list | None = None) -> tuple[bool, Optional[tuple]]:
    """Both conditions; the witness names the first failure."""
    ok, wit = bogomolov_condition(ext, bicyclics)
    if not ok:
        return False, ("bogomolov", wit)
    ok, wit = galois_condition(ext)
    if not ok:
        return False, ("galois", wit)
    return True, None


# ---------------------------------------------------------------------------
# fast-path classes as tabulated extensions
# ---------------------------------------------------------------------------


def extension_from_q_cocycle(sd: SemidirectDatum, a_table: np.ndarray,
                             gal: GaloisDatum | None = None,
                             caps: Caps = DEFAULT_CAPS) -> EquivariantExtension:
    """The explicit extension pair of a 1-cocycle a on Q valued in N^.

    Requires a tabulated G = N x| Q; use the module-level class for large N.
    The pair is (f, 0) with f((n1,q1),(n2,q2)) = a(q1^-1)(n2), embedded into
    Z/|G| by the scale |G|/exp(N).
    """
    a_table = sd.N_hat.reduce(a_table)
    defect = cocycle1_defect(sd.Q, sd.N_hat, a_table)
    if defect is not None:
        raise NotACocycle("a is not a 1-cocycle on Q", witness=defect)
    sdg = semidirect_product(sd.N, sd.Q, caps=caps)
    G = sdg.group
    if gal is None:
        gal = GaloisDatum.trivial(G, G.order, base_algebraically_closed=True)
    _require_coefficient_only_action(sd, gal)
    N_big = gal.N
    e = sd.N.exponent
    scale = N_big // e
    nQ = sd.Q.order
    n_vecs = np.array(list(np.ndindex(*sd.N.invariant_factors)), dtype=np.int64)
    e_over_d = np.array([e // d for d in sd.N.invariant_factors], dtype=np.int64)
    f = np.zeros((G.order, G.order), dtype=np.int64)
    qinv = sd.Q.inv
    # f[(n1,q1),(n2,q2)] = < a(q1^-1), n2 > : independent of n1, q2
    for q1 in range(nQ):
        phi = a_table[int(qinv[q1])]
        vals = (n_vecs @ (phi * e_over_d)) % e          # one per n2
        block = np.repeat(vals, nQ) * scale % N_big     # over (n2, q2)
        rows = np.arange(G.order)[sdg.project_q == q1]
        f[rows, :] = block[None, :]
    c = np.zeros((gal.delta.order, G.order), dtype=np.int64)
    return EquivariantExtension(gal, f, c).validated()


def _require_coefficient_only_action(sd: SemidirectDatum, gal: GaloisDatum) -> None:
    e = sd.N.exponent
    bad = as_mod(gal.chi, e) != 1 % e
    if bad.any():
        raise ValidationError(
            "chi must be 1 mod exp(N): the coefficient roots of unity must "
            "already be in the base field", witness=int(bad.argmax()))
    bad = (gal.action.table != np.arange(gal.G.order)).any(axis=1)
    if bad.any():
        raise ValidationError("the Galois action must fix G pointwise",
                              witness=int(bad.argmax()))


def direct_product_extension_group(sd: SemidirectDatum, a_table: np.ndarray,
                                   caps: Caps = DEFAULT_CAPS):
    """The group (Z/e x N) x|_a Q built directly from its displayed action.

    Returns its SemidirectGroup, whose section ((0, n), q)
    ``semidirect_cocycle_from_section`` reads: that cross-checks the
    coordinate formula of ``extension_from_q_cocycle``.
    """
    e = sd.N.exponent
    big_factors = (e,) + tuple(sd.N.invariant_factors)
    r = sd.N.rank
    # action of Q on Z/e + N: q . (lam, n) = (lam + a(q^-1)(n), q.n)
    nQ = sd.Q.order
    mats = np.zeros((nQ, r + 1, r + 1), dtype=np.int64)
    e_over_d = np.array([e // d for d in sd.N.invariant_factors], dtype=np.int64)
    for q in range(nQ):
        mats[q, 0, 0] = 1
        phi = sd.N_hat.reduce(a_table[int(sd.Q.inv[q])])
        mats[q, 0, 1:] = (phi * e_over_d) % e
        mats[q, 1:, 1:] = sd.N.matrix(q)
    big = AbelianModule(big_factors, sd.Q, mats)
    big.validate()
    return semidirect_product(big, sd.Q, caps=caps)


def semidirect_cocycle_from_section(sd: SemidirectDatum, sdg_big,
                                    caps: Caps = DEFAULT_CAPS) -> np.ndarray:
    """Extract the extension cocycle of (Z/e x N) x|_a Q at its section.

    The section sends (n, q) to ((0, n), q); the product of two section
    values differs from the section of the product by a central (lam, 0, q=1)
    whose lam-part is the cocycle value.  Indices run over lam first, so
    ((0, n), q) has the index of (n, q) in N x| Q, and ((lam, n), q) that
    plus lam |N x| Q|.
    """
    small = semidirect_product(sd.N, sd.Q, caps=caps).group
    lam, rest = np.divmod(sdg_big.group.mul[:small.order, :small.order], small.order)
    if (rest != small.mul).any():
        raise AssertionError("section defect is not central")
    return lam


# ---------------------------------------------------------------------------
# evaluation at one local point
# ---------------------------------------------------------------------------


@dataclass
class EvaluationResult:
    beta: np.ndarray | None
    verdict: str
    detail: str = ""


def cocycle_defect_nonabelian(ld: LocalDatum, gal: GaloisDatum,
                              table: np.ndarray) -> Optional[tuple[int, int]]:
    """First (s, t) with h(st) != h(s) * (s . h(t)), or None."""
    act = ld.action_v(gal)
    s = np.arange(ld.delta_v.order)[:, None]
    bad = np.argwhere(table[ld.delta_v.mul] != gal.G.mul[table[s], act[s, table]])
    return tuple(map(int, bad[0])) if bad.size else None


def evaluate(ext: EquivariantExtension, ld: LocalDatum,
             h: NonabelianCocycle) -> EvaluationResult:
    """Evaluate a table-level class at a local point.

    Zero is certified by a coboundary witness; a nonzero finite-level class
    is reported Unknown (inflation to the local Brauer group need not be
    injective).  The certified-nonzero pathway lives on the fast-path
    entries, which carry a local-duality witness.
    """
    gal = ext.gal
    ld.validate(gal)
    defect = cocycle_defect_nonabelian(ld, gal, h.table)
    if defect is not None:
        raise InvalidCocycle("point table violates the twisted cocycle law",
                             witness=defect)
    beta = _beta_tables(ext.f[None], ext.c[None], ld, gal, h.table,
                        np.arange(ld.delta_v.order))[0]
    chi_v = as_mod(ld.chi_v(gal), gal.N)
    if gal.N > 1:
        defect2 = cocycle2_defect(ld.delta_v, scalar_module(gal.N, ld.delta_v, chi_v),
                                  beta[..., None])
        if defect2 is not None:
            raise AssertionError(f"evaluation table is not a 2-cocycle at {defect2}")
    verdict = UNKNOWN if is_scalar_coboundary(ld.delta_v, beta, gal.N,
                                              units=chi_v) is None else ZERO
    return EvaluationResult(beta, verdict, _DETAILS[verdict])
