"""Decision procedures for unramified classes and the main pipeline.

A class (f, c) is unramified iff

  (i)  its Q/Z-pushforward splits on every bicyclic subgroup of G, which
       holds iff f(x, y) = f(y, x) mod N for every commuting pair x, y
       (an extension of an abelian group by the divisible Q/Z splits iff
       it is abelian), and
  (ii) for every d in Delta and every pair (tau, gamma) with
       gamma (d.tau) gamma^-1 = tau^chi(d), a lift of <tau> into the
       Q/Z(1)-extension exists whose d-conjugate by a lift of gamma is its
       chi(d)-th power.

The lift of <tau> always exists, as Q/Z(1) is divisible, so (ii) is the
vanishing of one closed-form value mod N per admissible triple
(d, tau, gamma), linear in (f, c) (_galois_obstructions).  So both
conditions are matrices with one column per pair: (i) has a row per
commuting pair of least cyclic generators (cohomology.commuting_pair_rows),
and beside (i), (ii) needs one row per (d, <tau>) (_galois_rows).  br_nr
stacks them over the generators of the class module modulo Kummer
classes: Br^0_nr is the kernel, and each generator's verdict is its
column, with the first nonzero row as witness.  algebraic_unramified
reads the classes with f = 0, H^1(Delta, G^(chi)), off one h1 call.  b0,
br_nr, algebraic_unramified and the Kummer quotient each hand their rows
to one cohomology.class_subgroup call, and no class is enumerated.  The
rows of (i) and the Kummer classes are read off the Schreier atoms.

b0 first counts.  For every modulus m, the gauged 2-cocycles mod m that
are symmetric on the commuting pairs number |B_0(G)[m]| m^|S|: the
Bocksteins of H^1(G, Q/Z), of order |Hom(G, Z/m)|, are the classes mod m
that die in Q/Z, and they cancel against the gauged coboundaries, of order
m^|S| / |Hom(G, Z/m)| (proof at ``cohomology.b0_torsion_order``).  As |G|
kills B_0, B_0 = 0 iff B_0[rad |G|] = 0, one count mod the product of the
primes of |G|; only a nonzero B_0 solves H^2 mod |G| and its Kummer
quotient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .cohomology import (
    ShaResult,
    _cocycle1_space,
    _power_sums,
    b0_torsion_order,
    character_group_generators,
    class_subgroup,
    commuting_pair_rows,
    h1,
    h2,
    kummer_columns,
    scalar_module,
    sha,
)
from .errors import PreconditionViolated, ValidationError
from .extensions import (
    ClassModule,
    EquivariantExtension,
    GaloisDatum,
    class_module,
    kummer_kernel,
)
from .groups import AbelianModule, FiniteGroup
from .zmod import _prime_powers, kernel


# ---------------------------------------------------------------------------
# condition (ii): the Galois condition, closed form and brute force
# ---------------------------------------------------------------------------


def _galois_obstructions(gal: GaloisDatum, triples, fs: np.ndarray,
                         cs: np.ndarray) -> np.ndarray:
    """Obstruction values mod N: one row per triple, one column per pair (f, c).

    For an admissible (d, tau, gamma), n = ord(tau) and chi(d) = q n + j,
    the value is

      c_d(tau) + f(gamma, d.tau) + f(gamma (d.tau), gamma^-1) - f(gamma, gamma^-1)
               - T_j - q T_n,     T_k = sum_{i=1}^{k-1} f(tau^i, tau),

    and the lift-and-conjugate condition holds iff it is 0.  The value is
    linear in (f, c), so deciding the condition is a matrix product.
    fs is (pairs, |G|, |G|), cs is (pairs, |Delta|, |G|).
    """
    G, N = gal.G, gal.N
    d, tau, gamma = np.asarray(triples, dtype=np.int64).reshape(-1, 3).T
    n = G.element_orders[tau]
    q, j = np.divmod(gal.chi[d], n)
    T = _power_sums(G, fs, N)  # T[:, k, tau] = T_k
    d_tau = gal.action.table[d, tau]
    ginv = G.inv[gamma]
    vals = (cs[:, d, tau] + fs[:, gamma, d_tau] + fs[:, G.mul[gamma, d_tau], ginv]
            - fs[:, gamma, ginv] - T[:, j, tau] - q * T[:, n, tau])
    return (vals % N).T


def _require_admissible(gal: GaloisDatum, d: int, tau: int, gamma: int) -> None:
    G = gal.G
    target = G.power(tau, int(gal.chi[d]) % G.element_order(tau))
    if G.conjugate(int(gal.action.table[d, tau]), gamma) != target:
        raise PreconditionViolated(
            "gamma (d.tau) gamma^-1 != tau^chi(d)", witness=(d, tau, gamma))


# perfbench/oracles.py reads this and galois_condition_bruteforce from engine
def galois_condition_single(ext: EquivariantExtension, d: int, tau: int,
                            gamma: int) -> bool:
    """Closed-form test of the lift-and-conjugate condition for one triple."""
    _require_admissible(ext.gal, d, tau, gamma)
    return not _galois_obstructions(ext.gal, [(d, tau, gamma)],
                                    ext.f[None], ext.c[None]).any()


def galois_condition_bruteforce(ext: EquivariantExtension, d: int, tau: int,
                                gamma: int) -> bool:
    """Exhaustive search in the explicit Z/(n N)-level extension group.

    The Q/Z(1)-kernel is modelled at modulus n*N (n = ord tau), where every
    lift of <tau> exists; the search ranges over all lifts psi(tau) = (b, tau)
    of the right order and checks the conjugation identity with the
    zero-coordinate lift of gamma (central shifts cancel).
    """
    gal = ext.gal
    G, N = gal.G, gal.N
    _require_admissible(gal, d, tau, gamma)
    n = G.element_order(tau)
    m = n * N
    chi_int = int(gal.chi[d])
    f_big = (n * ext.f) % m
    c_big = (n * ext.c) % m
    chi_m = chi_int % m

    def mul(x, y):
        return ((x[0] + y[0] + f_big[x[1], y[1]]) % m, int(G.mul[x[1], y[1]]))

    def inv(x):
        lam, g = x
        gi = int(G.inv[g])
        return ((-lam - f_big[g, gi]) % m, gi)

    def power(x, k):
        out = (0, 0)
        for _ in range(k):
            out = mul(out, x)
        return out

    def act(dd, x):
        return ((chi_m * x[0] + c_big[dd, x[1]]) % m, int(gal.action.table[dd, x[1]]))

    e_gamma = (0, gamma)
    for b in range(m):
        psi = (b, tau)
        if power(psi, n) != (0, 0):
            continue
        lhs = mul(mul(e_gamma, act(d, psi)), inv(e_gamma))
        rhs = power(psi, chi_int)
        if lhs == rhs:
            return True
    return False


def _galois_rows(gal: GaloisDatum) -> np.ndarray:
    """The rows (d, tau, gamma) that decide condition (ii) beside condition (i).

    One row per d != 1 and cyclic subgroup <tau> != 1 that admits a gamma:
    tau is the least generator of <tau>, gamma the least admissible one.
    The value v at (d, tau, gamma) reads the central element
    delta = g d(psi) g^-1 psi^-chi(d) of the extension at level Z/(nN),
    n = ord tau, as delta = n v, for psi a lift of tau of order n and g one
    of gamma; central shifts cancel, so delta depends on neither lift.
    Every other admissible triple adds nothing to the commuting-pair rows:

    - d = 1 gives the commuting-pair row f(gamma, tau) - f(tau, gamma), and
      <tau> = 1 gives 0.
    - For gamma' = z gamma also admissible, z centralizes t = tau^chi(d),
      and conjugating by a lift of z multiplies delta by the commutator of
      the lifts of z and t: v changes by the commuting-pair row at (z, t).
    - For k a unit mod n, gamma is admissible for (d, tau^k) and psi^k
      lifts tau^k with order n, so delta(tau^k) = delta(tau)^k, delta being
      central.  As g d(psi) g^-1 and psi^chi(d) commute and have n-th power
      1, delta(tau)^n = 1, and delta(tau) = delta(tau^k)^k' for
      k k' = 1 mod n: the rows at tau and tau^k are multiples of each other.

    So the kernel is that of every admissible triple with d != 1.  A column
    that passes the commuting-pair rows is 0 at every gamma or at none, and
    at every generator of <tau> or at none, so its first nonzero row, the
    witness in br_nr's report, is the first nonzero admissible triple.
    """
    G = gal.G
    taus = G.cyclic_generators[1:]
    d = np.repeat(np.arange(1, gal.delta.order), len(taus))
    tau = np.tile(taus, gal.delta.order - 1)
    target = G.powers[gal.chi[d] % G.element_orders[tau], tau]
    conj = G.mul[G.mul[:, gal.action.table[d, tau]], G.inv[:, None]]   # conj[gamma, row]
    hit = conj == target
    ok = hit.any(axis=0)
    return np.stack([d[ok], tau[ok], hit.argmax(axis=0)[ok]], axis=1)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class BrauerReport:
    """Structure of a computed (sub)group of Brauer classes."""

    invariant_factors: tuple[int, ...]
    representatives: list[EquivariantExtension]
    ambient: ClassModule | None
    # br_nr: one entry per Kummer-quotient generator e_i, as (coordinates of
    # e_i, verdict of its column, witness of its first nonzero row):
    # ("bogomolov", (x, y)) for a commuting pair or ("galois", (d, tau, gamma))
    tested: list[tuple[tuple, bool, Optional[tuple]]] = field(default_factory=list)
    label: str = ""

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)


def b0(G: FiniteGroup, caps: Caps = DEFAULT_CAPS) -> BrauerReport:
    """The subgroup of H^2(G, Q/Z) dying on every bicyclic subgroup.

    Classes of H^2(G, Z/N), N = |G|, whose Q/Z-pushforward dies on every
    bicyclic subgroup, modulo the Kummer classes (Bocksteins of characters
    G -> Z/N), which are exactly the classes the pushforward kills, all on
    the Schreier atoms (``commuting_pair_rows``, ``kummer_columns``).

    B_0 = 0 is decided first, over the primes of N.  N kills B_0, so
    B_0 = 0 iff B_0[r] = 0 for r = rad N, the product of the primes
    dividing N.  For every m, |Z_sym(m)| = |B_0[m]| m^|S|, Z_sym(m) the
    gauged cocycles mod m symmetric on the commuting pairs
    (``b0_torsion_order``): H^2(G, Z/m) maps onto H^2(G, Q/Z)[m] with
    kernel the Bocksteins of H^1(G, Q/Z), of order |Hom(G, Z/m)|; those
    are symmetric on commuting pairs, so the symmetric classes have order
    |B_0[m]| |Hom(G, Z/m)|; and the gauged coboundaries have order
    m^|S| / |Hom(G, Z/m)|.  So one kernel mod r and one kernel order
    decide B_0 = 0, and only a nonzero B_0 solves H^2 mod N.
    """
    N = G.order
    if N == 1 or b0_torsion_order(G, _radical(N), caps) == 1:
        return BrauerReport((), [], None, label="B_0")
    ambient = h2(G, scalar_module(N), caps)
    space, sub = ambient.space, ambient.sub
    _, S = commuting_pair_rows(space, sub.generator_lifts)
    kummer = sub.coordinates(kummer_columns(space, character_group_generators(G, N)))
    if kummer is None:
        raise AssertionError("a Bockstein must be a cocycle")
    factors, coords = class_subgroup(S, ambient.invariant_factors, N, kummer)
    gal = GaloisDatum.trivial(G, N, base_algebraically_closed=True)
    reps = [EquivariantExtension(gal, ambient.element_table(x)[:, :, 0],
                                 np.zeros((1, N), dtype=np.int64)) for x in coords]
    return BrauerReport(factors, reps, None, label="B_0")


def _radical(n: int) -> int:
    """The product of the distinct primes dividing n >= 1."""
    return math.prod(next(p for p in range(2, q + 1) if q % p == 0) for q in _prime_powers(n))


def sha2_ab(G: FiniteGroup, modulus: int, caps: Caps = DEFAULT_CAPS) -> ShaResult:
    """Classes of H^2(G, Z/m) dying on every abelian subgroup (literal mod m)."""
    if modulus < 2:
        raise ValidationError("sha2ab modulus must be at least 2", witness=modulus)
    return sha(G, scalar_module(modulus), 2, "ab", caps=caps)


def _kummer_quotient(cm: ClassModule) -> tuple[tuple[int, ...], np.ndarray]:
    """Orders of the generators of the class module mod Kummer classes, and
    their class coordinates, one row each."""
    orders = cm.invariant_factors
    factors, coords = class_subgroup(np.zeros((0, len(orders)), dtype=np.int64), orders,
                                     cm.gal.N, kummer_kernel(cm))
    return factors, np.reshape(coords, (len(coords), len(orders)))


def br_nr(gal: GaloisDatum, caps: Caps = DEFAULT_CAPS) -> BrauerReport:
    """The full pipeline: class module, Kummer quotient, unramified filter.

    Both conditions are linear on the Kummer quotient: Br^0_nr is the
    kernel of the commuting-pair rows stacked on the Galois rows
    (``_galois_rows``), one column per quotient generator.  The
    commuting-pair rows read its atoms, the Galois rows its tables (fs, cs),
    and pairs are built only for the representatives of the report.
    """
    cm = class_module(gal, caps)
    if not cm.invariant_factors:
        return BrauerReport((), [], cm, label="Br0_nr")
    q_orders, coords = _kummer_quotient(cm)
    s = len(q_orders)
    if s == 0:
        return BrauerReport((), [], cm, label="Br0_nr")
    N = gal.N
    fs, cs = cm.tables(coords)
    atoms = cm._sub.generator_lifts[:cm._space.n_atoms] @ coords.T
    pairs, S = commuting_pair_rows(cm._space, atoms)
    triples = np.zeros((0, 3), dtype=np.int64) if gal.base_algebraically_closed \
        else _galois_rows(gal)
    A = np.vstack([S, _galois_obstructions(gal, triples, fs, cs)])
    witnesses = [("bogomolov", p) for p in pairs] + \
        [("galois", tuple(t)) for t in triples.tolist()]

    tested = []
    for i, col in enumerate(A.T):
        bad = np.nonzero(col)[0]
        tested.append((tuple(int(k == i) for k in range(s)), not bad.size,
                       witnesses[bad[0]] if bad.size else None))
    # q_i times generator i is a Kummer class up to coboundaries, where both
    # conditions hold; so the kernel is well defined on the quotient
    factors, coords = class_subgroup(A, q_orders, N)
    reps = [EquivariantExtension(gal, np.tensordot(x, fs, axes=1) % N,
                                 np.tensordot(x, cs, axes=1) % N) for x in coords]
    return BrauerReport(factors, reps, cm, tested, label="Br0_nr")


def _character_module(gal: GaloisDatum) -> tuple[np.ndarray, AbelianModule]:
    """Generator tables b_j (column j holds b_j(g)) and the Delta-module G^(chi).

    Hom(G, Z/N) is solved for the values b(s), s in S =
    ``G.minimal_generators()`` (``_cocycle1_space`` with trivial action),
    and a homomorphism is fixed by them, so the action is read at S too.
    The generators of the kernel have orders off a Smith diagonal, so they
    form the divisor chain AbelianModule asks for.
    """
    nd, N = gal.delta.order, gal.N
    S, E, rows = _cocycle1_space(gal.G, scalar_module(N))
    K = kernel(rows, N)
    k = len(K.invariant_factors)
    B = E[:, 0] @ K.generator_lifts % N
    # acted[d, i, j] = (d.b_j)(s_i) = chi(d) b_j(d^-1.s_i)
    acted = gal.chi_mod_n[:, None, None] * B[gal.action.table[gal.delta.inv][:, S]]
    mats = K.coordinates(acted.transpose(1, 0, 2).reshape(len(S), nd * k))
    return B, AbelianModule(K.invariant_factors, gal.delta,
                            mats.reshape(k, nd, k).transpose(1, 0, 2))


def algebraic_unramified(gal: GaloisDatum, caps: Caps = DEFAULT_CAPS) -> BrauerReport:
    """Unramified classes representable with f = 0, inside H^1(Delta, G^(chi)).

    With f = 0, C2 makes each c_d a homomorphism G -> Z/N, and C3 with
    b_d = c_d o d^-1 is the 1-cocycle law on G^(chi) = Hom(G, Z/N) under
    (d.b)(y) = chi(d) b(d^-1.y); the shifts chi(d) b - b o d are the
    coboundaries.  A class survives iff c_d(tau) = b_d(d.tau) vanishes at
    every row (d, tau, gamma) of ``_galois_rows``: with f = 0 the
    commuting-pair rows vanish, so those rows alone decide condition (ii).
    """
    G, N = gal.G, gal.N
    n, nd = G.order, gal.delta.order
    if (nd - 1) * (n - 1) == 0 or N == 1:
        return BrauerReport((), [], None, label="Br0_nr_alg")
    B, module = _character_module(gal)
    H = h1(gal.delta, module, caps)
    if not H.invariant_factors:
        return BrauerReport((), [], None, label="Br0_nr_alg")
    b = np.array(H.representatives, dtype=np.int64) @ B.T       # b[j, d, g] = b_d(g)
    cs = b[:, np.arange(nd)[:, None], gal.action.table] % N     # c_d(g) = b_d(d.g)
    # with f = 0 the obstruction is c_d(tau), whatever gamma
    d, tau, _ = _galois_rows(gal).T
    A = cs[:, d, tau].T
    factors, coords = class_subgroup(A, H.invariant_factors, N)
    reps = [EquivariantExtension(gal, np.zeros((n, n), dtype=np.int64),
                                 np.tensordot(x, cs, axes=1) % N) for x in coords]
    return BrauerReport(factors, reps, None, label="Br0_nr_alg")
