"""Fast path for semidirect products of abelian groups.

For G = N x| Q with N and Q abelian, the geometric Brauer classes are
classes in H^1(Q, Hom(N, Z/exp N)) dying on every bicyclic subgroup of Q,
and each such 1-cocycle a gives an explicit unramified extension pair over
G with f((n1,q1),(n2,q2)) = a(q1^-1)(n2) and no Galois twist.  N never
needs to be tabulated: everything runs on invariant factors and action
matrices, which is what makes the group-ring example (|N| = p^21 at p = 2)
a desk computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .cohomology import (
    CohomologyGroup,
    ShaResult,
    coboundary_mask,
    cocycle1_defect,
    cup_h1_h1,
    h1,
    sha,
)
from .errors import (
    NotACocycle,
    NotSurjective,
    ValidationError,
)
from .groups import AbelianModule, FiniteGroup, abelian_group


@dataclass
class SemidirectDatum:
    """N x| Q with N an abelian module under an abelian Q."""

    Q: FiniteGroup
    N: AbelianModule                  # actor must be Q
    N_hat: AbelianModule = field(init=False)

    def __post_init__(self):
        if not self.Q.is_abelian:
            raise ValidationError("Q must be abelian")
        if self.N.actor is None or self.N.actor.order != self.Q.order:
            if self.N.actor is None and self.N.action is None:
                self.N = AbelianModule(self.N.invariant_factors, self.Q, None)
            else:
                raise ValidationError("module actor must be Q")
        self.N.validate()
        self.N_hat = self.N.dual()

    @property
    def group_order(self) -> int:
        return self.N.order * self.Q.order

    def double_dual_matches(self) -> bool:
        dd = self.N_hat.dual()
        if self.N.action is None:
            return dd.action is None
        d = np.array(self.N.invariant_factors, dtype=np.int64)
        return np.array_equal(dd.action % d[None, :, None],
                              self.N.action % d[None, :, None])


def sha1_bic(sd: SemidirectDatum, caps: Caps = DEFAULT_CAPS) -> ShaResult:
    """Classes of H^1(Q, N^) dying on every bicyclic subgroup of Q.

    For G = N x| Q of abelian groups this group is the geometric unramified
    invariant of G (tested against the general engine on tabulated cases).
    Its representatives are 1-cocycles on Q valued in N^.
    """
    return sha(sd.Q, sd.N_hat, 1, "bic", caps=caps)


# ---------------------------------------------------------------------------
# the group-ring example: Q = (Z/p)^3 acting on the dual augmentation ideal
# ---------------------------------------------------------------------------


@dataclass
class AugmentationExample:
    p: int
    sd: SemidirectDatum
    a_table: np.ndarray                   # the cocycle q -> [q] - [1]
    expected_h1: tuple[int, ...]
    expected_sha: tuple[int, ...]
    expected_generator_multiple: int      # sha generated by p^2 * [a]


def build_example_714(p: int) -> AugmentationExample:
    """Q = (Z/p)^3 acting on N = dual of the augmentation ideal of (Z/p^3)[Q].

    The ideal I is free of rank p^3 - 1 over Z/p^3 on the elements
    [q] - [1]; left translation permutes the [q] and fixes the augmentation.
    """
    if p not in (2, 3):
        raise ValidationError("p must be 2 or 3: the example is built for those "
                              "primes only", witness=p)
    Q = abelian_group([p, p, p])
    nQ = Q.order
    rank = nQ - 1
    mats = np.zeros((nQ, rank, rank), dtype=np.int64)
    p3 = p ** 3
    for q0 in range(nQ):
        for j in range(1, nQ):
            img = int(Q.mul[q0, j])           # q0 * q_j
            if img != 0:
                mats[q0, img - 1, j - 1] += 1
            if q0 != 0:
                mats[q0, q0 - 1, j - 1] -= 1
    I_module = AbelianModule((p3,) * rank, Q, mats % p3)
    I_module.validate()
    N_module = I_module.dual()                # N = Hom(I, Q/Z)
    sd = SemidirectDatum(Q, N_module)
    if not sd.double_dual_matches():
        raise AssertionError("double dual must recover the ideal action")
    # the 1-cocycle a(q) = [q] - [1] valued in N^ = I
    a_table = np.zeros((nQ, rank), dtype=np.int64)
    for q in range(1, nQ):
        a_table[q, q - 1] = 1
    defect = cocycle1_defect(Q, sd.N_hat, a_table)
    if defect is not None:
        raise AssertionError(f"translation cocycle defect at {defect}")
    return AugmentationExample(
        p, sd, a_table,
        expected_h1=(p3,),
        expected_sha=(p,),
        expected_generator_multiple=p * p,
    )


# ---------------------------------------------------------------------------
# local obstruction witnesses
# ---------------------------------------------------------------------------


@dataclass
class ThetaPoint:
    """A local point in the image of the N-line: sigma -> (y(sigma), c_v(sigma))."""

    y_table: np.ndarray             # (|Delta_v|, rank of N)
    q_part: np.ndarray              # (|Delta_v|,) indices in Q


@dataclass
class LocalWitness:
    """Outcome of the local-duality construction at one supplied datum."""

    verdict: str                    # NoObstructionFromThisClass | ObstructionWitnessed
    cup_status: str                 # WitnessPairFound | NoneAtThisLevel | NotSearched
    delta_v: FiniteGroup
    c_v: np.ndarray
    inflated_class: np.ndarray | None = None
    inflated_coordinates: tuple[int, ...] | None = None
    cup_point: Optional[ThetaPoint] = None
    cup_beta: np.ndarray | None = None
    h1_local_structure: tuple[int, ...] = ()


def local_witness(sd: SemidirectDatum, ambient: CohomologyGroup, a_table: np.ndarray,
                  delta_v: FiniteGroup, c_v: np.ndarray, caps: Caps = DEFAULT_CAPS,
                  search_cup: bool = True) -> LocalWitness:
    """Inflate [a] along a surjection Delta_v ->> Q and certify nonvanishing.

    The verdict ObstructionWitnessed records that the inflated class is
    nonzero in H^1(Delta_v, twisted N^); by local duality some local point
    then pairs nontrivially against it (the point itself is not built).
    Optionally searches H^1(Delta_v, twisted N) for a finite-level partner
    with nonzero cup product; absence of one disproves nothing.

    ``ambient`` is H^1(Q, N^), which ``sha1_bic`` holds, so a report over
    many local data solves it once.
    """
    c_v = np.asarray(c_v, dtype=np.int64)
    if c_v.shape != (delta_v.order,):
        raise ValidationError("structure map c_v has wrong length")
    out = np.nonzero((c_v < 0) | (c_v >= sd.Q.order))[0]
    if out.size:
        raise ValidationError(f"c_v entries must lie in [0, {sd.Q.order})",
                              witness=int(c_v[out[0]]))
    bad = np.argwhere(c_v[delta_v.mul] != sd.Q.mul[c_v[:, None], c_v])
    if bad.size:
        raise ValidationError("structure map c_v is not a homomorphism",
                              witness=tuple(map(int, bad[0])))
    if set(map(int, c_v)) != set(range(sd.Q.order)):
        raise NotSurjective("structure map must be onto Q")

    a_table = sd.N_hat.reduce(a_table)
    coords = ambient.coordinates(a_table)
    if coords is None:
        raise NotACocycle("a is not a 1-cocycle")
    if not coords.any():
        return LocalWitness("NoObstructionFromThisClass", "NotSearched",
                            delta_v, c_v)

    nhat_tw = sd.N_hat.with_actor(delta_v, c_v)
    n_tw = sd.N.with_actor(delta_v, c_v)
    inflated = a_table[c_v]
    h_loc = h1(delta_v, nhat_tw, caps)
    infl_coords = h_loc.coordinates(inflated)
    if infl_coords is None:
        raise AssertionError("inflation must remain a cocycle")
    if not infl_coords.any():
        # cannot happen for a surjection with kernel acting trivially on the
        # coefficients; kept as a guarded branch rather than an assumption
        return LocalWitness("NoObstructionFromThisClass", "NotSearched",
                            delta_v, c_v, inflated, tuple(map(int, infl_coords)))

    witness = LocalWitness("ObstructionWitnessed", "NoneAtThisLevel", delta_v,
                           c_v, inflated, tuple(map(int, infl_coords)))
    if not search_cup:
        witness.cup_status = "NotSearched"
        return witness
    h_pts = h1(delta_v, n_tw, caps)
    witness.h1_local_structure = h_pts.invariant_factors
    # the cup product is bilinear, so the generators decide it; the last
    # generator with a nonzero cup is the lexicographically first nonzero
    # class with one.  A cup of 1-cocycles is a 2-cocycle: its columns at
    # S decide it, and the whole table is built for the reported pair only
    ys = h_pts.representatives
    S = delta_v.minimal_generators()
    cols = np.array([cup_h1_h1(delta_v, nhat_tw, inflated, n_tw, y, S) for y in ys],
                    dtype=np.int64).reshape(len(ys), delta_v.order, len(S))
    nonzero = np.flatnonzero(~coboundary_mask(delta_v, cols, sd.N.exponent))
    if nonzero.size:
        j = int(nonzero[-1])
        witness.cup_status = "WitnessPairFound"
        witness.cup_point = ThetaPoint(ys[j], c_v.copy())
        witness.cup_beta = cup_h1_h1(delta_v, nhat_tw, inflated, n_tw, ys[j])
    return witness
