"""Evaluation of Brauer classes at supplied local Galois data.

The user supplies, per place, a finite quotient Delta_v of the local
Galois group together with its structure map into Delta.  Local points are
modelled by nonabelian 1-cocycles Delta_v -> G up to twisted conjugation;
evaluating a class (f, c) at a point h gives the 2-cocycle

    beta(s, t) = c_s(h_t) + f(h_s, s.h_t)

on Delta_v.  Verdicts are deliberately three-valued: Zero is certified by
a coboundary witness; NonzeroCertified is reserved for the local-duality
pathway of the semidirect fast path; anything else is Unknown, because a
nonzero finite-level class does not certify a nonzero local invariant.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .cohomology import is_scalar_coboundary
from .errors import (
    CapExceeded,
    InvalidCocycle,
    ValidationError,
)
from .extensions import EquivariantExtension, GaloisDatum
from .fastpath import SemidirectDatum
from .groups import FiniteGroup
from .zmod import as_mod


@dataclass
class LocalDatum:
    """A place label with a finite local Galois quotient mapping to Delta."""

    label: str
    delta_v: FiniteGroup
    to_delta: np.ndarray              # homomorphism Delta_v -> Delta
    generators: tuple[int, ...] = ()

    def __post_init__(self):
        self.to_delta = np.asarray(self.to_delta, dtype=np.int64)
        if not self.generators:
            self.generators = tuple(self.delta_v.minimal_generators())

    def validate(self, gal: GaloisDatum) -> None:
        D = self.delta_v
        if self.to_delta.shape != (D.order,):
            raise ValidationError("structure map to_delta has wrong length")
        out = np.nonzero((self.to_delta < 0) | (self.to_delta >= gal.delta.order))[0]
        if out.size:
            raise ValidationError(f"to_delta entries must lie in [0, {gal.delta.order})",
                                  witness=int(self.to_delta[out[0]]))
        if self.to_delta[0] != 0:
            raise ValidationError("structure map to_delta must preserve the identity")
        for a in range(D.order):
            for b in range(D.order):
                if self.to_delta[int(D.mul[a, b])] != \
                        gal.delta.mul[self.to_delta[a], self.to_delta[b]]:
                    raise ValidationError("structure map to_delta is not a homomorphism",
                                          witness=(a, b))
        gen_closure = D.closure(self.generators)
        if len(gen_closure) != D.order:
            raise ValidationError("generating sequence does not generate")

    def chi_v(self, gal: GaloisDatum) -> np.ndarray:
        return gal.chi[self.to_delta]

    def action_v(self, gal: GaloisDatum) -> np.ndarray:
        return gal.action.table[self.to_delta]


@dataclass
class NonabelianCocycle:
    """h : Delta_v -> G with h(st) = h(s) * (s . h(t)), h(1) = 1."""

    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.int64)


def cocycle_defect_nonabelian(ld: LocalDatum, gal: GaloisDatum,
                              table: np.ndarray) -> Optional[tuple[int, int]]:
    D = ld.delta_v
    G = gal.G
    act = ld.action_v(gal)
    for s in range(D.order):
        hs = int(table[s])
        for t in range(D.order):
            lhs = int(table[int(D.mul[s, t])])
            rhs = int(G.mul[hs, act[s, int(table[t])]])
            if lhs != rhs:
                return (s, t)
    return None


def nonabelian_h1(ld: LocalDatum, gal: GaloisDatum,
                  caps: Caps = DEFAULT_CAPS) -> list[NonabelianCocycle]:
    """All twisted-cocycle classes, one lexicographically-least table each.

    Generator images are enumerated, propagated along a fixed generator
    factorization, and the full cocycle law is then verified exhaustively;
    classes are orbits of h'(s) = g^-1 h(s) (s.g) over g in G.
    """
    ld.validate(gal)
    D = ld.delta_v
    G = gal.G
    gens = list(ld.generators)
    total = G.order ** len(gens)
    if total > caps.nonabelian_enum:
        raise CapExceeded("nonabelian_enum", caps.nonabelian_enum, total)
    act = ld.action_v(gal)

    # factorization: BFS from identity by right-multiplication with gens
    parent: dict[int, tuple[int, int]] = {}
    order_out = [0]
    seen = {0}
    qi = 0
    while qi < len(order_out):
        x = order_out[qi]
        qi += 1
        for gi, s in enumerate(gens):
            y = int(D.mul[x, s])
            if y not in seen:
                seen.add(y)
                parent[y] = (x, gi)
                order_out.append(y)

    classes: dict[bytes, np.ndarray] = {}
    for images in itertools.product(range(G.order), repeat=len(gens)):
        h = np.zeros(D.order, dtype=np.int64)
        ok = True
        for y in order_out[1:]:
            x, gi = parent[y]
            # h(x * s) = h(x) * (x . h(s))
            h[y] = G.mul[h[x], act[x, images[gi]]]
        for gi, s in enumerate(gens):
            if h[s] != images[gi]:
                ok = False
                break
        if ok and cocycle_defect_nonabelian(ld, gal, h) is not None:
            ok = False
        if not ok:
            continue
        # orbit under twisted conjugation; keep the lex-least table
        best = None
        for g in range(G.order):
            gi_ = int(G.inv[g])
            conj = np.array([G.mul[G.mul[gi_, h[s]], act[s, g]]
                             for s in range(D.order)], dtype=np.int64)
            key = conj.tobytes()
            if best is None or key < best[0]:
                best = (key, conj)
        classes.setdefault(best[0], best[1])
    ordered = sorted(classes.values(), key=lambda t: t.tobytes())
    return [NonabelianCocycle(t) for t in ordered]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

ZERO = "Zero"
NONZERO_CERTIFIED = "NonzeroCertified"
UNKNOWN = "Unknown"


@dataclass
class EvaluationResult:
    beta: np.ndarray | None
    verdict: str
    detail: str = ""


def _beta_table(ext: EquivariantExtension, ld: LocalDatum,
                h: np.ndarray) -> np.ndarray:
    gal = ext.gal
    D = ld.delta_v
    act = ld.action_v(gal)
    c_loc = ext.c[ld.to_delta]
    nD = D.order
    beta = np.zeros((nD, nD), dtype=np.int64)
    for s in range(nD):
        hs = int(h[s])
        beta[s] = (c_loc[s, h] + ext.f[hs, act[s, h]]) % gal.N
    beta[0, :] = 0
    beta[:, 0] = 0
    return beta


def _twisted_two_cocycle_defect(D: FiniteGroup, beta: np.ndarray,
                                units: np.ndarray, m: int) -> Optional[tuple]:
    for s in range(D.order):
        lhs = (units[s] * beta) % m
        lhs = lhs - beta[D.mul[s]] + beta[s][D.mul] - beta[s][:, None]
        bad = np.argwhere(lhs % m)
        if bad.size:
            return (s, int(bad[0][0]), int(bad[0][1]))
    return None


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
    beta = _beta_table(ext, ld, h.table)
    chi_v = as_mod(ld.chi_v(gal), gal.N)
    defect2 = _twisted_two_cocycle_defect(ld.delta_v, beta, chi_v, gal.N)
    if defect2 is not None:
        raise AssertionError(f"evaluation table is not a 2-cocycle at {defect2}")
    units = None if (chi_v == 1 % gal.N).all() else chi_v
    b = is_scalar_coboundary(ld.delta_v, beta, gal.N, units=units)
    if b is not None:
        return EvaluationResult(beta, ZERO, "coboundary witness found")
    return EvaluationResult(beta, UNKNOWN,
                            "nonzero at this finite level; not a certificate")


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------


@dataclass
class PointVerdict:
    place: str
    point_label: str
    verdict: str
    detail: str = ""


@dataclass
class ClassEntry:
    """A table-level Brauer class evaluated over the enumerated local points."""

    label: str
    ext: EquivariantExtension

    def verdicts_for(self, ld: LocalDatum, gal: GaloisDatum,
                     caps: Caps) -> list[PointVerdict]:
        out = []
        points = nonabelian_h1(ld, gal, caps)
        for i, h in enumerate(points):
            res = evaluate(self.ext, ld, h)
            label = "base" if not h.table.any() else f"h{i}"
            out.append(PointVerdict(ld.label, label, res.verdict, res.detail))
        return out


def theta_point_beta(sd: SemidirectDatum, a_table: np.ndarray, modulus: int,
                     c_v: np.ndarray, y_table: np.ndarray) -> np.ndarray:
    """Evaluation cocycle at a point h(s) = (y(s), c_v(s)), module-level.

    For the pair (f, 0) of a Q-cocycle a over G = N x| Q one has
    beta(s, t) = f(h_s, h_t) = <a(c_v(s)^-1), y(t)>, scaled into Z/modulus.
    Nothing about G is tabulated; this is what makes huge N workable.
    """
    e = sd.N.exponent
    scale = modulus // e
    nD = c_v.shape[0]
    qinv = sd.Q.inv
    e_over_d = np.array([e // d for d in sd.N.invariant_factors], dtype=np.int64)
    beta = np.zeros((nD, nD), dtype=np.int64)
    a_table = sd.N_hat.reduce(a_table)
    for s in range(nD):
        phi = a_table[int(qinv[c_v[s]])]
        beta[s] = (y_table @ (phi * e_over_d)) % e * scale % modulus
    beta[0, :] = 0
    beta[:, 0] = 0
    return beta


@dataclass
class FastpathClassEntry:
    """A fast-path class (f from a Q-cocycle) with local-duality witnesses.

    ``witnesses`` maps place labels to LocalWitness records produced by
    ``local_witness``.  NonzeroCertified appears exactly on the duality
    pathway: the symbolic guaranteed point when the inflated class is
    nonzero, plus any concrete theta-image point with a nonzero finite cup.
    """

    label: str
    sd: SemidirectDatum
    a_table: np.ndarray
    modulus: int
    witnesses: dict = field(default_factory=dict)

    def verdicts_for(self, ld: LocalDatum, gal: GaloisDatum,
                     caps: Caps) -> list[PointVerdict]:
        out = [PointVerdict(ld.label, "base", ZERO, "neutral point")]
        w = self.witnesses.get(ld.label)
        if w is None:
            return out
        if w.verdict != "ObstructionWitnessed":
            return out
        if w.cup_point is not None:
            beta = theta_point_beta(self.sd, self.a_table, self.modulus,
                                    w.cup_point.q_part, w.cup_point.y_table)
            b = is_scalar_coboundary(w.delta_v, beta, self.modulus)
            if b is None:
                out.append(PointVerdict(ld.label, "theta-cup", NONZERO_CERTIFIED,
                                        "finite-level duality pairing is nonzero"))
            else:
                out.append(PointVerdict(ld.label, "theta-cup", UNKNOWN,
                                        "cup witness did not survive scaling"))
        out.append(PointVerdict(
            ld.label, "duality-point", NONZERO_CERTIFIED,
            "local duality guarantees a nonzero evaluation; point not constructed"))
        return out


@dataclass
class BMReport:
    places: list[str]
    per_class: dict[str, list[PointVerdict]]
    tuple_rows: list[tuple[tuple[str, ...], str]]

    def counts(self) -> dict[str, int]:
        out = {"Admissible": 0, "Excluded": 0, "Undetermined": 0}
        for _, status in self.tuple_rows:
            out[status] += 1
        return out


def bm_report(entries: list[ClassEntry], data: list[LocalDatum], gal: GaloisDatum,
              caps: Caps = DEFAULT_CAPS) -> BMReport:
    """Verdicts per (class, place, point) plus the tuple classification.

    A tuple of local points (one per place) is Admissible when every class
    evaluates to a certified Zero at every coordinate, Excluded when some
    coordinate is NonzeroCertified, and Undetermined otherwise.  Places not
    listed are evaluation-trivial for unramified classes and carry no
    constraint.
    """
    per_class: dict[str, list[PointVerdict]] = {}
    per_place_points: dict[str, dict[str, dict[str, str]]] = {}
    for entry in entries:
        rows = []
        for ld in data:
            for pv in entry.verdicts_for(ld, gal, caps):
                rows.append(pv)
                per_place_points.setdefault(ld.label, {}).setdefault(
                    pv.point_label, {})[entry.label] = pv.verdict
        per_class[entry.label] = rows

    place_labels = [ld.label for ld in data]
    axes = []
    for place in place_labels:
        axes.append(sorted(per_place_points.get(place, {"base": {}}).keys()))
    n_tuples = 1
    for ax in axes:
        n_tuples *= max(len(ax), 1)
    if n_tuples > caps.local_tuples:
        raise CapExceeded("local_tuples", caps.local_tuples, n_tuples)
    rows = []
    for combo in itertools.product(*axes) if axes else [()]:
        verdicts = []
        for place, point in zip(place_labels, combo):
            verdicts.extend(per_place_points.get(place, {}).get(point, {}).values())
        if not entries:
            status = "Admissible"
        elif any(v == NONZERO_CERTIFIED for v in verdicts):
            status = "Excluded"
        elif all(v == ZERO for v in verdicts):
            status = "Admissible"
        else:
            status = "Undetermined"
        rows.append((combo, status))
    return BMReport(place_labels, per_class, rows)
