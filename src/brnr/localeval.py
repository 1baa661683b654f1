"""Evaluation of Brauer classes at supplied local Galois data.

The user supplies, per place, a finite quotient Delta_v of the local
Galois group together with its structure map into Delta.  Local points are
modelled by nonabelian 1-cocycles Delta_v -> G up to twisted conjugation;
evaluating a class (f, c) at a point h gives the 2-cocycle

    beta(s, t) = c_s(h_t) + f(h_s, s.h_t)

on Delta_v.  Verdicts are deliberately three-valued: Zero is certified by
beta being a coboundary; NonzeroCertified is reserved for the local-duality
pathway of the semidirect fast path; anything else is Unknown, because a
nonzero finite-level class does not certify a nonzero local invariant.

For (f, c) satisfying C1-C3, beta is a chi_v-twisted 2-cocycle
(``_beta_tables``), fixed by its values at t in the generators S_v of
Delta_v.  bm_report enumerates each place's points once and builds those
values for every class and point, and ``cohomology.coboundary_mask``
tests their Schreier atoms in the gauge of H^2 and the class module.  The
theta-cup verdict and the cup search pass generator columns too.

nonabelian_h1 enumerates generator images in fixed blocks of candidates,
one array per block: it propagates them along a BFS factorization of
Delta_v, checks the cocycle law on the generator columns only, and keeps
the least member of each twisted-conjugation orbit by byte key (the order
of ``tobytes()``, not the numeric order once |G| > 255).  A tuple of points
takes the largest of one status code per (place, point).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .cohomology import coboundary_mask
from .errors import CapExceeded, ValidationError
from .extensions import EquivariantExtension, GaloisDatum
from .fastpath import SemidirectDatum
from .groups import FiniteGroup


@dataclass
class LocalDatum:
    """A place label with a finite local Galois quotient mapping to Delta."""

    label: str
    delta_v: FiniteGroup
    to_delta: np.ndarray              # homomorphism Delta_v -> Delta
    generators: Optional[tuple[int, ...]] = None   # None: minimal_generators()

    def __post_init__(self):
        self.to_delta = np.asarray(self.to_delta, dtype=np.int64)
        if self.generators is None:
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
        td = self.to_delta
        bad = np.argwhere(td[D.mul] != gal.delta.mul[td[:, None], td])
        if bad.size:
            raise ValidationError("structure map to_delta is not a homomorphism",
                                  witness=tuple(map(int, bad[0])))
        out = [g for g in self.generators if not 0 <= g < D.order]
        if out:
            raise ValidationError(f"generators must lie in [0, {D.order})",
                                  witness=int(out[0]))
        if len(D.closure(self.generators)) != D.order:
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


# cells (candidates x |G| x |D_v|) of one nonabelian_h1 block: this bounds the
# memory of the enumeration, the nonabelian_enum cap bounds its length
_BLOCK_CELLS = 1 << 18


def _byte_key(tables: np.ndarray) -> np.ndarray:
    """Each row of '<i8' entries as one ``np.void`` value, over the last axis.

    Void values sort as their bytes, so rows sort as their ``tobytes()`` do.
    Above |G| = 255 this order differs from the numeric order of the entries.
    """
    tables = np.ascontiguousarray(tables, dtype="<i8")
    return tables.view(np.dtype((np.void, 8 * tables.shape[-1])))[..., 0]


def _distinct_by_byte_key(tables: np.ndarray) -> np.ndarray:
    """The distinct rows of a (rows, |D_v|) array, sorted by byte key."""
    return tables[np.unique(_byte_key(tables), return_index=True)[1]]


def nonabelian_h1(ld: LocalDatum, gal: GaloisDatum,
                  caps: Caps = DEFAULT_CAPS) -> list[NonabelianCocycle]:
    """All twisted-cocycle classes, one table each, the least by byte key.

    Generator images are enumerated in blocks of candidates, one array per
    block, and propagated along a fixed generator factorization, one column
    per element of Delta_v.  The cocycle law is checked on the columns
    t in ``ld.generators``: if h(xs) = h(x) (x.h(s)) for every x and every
    generator s, it holds for every t by induction on word length.  Classes
    are orbits of h'(s) = g^-1 h(s) (s.g) over g in G; each keeps its least
    member by byte key (``tobytes()`` order), and the classes come sorted by
    that key.
    """
    ld.validate(gal)
    D = ld.delta_v
    G = gal.G
    gens = list(ld.generators)
    total = G.order ** len(gens)
    if total > caps.nonabelian_enum:
        raise CapExceeded("nonabelian_enum", caps.nonabelian_enum, total)
    act = ld.action_v(gal)

    levels = D.tree_levels(gens)
    xs = np.arange(D.order)
    # images in itertools.product order: the first generator's digit is the slowest
    radix = G.order ** np.arange(len(gens) - 1, -1, -1, dtype=np.int64)
    step = max(1, _BLOCK_CELLS // (G.order * D.order))
    found = []
    for lo in range(0, total, step):
        images = np.arange(lo, min(lo + step, total))[:, None] // radix % G.order
        h = np.zeros((len(images), D.order), dtype=np.int64)
        for y, x, gi in levels:
            # h(x * s) = h(x) * (x . h(s))
            h[:, y] = G.mul[h[:, x], act[x, images[:, gi]]]
        ok = (h[:, gens] == images).all(axis=1)
        for s in gens:
            ok &= (h[:, D.mul[:, s]] == G.mul[h, act[xs, h[:, [s]]]]).all(axis=1)
        h = h[ok]
        # orbit under twisted conjugation, row g = g^-1 h(s) (s.g); keep the
        # least row by byte key
        orbit = G.mul[G.mul[G.inv[:, None], h[:, None, :]], act.T]
        least = np.argsort(_byte_key(orbit), axis=1)[:, 0]
        found.append(_distinct_by_byte_key(orbit[np.arange(len(h)), least]))
    return [NonabelianCocycle(t) for t in _distinct_by_byte_key(np.concatenate(found))]


# ---------------------------------------------------------------------------
# evaluation
# ---------------------------------------------------------------------------

ZERO = "Zero"
NONZERO_CERTIFIED = "NonzeroCertified"
UNKNOWN = "Unknown"


_DETAILS = {ZERO: "coboundary witness found",
            UNKNOWN: "nonzero at this finite level; not a certificate"}

# tuple status codes, read by bm_report: the largest code among a tuple's verdicts
_CODE = {ZERO: 0, NONZERO_CERTIFIED: 2}       # any other verdict: 1
_STATUS = ("Admissible", "Undetermined", "Excluded")


def _beta_tables(fs: np.ndarray, cs: np.ndarray, ld: LocalDatum, gal: GaloisDatum,
                 h: np.ndarray, ts) -> np.ndarray:
    """beta_k(s, t) = c_k,s(h_t) + f_k(h_s, s.h_t) mod N at every s and each t in ``ts``.

    fs is (k, |G|, |G|), cs is (k, |Delta|, |G|) and h is (..., |D_v|), one
    point or a stack; the result is (k, ..., |D_v|, len(ts)).  By C1-C3,
    Delta_v acts on the group Z/N x_f G by d.(a, g) = (chi(d) a + c_d(g), d.g),
    and h'(s) = (0, h_s) has h'(s) (s.h'(t)) = (beta(s, t), 1) h'(st).
    Bracketing h'(r) (r.h'(s)) (rs.h'(t)) both ways gives the chi_v-twisted
    2-cocycle law; beta is normalized as f, c vanish at 1 and h_1 = 1.
    """
    act = ld.action_v(gal)
    s = np.arange(ld.delta_v.order)[:, None]
    hs, ht = h[..., :, None], h[..., None, ts]
    return (cs[:, ld.to_delta[s], ht] + fs[:, hs, act[s, ht]]) % gal.N


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
    """A table-level Brauer class; bm_report evaluates all of them per place.

    Its pair must satisfy C1-C3, as ``br_nr`` and ``class_module`` output does.
    """

    label: str
    ext: EquivariantExtension


def _place_verdicts(exts: list[EquivariantExtension], ld: LocalDatum,
                    gal: GaloisDatum, caps: Caps) -> list[list[PointVerdict]]:
    """Verdicts of every table-level class at every point of one place.

    A beta is Zero iff it is a chi_v-twisted coboundary on Delta_v, so one
    span test on the (classes, points, |D_v|, |S_v|) array of the betas at
    second arguments in ``ld.generators`` serves every class and point.
    """
    points = np.array([h.table for h in nonabelian_h1(ld, gal, caps)])
    betas = _beta_tables(np.array([e.f for e in exts]), np.array([e.c for e in exts]),
                         ld, gal, points, list(ld.generators))
    zero = coboundary_mask(ld.delta_v, betas, gal.N, ld.chi_v(gal), ld.generators)
    labels = ["base" if not h.any() else f"h{i}" for i, h in enumerate(points)]
    verdicts = [[ZERO if z else UNKNOWN for z in row] for row in zero.tolist()]
    return [[PointVerdict(ld.label, label, v, _DETAILS[v]) for label, v in zip(labels, row)]
            for row in verdicts]


def theta_point_beta(sd: SemidirectDatum, a_table: np.ndarray, modulus: int,
                     c_v: np.ndarray, y_table: np.ndarray) -> np.ndarray:
    """Evaluation cocycle at a point h(s) = (y(s), c_v(s)), module-level.

    For the pair (f, 0) of a Q-cocycle a over G = N x| Q one has
    beta(s, t) = f(h_s, h_t) = <a(c_v(s)^-1), y(t)>, scaled into Z/modulus,
    one column per row of ``y_table``: h*f, a 2-cocycle, h being a homomorphism.
    Nothing about G is tabulated; this is what makes huge N workable.
    """
    e = sd.N.exponent
    e_over_d = np.array([e // d for d in sd.N.invariant_factors], dtype=np.int64)
    phi = sd.N_hat.reduce(a_table)[sd.Q.inv[c_v]] * e_over_d    # row s: a(c_v(s)^-1)
    return (phi @ np.asarray(y_table, dtype=np.int64).T) % e * (modulus // e) % modulus


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

    def verdicts_for(self, ld: LocalDatum) -> list[PointVerdict]:
        out = [PointVerdict(ld.label, "base", ZERO, "neutral point")]
        w = self.witnesses.get(ld.label)
        if w is None or w.verdict != "ObstructionWitnessed":
            return out
        if w.cup_point is not None:
            y = w.cup_point.y_table[w.delta_v.minimal_generators()]
            beta = theta_point_beta(self.sd, self.a_table, self.modulus, w.cup_point.q_part, y)
            if not coboundary_mask(w.delta_v, beta, self.modulus):
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
    tables = [e.ext for e in entries if isinstance(e, ClassEntry)]
    rows: list[list[PointVerdict]] = [[] for _ in entries]
    per_place_points: dict[str, dict[str, dict[str, str]]] = {}
    for ld in data:
        at_place = iter(_place_verdicts(tables, ld, gal, caps) if tables else ())
        for entry, out in zip(entries, rows):
            pvs = (next(at_place) if isinstance(entry, ClassEntry)
                   else entry.verdicts_for(ld))
            out.extend(pvs)
            for pv in pvs:
                per_place_points.setdefault(ld.label, {}).setdefault(
                    pv.point_label, {})[entry.label] = pv.verdict
    per_class = {entry.label: out for entry, out in zip(entries, rows)}

    place_labels = [ld.label for ld in data]
    points = [per_place_points.get(place, {"base": {}}) for place in place_labels]
    axes = [sorted(at) for at in points]
    n_tuples = math.prod(len(ax) for ax in axes)
    if n_tuples > caps.local_tuples:
        raise CapExceeded("local_tuples", caps.local_tuples, n_tuples)
    # a point's code is the largest at it, a tuple's the largest of its points'
    codes = [np.array([max((_CODE.get(v, 1) for v in at[point].values()), default=0)
                       for point in ax], dtype=np.int8) for at, ax in zip(points, axes)]
    grid = np.zeros((), dtype=np.int8)
    for code in codes:
        grid = np.maximum.outer(grid, code)
    statuses = [_STATUS[c] for c in grid.ravel().tolist()]
    return BMReport(place_labels, per_class,
                    list(zip(itertools.product(*axes), statuses)))
