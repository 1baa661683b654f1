import itertools

import numpy as np
import pytest

from brnr.cohomology import h1
from brnr.engine import br_nr
from brnr.errors import ValidationError
from brnr.extensions import (
    EquivariantExtension,
    GaloisDatum,
    class_module,
)
from brnr.fastpath import SemidirectDatum
from brnr.groups import (
    AbelianModule,
    GroupAction,
    abelian_group,
    cyclic_group,
    dihedral_group,
    group_from_table,
    quaternion_group,
    symmetric_group,
)
from brnr.localeval import (
    ClassEntry,
    FastpathClassEntry,
    LocalDatum,
    NonabelianCocycle,
    PointVerdict,
    bm_report,
    nonabelian_h1,
    theta_point_beta,
)
from brnr.reference import (
    InvalidCocycle,
    baer_sum,
    bockstein,
    cocycle_defect_nonabelian,
    evaluate,
    zero_extension,
)

from test_engine import cyclotomic_datum


def trivial_datum_for(gal, delta_v, label="v"):
    return LocalDatum(label, delta_v, np.zeros(delta_v.order, dtype=np.int64))


def test_nonabelian_h1_trivial_group():
    G = group_from_table([[0]])
    gal = GaloisDatum.trivial(G, N=1)
    ld = trivial_datum_for(gal, cyclic_group(2))
    classes = nonabelian_h1(ld, gal)
    assert len(classes) == 1


def test_nonabelian_h1_trivial_delta_v():
    G = symmetric_group(3)
    gal = GaloisDatum.trivial(G)
    ld = trivial_datum_for(gal, group_from_table([[0]]))
    classes = nonabelian_h1(ld, gal)
    assert len(classes) == 1


def test_nonabelian_h1_z2_on_s3():
    # trivial action: cocycles = homs Z/2 -> S3: identity and the three
    # transpositions; transpositions are all conjugate -> 2 classes
    G = symmetric_group(3)
    gal = GaloisDatum.trivial(G)
    ld = trivial_datum_for(gal, cyclic_group(2))
    classes = nonabelian_h1(ld, gal)
    assert len(classes) == 2
    # brute-force cross-check: enumerate all 6 candidate tables directly
    count = 0
    reps = set()
    for img in range(6):
        h = np.array([0, img], dtype=np.int64)
        if cocycle_defect_nonabelian(ld, gal, h) is None:
            count += 1
    assert count == 4  # identity + three transpositions


def test_nonabelian_h1_matches_homs_for_abelian_target():
    # H^1 with trivial action on abelian G = Hom(Delta_v, G): no conjugation
    G = abelian_group([2, 4])
    gal = GaloisDatum.trivial(G)
    ld = trivial_datum_for(gal, cyclic_group(4))
    classes = nonabelian_h1(ld, gal)
    homs = 0
    for img in range(8):
        if G.element_order(img) in (1, 2, 4):
            homs += 1
    assert len(classes) == homs


def test_evaluate_base_point_is_zero():
    for G in (cyclic_group(4), symmetric_group(3)):
        gal = GaloisDatum.trivial(G)
        cm = class_module(gal)
        ld = trivial_datum_for(gal, cyclic_group(2))
        h0 = NonabelianCocycle(np.zeros(2, dtype=np.int64))
        for coords in itertools.islice(itertools.product(*map(range, cm.invariant_factors)), 8):
            ext = cm.element(np.asarray(coords))
            res = evaluate(ext, ld, h0)
            assert res.verdict == "Zero"


def test_evaluate_zero_extension_is_zero_everywhere():
    G = symmetric_group(3)
    gal = GaloisDatum.trivial(G)
    ld = trivial_datum_for(gal, cyclic_group(2))
    ext = zero_extension(gal)
    for h in nonabelian_h1(ld, gal):
        assert evaluate(ext, ld, h).verdict == "Zero"


def test_evaluate_rejects_invalid_point():
    G = cyclic_group(4)
    gal = GaloisDatum.trivial(G)
    ld = trivial_datum_for(gal, cyclic_group(2))
    bad = NonabelianCocycle(np.array([0, 1]))  # order-4 image of an involution
    with pytest.raises(InvalidCocycle):
        evaluate(zero_extension(gal), ld, bad)


def test_evaluate_additivity_up_to_coboundary():
    # beta of a Baer sum equals the sum of betas exactly (both linear in f, c)
    G = abelian_group([2, 2])
    gal = GaloisDatum.trivial(G, N=2)
    cm = class_module(gal)
    ld = trivial_datum_for(gal, cyclic_group(2))
    points = nonabelian_h1(ld, gal)
    exts = [cm.element(np.asarray(c)) for c in
            itertools.islice(itertools.product(*map(range, cm.invariant_factors)), 8)]
    for e1 in exts[:4]:
        for e2 in exts[:4]:
            s = baer_sum(e1, e2)
            for h in points[:3]:
                b1 = evaluate(e1, ld, h).beta
                b2 = evaluate(e2, ld, h).beta
                bs = evaluate(s, ld, h).beta
                assert np.array_equal(bs, (b1 + b2) % gal.N)


def test_evaluate_gauge_invariance():
    """Twisted-conjugate points give betas differing by a coboundary."""
    from brnr.reference import is_scalar_coboundary
    G = symmetric_group(3)
    gal = GaloisDatum.trivial(G)
    cm = class_module(gal)
    ld = trivial_datum_for(gal, cyclic_group(2))
    act = ld.action_v(gal)
    # one representative cocycle and all its conjugates
    classes = nonabelian_h1(ld, gal)
    rng = np.random.default_rng(5)
    for coords in itertools.islice(itertools.product(*map(range, cm.invariant_factors)), 6):
        ext = cm.element(np.asarray(coords))
        for h in classes:
            base = evaluate(ext, ld, h).beta
            for g in range(G.order):
                gi = int(G.inv[g])
                conj = np.array([G.mul[G.mul[gi, h.table[s]], act[s, g]]
                                 for s in range(2)], dtype=np.int64)
                if cocycle_defect_nonabelian(ld, gal, conj) is not None:
                    continue
                other = evaluate(ext, ld, NonabelianCocycle(conj)).beta
                diff = (base - other) % gal.N
                assert is_scalar_coboundary(ld.delta_v, diff, gal.N) is not None


def test_evaluate_remark_case_detects_nonzero_at_sign_point():
    # order-2 real-like datum, constant Z/4 class, Delta_v = Delta = Z/2,
    # nontrivial point h(sigma) = the involution of G = Z/2
    gal = GaloisDatum.real_like(cyclic_group(2))
    f, _ = bockstein(cyclic_group(2), np.array([0, 1]), 2)
    ext = EquivariantExtension(gal, f, np.zeros((2, 2), dtype=np.int64))
    ld = LocalDatum("real", gal.delta, np.arange(2))
    points = nonabelian_h1(ld, gal)
    verdicts = {evaluate(ext, ld, h).verdict for h in points}
    # the base point evaluates to zero, and some point must be non-coboundary
    # at this finite level (H^2(Z/2, Z/2-twisted-by-chi=1) = Z/2)
    assert "Zero" in verdicts
    assert "Unknown" in verdicts


def test_bm_report_empty_classes_all_admissible():
    G = cyclic_group(2)
    gal = GaloisDatum.trivial(G)
    ld = trivial_datum_for(gal, cyclic_group(2))
    rep = bm_report([], [ld], gal)
    assert all(status == "Admissible" for _, status in rep.tuple_rows)


def test_bm_report_zero_class_admissible():
    G = cyclic_group(2)
    gal = GaloisDatum.trivial(G)
    ld = trivial_datum_for(gal, cyclic_group(2))
    rep = bm_report([ClassEntry("zero", zero_extension(gal))], [ld], gal)
    counts = rep.counts()
    assert counts["Excluded"] == 0
    assert counts["Admissible"] >= 1


def test_theta_point_beta_matches_table_level():
    """Module-level evaluation equals table-level on a tabulated case."""
    from brnr.fastpath import SemidirectDatum
    from brnr.reference import extension_from_q_cocycle
    from brnr.groups import AbelianModule
    Q = abelian_group([2, 2])
    M = AbelianModule((4,), Q, np.array([[[1]], [[3]], [[3]], [[1]]]))
    sd = SemidirectDatum(Q, M)
    # a 1-cocycle on Q valued in N^ (dual also Z/4 with inverse action)
    from brnr.cohomology import h1 as h1_
    H = h1_(Q, sd.N_hat)
    if not H.representatives:
        pytest.skip("no classes for this action")
    a = H.representatives[0]
    ext = extension_from_q_cocycle(sd, a)
    G_big = ext.gal.G
    # local datum: Delta_v = Q, c_v = identity; theta point from y
    c_v = np.arange(4, dtype=np.int64)
    n_tw = sd.N.with_actor(Q, c_v)
    Hy = h1_(Q, n_tw)
    y = Hy.representatives[0] if Hy.representatives else np.zeros((4, 1), dtype=np.int64)
    beta_mod = theta_point_beta(sd, a, ext.gal.N, c_v, y)
    # table-level: h(s) = index of (y(s), s) inside N x| Q
    from brnr.groups import semidirect_product
    sdg = semidirect_product(sd.N, sd.Q)
    strides = [1]
    h_table = []
    nQ = 4
    for s in range(4):
        nvec = y[s]
        n_idx = int(nvec[0])  # rank 1, factor 4: index = value
        h_table.append(n_idx * nQ + s)
    gal_big = ext.gal
    ld = LocalDatum("v", Q, np.zeros(4, dtype=np.int64))
    h = NonabelianCocycle(np.array(h_table, dtype=np.int64))
    res = evaluate(ext, ld, h)
    assert np.array_equal(res.beta, beta_mod)


def test_fastpath_entry_produces_excluded_row():
    from brnr.fastpath import build_example_714, local_witness
    ex = build_example_714(2)
    gen = (4 * ex.a_table) % 8
    w = local_witness(ex.sd, h1(ex.sd.Q, ex.sd.N_hat), gen, ex.sd.Q, np.arange(8),
                      search_cup=False)
    assert w.verdict == "ObstructionWitnessed"
    entry = FastpathClassEntry("sha-generator", ex.sd, gen,
                               ex.sd.group_order, {"v2": w})
    trivial = GaloisDatum.trivial(group_from_table([[0]]), N=1)
    ld = LocalDatum("v2", ex.sd.Q, np.zeros(8, dtype=np.int64))
    rep = bm_report([entry], [ld], trivial)
    assert rep.counts()["Excluded"] >= 1


# ---------------------------------------------------------------------------
# one cokernel per place against per-point evaluate; vectorised checks
# against loops
# ---------------------------------------------------------------------------


def swap_datum(chi: int) -> GaloisDatum:
    """Order-2 Galois group swapping the factors of Z/2 x Z/2, chi(sigma) = chi."""
    V = abelian_group([2, 2])
    delta = cyclic_group(2)
    gal = GaloisDatum(delta, V, np.array([1, chi % 16]),
                      GroupAction(delta, V, np.array([[0, 1, 2, 3], [0, 2, 1, 3]])), 4)
    gal.validate()
    return gal


def d4_outer_datum() -> GaloisDatum:
    """Order-2 Galois group acting on D4 by an involutive outer automorphism."""
    G = dihedral_group(4)
    inner = {tuple(G.mul[G.mul[g]][:, G.inv[g]]) for g in range(8)}
    for perm in itertools.permutations(range(1, 8)):
        a = np.array((0,) + perm)
        if (np.array_equal(a[G.mul], G.mul[a[:, None], a])
                and np.array_equal(a[a], np.arange(8)) and tuple(a) not in inner):
            break
    else:
        raise AssertionError("D4 has an involutive outer automorphism")
    delta = cyclic_group(2)
    gal = GaloisDatum(delta, G, np.array([1, 63]),
                      GroupAction(delta, G, np.array([np.arange(8), a])))
    gal.validate()
    return gal


def places_onto(gal) -> list[LocalDatum]:
    """A Z/2, a Z/4 and a (Z/2)^2 place mapped onto Delta (of order 1 or 2)."""
    on = gal.delta.order - 1
    data = [LocalDatum("Z2", cyclic_group(2), [0, on]),
            LocalDatum("Z4", cyclic_group(4), [0, on, 0, on]),
            LocalDatum("V4", abelian_group([2, 2]), [0, on, on, 0])]
    for ld in data:
        ld.validate(gal)
    return data


def point_labels(ld, gal) -> dict:
    return {"base" if not h.table.any() else f"h{i}": h
            for i, h in enumerate(nonabelian_h1(ld, gal))}


BM_DATA = {
    "real D4": lambda: GaloisDatum.real_like(dihedral_group(4)),
    "real Q8": lambda: GaloisDatum.real_like(quaternion_group()),
    "real Z2xZ4": lambda: GaloisDatum.real_like(abelian_group([2, 4])),
    "trivial S3": lambda: GaloisDatum.trivial(symmetric_group(3)),
    "swap chi=1": lambda: swap_datum(1),
    "swap chi=-1": lambda: swap_datum(-1),
}


@pytest.mark.parametrize("name", sorted(BM_DATA))
def test_bm_report_matches_per_point_evaluate(name):
    """The per-place cokernel gives evaluate's verdict for every class and point."""
    gal = BM_DATA[name]()
    data = places_onto(gal)
    cm = class_module(gal)
    entries = [ClassEntry(f"c{i}", cm.element(np.array(x))) for i, x in enumerate(
        itertools.islice(itertools.product(*map(range, cm.invariant_factors)), 32))]
    rep = bm_report(entries, data, gal)
    points = {ld.label: point_labels(ld, gal) for ld in data}
    by_label = {ld.label: ld for ld in data}
    seen = set()
    for entry in entries:
        rows = rep.per_class[entry.label]
        assert [(pv.place, pv.point_label) for pv in rows] == [
            (ld.label, label) for ld in data for label in points[ld.label]]
        for pv in rows:
            ld, h = by_label[pv.place], points[pv.place][pv.point_label].table
            res = evaluate(entry.ext, ld, NonabelianCocycle(h))
            assert (pv.verdict, pv.detail) == (res.verdict, res.detail)
            seen.add(pv.verdict)
            act = ld.action_v(gal)
            f, c = entry.ext.f, entry.ext.c
            for s, t in itertools.product(range(1, ld.delta_v.order), repeat=2):
                assert res.beta[s, t] == (c[ld.to_delta[s], h[t]]
                                          + f[h[s], act[s, h[t]]]) % gal.N
    # nonzero betas occur on every datum but Q8, under chi_v = 1 and -1
    assert seen == ({"Zero"} if name == "real Q8" else {"Zero", "Unknown"})
    at_point: dict = {}
    for rows in rep.per_class.values():
        for pv in rows:
            at_point.setdefault((pv.place, pv.point_label), []).append(pv.verdict)
    assert [combo for combo, _ in rep.tuple_rows] == list(
        itertools.product(*(sorted(points[ld.label]) for ld in data)))
    for combo, status in rep.tuple_rows:
        verdicts = [v for place, point in zip(rep.places, combo)
                    for v in at_point[place, point]]
        assert status == ("Excluded" if "NonzeroCertified" in verdicts
                          else "Admissible" if set(verdicts) == {"Zero"}
                          else "Undetermined")


def test_bm_report_keeps_entry_order_with_mixed_entries():
    gal = GaloisDatum.real_like(dihedral_group(4))
    data = places_onto(gal)
    cm = class_module(gal)
    Q = cyclic_group(2)
    sd = SemidirectDatum(Q, AbelianModule((4,), Q, np.array([[[1]], [[3]]])))
    fast = [FastpathClassEntry(label, sd, np.zeros((2, 1), dtype=np.int64), 8)
            for label in ("a", "c")]
    tables = [ClassEntry(label, cm.element(np.array(x)))
              for label, x in (("b", [1] * len(cm.invariant_factors)),
                               ("d", [0] * len(cm.invariant_factors)))]
    rep = bm_report([fast[0], tables[0], fast[1], tables[1]], data, gal)
    assert list(rep.per_class) == ["a", "b", "c", "d"]
    alone = bm_report(tables, data, gal)
    assert rep.per_class["b"] == alone.per_class["b"]
    assert rep.per_class["d"] == alone.per_class["d"]
    assert rep.per_class["a"] == rep.per_class["c"] == [
        PointVerdict(ld.label, "base", "Zero", "neutral point") for ld in data]


def first_defect_by_loops(ld, gal, table):
    """The first (s, t) with h(st) != h(s) (s.h(t)), scanning s, then t."""
    D, G = ld.delta_v, gal.G
    act = ld.action_v(gal)
    for s in range(D.order):
        for t in range(D.order):
            if table[D.mul[s, t]] != G.mul[table[s], act[s, table[t]]]:
                return (s, t)
    return None


H1_DATA = {"swap Z2xZ2": lambda: swap_datum(-1), "outer D4": d4_outer_datum}


@pytest.mark.parametrize("name", sorted(H1_DATA))
def test_nonabelian_h1_matches_exhaustive_orbits(name):
    """All maps Delta_v -> G, cocycles kept, least byte key per orbit."""
    gal = H1_DATA[name]()
    G = gal.G
    V = abelian_group([2, 2])
    data = places_onto(gal) + [LocalDatum("V4 half", V, [0, 1, 0, 1]),
                               LocalDatum("V4 off", V, [0, 0, 0, 0])]
    counts = []
    for ld in data:
        D = ld.delta_v
        act = ld.action_v(gal)
        reps = set()
        for table in itertools.product(range(G.order), repeat=D.order):
            h = np.array(table, dtype=np.int64)
            defect = first_defect_by_loops(ld, gal, h)
            assert cocycle_defect_nonabelian(ld, gal, h) == defect
            if defect is not None:
                continue
            orbit = [np.array([G.mul[G.mul[G.inv[g], h[s]], act[s, g]]
                               for s in range(D.order)], dtype=np.int64)
                     for g in range(G.order)]
            reps.add(min(t.tobytes() for t in orbit))
        assert [h.table.tobytes() for h in nonabelian_h1(ld, gal)] == sorted(reps)
        counts.append(len(reps))
    assert max(counts) > 2


def test_structure_map_check_reports_the_first_failing_pair():
    gal = d4_outer_datum()
    for D in (cyclic_group(4), abelian_group([2, 2]), dihedral_group(4)):
        for tail in itertools.product(range(2), repeat=D.order - 1):
            td = np.array((0,) + tail)
            expect = None
            for a in range(D.order):
                for b in range(D.order):
                    if expect is None and \
                            td[D.mul[a, b]] != gal.delta.mul[td[a], td[b]]:
                        expect = (a, b)
            ld = LocalDatum("v", D, td)
            if expect is None:
                ld.validate(gal)
                continue
            with pytest.raises(ValidationError) as err:
                ld.validate(gal)
            assert err.value.witness == expect


def test_local_datum_rejects_generators_out_of_range():
    gal = GaloisDatum.real_like(cyclic_group(2))
    for gens in ((7,), (-1,), (1, 4)):
        with pytest.raises(ValidationError, match="generators"):
            LocalDatum("v", cyclic_group(4), [0, 1, 0, 1], gens).validate(gal)


def wang_place(gal, f: int) -> LocalDatum:
    """The place 2 of constant data over Q at level Q(mu_(N^2)): Delta_v =
    (Z/N^2)^x x Z/f, the unramified tower up to degree f beside the
    ramified units, projected onto Delta = (Z/N^2)^x."""
    D = gal.delta
    d, k = np.divmod(np.arange(D.order * f), f)
    mul = D.mul[d[:, None], d[None, :]] * f + (k[:, None] + k[None, :]) % f
    return LocalDatum(f"2, f = {f}", group_from_table(mul), d)


@pytest.mark.parametrize("factors, points", [([8], 16), ([2, 8], 128)], ids=["Z8", "Z2xZ8"])
def test_wang_place_2_at_level_8(factors, points):
    # Wang (Ann. of Math. 51 (1950)): the unramified Z/8-extension of Q_2 is
    # not the completion of a global Z/8-extension.  The generator of
    # Br^0_nr = Z/2 of constant G over Q(mu_64) evaluates to Zero at every
    # point while the tower stops below degree 8, and at half the points of
    # degree 8 (|Delta_v| = 256); the others are Unknown, as a nonzero
    # finite-level class certifies no local invariant
    gal = cyclotomic_datum(factors, 8)
    (gen,) = br_nr(gal).representatives
    for f, zero in ((2, 2 * points), (4, 4 * points), (8, 4 * points)):
        rep = bm_report([ClassEntry("g", gen)], [wang_place(gal, f)], gal)
        verdicts = [pv.verdict for pv in rep.per_class["g"]]
        assert len(verdicts) == f * points
        assert verdicts.count("Zero") == zero
        assert set(verdicts) <= {"Zero", "Unknown"}
