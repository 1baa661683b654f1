"""The array passes of localeval against the per-item loops they replace.

``nonabelian_h1`` enumerates its candidates in blocks, checks the cocycle
law on the generator columns only and keeps the least orbit member by
byte key; the reference walks the candidates one at a time and checks the
law at every pair.  ``cocycle2_defect`` over the unit-twisted module
checks the first arguments {1} u generators; the reference checks every
row, on the betas of every class at every point, and on every table
behind the stacks that ``coboundary_mask`` reads.  bm_report reads a
tuple's status from one code per (place, point); the reference rebuilds
the verdict list for every tuple.  Each comparison is exact:
identical table lists in identical order, identical witnesses, identical
tuple rows.
"""

import itertools

import numpy as np
import pytest

from brnr import fastpath, localeval
from brnr.caps import DEFAULT_CAPS
from brnr.cohomology import cocycle2_defect, h1, scalar_module
from brnr.errors import CapExceeded
from brnr.extensions import GaloisDatum, class_module
from brnr.fastpath import build_example_714, local_witness
from brnr.groups import (
    AbelianModule,
    FiniteGroup,
    abelian_group,
    cyclic_group,
    dihedral_group,
    group_from_table,
    quaternion_group,
    semidirect_product,
    symmetric_group,
)
from brnr.localeval import (
    ClassEntry,
    FastpathClassEntry,
    LocalDatum,
    NonabelianCocycle,
    _BLOCK_CELLS,
    _beta_tables,
    bm_report,
    nonabelian_h1,
    theta_point_beta,
)
from brnr.reference import cocycle_defect_nonabelian
from brnr.zmod import as_mod

from test_localeval import BM_DATA, d4_outer_datum, places_onto, swap_datum
from test_span_rows import CUP_CASES


def nonabelian_h1_by_candidates(ld, gal, caps=DEFAULT_CAPS):
    """One candidate at a time: propagate, check the law at every pair, take the orbit minimum."""
    ld.validate(gal)
    D, G = ld.delta_v, gal.G
    gens = list(ld.generators)
    total = G.order ** len(gens)
    if total > caps.nonabelian_enum:
        raise CapExceeded("nonabelian_enum", caps.nonabelian_enum, total)
    act = ld.action_v(gal)
    parent = {}
    order_out = [0]
    for x in order_out:
        for gi, s in enumerate(gens):
            y = int(D.mul[x, s])
            if y and y not in parent:
                parent[y] = (x, gi)
                order_out.append(y)
    classes = {}
    for images in itertools.product(range(G.order), repeat=len(gens)):
        h = np.zeros(D.order, dtype=np.int64)
        for y in order_out[1:]:
            x, gi = parent[y]
            h[y] = G.mul[h[x], act[x, images[gi]]]
        if (h[gens] != images).any() or cocycle_defect_nonabelian(ld, gal, h) is not None:
            continue
        best = min(G.mul[G.mul[G.inv[:, None], h], act.T], key=lambda t: t.tobytes())
        classes.setdefault(best.tobytes(), best)
    return [NonabelianCocycle(t) for t in sorted(classes.values(), key=lambda t: t.tobytes())]


def same_points(ld, gal):
    got = [h.table.tobytes() for h in nonabelian_h1(ld, gal)]
    assert got == [h.table.tobytes() for h in nonabelian_h1_by_candidates(ld, gal)]
    return len(got)


def relabel(mul, perm):
    """The same group with element i renamed perm[i] (perm[0] = 0)."""
    inv = np.argsort(perm)
    return perm[mul[np.ix_(inv, inv)]]


def random_perm(n, rng):
    return np.concatenate([[0], 1 + rng.permutation(n - 1)])


def metacyclic(n, unit):
    Q = cyclic_group(2)
    return semidirect_product(AbelianModule((n,), Q, np.array([[[1]], [[unit]]])), Q).group


# the ten group types of the local-eval benchmark workload
LOCAL_TYPES = {
    "Z8": lambda: abelian_group([8]),
    "Z12": lambda: abelian_group([12]),
    "Z16": lambda: abelian_group([16]),
    "Q8": quaternion_group,
    "M16": lambda: metacyclic(8, 5),
    "SD16": lambda: metacyclic(8, 3),
    "Z2xZ2": lambda: abelian_group([2, 2]),
    "D4": lambda: metacyclic(4, 3),
    "Z2xZ4": lambda: abelian_group([2, 4]),
    "D6": lambda: metacyclic(6, 5),
}
V4 = abelian_group([2, 2])


def local_places():
    """Z/2, Z/4 and every (Z/2)^2 place onto the order-2 Delta of real-like data."""
    return [LocalDatum("Z2", cyclic_group(2), [0, 1]),
            LocalDatum("Z4", cyclic_group(4), [0, 1, 0, 1])] + [
        LocalDatum(f"V4 {td}", V4, td) for td in ([0, 1, 0, 1], [0, 0, 1, 1], [0, 1, 1, 0])]


@pytest.mark.parametrize("name", sorted(LOCAL_TYPES))
def test_nonabelian_h1_matches_per_candidate_loop_on_local_types(name):
    G = LOCAL_TYPES[name]()
    rng = np.random.default_rng(sum(map(ord, name)))
    for table in [G.mul] + [relabel(G.mul, random_perm(G.order, rng)) for _ in range(2)]:
        gal = GaloisDatum.real_like(group_from_table(table))
        counts = [same_points(ld, gal) for ld in local_places()]
        assert max(counts) > 1


@pytest.mark.parametrize("name", ["outer D4", "swap Z2xZ2"] + sorted(BM_DATA))
def test_nonabelian_h1_matches_per_candidate_loop_on_twisted_actions(name):
    gal = {"outer D4": d4_outer_datum, "swap Z2xZ2": lambda: swap_datum(-1), **BM_DATA}[name]()
    on = gal.delta.order - 1
    data = places_onto(gal) + [LocalDatum("V4 half", V4, [0, on, 0, on]),
                               LocalDatum("V4 off", V4, [0, 0, 0, 0]),
                               LocalDatum("S3 off", symmetric_group(3), [0] * 6)]
    counts = [same_points(ld, gal) for ld in data]
    assert max(counts) > 2


def test_nonabelian_h1_on_trivial_delta_v():
    trivial = group_from_table([[0]])
    for gal in (d4_outer_datum(), GaloisDatum.real_like(quaternion_group())):
        for gens in (None, ()):
            ld = LocalDatum("pt", trivial, [0], gens)
            assert same_points(ld, gal) == 1
            assert nonabelian_h1(ld, gal)[0].table.tolist() == [0]


def test_nonabelian_h1_over_several_blocks():
    # D16 (order 32), real-like, at a (Z/2)^3 place: 32^3 candidates, more
    # than one block of the production constant
    G = dihedral_group(16)
    gal = GaloisDatum.real_like(G)
    ld = LocalDatum("v", abelian_group([2, 2, 2]), [0, 1, 1, 0, 1, 0, 0, 1])
    assert G.order ** 3 > _BLOCK_CELLS // (G.order * ld.delta_v.order)
    assert same_points(ld, gal) > 32


def test_nonabelian_h1_sorts_by_byte_key_above_255():
    # D4 x Z/65 (order 520) with its five involutions renamed 508-512.  The
    # conjugate reflections s and s r^2 become 512 and 511, and 512 has the
    # lesser first byte: the byte key and the numeric order disagree on the
    # orbit minimum and on the order of the classes
    G = semidirect_product(cyclic_group(65), metacyclic(4, 3)).group
    # r^k s^e in D4 has index 2k + e, and (z, x) in Z/65 x D4 has 8z + x
    rename = {3: 508, 7: 509, 4: 510, 5: 511, 1: 512}
    assert [g for g in range(1, G.order) if G.mul[g, g] == 0] == sorted(rename)
    rest = [g for g in range(1, G.order) if g not in rename]
    free = [t for t in range(1, G.order) if t not in rename.values()]
    perm = np.zeros(G.order, dtype=np.int64)
    perm[rest] = np.random.default_rng(7).permutation(free)
    perm[list(rename)] = list(rename.values())
    gal = GaloisDatum.real_like(FiniteGroup(relabel(G.mul, perm), validate=False))
    ld = LocalDatum("v", cyclic_group(2), [0, 1])
    assert same_points(ld, gal) == 4
    assert [h.table.tolist() for h in nonabelian_h1(ld, gal)] == [
        [0, 0], [0, 512], [0, 508], [0, 510]]


# ---------------------------------------------------------------------------
# the 2-cocycle check of the evaluation tables
# ---------------------------------------------------------------------------


def twisted_defects_all_rows(D, betas, units, m) -> list:
    """Every (k, s, t, u) where u(s) b(t, u) - b(st, u) + b(s, tu) - b(s, t) != 0, in order."""
    lhs = (units[:, None, None] * betas[:, None] - betas[:, D.mul]
           + betas[:, :, D.mul] - betas[..., None])
    return [tuple(map(int, t)) for t in np.argwhere(lhs % m)]


@pytest.mark.parametrize("name", ["outer D4", "real D4", "real Q8", "swap chi=-1"])
def test_two_cocycle_defect_on_generator_rows_matches_all_rows(name):
    # betas of classes at points, each perturbed at one entry, every other
    # time in the row b(1, .); the verdict must be that of every row, and the
    # witness the first bad (k, s, t, u) with s in {1} u minimal generators
    gal = {"outer D4": d4_outer_datum, **BM_DATA}[name]()
    cm = class_module(gal)
    exts = [cm.element(np.array(x)) for x in itertools.islice(
        itertools.product(*map(range, cm.invariant_factors)), 1, 7)]
    fs, cs = np.array([e.f for e in exts]), np.array([e.c for e in exts])
    N = gal.N
    rng = np.random.default_rng(len(name))
    on = gal.delta.order - 1
    # places where the first bad row overall can lie outside {1} u generators
    data = places_onto(gal) + [LocalDatum("Z4 by 3", cyclic_group(4), [0, on, 0, on], (3,)),
                               LocalDatum("V4 by 2, 3", V4, [0, on, on, 0], (2, 3))]
    for ld in data:
        D = ld.delta_v
        rows = {0, *D.minimal_generators()}
        units = as_mod(ld.chi_v(gal), N)
        twisted = scalar_module(N, D, units)
        points = np.array([h.table for h in nonabelian_h1(ld, gal)])
        betas = _beta_tables(fs, cs, ld, gal, points, np.arange(D.order))
        betas = betas.reshape(-1, D.order, D.order)
        assert twisted_defects_all_rows(D, betas, units, N) == []
        assert cocycle2_defect(D, twisted, betas[..., None]) is None
        for trial in range(12):
            s = 0 if trial % 2 == 0 else int(rng.integers(D.order))
            t = int(rng.integers(D.order))
            bad = betas.copy()
            bad[int(rng.integers(len(bad))), s, t] += int(rng.integers(1, N))
            ref = twisted_defects_all_rows(D, bad, units, N)
            got = cocycle2_defect(D, twisted, bad[..., None])
            assert (got is None) == (not ref)
            if ref:
                assert got == next(w for w in ref if w[1] in rows)
            # the stacked (classes, points, |D_v|, |D_v|) form gives the same
            # witness with the flat index split
            stacked = cocycle2_defect(
                D, twisted, bad.reshape(len(exts), len(points), D.order, D.order, 1))
            assert (stacked is None) == (got is None)
            if got:
                assert stacked == (*divmod(got[0], len(points)), *got[1:])


def test_every_stack_behind_the_span_test_is_a_cocycle_at_every_row(monkeypatch):
    # coboundary_mask reads the generator columns of its stacks only and
    # relies on its callers' proofs that they are 2-cocycles: _beta_tables
    # for bm_report, theta_point_beta for the theta-cup verdict and the cup
    # product of local_witness.  Each production stack is rebuilt whole here,
    # on the data of the place, cup-search and theta-cup tests, and the
    # twisted law is checked at every row; the columns production read must
    # be the whole tables' columns
    whole = []                                  # (Delta_v, tables, units, m)
    beta_tables, cup, theta = localeval._beta_tables, fastpath.cup_h1_h1, theta_point_beta
    thetas = []

    def beta_spy(fs, cs, ld, gal, h, ts):
        tables = beta_tables(fs, cs, ld, gal, h, np.arange(ld.delta_v.order))
        whole.append((ld.delta_v, tables, as_mod(ld.chi_v(gal), gal.N), gal.N))
        out = beta_tables(fs, cs, ld, gal, h, ts)
        assert np.array_equal(out, tables[..., ts])
        return out

    def cup_spy(G, M, x, Mdual, y, cols=None):
        table = cup(G, M, x, Mdual, y)
        whole.append((G, table, np.ones(G.order, dtype=np.int64), M.exponent))
        out = cup(G, M, x, Mdual, y, cols)
        assert np.array_equal(out, table if cols is None else table[:, cols])
        return out

    def theta_spy(*args):
        thetas.append(args)
        return theta(*args)

    monkeypatch.setattr(localeval, "_beta_tables", beta_spy)
    monkeypatch.setattr(fastpath, "cup_h1_h1", cup_spy)
    monkeypatch.setattr(localeval, "theta_point_beta", theta_spy)
    for _, make in sorted(LOCAL_TYPES.items()):
        gal = GaloisDatum.real_like(make())
        cm = class_module(gal)
        entries = [ClassEntry(f"c{i}", cm.element(np.array(x))) for i, x in enumerate(
            itertools.product(*map(range, cm.invariant_factors)))]
        for ld in local_places():
            bm_report(entries, [ld], gal)
    for _, make in sorted({"outer D4": d4_outer_datum, **BM_DATA}.items()):
        gal = make()
        cm = class_module(gal)
        entries = [ClassEntry(f"c{i}", cm.element(np.array(x))) for i, x in enumerate(
            itertools.islice(itertools.product(*map(range, cm.invariant_factors)), 32))]
        on = gal.delta.order - 1
        for ld in places_onto(gal) + [LocalDatum("V4 by 2, 3", V4, [0, on, on, 0], (2, 3))]:
            bm_report(entries, [ld], gal)
    tables_at = len(whole)
    one = GaloisDatum.trivial(group_from_table([[0]]), N=1)
    theta_entries = []
    for _, sd, a, delta_v, c_v in CUP_CASES:
        w = local_witness(sd, h1(sd.Q, sd.N_hat), a, delta_v, np.asarray(c_v, dtype=np.int64),
                          search_cup=True)
        if w.cup_point is not None:
            ld = LocalDatum("v", delta_v, np.zeros(delta_v.order, dtype=np.int64))
            entry = FastpathClassEntry("fast", sd, a, sd.group_order, {"v": w})
            bm_report([entry], [ld], one)
            theta_entries.append(entry)
    assert tables_at and len(whole) > tables_at and len(thetas) == len(theta_entries) > 0
    for entry, (sd, a, modulus, c_v, y_rows) in zip(theta_entries, thetas):
        w = entry.witnesses["v"]
        table = theta(sd, a, modulus, c_v, w.cup_point.y_table)
        S = w.delta_v.minimal_generators()
        assert np.array_equal(y_rows, w.cup_point.y_table[S])
        whole.append((w.delta_v, table, np.ones(w.delta_v.order, dtype=np.int64), modulus))
    for D, tables, units, m in whole:
        tables = tables.reshape(-1, D.order, D.order)
        assert twisted_defects_all_rows(D, tables, units, m) == []
        assert not tables[:, 0].any() and not tables[:, :, 0].any()


# ---------------------------------------------------------------------------
# tuple status
# ---------------------------------------------------------------------------


def tuple_rows_by_combos(rep) -> list:
    """The status of every tuple from the verdict list of its points."""
    at: dict = {}
    for label, rows in rep.per_class.items():
        for pv in rows:
            at.setdefault(pv.place, {}).setdefault(pv.point_label, {})[label] = pv.verdict
    axes = [sorted(at.get(place, {"base": {}})) for place in rep.places]
    out = []
    for combo in itertools.product(*axes):
        verdicts = [v for place, point in zip(rep.places, combo)
                    for v in at.get(place, {}).get(point, {}).values()]
        if "NonzeroCertified" in verdicts:
            status = "Excluded"
        elif all(v == "Zero" for v in verdicts):
            status = "Admissible"
        else:
            status = "Undetermined"
        out.append((combo, status))
    return out


def test_tuple_status_matches_per_combo_loop_with_mixed_entries():
    ex = build_example_714(2)
    gen = (4 * ex.a_table) % 8
    w = local_witness(ex.sd, h1(ex.sd.Q, ex.sd.N_hat), gen, ex.sd.Q, np.arange(8),
                      search_cup=False)
    gal = GaloisDatum.real_like(dihedral_group(4))
    cm = class_module(gal)
    # a trivial Delta_v has the base point alone
    data = places_onto(gal) + [LocalDatum("pt", group_from_table([[0]]), [0])]
    entries = [ClassEntry(f"c{i}", cm.element(np.array(x))) for i, x in enumerate(
        itertools.islice(itertools.product(*map(range, cm.invariant_factors)), 6))]
    entries[2:2] = [FastpathClassEntry("fast Z4", ex.sd, gen, 8, {"Z4": w}),
                    FastpathClassEntry("fast none", ex.sd, gen, 8)]
    rep = bm_report(entries, data, gal)
    assert rep.tuple_rows == tuple_rows_by_combos(rep)
    assert {status for _, status in rep.tuple_rows} == {
        "Admissible", "Undetermined", "Excluded"}
    # with no classes every place has the default base point alone
    empty = bm_report([], data, gal)
    assert empty.tuple_rows == tuple_rows_by_combos(empty) == [
        (("base",) * len(data), "Admissible")]
    assert bm_report([], [], gal).tuple_rows == [((), "Admissible")]


@pytest.mark.parametrize("name", sorted(BM_DATA))
def test_tuple_status_matches_per_combo_loop(name):
    gal = BM_DATA[name]()
    cm = class_module(gal)
    entries = [ClassEntry(f"c{i}", cm.element(np.array(x))) for i, x in enumerate(
        itertools.islice(itertools.product(*map(range, cm.invariant_factors)), 12))]
    rep = bm_report(entries, places_onto(gal), gal)
    assert rep.tuple_rows == tuple_rows_by_combos(rep)
