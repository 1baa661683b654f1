from math import gcd, lcm

import numpy as np
import pytest

from brnr.errors import NoIdentity, NonAssociative, NotASubgroup, ValidationError
from brnr.fastpath import build_example_714
from brnr.groups import (
    AbelianModule,
    GroupAction,
    abelian_group,
    cyclic_group,
    dihedral_group,
    group_from_permutations,
    group_from_table,
    quaternion_group,
    semidirect_product,
    symmetric_group,
)
from brnr.cohomology import _generator_pairs, _pair_members, family_generators
from brnr.reference import subgroups_abelian
from brnr.selfchecks import bicyclic_by_pairs, family_by_pairs

from test_generator_rows import metacyclic, relabel


def test_group_from_table_trivial_and_cyclic():
    G = group_from_table([[0]])
    assert G.order == 1

    G = group_from_table(cyclic_group(4).mul)
    assert G.order == 4
    assert G.element_order(1) == 4


def test_group_from_table_rejects_bad_tables():
    with pytest.raises(NoIdentity):
        group_from_table([[1, 0], [0, 1]])
    # a 6x6 table with an associativity defect, identity and inverses intact
    mul = cyclic_group(6).mul.copy()
    mul[2, 3] = 1  # breaks associativity somewhere but keeps row/col 0
    with pytest.raises(NonAssociative) as err:
        group_from_table(mul)
    g, h, k = err.value.witness
    left = mul[mul[g, h], k]
    right = mul[g, mul[h, k]]
    assert left != right


def test_group_from_permutations():
    G = group_from_permutations([[1, 0]])
    assert G.order == 2

    G = group_from_permutations([[1, 0, 2], [1, 2, 0]])
    assert G.order == 6
    assert not G.is_abelian  # S3

    G = group_from_permutations([], degree=3)
    assert G.order == 1


def _permutation_table_by_loop(gens, degree):
    """Reference: the BFS closure, then p o q composed and looked up pair by pair."""
    ident = tuple(range(degree))
    elems, index, queue = [ident], {ident: 0}, [ident]
    while queue:
        x = queue.pop(0)
        for g in gens:
            y = tuple(x[g[i]] for i in range(degree))
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
                queue.append(y)
    return np.array([[index[tuple(p[q[k]] for k in range(degree))] for q in elems]
                     for p in elems], dtype=np.int64)


def _e2k(k):
    """(Z/2)^k as the swaps (2i, 2i + 1) of 2k points."""
    gens = [list(range(2 * k)) for _ in range(k)]
    for i, g in enumerate(gens):
        g[2 * i], g[2 * i + 1] = 2 * i + 1, 2 * i
    return gens


@pytest.mark.parametrize("name, gens, degree", [
    ("S5", [[1, 0, 2, 3, 4], [1, 2, 3, 4, 0]], 5),
    ("D7", [[1, 2, 3, 4, 5, 6, 0], [(7 - i) % 7 for i in range(7)]], 7),
    ("D8", [[1, 2, 3, 4, 5, 6, 7, 0], [(8 - i) % 8 for i in range(8)]], 8),
    ("(Z/2)^5", _e2k(5), 10),
    ("S4 with the identity and a repeat", [list(range(4)), [1, 0, 2, 3], [1, 2, 3, 0],
                                           [1, 0, 2, 3]], 4),
])
def test_permutation_table_matches_the_pairwise_loop(name, gens, degree):
    # the rows are read off the generator rows; the table is the one the
    # element-by-element composition gives, in the same BFS order
    G = group_from_permutations(gens, degree=degree)
    assert np.array_equal(G.mul, _permutation_table_by_loop(gens, degree))
    assert np.array_equal(group_from_table(G.mul).mul, G.mul)


def test_quaternion_table_is_pinned():
    # 1, -1, i, -i, j, -j, k, -k: ij = k, jk = i, ki = j, i^2 = j^2 = k^2 = -1
    assert quaternion_group().mul.tolist() == [
        [0, 1, 2, 3, 4, 5, 6, 7], [1, 0, 3, 2, 5, 4, 7, 6],
        [2, 3, 1, 0, 6, 7, 5, 4], [3, 2, 0, 1, 7, 6, 4, 5],
        [4, 5, 7, 6, 1, 0, 2, 3], [5, 4, 6, 7, 0, 1, 3, 2],
        [6, 7, 4, 5, 3, 2, 1, 0], [7, 6, 5, 4, 2, 3, 0, 1]]


def test_element_orders_and_exponent():
    G = abelian_group([2, 4])
    assert sorted(G.element_orders.tolist()) == [1, 2, 2, 2, 4, 4, 4, 4]
    assert G.exponent == 4
    S3 = symmetric_group(3)
    assert sorted(S3.element_orders.tolist()) == [1, 2, 2, 2, 3, 3]


def _orders_by_loop(G):
    """Reference: multiply by g until the identity comes back."""
    out = []
    for g in range(G.order):
        x, k = g, 1
        while x != 0:
            x, k = int(G.mul[x, g]), k + 1
        out.append(k)
    return out


def _power_by_loop(G, g, k, order):
    out = 0
    for _ in range(k % order):
        out = int(G.mul[out, g])
    return out


def _unit_group(m):
    """(Z/m)^x as a table on the residues prime to m, in increasing order."""
    units = np.array([r for r in range(1, m) if gcd(r, m) == 1])
    return group_from_table(np.searchsorted(units, np.outer(units, units) % m))


POWER_GROUPS = {
    "trivial": lambda: group_from_table([[0]]),
    "S4": lambda: symmetric_group(4),
    "Q8": quaternion_group,
    **{f"Z{n}:Z{q} u={u} seed {seed}": (lambda n=n, q=q, u=u, seed=seed:
                                        relabel(metacyclic(n, q, u), seed)[0])
       for n, q, u in ((8, 2, 5), (4, 4, 3), (9, 3, 4), (7, 3, 2)) for seed in range(2)},
    # Wang's Delta = (Z/256)^x = Z/2 x Z/64, of order 128
    "(Z/256)^x": lambda: _unit_group(256),
}


@pytest.mark.parametrize("name", sorted(POWER_GROUPS))
def test_power_table_matches_the_loops(name):
    G = POWER_GROUPS[name]()
    orders = _orders_by_loop(G)
    exponent = lcm(*orders)
    P = np.zeros((exponent, G.order), dtype=np.int64)
    for k in range(1, exponent):
        P[k] = G.mul[P[k - 1], np.arange(G.order)]
    assert np.array_equal(G.powers, P)
    assert G.element_orders.tolist() == orders and G.exponent == exponent
    for g in range(G.order):
        for k in (0, 1, 2, 5, orders[g] - 1, orders[g], exponent + 3, -1, -7):
            assert G.power(g, k) == _power_by_loop(G, g, k, orders[g])
    # the least generator of each cyclic subgroup, and the subgroups from the closures
    closures = [G.closure([g]) for g in range(G.order)]
    least = {}
    for g, H in enumerate(closures):
        least.setdefault(H, g)
    assert G.cyclic_generators.tolist() == sorted(least.values())
    read = (tuple(np.unique(G.powers[:, g]).tolist()) for g in G.cyclic_generators)
    assert sorted(read, key=lambda h: (len(h), h)) == sorted(least, key=lambda h: (len(h), h))


def test_minimal_generators_are_computed_once_and_returned_as_fresh_lists():
    G = dihedral_group(8)
    gens = G.minimal_generators()
    assert isinstance(gens, list) and len(G.closure(gens)) == G.order
    assert G._minimal_generators is G._minimal_generators
    # a list indexes one axis; a tuple would be read as a multi-axis index
    assert np.array_equal(np.arange(G.order)[gens], gens)
    expect = list(gens)
    gens.append(0)
    gens[0] = 5
    assert G.minimal_generators() == expect


def _tree_by_loop(G, gens, left):
    """Reference: the BFS tree one node at a time, children by parent then generator."""
    levels, seen, frontier = [], {0}, [0]
    while frontier:
        level = []
        for parent in frontier:
            for i, s in enumerate(gens):
                x = int(G.mul[s, parent] if left else G.mul[parent, s])
                if x not in seen:
                    seen.add(x)
                    level.append((x, parent, i))
        if level:
            levels.append(np.array(level, dtype=np.int64).T)
        frontier = [x for x, _, _ in level]
    return levels


@pytest.mark.parametrize("left", [False, True])
def test_tree_levels_match_the_loop_and_reject_non_generators(left):
    for G in (symmetric_group(4), quaternion_group(), dihedral_group(6), cyclic_group(12)):
        gs = G.minimal_generators()
        for gens in (gs, gs[::-1], [0, *gs, gs[0], G.order - 1]):
            levels = G.tree_levels(gens, left=left)
            ref = _tree_by_loop(G, gens, left)
            assert len(levels) == len(ref)
            assert all(np.array_equal(a, b) for a, b in zip(levels, ref))
            x, parent, i = np.hstack(levels)
            assert sorted(x) == list(range(1, G.order))
            s = np.asarray(gens)[i]
            assert np.array_equal(x, G.mul[s, parent] if left else G.mul[parent, s])
        with pytest.raises(ValidationError):
            G.tree_levels(gs[:-1] if len(gs) > 1 else [0], left=left)
    assert cyclic_group(1).tree_levels([], left=left) == []
    with pytest.raises(ValidationError):
        cyclic_group(3).tree_levels([], left=left)


def test_subgroups_cyclic():
    Z4 = cyclic_group(4)
    subs = family_by_pairs(Z4, "cyc")
    assert subs == [(0,), (0, 2), (0, 1, 2, 3)]

    S3 = symmetric_group(3)
    assert len(family_by_pairs(S3, "cyc")) == 5  # 1, three of order 2, one of order 3

    T = group_from_table([[0]])
    assert family_by_pairs(T, "cyc") == [(0,)]


def test_subgroups_cyclic_matches_bruteforce_count():
    for G in (abelian_group([2, 2]), symmetric_group(3), dihedral_group(4)):
        subs = set(family_by_pairs(G, "cyc"))
        brute = {G.closure([g]) for g in range(G.order)}
        assert subs == brute


def test_subgroups_bicyclic():
    Z2 = cyclic_group(2)
    assert bicyclic_by_pairs(Z2) == [(0,), (0, 1)]

    V = abelian_group([2, 2])
    assert len(bicyclic_by_pairs(V)) == 5  # all subgroups of (Z/2)^2

    S3 = symmetric_group(3)
    assert set(bicyclic_by_pairs(S3)) == {S3.closure([g]) for g in range(6)}

    # bicyclic contains cyclic for a batch of groups
    for G in (dihedral_group(4), quaternion_group(), abelian_group([2, 4])):
        assert set(bicyclic_by_pairs(G)) >= set(family_by_pairs(G, "cyc"))


def assert_family_generators_cover(G):
    """The member set of each commuting pair of least generators is its
    closure; the closure of each cyc or bic generating tuple is a member of
    the family, no two are equal, and every member lies in one of them."""
    s, t = _generator_pairs(G)
    keys = np.array([np.packbits(np.isin(np.arange(G.order), G.closure([a, b])))
                     for a, b in zip(s, t)]).reshape(len(s), -1)
    assert np.array_equal(_pair_members(G, s, t), keys.view(f"S{keys.shape[1]}").ravel())
    for family in ("cyc", "bic"):
        members = family_by_pairs(G, family)
        closures = [G.closure(gens) for gens in family_generators(G, family)]
        assert set(closures) <= set(members) and len(set(closures)) == len(closures)
        assert all(any(set(H) <= set(C) for C in closures) for H in members)


@pytest.mark.parametrize("seed", range(2))
def test_subgroups_bicyclic_match_the_pair_loop(seed):
    # the cyc and bic generating tuples, read off the power table at least
    # generators, against the closure of every commuting pair; relabelling
    # moves the least generator of each cyclic subgroup; Z/64 has a power
    # table of 64 rows, Z3 x Z3 x Z9 elements of orders 3 and 9
    for G in (symmetric_group(4), dihedral_group(8), quaternion_group(), metacyclic(8, 4, 3),
              abelian_group([2, 2, 4]), abelian_group([3, 3, 9]), cyclic_group(64)):
        H, _ = relabel(G, seed)
        assert_family_generators_cover(H)


def test_subgroup_generators_match_the_subgroup_table():
    # the greedy walk on G's table is the image of the greedy generators of
    # the reindexed subgroup; every subgroup of S4 has two generators
    S4 = symmetric_group(4)
    subgroups = {S4.closure([a, b]) for a in range(S4.order) for b in range(a, S4.order)}
    A = abelian_group([2, 4, 4])
    for G, family in ((S4, subgroups), (A, subgroups_abelian(A))):
        for elems in family:
            B, idx = G.subgroup_table(elems)
            assert G.subgroup_generators(frozenset(elems)) == idx[B.minimal_generators()].tolist()
    assert S4.subgroup_generators(range(S4.order)) == S4.minimal_generators()


def test_subgroups_abelian_of_s3():
    S3 = symmetric_group(3)
    assert set(subgroups_abelian(S3)) == set(family_by_pairs(S3, "cyc"))
    V8 = abelian_group([2, 2, 2])
    # (Z/2)^3 has 16 subgroups, all abelian
    assert len(subgroups_abelian(V8)) == 16


def test_semidirect_trivial_action_is_direct_product():
    N, Q = cyclic_group(3), cyclic_group(2)
    sd = semidirect_product(N, Q)
    assert sd.group.order == 6
    assert sd.group.is_abelian


def test_semidirect_z3_z2_is_s3():
    N, Q = cyclic_group(3), cyclic_group(2)
    invert = np.array([[0, 1, 2], [0, 2, 1]])
    sd = semidirect_product(N, Q, GroupAction(Q, N, invert))
    G = sd.group
    assert G.order == 6 and not G.is_abelian
    assert sorted(G.element_orders.tolist()) == sorted(
        symmetric_group(3).element_orders.tolist())


def test_semidirect_z4_z2_is_dihedral():
    N, Q = cyclic_group(4), cyclic_group(2)
    invert = np.array([[0, 1, 2, 3], [0, 3, 2, 1]])
    sd = semidirect_product(N, Q, GroupAction(Q, N, invert))
    G = sd.group
    assert G.order == 8 and not G.is_abelian
    assert sorted(G.element_orders.tolist()) == sorted(
        dihedral_group(4).element_orders.tolist())
    # embedded copies and projection really are homomorphisms
    for i in range(4):
        for j in range(4):
            a, b = sd.n_embed[i], sd.n_embed[j]
            assert sd.project_q[G.mul[a, b]] == 0
    for i in range(2):
        for j in range(2):
            a, b = sd.q_embed[i], sd.q_embed[j]
            assert G.mul[a, b] == sd.q_embed[Q.mul[i, j]]


def test_action_validation():
    N, Q = cyclic_group(4), cyclic_group(2)
    bad = GroupAction(Q, N, np.array([[0, 1, 2, 3], [0, 2, 1, 3]]))
    with pytest.raises(ValidationError):
        bad.validate()
    good = GroupAction(Q, N, np.array([[0, 1, 2, 3], [0, 3, 2, 1]]))
    good.validate()


def test_module_dual_and_double_dual():
    Q = cyclic_group(2)
    # Z/4 with Q negating
    M = AbelianModule((4,), Q, np.array([[[1]], [[3]]]))
    M.validate()
    D = M.dual()
    D.validate()
    DD = D.dual()
    assert np.array_equal(DD.action % 4, M.action % 4)

    # mixed factors Z/2 + Z/4 with a swap-flavoured action must stay well-defined
    M2 = AbelianModule((2, 4), Q, np.array([np.eye(2, dtype=int),
                                            [[1, 0], [2, 3]]]))
    M2.validate()
    D2 = M2.dual()
    D2.validate()
    DD2 = D2.dual()
    d = np.array([2, 4])
    assert np.array_equal(DD2.action % d[None, :, None], M2.action % d[None, :, None])


def _dual_by_entries(M):
    """Reference dual action, entry by entry: out[a, j, i] = M(a^-1)[i, j] d_j / d_i."""
    d, out = M.invariant_factors, np.zeros_like(M.action)
    for a in range(M.actor.order):
        Ma = M.action[M.actor.inv[a]]
        for j in range(M.rank):
            for i in range(M.rank):
                out[a, j, i] = Ma[i, j] * d[j] // d[i]
    return out


def test_module_dual_matches_the_entry_loop():
    Q = cyclic_group(2)
    mods = [AbelianModule((2, 4), Q, np.array([np.eye(2, dtype=int), [[1, 0], [2, 3]]]))]
    for p in (2, 3):
        sd = build_example_714(p).sd
        mods += [sd.N, sd.N_hat]
    for M in mods:
        assert np.array_equal(M.dual().action, _dual_by_entries(M))


def test_module_pairing_nondegenerate():
    M = AbelianModule((2, 4))
    seen = set()
    vectors = [np.array(v, dtype=np.int64) for v in np.ndindex(*M.invariant_factors)]
    for phi in vectors:
        row = tuple(M.pairing(phi, x) for x in vectors)
        seen.add(row)
    assert len(seen) == M.order  # distinct characters give distinct rows


def test_module_to_table_group_roundtrip():
    M = AbelianModule((2, 4))
    G, _ = M.to_table_group()
    assert G.order == 8 and G.is_abelian
    assert sorted(G.element_orders.tolist()) == sorted(
        abelian_group([2, 4]).element_orders.tolist())


def test_subgroup_table_rejects_nonsubgroup():
    S3 = symmetric_group(3)
    with pytest.raises(NotASubgroup):
        S3.subgroup_table([0, 1, 2])  # two transpositions but not closed? find real one


def _subgroup_table_by_loop(G, elements):
    """The reindexed table by one lookup per pair, raising at the first
    (a, b, ab) in row-major order that leaves the set."""
    elems = tuple(sorted(int(e) for e in set(elements)))
    if not elems or elems[0] != 0:
        raise NotASubgroup("subgroup must contain the identity", witness=elems[:4])
    pos = {e: i for i, e in enumerate(elems)}
    sub = np.empty((len(elems), len(elems)), dtype=np.int64)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            p = int(G.mul[a, b])
            if p not in pos:
                raise NotASubgroup("set not closed", witness=(a, b, p))
            sub[i, j] = pos[p]
    return sub, np.array(elems, dtype=np.int64)


@pytest.mark.parametrize("seed", range(6))
def test_subgroup_table_matches_the_pairwise_loop(seed):
    # closures of random elements (subgroups), random sets with and without
    # the identity: the same table and indices, or the same first witness
    S5 = symmetric_group(5)
    rng = np.random.default_rng(seed)
    for trial in range(50):
        kind = trial % 3
        if kind == 0:
            elems = S5.closure(rng.choice(S5.order, int(rng.integers(1, 3))).tolist())
        else:
            elems = rng.choice(S5.order, int(rng.integers(1, 40)), replace=False).tolist()
            elems = elems + [0] if kind == 1 else elems
        try:
            want = _subgroup_table_by_loop(S5, elems)
        except NotASubgroup as exc:
            with pytest.raises(NotASubgroup) as got:
                S5.subgroup_table(elems)
            assert got.value.witness == exc.witness
            assert all(type(w) is int for w in got.value.witness)
            continue
        B, idx = S5.subgroup_table(elems)
        assert np.array_equal(B.mul, want[0]) and np.array_equal(idx, want[1])
