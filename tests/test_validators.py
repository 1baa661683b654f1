"""The table validators read each law at generators; here they are compared
with the all-pairs and all-triples checks they replaced, on single-entry and
whole-row mutations of nonabelian data and of Wang's Delta = (Z/64)^x, whose
greedy generating set has two elements."""

import math

import numpy as np
import pytest

from brnr.errors import ValidationError
from brnr.extensions import GaloisDatum
from brnr.groups import (
    AbelianModule,
    FiniteGroup,
    GroupAction,
    abelian_group,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    symmetric_group,
)

GROUPS = {"Z6": lambda: cyclic_group(6), "S3": lambda: symmetric_group(3),
          "D4": lambda: dihedral_group(4), "Q8": quaternion_group,
          "Z2xZ4": lambda: abelian_group([2, 4]), "S4": lambda: symmetric_group(4)}


def wang_delta() -> tuple[FiniteGroup, np.ndarray]:
    """(Z/64)^x tabulated on the odd residues, and the residues."""
    units = np.array([r for r in range(1, 64) if math.gcd(r, 8) == 1])
    return FiniteGroup(np.searchsorted(units, np.outer(units, units) % 64)), units


def verdict(check) -> tuple[str | None, object]:
    """(message, witness) of the ValidationError that check() raises, or (None, None)."""
    try:
        check()
    except ValidationError as err:
        return str(err).split(" (witness")[0], err.witness
    return None, None


def automorphism_variants(actor: FiniteGroup) -> list[np.ndarray]:
    """Automorphisms of the actor as index maps: conjugations, and inversion
    if the actor is abelian; a table composed with one is still an action."""
    out = [actor.mul[actor.mul[c], actor.inv[c]] for c in range(actor.order)]
    return out + ([actor.inv] if actor.is_abelian else [])


def coset_rebuilds(actor: FiniteGroup, table: np.ndarray, values, compose, rng, count: int):
    """Tables with one left coset a<s>, a not in <s>, of one generator s
    rebuilt from a value R taken for a, with R o table[s^k] at a s^k.  The
    homomorphism law at e = s still holds, so only another generator of the
    actor can reject them."""
    S = actor.minimal_generators()
    out = []
    for _ in range(count):
        s = S[rng.integers(len(S))]
        a = rng.choice(np.setdiff1d(np.arange(actor.order), actor.closure([s])))
        R = values[rng.integers(len(values))]
        T, p = table.copy(), 0
        while True:
            T[actor.mul[a, p]] = compose(R, table[p])
            p = actor.mul[p, s]
            if p == 0:
                out.append(T)
                break
    return out


# ---------------------------------------------------------------------------
# the all-pairs and all-triples references
# ---------------------------------------------------------------------------


def group_reference(mul: np.ndarray) -> str | None:
    """The first failing check of FiniteGroup, with all triples for associativity."""
    n = len(mul)
    if mul.min() < 0 or mul.max() >= n:
        return "table entries out of range"
    if not np.array_equal(mul[0], np.arange(n)):
        return "index 0 is not a left identity"
    if not np.array_equal(mul[:, 0], np.arange(n)):
        return "index 0 is not a right identity"
    if not (mul == 0).any(axis=1).all():
        return "element has no inverse"
    for g in range(n):
        if not np.array_equal(mul[mul[g]], mul[g][mul]):
            return "associativity fails"
    return None


def action_reference(actor: FiniteGroup, target: FiniteGroup, T: np.ndarray) -> str | None:
    n, mt = target.order, target.mul
    if not np.array_equal(T[0], np.arange(n)):
        return "action of the identity is not the identity map"
    for a in range(actor.order):
        if sorted(T[a].tolist()) != list(range(n)):
            return "action row is not a permutation"
        if not np.array_equal(T[a][mt], mt[np.ix_(T[a], T[a])]):
            return "action row is not an automorphism"
    for a in range(actor.order):
        for b in range(actor.order):
            if not np.array_equal(T[actor.mul[a, b]], T[a][T[b]]):
                return "action is not a homomorphism"
    return None


def module_reference(M: AbelianModule) -> str | None:
    d = np.array(M.invariant_factors, dtype=np.int64)
    A, mul = M.action, M.actor.mul
    for a in range(M.actor.order):
        if ((A[a] * d[None, :]) % d[:, None]).any():
            return "action matrix does not respect the moduli"
    if not np.array_equal(A[0] % d[:, None], np.eye(M.rank, dtype=np.int64) % d[:, None]):
        return "action of the identity is not the identity matrix"
    for a in range(M.actor.order):
        for b in range(M.actor.order):
            if ((A[a] @ A[b] - A[mul[a, b]]) % d[:, None]).any():
                return "module action is not a homomorphism"
    return None


def chi_reference(gal: GaloisDatum) -> bool:
    """True when chi is a unit-valued character mod N^2, read at all pairs."""
    n2, chi, mul = gal.N ** 2, gal.chi, gal.delta.mul
    return (chi[0] % n2 == 1 % n2
            and all(math.gcd(int(x), n2) == 1 for x in chi)
            and all((chi[d] * chi[e] - chi[mul[d, e]]) % n2 == 0
                    for d in range(len(chi)) for e in range(len(chi))))


# ---------------------------------------------------------------------------
# groups
# ---------------------------------------------------------------------------


def intercalate_swaps(mul: np.ndarray, limit: int):
    """Tables with one 2x2 subsquare [[x, y], [y, x]] off row and column 0
    swapped: still Latin with identity 0, so only associativity can fail."""
    n, found = len(mul), 0
    for g1 in range(1, n):
        for g2 in range(g1 + 1, n):
            for h1 in range(1, n):
                h2 = int(np.nonzero(mul[g2] == mul[g1, h1])[0][0])
                if h2 > h1 and mul[g1, h2] == mul[g2, h1]:
                    out = mul.copy()
                    out[g1, h1], out[g2, h2] = mul[g1, h2], mul[g2, h1]
                    out[g1, h2], out[g2, h1] = mul[g1, h1], mul[g2, h2]
                    yield out
                    found += 1
                    if found == limit:
                        return


@pytest.mark.parametrize("name", [*GROUPS, "Wang (Z/64)^x"])
def test_associativity_at_generators_matches_all_triples(name):
    mul = GROUPS[name]().mul if name in GROUPS else wang_delta()[0].mul
    n = len(mul)
    rng = np.random.default_rng(n)
    tables = [mul, *intercalate_swaps(mul, 60)]
    for _ in range(120):
        bad = mul.copy()
        bad[tuple(rng.integers(0, n, size=2))] = rng.integers(0, n)
        tables.append(bad)
    seen = set()
    for table in tables:
        expect = group_reference(table)
        seen.add(expect)
        message, witness = verdict(lambda: FiniteGroup(table))
        assert message == expect
        if message == "associativity fails":
            g, h, s = witness
            assert table[table[g, h], s] != table[g, table[h, s]]
            assert s in FiniteGroup(table, validate=False).minimal_generators()
    assert {None, "associativity fails"} <= seen


# ---------------------------------------------------------------------------
# actions
# ---------------------------------------------------------------------------


def conjugation_action(G: FiniteGroup) -> GroupAction:
    return GroupAction(G, G, G.mul[G.mul, G.inv[:, None]])


def residue_action() -> GroupAction:
    """Wang's Delta acting on Z/8 by multiplication with the residue."""
    delta, units = wang_delta()
    Z8 = cyclic_group(8)
    return GroupAction(delta, Z8, units[:, None] * np.arange(8) % 8)


ACTIONS = {**{name: (lambda make=GROUPS[name]: conjugation_action(make()))
              for name in ("S3", "D4", "Q8", "S4")},
           "Wang residue": residue_action}


def check_action_witness(message, witness, actor, target, T):
    mt = target.mul
    if message == "action row is not a permutation":
        assert sorted(T[witness].tolist()) != list(range(target.order))
    elif message == "action row is not an automorphism":
        a, g, s = witness
        assert s in target.minimal_generators()
        assert T[a, mt[g, s]] != mt[T[a, g], T[a, s]]
    elif message == "action is not a homomorphism":
        a, e = witness
        assert e in actor.minimal_generators()
        assert not np.array_equal(T[actor.mul[a, e]], T[a][T[e]])


@pytest.mark.parametrize("name", ACTIONS)
def test_action_laws_at_generators_match_all_pairs(name):
    base = ACTIONS[name]()
    actor, target, T0 = base.actor, base.target, base.table
    m, n = T0.shape
    rng = np.random.default_rng(m + n)
    tables = [T0[alpha] for alpha in automorphism_variants(actor)]
    tables += coset_rebuilds(actor, T0, T0, lambda R, X: R[X], rng, 40)
    for _ in range(60):
        a, b = rng.integers(0, m, size=2)
        T = T0.copy()
        T[a, rng.integers(0, n)] = rng.integers(0, n)       # one entry
        tables.append(T)
        T = T0.copy()
        T[max(a, 1)] = T0[b]                                 # one whole row
        tables.append(T)
        T = T0.copy()
        x, y = rng.integers(1, n, size=2)
        T[max(a, 1), [x, y]] = T0[max(a, 1), [y, x]]         # two entries swapped
        tables.append(T)
        T = T0.copy()
        T[max(a, 1), 1:] = rng.permutation(T0[max(a, 1), 1:])
        tables.append(T)
    seen = set()
    for T in tables:
        expect = action_reference(actor, target, T)
        seen.add(expect)
        message, witness = verdict(GroupAction(actor, target, T).validate)
        assert message == expect
        check_action_witness(message, witness, actor, target, T)
    assert {None, "action row is not a permutation", "action row is not an automorphism",
            "action is not a homomorphism"} <= seen


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------


def regular_module(G: FiniteGroup) -> AbelianModule:
    """Z/2 (trivial) + (Z/4)^|G| permuted by left multiplication."""
    n = G.order
    A = np.zeros((n, n + 1, n + 1), dtype=np.int64)
    A[:, 0, 0] = 1
    A[np.arange(n)[:, None], 1 + G.mul, 1 + np.arange(n)[None, :]] = 1
    return AbelianModule((2,) + (4,) * n, G, A)


def residue_module() -> AbelianModule:
    """Z/2 + Z/8 with Wang's Delta acting trivially on Z/2 and by the residue on Z/8."""
    delta, units = wang_delta()
    A = np.zeros((delta.order, 2, 2), dtype=np.int64)
    A[:, 0, 0], A[:, 1, 1] = 1, units
    return AbelianModule((2, 8), delta, A)


MODULES = {**{name: (lambda make=GROUPS[name]: regular_module(make()))
              for name in ("S3", "D4", "Q8")},
           "Wang residue": residue_module}


@pytest.mark.parametrize("name", MODULES)
def test_module_laws_at_generators_match_all_pairs(name):
    base = MODULES[name]()
    actor, factors, A0 = base.actor, base.invariant_factors, base.action
    m, r = actor.order, base.rank
    d = np.array(factors)
    rng = np.random.default_rng(m + r)
    actions = [A0[alpha] for alpha in automorphism_variants(actor)]
    actions += coset_rebuilds(actor, A0, A0, np.matmul, rng, 40)
    for _ in range(80):
        a, b = rng.integers(0, m, size=2)
        i, j = rng.integers(0, r, size=2)
        A = A0.copy()
        A[a, i, j] = rng.integers(0, 2 * d[i])               # one entry
        actions.append(A)
        A = A0.copy()
        A[max(a, 1)] = A0[b]                                 # one whole matrix
        actions.append(A)
    seen = set()
    for A in actions:
        M = AbelianModule(factors, actor, A)
        expect = module_reference(M)
        seen.add(expect)
        message, witness = verdict(M.validate)
        assert message == expect
        if message == "action matrix does not respect the moduli":
            a, i, j = witness
            assert M.action[a, i, j] * d[j] % d[i]
        elif message == "module action is not a homomorphism":
            a, e = witness
            assert e in actor.minimal_generators()
            assert ((M.action[a] @ M.action[e] - M.action[actor.mul[a, e]]) % d[:, None]).any()
    assert {None, "module action is not a homomorphism"} <= seen


# ---------------------------------------------------------------------------
# chi
# ---------------------------------------------------------------------------


def chi_data() -> dict[str, GaloisDatum]:
    """chi the residue on Wang's Delta (N = 8), and the sign of S3 (N = 3)."""
    delta, units = wang_delta()
    Z8 = cyclic_group(8)
    S3 = symmetric_group(3)
    sign = np.where(S3.element_orders == 2, 8, 1)          # -1 mod 9 on the transpositions
    Z3 = cyclic_group(3)
    return {"Wang": GaloisDatum(delta, Z8, units, GroupAction.trivial(delta, Z8), 8),
            "S3 sign": GaloisDatum(S3, Z3, sign, GroupAction.trivial(S3, Z3), 3)}


@pytest.mark.parametrize("name", ["Wang", "S3 sign"])
def test_chi_at_generators_matches_all_pairs(name):
    base = chi_data()[name]
    n2, m = base.N ** 2, base.delta.order
    rng = np.random.default_rng(n2)
    chis = [np.array([pow(int(x), k, n2) for x in base.chi]) for k in (1, 2, 3, 5)]
    units = [u for u in range(1, n2) if math.gcd(u, n2) == 1]
    chis += coset_rebuilds(base.delta, base.chi, units, lambda R, x: R * x % n2, rng, 40)
    for _ in range(80):
        chi = base.chi.copy()
        chi[rng.integers(0, m)] = rng.integers(0, n2)
        chis.append(chi)
    seen = set()
    for chi in chis:
        gal = GaloisDatum(base.delta, base.G, chi, base.action, base.N)
        expect = chi_reference(gal)
        seen.add(expect)
        message, witness = verdict(gal.validate)
        assert (message is None) == expect
        if message == "chi value is not a unit mod N^2":
            assert math.gcd(int(gal.chi[witness]), n2) != 1
        elif message == "chi is not multiplicative":
            dd, e = witness
            assert e in base.delta.minimal_generators()
            assert (gal.chi[dd] * gal.chi[e] - gal.chi[base.delta.mul[dd, e]]) % n2
    assert seen == {True, False}
