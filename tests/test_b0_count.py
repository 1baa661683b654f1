"""B_0 = 0 by counting: |B_0(G)[m]| read off the symmetric cocycles mod m.

``cohomology.b0_torsion_order`` counts the gauged 2-cocycles mod m that
are symmetric on the commuting pairs, |B_0(G)[m]| m^|S|, and
``engine.b0`` calls it at m = rad |G|, running ``br_nr`` on the trivial
Galois datum only when the count is not 1.  Here the count is checked
against the invariant factors of b0 at several m, the steps of its proof
against the character system, |G^ab| and the Kummer quotient built in
full from tables, and b0 against that quotient, on the ``bogomolov-scan``
group types under two relabellings, nonabelian and cyclic groups, and the
order-64 group with B_0 = Z/2 from criterion 4b, alone and times Z/2 and
Z/3.  On the trivial datum condition (ii) is condition (i), class by
class, which is why br_nr there is B_0.
"""

import hashlib
import itertools

import numpy as np
import pytest

import brnr.cohomology
import brnr.engine
from brnr.cohomology import (
    ReducedCocycleSpace,
    _cocycle1_space,
    _kernel_from_batches,
    b0_torsion_order,
    character_group_generators,
    class_subgroup,
    h2,
    reduced_cocycle_space,
    scalar_module,
)
from brnr.engine import _radical, b0
from brnr.extensions import GaloisDatum, class_module
from brnr.groups import (
    abelian_group,
    alternating_group,
    cyclic_group,
    dihedral_group,
    quaternion_group,
    semidirect_product,
    symmetric_group,
)
from brnr.reference import (
    bockstein,
    bogomolov_condition,
    commuting_pair_rows_of_tables,
    galois_condition,
)
from brnr.selfchecks import bicyclic_by_pairs
from brnr.zmod import kernel

from test_acceptance import ORDER64_HIT_TAILS, _order64_candidate
from test_generator_rows import metacyclic, relabel


def _times_cyclic(k, G):
    return semidirect_product(cyclic_group(k), G).group


def _hit():
    return _order64_candidate(ORDER64_HIT_TAILS)


# the group types of the bogomolov-scan workload, each once
SCAN_TYPES = {
    "M16": lambda: metacyclic(8, 2, 5),
    "SD16": lambda: metacyclic(8, 2, 3),
    "Z2xZ8": lambda: abelian_group([2, 8]),
    "D8": lambda: metacyclic(8, 2, 7),
    "Z4xZ4": lambda: abelian_group([4, 4]),
    "Z4:Z4": lambda: metacyclic(4, 4, 3),
    "Z2xZ2xZ4": lambda: abelian_group([2, 2, 4]),
    "D4xZ2": lambda: _times_cyclic(2, dihedral_group(4)),
    "Z2^4": lambda: abelian_group([2, 2, 2, 2]),
    "Q8xZ2": lambda: _times_cyclic(2, quaternion_group()),
    "D16": lambda: dihedral_group(16),
    "Z2xZ2xZ8": lambda: abelian_group([2, 2, 8]),
    "Z2^5": lambda: abelian_group([2, 2, 2, 2, 2]),
}

SCAN = {f"{name}@{seed}": (lambda make=make, seed=seed: relabel(make(), seed)[0])
        for name, make in SCAN_TYPES.items() for seed in (1, 2)}

OTHERS = {
    "S3": lambda: symmetric_group(3),
    "A4": lambda: alternating_group(4),
    "Q8": quaternion_group,
    "S4": lambda: symmetric_group(4),
    "A5": lambda: alternating_group(5),
    "Z2": lambda: cyclic_group(2),
    "Z3": lambda: cyclic_group(3),
    "Z7": lambda: cyclic_group(7),
    "Z12": lambda: cyclic_group(12),
    "hit": _hit,
    "hitxZ2": lambda: _times_cyclic(2, _hit()),
    "hitxZ3": lambda: _times_cyclic(3, _hit()),
}

DATA = {**SCAN, **OTHERS}

# sha256 prefixes of the int64 bytes of the B_0 generator, recorded from
# the Kummer quotient built in full, before b0 counted
HIT_REPRESENTATIVES = {"hit": "4bc3e48598ddc46f", "hitxZ2": "96f5f492e522ff3f"}


def abelianization_order(G) -> int:
    x, y = np.divmod(np.arange(G.order ** 2), G.order)
    commutators = G.mul[G.mul[G.inv[x], G.inv[y]], G.mul[x, y]]
    return G.order // len(G.closure(np.unique(commutators)))


def kummer_quotient(G):
    """B_0 as the kernel of the commuting-pair rows modulo the Bocksteins of
    every character: (invariant factors, generator tables)."""
    N = G.order
    H = h2(G, scalar_module(N))
    if not H.invariant_factors:
        return (), []
    _, S = commuting_pair_rows_of_tables(G, [rep[:, :, 0] for rep in H.representatives], N)
    carries = [bockstein(G, phi, N)[0] for phi in character_group_generators(G, N)]
    kummer = H.coordinates(np.array(carries, dtype=np.int64).reshape(-1, N, N, 1))
    assert kummer is not None
    factors, coords = class_subgroup(S, H.invariant_factors, N, kummer)
    return factors, [H.element_table(x)[:, :, 0] for x in coords]


@pytest.mark.parametrize("name", sorted(DATA))
def test_h2_counts_the_characters(name):
    # the steps of |Z_sym(N)| = |B_0| N^|S| at N = |G|, each against a
    # count of its own: the kernel of the coboundary map (Z/N)^|S| -> atoms
    # against the character system and |G^ab| (equal, as N = |G|), the
    # cocycles against H^2 and the gauged coboundaries, and the symmetric
    # classes against the Kummer quotient built in full from tables
    G = DATA[name]()
    N = G.order
    space = reduced_cocycle_space(G, N)
    homs = kernel(space.coboundaries(), N).order
    assert homs == kernel(_cocycle1_space(G, scalar_module(N))[2], N).order
    assert homs == abelianization_order(G)
    H = h2(G, scalar_module(N))
    cocycles = _kernel_from_batches(space.c1_batches(), space.n_atoms, N).order
    assert cocycles * homs == H.order * N ** len(space.gens)
    symmetric = 1
    if H.invariant_factors:
        _, S = commuting_pair_rows_of_tables(
            G, [rep[:, :, 0] for rep in H.representatives], N)
        symmetric = np.prod(class_subgroup(S, H.invariant_factors, N)[0], dtype=object)
    assert symmetric == np.prod(kummer_quotient(G)[0], dtype=object) * homs
    assert cocycles * symmetric // H.order == b0_torsion_order(G, N) * N ** len(space.gens)


def _primes(n):
    return [p for p in range(2, n + 1) if n % p == 0 and all(p % d for d in range(2, p))]


@pytest.mark.parametrize("name", sorted(DATA))
def test_b0_torsion_order_is_read_off_b0(name):
    # |B_0[m]| = prod gcd(d_i, m) over the invariant factors d_i of B_0; the
    # radical is composite for S3, A4, S4, A5, Z12 and hitxZ3
    G = DATA[name]()
    N = G.order
    factors = b0(G).invariant_factors
    primes = _primes(N)
    assert _radical(N) == np.prod(primes)
    for m in sorted({_radical(N), N, *primes}):
        assert b0_torsion_order(G, m) == np.prod([np.gcd(d, m) for d in factors], dtype=object), m


@pytest.mark.parametrize("name", sorted(DATA))
def test_b0_equals_the_kummer_quotient(name):
    G = DATA[name]()
    rep = b0(G)
    factors, tables = kummer_quotient(G)
    assert rep.invariant_factors == factors
    assert len(rep.representatives) == len(tables)
    for ext, table in zip(rep.representatives, tables):
        np.testing.assert_array_equal(ext.f, table)
    assert rep.invariant_factors == ((2,) if name.startswith("hit") else ())


def test_b0_of_the_scan_types_builds_no_character(monkeypatch):
    # nor a Galois datum, its class module, Kummer quotient or any |G|^2
    # table: the count mod rad |G| reads the atoms only
    def refuse(*args, **kwargs):
        raise AssertionError("B_0 = 0 needs no datum, no class module and no table")

    for name in ("br_nr", "class_module"):
        monkeypatch.setattr(brnr.engine, name, refuse)
    monkeypatch.setattr(GaloisDatum, "trivial", staticmethod(refuse))
    monkeypatch.setattr(ReducedCocycleSpace, "expand", refuse)
    for name in sorted(SCAN):
        rep = b0(SCAN[name]())
        assert (rep.invariant_factors, rep.representatives) == ((), []), name


@pytest.mark.parametrize("name", sorted(HIT_REPRESENTATIVES))
def test_b0_of_the_hit_keeps_its_representative(name):
    rep = b0(OTHERS[name]())
    assert rep.invariant_factors == (2,)
    f = np.ascontiguousarray(rep.representatives[0].f, dtype=np.int64)
    assert hashlib.sha256(f.tobytes()).hexdigest()[:16] == HIT_REPRESENTATIVES[name]
    assert bogomolov_condition(rep.representatives[0])[0]


def test_b0_of_the_hit_solves_each_kernel_once(monkeypatch):
    calls = []
    kernel = brnr.cohomology.kernel

    def spy(*args, **kwargs):
        calls.append(args[1])
        return kernel(*args, **kwargs)

    monkeypatch.setattr(brnr.cohomology, "kernel", spy)
    assert b0(_hit()).invariant_factors == (2,)
    assert calls == [
        2,      # the count mod rad 64: the cocycles,
        2,      # and the commuting-pair rows on their lifts, which leave |B_0[2]| = 2
        64,     # br_nr on the trivial datum: the class-module cocycles,
        64,     # the equivariant characters, whose Bocksteins are the Kummer classes,
        64,     # the Kummer quotient of the class module,
        64,     # and the commuting-pair filter on its generators
    ]


CLOSED_BASE = {
    "D4": lambda: dihedral_group(4),
    "Q8": quaternion_group,
    "Z2xZ4": lambda: abelian_group([2, 4]),
    "Z2^3": lambda: abelian_group([2, 2, 2]),
    "A4": lambda: alternating_group(4),
}


@pytest.mark.parametrize("name", sorted(CLOSED_BASE))
def test_galois_condition_on_the_trivial_datum_is_the_bogomolov_condition(name):
    # with Delta = 1 the admissible triples are (1, tau, gamma) for commuting
    # tau and gamma, so condition (ii) is condition (i) on every class; the
    # classes passing both are the symmetric ones, |B_0| |Hom(G, Z/|G|)| =
    # |G^ab| of them (B_0 = 0 here), and the rest fail both
    G = CLOSED_BASE[name]()
    cm = class_module(GaloisDatum.trivial(G))
    bics = bicyclic_by_pairs(G)
    passing = 0
    for x in itertools.product(*map(range, cm.invariant_factors)):
        ext = cm.element(np.array(x))
        ok = bogomolov_condition(ext, bics)[0]
        assert galois_condition(ext)[0] == ok, x
        passing += ok
    assert passing == abelianization_order(G)
