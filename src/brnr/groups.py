"""Finite groups by multiplication table, group actions, finite modules.

Groups are stored as full multiplication tables over element indices
0..n-1 with the identity at index 0; the element order is fixed at
construction and every downstream iteration follows it, so results are
reproducible.  Large abelian groups never become tables: they live as
:class:`AbelianModule` (invariant factors plus integer action matrices).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import prod

import numpy as np

from .caps import DEFAULT_CAPS, Caps
from .errors import (
    NoIdentity,
    NoInverse,
    NonAssociative,
    NotASubgroup,
    OrderBound,
    ValidationError,
)
from .zmod import MAX_MODULUS


class FiniteGroup:
    """A finite group given by its multiplication table (identity = 0).

    Associativity is checked at s in S = ``minimal_generators()`` (Light's
    test): the a with (gh)a = g(ha) for all g, h contain S and are closed
    under products, (gh)(ab) = (g(ha))b = g(h(ab)), so they are all.
    """

    def __init__(self, mul: np.ndarray, *, validate: bool = True, name: str = ""):
        mul = np.asarray(mul, dtype=np.int64)
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise ValidationError("multiplication table must be square")
        self.mul = mul
        self.name = name
        n = mul.shape[0]
        if validate:
            if mul.min(initial=0) < 0 or mul.max(initial=0) >= n:
                raise ValidationError("table entries out of range")
            if not np.array_equal(mul[0], np.arange(n)):
                bad = int(np.nonzero(mul[0] != np.arange(n))[0][0])
                raise NoIdentity("index 0 is not a left identity", witness=bad)
            if not np.array_equal(mul[:, 0], np.arange(n)):
                bad = int(np.nonzero(mul[:, 0] != np.arange(n))[0][0])
                raise NoIdentity("index 0 is not a right identity", witness=bad)
        inv = np.full(n, -1, dtype=np.int64)
        rows, cols = np.nonzero(mul == 0)
        inv[rows] = cols
        if validate and (inv < 0).any():
            raise NoInverse("element has no inverse", witness=int(np.nonzero(inv < 0)[0][0]))
        self.inv = inv
        if validate:
            S = self.minimal_generators()
            col = mul[:, S]                 # (h, i) -> h s_i
            bad = np.argwhere(col[mul] != mul[:, col])
            if bad.size:
                g, h, i = map(int, bad[0])
                raise NonAssociative("associativity fails", witness=(g, h, S[i]))

    @property
    def order(self) -> int:
        return int(self.mul.shape[0])

    @property
    def identity(self) -> int:
        return 0

    def power(self, g: int, k: int) -> int:
        return int(self.powers[k % self.exponent, g])

    def conjugate(self, g: int, by: int) -> int:
        return int(self.mul[self.mul[by, g], self.inv[by]])

    @cached_property
    def powers(self) -> np.ndarray:
        """P[k, g] = g^k for 0 <= k < exp(G), row k + 1 being row k times g: one
        pass finds exp(G), a second fills P in place (one table at peak)."""
        g, row, e = np.arange(self.order), np.arange(self.order), 1
        while row.any():
            row, e = self.mul[row, g], e + 1
        P = np.zeros((e, self.order), dtype=g.dtype)
        for k in range(1, e):
            P[k] = self.mul[P[k - 1], g]
        return P

    @cached_property
    def element_orders(self) -> np.ndarray:
        """ord g = exp(G) / #{0 <= k < exp(G) : g^k = 1}, as ord g | exp(G)."""
        return self.exponent // (self.powers == 0).sum(axis=0)

    def element_order(self, g: int) -> int:
        return int(self.element_orders[g])

    @property
    def exponent(self) -> int:
        return len(self.powers)

    @cached_property
    def cyclic_generators(self) -> np.ndarray:
        """The least generator of each cyclic subgroup, in increasing order:
        the g below every g^k with k prime to ord g."""
        P, n = self.powers, self.order
        units = np.gcd(np.arange(len(P))[:, None], self.element_orders) == 1
        return np.flatnonzero((np.where(units, P, n) >= np.arange(n)).all(axis=0))

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    def closure(self, seed) -> tuple[int, ...]:
        """Subgroup generated by the given element indices (sorted)."""
        members = {0}
        frontier = [0]
        gens = [int(g) for g in seed]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = int(self.mul[x, g])
                if y not in members:
                    members.add(y)
                    frontier.append(y)
        return tuple(sorted(members))

    def centralizer(self, elements) -> np.ndarray:
        """The elements that commute with g, or with every element of a list."""
        h = np.atleast_1d(elements)
        return np.flatnonzero((self.mul[h] == self.mul[:, h].T).all(axis=0))

    @cached_property
    def _minimal_generators(self) -> tuple[int, ...]:
        return tuple(self.subgroup_generators(range(self.order)))

    def subgroup_generators(self, elements) -> list[int]:
        """Greedy generators of the subgroup ``elements``: in increasing order,
        each element that the ones taken before do not generate.

        The ``subgroup_table`` of a subgroup lists its elements in the same
        order, so this is the image of that table's ``minimal_generators()``.
        """
        elems = sorted(int(x) for x in elements)
        gens: list[int] = []
        have = self.closure(gens)
        for x in elems:
            if x not in have:
                gens.append(x)
                have = self.closure(gens)
                if len(have) == len(elems):
                    break
        return gens

    def minimal_generators(self) -> list[int]:
        """Greedy generating set following canonical element order.

        Computed once per group; each call returns a new list, which callers
        may use as an index array and may change.
        """
        return list(self._minimal_generators)

    def tree_levels(self, gens, left: bool = False) -> list[np.ndarray]:
        """The BFS spanning tree of the group over ``gens``, one level at a time.

        Each level is a (3, nodes) array of rows x, parent and the position
        i of the generator with x = parent * gens[i], or x = gens[i] * parent
        if ``left``; a level lists its nodes by parent, then by generator.
        Raises ValidationError if ``gens`` do not generate the group.
        """
        gens = np.asarray(gens, dtype=np.int64)
        children = (self.mul[gens].T if left else self.mul[:, gens]).tolist()
        levels, seen, frontier = [], {0}, [0]
        while frontier:
            level = []
            for parent in frontier:
                for i, x in enumerate(children[parent]):
                    if x not in seen:
                        seen.add(x)
                        level.append((x, parent, i))
            if level:
                levels.append(np.array(level, dtype=np.int64).T)
            frontier = [x for x, _, _ in level]
        if len(seen) != self.order:
            raise ValidationError("generators do not generate the group")
        return levels

    def subgroup_table(self, elements) -> tuple["FiniteGroup", np.ndarray]:
        """Reindexed table of a subgroup; returns (group, original indices)."""
        elems = np.array(sorted({int(e) for e in elements}), dtype=np.int64)
        if not len(elems) or elems[0] != 0:
            raise NotASubgroup("subgroup must contain the identity",
                               witness=tuple(elems[:4].tolist()))
        pos = np.full(self.order, -1, dtype=np.int64)
        pos[elems] = np.arange(len(elems))
        sub = pos[self.mul[elems[:, None], elems]]
        if sub.min() < 0:
            a, b = elems[np.argwhere(sub < 0)[0]].tolist()
            raise NotASubgroup("set not closed under multiplication",
                               witness=(a, b, int(self.mul[a, b])))
        return FiniteGroup(sub, validate=False), elems

    def __repr__(self):
        label = f" {self.name}" if self.name else ""
        return f"<FiniteGroup{label} of order {self.order}>"


def group_from_table(table) -> FiniteGroup:
    """Validate a square index table as a group; raises with a witness."""
    return FiniteGroup(np.asarray(table, dtype=np.int64), validate=True)


def group_from_permutations(generators, degree: int | None = None,
                            caps: Caps = DEFAULT_CAPS, name: str = "") -> FiniteGroup:
    """Group generated by permutations of {0..m-1}; ordering = BFS discovery.

    The closure stops with OrderBound naming ``table_group`` at the first
    element past that cap.  It records each new element as y = x o g_k
    (apply g_k first), so the table needs only the rows of the generators,
    g_k o q for every q looked up by value: the row of y is then that of x
    read at the row of g_k, as y o q = x o (g_k o q), one numpy gather.
    """
    gens = [tuple(int(x) for x in g) for g in generators]
    if degree is None:
        if not gens:
            raise ValidationError("degree required for an empty generator list")
        degree = len(gens[0])
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValidationError(f"not a permutation of degree {degree}", witness=g)
    if not gens:
        degree = 0      # the trivial group, whatever the degree
    ident = tuple(range(degree))
    elems, index, steps = [ident], {ident: 0}, []
    for i, x in enumerate(elems):                   # grows as it goes: a BFS queue
        for k, g in enumerate(gens):
            y = tuple(x[j] for j in g)
            if y not in index:
                if len(elems) >= caps.table_group:
                    raise OrderBound("table_group", caps.table_group, len(elems) + 1)
                index[y] = len(elems)
                elems.append(y)
                steps.append((i, k))
    n = len(elems)
    E = np.array(elems, dtype=np.int64).reshape(n, degree)
    rows = np.array([[index[q] for q in map(tuple, np.array(g)[E].tolist())] for g in gens],
                    dtype=np.int64)
    mul = np.empty((n, n), dtype=np.int64)
    mul[0] = np.arange(n)
    for y, (x, k) in enumerate(steps, 1):
        mul[y] = mul[x, rows[k]]
    return FiniteGroup(mul, validate=False, name=name)


# ---------------------------------------------------------------------------
# subgroup enumeration
# ---------------------------------------------------------------------------


def subgroups_abelian(G: FiniteGroup, caps: Caps = DEFAULT_CAPS) -> list[tuple[int, ...]]:
    """All abelian subgroups, grown by extending with centralizing elements.

    More than ``caps.closure`` of them raise OrderBound naming ``closure``.
    """
    found = {G.closure([g]) for g in G.cyclic_generators}
    frontier = list(found)
    while frontier:
        H = frontier.pop()
        for g in np.setdiff1d(G.centralizer(list(H)), H).tolist():
            H2 = G.closure(list(H) + [g])
            if H2 not in found:
                if len(found) > caps.closure:
                    raise OrderBound("closure", caps.closure, len(found))
                found.add(H2)
                frontier.append(H2)
    return sorted(found, key=lambda h: (len(h), h))


def conjugacy_classes(G: FiniteGroup) -> list[tuple[int, ...]]:
    left = set(range(G.order))
    classes = []
    while left:
        g = min(left)
        orbit = {int(G.mul[G.mul[x, g], G.inv[x]]) for x in range(G.order)}
        classes.append(tuple(sorted(orbit)))
        left -= orbit
    return sorted(classes, key=lambda c: (c[0],))


# ---------------------------------------------------------------------------
# group actions
# ---------------------------------------------------------------------------


@dataclass
class GroupAction:
    """Action of ``actor`` on ``target`` by automorphisms (one row per actor)."""

    actor: FiniteGroup
    target: FiniteGroup
    table: np.ndarray

    def __post_init__(self):
        self.table = np.asarray(self.table, dtype=np.int64)
        if self.table.shape != (self.actor.order, self.target.order):
            raise ValidationError("action table has wrong shape")

    def validate(self) -> None:
        """Permutation rows, then row[gs] = row[g] row[s] at the target's
        generators s and table[ae] = table[a] o table[e] at the actor's e: the
        s, or e, where a law holds are closed under products, so are all."""
        T, n = self.table, self.target.order
        if not np.array_equal(T[0], np.arange(n)):
            raise ValidationError("action of the identity is not the identity map",
                                  witness=int(T[0].argmax()))
        bad = (np.sort(T, axis=1) != np.arange(n)).any(axis=1)
        if bad.any():
            raise ValidationError("action row is not a permutation", witness=int(bad.argmax()))
        mt, S = self.target.mul, self.target.minimal_generators()
        bad = np.argwhere(T[:, mt[:, S]] != mt[T[:, :, None], T[:, None, S]])
        if bad.size:
            a, g, i = map(int, bad[0])
            raise ValidationError("action row is not an automorphism", witness=(a, g, S[i]))
        SA = self.actor.minimal_generators()
        bad = np.argwhere(T[self.actor.mul[:, SA]] != T[np.arange(len(T))[:, None, None], T[SA]])
        if bad.size:
            a, i = map(int, bad[0, :2])
            raise ValidationError("action is not a homomorphism", witness=(a, SA[i]))

    def act(self, a: int, x: int) -> int:
        return int(self.table[a, x])

    @staticmethod
    def trivial(actor: FiniteGroup, target: FiniteGroup) -> "GroupAction":
        table = np.tile(np.arange(target.order, dtype=np.int64), (actor.order, 1))
        return GroupAction(actor, target, table)


# ---------------------------------------------------------------------------
# finite abelian modules
# ---------------------------------------------------------------------------


@dataclass
class AbelianModule:
    """prod Z/d_i with an acting group operating by integer matrices.

    Elements are integer coefficient vectors, coordinate i taken mod d_i.
    ``action[a]`` is the matrix of the actor element a.
    """

    invariant_factors: tuple[int, ...]
    actor: FiniteGroup | None = None
    action: np.ndarray | None = None   # (|actor|, r, r)

    def __post_init__(self):
        self.invariant_factors = tuple(int(d) for d in self.invariant_factors)
        for d in self.invariant_factors:
            if not 2 <= d <= MAX_MODULUS:
                raise ValidationError(f"invariant factors must be between 2 and {MAX_MODULUS}",
                                      witness=d)
        for d, e in zip(self.invariant_factors, self.invariant_factors[1:]):
            if e % d:
                raise ValidationError("invariant factors must form a divisor chain",
                                      witness=(d, e))
        if self.action is not None:
            self.action = np.asarray(self.action, dtype=np.int64)
            r = self.rank
            if self.action.shape != (self.actor.order, r, r):
                raise ValidationError("action tensor has wrong shape")
            mods = np.array(self.invariant_factors, dtype=np.int64)
            self.action = self.action % mods[None, :, None]

    @property
    def rank(self) -> int:
        return len(self.invariant_factors)

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def exponent(self) -> int:
        return self.invariant_factors[-1] if self.invariant_factors else 1

    def reduce(self, v: np.ndarray) -> np.ndarray:
        mods = np.array(self.invariant_factors, dtype=np.int64)
        return np.asarray(v, dtype=np.int64) % mods

    def validate(self) -> None:
        """The moduli, then M(ae) = M(a) M(e) at the actor's generators e: the
        e where it holds for all a are closed under products, so are all."""
        if self.action is None:
            return
        d = np.array(self.invariant_factors, dtype=np.int64)[:, None]
        bad = np.argwhere(self.action * d.T % d)
        if bad.size:
            raise ValidationError("action matrix does not respect the moduli",
                                  witness=tuple(map(int, bad[0])))
        if not np.array_equal(self.action[0] % d, np.eye(self.rank, dtype=np.int64) % d):
            raise ValidationError("action of the identity is not the identity matrix")
        S = self.actor.minimal_generators()
        bad = np.argwhere((self.action[:, None] @ self.action[S]
                           - self.action[self.actor.mul[:, S]]) % d)
        if bad.size:
            a, i = map(int, bad[0, :2])
            raise ValidationError("module action is not a homomorphism", witness=(a, S[i]))
        # invertibility of each action matrix follows from the homomorphism
        # law with the inverse element

    def matrix(self, a: int) -> np.ndarray:
        if self.action is None:
            return np.eye(self.rank, dtype=np.int64)
        return self.action[a]

    def dual(self) -> "AbelianModule":
        """Hom(M, Z/exp M) with the contragredient action (a.f)(x) = f(a^-1 x)."""
        if self.action is None:
            return AbelianModule(self.invariant_factors, self.actor, None)
        # out[a, j, i] = M(a^-1)[i, j] d_j / d_i, exact: M(a^-1) respects the moduli
        d = np.array(self.invariant_factors, dtype=np.int64)
        out = np.swapaxes(self.action[self.actor.inv], 1, 2) * d[:, None] // d[None, :]
        return AbelianModule(self.invariant_factors, self.actor, out)

    def pairing(self, phi: np.ndarray, x: np.ndarray) -> int:
        """Evaluate a dual vector phi on a module vector x, valued in Z/exp."""
        e = self.exponent
        w = np.array([e // d for d in self.invariant_factors], dtype=np.int64)
        return int(np.sum(np.asarray(phi, dtype=np.int64) * w *
                          np.asarray(x, dtype=np.int64)) % e)

    def with_actor(self, actor: FiniteGroup, hom: np.ndarray) -> "AbelianModule":
        """Restrict/inflate the action along a homomorphism actor -> self.actor."""
        if self.action is None:
            return AbelianModule(self.invariant_factors, actor, None)
        hom = np.asarray(hom, dtype=np.int64)
        return AbelianModule(self.invariant_factors, actor, self.action[hom])

    def to_table_group(self, caps: Caps = DEFAULT_CAPS) -> tuple[FiniteGroup, "GroupAction | None"]:
        """Tabulate the underlying group; also tabulates the action if present."""
        n = self.order
        if n > caps.table_group:
            raise OrderBound("table_group", caps.table_group, n)
        factors = self.invariant_factors
        strides = np.ones(self.rank, dtype=np.int64)
        for i in range(self.rank - 2, -1, -1):
            strides[i] = strides[i + 1] * factors[i + 1]

        vecs = np.array(list(np.ndindex(*factors)), dtype=np.int64) \
            if self.rank else np.zeros((1, 0), dtype=np.int64)
        mods = np.array(factors, dtype=np.int64)
        mul = ((vecs[:, None, :] + vecs[None, :, :]) % mods).reshape(n * n, -1)
        mul_idx = (mul @ strides).reshape(n, n)
        group = FiniteGroup(mul_idx, validate=False)
        action = None
        if self.action is not None:
            table = np.empty((self.actor.order, n), dtype=np.int64)
            for a in range(self.actor.order):
                imgs = (vecs @ self.action[a].T) % mods
                table[a] = imgs @ strides
            action = GroupAction(self.actor, group, table)
        return group, action

    def vector_of_index(self, idx: int) -> np.ndarray:
        out = np.zeros(self.rank, dtype=np.int64)
        for i in range(self.rank - 1, -1, -1):
            out[i] = idx % self.invariant_factors[i]
            idx //= self.invariant_factors[i]
        return out


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n, dtype=np.int64)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n, validate=False,
                       name=f"Z/{n}")


def abelian_group(factors, caps: Caps = DEFAULT_CAPS) -> FiniteGroup:
    mod = AbelianModule(tuple(factors))
    G, _ = mod.to_table_group(caps)
    G.name = " x ".join(f"Z/{d}" for d in factors)
    return G


def symmetric_group(n: int) -> FiniteGroup:
    gens = []
    if n >= 2:
        gens.append([1, 0] + list(range(2, n)))
    if n >= 3:
        gens.append(list(range(1, n)) + [0])
    return group_from_permutations(gens, degree=n, name=f"S{n}")


def alternating_group(n: int) -> FiniteGroup:
    gens = []
    if n >= 3:
        gens.append([1, 2, 0] + list(range(3, n)))
    if n >= 4:
        if n % 2:
            gens.append(list(range(1, n)) + [0])
        else:
            gens.append([1, 0] + list(range(3, n)) + [2])
    return group_from_permutations(gens, degree=n, name=f"A{n}")


def dihedral_group(n: int) -> FiniteGroup:
    rot = list(range(1, n)) + [0]
    ref = [(n - i) % n for i in range(n)]
    return group_from_permutations([rot, ref], degree=n, name=f"D{n}")


def quaternion_group() -> FiniteGroup:
    """Q8 on 1, -1, i, -i, j, -j, k, -k: index 2u + s for the unit u of
    (1, i, j, k) and the sign s (1 for -).  The units multiply as u ^ v
    (ij = k, jk = i, ki = j), with the sign of ``sign[u, v]`` on top."""
    sign = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]])
    u, s = np.divmod(np.arange(8), 2)
    u, v, s = u[:, None], u, s[:, None] ^ s
    return FiniteGroup(2 * (u ^ v) + (s ^ sign[u, v]), validate=True, name="Q8")


@dataclass
class SemidirectGroup:
    """N x| Q on pairs (n, q); index = n * |Q| + q."""

    group: FiniteGroup
    n_size: int
    q_size: int
    n_embed: np.ndarray        # index of (n, 1)
    q_embed: np.ndarray        # index of (1, q)
    project_q: np.ndarray      # (n, q) -> q
    project_n: np.ndarray      # (n, q) -> n

    def pair_index(self, n_idx: int, q_idx: int) -> int:
        return n_idx * self.q_size + q_idx


def semidirect_product(N, Q: FiniteGroup, action: GroupAction | None = None,
                       caps: Caps = DEFAULT_CAPS) -> SemidirectGroup:
    """Build N x| Q with (n1,q1)(n2,q2) = (n1 * (q1.n2), q1 q2)."""
    if isinstance(N, AbelianModule):
        N_group, mod_action = N.to_table_group(caps)
        if action is None:
            action = mod_action
            if action is not None and action.actor is not Q:
                raise ValidationError("module actor differs from Q; pass an action")
    else:
        N_group = N
    if action is None:
        action = GroupAction.trivial(Q, N_group)
    if action.actor.order != Q.order or action.target.order != N_group.order:
        raise ValidationError("action shape does not match N, Q")
    nN, nQ = N_group.order, Q.order
    total = nN * nQ
    if total > caps.table_group:
        raise OrderBound("table_group", caps.table_group, total)
    act = action.table
    mulN, mulQ = N_group.mul, Q.mul
    n1 = np.repeat(np.arange(nN), nQ)
    q1 = np.tile(np.arange(nQ), nN)
    mul = np.empty((total, total), dtype=np.int64)
    for i in range(total):
        a, qa = int(n1[i]), int(q1[i])
        twisted = act[qa]                      # n2 -> qa . n2
        left = mulN[a][twisted]                # n2 -> a * (qa.n2)
        mul[i] = (left[:, None] * nQ + mulQ[qa][None, :]).reshape(-1)
    group = FiniteGroup(mul, validate=False)
    return SemidirectGroup(
        group,
        nN,
        nQ,
        n_embed=np.arange(nN, dtype=np.int64) * nQ,
        q_embed=np.arange(nQ, dtype=np.int64),
        project_q=np.tile(np.arange(nQ, dtype=np.int64), nN),
        project_n=np.repeat(np.arange(nN, dtype=np.int64), nQ),
    )
