"""Separation-algebra state models: plain heaps and fractional-permission heaps.

A state is a finite partial heap.  Two concrete algebras are provided:

* ``RAM``     -- locations map to integer values; composition is disjoint union.
* ``RAM_PI``  -- locations map to (value, permission) with the permission a
  rational in (0, 1]; composition adds permissions on cells that agree on
  their value.

Permissions are exact ``Fraction`` values.  Floating point is never used:
permission sums must compare exactly against 1.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Callable, Iterable, Optional, Union


# str mixin: a member hashes in C; spell it by ``.value``, as formatting differs by version
class Algebra(str, Enum):
    RAM = "ram"
    RAM_PI = "ram_pi"


# RAM cell payload is the stored value; RAM_PI payload is (value, permission).
Cell = Union[int, tuple[int, Fraction]]


def _as_perm(perm: object) -> Fraction:
    if not isinstance(perm, (Fraction, int, str)):
        raise TypeError(f"bad permission: {perm!r}")
    try:
        f = Fraction(perm)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"not a fraction: {perm!r}") from None
    if not 0 < f <= 1:
        raise ValueError(f"permission out of (0,1]: {perm}")
    return f


class State:
    """Immutable finite heap with canonical (location-sorted) cell order."""

    __slots__ = ("algebra", "cells", "_hash")

    def __init__(self, algebra: Algebra, cells: Iterable[tuple[int, Cell]] | Mapping[int, Cell] = ()):
        if isinstance(cells, Mapping):
            items = list(cells.items())
        else:
            items = list(cells)
        norm: list[tuple[int, Cell]] = []
        seen: set[int] = set()
        for loc, payload in items:
            if not isinstance(loc, int) or loc < 1:
                raise ValueError(f"bad location: {loc!r}")
            if loc in seen:
                raise ValueError(f"duplicate location: {loc}")
            seen.add(loc)
            if algebra is Algebra.RAM:
                if not isinstance(payload, int):
                    raise TypeError(f"RAM cell wants an int value, got {payload!r}")
                norm.append((loc, payload))
            else:
                val, perm = payload  # type: ignore[misc]
                if not isinstance(val, int):
                    raise TypeError(f"RAM_PI cell wants an int value, got {val!r}")
                norm.append((loc, (val, _as_perm(perm))))
        norm.sort()
        self._set(algebra, tuple(norm))

    def _set(self, algebra: Algebra, cells: tuple) -> None:
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "_hash", hash((algebra, cells)))

    @classmethod
    def _trusted(cls, algebra: Algebra, cells: dict) -> "State":
        """A state of ``cells`` that already passed the checks of
        ``__init__``: taken whole from valid states, or combined from their
        cells by the algebra's own operations."""
        s = object.__new__(cls)
        s._set(algebra, tuple(sorted(cells.items())))
        return s

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("State is immutable")

    def __reduce__(self):
        return (State, (self.algebra, self.cells))

    def __eq__(self, other):
        return (
            isinstance(other, State)
            and self._hash == other._hash
            and self.algebra is other.algebra
            and self.cells == other.cells
        )

    def __hash__(self):
        return self._hash

    def lookup(self, loc: int) -> Optional[Cell]:
        for cloc, payload in self.cells:
            if cloc == loc:
                return payload
            if cloc > loc:
                return None
        return None

    @property
    def domain(self) -> tuple[int, ...]:
        return tuple(loc for loc, _ in self.cells)

    def is_empty(self) -> bool:
        return not self.cells

    def sort_key(self):
        return (len(self.cells), self.cells)

    def __repr__(self):
        if self.algebra is Algebra.RAM:
            body = ", ".join(f"{loc}:{val}" for loc, val in self.cells)
        else:
            body = ", ".join(f"{loc}:({val},{perm})" for loc, (val, perm) in self.cells)
        return f"[{body}]"


def ram(cells: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> State:
    return State(Algebra.RAM, cells)


def ram_pi(cells: Mapping[int, tuple[int, object]] | Iterable = ()) -> State:
    return State(Algebra.RAM_PI, cells)


def empty(algebra: Algebra) -> State:
    return State(algebra, ())


def _require_same_algebra(a, b) -> Algebra:
    if a.algebra is not b.algebra:
        raise ValueError(f"mixed algebras: {a.algebra.value} vs {b.algebra.value}")
    return a.algebra


def star(s1: State, s2: State) -> Optional[State]:
    """Compose two states; ``None`` when their ownership claims clash."""
    alg = _require_same_algebra(s1, s2)
    if alg is Algebra.RAM:
        merged = dict(s1.cells)
        for loc, val in s2.cells:
            if loc in merged:
                return None
            merged[loc] = val
        return State._trusted(alg, merged)
    merged_pi: dict[int, tuple[int, Fraction]] = dict(s1.cells)
    for loc, (val, perm) in s2.cells:
        if loc in merged_pi:
            v1, p1 = merged_pi[loc]
            if v1 != val or p1 + perm > 1:
                return None
            merged_pi[loc] = (v1, p1 + perm)
        else:
            merged_pi[loc] = (val, perm)
    return State._trusted(alg, merged_pi)


def state_sub(s2: State, s1: State) -> Optional[State]:
    """The unique ``s`` with ``star(s, s1) == s2``, or ``None``.

    Uniqueness follows from cancellativity of composition.
    """
    alg = _require_same_algebra(s2, s1)
    rest = dict(s2.cells)
    if alg is Algebra.RAM:
        for loc, val in s1.cells:
            if rest.get(loc) != val:
                return None
            del rest[loc]
        return State._trusted(alg, rest)
    for loc, (val, perm) in s1.cells:
        have = rest.get(loc)
        if have is None:
            return None
        v2, p2 = have
        if v2 != val or p2 < perm:
            return None
        if p2 == perm:
            del rest[loc]
        else:
            rest[loc] = (v2, p2 - perm)
    return State._trusted(alg, rest)


@dataclass(frozen=True)
class Predicate:
    """A finite set of states over one algebra."""

    algebra: Algebra
    states: frozenset[State]

    def __post_init__(self):
        for s in self.states:
            if s.algebra is not self.algebra:
                raise ValueError("predicate mixes algebras")

    def sorted_states(self) -> tuple[State, ...]:
        return tuple(sorted(self.states, key=State.sort_key))


def predicate(states: Iterable[State], algebra: Algebra | None = None) -> Predicate:
    frozen = frozenset(states)
    if algebra is None:
        if not frozen:
            raise ValueError("empty predicate needs an explicit algebra")
        algebra = next(iter(frozen)).algebra
    return Predicate(algebra, frozen)


def pred_star(p: Predicate, q: Predicate) -> Predicate:
    """Pointwise lift of composition to state sets."""
    return Predicate(_require_same_algebra(p, q), star_set(p.states, q.states))


def star_set(a: Iterable[State], b: Iterable[State]) -> frozenset[State]:
    """Every defined composition of a state of ``a`` with a state of ``b``."""
    return frozenset(c for s0 in a for s1 in b if (c := star(s0, s1)) is not None)


def sub_pred(s: State, p: Predicate) -> Optional[tuple[State, State]]:
    """Split ``s`` as remainder * piece with piece in ``p``.

    Returns ``(remainder, piece)`` or ``None``.  For a precise predicate the
    split is unique; candidates are tried in canonical order so the result is
    deterministic either way.
    """
    for piece in p.sorted_states():
        rest = state_sub(s, piece)
        if rest is not None:
            return rest, piece
    return None


@dataclass(frozen=True)
class ParamPredicate:
    """Per-thread predicates; ``default`` covers threads with no explicit entry."""

    entries: tuple[tuple[int, Predicate], ...] = ()
    default: Predicate | None = None

    def for_thread(self, t: int) -> Predicate:
        for tid, pred in self.entries:
            if tid == t:
                return pred
        if self.default is not None:
            return self.default
        raise KeyError(f"no predicate for thread {t}")

    @staticmethod
    def from_fn(fn: Callable[[int], Iterable[State]], threads: Iterable[int],
                algebra: Algebra | None = None) -> "ParamPredicate":
        return ParamPredicate(
            tuple((t, predicate(fn(t), algebra)) for t in threads))

@dataclass(frozen=True)
class StateUniverse:
    """Finite enumeration bounds shared by all brute-force checks."""

    locations: tuple[int, ...] = (1, 2, 3)
    values: tuple[int, ...] = (0, 1)
    permissions: tuple[Fraction, ...] = (Fraction(1, 2), Fraction(1))
    threads: tuple[int, ...] = (1, 2)

    @lru_cache(maxsize=64)
    def states(self, algebra: Algebra) -> tuple[State, ...]:
        """All states over the bounded location/value/permission sets."""
        if algebra is Algebra.RAM:
            options: list[list[tuple[int, Cell] | None]] = [
                [None] + [(loc, v) for v in self.values] for loc in self.locations
            ]
        else:
            options = [
                [None] + [(loc, (v, p)) for v in self.values for p in self.permissions]
                for loc in self.locations
            ]
        out = []
        for combo in product(*options):
            cells = [c for c in combo if c is not None]
            out.append(State(algebra, cells))
        return tuple(sorted(out, key=State.sort_key))


def is_precise(p: Predicate | ParamPredicate, universe: StateUniverse) -> bool:
    """At most one substate of any universe state satisfies the predicate."""
    if isinstance(p, ParamPredicate):
        preds = [pred for _, pred in p.entries]
        if p.default is not None:
            preds.append(p.default)
        return all(is_precise(pred, universe) for pred in preds)
    for sigma in universe.states(p.algebra):
        found = 0
        for candidate in p.states:
            if state_sub(sigma, candidate) is not None:
                found += 1
                if found > 1:
                    return False
    return True


@dataclass(frozen=True)
class CounterExample:
    law: str
    inputs: tuple
    expected: object
    got: object


@dataclass(frozen=True)
class LawReport:
    passed: bool
    counterexamples: tuple[CounterExample, ...] = ()

    def __post_init__(self):
        if self.passed != (not self.counterexamples):
            raise ValueError("passed flag inconsistent with counterexample list")


PER_LAW = 5  # counterexamples a report keeps per law


class Recorder:
    """Collects counterexamples with a per-law cap so a single broken law
    cannot crowd the others out of the report."""

    def __init__(self):
        self._by_law: dict[str, int] = {}
        self._items: list[CounterExample] = []

    def record(self, law: str, inputs: tuple, expected: object, got: object) -> None:
        n = self._by_law.get(law, 0)
        if n < PER_LAW:
            self._by_law[law] = n + 1
            self._items.append(CounterExample(law, inputs, expected, got))

    def report(self) -> LawReport:
        return LawReport(not self._items, tuple(self._items))


StarFn = Callable[[State, State], Optional[State]]


def algebra_law_check(universe: StateUniverse, algebra: Algebra = Algebra.RAM,
                      star_fn: StarFn | None = None) -> LawReport:
    """Exhaustively verify unit, commutativity, associativity, cancellativity.

    Equalities are Kleene: both sides defined and equal or both undefined.
    ``star_fn`` lets tests inject a deliberately broken composition.
    """
    op = star_fn or star
    states = universe.states(algebra)
    n = len(states)
    index = {s: i for i, s in enumerate(states)}
    unit = empty(algebra)
    rec = Recorder()
    record = rec.record

    # star table by index; None marks undefined
    table: list[list[Optional[int]]] = [[None] * n for _ in range(n)]
    for i, a in enumerate(states):
        for j, b in enumerate(states):
            r = op(a, b)
            if r is not None:
                k = index.get(r)
                if k is None:
                    record("closure", (a, b), "state in universe", r)
                    continue
                table[i][j] = k

    ei = index[unit]
    for i, a in enumerate(states):
        if table[i][ei] != i:
            got = None if table[i][ei] is None else states[table[i][ei]]
            record("unit", (a,), a, got)

    for i in range(n):
        row = table[i]
        for j in range(i + 1, n):
            if row[j] != table[j][i]:
                record("commutativity", (states[i], states[j]),
                       None if row[j] is None else states[row[j]],
                       None if table[j][i] is None else states[table[j][i]])

    for i in range(n):
        ti = table[i]
        for j in range(n):
            ij = ti[j]
            tj = table[j]
            for k in range(n):
                lhs = None if ij is None else table[ij][k]
                jk = tj[k]
                rhs = None if jk is None else ti[jk]
                if lhs != rhs:
                    record("associativity", (states[i], states[j], states[k]),
                           None if lhs is None else states[lhs],
                           None if rhs is None else states[rhs])

    for i in range(n):
        seen: dict[int, int] = {}
        for j in range(n):
            r = table[i][j]
            if r is None:
                continue
            if r in seen and seen[r] != j:
                record("cancellativity", (states[i], states[seen[r]], states[j]),
                       "distinct results", states[r])
            else:
                seen[r] = j

    if star_fn is None:
        # subtraction inverts composition wherever the latter is defined
        for i, a in enumerate(states):
            for j, b in enumerate(states):
                if table[i][j] is not None:
                    back = state_sub(states[table[i][j]], b)
                    if back != a:
                        record("subtraction", (a, b), a, back)

    return rec.report()
