"""Interface actions, histories, balancedness, and the linearization relation.

A history records the calls into and returns out of a library, each annotated
with the state whose ownership crosses the boundary.  Balancedness from an
initial footprint (add at calls, subtract at returns, never undefined) singles
out the histories that treat ownership consistently.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

from .algebra import State
from .footprint import Footprint, delta, foot_add, foot_leq, foot_sub


class Kind(Enum):
    CALL = "call"
    RET = "ret"


@dataclass(frozen=True, slots=True)
class InterfaceAction:
    thread: int
    kind: Kind
    method: str
    transferred: State

    def sort_key(self):
        return (self.thread, self.kind.value, self.method, self.transferred.sort_key())

    def __repr__(self):
        return f"({self.thread},{self.kind.value} {self.method}({self.transferred!r}))"


def call(thread: int, method: str, transferred: State) -> InterfaceAction:
    return InterfaceAction(thread, Kind.CALL, method, transferred)


def ret(thread: int, method: str, transferred: State) -> InterfaceAction:
    return InterfaceAction(thread, Kind.RET, method, transferred)


History = tuple[InterfaceAction, ...]


def check_well_formed(tau: Iterable) -> bool:
    """Per-thread alternation call/ret over matching methods, starting at a
    call.  Reads traces too: actions of no kind (commands) are skipped."""
    open_method: dict[int, str | None] = {}
    for a in tau:
        if a.kind is None:
            continue
        current = open_method.get(a.thread)
        if a.kind is Kind.CALL:
            if current is not None:
                return False
            open_method[a.thread] = a.method
        else:
            if current is None or current != a.method:
                return False
            open_method[a.thread] = None
    return True


def evaluate_footprint(h: Sequence[InterfaceAction], l: Footprint,
                       gains: Kind = Kind.CALL) -> Optional[Footprint]:
    """Fold a footprint over a history, adding the transferred state at
    actions of kind ``gains`` and subtracting it at the others; ``None`` =
    unbalanced.  The library gains at calls, the client at returns."""
    cur: Optional[Footprint] = l
    for a in h:
        if cur is None:
            return None
        d = delta(a.transferred)
        cur = foot_add(cur, d) if a.kind is gains else foot_sub(cur, d)
    return cur


def is_balanced(h: Sequence[InterfaceAction], l: Footprint) -> bool:
    return evaluate_footprint(h, l) is not None


def is_sequential(h: Sequence[InterfaceAction]) -> bool:
    """Every call is immediately followed by its matching return."""
    i = 0
    while i < len(h):
        a = h[i]
        if a.kind is not Kind.CALL:
            return False
        if i + 1 >= len(h):
            return True  # trailing pending call
        b = h[i + 1]
        if b.kind is not Kind.RET or b.thread != a.thread or b.method != a.method:
            return False
        i += 2
    return True


@dataclass(frozen=True, slots=True)
class LinWitness:
    """Index bijection (0-based) establishing one history linearized by another."""

    mapping: tuple[int, ...]


def _order_constrained(a: InterfaceAction, b: InterfaceAction) -> bool:
    # earlier action a must stay before later action b when by the same thread
    # or when a return precedes a call (non-overlapping invocations)
    return a.thread == b.thread or (a.kind is Kind.RET and b.kind is Kind.CALL)


def linearized_by(h: Sequence[InterfaceAction], h2: Sequence[InterfaceAction],
                  *, pin: int = 0) -> Optional[LinWitness]:
    """Deterministic backtracking search for a linearization witness.

    Maps indices of ``h`` left to right to the smallest unused index of an
    equal action in ``h2`` that violates no order constraint, backtracking on
    dead ends.  ``pin`` forces the witness to be the identity on the first
    ``pin`` indices.
    """
    n = len(h)
    if n != len(h2):
        return None
    if Counter(h) != Counter(h2):
        return None
    h = tuple(h)
    h2 = tuple(h2)
    constrained = [
        [j for j in range(i + 1, n) if _order_constrained(h[i], h[j])]
        for i in range(n)
    ]
    assigned: list[int] = []
    used = [False] * n

    def feasible(i: int, k: int) -> bool:
        if h2[k] != h[i]:
            return False
        for ip in range(i):
            if assigned[ip] > k and i in constrained[ip]:
                return False
        return True

    def search(i: int) -> bool:
        if i == n:
            return True
        start = i if i < pin else 0
        stop = i + 1 if i < pin else n
        for k in range(start, stop):
            if used[k] or not feasible(i, k):
                continue
            used[k] = True
            assigned.append(k)
            if search(i + 1):
                return True
            assigned.pop()
            used[k] = False
        return False

    if search(0):
        return LinWitness(tuple(assigned))
    return None


def check_witness(h: Sequence[InterfaceAction], h2: Sequence[InterfaceAction],
                  w: LinWitness) -> bool:
    n = len(h)
    if len(h2) != n or sorted(w.mapping) != list(range(n)):
        return False
    for i in range(n):
        if h2[w.mapping[i]] != h[i]:
            return False
        for j in range(i + 1, n):
            if _order_constrained(h[i], h[j]) and w.mapping[i] > w.mapping[j]:
                return False
    return True


@dataclass(frozen=True)
class BalancedHistory:
    """A history together with an initial footprint it is balanced from."""

    initial: Footprint
    history: History

    def __post_init__(self):
        if not check_well_formed(self.history):
            raise ValueError(f"ill-formed history: {self.history!r}")
        if not is_balanced(self.history, self.initial):
            raise ValueError(
                f"history not balanced from {self.initial!r}: {self.history!r}")

    def sort_key(self):
        return (self.initial.sort_key(), tuple(a.sort_key() for a in self.history))


def balanced_linearized_by(b1: BalancedHistory, b2: BalancedHistory) -> bool:
    """Initial footprint shrinks (b2 below b1) and the histories linearize."""
    return (foot_leq(b2.initial, b1.initial)
            and linearized_by(b1.history, b2.history) is not None)


@dataclass(frozen=True)
class InterfaceSet:
    entries: frozenset[BalancedHistory]

    def __post_init__(self):
        algs = {e.initial.algebra for e in self.entries}
        if len(algs) > 1:
            raise ValueError("interface set mixes algebras")

    def sorted_entries(self) -> tuple[BalancedHistory, ...]:
        return tuple(sorted(self.entries, key=BalancedHistory.sort_key))

    def __len__(self):
        return len(self.entries)


def interface_set(entries: Iterable[BalancedHistory]) -> InterfaceSet:
    return InterfaceSet(frozenset(entries))


@dataclass(frozen=True)
class LeqEntry:
    entry: BalancedHistory
    matched: BalancedHistory | None
    witness: LinWitness | None


@dataclass(frozen=True)
class LeqReport:
    holds: bool
    entries: tuple[LeqEntry, ...]

    def failures(self) -> tuple[LeqEntry, ...]:
        return tuple(e for e in self.entries if e.matched is None)


def interface_set_leq(a: InterfaceSet, b: InterfaceSet) -> LeqReport:
    """Every entry of ``a`` linearized by some entry of ``b``, with witnesses."""
    results = []
    candidates = b.sorted_entries()
    for entry in a.sorted_entries():
        found = None
        witness = None
        for other in candidates:
            if not foot_leq(other.initial, entry.initial):
                continue
            w = linearized_by(entry.history, other.history)
            if w is not None:
                found, witness = other, w
                break
        results.append(LeqEntry(entry, found, witness))
    return LeqReport(all(r.matched is not None for r in results), tuple(results))
