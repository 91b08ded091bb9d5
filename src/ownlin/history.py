"""Interface actions, histories, balancedness, and the linearization relation.

A history records the calls into and returns out of a library, each annotated
with the state whose ownership crosses the boundary.  Balancedness from an
initial footprint (add at calls, subtract at returns, never undefined) singles
out the histories that treat ownership consistently.
"""

from __future__ import annotations

from bisect import bisect_right
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
    """The lexicographically least linearization witness, or ``None``.

    Maps indices of ``h`` left to right to the smallest unused index of an
    equal action in ``h2`` that keeps every order constraint with the indices
    already mapped, backtracking on dead ends; the first complete mapping is
    therefore the least valid one.  ``pin`` forces the witness to be the
    identity on the first ``pin`` indices.  The search keeps its own stack
    of candidate positions, so no history is too long for it.
    """
    n = len(h)
    if n != len(h2):
        return None
    positions: dict[InterfaceAction, list[int]] = {}
    for k, a in enumerate(h2):
        positions.setdefault(a, []).append(k)
    # equal actions share one list of positions in h2, and the histories
    # hold the same actions when no list is wanted more often than it is long
    cand = [positions.get(a, ()) for a in h]
    wanted = Counter(map(id, cand))
    if any(wanted[id(ks)] > len(ks) for ks in cand):
        return None
    for i in range(min(pin, n)):
        cand[i] = (i,) if h2[i] == h[i] else ()
    # before[i]: the nearest earlier indices that must stay before i -- the
    # previous action of its thread and, for a call, the last return of each
    # other thread; every other constraint on i follows by transitivity
    before: list[list[int]] = []
    last: dict[int, int] = {}
    last_ret: dict[int, int] = {}
    for i, a in enumerate(h):
        b = [last[a.thread]] if a.thread in last else []
        if a.kind is Kind.CALL:
            b += [r for t, r in last_ret.items() if t != a.thread]
        before.append(b)
        last[a.thread] = i
        if a.kind is Kind.RET:
            last_ret[a.thread] = i

    assigned = [-1] * n
    used = [False] * n
    # nxt[i]: where in cand[i] the next candidate for i is; an index is
    # entered past the candidates its constraints rule out (index 0 has none)
    nxt = [0] * n
    i = 0
    while i < n:
        ks = cand[i]
        j = nxt[i]
        while j < len(ks) and used[ks[j]]:
            j += 1
        if j < len(ks):
            nxt[i] = j + 1
            assigned[i] = ks[j]
            used[ks[j]] = True
            i += 1
            if i < n:
                floor = max((assigned[ip] for ip in before[i]), default=-1)
                nxt[i] = bisect_right(cand[i], floor)
        else:
            if i == 0:
                return None
            i -= 1
            used[assigned[i]] = False
    return LinWitness(tuple(assigned))


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


def _multiset(h: History) -> frozenset:
    """The actions of ``h`` with their counts: equal exactly when two
    histories hold the same actions."""
    return frozenset(Counter(h).items())


def interface_set_leq(a: InterfaceSet, b: InterfaceSet) -> LeqReport:
    """Every entry of ``a`` linearized by some entry of ``b``, with witnesses.

    The entries of ``b`` are bucketed once by their action multiset, in
    ``sorted_entries()`` order within each bucket.  An entry of ``a`` is
    tried only against its own bucket, since a history is linearized only by
    one with the same actions; the first match, and so the report, is the
    one a scan of all of ``b`` in that order would find.  Two non-empty sets
    over different algebras are not comparable (``ValueError``).
    """
    left, right = a.sorted_entries(), b.sorted_entries()
    if left and right and left[0].initial.algebra is not right[0].initial.algebra:
        raise ValueError("mixed algebras")
    buckets: dict[frozenset, list[BalancedHistory]] = {}
    for other in right:
        buckets.setdefault(_multiset(other.history), []).append(other)
    results = []
    for entry in left:
        found = None
        witness = None
        for other in buckets.get(_multiset(entry.history), ()):
            if not foot_leq(other.initial, entry.initial):
                continue
            w = linearized_by(entry.history, other.history)
            if w is not None:
                found, witness = other, w
                break
        results.append(LeqEntry(entry, found, witness))
    return LeqReport(all(r.matched is not None for r in results), tuple(results))
