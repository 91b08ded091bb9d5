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

from ._record import record
from .algebra import State, _require_same_algebra
from .footprint import Footprint, delta, foot_add, foot_leq, foot_sub


# str mixin: a member hashes in C; spell it by ``.value`` (or ``_KIND_NAME`` on hot
# paths), as formatting differs by version
class Kind(str, Enum):
    CALL = "call"
    RET = "ret"


# each kind's spelling as a plain ``str``, read without the enum's ``value`` descriptor
_KIND_NAME = {Kind.CALL: "call", Kind.RET: "ret"}


# (thread, kind, method, transferred) -> the one action of those fields;
# ``semantics.clear_caches()`` empties it
_ACTIONS: dict[tuple, "InterfaceAction"] = {}


class InterfaceAction:
    """A call or return of ``thread`` into ``method``, with the state it transfers.

    Actions are interned: the histories of an interface set repeat a few
    distinct actions many times, and every bucket, set and sort over them
    would otherwise hash or order a heap state per occurrence.  Building an
    action looks its fields up in a module table and returns the object
    already there, so each distinct action is hashed and sort-keyed once.
    Where fields are ``==``-equal but not identical (a thread of ``True``
    and one of ``1``) the first-built object is kept; the decoders reject
    booleans.  Equality stays by value, so no result depends on identity,
    and the hash is that of the field tuple.
    """

    __slots__ = ("thread", "kind", "method", "transferred", "_hash", "_sort_key")

    def __new__(cls, thread: int, kind: Kind, method: str, transferred: State):
        key = (thread, kind, method, transferred)
        # check-then-act without a lock: threads that race here may build two
        # objects, which are equal by value and hash alike
        a = _ACTIONS.get(key)
        if a is None:
            a = object.__new__(cls)
            set_ = object.__setattr__
            set_(a, "thread", thread)
            set_(a, "kind", kind)
            set_(a, "method", method)
            set_(a, "transferred", transferred)
            set_(a, "_hash", hash(key))
            set_(a, "_sort_key", (thread, _KIND_NAME[kind], method, transferred.sort_key()))
            _ACTIONS[key] = a
        return a

    def __setattr__(self, name, value):
        raise AttributeError("InterfaceAction is immutable")

    def __delattr__(self, name):
        raise AttributeError("InterfaceAction is immutable")

    def __reduce__(self):
        return (InterfaceAction, (self.thread, self.kind, self.method, self.transferred))

    def __eq__(self, other):
        if self is other:
            return True
        if other.__class__ is not InterfaceAction:
            return NotImplemented
        return (self._hash == other._hash
                and (self.thread, self.kind, self.method, self.transferred)
                == (other.thread, other.kind, other.method, other.transferred))

    def __hash__(self):
        return self._hash

    def sort_key(self):
        return self._sort_key

    def __repr__(self):
        return f"({self.thread},{_KIND_NAME[self.kind]} {self.method}({self.transferred!r}))"


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


@record
class LinWitness:
    """Index bijection (0-based) establishing one history linearized by another."""

    mapping: tuple[int, ...]


def linearized_by(h: Sequence[InterfaceAction], h2: Sequence[InterfaceAction]
                  ) -> Optional[LinWitness]:
    """The linearization witness of ``h`` by ``h2``, or ``None``.

    An action names its thread and all the state it transfers, so equal
    actions belong to one thread, whose order a witness keeps: the k-th
    occurrence of an action in ``h`` can only map to its k-th occurrence in
    ``h2``.  That forced mapping is the only candidate, so a witness, when
    one exists, is unique, and ``check_witness`` decides whether it is one.
    Where the two histories agree on a prefix, the witness is the identity
    there.
    """
    n = len(h)
    if n != len(h2):
        return None
    # the positions of each action in h2, last first, so pop() takes the next
    slots: dict[InterfaceAction, list[int]] = {}
    for k in reversed(range(n)):
        slots.setdefault(h2[k], []).append(k)
    try:
        w = LinWitness(tuple(slots[a].pop() for a in h))
    except (KeyError, IndexError):  # h holds an action more often than h2
        return None
    return w if check_witness(h, h2, w) else None


def check_witness(h: Sequence[InterfaceAction], h2: Sequence[InterfaceAction],
                  w: LinWitness) -> bool:
    """Whether ``w`` maps ``h`` one to one onto equal actions of ``h2`` and
    keeps its order constraints: an earlier action stays before a later one
    of its thread, and a return stays before every later call.

    Each index is held only past the image of the previous action of its
    thread and, for a call, past the largest image of an earlier return;
    every other constraint follows from these by transitivity.
    """
    n = len(h)
    if len(h2) != n or sorted(w.mapping) != list(range(n)):
        return False
    last: dict[int, int] = {}  # thread -> image of its latest action
    ret_floor = -1  # the largest image of a return so far
    for a, k in zip(h, w.mapping):
        if h2[k] != a or k < last.get(a.thread, -1) or (a.kind is Kind.CALL and k < ret_floor):
            return False
        if a.kind is Kind.RET:
            ret_floor = max(ret_floor, k)
        last[a.thread] = k
    return True


@record
class BalancedHistory:
    """A history together with an initial footprint it is balanced from."""

    initial: Footprint
    history: History

    def __post_init__(self):
        _require_entry(self.initial, self.history, is_balanced(self.history, self.initial))

    @classmethod
    def _trusted(cls, initial: Footprint, history: History) -> "BalancedHistory":
        """An entry whose checks ``balance_step`` made, step by step."""
        b = object.__new__(cls)
        object.__setattr__(b, "initial", initial)
        object.__setattr__(b, "history", history)
        return b

    def sort_key(self):
        return (self.initial.sort_key(), tuple(a.sort_key() for a in self.history))


def _require_entry(initial: Footprint, h: History, balanced: bool) -> None:
    """Raise unless ``h`` is well-formed and, that given, ``balanced`` from ``initial``."""
    if not check_well_formed(h):
        raise ValueError(f"ill-formed history: {h!r}")
    if not balanced:
        raise ValueError(f"history not balanced from {initial!r}: {h!r}")


def balance_step(initial: Footprint, h: History, before: Footprint) -> Footprint:
    """``before``, the fold of ``h[:-1]`` from ``initial``, folded over ``h[-1]``;
    raises what ``BalancedHistory(initial, h)`` would."""
    after = evaluate_footprint(h[-1:], before)
    _require_entry(initial, h, after is not None)
    return after


def balanced_linearized_by(b1: BalancedHistory, b2: BalancedHistory) -> bool:
    """Initial footprint shrinks (b2 below b1) and the histories linearize."""
    return (foot_leq(b2.initial, b1.initial)
            and linearized_by(b1.history, b2.history) is not None)


@record
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


# The two report classes stay dataclasses, not records: ``bench/test_checks.py``
# builds corrupted reports with ``dataclasses.replace``.
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
    if left and right:
        _require_same_algebra(left[0].initial, right[0].initial)
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
