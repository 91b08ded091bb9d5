"""Canonical footprints and the footprint calculus (add, subtract, smaller-than).

A footprint records how much memory/permission a state holds.  For RAM it is
the location set; for RAM_PI each location carries either full permission
(value irrelevant, writing allowed) or a partial permission together with the
stored value (states sharing a read permission must agree on the value).

Footprints are canonical data rather than equivalence classes of states; the
law checks below discharge agreement with the representative-based
definitions by exhaustive enumeration.
"""

from __future__ import annotations

from fractions import Fraction
from collections.abc import Mapping
from typing import Iterable, Optional, Union

from .algebra import (
    Algebra,
    Recorder,
    LawReport,
    StarFn,
    State,
    StateUniverse,
    _require_same_algebra,
    star,
)

# RAM_PI payloads: "full" or (permission, value) with permission < 1.
Full = "full"
PiEntry = Union[str, tuple[Fraction, int]]


class Footprint:
    __slots__ = ("algebra", "entries", "_hash")

    def __init__(self, algebra: Algebra,
                 entries: Iterable[int] | Iterable[tuple[int, PiEntry]] | Mapping[int, PiEntry] = ()):
        if algebra is Algebra.RAM:
            locs = tuple(sorted(set(entries)))  # type: ignore[arg-type]
            for loc in locs:
                if not isinstance(loc, int) or loc < 1:
                    raise ValueError(f"bad location: {loc!r}")
            norm: tuple = locs
        else:
            # the state the entries describe checks their cells: Full is the
            # cell (0, 1), a partial (perm, val) the cell (val, perm)
            items = list(entries.items() if isinstance(entries, Mapping) else entries)
            state = State(algebra, [(loc, (0, 1) if payload == Full else tuple(reversed(payload)))
                                    for loc, payload in items])  # type: ignore[arg-type]
            full = {loc for loc, payload in items if payload == Full}
            norm = delta(state).entries
            if any(payload == Full and loc not in full for loc, payload in norm):
                raise ValueError("partial permission out of (0,1): 1")
        self._set(algebra, norm)

    def _set(self, algebra: Algebra, entries: tuple) -> None:
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "_hash", hash((algebra, entries)))

    @classmethod
    def _trusted(cls, algebra: Algebra, entries: Iterable) -> "Footprint":
        """A footprint of distinct ``entries`` that already passed the
        checks of ``__init__``: taken from valid states or footprints, or
        combined from theirs by the calculus below."""
        f = object.__new__(cls)
        f._set(algebra, tuple(sorted(entries)))
        return f

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Footprint is immutable")

    def __reduce__(self):
        return (Footprint, (self.algebra, self.entries))

    def __eq__(self, other):
        return (
            isinstance(other, Footprint)
            and self._hash == other._hash
            and self.algebra is other.algebra
            and self.entries == other.entries
        )

    def __hash__(self):
        return self._hash

    def sort_key(self):
        if self.algebra is Algebra.RAM:
            return (len(self.entries), self.entries)
        key = []
        for loc, payload in self.entries:
            if payload == Full:
                key.append((loc, 1, Fraction(1), 0))
            else:
                perm, val = payload
                key.append((loc, 0, perm, val))
        return (len(self.entries), tuple(key))

    def __repr__(self):
        if self.algebra is Algebra.RAM:
            return "{" + ",".join(str(l) for l in self.entries) + "}"
        parts = []
        for loc, payload in self.entries:
            if payload == Full:
                parts.append(f"{loc}:Full")
            else:
                perm, val = payload
                parts.append(f"{loc}:({perm},{val})")
        return "{" + ", ".join(parts) + "}"


def ram_foot(locs: Iterable[int] = ()) -> Footprint:
    return Footprint(Algebra.RAM, locs)


def ram_pi_foot(entries: Mapping[int, PiEntry] | Iterable[tuple[int, PiEntry]] = ()) -> Footprint:
    return Footprint(Algebra.RAM_PI, entries)


def empty_foot(algebra: Algebra) -> Footprint:
    return Footprint(algebra, ())


def delta(s: State) -> Footprint:
    """Footprint of a state."""
    if s.algebra is Algebra.RAM:
        return Footprint._trusted(Algebra.RAM, s.domain)
    return Footprint._trusted(Algebra.RAM_PI, [
        (loc, Full if perm == 1 else (perm, val)) for loc, (val, perm) in s.cells])


def foot_add(l1: Footprint, l2: Footprint) -> Optional[Footprint]:
    alg = _require_same_algebra(l1, l2)
    if alg is Algebra.RAM:
        s1, s2 = set(l1.entries), set(l2.entries)
        if s1 & s2:
            return None
        return Footprint._trusted(alg, s1 | s2)
    merged: dict[int, PiEntry] = dict(l1.entries)
    for loc, payload in l2.entries:
        have = merged.get(loc)
        if have is None:
            merged[loc] = payload
            continue
        if have == Full or payload == Full:
            return None
        p1, v1 = have
        p2, v2 = payload
        if v1 != v2 or p1 + p2 > 1:
            return None
        merged[loc] = Full if p1 + p2 == 1 else (p1 + p2, v1)
    return Footprint._trusted(alg, merged.items())


def foot_sub(l2: Footprint, l1: Footprint) -> Optional[Footprint]:
    """The footprint ``l`` with ``foot_add(l, l1) == l2``, when it exists."""
    alg = _require_same_algebra(l2, l1)
    if alg is Algebra.RAM:
        s1, s2 = set(l1.entries), set(l2.entries)
        if not s1 <= s2:
            return None
        return Footprint._trusted(alg, s2 - s1)
    rest: dict[int, PiEntry] = dict(l2.entries)
    for loc, payload in l1.entries:
        have = rest.get(loc)
        if have is None:
            return None
        if payload == Full:
            if have != Full:
                return None
            del rest[loc]
        elif have == Full:
            perm, val = payload
            # remainder keeps the value: it must recombine with the partial piece
            rest[loc] = (1 - perm, val)
        else:
            p2, v2 = have
            p1, v1 = payload
            if v1 != v2 or p1 > p2:
                return None
            if p1 == p2:
                del rest[loc]
            else:
                rest[loc] = (p2 - p1, v2)
    return Footprint._trusted(alg, rest.items())


def foot_leq(l1: Footprint, l2: Footprint) -> bool:
    """``l1`` is smaller than ``l2``: the subtraction ``l2 - l1`` is defined."""
    return foot_sub(l2, l1) is not None


def footprint_law_check(universe: StateUniverse, algebra: Algebra = Algebra.RAM,
                        star_fn: StarFn | None = None) -> LawReport:
    """Exhaustive footprint-calculus checks over universe-derived footprints.

    Verifies cancellativity-on-footprints, the add/sub exchange law, and (for
    the built-in composition) agreement of the direct add/sub/delta
    implementations with their representative-based definitions, including the
    compatibility-class reading of delta.
    """
    op = star_fn or star
    states = universe.states(algebra)
    rec = Recorder()
    record = rec.record

    # cancellativity on footprints, grouped over all defined pairs: a violating
    # quadruple is two pairs sharing (delta(a), delta(a*b)) with different delta(b)
    groups: dict[tuple[Footprint, Footprint], tuple[Footprint, tuple[State, State]]] = {}
    pair_results: list[tuple[State, State, State]] = []
    for a in states:
        for b in states:
            r = op(a, b)
            if r is None:
                continue
            pair_results.append((a, b, r))
            key = (delta(a), delta(r))
            seen = groups.get(key)
            if seen is None:
                groups[key] = (delta(b), (a, b))
            elif seen[0] != delta(b):
                record("foot_cancellative", (seen[1], (a, b)), seen[0], delta(b))

    if star_fn is None:
        # delta agreement with compatibility classes: equal footprints iff the
        # states compose with exactly the same partners
        universe_list = list(states)
        signatures = {}
        for a in universe_list:
            signatures[a] = frozenset(i for i, b in enumerate(universe_list) if star(a, b) is not None)
        for i, a in enumerate(universe_list):
            for b in universe_list[i + 1:]:
                same_delta = delta(a) == delta(b)
                same_sig = signatures[a] == signatures[b]
                if same_delta != same_sig:
                    record("delta_class", (a, b), same_sig, same_delta)

        # direct foot_add agrees with the representative definition
        for a in states:
            for b in states:
                r = star(a, b)
                fa = foot_add(delta(a), delta(b))
                if r is None:
                    if fa is not None:
                        record("add_agrees", (a, b), None, fa)
                elif fa != delta(r):
                    record("add_agrees", (a, b), delta(r), fa)

        # direct foot_sub agrees with the representative definition: collect
        # every (delta(piece), delta(whole)) -> delta(rest) witnessed by states
        rep_sub: dict[tuple[Footprint, Footprint], Footprint] = {}
        for rest, piece, whole in pair_results:
            rep_sub[(delta(piece), delta(whole))] = delta(rest)
        foots = sorted({delta(s) for s in states}, key=Footprint.sort_key)
        for l1 in foots:
            for l2 in foots:
                want = rep_sub.get((l1, l2))
                got = foot_sub(l2, l1)
                if want != got:
                    record("sub_agrees", (l2, l1), want, got)

        # exchange law: (l1 + l2) - l3 == (l1 - l3) + l2 whenever both premises hold
        for l1 in foots:
            for l2 in foots:
                l12 = foot_add(l1, l2)
                if l12 is None:
                    continue
                for l3 in foots:
                    l13 = foot_sub(l1, l3)
                    if l13 is None:
                        continue
                    lhs = foot_sub(l12, l3)
                    rhs = foot_add(l13, l2)
                    if lhs is None or lhs != rhs:
                        record("add_sub_exchange", (l1, l2, l3), rhs, lhs)

    return rec.report()
