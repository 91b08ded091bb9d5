"""Seeded interface sets for the ``history_compare`` workload.

Histories run on three threads over two methods that move heap objects
across the library boundary: ``give`` transfers an object cell in at its
call, ``take`` transfers one out at its return.  Each history is balanced
from the cells the library owns at the start.

* The right side holds sequential histories, the same number for every
  initial footprint, so the shape of the search does not depend on the seed.
* Each derived left entry is a right entry with adjacent actions of
  different threads swapped, never so that a return moves before a call it
  followed.  The right entry still linearizes it; it is more concurrent.
* Each planted left entry swaps two whole operations of a right entry and is
  then made more concurrent, keeping only the swaps after which a brute
  force finds no right entry that linearizes it.

Origins are taken at evenly spaced positions of the right side's scan
order, so the position of the first match, and with it the work of the
witness search, varies little between seeds.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass

from ownlin.algebra import ram
from ownlin.footprint import ram_foot
from ownlin.history import BalancedHistory, InterfaceSet, Kind, call, interface_set, ret

from checks import brute_force_linearizes, foot_below

THREADS = (1, 2, 3)
POOL = (10, 11, 12)
VALUES = (0, 1)
OPS = 6
SWAP_ATTEMPTS = 12


@dataclass(frozen=True)
class HistoryWorkload:
    left: InterfaceSet
    right: InterfaceSet
    planted: frozenset


def _sequential(rng: random.Random, owned: dict) -> tuple:
    owned = dict(owned)
    h = []
    for _ in range(OPS):
        t = rng.choice(THREADS)
        free = [c for c in POOL if c not in owned]
        if free and (not owned or rng.random() < 0.5):
            c, v = rng.choice(free), rng.choice(VALUES)
            owned[c] = v
            h += [call(t, "give", ram({c: v})), ret(t, "give", ram({}))]
        else:
            c = rng.choice(sorted(owned))
            h += [call(t, "take", ram({})), ret(t, "take", ram({c: owned.pop(c)}))]
    return tuple(h)


def _balanced(h, cells: frozenset) -> bool:
    owned = set(cells)
    for a in h:
        moved = {loc for loc, _ in a.transferred.cells}
        if a.kind is Kind.CALL:
            if owned & moved:
                return False
            owned |= moved
        else:
            if not moved <= owned:
                return False
            owned -= moved
    return True


def _multiset(h) -> frozenset:
    return frozenset(Counter(h).items())


def _more_concurrent(rng, base: tuple, cells: frozenset, keep) -> tuple:
    """Random adjacent swaps of ``base`` that ``base`` still linearizes and
    after which ``keep`` still holds."""
    perm = list(range(len(base)))
    for _ in range(SWAP_ATTEMPTS):
        p = rng.randrange(len(perm) - 1)
        x, y = perm[p], perm[p + 1]
        a, b = base[x], base[y]
        if a.thread == b.thread:
            continue
        if b.kind is Kind.RET and a.kind is Kind.CALL and y > x:
            continue  # would order a return before a call that preceded it
        perm[p], perm[p + 1] = y, x
        h = tuple(base[i] for i in perm)
        if not (_balanced(h, cells) and keep(h)):
            perm[p], perm[p + 1] = x, y
    return tuple(base[i] for i in perm)


def _spaced(rng, n: int, k: int) -> list[int]:
    u = rng.random()
    return [int((i + u) * n / k) for i in range(k)]


def generate(seed: int, per_footprint: int, derived: int, planted: int) -> HistoryWorkload:
    rng = random.Random(seed)
    right = []
    for r in range(len(POOL) + 1):
        for cells in itertools.combinations(POOL, r):
            seen = set()
            while len(seen) < per_footprint:
                h = _sequential(rng, {c: rng.choice(VALUES) for c in cells})
                if h not in seen:
                    seen.add(h)
                    right.append(BalancedHistory(ram_foot(cells), h))
    right_set = interface_set(right)
    order = right_set.sorted_entries()
    by_multiset: dict = {}
    for e in order:
        by_multiset.setdefault(_multiset(e.history), []).append(e)

    def unmatched(initial, h) -> bool:
        return not any(foot_below(r.initial, initial)
                       and brute_force_linearizes(h, r.history)
                       for r in by_multiset.get(_multiset(h), ()))

    def first_new(start: int, make) -> BalancedHistory:
        # walk on from an evenly spaced origin until one yields a new entry
        for origin in order[start:] + order[:start]:
            entry = make(origin)
            if entry is not None and entry not in taken:
                taken.add(entry)
                return entry
        raise ValueError("the right side is too small for the requested entries")

    def make_derived(origin):
        cells = frozenset(origin.initial.entries)
        h = _more_concurrent(rng, origin.history, cells, lambda h: True)
        return BalancedHistory(origin.initial, h)

    def make_planted(origin):
        cells = frozenset(origin.initial.entries)
        h = _swap_operations(rng, origin.history, cells)
        if h is None or not unmatched(origin.initial, h):
            return None
        h = _more_concurrent(rng, h, cells, lambda h: unmatched(origin.initial, h))
        return BalancedHistory(origin.initial, h)

    taken: set = set()
    planted_set = frozenset(first_new(i, make_planted)
                            for i in _spaced(rng, len(order), planted))
    derived_set = frozenset(first_new(i, make_derived)
                            for i in _spaced(rng, len(order), derived))
    return HistoryWorkload(interface_set(derived_set | planted_set), right_set, planted_set)


def _swap_operations(rng, h: tuple, cells: frozenset) -> tuple | None:
    """Exchange two adjacent whole operations of different threads."""
    ks = [k for k in range(OPS - 1) if h[2 * k].thread != h[2 * k + 2].thread]
    rng.shuffle(ks)
    for k in ks:
        s = h[:2 * k] + h[2 * k + 2:2 * k + 4] + h[2 * k:2 * k + 2] + h[2 * k + 4:]
        if _balanced(s, cells):
            return s
    return None
