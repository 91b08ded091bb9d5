"""Correctness checks written apart from the program under test.

Each check recomputes a property from first principles (the order
constraints of linearization, a brute-force bijection search, a
per-trace re-evaluation, a hand-rolled extra-state fold) and compares it
with what the program reported.  Every check returns ``(name, ok, detail)``;
the benchmark counts them as attempted and failed.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable, Sequence

from ownlin.algebra import Algebra, star, state_sub
from ownlin.footprint import Footprint
from ownlin.history import InterfaceAction, Kind

Check = tuple[str, bool, str]


def check(name: str, ok: bool, detail: str = "") -> Check:
    return (name, bool(ok), detail)


# ---------------------------------------------------------------------------
# linearization, decided without the program's search
# ---------------------------------------------------------------------------

def _constrained(a, b) -> bool:
    # a precedes b in the linearized history: same thread, or a return
    # before a call (the two invocations do not overlap)
    return a.thread == b.thread or (a.kind is Kind.RET and b.kind is Kind.CALL)


def witness_ok(h: Sequence, h2: Sequence, mapping: Sequence[int]) -> bool:
    """``mapping`` is a bijection of positions sending each action of ``h`` to
    an equal action of ``h2`` and keeping every order constraint of ``h``."""
    n = len(h)
    if len(h2) != n or sorted(mapping) != list(range(n)):
        return False
    if any(h2[mapping[i]] != h[i] for i in range(n)):
        return False
    return all(mapping[i] < mapping[j]
               for i in range(n) for j in range(i + 1, n)
               if _constrained(h[i], h[j]))


def brute_force_linearizes(h: Sequence, h2: Sequence) -> bool:
    """Try every bijection between equal actions of ``h`` and ``h2``."""
    if len(h) != len(h2) or Counter(h) != Counter(h2):
        return False
    groups: dict = {}
    for i, a in enumerate(h):
        groups.setdefault(a, []).append(i)
    targets = {a: [k for k, b in enumerate(h2) if b == a] for a in groups}
    keys = list(groups)
    mapping = [0] * len(h)
    for choice in itertools.product(*(itertools.permutations(targets[a]) for a in keys)):
        for a, perm in zip(keys, choice):
            for i, k in zip(groups[a], perm):
                mapping[i] = k
        if witness_ok(h, h2, mapping):
            return True
    return False


def foot_below(small, big) -> bool:
    """RAM footprints are location sets: ``small`` is below ``big`` when it is
    a subset."""
    if small.algebra is not Algebra.RAM or big.algebra is not Algebra.RAM:
        raise ValueError("the benchmark's footprint order covers RAM only")
    return set(small.entries) <= set(big.entries)


def leq_report_checks(label: str, report, left: Iterable, right: Iterable,
                      expect_unmatched: Iterable = ()) -> list[Check]:
    """A ``LeqReport`` is right when it covers every left entry once, every
    witness passes the order check against a right entry with a smaller
    footprint, and exactly ``expect_unmatched`` are unmatched, which a brute
    force over bijections confirms."""
    left = frozenset(left)
    right_list = list(right)
    right_set = frozenset(right_list)
    expect_unmatched = frozenset(expect_unmatched)
    out = []
    reported = [e.entry for e in report.entries]
    out.append(check(f"{label}: report covers every left entry once",
                     len(reported) == len(left) and frozenset(reported) == left,
                     f"{len(reported)} reported, {len(left)} entries"))
    bad = [e for e in report.entries if e.matched is not None and not (
        e.matched in right_set
        and foot_below(e.matched.initial, e.entry.initial)
        and witness_ok(e.entry.history, e.matched.history, e.witness.mapping))]
    out.append(check(f"{label}: every witness passes the order check",
                     not bad, f"{len(bad)} bad witnesses"))
    unmatched = frozenset(e.entry for e in report.entries if e.matched is None)
    out.append(check(f"{label}: unmatched entries are exactly the expected ones",
                     unmatched == expect_unmatched,
                     f"{len(unmatched)} unmatched, {len(expect_unmatched)} expected"))
    refuted = [e for e in unmatched
               if any(foot_below(r.initial, e.initial)
                      and brute_force_linearizes(e.history, r.history)
                      for r in right_list)]
    out.append(check(f"{label}: brute force finds no linearization of unmatched entries",
                     not refuted, f"{len(refuted)} unmatched entries do linearize"))
    out.append(check(f"{label}: holds exactly when nothing is unmatched",
                     report.holds == (not unmatched), f"holds={report.holds}"))
    return out


# ---------------------------------------------------------------------------
# library-local semantics, one trace at a time
# ---------------------------------------------------------------------------

def per_trace_interface_pairs(traces: Iterable, evaluate, initial: Iterable) -> set:
    """(footprint, history) pairs from evaluating each trace on its own.

    ``evaluate(tau, sigma)`` returns the program's per-trace result; the
    footprint and history projections are computed here.
    """
    pairs = set()
    for sigma in initial:
        if sigma.algebra is not Algebra.RAM:
            raise ValueError("the benchmark's footprint covers RAM only")
        foot = Footprint(Algebra.RAM, sigma.domain)
        for tau in traces:
            result = evaluate(tau, sigma)
            if result.faulted:
                raise AssertionError(f"trace faults at {sigma!r}: {tau!r}")
            for _, ann in result.outcomes:
                pairs.add((foot, tuple(a for a in ann if isinstance(a, InterfaceAction))))
    return pairs


# ---------------------------------------------------------------------------
# framed-out state
# ---------------------------------------------------------------------------

def extra_pieces(history: Sequence, gamma) -> list:
    """The part of each transferred state beyond what ``gamma`` requires."""
    out = []
    for a in history:
        pred = gamma.pre(a.method) if a.kind is Kind.CALL else gamma.post(a.method)
        rests = [r for r in (state_sub(a.transferred, piece)
                             for piece in pred.for_thread(a.thread).states)
                 if r is not None]
        if len(rests) != 1:
            raise AssertionError(f"{a!r} does not split uniquely against the contract")
        out.append((a.kind, rests[0]))
    return out


def extra_fold_fault_index(history: Sequence, gamma, extra) -> int | None:
    """Index of the first action at which the extra-state fold faults."""
    cur = extra
    for i, (kind, piece) in enumerate(extra_pieces(history, gamma)):
        cur = star(cur, piece) if kind is Kind.CALL else state_sub(cur, piece)
        if cur is None:
            return i
    return None
