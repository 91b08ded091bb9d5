"""Top-level decisions: library linearizability and the abstraction harnesses.

Verdicts are three-valued: a bounded exhaustive check can report
holds-at-bounds or violated (with a witness), and rejects runs whose
hypotheses fail.  Reports are assembled deterministically so identical inputs
yield identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .algebra import State, StateUniverse, star
from .footprint import delta, foot_add, foot_leq
from .history import InterfaceSet, LeqReport, interface_set_leq
from .lang import Bounds, ClientProgram, Library, MethodSpec, Program, Trace
from .semantics import (
    UnsafeComponentError,
    client_of,
    denotation_pairs,
    ground,
    history_of,
    interf,
)


class Status(Enum):
    HOLDS_AT_BOUNDS = "holds-at-bounds"
    VIOLATED = "violated"
    HYPOTHESIS_FAILED = "hypothesis-failed"


EXIT_CODES = {
    Status.HOLDS_AT_BOUNDS: 0,
    Status.VIOLATED: 1,
    Status.HYPOTHESIS_FAILED: 2,
}


@dataclass(frozen=True)
class Verdict:
    status: Status
    summary: str
    details: tuple[str, ...] = ()

    @property
    def exit_code(self) -> int:
        return EXIT_CODES[self.status]

    def as_dict(self) -> dict:
        return {"status": self.status.value, "summary": self.summary,
                "details": list(self.details)}


def _leq_lines(report: LeqReport) -> tuple[str, ...]:
    lines = []
    for entry in report.entries:
        if entry.matched is not None:
            lines.append(
                f"{entry.entry.initial!r} {entry.entry.history!r} -> "
                f"{entry.matched.initial!r} {entry.matched.history!r} "
                f"via {entry.witness.mapping}")
        else:
            lines.append(f"{entry.entry.initial!r} {entry.entry.history!r} -> UNMATCHED")
    return tuple(lines)


def check_lin_code(lib1: Library, gamma: MethodSpec, initial1: Iterable[State],
                   lib2: Library, initial2: Iterable[State], bounds: Bounds,
                   universe: StateUniverse = StateUniverse()) -> Verdict:
    """Decide whether one library is linearized by another, by comparing the
    interface sets their local semantics generate at the given bounds."""
    try:
        gamma.check_precise(universe)
        h1 = interf(lib1, gamma, initial1, bounds)
        h2 = interf(lib2, gamma, initial2, bounds)
    except (UnsafeComponentError, ValueError) as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, str(exc))
    report = interface_set_leq(h1, h2)
    if report.holds:
        return Verdict(Status.HOLDS_AT_BOUNDS,
                       f"all {len(report.entries)} behaviours reproduced",
                       _leq_lines(report))
    bad = report.failures()[0]
    return Verdict(Status.VIOLATED,
                   f"{len(report.failures())} behaviours not reproduced; "
                   f"first: {bad.entry.initial!r} {bad.entry.history!r}",
                   _leq_lines(report))


def check_lin_interface_set(lib1: Library, gamma: MethodSpec, initial1: Iterable[State],
                            hset2: InterfaceSet, bounds: Bounds,
                            universe: StateUniverse = StateUniverse()) -> Verdict:
    """Decide linearizability of a library against an explicit interface set."""
    try:
        gamma.check_precise(universe)
        h1 = interf(lib1, gamma, initial1, bounds)
    except (UnsafeComponentError, ValueError) as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, str(exc))
    report = interface_set_leq(h1, hset2)
    if report.holds:
        return Verdict(Status.HOLDS_AT_BOUNDS,
                       f"all {len(report.entries)} behaviours reproduced",
                       _leq_lines(report))
    bad = report.failures()[0]
    return Verdict(Status.VIOLATED,
                   f"{len(report.failures())} behaviours not reproduced; "
                   f"first: {bad.entry.initial!r} {bad.entry.history!r}",
                   _leq_lines(report))


def inclusion_based_leq(h1: InterfaceSet, h2: InterfaceSet) -> bool:
    """Plain inclusion up to initial footprints: every behaviour of the first
    set appears verbatim (same history) in the second with a footprint below.

    Equivalent to the witness-search decision for library-generated sets;
    the equivalence is itself a checked property.
    """
    want = {}
    for entry in h2.sorted_entries():
        want.setdefault(entry.history, []).append(entry.initial)
    for entry in h1.sorted_entries():
        if not any(foot_leq(l2, entry.initial) for l2 in want.get(entry.history, ())):
            return False
    return True


def _star_states(a: Iterable[State], b: Iterable[State]) -> frozenset[State]:
    out = set()
    for s0 in a:
        for s1 in b:
            c = star(s0, s1)
            if c is not None:
                out.add(c)
    return frozenset(out)


def abstraction_check_code(client: ClientProgram, gamma: MethodSpec, initial: Iterable[State],
                           lib1: Library, initial1: Iterable[State],
                           lib2: Library, initial2: Iterable[State], bounds: Bounds,
                           universe: StateUniverse = StateUniverse(), *,
                           assume_linearizable: bool = False) -> Verdict:
    """Replace a library by one linearizing it: every client-observable trace
    of the original composition must appear verbatim in the abstract one.

    ``assume_linearizable`` skips the linearizability hypothesis so a harness
    test can feed a known-bad pair and watch the containment check fire.
    """
    algebra = next(iter(initial1)).algebra
    client_prog = Program(algebra, client=client, gamma=gamma, bounds=bounds)
    try:
        gamma.check_precise(universe)
        denotation_pairs(client_prog, initial, bounds)
    except (UnsafeComponentError, ValueError) as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, f"client: {exc}")
    if not assume_linearizable:
        lin = check_lin_code(lib1, gamma, initial1, lib2, initial2, bounds, universe)
        if lin.status is not Status.HOLDS_AT_BOUNDS:
            return Verdict(Status.HYPOTHESIS_FAILED,
                           f"linearizability hypothesis: {lin.summary}")
    try:
        concrete = denotation_pairs(Program(algebra, library=lib1, client=client, bounds=bounds),
                                    _star_states(initial, initial1), bounds)
        abstract = denotation_pairs(Program(algebra, library=lib2, client=client, bounds=bounds),
                                    _star_states(initial, initial2), bounds)
    except UnsafeComponentError as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, f"composition unsafe: {exc}")
    reproducible = {client_of(tau) for _, tau in abstract}
    misses = sorted((client_of(tau) for _, tau in concrete
                     if client_of(tau) not in reproducible),
                    key=lambda t: (len(t), repr(t)))
    if misses:
        return Verdict(Status.VIOLATED,
                       f"{len(misses)} client projections unreproduced; "
                       f"first: {misses[0]!r}")
    return Verdict(Status.HOLDS_AT_BOUNDS,
                   f"{len(concrete)} concrete behaviours, "
                   f"all client projections reproduced")


def _equivalent(a: Trace, b: Trace) -> bool:
    # same per-thread projections and identical non-interface projection
    from .lang import is_interface
    if tuple(x for x in a if not is_interface(x)) != tuple(x for x in b if not is_interface(x)):
        return False
    threads = {x.thread for x in a} | {x.thread for x in b}
    return all(tuple(x for x in a if x.thread == t) == tuple(x for x in b if x.thread == t)
               for t in threads)


def abstraction_check_spec(client: ClientProgram, gamma: MethodSpec, initial: Iterable[State],
                           lib1: Library, initial1: Iterable[State],
                           hset2: InterfaceSet, bounds: Bounds,
                           universe: StateUniverse = StateUniverse(), *,
                           assume_linearizable: bool = False) -> Verdict:
    """Replace a library by an interface set: every client-observable trace of
    the composition must be equivalent to a client-local trace whose history
    the set contains with a compatible initial footprint."""
    algebra = next(iter(initial1)).algebra
    client_prog = Program(algebra, client=client, gamma=gamma, bounds=bounds)
    try:
        gamma.check_precise(universe)
        client_pairs = denotation_pairs(client_prog, initial, bounds)
    except (UnsafeComponentError, ValueError) as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, f"client: {exc}")
    if not assume_linearizable:
        lin = check_lin_interface_set(lib1, gamma, initial1, hset2, bounds, universe)
        if lin.status is not Status.HOLDS_AT_BOUNDS:
            return Verdict(Status.HYPOTHESIS_FAILED,
                           f"linearizability hypothesis: {lin.summary}")
    try:
        concrete = denotation_pairs(Program(algebra, library=lib1, client=client, bounds=bounds),
                                    _star_states(initial, initial1), bounds)
    except UnsafeComponentError as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, f"composition unsafe: {exc}")

    entries_by_history = {}
    for entry in hset2.sorted_entries():
        entries_by_history.setdefault(entry.history, []).append(entry.initial)

    misses = []
    for sigma, tau in sorted(concrete, key=lambda p: (p[0].sort_key(), len(p[1]))):
        target = client_of(tau)
        found = False
        for sigma_c, kappa in client_pairs:
            if not _equivalent(target, ground(kappa)):
                continue
            for l in entries_by_history.get(history_of(kappa), ()):
                if foot_add(delta(sigma_c), l) is not None:
                    found = True
                    break
            if found:
                break
        if not found:
            misses.append(target)
    misses.sort(key=lambda t: (len(t), repr(t)))
    if misses:
        return Verdict(Status.VIOLATED,
                       f"{len(misses)} client projections unreproduced; "
                       f"first: {misses[0]!r}")
    return Verdict(Status.HOLDS_AT_BOUNDS,
                   f"{len(concrete)} concrete behaviours, all client projections "
                   f"reproduced up to trace equivalence")
