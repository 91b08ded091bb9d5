"""Top-level decisions: library linearizability and the abstraction harnesses.

Verdicts are three-valued: a bounded exhaustive check can report
holds-at-bounds or violated (with a witness), and rejects runs whose
hypotheses fail.  Reports are assembled deterministically so identical inputs
yield identical output.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable

from .algebra import State, StateUniverse, star_set
from .footprint import Footprint, delta, foot_add, foot_leq
from .history import History, InterfaceSet, LeqReport, interface_set_leq
from .lang import Bounds, ClientProgram, Library, MethodSpec, Program, Trace
from .semantics import (
    UnsafeComponentError,
    _nonempty,
    client_of,
    denotation_pairs,
    equivalence_key,
    ground,
    history_of,
    interf,
    trace_sort_key,
)


class Status(str, Enum):
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


def _leq_verdict(report: LeqReport) -> Verdict:
    if report.holds:
        return Verdict(Status.HOLDS_AT_BOUNDS,
                       f"all {len(report.entries)} behaviours reproduced",
                       _leq_lines(report))
    bad = report.failures()[0]
    return Verdict(Status.VIOLATED,
                   f"{len(report.failures())} behaviours not reproduced; "
                   f"first: {bad.entry.initial!r} {bad.entry.history!r}",
                   _leq_lines(report))


def check_lin_code(lib1: Library, gamma: MethodSpec, initial1: Iterable[State],
                   lib2: Library, initial2: Iterable[State], bounds: Bounds,
                   universe: StateUniverse = StateUniverse()) -> Verdict:
    """Decide whether one library is linearized by another, by comparing the
    interface sets their local semantics generate at the given bounds."""
    try:
        initial1 = _nonempty("initial1", initial1)
        gamma.check_precise(universe)
        h1 = interf(lib1, gamma, initial1, bounds)
        h2 = interf(lib2, gamma, initial2, bounds)
    except (UnsafeComponentError, ValueError) as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, str(exc))
    return _leq_verdict(interface_set_leq(h1, h2))


def check_lin_interface_set(lib1: Library, gamma: MethodSpec, initial1: Iterable[State],
                            hset2: InterfaceSet, bounds: Bounds,
                            universe: StateUniverse = StateUniverse()) -> Verdict:
    """Decide linearizability of a library against an explicit interface set."""
    try:
        initial1 = _nonempty("initial1", initial1)
        gamma.check_precise(universe)
        h1 = interf(lib1, gamma, initial1, bounds)
    except (UnsafeComponentError, ValueError) as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, str(exc))
    return _leq_verdict(interface_set_leq(h1, hset2))


def inclusion_based_leq(h1: InterfaceSet, h2: InterfaceSet) -> bool:
    """Plain inclusion up to initial footprints: every behaviour of the first
    set appears verbatim (same history) in the second with a footprint below.

    Equivalent to the witness-search decision for library-generated sets;
    the equivalence is itself a checked property.
    """
    want = _initials_by_history(h2)
    for entry in h1.sorted_entries():
        if not any(foot_leq(l2, entry.initial) for l2 in want.get(entry.history, ())):
            return False
    return True


def _initials_by_history(hset: InterfaceSet) -> dict[History, list[Footprint]]:
    """The initial footprints each history of ``hset`` is held from."""
    out: dict[History, list[Footprint]] = {}
    for entry in hset.sorted_entries():
        out.setdefault(entry.history, []).append(entry.initial)
    return out


def _containment_verdict(concrete, reproduced: Callable[[Trace], bool],
                         suffix: str = "") -> Verdict:
    """Holds when ``reproduced`` accepts the client projection of every
    concrete trace; else violated, naming the least projection it rejects."""
    misses = sorted((t for t in (client_of(tau) for _, tau in concrete) if not reproduced(t)),
                    key=trace_sort_key)
    if misses:
        return Verdict(Status.VIOLATED,
                       f"{len(misses)} client projections unreproduced; "
                       f"first: {misses[0]!r}")
    return Verdict(Status.HOLDS_AT_BOUNDS,
                   f"{len(concrete)} concrete behaviours, all client projections "
                   f"reproduced{suffix}")


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
    try:
        initial, initial1 = _nonempty("initial", initial), _nonempty("initial1", initial1)
    except ValueError as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, str(exc))
    algebra = next(iter(initial1)).algebra
    client_prog = Program(algebra, client=client, gamma=gamma, bounds=bounds)
    try:
        gamma.check_precise(universe)
        denotation_pairs(client_prog, initial)
    except (UnsafeComponentError, ValueError) as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, f"client: {exc}")
    if not assume_linearizable:
        lin = check_lin_code(lib1, gamma, initial1, lib2, initial2, bounds, universe)
        if lin.status is not Status.HOLDS_AT_BOUNDS:
            return Verdict(Status.HYPOTHESIS_FAILED,
                           f"linearizability hypothesis: {lin.summary}")
    try:
        concrete = denotation_pairs(Program(algebra, library=lib1, client=client, bounds=bounds),
                                    star_set(initial, initial1))
        abstract = denotation_pairs(Program(algebra, library=lib2, client=client, bounds=bounds),
                                    star_set(initial, initial2))
    except (UnsafeComponentError, ValueError) as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, f"composition unsafe: {exc}")
    reproducible = {client_of(tau) for _, tau in abstract}
    return _containment_verdict(concrete, lambda t: t in reproducible)


def abstraction_check_spec(client: ClientProgram, gamma: MethodSpec, initial: Iterable[State],
                           lib1: Library, initial1: Iterable[State],
                           hset2: InterfaceSet, bounds: Bounds,
                           universe: StateUniverse = StateUniverse(), *,
                           assume_linearizable: bool = False) -> Verdict:
    """Replace a library by an interface set: every client-observable trace of
    the composition must be equivalent to a client-local trace whose history
    the set contains with a compatible initial footprint."""
    try:
        initial, initial1 = _nonempty("initial", initial), _nonempty("initial1", initial1)
    except ValueError as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, str(exc))
    algebra = next(iter(initial1)).algebra
    client_prog = Program(algebra, client=client, gamma=gamma, bounds=bounds)
    try:
        gamma.check_precise(universe)
        client_pairs = denotation_pairs(client_prog, initial)
    except (UnsafeComponentError, ValueError) as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, f"client: {exc}")
    if not assume_linearizable:
        lin = check_lin_interface_set(lib1, gamma, initial1, hset2, bounds, universe)
        if lin.status is not Status.HOLDS_AT_BOUNDS:
            return Verdict(Status.HYPOTHESIS_FAILED,
                           f"linearizability hypothesis: {lin.summary}")
    try:
        concrete = denotation_pairs(Program(algebra, library=lib1, client=client, bounds=bounds),
                                    star_set(initial, initial1))
    except (UnsafeComponentError, ValueError) as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, f"composition unsafe: {exc}")

    entries_by_history = _initials_by_history(hset2)
    # the classes of the client traces whose history the set holds from a
    # footprint compatible with the client's own
    reproducible = {equivalence_key(ground(kappa)) for sigma_c, kappa in client_pairs
                    if any(foot_add(delta(sigma_c), l) is not None
                           for l in entries_by_history.get(history_of(kappa), ()))}
    return _containment_verdict(concrete, lambda t: equivalence_key(t) in reproducible,
                                " up to trace equivalence")
