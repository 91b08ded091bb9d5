"""Top-level decisions: library linearizability and the abstraction harnesses.

Verdicts are three-valued: a bounded exhaustive check can report
holds-at-bounds or violated (with a witness), and rejects runs whose
hypotheses fail.  Reports are assembled deterministically so identical inputs
yield identical output.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, Iterable

from ._record import record
from .algebra import State, StateUniverse, _require_same_algebra, star_set
from .footprint import Footprint, delta, foot_add, foot_leq
from .history import History, InterfaceSet, LeqReport, interface_set_leq
from .lang import Bounds, ClientProgram, Library, MethodSpec, Program, Trace
from .semantics import (
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


@record
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


def _unreproduced(report: LeqReport) -> str:
    """A failed comparison's summary: how many went unmatched, and the least."""
    bad = report.failures()
    return (f"{len(bad)} behaviours not reproduced; "
            f"first: {bad[0].entry.initial!r} {bad[0].entry.history!r}")


def _compare(lib1: Library, gamma: MethodSpec, initial1: frozenset[State],
             abstract: Callable[[], InterfaceSet], bounds: Bounds) -> LeqReport:
    """``lib1``'s interface set against the one ``abstract`` builds after it,
    so that when both sides fault, ``lib1``'s fault is the one reported."""
    return interface_set_leq(interf(lib1, gamma, initial1, bounds), abstract())


def _check_lin(lib1: Library, gamma: MethodSpec, initial1: Iterable[State],
               abstract: Callable[[], InterfaceSet], bounds: Bounds,
               universe: StateUniverse) -> Verdict:
    try:
        initial1 = _nonempty("initial1", initial1)
        gamma.check_precise(universe)
        report = _compare(lib1, gamma, initial1, abstract, bounds)
    except ValueError as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, str(exc))
    if report.holds:
        return Verdict(Status.HOLDS_AT_BOUNDS, f"all {len(report.entries)} behaviours reproduced",
                       _leq_lines(report))
    return Verdict(Status.VIOLATED, _unreproduced(report), _leq_lines(report))


def check_lin_code(lib1: Library, gamma: MethodSpec, initial1: Iterable[State],
                   lib2: Library, initial2: Iterable[State], bounds: Bounds,
                   universe: StateUniverse = StateUniverse()) -> Verdict:
    """Decide whether one library is linearized by another, by comparing the
    interface sets their local semantics generate at the given bounds."""
    return _check_lin(lib1, gamma, initial1, lambda: interf(lib2, gamma, initial2, bounds),
                      bounds, universe)


def check_lin_interface_set(lib1: Library, gamma: MethodSpec, initial1: Iterable[State],
                            hset2: InterfaceSet, bounds: Bounds,
                            universe: StateUniverse = StateUniverse()) -> Verdict:
    """Decide linearizability of a library against an explicit interface set."""
    return _check_lin(lib1, gamma, initial1, lambda: hset2, bounds, universe)


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


def _abstraction(client: ClientProgram, gamma: MethodSpec, initial: Iterable[State],
                 lib1: Library, initial1: Iterable[State], abstract: Callable[[], InterfaceSet],
                 bounds: Bounds, universe: StateUniverse, assume_linearizable: bool,
                 reproducer: Callable[..., Callable[[Trace], bool]], suffix: str) -> Verdict:
    """Both abstraction checks: once the hypotheses hold, in order, holds when
    the test ``reproducer(algebra, initial, client_pairs)`` returns accepts the
    client projection of every concrete trace; else violated, naming the least
    projection it rejects."""
    stage = ""  # names the hypothesis that a ValueError fails
    try:
        initial, initial1 = _nonempty("initial", initial), _nonempty("initial1", initial1)
        algebra = next(iter(initial1)).algebra
        stage = "client: "
        gamma.check_precise(universe)
        client_pairs = denotation_pairs(Program(algebra, client=client, gamma=gamma,
                                                bounds=bounds), initial)
        stage = "linearizability hypothesis: "
        if not assume_linearizable:
            report = _compare(lib1, gamma, initial1, abstract, bounds)
            if not report.holds:
                raise ValueError(_unreproduced(report))
        stage = "composition unsafe: "
        concrete = denotation_pairs(Program(algebra, library=lib1, client=client, bounds=bounds),
                                    star_set(initial, initial1))
        reproduced = reproducer(algebra, initial, client_pairs)
    except ValueError as exc:
        return Verdict(Status.HYPOTHESIS_FAILED, f"{stage}{exc}")
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
    initial2 = frozenset(initial2)  # read twice: by the hypothesis and by the composition

    def reproducer(algebra, initial, client_pairs):
        abstract = denotation_pairs(Program(algebra, library=lib2, client=client, bounds=bounds),
                                    star_set(initial, initial2))
        return {client_of(tau) for _, tau in abstract}.__contains__

    return _abstraction(client, gamma, initial, lib1, initial1,
                        lambda: interf(lib2, gamma, initial2, bounds), bounds, universe,
                        assume_linearizable, reproducer, "")


def abstraction_check_spec(client: ClientProgram, gamma: MethodSpec, initial: Iterable[State],
                           lib1: Library, initial1: Iterable[State],
                           hset2: InterfaceSet, bounds: Bounds,
                           universe: StateUniverse = StateUniverse(), *,
                           assume_linearizable: bool = False) -> Verdict:
    """Replace a library by an interface set: every client-observable trace of
    the composition must be equivalent to a client-local trace whose history
    the set contains with a compatible initial footprint."""
    def reproducer(algebra, initial, client_pairs):
        if hset2.entries:
            _require_same_algebra(next(iter(initial)), next(iter(hset2.entries)).initial)
        initials = _initials_by_history(hset2)
        # the classes of the client traces whose history the set holds from a
        # footprint compatible with the client's own
        keys = {equivalence_key(ground(kappa)) for sigma_c, kappa in client_pairs
                if any(foot_add(delta(sigma_c), l) is not None
                       for l in initials.get(history_of(kappa), ()))}
        return lambda t: equivalence_key(t) in keys

    return _abstraction(client, gamma, initial, lib1, initial1, lambda: hset2, bounds, universe,
                        assume_linearizable, reproducer, " up to trace equivalence")
