"""The four workloads: inputs, the timed verdict, and the checks on it.

Each workload is four functions.  ``setup(seed)`` builds the inputs and
counts as set-up time; ``verdict(inputs)`` is the timed call into the
program's top-level check; ``digest(result)`` summarises the output so
repetitions can be compared; ``checks(inputs, result)`` runs after timing
and recomputes what it can apart from the program.

Calls go through module attributes (``checker.check_lin_code``), so the
tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import dataclass
from typing import Callable

from ownlin import checker, corpus, frame, history, lang, semantics
from ownlin.algebra import star
from ownlin.history import Kind
from ownlin.lang import Bounds

import checks as ck
import histgen

HISTORY_PER_FOOTPRINT = 150  # right entries per initial footprint (8 footprints)
HISTORY_DERIVED = 80
HISTORY_PLANTED = 16


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    verdict: Callable
    digest: Callable
    checks: Callable


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _star_set(a, b) -> frozenset:
    return frozenset(c for x in a for y in b if (c := star(x, y)) is not None)


# ---------------------------------------------------------------------------
# check_lin_stack
# ---------------------------------------------------------------------------

LIN_BOUNDS = Bounds(star_unroll=1, mgc_iters=2, mgc_threads=2, max_trace_len=8)

_VIA = re.compile(r"^(.*) -> (.*) via \(([0-9, ]*)\)$")


def _lin_setup(seed: int) -> dict:
    return dict(lib1=corpus.lock_stack(), lib2=corpus.plain_stack(), gamma=corpus.gamma_val(),
                init1=corpus.LOCK_STACK_INITIAL, init2=corpus.PLAIN_INITIAL,
                bounds=LIN_BOUNDS, universe=corpus.CORPUS_UNIVERSE)


def _lin_verdict(w: dict):
    return checker.check_lin_code(w["lib1"], w["gamma"], w["init1"], w["lib2"], w["init2"],
                                  w["bounds"], w["universe"])


def _verdict_digest(v) -> str:
    return _sha(repr(v.as_dict()))


def witness_line_checks(label: str, lines, left, right) -> list:
    """The verdict's witness lines name, for each left entry, a right entry
    with a smaller footprint and a mapping that passes the order check."""
    by_text = {f"{e.initial!r} {e.history!r}": e for e in right}
    left_by_text = {f"{e.initial!r} {e.history!r}": e for e in left}
    seen, bad = set(), []
    for line in lines:
        m = _VIA.match(line)
        entry = left_by_text.get(m.group(1)) if m else None
        matched = by_text.get(m.group(2)) if m else None
        if entry is None or matched is None:
            bad.append(line)
            continue
        seen.add(entry)
        mapping = [int(x) for x in m.group(3).replace(" ", "").split(",") if x]
        if not (ck.foot_below(matched.initial, entry.initial)
                and ck.witness_ok(entry.history, matched.history, mapping)):
            bad.append(line)
    return [ck.check(f"{label}: every witness line passes the order check", not bad,
                     f"{len(bad)} of {len(lines)} lines fail"),
            ck.check(f"{label}: witness lines cover every left entry",
                     seen == set(left), f"{len(seen)} of {len(left)} covered")]


def interf_recomputation_check(label: str, lib, gamma, initial, bounds, hset) -> list:
    """The interface set equals the (footprint, history) pairs of each trace
    of ``library_trace_set`` evaluated on its own with ``eval_trace``."""
    mode = semantics.LibraryLocal(gamma)
    pairs = ck.per_trace_interface_pairs(
        lang.library_trace_set(lib, bounds),
        lambda tau, s: semantics.eval_trace(mode, tau, s), initial)
    got = {(e.initial, e.history) for e in hset.entries}
    return [ck.check(f"{label}: interface set equals per-trace evaluation", got == pairs,
                     f"{len(got)} entries, {len(pairs)} recomputed")]


def _lin_checks(w: dict, v) -> list:
    h1 = semantics.interf(w["lib1"], w["gamma"], w["init1"], w["bounds"])
    h2 = semantics.interf(w["lib2"], w["gamma"], w["init2"], w["bounds"])
    holds = v.status is checker.Status.HOLDS_AT_BOUNDS
    out = [ck.check("check_lin_stack: lock_stack is linearized by plain_stack", holds,
                    v.summary)]
    out += witness_line_checks("check_lin_stack", v.details, h1.entries, h2.entries)
    out.append(ck.check("check_lin_stack: inclusion agrees with the witness search",
                        checker.inclusion_based_leq(h1, h2) == holds))
    out += interf_recomputation_check("check_lin_stack", w["lib1"], w["gamma"], w["init1"],
                                      w["bounds"], h1)
    return out


# ---------------------------------------------------------------------------
# abstraction_spec_mini
# ---------------------------------------------------------------------------

ABS_BOUNDS = Bounds(star_unroll=1, mgc_iters=2, mgc_threads=2, max_trace_len=7)
ABS_CONTROL_BOUNDS = Bounds(star_unroll=1, mgc_iters=1, mgc_threads=2, max_trace_len=8)


def atomic(h) -> bool:
    """Every completed invocation returns right after its call."""
    return all(i > 0 and h[i - 1].kind is Kind.CALL and h[i - 1].thread == a.thread
               and h[i - 1].method == a.method
               for i, a in enumerate(h) if a.kind is Kind.RET)


def atomic_subset(lib, gamma, initial, bounds):
    hs = semantics.interf(lib, gamma, initial, bounds)
    return history.interface_set(e for e in hs.entries if atomic(e.history))


def _abs_setup(seed: int) -> dict:
    gamma = corpus.gamma_val()
    spec = atomic_subset(corpus.mini_stack(), gamma, corpus.MINI_INITIAL, ABS_BOUNDS)
    # the abstract set comes from another library; drop its denotations anyway
    # so that nothing built here is reused by the timed check
    semantics.clear_caches()
    return dict(client=corpus.push_pop_client(), gamma=gamma, init=corpus.CLIENT_INITIAL,
                lib1=corpus.mini_stack_slow(), init1=corpus.MINI_INITIAL, spec=spec,
                bounds=ABS_BOUNDS, universe=corpus.CORPUS_UNIVERSE)


def _abs_verdict(w: dict):
    return checker.abstraction_check_spec(w["client"], w["gamma"], w["init"], w["lib1"],
                                          w["init1"], w["spec"], w["bounds"], w["universe"])


def concrete_behaviour_count(lib, client, initial_client, initial_lib, bounds) -> int:
    """Distinct (initial state, annotated trace) pairs of the complete
    program, from each trace of ``complete_trace_set`` evaluated alone."""
    pairs = set()
    traces = lang.complete_trace_set(lib, client, bounds)
    for sigma in _star_set(initial_client, initial_lib):
        for tau in traces:
            r = semantics.eval_trace(semantics.COMPLETE, tau, sigma)
            if r.faulted:
                raise AssertionError(f"complete program faults at {sigma!r}: {tau!r}")
            pairs.update((sigma, ann) for _, ann in r.outcomes)
    return len(pairs)


def _abs_checks(w: dict, v) -> list:
    out = [ck.check("abstraction_spec_mini: client behaviours survive the abstraction",
                    v.status is checker.Status.HOLDS_AT_BOUNDS, v.summary)]
    m = re.match(r"(\d+) concrete behaviours", v.summary)
    want = concrete_behaviour_count(w["lib1"], w["client"], w["init"], w["init1"], w["bounds"])
    out.append(ck.check("abstraction_spec_mini: concrete behaviour count recomputed",
                        m is not None and int(m.group(1)) == want,
                        f"reported {m.group(1) if m else '?'}, recomputed {want}"))
    # negative control: with every completed operation pruned from the
    # specification, the containment check must report a violation
    spec = atomic_subset(corpus.mini_stack(), w["gamma"], w["init1"], ABS_CONTROL_BOUNDS)
    pruned = history.interface_set(e for e in spec.entries
                                   if not any(a.kind is Kind.RET for a in e.history))
    control = checker.abstraction_check_spec(
        w["client"], w["gamma"], w["init"], w["lib1"], w["init1"], pruned,
        ABS_CONTROL_BOUNDS, w["universe"], assume_linearizable=True)
    out.append(ck.check("abstraction_spec_mini: pruned specification is reported violated",
                        control.status is checker.Status.VIOLATED, control.summary))
    return out


# ---------------------------------------------------------------------------
# frame_ownership
# ---------------------------------------------------------------------------

FRAME_BOUNDS = Bounds(star_unroll=1, mgc_iters=2, mgc_threads=2, max_trace_len=7)
# a push and a pop's return take 10 actions; below that the scribbler's
# fault is out of reach
SCRIBBLER_BOUNDS = Bounds(star_unroll=1, mgc_iters=1, mgc_threads=2, max_trace_len=10)


def _frame_setup(seed: int) -> dict:
    return dict(lib1=corpus.mini_stack_slow(), lib2=corpus.mini_stack(),
                scribbler=corpus.mini_stack_scribbler(), gamma=corpus.gamma_val(),
                gamma_ext=corpus.gamma_obj(), init=corpus.MINI_INITIAL,
                extra=corpus.EXTRA_INITIAL_EMPTY, bounds=FRAME_BOUNDS,
                scribbler_bounds=SCRIBBLER_BOUNDS, universe=corpus.CORPUS_UNIVERSE)


def _frame_verdict(w: dict):
    report = frame.frame_check(w["lib1"], w["lib2"], w["gamma"], w["gamma_ext"], w["init"],
                               w["init"], w["extra"], w["bounds"], w["universe"])
    witness = frame.check_framed_state_preserved(w["scribbler"], w["gamma"], w["gamma_ext"],
                                                 w["init"], w["extra"], w["scribbler_bounds"])
    return report, witness


def _frame_digest(result) -> str:
    report, witness = result
    return _sha(repr((report.lines(), witness)))


def _frame_checks(w: dict, result) -> list:
    report, witness = result
    g, gx, b = w["gamma"], w["gamma_ext"], w["bounds"]
    direct_holds = report.direct_check is not None and report.direct_check.holds
    out = [ck.check("frame_ownership: the rule's conclusion holds",
                    report.status == "holds-at-bounds", report.status),
           ck.check("frame_ownership: the conclusion agrees with the direct check",
                    (report.status == "holds-at-bounds") == direct_holds)]
    extended = _star_set(w["init"], w["extra"])
    for label, leq, contract, init in (("base", report.base_lin, g, w["init"]),
                                       ("extended", report.direct_check, gx, extended)):
        if leq is None:
            out.append(ck.check(f"frame_ownership {label}: comparison was made", False))
            continue
        left = semantics.interf(w["lib1"], contract, init, b)
        right = semantics.interf(w["lib2"], contract, init, b)
        out += ck.leq_report_checks(f"frame_ownership {label}", leq, left.entries,
                                    right.entries)
    out.append(ck.check("frame_ownership: the scribbler has a witness", witness is not None))
    if witness is not None:
        h = tuple(a for a in witness.trace if isinstance(a, history.InterfaceAction))
        index = ck.extra_fold_fault_index(h, g, witness.initial_extra)
        out.append(ck.check("frame_ownership: the witness's extra-state fold faults",
                            index is not None and index == witness.failing_index,
                            f"recomputed {index}, reported {witness.failing_index}"))
        sigma = star(witness.initial_base, witness.initial_extra)
        out.append(ck.check("frame_ownership: the witness trace is a library member",
                            sigma is not None and semantics.library_trace_member(
                                w["scribbler"], gx, sigma, witness.trace,
                                w["scribbler_bounds"])))
    return out


# ---------------------------------------------------------------------------
# history_compare
# ---------------------------------------------------------------------------

def _history_setup(seed: int):
    return histgen.generate(seed, HISTORY_PER_FOOTPRINT, HISTORY_DERIVED, HISTORY_PLANTED)


def _history_verdict(w):
    return history.interface_set_leq(w.left, w.right)


def _history_digest(report) -> str:
    return _sha(repr([(e.entry.sort_key(), e.matched.sort_key() if e.matched else None,
                       e.witness.mapping if e.witness else None) for e in report.entries]))


def _history_checks(w, report) -> list:
    return ck.leq_report_checks("history_compare", report, w.left.entries, w.right.entries,
                                expect_unmatched=w.planted)


WORKLOADS = {w.name: w for w in (
    Workload("check_lin_stack", _lin_setup, _lin_verdict, _verdict_digest, _lin_checks),
    Workload("abstraction_spec_mini", _abs_setup, _abs_verdict, _verdict_digest, _abs_checks),
    Workload("frame_ownership", _frame_setup, _frame_verdict, _frame_digest, _frame_checks),
    Workload("history_compare", _history_setup, _history_verdict, _history_digest, _history_checks),
)}
