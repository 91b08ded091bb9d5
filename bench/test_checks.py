"""The benchmark's checks pass on the program's output and fail on a wrong one.

Run with: python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

from ownlin import corpus, history, semantics  # noqa: E402
from ownlin.algebra import ram  # noqa: E402
from ownlin.lang import Bounds  # noqa: E402

import checks as ck  # noqa: E402
import histgen  # noqa: E402
import run  # noqa: E402
from workloads import WORKLOADS, interf_recomputation_check, witness_line_checks  # noqa: E402

SMALL = Bounds(star_unroll=1, mgc_iters=1, mgc_threads=2, max_trace_len=6)


def _failed(results) -> list[str]:
    return [name for name, ok, _ in results if not ok]


def test_runner_knows_every_workload():
    assert run.WORKLOADS == tuple(WORKLOADS)


def _history_case():
    w = histgen.generate(seed=7, per_footprint=8, derived=6, planted=2)
    return w, history.interface_set_leq(w.left, w.right)


def test_history_checks_pass_on_program_output():
    w, report = _history_case()
    assert len(w.planted) == 2 and len(w.left) == 8
    assert _failed(ck.leq_report_checks("h", report, w.left.entries, w.right.entries,
                                        w.planted)) == []


def test_corrupted_witness_is_caught():
    w, report = _history_case()
    entries = list(report.entries)
    i = next(k for k, e in enumerate(entries) if e.matched is not None)
    mapping = entries[i].witness.mapping
    bad = history.LinWitness(tuple(reversed(mapping)))
    entries[i] = dataclasses.replace(entries[i], witness=bad)
    corrupted = dataclasses.replace(report, entries=tuple(entries))
    assert _failed(ck.leq_report_checks("h", corrupted, w.left.entries, w.right.entries,
                                        w.planted)) == ["h: every witness passes the order check"]


def test_corrupted_witness_line_is_caught():
    lib, gamma = corpus.mini_stack(), corpus.gamma_val()
    hs = semantics.interf(lib, gamma, corpus.MINI_INITIAL, SMALL)
    report = history.interface_set_leq(hs, hs)
    lines = [f"{e.entry.initial!r} {e.entry.history!r} -> {e.matched.initial!r} "
             f"{e.matched.history!r} via {e.witness.mapping}" for e in report.entries]
    assert _failed(witness_line_checks("l", lines, hs.entries, hs.entries)) == []
    k = max(range(len(lines)), key=lambda j: len(report.entries[j].entry.history))
    m = report.entries[k].witness.mapping
    lines[k] = lines[k].replace(f"via {m}", f"via {tuple(reversed(m))}")
    assert _failed(witness_line_checks("l", lines, hs.entries, hs.entries)) == [
        "l: every witness line passes the order check"]


def test_dropped_interface_entry_is_caught():
    lib, gamma = corpus.mini_stack(), corpus.gamma_val()
    hs = semantics.interf(lib, gamma, corpus.MINI_INITIAL, SMALL)
    assert _failed(interf_recomputation_check("i", lib, gamma, corpus.MINI_INITIAL,
                                              SMALL, hs)) == []
    dropped = history.interface_set(hs.sorted_entries()[1:])
    assert _failed(interf_recomputation_check("i", lib, gamma, corpus.MINI_INITIAL,
                                              SMALL, dropped)) == [
        "i: interface set equals per-trace evaluation"]


def test_unplanted_miss_is_caught():
    w, report = _history_case()
    entries = list(report.entries)
    i = next(k for k, e in enumerate(entries) if e.matched is not None)
    entries[i] = dataclasses.replace(entries[i], matched=None, witness=None)
    missed = history.LeqReport(False, tuple(entries))
    assert _failed(ck.leq_report_checks("h", missed, w.left.entries, w.right.entries,
                                        w.planted)) == [
        "h: unmatched entries are exactly the expected ones",
        "h: brute force finds no linearization of unmatched entries"]


def test_planted_entries_defeat_the_brute_force():
    w, _ = _history_case()
    for e in w.planted:
        assert not any(ck.foot_below(r.initial, e.initial)
                       and ck.brute_force_linearizes(e.history, r.history)
                       for r in w.right.entries)


def test_extra_fold_recomputation():
    gamma = corpus.gamma_val()
    obj = history.call(1, "push", ram({1: 7, 7: 1}))
    back = history.ret(1, "pop", ram({1: 7, 7: 1}))
    scribbled = history.ret(1, "pop", ram({1: 7, 7: 0}))
    empty = ram({})
    assert ck.extra_fold_fault_index((obj, back), gamma, empty) is None
    assert ck.extra_fold_fault_index((obj, scribbled), gamma, empty) == 1
