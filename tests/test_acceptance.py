"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines.
Every tolerance and bound is pinned here; nothing is deferred to later
calibration.
"""

import random
import time
from collections import defaultdict

from ownlin import (
    Algebra,
    StateUniverse,
    algebra_law_check,
    call,
    corpus,
    delta,
    evaluate_footprint,
    footprint_law_check,
    interf,
    interface_set_leq,
    is_balanced,
    linearized_by,
    ram,
    ram_foot,
    ret,
    validate_transformer,
)
from ownlin.checker import Status, abstraction_check_code, inclusion_based_leq
from ownlin.frame import check_framed_state_preserved, extra_eval, frame_check
from ownlin.history import InterfaceAction, Kind
from ownlin.lang import (
    Bounds,
    CallMethod,
    ClientProgram,
    SKIP,
    TOP,
    assume,
    seq,
    store,
)
from ownlin.lang import Deref, IntLit
from ownlin.rearrange import ConflictError, rearrange
from ownlin.semantics import (
    UnsafeComponentError,
    compose_decompose_check,
    denote_library,
    history_of,
    library_trace_member,
)

from helpers import (
    RANDOM_LIB_BOUNDS,
    RANDOM_LIB_INITIAL,
    conditional_cell_writer,
    delinearize,
    exhaustive_histories,
    linearized_by_bruteforce,
    neighbour_dependent_writer,
    random_gamma,
    random_history,
    random_library,
    thread_order_shuffle,
)

DEFAULT_UNIVERSE = StateUniverse()


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_algebra_laws():
    t0 = time.monotonic()
    ram_report = algebra_law_check(DEFAULT_UNIVERSE, Algebra.RAM)
    pi_report = algebra_law_check(DEFAULT_UNIVERSE, Algebra.RAM_PI)
    elapsed = time.monotonic() - t0
    ok = ram_report.passed and pi_report.passed and elapsed < 10.0
    _verdict(1, ok,
             f"composition laws exhaustive (RAM, RAM_PI), "
             f"0 counterexamples expected, got "
             f"{len(ram_report.counterexamples) + len(pi_report.counterexamples)}, "
             f"{elapsed:.2f}s < 10s")


def test_criterion_02_footprint_calculus():
    ram_report = footprint_law_check(DEFAULT_UNIVERSE, Algebra.RAM)
    pi_report = footprint_law_check(DEFAULT_UNIVERSE, Algebra.RAM_PI)
    ok = ram_report.passed and pi_report.passed
    _verdict(2, ok,
             "footprint cancellativity, exchange law, and 100% agreement of "
             "direct add/sub/delta with representative-based definitions "
             f"({len(ram_report.counterexamples) + len(pi_report.counterexamples)} "
             "counterexamples)")


def test_criterion_03_balancedness_fixtures():
    cell = ram({10: 0})
    double_transfer = (call(1, "m", cell), call(2, "m2", cell))
    with_return = (call(1, "m", cell), ret(1, "m", cell), call(2, "m2", cell))
    rejected = not is_balanced(double_transfer, ram_foot())
    accepted = evaluate_footprint(with_return, ram_foot()) == ram_foot([10])
    _verdict(3, rejected and accepted,
             "double transfer rejected, transfer-return-transfer accepted "
             "from the empty footprint")


def test_criterion_04_linearization_oracle_agreement():
    t0 = time.monotonic()
    histories = exhaustive_histories(7)
    groups = defaultdict(list)
    for h in histories:
        groups[tuple(sorted(a.sort_key() for a in h))].append(h)
    checked = 0
    disagreements = 0
    for group in groups.values():
        for h in group:
            for h2 in group:
                got = linearized_by(h, h2) is not None
                want = linearized_by_bruteforce(h, h2)
                checked += 1
                if got != want:
                    disagreements += 1
    # pairs with different action multisets: both sides reject by construction;
    # sample to confirm
    rng = random.Random(99)
    for _ in range(2000):
        h = rng.choice(histories)
        h2 = rng.choice(histories)
        got = linearized_by(h, h2) is not None
        want = linearized_by_bruteforce(h, h2)
        checked += 1
        disagreements += got != want

    for _ in range(1000):
        h = random_history(rng, 10)
        h2 = thread_order_shuffle(rng, h)
        got = linearized_by(h, h2) is not None
        want = linearized_by_bruteforce(h, h2)
        checked += 1
        disagreements += got != want
    elapsed = time.monotonic() - t0
    _verdict(4, disagreements == 0,
             f"forced mapping vs brute force: {len(histories)} histories <=7 "
             f"(2 threads, 2 methods) exhaustive within action classes "
             f"+ 1000 random length-10; {checked} pairs, "
             f"{disagreements} disagreements, {elapsed:.1f}s")


def test_criterion_05_transformer_validators():
    builtins_pass = all(
        validate_transformer(c, DEFAULT_UNIVERSE).passed
        for c in (SKIP, store(1, 7), assume(Deref(IntLit(1)))))
    r1 = validate_transformer(conditional_cell_writer, DEFAULT_UNIVERSE)
    r2 = validate_transformer(neighbour_dependent_writer, DEFAULT_UNIVERSE)
    w1 = r1.counterexamples[0] if r1.counterexamples else None
    w2 = r2.counterexamples[0] if r2.counterexamples else None
    witness1 = w1 is not None and w1.law == "locality" \
        and w1.inputs[1:] == (ram({}), ram({1: 1}))
    witness2 = w2 is not None and w2.law == "strong_locality" \
        and w2.inputs[1:] == (ram({1: 0}), ram({2: 0}))
    _verdict(5, builtins_pass and witness1 and witness2,
             "skip/store/assume preserve footprints and strong locality; "
             "counterexample transformers rejected at ([]/[1:1]) and ([1:0]/[2:0])")


def test_criterion_06_local_global_equality():
    bounds = Bounds(star_unroll=1, mgc_iters=2, mgc_threads=2, max_trace_len=12)
    cases = [
        ("trivial", corpus.one_command_client(), corpus.trivial_library(),
         corpus.gamma_trivial(), frozenset({ram({1: 0})}), frozenset({ram({})})),
        ("mini stack", ClientProgram((seq(CallMethod("push"), CallMethod("pop")),)),
         corpus.mini_stack(), corpus.gamma_val(),
         frozenset({ram({1: 7})}), corpus.MINI_INITIAL),
        ("lock stack 2 threads", corpus.push_pop_client(), corpus.lock_stack(),
         corpus.gamma_val(), corpus.CLIENT_INITIAL, corpus.LOCK_STACK_INITIAL),
    ]
    failures = []
    for name, client, lib, gamma, i0, i1 in cases:
        report = compose_decompose_check(client, lib, gamma, i0, i1, bounds)
        if not report.passed:
            failures.append(name)

    def drop_transfer(pairs):
        out = []
        for sigma, lam in pairs:
            new, done = [], False
            for a in lam:
                if (not done and isinstance(a, InterfaceAction)
                        and a.kind is Kind.CALL and a.transferred.cells):
                    a = InterfaceAction(a.thread, a.kind, a.method, ram({}))
                    done = True
                new.append(a)
            out.append((sigma, tuple(new)))
        return out

    mutant = compose_decompose_check(
        ClientProgram((seq(CallMethod("push"), CallMethod("pop")),)),
        corpus.mini_stack(), corpus.gamma_val(),
        frozenset({ram({1: 7})}), corpus.MINI_INITIAL, bounds,
        library_transform=drop_transfer)
    _verdict(6, not failures and not mutant.passed,
             f"complete = client (x) library on {len(cases)} corpus programs "
             f"(failures: {failures or 'none'}); seeded mutant detected: "
             f"{not mutant.passed}")


def test_criterion_07_rearrangement_randomized():
    rng = random.Random(2024)
    pools = [
        (corpus.plain_stack(), corpus.gamma_val(), next(iter(corpus.PLAIN_INITIAL)),
         corpus.DEFAULT_BOUNDS),
        (corpus.mini_stack(), corpus.gamma_val(), next(iter(corpus.MINI_INITIAL)),
         corpus.DEFAULT_BOUNDS),
    ]
    instances = 0
    successes = 0
    conflicts = 0
    for lib, gamma, sigma0, bounds in pools:
        d = denote_library(lib, gamma, sigma0, bounds)
        by_hist = defaultdict(list)
        for tau in d.traces:
            by_hist[history_of(tau)].append(tau)
        sources = [h for h in by_hist if len(h) >= 3]
        sources.sort(key=lambda h: (len(h), repr(h)))
        l0 = delta(sigma0)
        attempts = 0
        while instances < 100 * len(pools) and attempts < 4000:
            attempts += 1
            h2 = rng.choice(sources)
            target = delinearize(rng, h2, rng.randrange(1, 4))
            if target == h2:
                continue
            if not is_balanced(target, l0):
                continue
            if linearized_by(target, h2) is None:
                continue
            lam2 = rng.choice(by_hist[h2])
            instances += 1
            try:
                out, _ = rearrange(lib, gamma, sigma0, lam2, target, l0, bounds)
            except ConflictError:
                conflicts += 1
                continue
            if history_of(out) == target and \
                    library_trace_member(lib, gamma, sigma0, out, bounds):
                successes += 1
        if instances >= 200:
            break
    ok = instances >= 200 and successes == instances and conflicts == 0
    _verdict(7, ok,
             f"{successes}/{instances} randomized rearrangements produced the "
             f"target history and re-evaluated as members "
             f"(>=200 required, conflicts: {conflicts})")


def test_criterion_08_bijection_vs_inclusion_agreement():
    rng = random.Random(4242)
    gamma = corpus.gamma_val()
    small = Bounds(star_unroll=1, mgc_iters=1, mgc_threads=2, max_trace_len=8)
    corpus_sets = [
        interf(corpus.mini_stack(), gamma, corpus.MINI_INITIAL, small),
        interf(corpus.mini_stack_slow(), gamma, corpus.MINI_INITIAL, small),
        interf(corpus.plain_stack(), gamma, corpus.PLAIN_INITIAL, small),
        interf(corpus.plain_queue(), gamma, corpus.PLAIN_INITIAL, small),
    ]
    pairs = [(a, b) for a in corpus_sets for b in corpus_sets]
    random_pairs = 0
    disagreements = 0
    while random_pairs < 50:
        g = random_gamma(rng, ("a", "b"))
        lib1 = random_library(rng, g)
        lib2 = random_library(rng, g)
        try:
            h1 = interf(lib1, g, RANDOM_LIB_INITIAL, RANDOM_LIB_BOUNDS)
            h2 = interf(lib2, g, RANDOM_LIB_INITIAL, RANDOM_LIB_BOUNDS)
        except UnsafeComponentError:
            continue
        random_pairs += 1
        if interface_set_leq(h1, h2).holds != inclusion_based_leq(h1, h2):
            disagreements += 1
    for a, b in pairs:
        if interface_set_leq(a, b).holds != inclusion_based_leq(a, b):
            disagreements += 1
    _verdict(8, disagreements == 0,
             f"bijection-based and inclusion-based verdicts agree on "
             f"{random_pairs} random safe pairs + {len(pairs)} corpus pairs "
             f"({disagreements} disagreements)")


def test_criterion_09_abstraction_theorem_desk_scale():
    t0 = time.monotonic()
    verdict = abstraction_check_code(
        corpus.push_pop_client(), corpus.gamma_val(), corpus.CLIENT_INITIAL,
        corpus.lock_stack(), corpus.LOCK_STACK_INITIAL,
        corpus.plain_stack(), corpus.PLAIN_INITIAL,
        corpus.DEFAULT_BOUNDS, corpus.CORPUS_UNIVERSE)
    elapsed = time.monotonic() - t0
    ok = verdict.status is Status.HOLDS_AT_BOUNDS and elapsed < 300.0
    _verdict(9, ok,
             f"lock-based 2-slot stack vs atomic stack, 2-thread client: "
             f"{verdict.summary}; {elapsed:.1f}s < 300s")


def test_criterion_10_frame_rule():
    report = frame_check(corpus.mini_stack_slow(), corpus.mini_stack(),
                         corpus.gamma_val(), corpus.gamma_obj(),
                         corpus.MINI_INITIAL, corpus.MINI_INITIAL,
                         corpus.EXTRA_INITIAL_EMPTY, corpus.DEFAULT_BOUNDS,
                         corpus.CORPUS_UNIVERSE)
    conclusion_matches = (report.status == "holds-at-bounds"
                          and report.direct_check is not None
                          and report.direct_check.holds)
    witness = check_framed_state_preserved(
        corpus.mini_stack_scribbler(), corpus.gamma_val(), corpus.gamma_obj(),
        corpus.MINI_INITIAL, corpus.EXTRA_INITIAL_EMPTY, corpus.DEFAULT_BOUNDS)
    scribbler_caught = (witness is not None
                        and extra_eval(witness.failing_prefix,
                                       witness.initial_extra) is TOP)
    _verdict(10, conclusion_matches and scribbler_caught,
             "frame-rule conclusion matches direct extended-contract check; "
             "block-writing fixture fails framed-state preservation with a "
             "fault witness")
