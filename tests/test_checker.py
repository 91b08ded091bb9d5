import random

import pytest

from ownlin import corpus, interf, interface_set_leq, ram, ram_pi
from ownlin.algebra import Algebra, star_set
from ownlin.checker import (
    Status,
    abstraction_check_code,
    abstraction_check_spec,
    check_lin_code,
    check_lin_interface_set,
    inclusion_based_leq,
)
from ownlin.footprint import ram_pi_foot
from ownlin.history import BalancedHistory, Kind, call, interface_set, is_sequential, ret
from ownlin.lang import (
    Bounds,
    ClientProgram,
    MethodSpec,
    Prim,
    Program,
    SKIP,
    library,
    seq,
    store,
)
from ownlin.semantics import UnsafeComponentError, denotation_pairs

from helpers import (
    RANDOM_LIB_BOUNDS,
    RANDOM_LIB_INITIAL,
    abstraction_spec_misses_oracle,
    random_gamma,
    random_library,
)

GAMMA = corpus.gamma_val()
UNIVERSE = corpus.CORPUS_UNIVERSE
BOUNDS = corpus.DEFAULT_BOUNDS
SMALL = Bounds(star_unroll=1, mgc_iters=1, mgc_threads=2, max_trace_len=8)
# each touches the cell 9, which no initial state owns
UNSAFE_CLIENT = ClientProgram((Prim(store(9, 1)),))
UNSAFE_LIB = library({"push": Prim(store(9, 1)), "pop": Prim(SKIP)})


def test_every_library_linearizes_itself():
    v = check_lin_code(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL,
                       corpus.mini_stack(), corpus.MINI_INITIAL, SMALL, UNIVERSE)
    assert v.status is Status.HOLDS_AT_BOUNDS


def test_lock_stack_linearized_by_plain_stack():
    v = check_lin_code(corpus.lock_stack(), GAMMA, corpus.LOCK_STACK_INITIAL,
                       corpus.plain_stack(), corpus.PLAIN_INITIAL,
                       Bounds(star_unroll=1, mgc_iters=2, mgc_threads=2, max_trace_len=12),
                       UNIVERSE)
    assert v.status is Status.HOLDS_AT_BOUNDS


def test_stack_and_queue_distinguished():
    v = check_lin_code(corpus.plain_stack(), GAMMA, corpus.PLAIN_INITIAL,
                       corpus.plain_queue(), corpus.PLAIN_INITIAL,
                       corpus.SEQUENTIAL_BOUNDS, UNIVERSE)
    assert v.status is Status.VIOLATED


def test_unsafe_input_rejected():
    v = check_lin_code(UNSAFE_LIB, GAMMA, corpus.MINI_INITIAL,
                       corpus.mini_stack(), corpus.MINI_INITIAL, SMALL, UNIVERSE)
    assert v.status is Status.HYPOTHESIS_FAILED
    assert v.exit_code == 2


def _atomic(h) -> bool:
    # every completed invocation is instantaneous; pending calls may hover
    from ownlin.history import Kind
    for i, a in enumerate(h):
        if a.kind is Kind.RET:
            if i == 0 or h[i - 1].kind is not Kind.CALL \
                    or h[i - 1].thread != a.thread or h[i - 1].method != a.method:
                return False
    return True


def test_check_lin_interface_set_variants():
    hs = interf(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL, SMALL)
    v = check_lin_interface_set(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL,
                                hs, SMALL, UNIVERSE)
    assert v.status is Status.HOLDS_AT_BOUNDS
    # an atomic abstract set: completed invocations are instantaneous
    atomic_only = interface_set(e for e in hs.entries if _atomic(e.history))
    assert any(not is_sequential(e.history) or len(e.history) > 0
               for e in atomic_only.entries)
    v2 = check_lin_interface_set(corpus.mini_stack_slow(), GAMMA, corpus.MINI_INITIAL,
                                 atomic_only, SMALL, UNIVERSE)
    assert v2.status is Status.HOLDS_AT_BOUNDS
    pruned = interface_set(list(hs.sorted_entries())[:-4])
    v3 = check_lin_interface_set(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL,
                                 pruned, SMALL, UNIVERSE)
    assert v3.status is Status.VIOLATED


def test_inclusion_based_verdict_agrees_on_corpus():
    pairs = [
        (corpus.mini_stack(), corpus.MINI_INITIAL, corpus.mini_stack(), corpus.MINI_INITIAL),
        (corpus.mini_stack_slow(), corpus.MINI_INITIAL, corpus.mini_stack(), corpus.MINI_INITIAL),
        (corpus.plain_stack(), corpus.PLAIN_INITIAL, corpus.plain_queue(), corpus.PLAIN_INITIAL),
    ]
    for lib1, i1, lib2, i2 in pairs:
        h1 = interf(lib1, GAMMA, i1, SMALL)
        h2 = interf(lib2, GAMMA, i2, SMALL)
        assert interface_set_leq(h1, h2).holds == inclusion_based_leq(h1, h2)


def test_inclusion_based_verdict_agrees_on_random_pairs():
    rng = random.Random(1234)
    agreed = 0
    trials = 0
    while agreed < 12 and trials < 60:
        trials += 1
        gamma = random_gamma(rng, ("a", "b"))
        lib1 = random_library(rng, gamma)
        lib2 = random_library(rng, gamma)
        try:
            h1 = interf(lib1, gamma, RANDOM_LIB_INITIAL, RANDOM_LIB_BOUNDS)
            h2 = interf(lib2, gamma, RANDOM_LIB_INITIAL, RANDOM_LIB_BOUNDS)
        except UnsafeComponentError:
            continue
        assert interface_set_leq(h1, h2).holds == inclusion_based_leq(h1, h2)
        agreed += 1
    assert agreed >= 12


def test_abstraction_check_code_identity():
    v = abstraction_check_code(
        corpus.push_pop_client(), GAMMA, corpus.CLIENT_INITIAL,
        corpus.mini_stack(), corpus.MINI_INITIAL,
        corpus.mini_stack(), corpus.MINI_INITIAL, BOUNDS, UNIVERSE)
    assert v.status is Status.HOLDS_AT_BOUNDS


def test_abstraction_check_code_negative_control():
    # a library that forgets the push effect, with the linearizability
    # hypothesis forced off so the containment stage itself must catch it;
    # the client observably branches on the popped value
    from ownlin.lang import Add, Assume, CallMethod, Deref, IntLit, Prim, TID, store
    forgetful = library({
        "push": Prim(store(TID, 0)),
        "pop": Prim(store(TID, 0)),
    })
    from ownlin.lang import ClientProgram, Not, seq
    observing = ClientProgram((seq(
        CallMethod("push"), Prim(store(TID, 0)), CallMethod("pop"),
        Prim(Assume(Not(Add(Deref(TID), IntLit(-7)))))),))
    v = abstraction_check_code(
        observing, GAMMA, frozenset({ram({1: 7})}),
        corpus.mini_stack(), corpus.MINI_INITIAL,
        forgetful, corpus.MINI_INITIAL,
        Bounds(star_unroll=1, mgc_iters=2, mgc_threads=1, max_trace_len=16),
        UNIVERSE, assume_linearizable=True)
    assert v.status is Status.VIOLATED


def test_abstraction_check_spec_holds_for_own_interface_set():
    hs = interf(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL, BOUNDS)
    v = abstraction_check_spec(
        corpus.push_pop_client(), GAMMA, corpus.CLIENT_INITIAL,
        corpus.mini_stack(), corpus.MINI_INITIAL, hs, BOUNDS, UNIVERSE)
    assert v.status is Status.HOLDS_AT_BOUNDS


def test_abstraction_check_spec_atomic_set_suffices():
    hs = interf(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL, BOUNDS)
    atomic_only = interface_set(e for e in hs.entries if _atomic(e.history))
    assert len(atomic_only) < len(hs)
    v = abstraction_check_spec(
        corpus.push_pop_client(), GAMMA, corpus.CLIENT_INITIAL,
        corpus.mini_stack_slow(), corpus.MINI_INITIAL, atomic_only,
        BOUNDS, UNIVERSE)
    assert v.status is Status.HOLDS_AT_BOUNDS


def test_abstraction_check_spec_pruned_set_detected():
    hs = interf(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL, BOUNDS)
    entries = hs.sorted_entries()
    pruned = interface_set(e for e in entries if len(e.history) < 4)
    v = abstraction_check_spec(
        corpus.push_pop_client(), GAMMA, corpus.CLIENT_INITIAL,
        corpus.mini_stack(), corpus.MINI_INITIAL, pruned, BOUNDS, UNIVERSE,
        assume_linearizable=True)
    assert v.status is Status.VIOLATED


@pytest.mark.parametrize("bounds", [Bounds(1, 1, 2, 8), Bounds(1, 2, 2, 8)])
def test_abstraction_check_spec_agrees_with_nested_loop_oracle(bounds):
    client, initial = corpus.push_pop_client(), corpus.CLIENT_INITIAL
    own = interf(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL, bounds)
    pruned = interface_set(e for e in own.entries
                           if not any(a.kind is Kind.RET for a in e.history))
    client_pairs = denotation_pairs(Program(Algebra.RAM, client=client, gamma=GAMMA,
                                            bounds=bounds), initial)
    verdicts = set()
    for lib, hset in ((corpus.mini_stack(), own), (corpus.mini_stack_slow(), pruned)):
        concrete = denotation_pairs(Program(Algebra.RAM, library=lib, client=client,
                                            bounds=bounds),
                                    star_set(initial, corpus.MINI_INITIAL))
        misses = abstraction_spec_misses_oracle(client_pairs, concrete, hset)
        v = abstraction_check_spec(client, GAMMA, initial, lib, corpus.MINI_INITIAL, hset,
                                   bounds, UNIVERSE, assume_linearizable=True)
        if misses:
            assert v.status is Status.VIOLATED
            assert v.summary == (f"{len(misses)} client projections unreproduced; "
                                 f"first: {misses[0]!r}")
        else:
            assert v.status is Status.HOLDS_AT_BOUNDS
        verdicts.add(v.status)
    assert Status.VIOLATED in verdicts


def _hypothesis_case(name: str, spec: bool):
    """(check, arguments, keyword arguments) of an abstraction check whose
    hypothesis ``name`` fails: the client faults, the library is not
    linearized, or (with the linearizability hypothesis skipped) the
    composition faults."""
    client, lib1, initial1, bounds = (corpus.push_pop_client(), corpus.mini_stack(),
                                      corpus.MINI_INITIAL, SMALL)
    lib2, initial2, kwargs = corpus.mini_stack(), corpus.MINI_INITIAL, {}
    if name == "client":
        client = UNSAFE_CLIENT
    elif name == "linearizability hypothesis":
        lib1, lib2, bounds = corpus.plain_stack(), corpus.plain_queue(), corpus.SEQUENTIAL_BOUNDS
        initial1 = initial2 = corpus.PLAIN_INITIAL
    else:
        lib1, kwargs = UNSAFE_LIB, {"assume_linearizable": True}
    if spec:
        return (abstraction_check_spec, (client, GAMMA, corpus.CLIENT_INITIAL, lib1, initial1,
                                         interf(lib2, GAMMA, initial2, bounds), bounds,
                                         UNIVERSE), kwargs)
    return (abstraction_check_code, (client, GAMMA, corpus.CLIENT_INITIAL, lib1, initial1,
                                     lib2, initial2, bounds, UNIVERSE), kwargs)


@pytest.mark.parametrize("spec", [False, True], ids=["code", "spec"])
@pytest.mark.parametrize("name", ["client", "linearizability hypothesis", "composition unsafe"])
def test_abstraction_check_hypothesis_failures(name, spec):
    check, args, kwargs = _hypothesis_case(name, spec)
    v = check(*args, **kwargs)
    assert v.status is Status.HYPOTHESIS_FAILED
    assert v.exit_code == 2
    assert v.summary.startswith(f"{name}: "), v.summary


def _check_with(check, initial=corpus.CLIENT_INITIAL, initial1=corpus.MINI_INITIAL,
                initial2=corpus.MINI_INITIAL, hset2=None, **kwargs):
    """The verdict of ``check``, named, on the mini stack against itself, with
    the push-pop client for the abstraction checks; the abstract interface
    set is ``hset2``, by default the one from ``initial2``."""
    lib, client = corpus.mini_stack(), corpus.push_pop_client()
    if hset2 is None:
        hset2 = interf(lib, GAMMA, initial2, BOUNDS)
    fn, args = {
        "check_lin_code": (check_lin_code, (lib, GAMMA, initial1, lib, initial2)),
        "check_lin_interface_set": (check_lin_interface_set, (lib, GAMMA, initial1, hset2)),
        "abstraction_check_code": (abstraction_check_code,
                                   (client, GAMMA, initial, lib, initial1, lib, initial2)),
        "abstraction_check_spec": (abstraction_check_spec,
                                   (client, GAMMA, initial, lib, initial1, hset2)),
    }[check]
    return fn(*args, BOUNDS, UNIVERSE, **kwargs)


@pytest.mark.parametrize("check,empty", [
    ("check_lin_code", "initial1"), ("check_lin_interface_set", "initial1"),
    ("abstraction_check_code", "initial"), ("abstraction_check_code", "initial1"),
    ("abstraction_check_spec", "initial"), ("abstraction_check_spec", "initial1"),
])
def test_an_empty_checked_initial_set_fails_the_hypothesis(check, empty):
    # over no initial state every behaviour would be reproduced vacuously
    assert _check_with(check).status is Status.HOLDS_AT_BOUNDS
    v = _check_with(check, **{empty: frozenset()})
    assert v.status is Status.HYPOTHESIS_FAILED
    assert v.summary == f"{empty} holds no initial state, so every check would pass vacuously"


@pytest.mark.parametrize("check,status,prefix", [
    ("check_lin_code", Status.VIOLATED, ""),
    ("check_lin_interface_set", Status.VIOLATED, ""),
    ("abstraction_check_code", Status.HYPOTHESIS_FAILED, "linearizability hypothesis: "),
    ("abstraction_check_spec", Status.HYPOTHESIS_FAILED, "linearizability hypothesis: "),
])
def test_an_empty_abstract_initial_set_reproduces_nothing(check, status, prefix):
    n = len(interf(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL, BOUNDS))
    v = _check_with(check, initial2=frozenset())
    assert v.status is status
    assert v.summary == f"{prefix}{n} behaviours not reproduced; first: {{4,5}} ()"


PI_INITIAL = frozenset({ram_pi({})})
# an empty history, which the client also has, and one that no RAM trace has
PI_SPEC = interface_set([BalancedHistory(ram_pi_foot({}), ())])
PI_SPEC_UNMATCHED = interface_set([BalancedHistory(
    ram_pi_foot({}), (call(1, "push", ram_pi({})), ret(1, "push", ram_pi({}))))])


@pytest.mark.parametrize("check, hset2, kwargs, summary", [
    ("check_lin_interface_set", PI_SPEC, {}, "mixed algebras: ram vs ram_pi"),
    ("abstraction_check_spec", PI_SPEC, {},
     "linearizability hypothesis: mixed algebras: ram vs ram_pi"),
    ("abstraction_check_spec", PI_SPEC, {"assume_linearizable": True},
     "composition unsafe: mixed algebras: ram vs ram_pi"),
    ("abstraction_check_spec", PI_SPEC_UNMATCHED, {"assume_linearizable": True},
     "composition unsafe: mixed algebras: ram vs ram_pi"),
    # the code variants, over a RAM_PI abstract initial set (they read no set)
    ("check_lin_code", PI_SPEC, {}, "mixed algebras: ram_pi vs ram"),
    ("abstraction_check_code", PI_SPEC, {},
     "linearizability hypothesis: mixed algebras: ram_pi vs ram"),
    ("abstraction_check_code", PI_SPEC, {"assume_linearizable": True},
     "composition unsafe: mixed algebras: ram vs ram_pi"),
], ids=["lin-spec", "abs-spec", "abs-spec-assumed", "abs-spec-assumed-unmatched", "lin-code",
        "abs-code", "abs-code-assumed"])
def test_an_abstract_side_over_another_algebra_fails_the_hypothesis(check, hset2, kwargs,
                                                                    summary):
    v = _check_with(check, initial2=PI_INITIAL, hset2=hset2, **kwargs)
    assert v.status is Status.HYPOTHESIS_FAILED
    assert v.summary == summary


@pytest.mark.parametrize("check", ["check_lin_code", "check_lin_interface_set",
                                   "abstraction_check_code", "abstraction_check_spec"])
def test_each_check_checks_the_contract_once(check, monkeypatch):
    calls = []
    check_precise = MethodSpec.check_precise
    monkeypatch.setattr(MethodSpec, "check_precise",
                        lambda self, universe: calls.append(self) or check_precise(self, universe))
    assert _check_with(check).status is Status.HOLDS_AT_BOUNDS
    assert calls == [GAMMA]


def test_when_both_libraries_fault_the_concrete_fault_is_reported():
    # UNSAFE_LIB faults from every initial state: the state named is lib1's
    empty = frozenset({ram({})})
    for initial1, initial2, state in [(corpus.MINI_INITIAL, empty, "[4:0, 5:0]"),
                                      (empty, corpus.MINI_INITIAL, "[]")]:
        v = check_lin_code(UNSAFE_LIB, GAMMA, initial1, UNSAFE_LIB, initial2, SMALL, UNIVERSE)
        assert v.summary == f"library faults at {state}"
        v = abstraction_check_code(corpus.push_pop_client(), GAMMA, corpus.CLIENT_INITIAL,
                                   UNSAFE_LIB, initial1, UNSAFE_LIB, initial2, SMALL, UNIVERSE)
        assert v.summary == f"linearizability hypothesis: library faults at {state}"


def test_verdicts_are_reproducible():
    v1 = check_lin_code(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL,
                        corpus.mini_stack(), corpus.MINI_INITIAL, SMALL, UNIVERSE)
    v2 = check_lin_code(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL,
                        corpus.mini_stack(), corpus.MINI_INITIAL, SMALL, UNIVERSE)
    assert v1 == v2
    assert v1.as_dict() == v2.as_dict()


UNCOVERED = Bounds(star_unroll=1, mgc_iters=1, mgc_threads=3, max_trace_len=6)


def test_contract_not_covering_a_thread_fails_the_hypothesis():
    # gamma_val has predicates for threads 1 and 2 only
    v = check_lin_code(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL,
                       corpus.mini_stack(), corpus.MINI_INITIAL, UNCOVERED, UNIVERSE)
    assert v.status is Status.HYPOTHESIS_FAILED
    assert "'pop'" in v.summary and "thread 3" in v.summary
    hs = interf(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL, SMALL)
    v = check_lin_interface_set(corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL,
                                hs, UNCOVERED, UNIVERSE)
    assert v.status is Status.HYPOTHESIS_FAILED
    assert "'pop'" in v.summary and "thread 3" in v.summary


_FIRST_MISS = """
from ownlin import corpus, history
from ownlin.checker import abstraction_check_spec
from ownlin.history import Kind
from ownlin.lang import Bounds
from ownlin.semantics import interf
b = Bounds(1, 1, 2, 8)
g = corpus.gamma_val()
spec = interf(corpus.mini_stack(), g, corpus.MINI_INITIAL, b)
pruned = history.interface_set(e for e in spec.entries
                               if not any(a.kind is Kind.RET for a in e.history))
v = abstraction_check_spec(corpus.push_pop_client(), g, corpus.CLIENT_INITIAL,
                           corpus.mini_stack_slow(), corpus.MINI_INITIAL, pruned, b,
                           corpus.CORPUS_UNIVERSE, assume_linearizable=True)
print(v.status.value, v.summary)
"""


def test_abstraction_check_spec_first_miss_ignores_hash_seed():
    import os
    import subprocess
    import sys
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    out = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        r = subprocess.run([sys.executable, "-c", _FIRST_MISS], env=env,
                           capture_output=True, text=True, check=True)
        out.append(r.stdout)
    assert out[0].startswith("violated")
    assert out[0] == out[1]
