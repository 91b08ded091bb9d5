"""A contract that leaves a thread or a method uncovered is an input error at
every entry point: a hypothesis-failed verdict or a ``ValueError`` naming the
method and the thread, never a bare ``KeyError``."""

import pytest

from ownlin import corpus, ram
from ownlin.algebra import ParamPredicate, StateUniverse, predicate
from ownlin.checker import (
    Status,
    abstraction_check_code,
    abstraction_check_spec,
    check_lin_code,
    check_lin_interface_set,
)
from ownlin.frame import check_framed_state_preserved, frame_check
from ownlin.history import call, interface_set, ret
from ownlin.lang import (
    Bounds,
    CallMethod,
    ClientProgram,
    CmdAction,
    PlainCall,
    PlainRet,
    assume,
    method_spec,
)
from ownlin.semantics import (
    LibraryLocal,
    compose_decompose_check,
    eval_trace,
    interf,
    library_trace_member,
)

EMPTY = ram({})
INITIAL = frozenset({EMPTY})
LIB = corpus.trivial_library()
# three threads each call ``nop`` once; the contracts below cover threads 1 and 2
CLIENT = ClientProgram((CallMethod("nop"),) * 3)
# thread 3's call of ``nop``, whose body is one ``assume(1)``
NOP_3 = (PlainCall(3, "nop"), CmdAction(3, assume(1)), PlainRet(3, "nop"))
BOUNDS = Bounds(star_unroll=1, mgc_iters=1, mgc_threads=3, max_trace_len=8)
WIDE = StateUniverse(threads=(1, 2, 3))
ANY_THREAD = ParamPredicate(default=predicate([EMPTY]))
TWO_THREADS = ParamPredicate.from_fn(lambda t: [EMPTY], (1, 2))

UNCOVERED = "the contract of method 'nop' does not cover thread 3"
GAPS = {
    "thread": (corpus.gamma_trivial(), UNCOVERED),
    "method": (method_spec({}), "method 'nop' not in the specification"),
    "postcondition": (method_spec({"nop": (ANY_THREAD, TWO_THREADS)}), UNCOVERED),
}

ENTRY_POINTS = {
    "check_lin_code":
        lambda g: check_lin_code(LIB, g, INITIAL, LIB, INITIAL, BOUNDS),
    "check_lin_interface_set":
        lambda g: check_lin_interface_set(LIB, g, INITIAL, interface_set([]), BOUNDS),
    "abstraction_check_code":
        lambda g: abstraction_check_code(CLIENT, g, INITIAL, LIB, INITIAL, LIB, INITIAL,
                                         BOUNDS),
    "abstraction_check_spec":
        lambda g: abstraction_check_spec(CLIENT, g, INITIAL, LIB, INITIAL,
                                         interface_set([]), BOUNDS),
    "compose_decompose_check":
        lambda g: compose_decompose_check(CLIENT, LIB, g, INITIAL, INITIAL, BOUNDS),
    "frame_check_wider_universe":
        lambda g: frame_check(LIB, LIB, g, g, INITIAL, INITIAL, INITIAL,
                              Bounds(1, 1, 2, 8), WIDE),
    "check_framed_state_preserved":
        lambda g: check_framed_state_preserved(LIB, g, g, INITIAL, INITIAL, BOUNDS),
    "library_trace_member":
        lambda g: library_trace_member(LIB, g, EMPTY,
                                       (call(3, "nop", EMPTY), NOP_3[1], ret(3, "nop", EMPTY)),
                                       BOUNDS),
    "eval_trace": lambda g: eval_trace(LibraryLocal(g), NOP_3, EMPTY),
}


@pytest.mark.parametrize("entry", ENTRY_POINTS)
@pytest.mark.parametrize("gap", GAPS)
def test_an_uncovered_contract_is_refused_by_name(gap, entry):
    gamma, message = GAPS[gap]
    try:
        out = ENTRY_POINTS[entry](gamma)
    except ValueError as exc:
        text = str(exc)
    else:
        assert out.status is Status.HYPOTHESIS_FAILED
        text = out.summary
    assert message in text


def test_a_client_call_the_library_lacks_is_a_composition_error():
    # the contract covers ``frob``, so the client is safe and the library
    # linearizes itself; only composing them looks for the body
    gamma = method_spec({"nop": (ANY_THREAD, ANY_THREAD), "frob": (ANY_THREAD, ANY_THREAD)})
    client = ClientProgram((CallMethod("frob"),))
    bounds = Bounds(1, 1, 1, 8)
    with pytest.raises(ValueError, match="library has no method 'frob'"):
        LIB.body("frob")
    want = "composition unsafe: library has no method 'frob'"
    verdict = abstraction_check_code(client, gamma, INITIAL, LIB, INITIAL, LIB, INITIAL, bounds)
    assert (verdict.status, verdict.summary) == (Status.HYPOTHESIS_FAILED, want)
    verdict = abstraction_check_spec(client, gamma, INITIAL, LIB, INITIAL,
                                     interf(LIB, gamma, INITIAL, bounds), bounds)
    assert (verdict.status, verdict.summary) == (Status.HYPOTHESIS_FAILED, want)
    with pytest.raises(ValueError, match="library has no method 'frob'"):
        compose_decompose_check(client, LIB, gamma, INITIAL, INITIAL, bounds)


@pytest.mark.parametrize("empty", ["initial_base", "initial_extra"])
def test_framed_state_preservation_refuses_an_empty_initial_set(empty):
    sets = {"initial_base": corpus.MINI_INITIAL, "initial_extra": frozenset({ram({7: 0})}),
            empty: frozenset()}
    with pytest.raises(ValueError, match=f"{empty} holds no initial state"):
        check_framed_state_preserved(corpus.mini_stack_scribbler(), corpus.gamma_val(),
                                     corpus.gamma_obj(), sets["initial_base"],
                                     sets["initial_extra"], Bounds(1, 1, 2, 10))
