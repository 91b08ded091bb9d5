import itertools
from collections import Counter

import pytest

from helpers import framed_witness_oracle
from ownlin import corpus, frame, ram, semantics, star
from ownlin.algebra import star_set
from ownlin.frame import (
    Hypothesis4Witness,
    SplitViolation,
    ceil_action,
    ceil_history,
    check_framed_state_preserved,
    extends,
    extra_eval,
    floor_action,
    floor_trace,
    frame_check,
)
from ownlin.history import InterfaceAction, call, ret
from ownlin.lang import TID, TOP, Bounds, Prim, library, method_spec, store
from ownlin.semantics import (
    UnsafeComponentError,
    _history_trie,
    denote_library,
    history_of,
    library_trace_member,
)

GAMMA = corpus.gamma_val()
GAMMA_OBJ = corpus.gamma_obj()
UNIVERSE = corpus.CORPUS_UNIVERSE
BOUNDS = corpus.DEFAULT_BOUNDS


def test_extends_reflexive_and_strict():
    assert extends(GAMMA, GAMMA, UNIVERSE)
    assert extends(GAMMA_OBJ, GAMMA, UNIVERSE)
    assert not extends(GAMMA, GAMMA_OBJ, UNIVERSE)


def test_extends_requires_same_methods():
    with pytest.raises(ValueError):
        extends(GAMMA, corpus.gamma_trivial(), UNIVERSE)


def test_extends_names_the_methods_only_one_contract_has():
    push_only = method_spec({"push": (GAMMA_OBJ.pre("push"), GAMMA_OBJ.post("push"))})
    with pytest.raises(ValueError) as exc:
        extends(push_only, GAMMA, UNIVERSE)
    assert str(exc.value) == "method sets differ: 'pop' only in the base contract"
    with pytest.raises(ValueError) as exc:
        extends(corpus.gamma_trivial(), GAMMA, UNIVERSE)
    assert str(exc.value) == ("method sets differ: 'nop' only in the extended contract, "
                              "'pop' only in the base contract, 'push' only in the base contract")


def test_floor_and_ceil_split_and_recompose():
    psi = call(1, "push", ram({1: 7, 7: 1}))
    lo = floor_action(psi, GAMMA)
    hi = ceil_action(psi, GAMMA)
    assert lo.transferred == ram({1: 7})
    assert hi.transferred == ram({7: 1})
    assert star(lo.transferred, hi.transferred) == psi.transferred


def test_floor_ceil_with_equal_contracts_gives_unit_extra():
    psi = call(1, "push", ram({1: 7}))
    assert ceil_action(psi, GAMMA).transferred == ram({})
    assert floor_action(psi, GAMMA).transferred == psi.transferred


def test_non_splitting_state_is_a_violation():
    with pytest.raises(SplitViolation):
        floor_action(call(1, "push", ram({7: 1})), GAMMA)


def test_extra_eval_clauses():
    sigma = ram({9: 9})
    assert extra_eval((), sigma) == sigma
    h = (call(1, "m", ram({7: 1})), ret(1, "m", ram({7: 1})))
    assert extra_eval(h, sigma) == sigma
    assert extra_eval((ret(1, "m", ram({7: 1})),), sigma) is TOP
    # modified extra state does not subtract
    bad = (call(1, "m", ram({7: 1})), ret(1, "m", ram({7: 0})))
    assert extra_eval(bad, sigma) is TOP


def _extended_traces(lib):
    sigma0 = next(iter(corpus.MINI_INITIAL))
    return sigma0, denote_library(lib, GAMMA_OBJ, sigma0, BOUNDS)


def test_floor_of_extended_traces_in_base_denotation():
    # traces whose extra-state fold stays defined project into the base world
    lib = corpus.mini_stack()
    sigma0, d = _extended_traces(lib)
    sample = sorted(d.traces, key=lambda t: (len(t), repr(t)))[::197]
    assert sample
    for tau in sample:
        if extra_eval(ceil_history(history_of(tau), GAMMA), ram({})) is TOP:
            continue
        base = floor_trace(tau, GAMMA)
        assert library_trace_member(lib, GAMMA, sigma0, base, BOUNDS)


def test_extended_traces_reevaluate_under_extended_contract():
    lib = corpus.mini_stack()
    sigma0, d = _extended_traces(lib)
    sample = sorted(d.traces, key=lambda t: (len(t), repr(t)))[::197]
    for tau in sample:
        assert library_trace_member(lib, GAMMA_OBJ, sigma0, tau, BOUNDS)


def test_framed_state_preserved_for_clean_stack():
    witness = check_framed_state_preserved(
        corpus.mini_stack(), GAMMA, GAMMA_OBJ,
        corpus.MINI_INITIAL, corpus.EXTRA_INITIAL_EMPTY, BOUNDS)
    assert witness is None


def test_framed_state_violated_by_scribbler():
    witness = check_framed_state_preserved(
        corpus.mini_stack_scribbler(), GAMMA, GAMMA_OBJ,
        corpus.MINI_INITIAL, corpus.EXTRA_INITIAL_EMPTY, BOUNDS)
    assert witness is not None
    assert extra_eval(witness.failing_prefix, witness.initial_extra) is TOP


def test_frame_check_positive():
    report = frame_check(corpus.mini_stack_slow(), corpus.mini_stack(),
                         GAMMA, GAMMA_OBJ,
                         corpus.MINI_INITIAL, corpus.MINI_INITIAL,
                         corpus.EXTRA_INITIAL_EMPTY, BOUNDS, UNIVERSE)
    assert report.status == "holds-at-bounds"
    assert report.hypothesis4_ok
    assert report.base_lin is not None and report.base_lin.holds
    assert report.direct_check is not None and report.direct_check.holds


def test_frame_check_scribbler_fails_hypotheses():
    report = frame_check(corpus.mini_stack_scribbler(), corpus.mini_stack(),
                         GAMMA, GAMMA_OBJ,
                         corpus.MINI_INITIAL, corpus.MINI_INITIAL,
                         corpus.EXTRA_INITIAL_EMPTY, BOUNDS, UNIVERSE)
    assert report.status == "hypothesis-failed"
    assert not report.hypothesis4_ok
    assert report.hypothesis4_witness is not None
    # writing into transferred blocks also breaks base-contract safety
    assert ("lib1:base", False) in report.safety


@pytest.mark.parametrize("lib1", [corpus.mini_stack_scribbler(), corpus.mini_stack_slow()],
                         ids=["scribbler", "slow"])
@pytest.mark.parametrize("empty", ["initial1", "initial_extra"])
def test_frame_check_rejects_an_empty_checked_initial_set(lib1, empty):
    # over no initial state every hypothesis would hold vacuously
    sets = {"initial1": corpus.MINI_INITIAL, "initial_extra": corpus.EXTRA_INITIAL_EMPTY,
            empty: frozenset()}
    with pytest.raises(ValueError, match=f"^{empty} holds no initial state, so every check "
                                         "would pass vacuously$"):
        frame_check(lib1, corpus.mini_stack(), GAMMA, GAMMA_OBJ, sets["initial1"],
                    corpus.MINI_INITIAL, sets["initial_extra"], BOUNDS, UNIVERSE)


def test_frame_check_rejects_a_contract_not_covering_a_thread():
    with pytest.raises(ValueError, match="thread 3"):
        frame_check(corpus.mini_stack_slow(), corpus.mini_stack(), GAMMA, GAMMA_OBJ,
                    corpus.MINI_INITIAL, corpus.MINI_INITIAL, corpus.EXTRA_INITIAL_EMPTY,
                    Bounds(1, 1, 3, 6), UNIVERSE)


# pushes write to a cell no one owns, so it faults under every contract
_FAULTING = library({"push": Prim(store(9, 0)), "pop": Prim(store(TID, 0))})
_PRESERVATION_CASES = list(itertools.product(
    [("mini_stack", corpus.mini_stack()), ("mini_stack_slow", corpus.mini_stack_slow()),
     ("mini_stack_scribbler", corpus.mini_stack_scribbler()), ("faulting", _FAULTING)],
    [("val/obj", GAMMA, GAMMA_OBJ), ("obj/val", GAMMA_OBJ, GAMMA)],
    # the scribbler first fails at length 10; at 12 its failing trace has
    # extensions within the cap, which the restricted walk must not report
    [Bounds(1, 1, 2, 8), Bounds(1, 1, 2, 10), Bounds(1, 2, 2, 8), Bounds(1, 1, 2, 12)],
))


def _preservation_outcome(check, lib, gamma, gamma_ext, bounds):
    """The witness, or the raised exception's type, message, trace and action."""
    try:
        return check(lib, gamma, gamma_ext, corpus.MINI_INITIAL,
                     corpus.EXTRA_INITIAL_EMPTY, bounds)
    except (SplitViolation, UnsafeComponentError) as e:
        return (type(e), str(e), getattr(e, "fault_trace", None), getattr(e, "action", None))


@pytest.fixture(scope="module")
def preservation_outcomes():
    return [(_preservation_outcome(check_framed_state_preserved, lib, g, gx, b),
             _preservation_outcome(framed_witness_oracle, lib, g, gx, b))
            for (_, lib), (_, g, gx), b in _PRESERVATION_CASES]


def test_framed_state_preservation_agrees_with_the_full_walk(preservation_outcomes):
    for ((name, _), (order, _, _), b), (got, want) in zip(_PRESERVATION_CASES,
                                                          preservation_outcomes):
        assert got == want, (name, order, b)
    kinds = {got[0] if isinstance(got, tuple) else type(got)
             for got, _ in preservation_outcomes}
    # clean, failing, non-splitting and faulting cases are all covered
    assert kinds == {type(None), Hypothesis4Witness, SplitViolation, UnsafeComponentError}


def test_framed_witness_ends_at_its_failing_action(preservation_outcomes):
    witnesses = [w for w, _ in preservation_outcomes if isinstance(w, Hypothesis4Witness)]
    assert witnesses
    for w in witnesses:
        assert isinstance(w.trace[-1], InterfaceAction)
        assert w.failing_index == len(w.failing_prefix) - 1


def test_frame_check_walks_the_extended_library_once(preservation_outcomes, monkeypatch):
    # a library's histories-only walk goes through ``_history_trie``
    walks = []

    def counted_trie(lib, gamma, sigma, bounds, *args):
        walks.append((lib, gamma, sigma))
        return _history_trie(lib, gamma, sigma, bounds, *args)

    for module in (semantics, frame):
        monkeypatch.setattr(module, "_history_trie", counted_trie)
    extended = star_set(corpus.MINI_INITIAL, corpus.EXTRA_INITIAL_EMPTY)
    safe = 0
    for ((name, lib), (order, g, gx), b), (alone, oracle) in zip(_PRESERVATION_CASES,
                                                                 preservation_outcomes):
        walks.clear()
        # a fresh spec library, so that lib1's walks are told apart by identity
        lib2 = corpus.mini_stack()
        try:
            report = frame_check(lib, lib2, g, gx, corpus.MINI_INITIAL, corpus.MINI_INITIAL,
                                 corpus.EXTRA_INITIAL_EMPTY, b, UNIVERSE)
        except SplitViolation as e:
            assert alone == oracle == (SplitViolation, str(e), None, e.action), (name, order, b)
            continue
        if not dict(report.safety)["lib1:extended"]:
            assert alone[0] is UnsafeComponentError and report.hypothesis4_witness is None
            continue
        safe += 1
        assert report.hypothesis4_witness == alone == oracle, (name, order, b)
        lib1_extended = Counter(sigma for l, g2, sigma in walks if l is lib and g2 is gx)
        assert lib1_extended == Counter(extended), (name, order, b)
    assert safe
