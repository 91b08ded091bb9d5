import pytest

from ownlin import (
    Algebra,
    ClientLocal,
    Complete,
    LibraryLocal,
    ParamPredicate,
    UnsafeComponentError,
    compose_decompose_check,
    corpus,
    delta,
    eval_action,
    eval_program,
    eval_trace,
    interf,
    is_balanced,
    ram,
)
from ownlin.history import InterfaceAction, Kind
from ownlin.lang import (
    Bounds,
    CallMethod,
    ClientProgram,
    CmdAction,
    PlainCall,
    PlainRet,
    Prim,
    Program,
    SKIP,
    TOP,
    assume,
    library,
    method_spec,
    seq,
    store,
)
from ownlin.semantics import (
    _mgc_tries,
    all_covers,
    client_of,
    denote_client,
    equivalence_key,
    ground,
    history_of,
    library_trace_member,
)

from helpers import (
    compose_decompose_oracle,
    cover,
    drop_last_command,
    drop_transfer,
    equivalent_oracle,
    extra_cell,
    lib_of,
    two_phase_trace_member,
)

THREADS = (1, 2)


def _gamma(pre_states, post_states):
    return method_spec({"m": (
        ParamPredicate.from_fn(lambda t: pre_states, THREADS),
        ParamPredicate.from_fn(lambda t: post_states, THREADS),
    )})


GAMMA_10 = _gamma([ram({10: 0})], [ram({10: 0})])


def test_library_call_receives_precondition_state():
    out = eval_action(LibraryLocal(GAMMA_10), PlainCall(1, "m"), ram({}))
    assert out == ((ram({10: 0}),
                    InterfaceAction(1, Kind.CALL, "m", ram({10: 0}))),)


def test_library_ret_gives_up_postcondition_piece():
    out = eval_action(LibraryLocal(GAMMA_10), PlainRet(1, "m"), ram({10: 0, 1: 2}))
    assert out == ((ram({1: 2}),
                    InterfaceAction(1, Kind.RET, "m", ram({10: 0}))),)


def test_library_ret_faults_without_the_piece():
    assert eval_action(LibraryLocal(GAMMA_10), PlainRet(1, "m"), ram({1: 2})) is TOP


def test_client_call_is_the_mirror_image():
    out = eval_action(ClientLocal(GAMMA_10), PlainCall(1, "m"), ram({10: 0, 1: 2}))
    assert out == ((ram({1: 2}),
                    InterfaceAction(1, Kind.CALL, "m", ram({10: 0}))),)
    assert eval_action(ClientLocal(GAMMA_10), PlainCall(1, "m"), ram({})) is TOP
    back = eval_action(ClientLocal(GAMMA_10), PlainRet(1, "m"), ram({}))
    assert back == ((ram({10: 0}),
                     InterfaceAction(1, Kind.RET, "m", ram({10: 0}))),)


def test_complete_mode_leaves_calls_unannotated():
    s = ram({1: 1})
    assert eval_action(Complete(), PlainCall(1, "m"), s) == ((s, PlainCall(1, "m")),)
    assert eval_action(Complete(), PlainRet(1, "m"), s) == ((s, PlainRet(1, "m")),)


def test_eval_trace_base_cases():
    s = ram({1: 1})
    r = eval_trace(Complete(), (), s)
    assert not r.faulted and r.outcomes == frozenset({(s, ())})
    r = eval_trace(Complete(), (CmdAction(1, assume(0)),), s)
    assert not r.faulted and r.outcomes == frozenset()
    r = eval_trace(Complete(), (CmdAction(1, store(1, 7)),), ram({}))
    assert r.faulted


def test_eval_program_trivial_library_safe():
    prog = Program(Algebra.RAM, library=corpus.trivial_library(),
                   gamma=corpus.gamma_trivial(),
                   bounds=Bounds(1, 1, 1, 6))
    d = eval_program(prog, ram({}))
    assert not d.faulted
    full = (InterfaceAction(1, Kind.CALL, "nop", ram({})),
            CmdAction(1, assume(1)),
            InterfaceAction(1, Kind.RET, "nop", ram({})))
    assert full in d.traces


def test_eval_program_unowned_write_is_unsafe():
    lib = library({"m": Prim(store(5, 1))})
    gamma = _gamma([ram({})], [ram({})])
    gamma = method_spec({"m": (gamma.pre("m"), gamma.post("m"))})
    prog = Program(Algebra.RAM, library=lib, gamma=gamma, bounds=Bounds(1, 1, 1, 6))
    assert eval_program(prog, ram({})).faulted
    assert not eval_program(prog, ram({5: 0})).faulted


def test_client_violating_the_contract_faults():
    client = ClientProgram((CallMethod("m"),))
    prog = Program(Algebra.RAM, client=client, gamma=GAMMA_10, bounds=Bounds(1, 1, 1, 6))
    # the client does not own cell 10, so the call cannot transfer it
    assert eval_program(prog, ram({})).faulted
    assert not eval_program(prog, ram({10: 0})).faulted


def test_interf_entries_are_balanced():
    hs = interf(corpus.mini_stack(), corpus.gamma_val(), corpus.MINI_INITIAL,
                Bounds(1, 1, 2, 8))
    assert len(hs) > 0
    for entry in hs.entries:
        assert is_balanced(entry.history, entry.initial)
    sigma0 = next(iter(corpus.MINI_INITIAL))
    assert all(e.initial == delta(sigma0) for e in hs.entries)


def test_interf_refuses_unsafe_library():
    lib = library({"m": Prim(store(9, 1))})
    with pytest.raises(UnsafeComponentError):
        interf(lib, _gamma([ram({})], [ram({})]), [ram({})], Bounds(1, 1, 1, 6))


def test_projections_partition_commands():
    tau = (PlainCall(1, "m"), CmdAction(1, SKIP), CmdAction(2, SKIP),
           PlainRet(1, "m"), CmdAction(1, SKIP))
    c = client_of(tau)
    l = lib_of(tau)
    assert CmdAction(2, SKIP) in c and CmdAction(2, SKIP) not in l
    assert CmdAction(1, SKIP) in l  # the one inside the method
    assert c[-1] == CmdAction(1, SKIP)  # the one after the return
    assert [a for a in c if isinstance(a, (PlainCall, PlainRet))] == \
        [PlainCall(1, "m"), PlainRet(1, "m")]


def test_equivalence_key_matches_pairwise_oracle():
    d = denote_client(corpus.push_pop_client(), corpus.gamma_val(),
                      next(iter(corpus.CLIENT_INITIAL)), Bounds(1, 1, 2, 6))
    traces = sorted(d.traces | {ground(t) for t in d.traces}, key=lambda t: (len(t), repr(t)))
    keys = [equivalence_key(t) for t in traces]
    for a, ka in zip(traces, keys):
        for b, kb in zip(traces, keys):
            assert (ka == kb) == equivalent_oracle(a, b), (a, b)
    assert len(set(keys)) < len(traces)  # some distinct traces are equivalent


def test_cover_and_all_covers():
    psi_c = InterfaceAction(1, Kind.CALL, "m", ram({10: 0}))
    psi_r = InterfaceAction(1, Kind.RET, "m", ram({10: 0}))
    kappa = (CmdAction(2, SKIP), psi_c, psi_r)
    lam = (psi_c, CmdAction(1, SKIP), psi_r)
    covers = set(all_covers(kappa, lam))
    assert (CmdAction(2, SKIP), PlainCall(1, "m"), CmdAction(1, SKIP),
            PlainRet(1, "m")) in covers
    for t in covers:
        assert cover(t, kappa, lam)
    assert ground(kappa) == (CmdAction(2, SKIP), PlainCall(1, "m"), PlainRet(1, "m"))
    assert history_of(lam) == (psi_c, psi_r)


_MINI_CLIENT = ClientProgram((seq(CallMethod("push"), CallMethod("pop")),))
_CRITERION_06 = Bounds(star_unroll=1, mgc_iters=2, mgc_threads=2, max_trace_len=12)


def test_compose_decompose_trivial():
    report = compose_decompose_check(
        corpus.one_command_client(), corpus.trivial_library(), corpus.gamma_trivial(),
        [ram({1: 0})], [ram({})], Bounds(1, 1, 1, 8))
    assert report.passed, report.counterexamples[:3]


@pytest.mark.parametrize("initial_client,initial_lib,name", (
    (frozenset(), corpus.MINI_INITIAL, "initial_client"),
    (corpus.CLIENT_INITIAL, frozenset(), "initial_lib"),
    (frozenset(), frozenset(), "initial_client"),
), ids=("client", "library", "both"))
def test_compose_decompose_refuses_an_empty_initial_set(initial_client, initial_lib, name):
    # with either side empty, both sides of the lemma's equation are empty
    with pytest.raises(ValueError, match=f"^{name} holds no initial state, so every check "
                                         "would pass vacuously$"):
        compose_decompose_check(corpus.push_pop_client(), corpus.mini_stack(),
                                corpus.gamma_val(), initial_client, initial_lib,
                                Bounds(1, 1, 2, 6))


def test_compose_decompose_mini_stack():
    report = compose_decompose_check(
        _MINI_CLIENT, corpus.mini_stack(), corpus.gamma_val(),
        [ram({1: 7})], corpus.MINI_INITIAL, Bounds(1, 2, 1, 12))
    assert report.passed, report.counterexamples[:3]


def test_compose_decompose_detects_mutant():
    report = compose_decompose_check(
        _MINI_CLIENT, corpus.mini_stack(), corpus.gamma_val(),
        [ram({1: 7})], corpus.MINI_INITIAL, Bounds(1, 1, 1, 12),
        library_transform=drop_transfer)
    assert not report.passed


# name: (client, library, gamma, client initial, library initial, bounds,
#        library transform, the laws it violates)
_LEMMA_CASES = {
    "trivial": (corpus.one_command_client(), corpus.trivial_library(),
                corpus.gamma_trivial(), [ram({1: 0})], [ram({})], _CRITERION_06, None, set()),
    "mini stack": (_MINI_CLIENT, corpus.mini_stack(), corpus.gamma_val(),
                   [ram({1: 7})], corpus.MINI_INITIAL, _CRITERION_06, None, set()),
    "lock stack": (corpus.push_pop_client(), corpus.lock_stack(), corpus.gamma_val(),
                   corpus.CLIENT_INITIAL, corpus.LOCK_STACK_INITIAL, _CRITERION_06, None, set()),
    "extra cell": (corpus.push_pop_client(), corpus.mini_stack(), corpus.gamma_val(),
                   corpus.CLIENT_INITIAL, corpus.MINI_INITIAL, Bounds(1, 1, 2, 10),
                   extra_cell, {"compose", "decompose"}),
    "drop transfer": (_MINI_CLIENT, corpus.mini_stack(), corpus.gamma_val(),
                      [ram({1: 7})], corpus.MINI_INITIAL, Bounds(1, 1, 1, 12),
                      drop_transfer, {"decompose"}),
    "drop last command": (_MINI_CLIENT, corpus.mini_stack(), corpus.gamma_val(),
                          [ram({1: 7})], corpus.MINI_INITIAL, Bounds(1, 1, 1, 12),
                          drop_last_command, {"compose", "decompose"}),
}


@pytest.mark.parametrize("name", list(_LEMMA_CASES))
def test_compose_decompose_agrees_with_the_two_searches(name):
    client, lib, gamma, i0, i1, bounds, transform, laws = _LEMMA_CASES[name]
    got = compose_decompose_check(client, lib, gamma, i0, i1, bounds,
                                  library_transform=transform)
    want = compose_decompose_oracle(client, lib, gamma, i0, i1, bounds,
                                    library_transform=transform)
    assert got.passed == want.passed == (not laws)
    assert {ce.law for ce in got.counterexamples} == {ce.law for ce in want.counterexamples} \
        == laws


_EXTRA_CELL_REPORT = """
from helpers import extra_cell
from ownlin import corpus
from ownlin.lang import Bounds
from ownlin.semantics import compose_decompose_check
r = compose_decompose_check(corpus.push_pop_client(), corpus.mini_stack(), corpus.gamma_val(),
                            corpus.CLIENT_INITIAL, corpus.MINI_INITIAL, Bounds(1, 1, 2, 10),
                            library_transform=extra_cell)
print(repr(r.counterexamples))
"""


def test_compose_decompose_counterexamples_ignore_hash_seed():
    import os
    import subprocess
    import sys
    here = os.path.dirname(__file__)
    path = os.pathsep.join([os.path.join(here, "..", "src"), here])
    out = []
    for seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        r = subprocess.run([sys.executable, "-c", _EXTRA_CELL_REPORT], env=env,
                           capture_output=True, text=True, check=True)
        out.append(r.stdout)
    assert "compose" in out[0] and "decompose" in out[0]
    assert out[0] == out[1]


def test_projections_cover_complete_traces():
    lib = corpus.mini_stack()
    client = ClientProgram((CallMethod("push"), CallMethod("pop")))
    from ownlin.semantics import denote_complete
    from ownlin.algebra import star
    sigma = star(ram({1: 7, 2: 0}), next(iter(corpus.MINI_INITIAL)))
    d = denote_complete(lib, client, sigma, Bounds(1, 1, 2, 10))
    assert not d.faulted
    for tau in d.traces:
        c, l = client_of(tau), lib_of(tau)
        assert cover(tau, c, l)
        cmds = [a for a in tau if isinstance(a, CmdAction)]
        assert sorted(map(repr, cmds)) == sorted(
            map(repr, [a for a in c if isinstance(a, CmdAction)]
                + [a for a in l if isinstance(a, CmdAction)]))


def test_evaluation_preserves_predicted_footprints():
    # the footprint of every reachable state equals the initial footprint
    # pushed through the history so far; internal commands change nothing
    lib = corpus.mini_stack()
    sigma0 = next(iter(corpus.MINI_INITIAL))
    from ownlin.semantics import denote_library
    from ownlin.history import evaluate_footprint as foot_eval
    d = denote_library(lib, corpus.gamma_val(), sigma0, Bounds(1, 1, 2, 8))
    for tau in d.traces:
        r = eval_trace(LibraryLocal(corpus.gamma_val()),
                       tuple(map(_ground_action, tau)), sigma0)
        assert not r.faulted
        for final_state, ann in r.outcomes:
            assert delta(final_state) == foot_eval(history_of(ann), delta(sigma0))


def _ground_action(a):
    from ownlin.semantics import ground_action
    return ground_action(a)


def test_library_trace_member():
    g = corpus.gamma_trivial()
    lib = corpus.trivial_library()
    b = Bounds(1, 1, 1, 6)
    tau = (InterfaceAction(1, Kind.CALL, "nop", ram({})),
           CmdAction(1, assume(1)),
           InterfaceAction(1, Kind.RET, "nop", ram({})))
    assert library_trace_member(lib, g, ram({}), tau, b)
    wrong = (InterfaceAction(1, Kind.CALL, "nop", ram({3: 3})),)
    assert not library_trace_member(lib, g, ram({}), wrong, b)
    assert not library_trace_member(lib, g, ram({}), tau + tau, b)


def test_membership_follows_only_the_branch_the_trace_takes():
    # the call may bring in cell 1 or cell 2, and the method stores to cell 1:
    # the library is unsafe, since the branch that brought in cell 2 faults.
    # Membership is defined for components safe from the state; on this one
    # the trace of the safe branch is a member, though evaluating every
    # branch of its ground trace at once meets the fault
    pieces = ParamPredicate.from_fn(lambda t: [ram({1: 0}), ram({2: 0})], (1,))
    gamma = method_spec({"m": (pieces, pieces)})
    lib = library({"m": Prim(store(1, 5))})
    b = Bounds(0, 1, 1, 4)
    tau = (InterfaceAction(1, Kind.CALL, "m", ram({1: 0})), CmdAction(1, store(1, 5)))
    with pytest.raises(UnsafeComponentError):
        interf(lib, gamma, [ram({})], b)
    assert library_trace_member(lib, gamma, ram({}), tau, b)
    assert not two_phase_trace_member(LibraryLocal(gamma), _mgc_tries(lib, b), ram({}), tau, b)
    faulting = (InterfaceAction(1, Kind.CALL, "m", ram({2: 0})), CmdAction(1, store(1, 5)))
    assert not library_trace_member(lib, gamma, ram({}), faulting, b)
