"""The product-walk engine against the materialised trace sets.

``interf`` must equal the (footprint, history) pairs of evaluating each
trace of ``library_trace_set`` on its own, and every ``denote_*`` must give
the annotated traces of the trie rebuilt from the matching trace set and
evaluated node by node, the construction the engine replaces.
"""

import copy
from fractions import Fraction

import pytest

from ownlin import corpus, ram, ram_pi, semantics, star
from ownlin.algebra import ParamPredicate
from ownlin.footprint import delta
from ownlin.history import InterfaceAction
from ownlin.lang import (
    TID,
    TOP,
    Bounds,
    Deref,
    IntLit,
    Not,
    Prim,
    _Trie,
    client_trace_set,
    complete_trace_set,
    library,
    library_trace_set,
    method_spec,
    seq,
    store,
)
from ownlin.semantics import (
    COMPLETE,
    ClientLocal,
    LibraryLocal,
    UnsafeComponentError,
    _client_thread_tries,
    _library_thread_tries,
    _walk,
    clear_caches,
    denote_client,
    denote_complete,
    denote_library,
    eval_action,
    eval_trace,
    history_of,
    interf,
    walk_library,
)

BOUNDS = (Bounds(1, 1, 2, 6), Bounds(1, 2, 2, 7))

GAMMA = corpus.gamma_val()
GAMMA_OBJ = corpus.gamma_obj()
HALF = Fraction(1, 2)


def _cell_one(perm):
    return ParamPredicate.from_fn(lambda t: [ram_pi({1: (v, perm)}) for v in (0, 1)], (1, 2))


# a reader borrows half of cell 1 and copies it into the library's cell 2; a
# writer needs all of cell 1 and flips it.  Two readers' halves of one value
# add up to the full permission, and no writer's call composes with a reader
READ_WRITE_PI = library({"read": Prim(store(2, Deref(IntLit(1)))),
                         "write": Prim(store(1, Not(Deref(IntLit(1)))))})
GAMMA_READ_WRITE_PI = method_spec({"read": (_cell_one(HALF), _cell_one(HALF)),
                                   "write": (_cell_one(1), _cell_one(1))})

# (name, library, contract, initial states): every corpus library and the
# RAM_PI one above, all safe
LIBRARIES = (
    ("lock_stack", corpus.lock_stack(), GAMMA, corpus.LOCK_STACK_INITIAL),
    ("plain_stack", corpus.plain_stack(), GAMMA, corpus.PLAIN_INITIAL),
    ("plain_queue", corpus.plain_queue(), GAMMA, corpus.PLAIN_INITIAL),
    ("scribbler_stack", corpus.scribbler_stack(), GAMMA_OBJ, corpus.LOCK_STACK_INITIAL),
    ("mini_stack", corpus.mini_stack(), GAMMA, corpus.MINI_INITIAL),
    ("mini_stack_slow", corpus.mini_stack_slow(), GAMMA, corpus.MINI_INITIAL),
    ("mini_stack_scribbler", corpus.mini_stack_scribbler(), GAMMA_OBJ, corpus.MINI_INITIAL),
    ("trivial_library", corpus.trivial_library(), corpus.gamma_trivial(), frozenset({ram({})})),
    ("read_write_pi", READ_WRITE_PI, GAMMA_READ_WRITE_PI, frozenset({ram_pi({2: (0, 1)})})),
)

_EMPTY = ParamPredicate.from_fn(lambda t: [ram({})], (1, 2))

# libraries that fault: an unowned store, and the scribblers writing into a
# pushed object the value-passing contract does not transfer
FAULTING = (
    ("unowned_store", library({"m": Prim(store(9, 1))}), method_spec({"m": (_EMPTY, _EMPTY)}),
     frozenset({ram({})})),
    ("scribbler_stack", corpus.scribbler_stack(), GAMMA, corpus.LOCK_STACK_INITIAL),
    ("mini_stack_scribbler", corpus.mini_stack_scribbler(), GAMMA, corpus.MINI_INITIAL),
)

CLIENT_START = star(next(iter(corpus.CLIENT_INITIAL)), next(iter(corpus.MINI_INITIAL)))


def _ids(cases):
    return [c[0] for c in cases]


def _rebuilt_denotation(mode, traces, sigma):
    """(fault prefix or None, annotated traces) from the trie rebuilt from a
    materialised trace set, each node's outcomes evaluated together."""
    collected = set()

    def walk(node, outcomes, prefix):
        collected.update(ann for _, ann in outcomes)
        for action, child in node.children.items():
            nxt = set()
            for st, ann in outcomes:
                r = eval_action(mode, action, st)
                if r is TOP:
                    return prefix + (action,)
                nxt.update((st2, ann + (a2,)) for st2, a2 in r)
            fault = walk(child, nxt, prefix + (action,))
            if fault is not None:
                return fault
        return None

    fault = walk(_Trie.of(traces), {(sigma, ())}, ())
    return fault, (frozenset() if fault is not None else frozenset(collected))


def _per_trace_pairs(mode, traces, initial):
    """(footprint, history) pairs of each trace evaluated alone; ``None``
    when some trace faults."""
    pairs = set()
    for sigma in initial:
        for tau in traces:
            r = eval_trace(mode, tau, sigma)
            if r.faulted:
                return None
            pairs.update((delta(sigma), history_of(ann)) for _, ann in r.outcomes)
    return pairs


@pytest.mark.parametrize("bounds", BOUNDS, ids=str)
@pytest.mark.parametrize("name,lib,gamma,initial", LIBRARIES, ids=_ids(LIBRARIES))
def test_interf_equals_per_trace_evaluation(name, lib, gamma, initial, bounds):
    want = _per_trace_pairs(LibraryLocal(gamma), library_trace_set(lib, bounds), initial)
    assert want is not None, f"{name} faults; it belongs in FAULTING"
    got = {(e.initial, e.history) for e in interf(lib, gamma, initial, bounds).entries}
    assert got == want


@pytest.mark.parametrize("bounds", BOUNDS, ids=str)
@pytest.mark.parametrize("name,lib,gamma,initial", LIBRARIES, ids=_ids(LIBRARIES))
def test_denote_library_matches_rebuilt_trie(name, lib, gamma, initial, bounds):
    traces = library_trace_set(lib, bounds)
    for sigma in initial:
        d = denote_library(lib, gamma, sigma, bounds)
        assert (d.fault_trace, d.traces) == _rebuilt_denotation(LibraryLocal(gamma), traces, sigma)


@pytest.mark.parametrize("bounds", BOUNDS, ids=str)
def test_denote_client_matches_rebuilt_trie(bounds):
    for client, gamma, sigma in (
            (corpus.push_pop_client(), GAMMA, next(iter(corpus.CLIENT_INITIAL))),
            (corpus.push_pop_client(1), GAMMA, ram({1: 7})),
            (corpus.one_command_client(), corpus.gamma_trivial(), ram({1: 0}))):
        d = denote_client(client, gamma, sigma, bounds)
        want = _rebuilt_denotation(ClientLocal(gamma), client_trace_set(client, bounds), sigma)
        assert (d.fault_trace, d.traces) == want
        assert d.traces


@pytest.mark.parametrize("bounds", BOUNDS, ids=str)
def test_denote_complete_matches_rebuilt_trie(bounds):
    for lib, client, sigma in (
            (corpus.mini_stack(), corpus.push_pop_client(), CLIENT_START),
            (corpus.mini_stack_slow(), corpus.push_pop_client(), CLIENT_START),
            (corpus.trivial_library(), corpus.one_command_client(), ram({1: 0}))):
        d = denote_complete(lib, client, sigma, bounds)
        want = _rebuilt_denotation(COMPLETE, complete_trace_set(lib, client, bounds), sigma)
        assert (d.fault_trace, d.traces) == want
        assert d.traces


def test_visited_set_keeps_states_apart():
    # both threads write their id into cell 5 before either reads it back:
    # the two orders reach the same trie nodes with the same history but
    # different states, and only the state decides what the returns carry
    race = library({"m": seq(Prim(store(5, TID)), Prim(store(TID, Deref(IntLit(5)))))})
    gamma = method_spec({"m": (
        ParamPredicate.from_fn(lambda t: [ram({t: 0})], (1, 2)),
        ParamPredicate.from_fn(lambda t: [ram({t: 1}), ram({t: 2})], (1, 2)))})
    initial = [ram({5: 0})]
    bounds = Bounds(1, 1, 2, 8)
    want = _per_trace_pairs(LibraryLocal(gamma), library_trace_set(race, bounds), initial)
    got = {(e.initial, e.history) for e in interf(race, gamma, initial, bounds).entries}
    assert got == want


def test_visited_set_keeps_permission_states_apart():
    # the race above under fractional permissions: each call also brings
    # half of cell 6, the two threads' halves add up to the full permission,
    # and each return gives its half back
    race = library({"m": seq(Prim(store(5, TID)), Prim(store(TID, Deref(IntLit(5)))))})
    gamma = method_spec({"m": (
        ParamPredicate.from_fn(lambda t: [ram_pi({t: (0, 1), 6: (0, HALF)})], (1, 2)),
        ParamPredicate.from_fn(lambda t: [ram_pi({t: (v, 1), 6: (0, HALF)}) for v in (1, 2)],
                               (1, 2)))})
    initial = [ram_pi({5: (0, 1)})]
    bounds = Bounds(1, 1, 2, 8)
    want = _per_trace_pairs(LibraryLocal(gamma), library_trace_set(race, bounds), initial)
    got = {(e.initial, e.history) for e in interf(race, gamma, initial, bounds).entries}
    assert got == want
    assert any(len(h) == 4 for _, h in got)


def test_seen_set_keeps_annotated_histories_apart():
    # the call brings in cell t holding 0 or 1 and the method overwrites it:
    # both paths reach the same trie nodes and the same state, with histories
    # that differ only in the piece the call transferred
    lib = library({"m": Prim(store(TID, 7))})
    gamma = method_spec({"m": (
        ParamPredicate.from_fn(lambda t: [ram({t: 0}), ram({t: 1})], (1, 2)),
        ParamPredicate.from_fn(lambda t: [ram({t: 7})], (1, 2)))})
    initial = [ram({})]
    bounds = Bounds(1, 1, 2, 8)
    want = _per_trace_pairs(LibraryLocal(gamma), library_trace_set(lib, bounds), initial)
    got = {(e.initial, e.history) for e in interf(lib, gamma, initial, bounds).entries}
    assert got == want
    # one thread's call and return, for each piece the call can bring in
    completed = {h[0].transferred for _, h in got if len(h) == 2 and h[0].thread == h[1].thread}
    assert completed == {ram({1: 0}), ram({1: 1}), ram({2: 0}), ram({2: 1})}


@pytest.mark.parametrize("name,lib,gamma,initial", FAULTING, ids=_ids(FAULTING))
def test_faulting_library_is_reported_by_both_paths(name, lib, gamma, initial):
    bounds = Bounds(1, 1, 2, 8)
    mode = LibraryLocal(gamma)
    traces = library_trace_set(lib, bounds)
    (sigma,) = initial
    assert _rebuilt_denotation(mode, traces, sigma)[0] is not None
    d = denote_library(lib, gamma, sigma, bounds)
    with pytest.raises(UnsafeComponentError) as exc:
        interf(lib, gamma, initial, bounds)
    for fault in (d.fault_trace, exc.value.fault_trace):
        assert fault in traces
        assert eval_trace(mode, fault, sigma).faulted


@pytest.mark.parametrize("name,lib,gamma,initial", FAULTING, ids=_ids(FAULTING))
def test_deduplicating_walk_meets_the_full_walks_first_fault(name, lib, gamma, initial):
    bounds = Bounds(1, 2, 2, 8)
    (sigma,) = initial
    fault, _ = walk_library(lib, gamma, sigma, bounds, histories_only=True)
    assert fault is not None
    assert fault == denote_library(lib, gamma, sigma, bounds).fault_trace


@pytest.mark.parametrize("length", (1, 2, 3))
@pytest.mark.parametrize("name,lib,gamma,initial", LIBRARIES, ids=_ids(LIBRARIES))
def test_walk_along_cuts_stops_at_them(name, lib, gamma, initial, length):
    # histories of one length are prefixes of none of the others; every
    # second one leaves paths the walk must not take
    bounds = Bounds(1, 1, 2, 7)
    for sigma in initial:
        _, histories = walk_library(lib, gamma, sigma, bounds, histories_only=True)
        cuts = set(sorted((h for h in histories if len(h) == length), key=repr)[::2])
        _, got = walk_library(lib, gamma, sigma, bounds, cuts=cuts)
        want = {tau for tau in denote_library(lib, gamma, sigma, bounds).traces
                if tau and isinstance(tau[-1], InterfaceAction) and history_of(tau) in cuts}
        assert got == want
        assert bool(got) == bool(cuts)


def test_clear_caches_empties_the_bounded_caches():
    bounds = Bounds(1, 1, 2, 6)
    sigma = next(iter(corpus.MINI_INITIAL))
    denote_library(corpus.mini_stack(), GAMMA, sigma, bounds)
    denote_client(corpus.push_pop_client(), GAMMA, next(iter(corpus.CLIENT_INITIAL)), bounds)
    cached = (_library_thread_tries, _client_thread_tries)
    assert all(f.cache_info().maxsize is not None for f in cached)
    assert all(f.cache_info().currsize > 0 for f in cached)
    clear_caches()
    assert all(f.cache_info().currsize == 0 for f in cached)


def _fresh_edges(trie):
    """A copy of ``trie`` whose every edge carries an action object of its
    own, so the identity of an action names the node below it."""
    out = _Trie()
    for action, child in trie.children.items():
        out.children[copy.copy(action)] = _fresh_edges(child)
    return out


def _count_evaluations(monkeypatch):
    """Record (action identity, state) for every ``eval_action`` call."""
    calls = []

    def counted(mode, action, st):
        calls.append((id(action), st))
        return eval_action(mode, action, st)

    monkeypatch.setattr(semantics, "eval_action", counted)
    return calls


@pytest.mark.parametrize("histories_only", (True, False), ids=("histories", "traces"))
@pytest.mark.parametrize("name,lib,gamma,initial", LIBRARIES + FAULTING,
                         ids=_ids(LIBRARIES) + [f"faulting-{n}" for n in _ids(FAULTING)])
def test_walk_evaluates_each_node_and_state_once(name, lib, gamma, initial, histories_only,
                                                 monkeypatch):
    bounds = Bounds(1, 2, 2, 7)
    tries = tuple(_fresh_edges(t) for t in _library_thread_tries(lib, bounds))
    want = {sigma: walk_library(lib, gamma, sigma, bounds, histories_only=histories_only)
            for sigma in initial}
    calls = _count_evaluations(monkeypatch)
    for sigma in initial:
        calls.clear()
        got = _walk(LibraryLocal(gamma), tries, sigma, bounds.max_trace_len, histories_only)
        assert got == want[sigma]
        assert calls
        assert len(calls) == len(set(calls))


def test_memo_cuts_evaluations_of_the_lock_stack_check(monkeypatch):
    # check_lin_code's two walks, lock stack against plain stack: evaluating
    # every edge at each visit of a product node took 3,210 calls here
    bounds = Bounds(1, 2, 2, 8)
    calls = _count_evaluations(monkeypatch)
    interf(corpus.lock_stack(), GAMMA, corpus.LOCK_STACK_INITIAL, bounds)
    assert len(calls) == 386
    interf(corpus.plain_stack(), GAMMA, corpus.PLAIN_INITIAL, bounds)
    assert len(calls) == 968
