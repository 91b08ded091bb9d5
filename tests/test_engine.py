"""The product-walk engine against the materialised trace sets.

``interf`` must equal the (footprint, history) pairs of evaluating each
trace of ``library_trace_set`` on its own, and every ``denote_*`` must give
the annotated traces of the trie rebuilt from the matching trace set and
evaluated node by node, the construction the engine replaces.
"""

import copy
import random
from fractions import Fraction

import pytest

from helpers import interf_oracle, two_phase_trace_member
from ownlin import corpus, ram, ram_pi, semantics, star
from ownlin.algebra import Algebra, ParamPredicate, State
from ownlin.footprint import delta
from ownlin.history import BalancedHistory, InterfaceAction, Kind, call, interface_set, ret
from ownlin.lang import (
    TID,
    TOP,
    Bounds,
    CmdAction,
    Deref,
    IntLit,
    Not,
    PlainCall,
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
    _history_trie,
    _interface_set_of,
    _mgc_tries,
    _thread_tries,
    _trace_member,
    _walk,
    clear_caches,
    denote_client,
    denote_complete,
    denote_library,
    eval_action,
    eval_trace,
    history_of,
    interf,
    least_library_trace,
    trace_sort_key,
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


ALL_LIBRARIES = LIBRARIES + FAULTING
ALL_IDS = _ids(LIBRARIES) + [f"faulting-{n}" for n in _ids(FAULTING)]


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


def _history_walk(lib, gamma, sigma, bounds):
    return _walk(LibraryLocal(gamma), _mgc_tries(lib, bounds), sigma,
                 bounds.max_trace_len, histories_only=True)


@pytest.mark.parametrize("name,lib,gamma,initial", FAULTING, ids=_ids(FAULTING))
def test_deduplicating_walk_meets_the_full_walks_first_fault(name, lib, gamma, initial):
    bounds = Bounds(1, 2, 2, 8)
    (sigma,) = initial
    fault, _ = _history_walk(lib, gamma, sigma, bounds)
    assert fault is not None
    assert fault == denote_library(lib, gamma, sigma, bounds).fault_trace


def _antichain(lib, gamma, sigma, bounds, length):
    """Every second history of one length, in ``repr`` order: histories of one
    length are prefixes of none of the others, and the ones left out leave
    paths a walk along the rest must not take."""
    histories = {h for h, _ in _history_trie(lib, gamma, sigma, bounds)}
    return set(sorted((h for h in histories if len(h) == length), key=repr)[::2])


@pytest.mark.parametrize("length", (1, 2, 3))
@pytest.mark.parametrize("name,lib,gamma,initial", LIBRARIES, ids=_ids(LIBRARIES))
def test_walk_along_cuts_stops_at_them(name, lib, gamma, initial, length):
    bounds = Bounds(1, 1, 2, 7)
    for sigma in initial:
        cuts = _antichain(lib, gamma, sigma, bounds, length)
        _, got = _walk(LibraryLocal(gamma), _mgc_tries(lib, bounds), sigma,
                       bounds.max_trace_len, cuts=cuts)
        want = {tau for tau in denote_library(lib, gamma, sigma, bounds).traces
                if tau and isinstance(tau[-1], InterfaceAction) and history_of(tau) in cuts}
        assert got == want
        assert bool(got) == bool(cuts)


@pytest.mark.parametrize("bounds", BOUNDS, ids=str)
@pytest.mark.parametrize("name,lib,gamma,initial", LIBRARIES, ids=_ids(LIBRARIES))
def test_least_library_trace_is_the_least_of_the_denotation(name, lib, gamma, initial, bounds):
    for sigma in initial:
        traces = denote_library(lib, gamma, sigma, bounds).traces
        for hs in (set(), *(_antichain(lib, gamma, sigma, bounds, n) for n in (1, 2, 3))):
            want = min((t for t in traces if history_of(t) in hs), key=trace_sort_key,
                       default=None)
            assert least_library_trace(lib, gamma, sigma, bounds, hs) == want


def test_histories_walk_takes_no_cuts():
    bounds = Bounds(1, 1, 2, 6)
    tries = _mgc_tries(corpus.mini_stack(), bounds)
    sigma = next(iter(corpus.MINI_INITIAL))
    for cuts in (set(), {()}):
        with pytest.raises(ValueError, match="takes no cuts"):
            _walk(LibraryLocal(GAMMA), tries, sigma, bounds.max_trace_len, True, cuts)


def test_clear_caches_empties_the_bounded_caches():
    # one bounded cache holds the tries of a library, a client and a complete
    # program; the complete program's are built once for all initial states
    bounds = Bounds(1, 1, 2, 6)
    clear_caches()
    denote_library(corpus.mini_stack(), GAMMA, next(iter(corpus.MINI_INITIAL)), bounds)
    denote_client(corpus.push_pop_client(), GAMMA, next(iter(corpus.CLIENT_INITIAL)), bounds)
    for sigma in (CLIENT_START, star(CLIENT_START, ram({9: 0}))):
        denote_complete(corpus.mini_stack(), corpus.push_pop_client(), sigma, bounds)
    info = _thread_tries.cache_info()
    assert info.maxsize is not None
    assert (info.currsize, info.misses, info.hits) == (3, 3, 1)
    clear_caches()
    assert _thread_tries.cache_info().currsize == 0


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
@pytest.mark.parametrize("name,lib,gamma,initial", ALL_LIBRARIES, ids=ALL_IDS)
def test_walk_evaluates_each_node_and_state_once(name, lib, gamma, initial, histories_only,
                                                 monkeypatch):
    # the walk of the shared tries is the one ``least_library_trace`` and ``interf`` make
    bounds = Bounds(1, 2, 2, 7)
    cached = _mgc_tries(lib, bounds)
    tries = tuple(_fresh_edges(t) for t in cached)
    mode = LibraryLocal(gamma)
    want = {sigma: _walk(mode, cached, sigma, bounds.max_trace_len, histories_only)
            for sigma in initial}
    calls = _count_evaluations(monkeypatch)
    for sigma in initial:
        calls.clear()
        got = _walk(mode, tries, sigma, bounds.max_trace_len, histories_only)
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


@pytest.mark.parametrize("name,lib,gamma,initial", ALL_LIBRARIES, ids=ALL_IDS)
def test_history_trie_holds_each_history_once_below_its_parent(name, lib, gamma, initial):
    bounds = Bounds(1, 2, 2, 8)
    for sigma in initial:
        fault, trie = _history_walk(lib, gamma, sigma, bounds)
        full = denote_library(lib, gamma, sigma, bounds)
        # the fault prefix is the full walk's first fault
        assert fault == full.fault_trace
        if fault is not None:
            continue
        histories = [h for h, _ in trie]
        assert len(set(histories)) == len(trie)
        assert trie[0] == ((), -1)
        for i, (h, parent) in enumerate(trie[1:], 1):
            assert 0 <= parent < i and trie[parent][0] == h[:-1]
        # the histories of every annotated trace of the full walk, which the
        # histories-only walk returned as a set before it returned a trie
        assert set(histories) == {history_of(tau) for tau in full.traces}


@pytest.mark.parametrize("bounds", BOUNDS, ids=str)
@pytest.mark.parametrize("name,lib,gamma,initial", LIBRARIES, ids=_ids(LIBRARIES))
def test_interf_equals_whole_history_validation(name, lib, gamma, initial, bounds):
    got = interf(lib, gamma, initial, bounds)
    assert got == interf_oracle(lib, gamma, initial, bounds)
    for e in got.entries:
        validated = BalancedHistory(e.initial, e.history)
        assert (e, hash(e), e.sort_key(), repr(e)) == (validated, hash(validated),
                                                       validated.sort_key(), repr(validated))


# explored work at Bounds(1, 2, 2, 8), as before the history trie: distinct
# histories summed over the initial states, and interface-set entries
EXPLORED = {"lock_stack": (51, 51), "plain_stack": (327, 327), "plain_queue": (327, 327),
            "scribbler_stack": (43, 43), "mini_stack": (327, 327), "mini_stack_slow": (183, 183),
            "mini_stack_scribbler": (111, 111), "trivial_library": (81, 81),
            "read_write_pi": (933, 933)}


@pytest.mark.parametrize("name,lib,gamma,initial", LIBRARIES, ids=_ids(LIBRARIES))
def test_explored_work_is_pinned(name, lib, gamma, initial):
    bounds = Bounds(1, 2, 2, 8)
    histories = sum(len(_history_trie(lib, gamma, s, bounds)) for s in initial)
    assert (histories, len(interf(lib, gamma, initial, bounds))) == EXPLORED[name]


_C1, _C2 = call(1, "m", ram({})), call(2, "m", ram({}))
_R1, _R2 = ret(1, "m", ram({})), ret(2, "m", ram({}))


@pytest.mark.parametrize("sigma,h,error", [
    (ram({}), (_C1, _C2, _R1, _R2), None),
    (ram({}), (_C1, _C2, _R2, _C2, _R1), None),
    # a return with no call, a call while the thread's is open behind another
    # thread's action, a return of another method
    (ram({}), (_R1,), "ill-formed history"),
    (ram({}), (_C1, _C2, _C1), "ill-formed history"),
    (ram({}), (_C1, _C2, ret(1, "n", ram({}))), "ill-formed history"),
    # a return of a cell never brought in, a call bringing in a cell the
    # library already owns
    (ram({}), (_C1, ret(1, "m", ram({5: 0}))), "history not balanced"),
    (ram({5: 0}), (_C1, _R1, call(2, "m", ram({5: 1}))), "history not balanced"),
], ids=["ok", "ok-reopened", "ret-first", "call-twice", "other-method", "ret-unowned",
        "call-owned"])
def test_trie_entries_raise_what_the_constructor_raises(sigma, h, error):
    # the trie of every prefix of ``h``; only the last edge can be wrong
    trie = [(h[:i], i - 1) for i in range(len(h) + 1)]
    if error is None:
        want = interface_set(BalancedHistory(delta(sigma), p) for p, _ in trie)
        assert _interface_set_of({sigma: trie}) == want
        return
    with pytest.raises(ValueError) as constructed:
        BalancedHistory(delta(sigma), h)
    assert str(constructed.value).startswith(error)
    with pytest.raises(ValueError) as folded:
        _interface_set_of({sigma: trie})
    assert str(folded.value) == str(constructed.value)


def _on_thread(a, t):
    """``a`` as an action of thread ``t``."""
    if isinstance(a, CmdAction):
        return CmdAction(t, a.command)
    return InterfaceAction(t, a.kind, a.method, a.transferred)


def _membership_mutants(rng, tau, annotations, cap, threads):
    """One mutant of ``tau`` of each kind that applies, at a random position:
    an adjacent swap, a dropped action, a foreign annotation (another piece
    the walk transferred at that kind of action, else a cell no contract
    names), a trace over the cap, an action of thread 0 or of a thread past
    the last of ``threads``, and a plain call in place of an annotated one."""
    def at(i, a):
        return tau[:i] + (a,) + tau[i + 1:]

    n = len(tau)
    if not n:
        return
    i = rng.randrange(n)
    yield tau[:i] + tau[i + 1:]
    yield (tau * (cap + 1))[:cap + 1]
    yield at(i, _on_thread(tau[i], 0))
    yield at(i, _on_thread(tau[i], threads + 1))
    if n > 1:
        j = rng.randrange(n - 1)
        yield tau[:j] + (tau[j + 1], tau[j]) + tau[j + 2:]
    interface = [k for k, a in enumerate(tau) if isinstance(a, InterfaceAction)]
    if interface:
        a = tau[k := rng.choice(interface)]
        foreign = State(a.transferred.algebra,
                        {9: 9 if a.transferred.algebra is Algebra.RAM else (9, 1)})
        others = sorted(annotations[a.kind, a.method] - {a.transferred}, key=State.sort_key)
        yield at(k, InterfaceAction(a.thread, a.kind, a.method,
                                    rng.choice(others) if others else foreign))
    calls = [k for k in interface if tau[k].kind is Kind.CALL]
    if calls:
        k = rng.choice(calls)
        yield at(k, PlainCall(tau[k].thread, tau[k].method))


def _check_membership(mode, tries, sigma, traces, bounds, rng):
    """Both membership checks accept every trace of the denotation ``traces``
    and agree with it on each mutant of a sample of them; the mutants give
    both answers."""
    for tau in traces:
        assert _trace_member(mode, tries, sigma, tau, bounds)
        assert two_phase_trace_member(mode, tries, sigma, tau, bounds)
    annotations = {}
    for tau in traces:
        for a in tau:
            if isinstance(a, InterfaceAction):
                annotations.setdefault((a.kind, a.method), set()).add(a.transferred)
    ordered = sorted(traces, key=trace_sort_key)
    answers = set()
    for tau in rng.sample(ordered, min(len(ordered), 150)):
        for mutant in _membership_mutants(rng, tau, annotations, bounds.max_trace_len,
                                          len(tries)):
            got = _trace_member(mode, tries, sigma, mutant, bounds)
            assert got == two_phase_trace_member(mode, tries, sigma, mutant, bounds), mutant
            assert got == (mutant in traces)
            answers.add(got)
    assert answers == {True, False}


@pytest.mark.parametrize("bounds", BOUNDS, ids=str)
@pytest.mark.parametrize("name,lib,gamma,initial", LIBRARIES, ids=_ids(LIBRARIES))
def test_library_membership_agrees_with_the_two_phase_check(name, lib, gamma, initial, bounds):
    rng = random.Random(f"{name} {bounds}")
    for sigma in sorted(initial, key=State.sort_key):
        _check_membership(LibraryLocal(gamma), _mgc_tries(lib, bounds), sigma,
                          denote_library(lib, gamma, sigma, bounds).traces, bounds, rng)


@pytest.mark.parametrize("bounds", BOUNDS, ids=str)
def test_client_membership_agrees_with_the_two_phase_check(bounds):
    client, sigma = corpus.push_pop_client(), next(iter(corpus.CLIENT_INITIAL))
    _check_membership(ClientLocal(GAMMA), _thread_tries(client, None, bounds), sigma,
                      denote_client(client, GAMMA, sigma, bounds).traces, bounds,
                      random.Random(str(bounds)))
