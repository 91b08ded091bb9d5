"""Trace and program evaluation; local semantics with ownership transfer.

Three evaluation modes share one engine:

* complete   -- calls and returns are thread-local no-ops;
* library    -- a call brings in any state satisfying the method
  precondition, a return gives up the unique postcondition piece;
* client     -- the mirror image: calls give up the precondition piece,
  returns bring in any compatible postcondition state.

A fault (touching unowned memory, or being unable to transfer what the
contract demands) poisons the whole denotation for that initial state.
Infeasible branches (a false assume) simply produce no outcomes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Collection, Iterable, Iterator, Union

from .algebra import LawReport, Recorder, State, star, star_set, sub_pred
from .footprint import delta
from .history import (
    _ACTIONS,
    BalancedHistory,
    History,
    InterfaceAction,
    InterfaceSet,
    Kind,
    balance_step,
    interface_set,
)
from .lang import (
    Bounds,
    ClientProgram,
    CmdAction,
    Library,
    MethodSpec,
    PlainCall,
    PlainRet,
    Program,
    TOP,
    Trace,
    _Trie,
    _client_tries,
    is_call,
    is_interface,
    most_general_client,
    prim_step,
)


@dataclass(frozen=True)
class Complete:
    pass


@dataclass(frozen=True)
class LibraryLocal:
    gamma: MethodSpec


@dataclass(frozen=True)
class ClientLocal:
    gamma: MethodSpec


Mode = Union[Complete, LibraryLocal, ClientLocal]

COMPLETE = Complete()


class UnsafeComponentError(ValueError):
    """A component faulted from one of its initial states."""

    def __init__(self, message: str, fault_trace: Trace | None = None):
        super().__init__(message)
        self.fault_trace = fault_trace


def eval_action(mode: Mode, action, s: State):
    """Evaluate one action: ``TOP`` or a tuple of (state, annotated action)."""
    if isinstance(action, CmdAction):
        r = prim_step(action.command, action.thread, s)
        if r is TOP:
            return TOP
        return tuple((s2, action) for s2 in sorted(r, key=State.sort_key))

    if isinstance(mode, Complete):
        return ((s, action),)

    # the library brings state in at a call and gives it up at a return;
    # the client does the mirror image
    pred = mode.gamma.transfer(action.kind, action.method, action.thread)
    if (action.kind is Kind.CALL) == isinstance(mode, LibraryLocal):
        return tuple((combined, InterfaceAction(action.thread, action.kind, action.method, piece))
                     for piece in pred.sorted_states()
                     if (combined := star(s, piece)) is not None)
    split = sub_pred(s, pred)
    if split is None:
        return TOP
    rest, piece = split
    return ((rest, InterfaceAction(action.thread, action.kind, action.method, piece)),)


@dataclass(frozen=True)
class EvalResult:
    faulted: bool
    outcomes: frozenset[tuple[State, Trace]]

    def __post_init__(self):
        if self.faulted and self.outcomes:
            raise ValueError("a faulted result carries no outcomes")


def eval_trace(mode: Mode, tau: Trace, s: State) -> EvalResult:
    """Evaluate a trace from a state, annotating calls and returns."""
    current: set[tuple[State, Trace]] = {(s, ())}
    for action in tau:
        nxt: set[tuple[State, Trace]] = set()
        for st, ann in current:
            r = eval_action(mode, action, st)
            if r is TOP:
                return EvalResult(True, frozenset())
            for st2, a2 in r:
                nxt.add((st2, ann + (a2,)))
        current = nxt
    return EvalResult(False, frozenset(current))


@dataclass(frozen=True)
class Denotation:
    """All annotated traces of a component from one initial state."""

    faulted: bool
    fault_trace: Trace | None
    traces: frozenset[Trace]


# node ``i`` is (its history, its parent's index); node 0 is the empty history
HistoryTrie = list[tuple[History, int]]


def _walk(mode: Mode, tries: tuple[_Trie, ...], sigma: State, cap: int,
          histories_only: bool = False, cuts: Collection[History] | None = None
          ) -> tuple[Trace | None, set[Trace] | HistoryTrie]:
    """Walk the product of per-thread tries from ``sigma``, depth first, up to
    ``cap`` actions.  Returns the ground prefix that faulted, or ``None`` and
    every annotated trace reached; each path spells one ground trace, which
    with its annotation fixes the state.  ``cuts``, a set of histories none
    of which is a prefix of another, keeps the walk to paths whose history is
    a prefix of a cut, and returns only the traces whose history is a cut,
    without walking past them.  ``histories_only``, which takes no cuts,
    returns instead the trie of the histories reached, parents first, and
    skips a (trie nodes, state, history) already walked: the nodes fix the
    depth, so the cap cuts the same behaviours.  A history is hash-consed to
    its index by its parent's index and its last action, and its tuple built
    once, from its parent's.

    Every trie node has exactly one parent edge, so a node fixes the action
    that leads to it, and ``eval_action`` depends only on that action and
    the state: the walk evaluates each (node, state) once and looks up the
    result when it meets the pair again with the other threads elsewhere."""
    if histories_only and cuts is not None:
        raise ValueError("a histories-only walk takes no cuts")
    collected: set[Trace] = set()
    seen: set | None = set() if histories_only else None
    trie: HistoryTrie = [((), -1)]
    # (trie node, state) -> eval_action of the node's edge from the state
    memo: dict[tuple[_Trie, State], object] = {}
    # (index of a history, annotated action) -> index of the history it extends to
    ids: dict[tuple[int, InterfaceAction], int] = {}
    prefix: list = []

    # ``acc``: the annotated trace, or ``hid``, its history's index, when
    # ``histories_only``; ``cut_node``: where its history sits in the cuts' trie
    def walk(nodes: tuple[_Trie, ...], depth: int, st: State, acc: Trace, hid: int,
             cut_node: _Trie | None) -> Trace | None:
        if seen is not None:
            n = len(seen)
            seen.add((nodes, st, hid))
            if len(seen) == n:
                return None
        elif cut_node is None:
            collected.add(acc)
        elif not cut_node.children:
            collected.add(acc)
            return None
        if depth >= cap:
            return None
        for i, node in enumerate(nodes):
            for action, child in node.children.items():
                r = memo.get((child, st))
                if r is None:
                    r = memo[child, st] = eval_action(mode, action, st)
                if r is TOP:
                    return (*prefix, action)
                prefix.append(action)
                succ = nodes[:i] + (child,) + nodes[i + 1:]
                for st2, a2 in r:
                    child_cut, nid = cut_node, hid
                    if isinstance(a2, InterfaceAction):
                        if cut_node is not None:
                            child_cut = cut_node.children.get(a2)
                            if child_cut is None:
                                continue
                        if histories_only:
                            nid = ids.setdefault((hid, a2), len(trie))
                            if nid == len(trie):
                                trie.append((trie[hid][0] + (a2,), hid))
                    fault = walk(succ, depth + 1, st2, acc if histories_only else acc + (a2,),
                                 nid, child_cut)
                    if fault is not None:
                        return fault
                prefix.pop()
        return None

    if cuts is not None and not cuts:
        return None, collected
    fault = walk(tries, 0, sigma, (), 0, None if cuts is None else _Trie.of(cuts))
    return fault, trie if histories_only else collected


def _denote(mode: Mode, tries: tuple[_Trie, ...], sigma: State, bounds: Bounds) -> Denotation:
    fault, traces = _walk(mode, tries, sigma, bounds.max_trace_len)
    return Denotation(fault is not None, fault, frozenset(traces) if fault is None else frozenset())


# the tries of an open client, a complete program or a library's most general client
_thread_tries = lru_cache(maxsize=64)(_client_tries)


def _mgc_tries(lib: Library, bounds: Bounds) -> tuple[_Trie, ...]:
    """The cached tries of ``lib`` under its most general client."""
    return _thread_tries(most_general_client(lib, bounds), lib, bounds)


def _history_trie(lib: Library, gamma: MethodSpec, sigma: State, bounds: Bounds,
                  under: str = "") -> HistoryTrie:
    """The histories-only ``_walk`` of the library, which must not fault."""
    fault, trie = _walk(LibraryLocal(gamma), _mgc_tries(lib, bounds), sigma,
                        bounds.max_trace_len, histories_only=True)
    if fault is not None:
        raise UnsafeComponentError(f"library faults{under} at {sigma!r}", fault)
    return trie


def least_library_trace(lib: Library, gamma: MethodSpec, sigma: State, bounds: Bounds,
                        histories: Collection[History]) -> Trace | None:
    """The ``trace_sort_key``-least trace of the library from ``sigma`` whose
    history is in ``histories``, a set none of which is a prefix of another,
    or ``None``.  The library must be safe from ``sigma``: callers have walked
    its histories already.  The least such trace ends at its history's last
    action, since cutting it there keeps the history and shortens it; so the
    cut walk, which stops at the cuts, reaches it."""
    _, traces = _walk(LibraryLocal(gamma), _mgc_tries(lib, bounds), sigma,
                      bounds.max_trace_len, cuts=histories)
    return min(traces, key=trace_sort_key, default=None)


def denote_library(lib: Library, gamma: MethodSpec, sigma: State, bounds: Bounds) -> Denotation:
    return _denote(LibraryLocal(gamma), _mgc_tries(lib, bounds), sigma, bounds)


def denote_client(client: ClientProgram, gamma: MethodSpec, sigma: State, bounds: Bounds) -> Denotation:
    return _denote(ClientLocal(gamma), _thread_tries(client, None, bounds), sigma, bounds)


def denote_complete(lib: Library, client: ClientProgram, sigma: State, bounds: Bounds) -> Denotation:
    return _denote(COMPLETE, _thread_tries(client, lib, bounds), sigma, bounds)


def clear_caches() -> None:
    """Drop the memoised per-thread tries and empty the table of interned
    interface actions; an action built afterwards is a new object, equal
    by value to the old one."""
    _thread_tries.cache_clear()
    _ACTIONS.clear()


def eval_program(program: Program, sigma: State) -> Denotation:
    kind, bounds = program.kind, program.bounds
    if kind == "complete":
        return denote_complete(program.library, program.client, sigma, bounds)
    if kind == "library":
        return denote_library(program.library, program.gamma, sigma, bounds)
    return denote_client(program.client, program.gamma, sigma, bounds)


def denotation_pairs(program: Program, states: Iterable[State]) -> frozenset[tuple[State, Trace]]:
    """The (initial state, annotated trace) pairs from each of ``states``."""
    out = set()
    for s in sorted(states, key=State.sort_key):
        d = eval_program(program, s)
        if d.faulted:
            raise UnsafeComponentError(f"component faults at {s!r}", d.fault_trace)
        out.update((s, t) for t in d.traces)
    return frozenset(out)


# ---------------------------------------------------------------------------
# projections
# ---------------------------------------------------------------------------

def history_of(tau: Trace) -> History:
    return tuple(a for a in tau if isinstance(a, InterfaceAction))


def trace_sort_key(tau: Trace) -> tuple:
    """The order in which traces are reported: shorter first, then by text."""
    return (len(tau), repr(tau))


def ground_action(a):
    if isinstance(a, InterfaceAction):
        if a.kind is Kind.CALL:
            return PlainCall(a.thread, a.method)
        return PlainRet(a.thread, a.method)
    return a


def ground(tau: Trace) -> Trace:
    """Erase state annotations from the interface actions of a trace."""
    return tuple(ground_action(a) for a in tau)


def equivalence_key(tau: Trace) -> tuple:
    """The non-interface projection plus ``(thread, projection)`` per thread:
    two traces are equivalent exactly when their keys are equal."""
    return (tuple(a for a in tau if not is_interface(a)),
            tuple((t, tuple(a for a in tau if a.thread == t))
                  for t in sorted({a.thread for a in tau})))


def _split_actions(tau: Trace) -> tuple[Trace, Trace]:
    """(client projection, library projection): commands classified by whether
    the thread is inside a method, plus all calls and returns in both."""
    client: list = []
    lib: list = []
    inside: dict[int, bool] = {}
    for a in tau:
        if is_interface(a):
            client.append(a)
            lib.append(a)
            inside[a.thread] = is_call(a)
        elif inside.get(a.thread, False):
            lib.append(a)
        else:
            client.append(a)
    return tuple(client), tuple(lib)


def client_of(tau: Trace) -> Trace:
    return _split_actions(tau)[0]


def _segments(tau: Trace) -> list[Trace]:
    """Runs of non-interface actions split around each interface action."""
    segs: list[Trace] = []
    cur: list = []
    for a in tau:
        if is_interface(a):
            segs.append(tuple(cur))
            cur = []
        else:
            cur.append(a)
    segs.append(tuple(cur))
    return segs


def all_covers(kappa: Trace, lam: Trace) -> Iterator[Trace]:
    """Every complete-program trace covered by the two local traces."""
    h = history_of(kappa)
    if h != history_of(lam):
        return
    csegs = _segments(kappa)
    lsegs = _segments(lam)

    def shuffles(a: Trace, b: Trace) -> Iterator[tuple]:
        if not a:
            yield b
            return
        if not b:
            yield a
            return
        for rest in shuffles(a[1:], b):
            yield (a[0],) + rest
        for rest in shuffles(a, b[1:]):
            yield (b[0],) + rest

    def go(k: int) -> Iterator[tuple]:
        if k == len(csegs):
            yield ()
            return
        sep = (ground_action(h[k]),) if k < len(h) else ()
        for head in shuffles(csegs[k], lsegs[k]):
            for tail in go(k + 1):
                yield head + sep + tail

    yield from go(0)


# ---------------------------------------------------------------------------
# interface sets and membership
# ---------------------------------------------------------------------------

def _check_contract_covers(lib: Library, gamma: MethodSpec, bounds: Bounds) -> None:
    """Every library method has a contract for every most-general-client
    thread: ``transfer`` raises ``ValueError`` naming the first gap."""
    for m in lib.method_names:
        for t in range(1, bounds.mgc_threads + 1):
            gamma.transfer(Kind.CALL, m, t), gamma.transfer(Kind.RET, m, t)


def _histories_by_state(lib: Library, gamma: MethodSpec, initial: Iterable[State],
                        bounds: Bounds) -> dict[State, HistoryTrie]:
    """The history trie of a library's local behaviours from each initial
    state, in state order, refusing what ``interf`` refuses."""
    _check_contract_covers(lib, gamma, bounds)
    return {sigma0: _history_trie(lib, gamma, sigma0, bounds)
            for sigma0 in sorted(initial, key=State.sort_key)}


def _interface_set_of(tries: dict[State, HistoryTrie]) -> InterfaceSet:
    """``interf``'s entries, each checked one step past its parent's."""
    entries = []
    for sigma0, trie in tries.items():
        initial = delta(sigma0)
        feet = [initial]
        for h, parent in trie[1:]:
            feet.append(balance_step(initial, h, feet[parent]))
        entries += (BalancedHistory._trusted(initial, h) for h, _ in trie)
    return interface_set(entries)


def interf(lib: Library, gamma: MethodSpec, initial: Iterable[State],
           bounds: Bounds) -> InterfaceSet:
    """The (initial footprint, history) pairs of a library's local behaviours.

    Refuses contracts that leave a method or a thread uncovered and unsafe
    libraries; each entry is checked well-formed and balanced from the
    footprint of its initial state, one action past its parent's entry.
    """
    return _interface_set_of(_histories_by_state(lib, gamma, initial, bounds))


def _trace_member(mode: Mode, tries: tuple[_Trie, ...], sigma: State, tau: Trace,
                  bounds: Bounds) -> bool:
    """Annotated-trace membership in a local denotation, defined for a
    component safe from ``sigma``: the trace is followed through its threads'
    tries, one ``eval_action`` per step, keeping the one successor annotated
    as its action, so a fault on another branch goes unseen."""
    if len(tau) > bounds.max_trace_len:
        return False
    nodes, st = list(tries), sigma
    for a in tau:
        g = ground_action(a)
        if not 1 <= g.thread <= len(nodes):
            return False
        node = nodes[g.thread - 1].children.get(g)
        if node is None or (r := eval_action(mode, g, st)) is TOP:
            return False
        st = next((s2 for s2, a2 in r if a2 == a), None)
        if st is None:
            return False
        nodes[g.thread - 1] = node
    return True


def library_trace_member(lib: Library, gamma: MethodSpec, sigma0: State,
                         tau: Trace, bounds: Bounds) -> bool:
    return _trace_member(LibraryLocal(gamma), _mgc_tries(lib, bounds),
                         sigma0, tau, bounds)


def client_trace_member(client: ClientProgram, gamma: MethodSpec, sigma: State,
                        tau: Trace, bounds: Bounds) -> bool:
    return _trace_member(ClientLocal(gamma), _thread_tries(client, None, bounds),
                         sigma, tau, bounds)


# ---------------------------------------------------------------------------
# composition vs decomposition
# ---------------------------------------------------------------------------

PairTransform = Callable[[frozenset[tuple[State, Trace]]], Iterable[tuple[State, Trace]]]


def compose_decompose_check(client: ClientProgram, lib: Library, gamma: MethodSpec,
                            initial_client: Iterable[State], initial_lib: Iterable[State],
                            bounds: Bounds, *,
                            library_transform: PairTransform | None = None) -> LawReport:
    """Check the local/global lemma: the complete-program traces are exactly
    the covers of the history-matching client-local and library-local pairs
    whose states compose.

    A complete trace that covers no pair is a ``"decompose"`` failure, a cover
    of a pair that the complete program lacks a ``"compose"`` failure; each is
    reported as (state, trace), least first.  Covers longer than the
    interleaving cap fall outside the bounded complete set and are left out.
    The bounds must let the library side keep up with the client: the
    most-general-client iteration count has to cover the client's per-thread
    invocations, or complete traces go without a library pair.
    ``library_transform`` lets tests mutate the library-local side; any
    resulting mismatch must be reported.  An empty initial set on either side
    is refused, since it would make both sides of the equation empty.
    """
    initial_client = _nonempty("initial_client", initial_client)
    initial_lib = _nonempty("initial_lib", initial_lib)
    gamma_client = Program(next(iter(initial_client)).algebra, client=client,
                           gamma=gamma, bounds=bounds)
    lib_prog = Program(gamma_client.algebra, library=lib, gamma=gamma, bounds=bounds)
    X = denotation_pairs(gamma_client, initial_client)
    Y = denotation_pairs(lib_prog, initial_lib)
    if library_transform is not None:
        Y = frozenset(library_transform(Y))

    rec = Recorder()
    lhs: set[tuple[State, Trace]] = set()
    for sigma in sorted(star_set(initial_client, initial_lib), key=State.sort_key):
        d = denote_complete(lib, client, sigma, bounds)
        if d.faulted:
            rec.record("complete_safety", (sigma,), "safe", d.fault_trace)
            continue
        lhs.update((sigma, t) for t in d.traces)

    y_by_history: dict[History, list[tuple[State, Trace]]] = {}
    for s1, lam in Y:
        y_by_history.setdefault(history_of(lam), []).append((s1, lam))
    covers: set[tuple[State, Trace]] = set()
    for s0, kappa in X:
        for s1, lam in y_by_history.get(history_of(kappa), ()):
            sigma = star(s0, s1)
            if sigma is not None:
                covers.update((sigma, tau) for tau in all_covers(kappa, lam)
                              if len(tau) <= bounds.max_trace_len)

    for law, pairs, expected in (("compose", covers - lhs, "complete trace"),
                                 ("decompose", lhs - covers, "local pair")):
        for pair in sorted(pairs, key=lambda p: (p[0].sort_key(), trace_sort_key(p[1]))):
            rec.record(law, pair, expected, None)
    return rec.report()


def _nonempty(name: str, states: Iterable[State]) -> frozenset[State]:
    """``states`` as a set; none would make every check pass vacuously."""
    out = frozenset(states)
    if not out:
        raise ValueError(f"{name} holds no initial state, so every check would pass vacuously")
    return out
