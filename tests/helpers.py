"""Independent oracles and generators shared by the test modules.

The oracles deliberately avoid the algorithms they check: linearization is
decided by enumerating every action-matching bijection, subtraction by
searching the bounded universe, footprint operations via representative
states, and trace equivalence by comparing projections pairwise.
"""

from __future__ import annotations

import random
from collections import Counter, defaultdict
from itertools import permutations
from typing import Callable

from ownlin.algebra import Algebra, ParamPredicate, Recorder, State, star, star_set
from ownlin.footprint import delta, foot_add, foot_leq
from ownlin.frame import (
    Hypothesis4Witness,
    SplitViolation,
    ceil_history,
    extra_eval,
)
from ownlin.history import (
    BalancedHistory,
    InterfaceAction,
    Kind,
    LeqEntry,
    LeqReport,
    call,
    interface_set,
    linearized_by,
    ret,
)
from ownlin.lang import (
    Assume,
    Bounds,
    CallMethod,
    Choice,
    ClientProgram,
    CmdAction,
    Command,
    Library,
    MethodSpec,
    PlainCall,
    PlainRet,
    Prim,
    Program,
    Seq,
    Star,
    TID,
    TOP,
    Top,
    Trace,
    _grow,
    _Trie,
    choice,
    is_interface,
    library,
    method_spec,
    seq,
    store,
)
from ownlin import ram
from ownlin.semantics import (
    UnsafeComponentError,
    _split_actions,
    all_covers,
    client_of,
    denotation_pairs,
    denote_complete,
    denote_library,
    eval_trace,
    ground,
    history_of,
    trace_sort_key,
)


def state_sub_oracle(s2: State, s1: State, universe) -> State | None:
    """Search the universe for the unique state composing with s1 to s2."""
    found = None
    for cand in universe.states(s2.algebra):
        if star(cand, s1) == s2:
            assert found is None, "subtraction result not unique"
            found = cand
    return found


def _order_ok(h, h2, mapping) -> bool:
    n = len(h)
    for i in range(n):
        if h2[mapping[i]] != h[i]:
            return False
        for j in range(i + 1, n):
            same_thread = h[i].thread == h[j].thread
            ret_call = h[i].kind is Kind.RET and h[j].kind is Kind.CALL
            if (same_thread or ret_call) and mapping[i] > mapping[j]:
                return False
    return True


def all_witnesses_bruteforce(h, h2):
    """Every constraint-respecting bijection, by permuting equal-action groups."""
    if len(h) != len(h2) or Counter(h) != Counter(h2):
        return
    pos_h = defaultdict(list)
    pos_h2 = defaultdict(list)
    for i, a in enumerate(h):
        pos_h[a].append(i)
    for k, a in enumerate(h2):
        pos_h2[a].append(k)
    actions = list(pos_h)
    perms_per_action = [list(permutations(pos_h2[a])) for a in actions]

    def go(idx, mapping):
        if idx == len(actions):
            yield tuple(mapping)
            return
        src = pos_h[actions[idx]]
        for perm in perms_per_action[idx]:
            for i, k in zip(src, perm):
                mapping[i] = k
            yield from go(idx + 1, mapping)

    n = len(h)
    for mapping in go(0, [None] * n):
        if _order_ok(h, h2, mapping):
            yield mapping


def linearized_by_bruteforce(h, h2) -> bool:
    return next(iter(all_witnesses_bruteforce(h, h2)), None) is not None


def interface_set_leq_oracle(a, b) -> LeqReport:
    """Every entry of ``a`` against every entry of ``b`` in ``sorted_entries()``
    order, footprint first, then the witness search; the first match wins."""
    results = []
    for entry in a.sorted_entries():
        found = witness = None
        for other in b.sorted_entries():
            if foot_leq(other.initial, entry.initial):
                w = linearized_by(entry.history, other.history)
                if w is not None:
                    found, witness = other, w
                    break
        results.append(LeqEntry(entry, found, witness))
    return LeqReport(all(r.matched is not None for r in results), tuple(results))


def equivalent_oracle(a, b) -> bool:
    """Same per-thread projections and identical non-interface projection."""
    if tuple(x for x in a if not is_interface(x)) != tuple(x for x in b if not is_interface(x)):
        return False
    threads = {x.thread for x in a} | {x.thread for x in b}
    return all(tuple(x for x in a if x.thread == t) == tuple(x for x in b if x.thread == t)
               for t in threads)


def abstraction_spec_misses_oracle(client_pairs, concrete, hset):
    """The client projections of ``concrete`` that no client pair reproduces:
    equivalent to its ground trace, with a history the set holds from a
    footprint compatible with the client's own.  A nested loop, sorted by
    ``(len, repr)`` like the checker's report."""
    misses = []
    for _, tau in concrete:
        target = client_of(tau)
        if not any(equivalent_oracle(target, ground(kappa))
                   and any(e.history == history_of(kappa)
                           and foot_add(delta(sigma_c), e.initial) is not None
                           for e in hset.entries)
                   for sigma_c, kappa in client_pairs):
            misses.append(target)
    return sorted(misses, key=lambda t: (len(t), repr(t)))


def lib_of(tau):
    return _split_actions(tau)[1]


def cover(tau, kappa, lam) -> bool:
    """The client and library projections of ``tau`` are the ground local
    traces, whose histories match."""
    return (history_of(kappa) == history_of(lam)
            and client_of(tau) == ground(kappa)
            and lib_of(tau) == ground(lam))

def compose_decompose_oracle(client, lib, gamma, initial_client, initial_lib, bounds, *,
                             library_transform=None):
    """``compose_decompose_check`` by two searches.  Composition: for each
    history-matching local pair whose states compose, look for a cover within
    the cap that the complete program lacks.  Decomposition: for each complete
    trace, look for a pair whose ground traces are the trace's client and
    library projections, whose histories match and whose states compose to
    the trace's initial state."""
    algebra = next(iter(initial_client)).algebra
    X = denotation_pairs(Program(algebra, client=client, gamma=gamma, bounds=bounds),
                         initial_client)
    Y = denotation_pairs(Program(algebra, library=lib, gamma=gamma, bounds=bounds),
                         initial_lib)
    if library_transform is not None:
        Y = frozenset(library_transform(Y))
    rec = Recorder()
    lhs = set()
    for sigma in sorted(star_set(initial_client, initial_lib), key=State.sort_key):
        d = denote_complete(lib, client, sigma, bounds)
        if d.faulted:
            rec.record("complete_safety", (sigma,), "safe", d.fault_trace)
            continue
        lhs.update((sigma, t) for t in d.traces)

    y_by_history = defaultdict(list)
    for s1, lam in Y:
        y_by_history[history_of(lam)].append((s1, lam))
    for s0, kappa in X:
        for s1, lam in y_by_history[history_of(kappa)]:
            sigma = star(s0, s1)
            if sigma is None:
                continue
            for tau in all_covers(kappa, lam):
                if len(tau) <= bounds.max_trace_len and (sigma, tau) not in lhs:
                    rec.record("compose", (s0, kappa, s1, lam), "member", tau)
                    break

    x_by_ground = defaultdict(list)
    for s0, kappa in X:
        x_by_ground[ground(kappa)].append((s0, kappa))
    y_by_ground = defaultdict(list)
    for s1, lam in Y:
        y_by_ground[ground(lam)].append((s1, lam))
    for sigma, tau in lhs:
        cpart, lpart = _split_actions(tau)
        if not any(history_of(kappa) == history_of(lam) and star(s0, s1) == sigma
                   for s0, kappa in x_by_ground[cpart] for s1, lam in y_by_ground[lpart]):
            rec.record("decompose", (sigma, tau), "local pair", None)
    return rec.report()

# library-side mutants for ``compose_decompose_check``'s ``library_transform``

def drop_transfer(pairs):
    """Empty the state of each trace's first call that transfers some."""
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


def extra_cell(pairs):
    """Compose the cell 9 into every library initial state."""
    return [(star(sigma, ram({9: 0})), lam) for sigma, lam in pairs]


def drop_last_command(pairs):
    """Delete the last command of each trace that has one."""
    out = []
    for sigma, lam in pairs:
        cmds = [i for i, a in enumerate(lam) if not is_interface(a)]
        out.append((sigma, lam[:cmds[-1]] + lam[cmds[-1] + 1:] if cmds else lam))
    return out

def framed_witness_oracle(lib, gamma, gamma_ext, initial_base, initial_extra, bounds):
    """``check_framed_state_preserved`` by the full walk: every annotated trace
    under the extended contract, grouped by history, each history folded
    whole; the witness is the least trace whose history fails."""
    for sigma0 in sorted(initial_base, key=State.sort_key):
        for sigma_extra in sorted(initial_extra, key=State.sort_key):
            combined = star(sigma0, sigma_extra)
            if combined is None:
                continue
            d = denote_library(lib, gamma_ext, combined, bounds)
            if d.faulted:
                raise UnsafeComponentError(
                    f"library faults under the extended contract at {combined!r}",
                    d.fault_trace)
            by_history = defaultdict(list)
            for tau in d.traces:
                by_history[history_of(tau)].append(tau)
            failing = []
            for h, taus in by_history.items():
                try:
                    if extra_eval(ceil_history(h, gamma), sigma_extra) is TOP:
                        failing += taus
                except SplitViolation:
                    failing += taus
            if failing:
                tau = min(failing, key=trace_sort_key)
                ceil = ceil_history(history_of(tau), gamma)
                index = next(i for i in range(len(ceil))
                             if extra_eval(ceil[:i + 1], sigma_extra) is TOP)
                return Hypothesis4Witness(sigma0, sigma_extra, tau, ceil, index)
    return None


def rearrange_source_oracle(lib, gamma, initial, target_initial, target_history, bounds):
    """The (initial state, trace) that ``ownlin rearrange`` starts from, by the
    full walk: from the first initial state in order whose footprint is below
    the target's and that has one, the least trace of the whole denotation
    whose history the target linearizes; ``None`` if no state has one."""
    for sigma0 in sorted(initial, key=State.sort_key):
        if not foot_leq(delta(sigma0), target_initial):
            continue
        d = denote_library(lib, gamma, sigma0, bounds)
        if d.faulted:
            raise UnsafeComponentError(f"library faults at {sigma0!r}", d.fault_trace)
        by_history = defaultdict(list)
        for tau in d.traces:
            by_history[history_of(tau)].append(tau)
        found = [tau for h, taus in by_history.items()
                 if linearized_by(target_history, h) is not None for tau in taus]
        if found:
            return sigma0, min(found, key=trace_sort_key)
    return None


def _prefix_in_trie(trie: _Trie, tau: Trace) -> bool:
    node = trie
    for a in tau:
        node = node.children.get(a)
        if node is None:
            return False
    return True


def two_phase_trace_member(mode, tries, sigma, tau, bounds) -> bool:
    """Annotated-trace membership in two phases, the way ``_trace_member``
    decided it before it followed the trace: each thread's projection of the
    ground trace is a path of its trie, and ``eval_trace`` of the whole
    ground trace, every branch at once, neither faults nor misses ``tau``.
    It differs from the one-path walk only where a branch that ``tau`` does
    not take faults, so only on a component unsafe from ``sigma``."""
    if len(tau) > bounds.max_trace_len:
        return False
    g = ground(tau)
    for t in {a.thread for a in g}:
        if not 1 <= t <= len(tries):
            return False
        if not _prefix_in_trie(tries[t - 1], tuple(a for a in g if a.thread == t)):
            return False
    r = eval_trace(mode, g, sigma)
    if r.faulted:
        return False
    return any(ann == tau for _, ann in r.outcomes)


def interf_oracle(lib, gamma, initial, bounds):
    """``interf`` from the histories of the full annotated walk, each
    validated whole through the public ``BalancedHistory`` constructor."""
    entries = []
    for sigma0 in initial:
        d = denote_library(lib, gamma, sigma0, bounds)
        if d.faulted:
            raise UnsafeComponentError(f"library faults at {sigma0!r}", d.fault_trace)
        entries += (BalancedHistory(delta(sigma0), h) for h in {history_of(t) for t in d.traces})
    return interface_set(entries)


EMPTY = ram({})


def exhaustive_histories(max_len: int, threads=(1, 2), methods=("a", "b"),
                         transferred=EMPTY):
    """All well-formed histories up to a length, single state annotation."""
    out = []

    def extend(h, open_m):
        out.append(h)
        if len(h) == max_len:
            return
        for t in threads:
            if open_m.get(t) is None:
                for m in methods:
                    open_m[t] = m
                    extend(h + (call(t, m, transferred),), open_m)
                    open_m[t] = None
            else:
                m = open_m[t]
                open_m[t] = None
                extend(h + (ret(t, m, transferred),), open_m)
                open_m[t] = m

    extend((), {})
    return out


def random_history(rng: random.Random, length: int, threads=(1, 2, 3),
                   methods=("a", "b"), states=(EMPTY, ram({1: 0}))):
    h = []
    open_m = {}
    for _ in range(length):
        t = rng.choice(threads)
        if open_m.get(t) is None:
            m = rng.choice(methods)
            open_m[t] = m
            h.append(call(t, m, rng.choice(states)))
        else:
            h.append(ret(t, open_m.pop(t), rng.choice(states)))
    return tuple(h)


def thread_order_shuffle(rng: random.Random, h):
    """A random permutation preserving each thread's subsequence (well-formed
    by construction, equal as a multiset)."""
    per_thread = defaultdict(list)
    for a in h:
        per_thread[a.thread].append(a)
    threads = list(per_thread)
    out = []
    while any(per_thread[t] for t in threads):
        t = rng.choice([t for t in threads if per_thread[t]])
        out.append(per_thread[t].pop(0))
    return tuple(out)


def delinearize(rng: random.Random, h, steps: int):
    """Random admissible adjacent swaps (calls move earlier, returns later),
    producing a history linearized by the original."""
    cur = list(h)
    for _ in range(steps):
        candidates = []
        for i in range(len(cur) - 1):
            a, b = cur[i], cur[i + 1]
            if a.thread == b.thread:
                continue
            if a.kind is Kind.CALL and b.kind is Kind.RET:
                continue  # would invert a completed invocation
            candidates.append(i)
        if not candidates:
            break
        i = rng.choice(candidates)
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
    return tuple(cur)


# ---------------------------------------------------------------------------
# random safe libraries over two private cells and the argument cells
# ---------------------------------------------------------------------------

_CELLS = (4, 5)


def random_gamma(rng: random.Random, methods, threads=(1, 2)) -> MethodSpec:
    triples = {}
    empty_pred = ParamPredicate.from_fn(lambda t: [ram({})], threads)
    for m in methods:
        if rng.random() < 0.5:
            pre = empty_pred
            post = pre  # a method given nothing cannot conjure state to return
        else:
            pre = ParamPredicate.from_fn(lambda t: [ram({t: v}) for v in (0, 1)], threads)
            post = pre if rng.random() < 0.7 else empty_pred  # may keep the cell
        triples[m] = (pre, post)
    return method_spec(triples)


def _random_prim(rng: random.Random, with_arg: bool):
    from ownlin.lang import Deref, IntLit, Not
    kind = rng.randrange(4 if with_arg else 3)
    cell = rng.choice(_CELLS)
    if kind == 0:
        return Prim(store(cell, rng.choice((0, 1))))
    if kind == 1:
        return Prim(store(cell, Deref(IntLit(rng.choice(_CELLS)))))
    if kind == 2:
        guard = Deref(IntLit(cell))
        return Prim(Assume(Not(guard) if rng.random() < 0.5 else
                           Not(Not(guard))))
    return Prim(store(TID, Deref(IntLit(cell)))) if rng.random() < 0.5 \
        else Prim(store(cell, Deref(TID)))


def random_library(rng: random.Random, gamma: MethodSpec) -> Library:
    bodies = {}
    for m in gamma.method_names:
        with_arg = bool(gamma.pre(m).for_thread(1).states != frozenset({ram({})}))
        n = rng.randrange(1, 4)
        parts = [_random_prim(rng, with_arg) for _ in range(n)]
        body = seq(*parts)
        if rng.random() < 0.4:
            body = choice(body, _random_prim(rng, with_arg))
        bodies[m] = body
    return library(bodies)


RANDOM_LIB_INITIAL = frozenset({ram({4: 0, 5: 0})})
RANDOM_LIB_BOUNDS = Bounds(star_unroll=1, mgc_iters=1, mgc_threads=2, max_trace_len=8)


# ---------------------------------------------------------------------------
# per-thread trace sets, built set by set from the command semantics
# ---------------------------------------------------------------------------

Eta = Callable[[str, int], frozenset[Trace]]


def command_traces(c: Command, t: int, eta: Eta, bounds: Bounds) -> frozenset[Trace]:
    """Every bounded trace of ``c`` run by thread ``t``; ``eta`` gives the
    traces of a method body."""
    if isinstance(c, Prim):
        return frozenset(((CmdAction(t, c.command),),))
    if isinstance(c, CallMethod):
        out = set()
        for body in eta(c.method, t):
            out.add((PlainCall(t, c.method),) + body + (PlainRet(t, c.method),))
        return frozenset(out)
    if isinstance(c, Seq):
        first = command_traces(c.first, t, eta, bounds)
        second = command_traces(c.second, t, eta, bounds)
        return frozenset(a + b for a in first for b in second)
    if isinstance(c, Choice):
        return command_traces(c.left, t, eta, bounds) | command_traces(c.right, t, eta, bounds)
    if isinstance(c, Star):
        base = command_traces(c.body, t, eta, bounds)
        out = {()}
        layer = {()}
        for _ in range(bounds.star_unroll):
            layer = {a + b for a in layer for b in base}
            out |= layer
        return frozenset(out)
    raise TypeError(f"not a command: {c!r}")


def _method_eta(lib: Library, bounds: Bounds) -> Eta:
    return lambda m, t: command_traces(lib.body(m), t, _empty_eta, bounds)


def _empty_eta(m: str, t: int) -> frozenset[Trace]:
    return frozenset(((),))


def reference_client_threads(client: ClientProgram, lib: Library | None,
                             bounds: Bounds) -> list[frozenset[Trace]]:
    """Per-thread trace sets of a client; with ``lib`` its calls run their
    bodies, as in the complete program."""
    eta = _empty_eta if lib is None else _method_eta(lib, bounds)
    return [command_traces(cmd, t + 1, eta, bounds) for t, cmd in enumerate(client.threads)]


def reference_library_threads(lib: Library, bounds: Bounds) -> list[frozenset[Trace]]:
    """Most general client: each of N threads loops over arbitrary methods,
    unrolled ``mgc_iters`` times."""
    names = lib.method_names
    if not names:
        return []
    mgc = Star(choice(*(CallMethod(m) for m in names)))
    mgc_bounds = Bounds(star_unroll=bounds.mgc_iters, mgc_iters=bounds.mgc_iters,
                        mgc_threads=bounds.mgc_threads, max_trace_len=bounds.max_trace_len)
    return [command_traces(mgc, t, _method_eta(lib, bounds), mgc_bounds)
            for t in range(1, bounds.mgc_threads + 1)]


def reference_mgc_tries(lib: Library, bounds: Bounds) -> tuple[_Trie, ...]:
    """The most general client's tries grown by hand, round by round: each of
    ``mgc_threads`` threads makes ``mgc_iters`` rounds of calls, each round to
    any one method, the methods in name order."""
    roots = tuple(_Trie() for _ in range(bounds.mgc_threads))
    for t, root in enumerate(roots, 1):
        layer = [root]
        for _ in range(bounds.mgc_iters):
            layer = [end for m in lib.method_names
                     for end in _grow(CallMethod(m), t, lib, bounds, layer)]
    return roots


# ---------------------------------------------------------------------------
# negative fixtures for validate_transformer
# ---------------------------------------------------------------------------

def conditional_cell_writer(t: int, s: State) -> frozenset[State] | Top:
    """Writes 0 to cell 1 only when it is allocated; a no-op otherwise.

    Negative fixture: checks allocation without faulting, which
    breaks locality.
    """
    if s.lookup(1) is not None:
        new = dict(s.cells)
        new[1] = 0
        return frozenset((State(Algebra.RAM, new),))
    return frozenset((s,))


def neighbour_dependent_writer(t: int, s: State) -> frozenset[State] | Top:
    """Writes to cell 1 a value whose choice depends on whether cell 2 exists.

    Negative fixture: local, but the extra state influences the
    effect, which breaks strong locality.
    """
    if s.lookup(1) is None:
        return TOP
    if s.lookup(2) is not None:
        new = dict(s.cells)
        new[1] = 0
        return frozenset((State(Algebra.RAM, new),))
    a = dict(s.cells)
    a[1] = 0
    b = dict(s.cells)
    b[1] = 1
    return frozenset((State(Algebra.RAM, a), State(Algebra.RAM, b)))
