"""Desk-scale example libraries: bounded stacks, a queue, and clients.

Cell layout (plain-heap algebra):

* cells 1,2   -- per-thread argument cells (thread id doubles as the address)
* cell 3      -- serialization counter of the locked variants
* cell 4      -- element count
* cells 5,6   -- the two slots
* cell 7      -- the one transferable object, for the ownership contracts

Pushed values are the "pointers" 7 and 8; 0 acts as both the push
acknowledgement and the empty-pop answer.  Mutual exclusion uses an
increment-then-check counter: a contended acquisition strands both threads in
an infeasible branch rather than faulting, so every surviving interleaving is
serialized.  The lock-free variants simply drop the counter; they admit racy
behaviours, which is harmless on the abstract side of a refinement check.
"""

from __future__ import annotations

from .algebra import Algebra, ParamPredicate, StateUniverse, ram
from .lang import (
    Add,
    Assume,
    Bounds,
    CallMethod,
    ClientProgram,
    Command,
    Deref,
    IntLit,
    Library,
    MethodSpec,
    Not,
    Prim,
    Program,
    SKIP,
    TID,
    assume,
    choice,
    library,
    method_spec,
    seq,
    store,
)

ARG_THREADS = (1, 2)
LOCK = 3
COUNT = 4
SLOT1 = 5
SLOT2 = 6
OBJ = 7
PTR_VALUES = (7, 8)
EMPTY = 0
ACK = 0

CORPUS_UNIVERSE = StateUniverse(locations=(1, 2, 7), values=(0, 1, 7, 8),
                                threads=ARG_THREADS)


def gamma_val() -> MethodSpec:
    """Value-passing contract: only the argument cell crosses the boundary."""
    push_pre = ParamPredicate.from_fn(
        lambda t: [ram({t: v}) for v in PTR_VALUES], ARG_THREADS)
    push_post = ParamPredicate.from_fn(lambda t: [ram({t: ACK})], ARG_THREADS)
    pop_pre = ParamPredicate.from_fn(lambda t: [ram({t: 0})], ARG_THREADS)
    pop_post = ParamPredicate.from_fn(
        lambda t: [ram({t: EMPTY})] + [ram({t: v}) for v in PTR_VALUES], ARG_THREADS)
    return method_spec({"push": (push_pre, push_post), "pop": (pop_pre, pop_post)})


def gamma_obj() -> MethodSpec:
    """Ownership contract: pushing pointer 7 also transfers the object at 7."""
    push_pre = ParamPredicate.from_fn(
        lambda t: [ram({t: OBJ, OBJ: v}) for v in (0, 1)], ARG_THREADS)
    push_post = ParamPredicate.from_fn(lambda t: [ram({t: ACK})], ARG_THREADS)
    pop_pre = ParamPredicate.from_fn(lambda t: [ram({t: 0})], ARG_THREADS)
    pop_post = ParamPredicate.from_fn(
        lambda t: [ram({t: EMPTY})] + [ram({t: OBJ, OBJ: v}) for v in (0, 1)], ARG_THREADS)
    return method_spec({"push": (push_pre, push_post), "pop": (pop_pre, pop_post)})


def _eq(e, k: int):
    return Not(Add(e, IntLit(-k))) if k else Not(e)


_LOCK_ACQUIRE = seq(
    Prim(store(LOCK, Add(Deref(IntLit(LOCK)), IntLit(1)))),
    Prim(Assume(_eq(Deref(IntLit(LOCK)), 1))),
)
_UNLOCK = Prim(store(LOCK, 0))


def _push_core(extra: Command | None = None) -> Command:
    branches = choice(
        seq(Prim(Assume(_eq(Deref(IntLit(COUNT)), 0))),
            Prim(store(SLOT1, Deref(TID))),
            Prim(store(COUNT, 1))),
        seq(Prim(Assume(_eq(Deref(IntLit(COUNT)), 1))),
            Prim(store(SLOT2, Deref(TID))),
            Prim(store(COUNT, 2))),
    )
    parts = [branches]
    if extra is not None:
        parts.append(extra)
    parts.append(Prim(store(TID, ACK)))
    return seq(*parts)


def _pop_core_lifo() -> Command:
    return choice(
        seq(Prim(Assume(_eq(Deref(IntLit(COUNT)), 2))),
            Prim(store(TID, Deref(IntLit(SLOT2)))),
            Prim(store(COUNT, 1))),
        seq(Prim(Assume(_eq(Deref(IntLit(COUNT)), 1))),
            Prim(store(TID, Deref(IntLit(SLOT1)))),
            Prim(store(COUNT, 0))),
        seq(Prim(Assume(_eq(Deref(IntLit(COUNT)), 0))),
            Prim(store(TID, EMPTY))),
    )


def _pop_core_fifo() -> Command:
    return choice(
        seq(Prim(Assume(_eq(Deref(IntLit(COUNT)), 2))),
            Prim(store(TID, Deref(IntLit(SLOT1)))),
            Prim(store(SLOT1, Deref(IntLit(SLOT2)))),
            Prim(store(COUNT, 1))),
        seq(Prim(Assume(_eq(Deref(IntLit(COUNT)), 1))),
            Prim(store(TID, Deref(IntLit(SLOT1)))),
            Prim(store(COUNT, 0))),
        seq(Prim(Assume(_eq(Deref(IntLit(COUNT)), 0))),
            Prim(store(TID, EMPTY))),
    )


def lock_stack() -> Library:
    """Two-slot stack serialized by the counter lock; blocks when full."""
    return library({
        "push": seq(_LOCK_ACQUIRE, _push_core(), _UNLOCK),
        "pop": seq(_LOCK_ACQUIRE, _pop_core_lifo(), _UNLOCK),
    })


def plain_stack() -> Library:
    """Lock-free two-slot stack: the abstract side of the refinement pairs."""
    return library({
        "push": _push_core(),
        "pop": _pop_core_lifo(),
    })


def plain_queue() -> Library:
    """Lock-free two-slot queue; distinguishes itself from the stack by
    returning the oldest element."""
    return library({
        "push": _push_core(),
        "pop": _pop_core_fifo(),
    })


def scribbler_stack() -> Library:
    """Lock-based stack that also writes into the pushed object, the way an
    allocator scribbles free-list pointers into blocks handed to it."""
    scribble = Prim(store(Deref(TID), 0))
    return library({
        "push": seq(_LOCK_ACQUIRE, _push_core(extra=scribble), _UNLOCK),
        "pop": seq(_LOCK_ACQUIRE, _pop_core_lifo(), _UNLOCK),
    })


def _mini_push(extra: Command | None = None) -> Command:
    # any extra write into the pushed object must land before the element is
    # published, or a concurrent pop could take the object away first
    parts = [Prim(Assume(_eq(Deref(IntLit(COUNT)), 0)))]
    if extra is not None:
        parts.append(extra)
    parts += [Prim(store(SLOT1, Deref(TID))),
              Prim(store(COUNT, 1)),
              Prim(store(TID, ACK))]
    return seq(*parts)


_MINI_POP = choice(
    seq(Prim(Assume(_eq(Deref(IntLit(COUNT)), 1))),
        Prim(store(TID, Deref(IntLit(SLOT1)))),
        Prim(store(COUNT, 0))),
    seq(Prim(Assume(_eq(Deref(IntLit(COUNT)), 0))),
        Prim(store(TID, EMPTY))),
)


def mini_stack() -> Library:
    """One-slot stack, bodies short enough that a push then a pop completes
    inside the default interleaving cap; used by the frame-rule fixtures."""
    return library({"push": _mini_push(), "pop": _MINI_POP})


def mini_stack_slow() -> Library:
    """The one-slot stack with a needless internal step: the concrete side of
    the frame-rule pair."""
    return library({"push": seq(Prim(SKIP), _mini_push()), "pop": _MINI_POP})


def mini_stack_scribbler() -> Library:
    """One-slot stack that writes a free-list-style mark into the pushed
    object, so the framed-out state does not come back intact."""
    return library({"push": _mini_push(extra=Prim(store(Deref(TID), 0))),
                    "pop": _MINI_POP})


LOCK_STACK_INITIAL = frozenset({ram({LOCK: 0, COUNT: 0, SLOT1: 0, SLOT2: 0})})
PLAIN_INITIAL = frozenset({ram({COUNT: 0, SLOT1: 0, SLOT2: 0})})
MINI_INITIAL = frozenset({ram({COUNT: 0, SLOT1: 0})})
CLIENT_INITIAL = frozenset({ram({1: 7, 2: 8})})
EXTRA_INITIAL_EMPTY = frozenset({ram({})})

DEFAULT_BOUNDS = Bounds(star_unroll=1, mgc_iters=2, mgc_threads=2, max_trace_len=12)
SEQUENTIAL_BOUNDS = Bounds(star_unroll=1, mgc_iters=3, mgc_threads=1, max_trace_len=20)


def push_pop_client(threads: int = 2) -> ClientProgram:
    """Each thread pushes its preloaded pointer, rewrites its cell, then pops."""
    body = seq(CallMethod("push"), Prim(store(TID, 0)), CallMethod("pop"))
    return ClientProgram(tuple(body for _ in range(threads)))


def trivial_library() -> Library:
    return library({"nop": Prim(assume(1))})


def gamma_trivial() -> MethodSpec:
    empty_pred = ParamPredicate.from_fn(lambda t: [ram({})], ARG_THREADS)
    return method_spec({"nop": (empty_pred, empty_pred)})


def one_command_client() -> ClientProgram:
    return ClientProgram((seq(Prim(store(1, 1)), CallMethod("nop")),))


def lock_stack_program() -> Program:
    return Program(Algebra.RAM, library=lock_stack(), gamma=gamma_val(),
                   initial=LOCK_STACK_INITIAL, universe=CORPUS_UNIVERSE, bounds=DEFAULT_BOUNDS)


def plain_stack_program() -> Program:
    return Program(Algebra.RAM, library=plain_stack(), gamma=gamma_val(),
                   initial=PLAIN_INITIAL, universe=CORPUS_UNIVERSE, bounds=DEFAULT_BOUNDS)


def client_program() -> Program:
    return Program(Algebra.RAM, client=push_pop_client(), gamma=gamma_val(),
                   initial=CLIENT_INITIAL, universe=CORPUS_UNIVERSE, bounds=DEFAULT_BOUNDS)
