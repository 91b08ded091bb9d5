"""Constructive trace rearrangement via validity-checked adjacent swaps.

Given a library trace and a target history that the trace's history
linearizes, the staged procedure below rewrites the trace, one adjacent swap
at a time, into a trace of the same library whose history is exactly the
target.  In the library-local semantics a swap may bring a call earlier past
anything but a return, bring it earlier past a return only when the swapped
history stays balanced, and push a return later past anything but a call.
The client side is the mirror image (returns move earlier, calls later, and
the client gains state at returns); one procedure, ``_align``, serves both
sides, told apart by the kind that moves earlier.

A balanced-swap gate that fails would exhibit a conflicting pair of
histories, which cannot exist; ``ConflictError`` therefore signals an
implementation bug, never an input problem.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from ._record import record
from .algebra import State
from .footprint import Footprint, delta, foot_leq
from .history import (
    History,
    InterfaceAction,
    Kind,
    LinWitness,
    evaluate_footprint,
    is_balanced,
    linearized_by,
)
from .lang import Bounds, ClientProgram, Library, MethodSpec, Trace, is_interface
from .semantics import client_trace_member, equivalence_key, history_of, library_trace_member


@record
class SwapStep:
    position: int
    rule: str


@record
class StageRecord:
    stage: int
    prefix_len: int
    swaps: tuple[SwapStep, ...]


@record
class RearrangeLog:
    stages: tuple[StageRecord, ...]

    def as_dict(self) -> dict:
        return {
            "stages": [
                {
                    "stage": s.stage,
                    "prefix_len": s.prefix_len,
                    "swaps": [{"position": w.position, "rule": w.rule} for w in s.swaps],
                }
                for s in self.stages
            ]
        }


class ConflictError(AssertionError):
    """An invariant of the rearrangement failed, such as a balanced-swap gate
    (conflicting histories cannot exist); this marks a bug in the procedure
    itself.  Raised explicitly, so ``python -O`` keeps the checks."""


def _swapped(trace: Trace, i: int) -> Trace:
    return trace[:i] + (trace[i + 1], trace[i]) + trace[i + 2:]


def _late(early: Kind) -> Kind:
    return Kind.RET if early is Kind.CALL else Kind.CALL


def _swap_rule(early: Kind, a, b, swapped_history, initial: Footprint) -> Optional[str]:
    """The rule that lets ``b`` move earlier past ``a``, or ``None``.

    ``early`` is the kind that moves earlier: calls on the library side,
    returns on the client side.  An ``early`` action may move earlier past
    anything, past an action of the other kind only when the swapped history
    stays balanced; an action of the other kind may move later past anything."""
    late = _late(early)
    a_late = is_interface(a) and a.kind is late
    b_early = is_interface(b) and b.kind is early
    if not a_late and b_early:
        return f"non-{late.value}-before-{early.value}"
    if a_late and b_early:
        if evaluate_footprint(swapped_history, initial, gains=early) is None:
            return None
        return f"{late.value}-before-{early.value}-balanced"
    if a_late:
        return f"{late.value}-before-non-{early.value}"
    return None


def try_swap(lib: Library, gamma: MethodSpec, sigma0: State, trace: Trace,
             i: int, bounds: Bounds) -> Optional[Trace]:
    """Swap positions i and i+1 when a swap rule licenses it.

    The result is re-verified by membership in the library-local denotation
    rather than trusted from the rule.
    """
    if not 0 <= i < len(trace) - 1:
        raise IndexError(i)
    a, b = trace[i], trace[i + 1]
    if a.thread == b.thread:
        return None
    out = _swapped(trace, i)
    rule = _swap_rule(Kind.CALL, a, b, history_of(out), delta(sigma0))
    if rule is None:
        return None
    if not library_trace_member(lib, gamma, sigma0, out, bounds):
        return None
    return out


def _interface_positions(trace: Trace) -> list[int]:
    return [i for i, a in enumerate(trace) if is_interface(a)]


def rearrange(lib: Library, gamma: MethodSpec, sigma0: State, trace: Trace,
              target_history: Sequence[InterfaceAction], target_initial: Footprint,
              bounds: Bounds) -> tuple[Trace, RearrangeLog]:
    """Rewrite a library trace into one whose history is ``target_history``.

    Preconditions (checked): the trace is in the library-local denotation
    from ``sigma0``; the target history is balanced from ``target_initial``;
    the target pair is linearized by the trace's pair, i.e.
    ``delta(sigma0)`` is below ``target_initial`` and the target history is
    linearized by the trace's history.
    """
    H = tuple(target_history)
    if not is_balanced(H, target_initial):
        raise ValueError("target history not balanced from its initial footprint")
    if not foot_leq(delta(sigma0), target_initial):
        raise ValueError("trace-side initial footprint must be below the target's")
    w = linearized_by(H, history_of(trace))
    if w is None:
        raise ValueError("target history is not linearized by the trace's history")
    return _align(Kind.CALL, lambda tau: library_trace_member(lib, gamma, sigma0, tau, bounds),
                  trace, H, w, delta(sigma0))


def client_rearrange(client: ClientProgram, gamma: MethodSpec, sigma: State,
                     trace: Trace, target_history: Sequence[InterfaceAction],
                     bounds: Bounds) -> tuple[Trace, RearrangeLog]:
    """Rewrite a client trace into an equivalent one with the target history.

    Requires the trace's history to be linearized by the target.  The result
    has identical per-thread projections and an identical non-interface
    projection (trace equivalence), which together with the new history is
    what the interface-set abstraction argument needs.
    """
    H = tuple(target_history)
    w = linearized_by(history_of(trace), H)
    if w is None:
        raise ValueError("trace history is not linearized by the target history")
    return _align(Kind.RET, lambda tau: client_trace_member(client, gamma, sigma, tau, bounds),
                  trace, H, w, delta(sigma))


_WORD = {Kind.CALL: "call", Kind.RET: "return"}


def _align(early: Kind, member: Callable[[Trace], bool], trace: Trace, H: History,
           w: LinWitness, initial: Footprint) -> tuple[Trace, RearrangeLog]:
    """Bring the target's actions into place one stage at a time.

    Stage ``k`` takes the trace action that the witness ``w`` matches to
    ``H[k]``; the caller's precondition finds stage 0's, each stage's
    after-check the next one's.  An ``early`` action slides left past the
    actions before it; otherwise the blocking ``late`` actions, leftmost
    first, are pushed right past it.  ``member`` decides membership in the
    side's local denotation and re-verifies every swap; ``initial`` is the
    side's own footprint, which gains state at ``early`` actions.  Each
    balanced swap is checked to commute, and each stage to leave the
    target's prefix in place with a witness for the rest.
    """
    late = _late(early)
    side = "library" if early is Kind.CALL else "client"
    if not member(trace):
        raise ValueError(f"trace is not in the {side}-local denotation")

    def do_swap(cur: Trace, pos: int, rule: str, swaps: list[SwapStep]) -> Trace:
        out = _swapped(cur, pos)
        if not member(out):
            raise ConflictError(
                f"swap at {pos} not reproducible in the {side}-local denotation")
        swaps.append(SwapStep(pos, rule))
        return out

    cur = trace
    stages: list[StageRecord] = []
    for k in range(len(H)):
        swaps: list[SwapStep] = []
        positions = _interface_positions(cur)
        p = positions[w.mapping[k] if early is Kind.CALL else w.mapping.index(k)]
        psi = H[k]
        if cur[p] != psi:
            raise ConflictError(f"witness matched {cur[p]!r} to {psi!r} at stage {k}")

        if psi.kind is early:
            # slide the matched action left until exactly k interface actions precede it
            while _interface_positions(cur).index(p) > k:
                a = cur[p - 1]
                if a.thread == psi.thread:
                    raise ConflictError(f"matched {_WORD[early]} blocked by its own thread")
                rule = _swap_rule(early, a, psi, history_of(_swapped(cur, p - 1)), initial)
                if rule is None:
                    raise ConflictError(f"unbalanced {_WORD[late]}/{_WORD[early]} swap "
                                        f"at stage {k} (conflicting pair)")
                if rule.endswith("-balanced"):
                    _check_swap_commutes(cur, p - 1, initial, early)
                cur = do_swap(cur, p - 1, rule, swaps)
                p -= 1
        else:
            # push the blocking actions (leftmost first) to just past the matched one
            while True:
                positions = _interface_positions(cur)
                if positions.index(p) == k:
                    break
                q = positions[k]
                blocker = cur[q]
                if not (is_interface(blocker) and blocker.kind is late):
                    raise ConflictError(f"unexpected {_WORD[early]} between matched prefix "
                                        f"and {_WORD[late]} at stage {k}")
                while q < p:
                    b = cur[q + 1]
                    if b.thread == blocker.thread:
                        raise ConflictError(
                            f"blocking {_WORD[late]} followed by its own thread")
                    rule = _swap_rule(early, blocker, b, history_of(_swapped(cur, q)), initial)
                    if rule is None:
                        raise ConflictError(
                            f"{_WORD[late]} blocked while moving right at stage {k}")
                    cur = do_swap(cur, q, rule, swaps)
                    q += 1
                p -= 1  # the matched action shifted left past one blocker

        h = history_of(cur)
        if h[:k + 1] != H[:k + 1]:
            raise ConflictError(f"history prefix differs from the target after stage {k}")
        # the library trace's history linearizes the target; on the client
        # side the target linearizes the trace's history
        w = linearized_by(H, h) if early is Kind.CALL else linearized_by(h, H)
        if w is None:
            raise ConflictError(f"linearization witness lost after stage {k}")
        stages.append(StageRecord(k, p + 1, tuple(swaps)))

    if history_of(cur) != H:
        raise ConflictError("rearranged history differs from the target")
    if equivalence_key(cur) != equivalence_key(trace):
        raise ConflictError("rearranged trace is not equivalent to the original")
    return cur, RearrangeLog(tuple(stages))


def _check_swap_commutes(trace: Trace, i: int, initial: Footprint, gains: Kind) -> None:
    # the footprint fold of ...late,early... equals that of ...early,late...
    # once both orders stay defined; this is the add/sub exchange law in action
    h = history_of(trace[:i])
    a, b = trace[i], trace[i + 1]
    before = evaluate_footprint(h + (a, b), initial, gains=gains)
    after = evaluate_footprint(h + (b, a), initial, gains=gains)
    if before is None or before != after:
        raise ConflictError(f"swap at {i} does not commute after {h!r}: {a!r}, {b!r}")
