"""Specification extension and the frame rule for linearizability.

An extended contract transfers strictly more state per call/return than its
base (each extended piece splits as base piece * remainder).  A library that
never touches the extra pieces keeps them intact end to end; checking that is
what lets linearizability proved against the base contract carry over to the
extended one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

from .algebra import State, StateUniverse, star, star_set, state_sub, sub_pred
from .checker import Status
from .history import History, InterfaceAction, Kind, LeqReport, interface_set_leq
from .lang import Bounds, Library, MethodSpec, TOP, Top, Trace
from .semantics import (
    HistoryTrie,
    UnsafeComponentError,
    _histories_by_state,
    _history_trie,
    _interface_set_of,
    _nonempty,
    history_of,
    least_library_trace,
)


def extends(extended: MethodSpec, base: MethodSpec, universe: StateUniverse) -> bool:
    """Every extended pre/post state splits off a base pre/post substate."""
    ext_names, base_names = set(extended.method_names), set(base.method_names)
    if ext_names != base_names:
        raise ValueError("method sets differ: " + ", ".join(
            [f"{m!r} only in the extended contract" for m in sorted(ext_names - base_names)]
            + [f"{m!r} only in the base contract" for m in sorted(base_names - ext_names)]))
    for m in base.method_names:
        for t in universe.threads:
            # both kinds are read first: a thread either contract lacks raises
            for ext_pred, base_pred in [(extended.transfer(k, m, t), base.transfer(k, m, t))
                                        for k in Kind]:
                for sigma in ext_pred.states:
                    if not any(state_sub(sigma, piece) is not None
                               for piece in base_pred.states):
                        return False
    return True


class SplitViolation(ValueError):
    """An interface action whose state does not split against the contract."""

    def __init__(self, action: InterfaceAction):
        super().__init__(f"transferred state does not split against the contract: {action!r}")
        self.action = action


def _split(action: InterfaceAction, gamma: MethodSpec) -> tuple[State, State]:
    parts = sub_pred(action.transferred, gamma.transfer(action.kind, action.method, action.thread))
    if parts is None:
        raise SplitViolation(action)
    extra, piece = parts
    return piece, extra


def floor_action(action: InterfaceAction, gamma: MethodSpec) -> InterfaceAction:
    """The part of the transferred state the base contract requires."""
    piece, _ = _split(action, gamma)
    return InterfaceAction(action.thread, action.kind, action.method, piece)


def ceil_action(action: InterfaceAction, gamma: MethodSpec) -> InterfaceAction:
    """The extra transferred state beyond the base contract."""
    _, extra = _split(action, gamma)
    return InterfaceAction(action.thread, action.kind, action.method, extra)


def ceil_history(h: Sequence[InterfaceAction], gamma: MethodSpec) -> History:
    return tuple(ceil_action(a, gamma) for a in h)


def floor_trace(tau: Trace, gamma: MethodSpec) -> Trace:
    return tuple(floor_action(a, gamma) if isinstance(a, InterfaceAction) else a
                 for a in tau)


def extra_eval(h: Sequence[InterfaceAction], sigma: State) -> State | Top:
    """Fold the extra pieces over a (ceil-projected) history.

    Faults when a return demands extra state that was never transferred in or
    that the library modified; a non-fault means the framed-out state came
    back to the client untouched.
    """
    cur = sigma
    for a in h:
        cur = _extra_step(cur, a)
        if cur is None:
            return TOP
    return cur


def _extra_step(cur: State, a: InterfaceAction) -> Optional[State]:
    if a.kind is Kind.CALL:
        return star(cur, a.transferred)
    return state_sub(cur, a.transferred)


@dataclass(frozen=True)
class Hypothesis4Witness:
    initial_base: State
    initial_extra: State
    trace: Trace
    failing_prefix: History
    failing_index: int


@dataclass(frozen=True)
class FrameReport:
    status: Status
    extends_ok: bool
    safety: tuple[tuple[str, bool], ...]
    hypothesis4_ok: bool
    hypothesis4_witness: Optional[Hypothesis4Witness]
    base_lin: Optional[LeqReport]
    direct_check: Optional[LeqReport]

    def lines(self) -> tuple[str, ...]:
        out = [f"extends: {'ok' if self.extends_ok else 'FAILED'}"]
        out += [f"safety {label}: {'ok' if ok else 'FAILED'}" for label, ok in self.safety]
        out.append(f"framed-state preservation: "
                   f"{'ok' if self.hypothesis4_ok else 'FAILED (fault in extra-state fold)'}")
        if self.hypothesis4_witness is not None:
            w = self.hypothesis4_witness
            out.append(f"  witness: from {w.initial_base!r} * {w.initial_extra!r}, "
                       f"extra history {w.failing_prefix!r} "
                       f"fails at action {w.failing_index}")
        if self.base_lin is not None:
            out.append(f"base-contract linearizability: "
                       f"{'ok' if self.base_lin.holds else 'FAILED'}")
        if self.direct_check is not None:
            out.append(f"extended-contract check (direct): "
                       f"{'ok' if self.direct_check.holds else 'FAILED'}")
        out.append(f"verdict: {self.status.value}")
        return tuple(out)


def check_framed_state_preserved(lib: Library, gamma: MethodSpec, gamma_ext: MethodSpec,
                                 initial_base: Iterable[State], initial_extra: Iterable[State],
                                 bounds: Bounds) -> Optional[Hypothesis4Witness]:
    """Find a library behaviour under the extended contract whose extra-state
    fold faults, or ``None`` when the framed-out state is always preserved.
    An empty ``initial_base`` or ``initial_extra`` raises ``ValueError``: with
    no combined initial state every fold would pass vacuously."""
    initial_base = _nonempty("initial_base", initial_base)
    initial_extra = _nonempty("initial_extra", initial_extra)
    return _preservation_witness(lib, gamma, gamma_ext, initial_base, initial_extra, bounds,
                                 lambda c: _history_trie(lib, gamma_ext, c, bounds,
                                                         " under the extended contract"))


def _preservation_witness(lib: Library, gamma: MethodSpec, gamma_ext: MethodSpec,
                          initial_base: Iterable[State], initial_extra: Iterable[State],
                          bounds: Bounds, trie_at: Callable[[State], HistoryTrie]
                          ) -> Optional[Hypothesis4Witness]:
    """``check_framed_state_preserved`` over the history trie that
    ``trie_at`` gives for each combined initial state."""
    for sigma0 in sorted(initial_base, key=State.sort_key):
        for sigma_extra in sorted(initial_extra, key=State.sort_key):
            combined = star(sigma0, sigma_extra)
            if combined is None:
                continue
            # a history's fold is its parent's plus one action; one failing where its
            # parent did not is a cut; traces are prefix-closed, so the least fails at one
            extras, cuts = [sigma_extra], set()
            for h, parent in trie_at(combined)[1:]:
                cur = extras[parent]
                if cur is not None:
                    try:
                        cur = _extra_step(cur, ceil_action(h[-1], gamma))
                    except SplitViolation:
                        cur = None
                    if cur is None:
                        cuts.add(h)
                extras.append(cur)
            if cuts:
                tau = least_library_trace(lib, gamma_ext, combined, bounds, cuts)
                # a cut that does not split raises here, as it must; one that
                # does fails at its last action, its parent having folded
                ceil = ceil_history(history_of(tau), gamma)
                return Hypothesis4Witness(sigma0, sigma_extra, tau, ceil, len(ceil) - 1)
    return None


def frame_check(lib1: Library, lib2: Library, gamma: MethodSpec, gamma_ext: MethodSpec,
                initial1: Iterable[State], initial2: Iterable[State],
                initial_extra: Iterable[State], bounds: Bounds,
                universe: StateUniverse) -> FrameReport:
    """Frame-rule harness: conclude extended-contract linearizability from
    base-contract linearizability plus preservation of the framed-out state,
    then cross-check the conclusion by brute force at the same bounds.

    All hypotheses are bounded checks; a passing verdict reads
    "holds-at-bounds", never an unconditional claim.  An imprecise contract,
    an empty ``initial1`` or ``initial_extra``, and a universe thread the
    contract lacks raise ``ValueError``.
    """
    initial1 = _nonempty("initial1", initial1)
    initial2 = frozenset(initial2)
    initial_extra = _nonempty("initial_extra", initial_extra)
    gamma.check_precise(universe)
    gamma_ext.check_precise(universe)
    ext_ok = extends(gamma_ext, gamma, universe)

    histories: dict[str, Optional[dict[State, HistoryTrie]]] = {}
    checks = [
        ("lib1:base", lib1, gamma, initial1),
        ("lib2:base", lib2, gamma, initial2),
        ("lib1:extended", lib1, gamma_ext, star_set(initial1, initial_extra)),
        ("lib2:extended", lib2, gamma_ext, star_set(initial2, initial_extra)),
    ]
    for label, lib, g, states in checks:
        try:
            histories[label] = _histories_by_state(lib, g, states, bounds)
        except UnsafeComponentError:
            histories[label] = None
    safety = tuple((label, hs is not None) for label, hs in histories.items())
    interfs = {label: None if hs is None else _interface_set_of(hs)
               for label, hs in histories.items()}

    hyp4_witness, hyp4_ok = None, False
    if histories["lib1:extended"] is not None:
        # the preservation fold reads the history tries of lib1's extended walk
        hyp4_witness = _preservation_witness(
            lib1, gamma, gamma_ext, initial1, initial_extra, bounds,
            histories["lib1:extended"].__getitem__)
        hyp4_ok = hyp4_witness is None

    base_lin = None
    if interfs["lib1:base"] is not None and interfs["lib2:base"] is not None:
        base_lin = interface_set_leq(interfs["lib1:base"], interfs["lib2:base"])

    hypotheses_ok = (ext_ok and all(ok for _, ok in safety) and hyp4_ok
                     and base_lin is not None and base_lin.holds)

    direct = None
    if interfs["lib1:extended"] is not None and interfs["lib2:extended"] is not None:
        direct = interface_set_leq(interfs["lib1:extended"], interfs["lib2:extended"])

    if not hypotheses_ok:
        status = Status.HYPOTHESIS_FAILED
    elif direct is None or not direct.holds:
        # the rule's conclusion must agree with brute force; disagreement
        # would falsify the implementation, so surface it loudly
        status = Status.VIOLATED
    else:
        status = Status.HOLDS_AT_BOUNDS

    return FrameReport(status, ext_ok, safety, hyp4_ok, hyp4_witness,
                       base_lin, direct)
