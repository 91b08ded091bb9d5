"""Spans and counts around calls into ownlin's public functions.

Tracing patches module attributes from outside the program: every binding
of an instrumented function in an ``ownlin`` module (its home module and
each ``from .x import f`` copy) is replaced by a wrapper, so calls the
program makes between its own layers pass through it.  ``uninstall`` puts
the originals back.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

# (module, function) pairs wrapped in a span; the layer is the module name
SPANNED = (
    ("lang", "library_trace_set"),
    ("lang", "client_trace_set"),
    ("lang", "complete_trace_set"),
    ("semantics", "interf"),
    ("semantics", "denotation_pairs"),
    ("history", "interface_set_leq"),
    ("checker", "check_lin_code"),
    ("checker", "check_lin_interface_set"),
    ("checker", "abstraction_check_spec"),
    ("frame", "frame_check"),
    ("frame", "check_framed_state_preserved"),
)

# every per-layer metric, in the order the benchmark prints them
LAYER_METRICS = (
    ("lang.library_trace_set_s", "s"),
    ("lang.trace_prefixes", "count"),
    ("semantics.interf_s", "s"),
    ("semantics.interface_entries", "count"),
    ("semantics.interf_peak_alloc_mb", "MB"),
    ("semantics.denotation_pairs_s", "s"),
    ("semantics.concrete_behaviours", "count"),
    ("semantics.client_pairs", "count"),
    ("history.interface_set_leq_s", "s"),
    ("history.linearized_by_calls", "count"),
    ("history.witnesses_found", "count"),
    ("history.witness_ratio", "ratio"),
    ("history.matched_search_s", "s"),
    ("history.exhausted_search_s", "s"),
    ("checker.lin_hypothesis_s", "s"),
    ("checker.containment_s", "s"),
    ("frame.extended_interf_s", "s"),
    ("frame.preservation_s", "s"),
    ("frame.leq_s", "s"),
)

# counts that must repeat exactly between runs of the same inputs
EXACT_COUNTS = ("lang.trace_prefixes", "semantics.interface_entries",
                "semantics.concrete_behaviours", "semantics.client_pairs",
                "history.linearized_by_calls", "history.witnesses_found")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    size: int | None = None
    tag: str = ""
    args: tuple = field(default=(), repr=False)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {"name": self.name, "parent": self.parent, "start": self.start,
                "end": self.end, "self_s": self.duration - self.child_s,
                "size": self.size, "tag": self.tag}


def _bindings(fn):
    """Every (module, attribute) in ownlin bound to ``fn``."""
    for modname, mod in list(sys.modules.items()):
        if modname == "ownlin" or modname.startswith("ownlin."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    yield mod, attr


class Tracer:
    """Span tracer (``mode="spans"``) or allocation tracer around ``interf``
    (``mode="alloc"``)."""

    def __init__(self, mode: str):
        if mode not in ("spans", "alloc"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.lin_calls = 0
        self.lin_found = 0
        self.search_s: dict = {}  # left history -> linearized_by time
        self.matched_search_s = 0.0
        self.exhausted_search_s = 0.0
        self.interf_peak = 0
        self._patched: list = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"ownlin.{m}") for m, _ in SPANNED}
        if self.mode == "alloc":
            self._patch(modules["semantics"].interf, self._alloc_wrapper)
            return
        for module, name in SPANNED:
            self._patch(getattr(modules[module], name),
                        functools.partial(self._span_wrapper, f"{module}.{name}"))
        self._patch(modules["history"].linearized_by, self._lin_wrapper)

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()

    def _patch(self, fn, make) -> None:
        wrapper = functools.wraps(fn)(make(fn))
        for mod, attr in list(_bindings(fn)):
            self._patched.append((mod, attr, fn))
            setattr(mod, attr, wrapper)

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        def wrapper(*args, **kwargs):
            span = Span(name, self.stack[-1] if self.stack else None, 0.0, args=args)
            self.spans.append(span)
            self.stack.append(len(self.spans) - 1)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if span.parent is not None:
                    self.spans[span.parent].child_s += span.duration
            self._annotate(span, args, result)
            span.args = ()
            return result
        return wrapper

    def _lin_wrapper(self, fn):
        def wrapper(h, h2, *args, **kwargs):
            t0 = time.perf_counter()
            result = fn(h, h2, *args, **kwargs)
            dt = time.perf_counter() - t0
            self.lin_calls += 1
            if result is not None:
                self.lin_found += 1
            key = tuple(h)
            self.search_s[key] = self.search_s.get(key, 0.0) + dt
            return result
        return wrapper

    def _alloc_wrapper(self, fn):
        def wrapper(*args, **kwargs):
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                self.interf_peak = max(self.interf_peak, tracemalloc.get_traced_memory()[1])
                tracemalloc.stop()
        return wrapper

    def _annotate(self, span: Span, args: tuple, result) -> None:
        parent = self.spans[span.parent] if span.parent is not None else None
        if span.name.startswith("lang.") or span.name == "semantics.interf":
            span.size = len(result)
        elif span.name == "semantics.denotation_pairs":
            span.size = len(result)
            span.tag = args[0].kind
        elif span.name == "history.interface_set_leq":
            # attribute linearized_by time to entries that ended matched or not
            for e in result.entries:
                dt = self.search_s.pop(tuple(e.entry.history), 0.0)
                if e.matched is None:
                    self.exhausted_search_s += dt
                else:
                    self.matched_search_s += dt
            self.search_s.clear()
        if parent is not None and parent.name == "frame.frame_check":
            if span.name == "semantics.interf" and args[1] is parent.args[3]:
                span.tag = "extended"
        if parent is not None and parent.name.startswith("checker.abstraction_check"):
            if span.name.startswith("checker.check_lin"):
                span.tag = "hypothesis"

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        if self.mode == "alloc":
            return {"semantics.interf_peak_alloc_mb": self.interf_peak / 1e6}

        def total(pred) -> float:
            return sum(s.duration for s in self.spans if pred(s))

        def size(pred) -> int:
            return sum(s.size or 0 for s in self.spans if pred(s))

        def named(name):
            return lambda s: s.name == name

        def under(parent, name):
            return lambda s: (s.name == name and s.parent is not None
                              and self.spans[s.parent].name == parent)

        return {
            "lang.library_trace_set_s": total(named("lang.library_trace_set")),
            "lang.trace_prefixes": size(lambda s: s.name.startswith("lang.")),
            "semantics.interf_s": total(named("semantics.interf")),
            "semantics.interface_entries": size(named("semantics.interf")),
            "semantics.denotation_pairs_s": total(named("semantics.denotation_pairs")),
            "semantics.concrete_behaviours": size(
                lambda s: s.name == "semantics.denotation_pairs" and s.tag == "complete"),
            "semantics.client_pairs": size(
                lambda s: s.name == "semantics.denotation_pairs" and s.tag == "client"),
            "history.interface_set_leq_s": total(named("history.interface_set_leq")),
            "history.linearized_by_calls": self.lin_calls,
            "history.witnesses_found": self.lin_found,
            "history.witness_ratio": self.lin_found / self.lin_calls if self.lin_calls else 0.0,
            "history.matched_search_s": self.matched_search_s,
            "history.exhausted_search_s": self.exhausted_search_s,
            "checker.lin_hypothesis_s": total(lambda s: s.tag == "hypothesis"),
            "checker.containment_s": sum(
                s.duration - s.child_s for s in self.spans
                if s.name == "checker.abstraction_check_spec"),
            "frame.extended_interf_s": total(lambda s: s.tag == "extended"),
            "frame.preservation_s": total(named("frame.check_framed_state_preserved")),
            "frame.leq_s": total(under("frame.frame_check", "history.interface_set_leq")),
        }

    def span_records(self) -> list[dict]:
        return [s.as_dict() for s in self.spans]
