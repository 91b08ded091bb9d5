"""The benchmark's span tracer still finds what it wraps in the program.

``bench/tracer.py`` patches every binding of a list of ownlin functions; a
function renamed, moved or no longer imported where it is called leaves a
span unbound and a per-layer metric reading 0.  This test reads the tracer
from ``bench/`` and changes nothing there.
"""

import importlib
import importlib.util
import os
import sys

from ownlin import corpus
from ownlin.checker import Status
from ownlin.lang import Bounds
from ownlin.semantics import interf

_TRACER = os.path.join(os.path.dirname(__file__), "..", "bench", "tracer.py")


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # its dataclasses look the module up by name
    return module


def test_tracer_binds_every_span_and_counts_a_spec_check():
    tracer_module = _load_tracer()
    gamma, bounds = corpus.gamma_val(), Bounds(1, 1, 2, 6)
    spec = interf(corpus.mini_stack(), gamma, corpus.MINI_INITIAL, bounds)
    tracer = tracer_module.Tracer("spans")
    tracer.install()
    try:
        unbound = [f"{m}.{n}" for m, n in tracer_module.SPANNED
                   if not hasattr(getattr(importlib.import_module(f"ownlin.{m}"), n),
                                  "__wrapped__")]
        checker = importlib.import_module("ownlin.checker")
        verdict = checker.abstraction_check_spec(
            corpus.push_pop_client(), gamma, corpus.CLIENT_INITIAL, corpus.mini_stack_slow(),
            corpus.MINI_INITIAL, spec, bounds, corpus.CORPUS_UNIVERSE)
    finally:
        tracer.uninstall()
    assert not unbound
    assert verdict.status is Status.HOLDS_AT_BOUNDS
    metrics = tracer.metrics()
    for name in ("semantics.client_pairs", "semantics.concrete_behaviours",
                 "semantics.interface_entries", "history.linearized_by_calls"):
        assert metrics[name] > 0, name
