import functools
import importlib
import os
import random
import subprocess
import sys
from types import MappingProxyType

import pytest

from ownlin import corpus, delta, linearized_by, ram
from ownlin.history import InterfaceAction, Kind, call, is_sequential, ret
from ownlin.lang import Bounds
from ownlin.rearrange import client_rearrange, rearrange, try_swap
from ownlin.semantics import (
    client_trace_member,
    denote_client,
    denote_library,
    history_of,
    library_trace_member,
)

from helpers import delinearize

GAMMA = corpus.gamma_val()
BOUNDS = corpus.DEFAULT_BOUNDS
LIBRARY_RULES = {"non-ret-before-call", "ret-before-call-balanced", "ret-before-non-call"}
CLIENT_RULES = {"non-call-before-ret", "call-before-ret-balanced", "call-before-non-ret"}


def _rules(log) -> set[str]:
    return {w.rule for s in log.stages for w in s.swaps}


def _traces_by_history(lib, initial):
    sigma0 = next(iter(initial))
    d = denote_library(lib, GAMMA, sigma0, BOUNDS)
    by_hist = {}
    for tau in d.traces:
        by_hist.setdefault(history_of(tau), []).append(tau)
    return sigma0, MappingProxyType({h: tuple(taus) for h, taus in by_hist.items()})


@pytest.fixture(scope="module")
def library_traces_by_history():
    """(an initial state, the library's traces from it by history), built once
    per (library, initial set) in this module and shared, so read-only."""
    return functools.cache(_traces_by_history)


def test_try_swap_cmd_before_call(library_traces_by_history):
    sigma0, by_hist = library_traces_by_history(corpus.mini_stack(), corpus.MINI_INITIAL)
    for traces in by_hist.values():
        for tau in traces:
            for i in range(len(tau) - 1):
                a, b = tau[i], tau[i + 1]
                if (a.thread != b.thread
                        and not (isinstance(a, InterfaceAction) and a.kind is Kind.RET)
                        and isinstance(b, InterfaceAction) and b.kind is Kind.CALL):
                    out = try_swap(corpus.mini_stack(), GAMMA, sigma0, tau, i, BOUNDS)
                    assert out is not None
                    assert library_trace_member(corpus.mini_stack(), GAMMA, sigma0, out, BOUNDS)
                    return
    pytest.skip("no candidate pair found")


def test_try_swap_ret_before_non_call(library_traces_by_history):
    sigma0, by_hist = library_traces_by_history(corpus.mini_stack(), corpus.MINI_INITIAL)
    for traces in by_hist.values():
        for tau in traces:
            for i in range(len(tau) - 1):
                a, b = tau[i], tau[i + 1]
                if (a.thread != b.thread
                        and isinstance(a, InterfaceAction) and a.kind is Kind.RET
                        and not (isinstance(b, InterfaceAction) and b.kind is Kind.CALL)):
                    out = try_swap(corpus.mini_stack(), GAMMA, sigma0, tau, i, BOUNDS)
                    assert out is not None
                    return
    pytest.skip("no candidate pair found")


def test_try_swap_refuses_unbalancing_ret_call_swap():
    # a library holding nothing: lending the cell out and taking it back is
    # fine, but taking it back before lending it out is not
    from ownlin.lang import ParamPredicate  # noqa: F401  (readability import)
    from ownlin.algebra import ParamPredicate
    from ownlin.lang import Prim, SKIP, library, method_spec

    gamma = method_spec({"m": (
        ParamPredicate.from_fn(lambda t: [ram({10: 0})], (1, 2)),
        ParamPredicate.from_fn(lambda t: [ram({10: 0})], (1, 2)),
    )})
    lib = library({"m": Prim(SKIP)})
    sigma0 = ram({})
    b = Bounds(1, 1, 2, 10)
    d = denote_library(lib, gamma, sigma0, b)
    target = None
    for tau in d.traces:
        h = history_of(tau)
        for i in range(len(tau) - 1):
            a, c = tau[i], tau[i + 1]
            if (isinstance(a, InterfaceAction) and a.kind is Kind.RET
                    and isinstance(c, InterfaceAction) and c.kind is Kind.CALL
                    and a.thread != c.thread):
                target = (tau, i)
    assert target is not None
    tau, i = target
    # swapping the return past the call would have the cell owned twice
    assert try_swap(lib, gamma, sigma0, tau, i, b) is None


def test_rearrange_identity(library_traces_by_history):
    sigma0, by_hist = library_traces_by_history(corpus.mini_stack(), corpus.MINI_INITIAL)
    h = max(by_hist, key=len)
    tau = by_hist[h][0]
    out, log = rearrange(corpus.mini_stack(), GAMMA, sigma0, tau, h, delta(sigma0), BOUNDS)
    assert out == tau
    assert all(not s.swaps for s in log.stages)


def test_rearrange_delinearizes_sequential_trace(library_traces_by_history):
    sigma0, by_hist = library_traces_by_history(corpus.plain_stack(), corpus.PLAIN_INITIAL)
    rng = random.Random(3)
    done = 0
    rules = set()
    seq_hists = [h for h in sorted(by_hist, key=lambda h: (-len(h), repr(h)))
                 if len(h) >= 4 and is_sequential(h)]
    for h2 in seq_hists:
        target = delinearize(rng, h2, 3)
        if target == h2 or target not in by_hist:
            # the library-local denotation is the oracle for realizability:
            # only aim at histories it actually produces
            continue
        assert linearized_by(target, h2) is not None
        tau = max(by_hist[h2], key=len)
        out, log = rearrange(corpus.plain_stack(), GAMMA, sigma0, tau, target,
                             delta(sigma0), BOUNDS)
        assert history_of(out) == target
        assert library_trace_member(corpus.plain_stack(), GAMMA, sigma0, out, BOUNDS)
        rules |= _rules(log)
        done += 1
        if done >= 10:
            break
    assert done >= 5
    assert rules == LIBRARY_RULES


def test_rearrange_rejects_bad_preconditions(library_traces_by_history):
    sigma0, by_hist = library_traces_by_history(corpus.mini_stack(), corpus.MINI_INITIAL)
    h = max(by_hist, key=len)
    tau = by_hist[h][0]
    other = (InterfaceAction(1, Kind.CALL, "push", ram({1: 7})),)
    if other != h[:1]:
        with pytest.raises(ValueError):
            rearrange(corpus.mini_stack(), GAMMA, sigma0, tau, other + h[1:],
                      delta(sigma0), BOUNDS)


def test_client_rearrange_identity_and_alignment():
    client = corpus.push_pop_client()
    sigma = next(iter(corpus.CLIENT_INITIAL))
    d = denote_client(client, GAMMA, sigma, BOUNDS)
    by_hist = {}
    for tau in d.traces:
        by_hist.setdefault(history_of(tau), []).append(tau)
    h = max(by_hist, key=lambda h: (len(h), repr(h)))
    kappa = max(by_hist[h], key=len)
    out, log = client_rearrange(client, GAMMA, sigma, kappa, h, BOUNDS)
    assert out == kappa

    # align a concurrent client trace to a sequential target
    rng = random.Random(9)
    done = 0
    for target in sorted(by_hist, key=lambda h: (-len(h), repr(h))):
        if len(target) < 4 or not is_sequential(target):
            continue
        for src in sorted(by_hist, key=lambda h: (len(h), repr(h))):
            if src == target or len(src) != len(target):
                continue
            if linearized_by(src, target) is None:
                continue
            kappa = max(by_hist[src], key=len)
            out, _ = client_rearrange(client, GAMMA, sigma, kappa, target,
                                      BOUNDS)
            assert history_of(out) == target
            assert client_trace_member(client, GAMMA, sigma, out, BOUNDS)
            # trace equivalence: per-thread projections unchanged
            for t in (1, 2):
                assert tuple(a for a in kappa if a.thread == t) == \
                    tuple(a for a in out if a.thread == t)
            done += 1
            break
        if done >= 5:
            break
    assert done >= 3


def test_client_rearrange_uses_the_mirrored_rules():
    client = corpus.push_pop_client()
    sigma = next(iter(corpus.CLIENT_INITIAL))
    by_hist = {}
    for tau in denote_client(client, GAMMA, sigma, BOUNDS).traces:
        by_hist.setdefault(history_of(tau), []).append(tau)
    src = (call(1, "push", ram({1: 7})), call(2, "push", ram({2: 8})),
           ret(1, "push", ram({1: 0})), ret(2, "push", ram({2: 0})))
    targets = [h for h in by_hist if h != src and linearized_by(src, h) is not None]
    assert targets
    rules = set()
    for kappa in by_hist[src]:
        for target in targets:
            out, log = client_rearrange(client, GAMMA, sigma, kappa, target, BOUNDS)
            assert history_of(out) == target
            rules |= _rules(log)
    assert rules == CLIENT_RULES


def test_each_stage_searches_for_its_witness_once(library_traces_by_history, monkeypatch):
    # the precondition's search gives stage 0 its witness and each stage's
    # after-check the next one's: one search per stage, plus the entry check
    calls = []

    def counted(h, h2):
        calls.append(h)
        return linearized_by(h, h2)

    # the package exports a function named like the module
    monkeypatch.setattr(importlib.import_module("ownlin.rearrange"), "linearized_by", counted)
    sigma0, by_hist = library_traces_by_history(corpus.plain_stack(), corpus.PLAIN_INITIAL)
    rng = random.Random(3)
    runs = []
    for h2 in sorted(by_hist, key=lambda h: (-len(h), repr(h)))[:40]:
        target = delinearize(rng, h2, 3)
        if target in by_hist:
            calls.clear()
            _, log = rearrange(corpus.plain_stack(), GAMMA, sigma0, max(by_hist[h2], key=len),
                               target, delta(sigma0), BOUNDS)
            runs.append((len(calls), len(target) + 1, any(s.swaps for s in log.stages)))
    client = corpus.push_pop_client()
    sigma = next(iter(corpus.CLIENT_INITIAL))
    kappas = {}
    for kappa in denote_client(client, GAMMA, sigma, BOUNDS).traces:
        kappas.setdefault(history_of(kappa), kappa)
    for src in sorted(kappas, key=lambda h: (-len(h), repr(h)))[:40]:
        for target in sorted(kappas, key=repr):
            if len(target) == len(src) and linearized_by(src, target) is not None:
                calls.clear()
                _, log = client_rearrange(client, GAMMA, sigma, kappas[src], target, BOUNDS)
                runs.append((len(calls), len(target) + 1, any(s.swaps for s in log.stages)))
    assert all(got == want for got, want, _ in runs)
    assert {swapped for _, _, swapped in runs} == {True, False}


# Loses the witness from the second search on: the precondition's search
# finds stage 0's, so only the re-check after that stage can notice.
_STRIPPED_ASSERTS = """
import importlib
from ownlin import corpus, delta
from ownlin.semantics import denote_client, denote_library, history_of

r = importlib.import_module("ownlin.rearrange")  # the package exports a function of that name
real, calls = r.linearized_by, []

def first_only(h, h2):
    calls.append(h)
    return real(h, h2) if len(calls) == 1 else None

r.linearized_by = first_only
g, b = corpus.gamma_val(), corpus.DEFAULT_BOUNDS

def one_action(d):
    return min((t for t in d.traces if len(history_of(t)) == 1), key=lambda t: (len(t), repr(t)))

lib, sigma0 = corpus.mini_stack(), next(iter(corpus.MINI_INITIAL))
client, sigma = corpus.push_pop_client(), next(iter(corpus.CLIENT_INITIAL))
tau = one_action(denote_library(lib, g, sigma0, b))
kappa = one_action(denote_client(client, g, sigma, b))
for run in (lambda: r.rearrange(lib, g, sigma0, tau, history_of(tau), delta(sigma0), b),
            lambda: r.client_rearrange(client, g, sigma, kappa, history_of(kappa), b)):
    calls.clear()
    try:
        run()
        print("no error")
    except r.ConflictError as exc:
        print(exc)
"""


def test_invariant_checks_survive_python_O():
    src = os.path.join(os.path.dirname(__file__), "..", "src")
    r = subprocess.run([sys.executable, "-O", "-c", _STRIPPED_ASSERTS],
                       env=dict(os.environ, PYTHONPATH=src),
                       capture_output=True, text=True, check=True)
    assert r.stdout.splitlines() == ["linearization witness lost after stage 0"] * 2
