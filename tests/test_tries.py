"""The per-thread tries grown from the command tree, against trace sets built
set by set from the command semantics (``helpers.command_traces``).

A trie is fixed by its set of paths, which must be the prefix closure of the
thread's reference trace set.  Its child order follows the command tree, so
the walk, and the fault trace it reports, do not depend on the hash seed.  A
library's tries are those of its most general client, which must equal, child
order included, the tries grown round by hand (``helpers.reference_mgc_tries``).
"""

import itertools
import os
import random
import subprocess
import sys

import pytest

from ownlin import corpus
from ownlin.lang import (
    SKIP,
    Bounds,
    Choice,
    ClientProgram,
    Prim,
    Star,
    _interleave_prefixes,
    _Trie,
    client_trace_set,
    complete_trace_set,
    library,
    library_trace_set,
    most_general_client,
    seq,
    store,
)
from ownlin.semantics import _mgc_tries, _thread_tries

from helpers import (
    random_gamma,
    random_library,
    reference_client_threads,
    reference_library_threads,
    reference_mgc_tries,
)
from test_engine import ALL_IDS, ALL_LIBRARIES

BOUNDS = (Bounds(1, 1, 1, 6), Bounds(1, 2, 2, 6), Bounds(2, 1, 2, 5),
          Bounds(0, 1, 2, 5), Bounds(2, 1, 1, 7))

LIBRARIES = (
    ("lock_stack", corpus.lock_stack()),
    ("plain_stack", corpus.plain_stack()),
    ("plain_queue", corpus.plain_queue()),
    ("scribbler_stack", corpus.scribbler_stack()),
    ("mini_stack", corpus.mini_stack()),
    ("mini_stack_slow", corpus.mini_stack_slow()),
    ("mini_stack_scribbler", corpus.mini_stack_scribbler()),
    ("trivial_library", corpus.trivial_library()),
    ("nested_stars", library({"m": Star(Choice(Prim(SKIP), Star(Prim(store(4, 1)))))})),
    ("shared_prefix", library({"m": Choice(seq(Prim(SKIP), Prim(store(4, 1))),
                                           seq(Prim(SKIP), Prim(store(4, 2)))),
                               "n": Prim(SKIP)})),
    # equal branches join in one node, unequal ones in two, before the same
    # continuation
    ("joining_choice", library({"m": seq(Choice(Prim(SKIP), Prim(SKIP)), Prim(store(4, 1))),
                                "n": seq(Choice(Prim(SKIP), Prim(store(4, 2))), Prim(SKIP))})),
)

# (name, client, library its calls run in the complete program)
CLIENTS = (
    ("push_pop_1", corpus.push_pop_client(1), corpus.mini_stack()),
    ("push_pop_2", corpus.push_pop_client(2), corpus.lock_stack()),
    ("one_command", corpus.one_command_client(), corpus.trivial_library()),
)


def _paths(trie):
    out = set()

    def walk(node, path):
        out.add(path)
        for action, child in node.children.items():
            walk(child, path + (action,))

    walk(trie, ())
    return out


def _prefix_closure(traces):
    return {tau[:i] for tau in traces for i in range(len(tau) + 1)}


def _check(tries, reference, trace_set, bounds):
    assert [_paths(trie) for trie in tries] == [_prefix_closure(ts) for ts in reference]
    rebuilt = [_Trie.of(ts) for ts in reference]
    assert trace_set == frozenset(_interleave_prefixes(rebuilt, bounds.max_trace_len))


@pytest.mark.parametrize("bounds", BOUNDS, ids=str)
@pytest.mark.parametrize("name,lib", LIBRARIES, ids=[c[0] for c in LIBRARIES])
def test_library_tries_match_the_reference(name, lib, bounds):
    _check(_mgc_tries(lib, bounds), reference_library_threads(lib, bounds),
           library_trace_set(lib, bounds), bounds)


@pytest.mark.parametrize("bounds", BOUNDS, ids=str)
@pytest.mark.parametrize("name,client,lib", CLIENTS, ids=[c[0] for c in CLIENTS])
def test_client_and_complete_tries_match_the_reference(name, client, lib, bounds):
    _check(_thread_tries(client, None, bounds), reference_client_threads(client, None, bounds),
           client_trace_set(client, bounds), bounds)
    _check(_thread_tries(client, lib, bounds), reference_client_threads(client, lib, bounds),
           complete_trace_set(lib, client, bounds), bounds)


def _ordered(trie):
    """The trie as nested (action, subtree) pairs, children in their order."""
    return tuple((action, _ordered(child)) for action, child in trie.children.items())


def _random_libraries(seeds):
    for seed in seeds:
        rng = random.Random(seed)
        yield f"random-{seed}", random_library(rng, random_gamma(rng, ("a", "b")))


MGC_LIBRARIES = ([(name, lib) for name, (_, lib, _, _) in zip(ALL_IDS, ALL_LIBRARIES)]
                 + list(_random_libraries(range(4))))


@pytest.mark.parametrize("name,lib", MGC_LIBRARIES, ids=[name for name, _ in MGC_LIBRARIES])
def test_most_general_client_grows_the_reference_tries_in_order(name, lib):
    for iters, threads, unroll in itertools.product((1, 2, 3), (1, 2, 3), (1, 2)):
        bounds = Bounds(unroll, iters, threads, 8)
        got = _mgc_tries(lib, bounds)
        want = reference_mgc_tries(lib, bounds)
        assert [_ordered(t) for t in got] == [_ordered(t) for t in want]


def test_most_general_client_of_a_library_without_methods_has_no_thread():
    bounds = Bounds(1, 2, 2, 8)
    assert most_general_client(library({}), bounds) == ClientProgram(())
    assert library_trace_set(library({}), bounds) == frozenset({()})


def _reached_more_than_once(roots):
    """The nodes reached from ``roots`` along more than one edge or root."""
    reached: dict[int, int] = {}
    stack = list(roots)
    while stack:
        node = stack.pop()
        reached[id(node)] = reached.get(id(node), 0) + 1
        if reached[id(node)] == 1:
            stack.extend(node.children.values())
    return [n for n, count in reached.items() if count > 1]


@pytest.mark.parametrize("bounds", BOUNDS, ids=str)
def test_every_trie_node_has_one_parent_edge(bounds):
    # the product walk keys its memo by (node, state) for the action on the
    # node's one parent edge
    for _, lib in LIBRARIES:
        assert not _reached_more_than_once(_mgc_tries(lib, bounds))
        assert not _reached_more_than_once([_Trie.of(library_trace_set(lib, bounds))])
    for _, client, lib in CLIENTS:
        assert not _reached_more_than_once(_thread_tries(client, None, bounds))
        assert not _reached_more_than_once(_thread_tries(client, lib, bounds))


_FAULT_TRACES = """
from ownlin.lang import Bounds
from ownlin.semantics import UnsafeComponentError, denote_library, interf
from test_engine import FAULTING

bounds = Bounds(1, 2, 2, 8)
for name, lib, gamma, initial in FAULTING:
    (sigma,) = initial
    print(name, denote_library(lib, gamma, sigma, bounds).fault_trace)
    try:
        interf(lib, gamma, initial, bounds)
    except UnsafeComponentError as exc:
        print(name, exc.fault_trace)
"""


def test_fault_traces_do_not_depend_on_the_hash_seed():
    here = os.path.dirname(__file__)
    path = os.pathsep.join((os.path.join(here, "..", "src"), here))
    outputs = []
    for seed in ("0", "7"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
        run = subprocess.run([sys.executable, "-c", _FAULT_TRACES], env=env,
                             capture_output=True, text=True, timeout=300, check=True)
        outputs.append(run.stdout)
    assert outputs[0].count("\n") == 2 * 3
    assert outputs[0] == outputs[1]
