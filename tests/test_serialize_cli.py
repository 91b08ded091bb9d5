import copy
import json
import os
import random
from fractions import Fraction

import pytest

from ownlin import Algebra, corpus, delta, ram, ram_pi
from ownlin.algebra import ParamPredicate
from ownlin.checker import Status, check_lin_code
from ownlin.cli import main
from ownlin.footprint import Full, ram_foot, ram_pi_foot
from ownlin.history import BalancedHistory, call, interface_set, ret
from ownlin.lang import (
    SKIP,
    Bounds,
    CallMethod,
    ClientProgram,
    Prim,
    Program,
    library,
    method_spec,
)
from ownlin.semantics import _history_trie, history_of, interf
from ownlin import serialize

from helpers import delinearize, rearrange_source_oracle


def test_state_json_round_trip():
    for s in (ram({}), ram({1: 5}), ram_pi({42: (0, Fraction(1, 2))}),
              ram_pi({1: (7, 1), 2: (0, Fraction(1, 2))})):
        assert serialize.state_from_json(serialize.state_to_json(s)) == s
    assert serialize.state_to_json(ram({1: 5})) == {"alg": "ram", "cells": {"1": 5}}
    assert serialize.state_to_json(ram_pi({42: (0, Fraction(1, 2))})) == \
        {"alg": "ram_pi", "cells": {"42": [0, "1/2"]}}


def test_footprint_json_round_trip():
    for l in (ram_foot(), ram_foot([1, 2]),
              ram_pi_foot({42: (Fraction(1, 2), 0)}), ram_pi_foot({42: Full})):
        assert serialize.footprint_from_json(serialize.footprint_to_json(l)) == l
    assert serialize.footprint_to_json(ram_foot([1, 2])) == {"alg": "ram", "locs": [1, 2]}
    obj = serialize.footprint_to_json(ram_pi_foot({42: (Fraction(1, 2), 0)}))
    assert obj == {"alg": "ram_pi", "cells": {"42": {"perm": "1/2", "val": 0}}}
    assert serialize.footprint_to_json(ram_pi_foot({42: Full}))["cells"]["42"] == "full"


def test_history_json_round_trip():
    h = (call(1, "push", ram({1: 7})), ret(1, "push", ram({1: 0})))
    arr = serialize.history_to_json(h)
    assert arr[0]["t"] == 1 and arr[0]["k"] == "call" and arr[0]["m"] == "push"
    assert serialize.history_from_json(arr) == h


def test_program_json_round_trip():
    for prog in (corpus.lock_stack_program(), corpus.plain_stack_program(),
                 corpus.client_program()):
        obj = serialize.program_to_json(prog)
        assert serialize.program_from_json(obj) == prog


def test_program_loader_checks_precision():
    prog = corpus.plain_stack_program()
    obj = serialize.program_to_json(prog)
    # make the push postcondition imprecise: both the cell and nothing
    obj["gamma"]["push"]["post"]["1"].append({"alg": "ram", "cells": {}})
    with pytest.raises(ValueError):
        serialize.program_from_json(obj)


@pytest.mark.parametrize("field, value", [
    ("library", []), ("client", {"a": 1}), ("gamma", []), ("initial", "one state"),
    ("universe", []), ("bounds", []),
])
def test_program_loader_names_a_field_of_the_wrong_shape(field, value):
    obj = serialize.program_to_json(corpus.client_program())
    obj[field] = value
    with pytest.raises(ValueError, match=f"^{field}: expected a JSON"):
        serialize.program_from_json(obj)


@pytest.mark.parametrize("path, value, field", [
    (("initial", 0, "cells"), [], "cells"),
    (("gamma", "push"), [], "gamma push"),
    (("gamma", "push", "pre"), [], "gamma push pre"),
    (("gamma", "pop", "post"), "none", "gamma pop post"),
    (("gamma", "push", "post", "1"), {"alg": "ram", "cells": {}}, "gamma push post 1"),
    (("gamma", "pop", "pre", "2", 0, "cells"), [[2, 0]], "cells"),
])
def test_program_loader_names_an_inner_field_of_the_wrong_shape(path, value, field):
    obj = serialize.program_to_json(corpus.plain_stack_program())
    inner = obj
    for key in path[:-1]:
        inner = inner[key]
    inner[path[-1]] = value
    with pytest.raises(ValueError, match=f"^{field}: expected a JSON"):
        serialize.program_from_json(obj)


@pytest.mark.parametrize("obj, field", [
    ([], "interface set"),
    ({"entries": {}}, "entries"),
    ({"entries": [[]]}, "interface set entry"),
    ({"entries": [{"initial": {"alg": "ram", "locs": {}}, "history": []}]}, "locs"),
    ({"entries": [{"initial": {"alg": "ram_pi", "cells": []}, "history": []}]}, "cells"),
])
def test_interface_set_loader_names_a_field_of_the_wrong_shape(obj, field):
    with pytest.raises(ValueError, match=f"^{field}: expected a JSON"):
        serialize.interface_set_from_json(obj)


def test_interface_set_round_trip():
    hs = interf(corpus.mini_stack(), corpus.gamma_val(), corpus.MINI_INITIAL,
                Bounds(1, 1, 1, 8))
    obj = serialize.interface_set_to_json(hs)
    assert serialize.interface_set_from_json(obj) == hs


def _corpus_programs():
    small = Bounds(star_unroll=1, mgc_iters=1, mgc_threads=2, max_trace_len=8)
    return (
        ("mini", Program(Algebra.RAM, library=corpus.mini_stack(),
                         gamma=corpus.gamma_val(), initial=corpus.MINI_INITIAL,
                         universe=corpus.CORPUS_UNIVERSE, bounds=small)),
        ("mini_slow", Program(Algebra.RAM, library=corpus.mini_stack_slow(),
                              gamma=corpus.gamma_val(), initial=corpus.MINI_INITIAL,
                              universe=corpus.CORPUS_UNIVERSE, bounds=small)),
        ("scribbler", Program(Algebra.RAM, library=corpus.mini_stack_scribbler(),
                              gamma=corpus.gamma_val(), initial=corpus.MINI_INITIAL,
                              universe=corpus.CORPUS_UNIVERSE, bounds=small)),
        ("queue", Program(Algebra.RAM, library=corpus.plain_queue(),
                          gamma=corpus.gamma_val(), initial=corpus.PLAIN_INITIAL,
                          universe=corpus.CORPUS_UNIVERSE,
                          bounds=corpus.SEQUENTIAL_BOUNDS)),
        ("stack_seq", Program(Algebra.RAM, library=corpus.plain_stack(),
                              gamma=corpus.gamma_val(), initial=corpus.PLAIN_INITIAL,
                              universe=corpus.CORPUS_UNIVERSE,
                              bounds=corpus.SEQUENTIAL_BOUNDS)),
    )


@pytest.fixture()
def corpus_files(tmp_path):
    paths = {}
    for name, prog in _corpus_programs():
        p = tmp_path / f"{name}.json"
        serialize.dump_json(serialize.program_to_json(prog), str(p))
        paths[name] = str(p)
    return paths


def test_cli_check_lin(corpus_files, capsys):
    code = main(["check-lin", corpus_files["mini_slow"], corpus_files["mini"]])
    assert code == 0
    assert "holds-at-bounds" in capsys.readouterr().out


def test_cli_check_lin_violated(corpus_files, capsys):
    code = main(["--json", "check-lin", corpus_files["stack_seq"], corpus_files["queue"]])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["status"] == "violated"


def test_cli_check_balanced(tmp_path, capsys):
    h = (call(1, "m", ram({10: 0})), ret(1, "m", ram({10: 0})))
    hist = tmp_path / "hist.json"
    foot = tmp_path / "foot.json"
    serialize.dump_json(serialize.history_to_json(h), str(hist))
    serialize.dump_json(serialize.footprint_to_json(ram_foot()), str(foot))
    assert main(["check-balanced", str(hist), "--from", str(foot)]) == 0
    bad = (call(1, "m", ram({10: 0})), call(2, "m", ram({10: 0})))
    serialize.dump_json(serialize.history_to_json(bad), str(hist))
    assert main(["check-balanced", str(hist), "--from", str(foot)]) == 1


def test_cli_validate_algebra(capsys):
    assert main(["validate-algebra", "--alg", "ram"]) == 0
    assert main(["validate-algebra", "--alg", "ram_pi"]) == 0


def test_cli_dump_interf(corpus_files, capsys):
    assert main(["dump-interf", corpus_files["mini"]]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"]
    assert {"alg": "ram", "locs": [4, 5]} in [e["initial"] for e in payload["entries"]]


def test_cli_library_without_methods(tmp_path, capsys):
    # the most general client of a library with no methods makes no call: its
    # one behaviour is the empty history, from each initial state
    sigma = ram({4: 0})
    prog = Program(Algebra.RAM, library=library({}), gamma=method_spec({}),
                   initial=frozenset({sigma}), bounds=Bounds(1, 2, 2, 8))
    path = tmp_path / "empty_library.json"
    serialize.dump_json(serialize.program_to_json(prog), str(path))
    assert main(["check-lin", str(path), str(path)]) == 0
    assert capsys.readouterr().out == "holds-at-bounds: all 1 behaviours reproduced\n" \
        f"  {delta(sigma)!r} () -> {delta(sigma)!r} () via ()\n"
    assert main(["dump-interf", str(path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["entries"] == [{"initial": serialize.footprint_to_json(delta(sigma)),
                                   "history": []}]
    want = interface_set([BalancedHistory(delta(sigma), ())])
    assert interf(prog.library, prog.gamma, prog.initial, prog.bounds) == want


def _client_file(tmp_path) -> str:
    client = Program(Algebra.RAM, client=corpus.push_pop_client(1),
                     gamma=corpus.gamma_val(), initial=frozenset({ram({1: 7})}),
                     universe=corpus.CORPUS_UNIVERSE,
                     bounds=Bounds(1, 1, 1, 12))
    cpath = tmp_path / "client.json"
    serialize.dump_json(serialize.program_to_json(client), str(cpath))
    return str(cpath)


def test_cli_abstraction(corpus_files, tmp_path, capsys):
    code = main(["abstraction", _client_file(tmp_path), corpus_files["mini_slow"],
                 corpus_files["mini"]])
    assert code == 0


def _without_initial_states(path, tmp_path) -> str:
    obj = serialize.load_json(path)
    obj["initial"] = []
    empty = tmp_path / f"no_initial_{os.path.basename(path)}"
    serialize.dump_json(obj, str(empty))
    return str(empty)


def _vacuous(name: str) -> str:
    return f"{name} holds no initial state, so every check would pass vacuously"


def test_cli_abstraction_empty_initial_is_an_input_error(corpus_files, tmp_path, capsys):
    client = _client_file(tmp_path)
    for argv, name in (
            ([client, _without_initial_states(corpus_files["mini_slow"], tmp_path),
              corpus_files["mini"]], "initial1"),
            ([_without_initial_states(client, tmp_path), corpus_files["mini_slow"],
              corpus_files["mini"]], "initial")):
        assert main(["abstraction", *argv]) == 2
        assert capsys.readouterr().out == f"hypothesis-failed: {_vacuous(name)}\n"


def test_cli_check_lin_empty_initial_is_an_input_error(corpus_files, tmp_path, capsys):
    empty = _without_initial_states(corpus_files["mini_slow"], tmp_path)
    assert main(["check-lin", empty, corpus_files["mini"]]) == 2
    assert capsys.readouterr().out == f"hypothesis-failed: {_vacuous('initial1')}\n"


def _extension_file(tmp_path) -> str:
    ext = {
        "algebra": "ram",
        "gamma": serialize.gamma_to_json(corpus.gamma_val()),
        "gamma_extended": serialize.gamma_to_json(corpus.gamma_obj()),
        "initial_extra": [serialize.state_to_json(ram({}))],
    }
    epath = tmp_path / "ext.json"
    serialize.dump_json(ext, str(epath))
    return str(epath)


def test_cli_frame_check(corpus_files, tmp_path):
    code = main(["frame-check", corpus_files["mini_slow"], corpus_files["mini"],
                 _extension_file(tmp_path)])
    assert code == 0


def test_cli_frame_check_empty_initial_is_an_input_error(corpus_files, tmp_path, capsys):
    ext = _extension_file(tmp_path)
    empty = _without_initial_states(corpus_files["scribbler"], tmp_path)
    assert main(["frame-check", empty, corpus_files["mini"], ext]) == 2
    assert capsys.readouterr().err == f"error: {_vacuous('initial1')}\n"
    obj = serialize.load_json(ext)
    obj["initial_extra"] = []
    serialize.dump_json(obj, ext)
    assert main(["frame-check", corpus_files["scribbler"], corpus_files["mini"], ext]) == 2
    assert capsys.readouterr().err == f"error: {_vacuous('initial_extra')}\n"


def test_cli_extension_whose_initial_extra_is_not_an_array(corpus_files, tmp_path, capsys):
    path = _extension_file(tmp_path)
    ext = serialize.load_json(path)
    ext["initial_extra"] = 5
    serialize.dump_json(ext, path)
    assert main(["frame-check", corpus_files["mini_slow"], corpus_files["mini"], path]) == 2
    assert "error: initial_extra: expected a JSON array, got int" in capsys.readouterr().err


def test_cli_contract_not_covering_a_thread(corpus_files, tmp_path, capsys):
    code = main(["--mgc-threads", "3", "check-lin", corpus_files["mini_slow"],
                 corpus_files["mini"]])
    assert code == 2
    assert "hypothesis-failed" in capsys.readouterr().out
    code = main(["--mgc-threads", "3", "frame-check", corpus_files["mini_slow"],
                 corpus_files["mini"], _extension_file(tmp_path)])
    assert code == 2
    assert "thread 3" in capsys.readouterr().err


def _program_file(tmp_path, name, prog) -> str:
    path = tmp_path / f"{name}.json"
    serialize.dump_json(serialize.program_to_json(prog), str(path))
    return str(path)


def test_cli_abstraction_client_thread_the_contract_lacks(corpus_files, tmp_path, capsys):
    client = Program(Algebra.RAM, client=corpus.push_pop_client(3), gamma=corpus.gamma_val(),
                     initial=frozenset({ram({1: 7, 2: 8, 3: 7})}),
                     universe=corpus.CORPUS_UNIVERSE, bounds=Bounds(1, 1, 1, 12))
    code = main(["abstraction", _program_file(tmp_path, "client3", client),
                 corpus_files["mini_slow"], corpus_files["mini"]])
    assert code == 2
    assert capsys.readouterr().out == ("hypothesis-failed: client: the contract of method "
                                       "'push' does not cover thread 3\n")


def test_cli_abstraction_client_call_the_library_lacks(corpus_files, tmp_path, capsys):
    gamma = corpus.gamma_val()
    frob = method_spec({**{m: (gamma.pre(m), gamma.post(m)) for m in gamma.method_names},
                        "frob": (gamma.pre("pop"), gamma.post("pop"))})
    client = Program(Algebra.RAM, client=ClientProgram((CallMethod("frob"),)), gamma=frob,
                     initial=frozenset({ram({1: 0})}), universe=corpus.CORPUS_UNIVERSE,
                     bounds=Bounds(1, 1, 1, 12))
    code = main(["abstraction", _program_file(tmp_path, "frob", client),
                 corpus_files["mini_slow"], corpus_files["mini"]])
    assert code == 2
    assert capsys.readouterr().out == ("hypothesis-failed: composition unsafe: "
                                       "library has no method 'frob'\n")


def test_cli_frame_check_universe_thread_the_contract_lacks(corpus_files, tmp_path, capsys):
    universe = tmp_path / "universe.json"
    serialize.dump_json({"locations": [1, 2, 7], "values": [0, 1, 7, 8],
                         "threads": [1, 2, 3]}, str(universe))
    code = main(["--universe", str(universe), "frame-check", corpus_files["mini_slow"],
                 corpus_files["mini"], _extension_file(tmp_path)])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: the contract of method 'pop' does not cover thread 3\n"


@pytest.mark.parametrize("cells, message", [
    ({"1": "full", "01": "full"}, "duplicate location: 1"),
    ({"0": "full"}, "bad location: 0"),
], ids=["duplicate", "zero"])
def test_cli_check_balanced_from_a_footprint_no_state_has(tmp_path, capsys, cells, message):
    hist, foot = tmp_path / "hist.json", tmp_path / "foot.json"
    serialize.dump_json([], str(hist))
    serialize.dump_json({"alg": "ram_pi", "cells": cells}, str(foot))
    assert main(["check-balanced", str(hist), "--from", str(foot)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


_TARGET_HISTORY = (
    call(1, "push", ram({1: 7})),
    call(2, "pop", ram({2: 0})),
    ret(1, "push", ram({1: 0})),
)


def _target_file(tmp_path, history=_TARGET_HISTORY,
                 initial=next(iter(corpus.MINI_INITIAL))) -> str:
    target = {
        "initial": serialize.footprint_to_json(delta(initial)),
        "history": serialize.history_to_json(history),
    }
    tpath = tmp_path / "target.json"
    serialize.dump_json(target, str(tpath))
    return str(tpath)


def _oracle_source(path, target, initial) -> dict:
    """The ``initial`` and ``source_history`` that ``rearrange`` must print."""
    prog = serialize.load_program(path)
    want = rearrange_source_oracle(prog.library, prog.gamma, prog.initial, delta(initial),
                                   target, prog.bounds)
    assert want is not None
    return {"initial": serialize.state_to_json(want[0]),
            "source_history": serialize.history_to_json(history_of(want[1]))}


def test_cli_rearrange(corpus_files, tmp_path, capsys):
    code = main(["rearrange", corpus_files["mini"], _target_file(tmp_path), "--explain"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["result_history"] == serialize.history_to_json(_TARGET_HISTORY)
    assert "log" in payload
    want = _oracle_source(corpus_files["mini"], _TARGET_HISTORY, next(iter(corpus.MINI_INITIAL)))
    assert {k: payload[k] for k in want} == want


def test_cli_rearrange_target_no_trace_linearizes(corpus_files, tmp_path, capsys):
    # one method call per thread at these bounds, so thread 1 cannot call twice
    twice = (call(1, "push", ram({1: 7})), ret(1, "push", ram({1: 0})),
             call(1, "push", ram({1: 7})))
    assert main(["rearrange", corpus_files["mini"], _target_file(tmp_path, twice)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "no trace of the library linearizes the target history\n"


def test_cli_rearrange_skips_an_initial_state_not_below_the_target(corpus_files, tmp_path,
                                                                   capsys):
    # [3:0, 4:0, 5:0] comes first and has traces that linearize the target, but
    # it owns the cell 3, which the target's initial footprint lacks
    skipped, chosen = ram({3: 0, 4: 0, 5: 0}), ram({4: 0, 5: 0, 6: 0})
    obj = serialize.load_json(corpus_files["mini"])
    obj["initial"] = [serialize.state_to_json(s) for s in (skipped, chosen)]
    path = tmp_path / "two_initial.json"
    serialize.dump_json(obj, str(path))
    code = main(["rearrange", str(path), _target_file(tmp_path, initial=chosen)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["initial"] == serialize.state_to_json(chosen)
    assert payload["result_history"] == serialize.history_to_json(_TARGET_HISTORY)
    want = _oracle_source(str(path), _TARGET_HISTORY, chosen)
    assert {k: payload[k] for k in want} == want



@pytest.mark.parametrize("bounds", (Bounds(1, 1, 2, 8), Bounds(1, 2, 2, 9)), ids=str)
@pytest.mark.parametrize("name,lib,initial", (
    ("mini_stack", corpus.mini_stack(), corpus.MINI_INITIAL),
    ("plain_stack", corpus.plain_stack(), corpus.PLAIN_INITIAL),
), ids=("mini_stack", "plain_stack"))
def test_cli_rearrange_source_of_delinearized_targets_is_the_oracles(name, lib, initial, bounds,
                                                                     tmp_path, capsys):
    prog = Program(Algebra.RAM, library=lib, gamma=corpus.gamma_val(), initial=initial,
                   universe=corpus.CORPUS_UNIVERSE, bounds=bounds)
    path = tmp_path / f"{name}.json"
    serialize.dump_json(serialize.program_to_json(prog), str(path))
    (sigma0,) = initial
    histories = sorted((h for h, _ in _history_trie(lib, prog.gamma, sigma0, bounds)
                        if len(h) >= 3), key=repr)
    rng = random.Random(f"{name} {bounds}")
    for h in rng.sample(histories, 5):
        target = delinearize(rng, h, 3)
        assert main(["rearrange", str(path), _target_file(tmp_path, target, sigma0)]) == 0
        payload = json.loads(capsys.readouterr().out)
        want = _oracle_source(str(path), target, sigma0)
        assert {k: payload[k] for k in want} == want


def test_cli_rearrange_of_a_faulting_library_is_an_input_error(corpus_files, tmp_path, capsys):
    # the scribbler writes into a pushed object that gamma_val does not transfer
    code = main(["rearrange", corpus_files["scribbler"], _target_file(tmp_path)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: library faults at [4:0, 5:0]\n"
    assert main(["dump-interf", corpus_files["scribbler"]]) == 2
    assert capsys.readouterr().err == captured.err


def test_cli_bad_input_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["dump-interf", str(bad)]) == 2
    assert main(["dump-interf", str(tmp_path / "missing.json")]) == 2


def test_cli_bound_overrides(corpus_files, capsys):
    code = main(["--json", "--max-trace", "6", "dump-interf", corpus_files["mini"]])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert all(len(e["history"]) <= 6 for e in payload["entries"])


def test_cli_rearrange_target_of_the_wrong_shape(corpus_files, tmp_path, capsys):
    tpath = tmp_path / "target.json"
    serialize.dump_json(serialize.history_to_json(_TARGET_HISTORY), str(tpath))
    assert main(["rearrange", corpus_files["mini"], str(tpath)]) == 2
    assert "error: target: expected a JSON object, got list" in capsys.readouterr().err


def test_cli_program_file_holding_a_list(tmp_path, capsys):
    path = tmp_path / "list.json"
    serialize.dump_json([], str(path))
    assert main(["dump-interf", str(path)]) == 2
    assert "error: program: expected a JSON object, got list" in capsys.readouterr().err


def test_cli_program_whose_state_cells_are_an_array(corpus_files, tmp_path, capsys):
    obj = serialize.load_json(corpus_files["mini"])
    obj["initial"][0]["cells"] = []
    path = tmp_path / "bad_cells.json"
    serialize.dump_json(obj, str(path))
    assert main(["dump-interf", str(path)]) == 2
    assert "error: cells: expected a JSON object, got list" in capsys.readouterr().err


def test_cli_program_whose_initial_is_a_string(corpus_files, tmp_path, capsys):
    obj = serialize.load_json(corpus_files["mini"])
    obj["initial"] = "[4:0, 5:0]"
    path = tmp_path / "bad_initial.json"
    serialize.dump_json(obj, str(path))
    assert main(["dump-interf", str(path)]) == 2
    assert "error: initial: expected a JSON array, got str" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["--max-trace", "-1"], ["--mgc-threads", "0"]])
def test_cli_degenerate_bound_flags(corpus_files, flags, capsys):
    assert main(flags + ["check-lin", corpus_files["mini_slow"], corpus_files["mini"]]) == 2
    captured = capsys.readouterr()
    assert "holds-at-bounds" not in captured.out
    assert "error: bound " in captured.err


def test_cli_degenerate_bound_in_a_program_file(corpus_files, tmp_path, capsys):
    obj = serialize.load_json(corpus_files["mini_slow"])
    obj["bounds"]["max_trace_len"] = -3
    path = tmp_path / "negative.json"
    serialize.dump_json(obj, str(path))
    assert main(["check-lin", str(path), corpus_files["mini"]]) == 2
    captured = capsys.readouterr()
    assert "holds-at-bounds" not in captured.out
    assert "error: bound max_trace_len must be at least 0, got -3" in captured.err


@pytest.mark.parametrize("mgc_iters", [1200, 400])
def test_cli_bounds_too_large_to_explore(tmp_path, mgc_iters, capsys):
    # one method that skips, called mgc_iters times: hashing the most general
    # client's nested sequence overflows the stack at 1200, the walk at 400
    skip_all = method_spec({"m": (ParamPredicate.from_fn(lambda t: [ram({})], (1,)),) * 2})
    prog = Program(Algebra.RAM, library=library({"m": Prim(SKIP)}), gamma=skip_all,
                   initial=frozenset({ram({})}), bounds=Bounds(0, mgc_iters, 1, 4000))
    path = tmp_path / "deep.json"
    serialize.dump_json(serialize.program_to_json(prog), str(path))
    assert main(["check-lin", str(path), str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the bounds are too large to explore: lower mgc_iters, "
                            "star_unroll or max_trace_len\n")


def test_cli_ram_pi_cell_that_is_not_a_pair(corpus_files, tmp_path, capsys):
    obj = serialize.load_json(corpus_files["mini"])
    obj["initial"] = [{"alg": "ram_pi", "cells": {"4": 5}}]
    path = tmp_path / "bad_pi_cell.json"
    serialize.dump_json(obj, str(path))
    assert main(["dump-interf", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: state: ") and "Traceback" not in err


@pytest.mark.parametrize("part", ["library", "gamma"])
def test_cli_program_without_a_part_the_command_needs(corpus_files, tmp_path, part, capsys):
    obj = serialize.load_json(corpus_files["mini"])
    del obj[part]
    path = tmp_path / "partial.json"
    serialize.dump_json(obj, str(path))
    assert main(["dump-interf", str(path)]) == 2
    assert f"program has no {part}" in capsys.readouterr().err


def test_cli_json_nested_too_deeply(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text('{"star": ' * 100_000 + "{}" + "}" * 100_000, encoding="utf-8")
    assert main(["dump-interf", str(path)]) == 2
    assert "JSON nested too deeply" in capsys.readouterr().err


@pytest.mark.parametrize("cells, field, got", [
    ({"4": 2.7}, "cells 4", "float"),
    ({"4": 2, "5": True}, "cells 5", "bool"),
])
def test_state_loader_rejects_a_cell_value_that_is_not_an_integer(cells, field, got):
    with pytest.raises(ValueError, match=f"^{field}: expected a JSON integer, got {got}$"):
        serialize.state_from_json({"alg": "ram", "cells": cells})
    pi_cells = {loc: [v, "1"] for loc, v in cells.items()}
    with pytest.raises(ValueError, match=f"^{field}: expected a JSON integer, got {got}$"):
        serialize.state_from_json({"alg": "ram_pi", "cells": pi_cells})
    # the keys are JSON strings and still decode
    assert serialize.state_from_json({"alg": "ram", "cells": {"4": 2}}) == ram({4: 2})


@pytest.mark.parametrize("perm, got", [(0.1, "float"), (True, "bool")])
def test_cli_state_permission_that_is_not_exact(corpus_files, tmp_path, perm, got, capsys):
    obj = serialize.load_json(corpus_files["mini"])
    obj["initial"] = [{"alg": "ram_pi", "cells": {"4": [0, perm]}}]
    path = tmp_path / "float_perm.json"
    serialize.dump_json(obj, str(path))
    assert main(["dump-interf", str(path)]) == 2
    assert (f"error: cells 4 permission: expected a permission string or integer, got {got}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("perm, got", [(0.5, "float"), (True, "bool")])
def test_cli_footprint_permission_that_is_not_exact(tmp_path, perm, got, capsys):
    hist = tmp_path / "hist.json"
    foot = tmp_path / "foot.json"
    serialize.dump_json([], str(hist))
    serialize.dump_json({"alg": "ram_pi", "cells": {"4": {"perm": perm, "val": 0}}}, str(foot))
    assert main(["check-balanced", str(hist), "--from", str(foot)]) == 2
    assert (f"error: cells 4 perm: expected a permission string or integer, got {got}"
            in capsys.readouterr().err)


@pytest.mark.parametrize("perm, got", [(0.5, "float"), (True, "bool")])
def test_cli_universe_permission_that_is_not_exact(corpus_files, tmp_path, perm, got, capsys):
    obj = serialize.load_json(corpus_files["mini"])
    obj["universe"]["permissions"] = ["1/2", perm]
    path = tmp_path / "float_universe.json"
    serialize.dump_json(obj, str(path))
    assert main(["dump-interf", str(path)]) == 2
    assert (f"error: universe permissions: expected a permission string or integer, got {got}"
            in capsys.readouterr().err)


def test_permission_strings_and_integers_decode_exactly():
    assert serialize.state_from_json({"alg": "ram_pi", "cells": {"4": [0, "1/2"]}}) \
        == ram_pi({4: (0, Fraction(1, 2))})
    assert serialize.state_from_json({"alg": "ram_pi", "cells": {"4": [0, 1]}}) \
        == ram_pi({4: (0, Fraction(1))})
    assert serialize.universe_from_json({"permissions": ["1/2", 1]}).permissions \
        == (Fraction(1, 2), Fraction(1))

@pytest.mark.parametrize("universe, message", [
    ({"permissions": "12"}, "universe permissions: expected a JSON array, got str"),
    ({"locations": "12"}, "universe locations: expected a JSON array, got str"),
    ({"permissions": [0, 1]}, "universe permissions: permission out of (0,1]: 0"),
    ({"permissions": ["1/2", 2]}, "universe permissions: permission out of (0,1]: 2"),
    ({"permissions": ["1/0"]}, "universe permissions: not a fraction: '1/0'"),
])
def test_cli_universe_of_the_wrong_shape_or_range(tmp_path, universe, message, capsys):
    path = tmp_path / "universe.json"
    serialize.dump_json(universe, str(path))
    assert main(["--universe", str(path), "validate-algebra", "--alg", "ram_pi"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("perm, message", [("3/2", "permission out of (0,1]: 3/2"),
                                           ("abc", "not a fraction: 'abc'")])
def test_cli_state_permission_out_of_range_names_its_field(corpus_files, tmp_path, perm,
                                                           message, capsys):
    obj = serialize.load_json(corpus_files["mini"])
    obj["initial"] = [{"alg": "ram_pi", "cells": {"4": [0, perm]}}]
    path = tmp_path / "bad_perm.json"
    serialize.dump_json(obj, str(path))
    assert main(["dump-interf", str(path)]) == 2
    assert f"error: cells 4 permission: {message}" in capsys.readouterr().err


def _nop_contract(pred_json: dict):
    return serialize.gamma_from_json({"nop": {"pre": pred_json, "post": pred_json}},
                                     Algebra.RAM)


def test_contract_default_round_trips_and_covers_every_thread():
    empty = [serialize.state_to_json(ram({}))]
    default_only = _nop_contract({"*": empty})
    assert default_only.pre("nop").default is not None
    assert serialize.gamma_to_json(default_only) == {"nop": {"pre": {"*": empty},
                                                             "post": {"*": empty}}}
    mixed = _nop_contract({"1": empty, "*": empty})
    assert serialize.gamma_from_json(serialize.gamma_to_json(mixed), Algebra.RAM) == mixed

    lib, initial = corpus.trivial_library(), frozenset({ram({})})
    bounds = Bounds(star_unroll=1, mgc_iters=1, mgc_threads=3, max_trace_len=6)
    held = check_lin_code(lib, default_only, initial, lib, initial, bounds)
    assert held.status is Status.HOLDS_AT_BOUNDS
    named = check_lin_code(lib, _nop_contract({"1": empty, "2": empty}), initial,
                           lib, initial, bounds)
    assert named.status is Status.HYPOTHESIS_FAILED
    assert "does not cover thread 3" in named.summary


@pytest.mark.parametrize("thread, got", [(1.9, "float"), (True, "bool"), ("1", "str")])
def test_history_loader_rejects_a_thread_that_is_not_an_integer(thread, got):
    arr = serialize.history_to_json((call(1, "push", ram({1: 7})),))
    arr[0]["t"] = thread
    with pytest.raises(ValueError, match=f"^thread: expected a JSON integer, got {got}$"):
        serialize.history_from_json(arr)


@pytest.mark.parametrize("value, got", [(7.5, "float"), (True, "bool"), ("7", "str")])
def test_cli_bound_in_a_program_file_that_is_not_an_integer(corpus_files, tmp_path, value,
                                                            got, capsys):
    obj = serialize.load_json(corpus_files["mini"])
    obj["bounds"]["max_trace_len"] = value
    path = tmp_path / "bad_bound.json"
    serialize.dump_json(obj, str(path))
    assert main(["dump-interf", str(path)]) == 2
    assert (f"error: bounds max_trace_len: expected a JSON integer, got {got}"
            in capsys.readouterr().err)


def test_cli_method_body_nested_too_deeply(corpus_files, tmp_path, capsys):
    obj = serialize.load_json(corpus_files["mini"])
    body = obj["library"]["push"]
    # a seq list nests to the right, so it is as deep as it is long
    obj["library"]["push"] = {"seq": [{"prim": {"skip": {}}}] * 1500 + [body]}
    path = tmp_path / "deep_body.json"
    serialize.dump_json(obj, str(path))
    assert main(["dump-interf", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: command tree nested deeper than ") and "Traceback" not in err


def test_seq_as_long_as_the_nesting_limit_loads():
    skip = {"prim": {"skip": {}}}
    obj = serialize.program_to_json(corpus.plain_stack_program())
    obj["library"]["push"] = {"seq": [skip] * serialize.MAX_NESTING}
    serialize.program_from_json(obj)
    obj["library"]["push"] = {"seq": [skip] * (serialize.MAX_NESTING + 1)}
    with pytest.raises(ValueError, match="nested deeper"):
        serialize.program_from_json(obj)


_FUZZ_VALUES = (None, True, 0, -1, 7, 2.5, 1e400, "", "x", "1/0", "full", "tid",
                [], [1], [1, 2, 3], [[]], {}, {"4": 5}, {"int": None}, {"seq": []})


def _json_slots(obj, path=()):
    """Every (container, key) of a JSON tree, each with its path."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for key, value in items:
        yield path + (key,), obj, key
        yield from _json_slots(value, path + (key,))


def _fuzz_corpus():
    mini = corpus.mini_stack(), corpus.gamma_val(), corpus.MINI_INITIAL
    hs = interf(*mini, Bounds(1, 1, 2, 6))
    pi_state = ram_pi({42: (0, Fraction(1, 2)), 43: (1, 1)})
    pi_hist = (call(1, "push", pi_state), ret(1, "push", ram_pi({})))
    out = [(serialize.program_from_json, serialize.program_to_json(prog))
           for _, prog in _corpus_programs()]
    out.append((serialize.program_from_json, serialize.program_to_json(corpus.client_program())))
    out.append((serialize.interface_set_from_json, serialize.interface_set_to_json(hs)))
    for e in hs.sorted_entries()[-3:]:
        out.append((serialize.history_from_json, serialize.history_to_json(e.history)))
        out.append((serialize.footprint_from_json, serialize.footprint_to_json(e.initial)))
    out.append((serialize.history_from_json, serialize.history_to_json(pi_hist)))
    out.append((serialize.footprint_from_json, serialize.footprint_to_json(
        ram_pi_foot({42: (Fraction(1, 2), 0), 43: Full}))))
    return out


def test_malformed_json_is_an_input_error():
    """One-field mutations of every JSON form decode to a hashable value or
    raise ``ValueError`` or ``KeyError``, the errors the command line reports
    with exit code 2."""
    rng = random.Random(8)
    forms = _fuzz_corpus()
    outcomes = {"decoded": 0, "ValueError": 0, "KeyError": 0}
    for _ in range(2000):
        decode, original = rng.choice(forms)
        obj = copy.deepcopy(original)
        path, container, key = rng.choice(list(_json_slots(obj)))
        if isinstance(container, dict) and rng.random() < 0.2:
            del container[key]
        else:
            container[key] = copy.deepcopy(rng.choice(_FUZZ_VALUES))
        try:
            hash(decode(obj))  # no field of a wrong type is left for later
            outcomes["decoded"] += 1
        except (ValueError, KeyError) as exc:
            outcomes["KeyError" if isinstance(exc, KeyError) else "ValueError"] += 1
        except Exception as exc:
            raise AssertionError(f"{decode.__name__} at {path}: {exc!r}") from exc
    assert all(outcomes.values()), outcomes
