"""JSON forms for states, footprints, histories, programs, and reports.

Permissions ride as exact fraction strings ("1/2"), never floats.  Command
trees use tagged nodes: {"seq": [...]}, {"choice": [...]}, {"star": ...},
{"call": "m"}, {"prim": {...}}.
"""

from __future__ import annotations

import functools
import json
from fractions import Fraction
from typing import Any, Mapping

from .algebra import (
    Algebra,
    ParamPredicate,
    Predicate,
    State,
    StateUniverse,
    _as_perm,
    predicate,
)
from .footprint import Footprint, Full
from .history import BalancedHistory, History, InterfaceAction, InterfaceSet, Kind, interface_set
from .lang import (
    Add,
    Assume,
    Bounds,
    CallMethod,
    Choice,
    ClientProgram,
    Command,
    Deref,
    Expr,
    IntLit,
    MethodSpec,
    Neg,
    Not,
    Prim,
    PrimCommand,
    Program,
    Seq,
    Skip,
    Star,
    Store,
    Tid,
    library,
    method_spec,
)


def _decoder(decode):
    """``decode`` with its crashes on a wrong shape (``int()`` of a list, a
    cell that does not unpack, the permission ``"1/0"``) made input errors."""
    @functools.wraps(decode)
    def wrapper(obj, *args):
        try:
            return decode(obj, *args)
        except (TypeError, IndexError, ArithmeticError) as exc:
            raise ValueError(f"{decode.__name__.removesuffix('_from_json')}: {exc}") from exc
    return wrapper


def expect_json(value, kind: type, field: str):
    """``value`` when it is the JSON object, array, string or integer
    (``dict``, ``list``, ``str``, ``int``) ``kind`` asks for; else an input
    error naming the field.  A float or a boolean is not an integer."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        name = {dict: "object", list: "array", str: "string", int: "integer"}[kind]
        raise ValueError(f"{field}: expected a JSON {name}, got {type(value).__name__}")
    return value


def _permission(value, field: str) -> Fraction:
    """The exact permission in (0, 1] a JSON string (``"1/2"``) or integer
    spells; a float, a boolean, a string that spells no fraction or a value
    out of range is an input error naming the field."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise ValueError(f"{field}: expected a permission string or integer, "
                         f"got {type(value).__name__}")
    try:
        return _as_perm(value)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


def state_to_json(s: State) -> dict:
    if s.algebra is Algebra.RAM:
        cells = {str(loc): val for loc, val in s.cells}
    else:
        cells = {str(loc): [val, str(perm)] for loc, (val, perm) in s.cells}
    return {"alg": s.algebra.value, "cells": cells}


@_decoder
def state_from_json(obj: Mapping) -> State:
    expect_json(obj, dict, "state")
    alg = Algebra(obj["alg"])
    cells = expect_json(obj["cells"], dict, "cells")
    if alg is Algebra.RAM:
        return State(alg, {int(loc): expect_json(val, int, f"cells {loc}")
                           for loc, val in cells.items()})
    return State(alg, {int(loc): (expect_json(v, int, f"cells {loc}"),
                                  _permission(p, f"cells {loc} permission"))
                       for loc, (v, p) in cells.items()})


def footprint_to_json(l: Footprint) -> dict:
    if l.algebra is Algebra.RAM:
        return {"alg": l.algebra.value, "locs": list(l.entries)}
    cells: dict[str, Any] = {}
    for loc, payload in l.entries:
        if payload == Full:
            cells[str(loc)] = "full"
        else:
            perm, val = payload
            cells[str(loc)] = {"perm": str(perm), "val": val}
    return {"alg": l.algebra.value, "cells": cells}


@_decoder
def footprint_from_json(obj: Mapping) -> Footprint:
    expect_json(obj, dict, "footprint")
    alg = Algebra(obj["alg"])
    if alg is Algebra.RAM:
        return Footprint(alg, [expect_json(x, int, "locs")
                               for x in expect_json(obj["locs"], list, "locs")])
    entries = []
    for loc, payload in expect_json(obj["cells"], dict, "cells").items():
        if payload == "full":
            entries.append((int(loc), Full))
        else:
            entries.append((int(loc), (_permission(payload["perm"], f"cells {loc} perm"),
                                       expect_json(payload["val"], int, f"cells {loc} val"))))
    return Footprint(alg, entries)


def action_to_json(a: InterfaceAction) -> dict:
    return {"t": a.thread, "k": a.kind.value, "m": a.method,
            "s": state_to_json(a.transferred)}


def action_from_json(obj: Mapping) -> InterfaceAction:
    expect_json(obj, dict, "interface action")
    return InterfaceAction(expect_json(obj["t"], int, "thread"), Kind(obj["k"]),
                           expect_json(obj["m"], str, "method"), state_from_json(obj["s"]))


def history_to_json(h: History) -> list:
    return [action_to_json(a) for a in h]


@_decoder
def history_from_json(arr: list) -> History:
    return tuple(action_from_json(o) for o in expect_json(arr, list, "history"))


def interface_set_to_json(hs: InterfaceSet) -> dict:
    return {"entries": [
        {"initial": footprint_to_json(e.initial), "history": history_to_json(e.history)}
        for e in hs.sorted_entries()
    ]}


@_decoder
def interface_set_from_json(obj: Mapping) -> InterfaceSet:
    expect_json(obj, dict, "interface set")
    entries = []
    for e in expect_json(obj["entries"], list, "entries"):
        expect_json(e, dict, "interface set entry")
        entries.append(BalancedHistory(footprint_from_json(e["initial"]),
                                       history_from_json(e["history"])))
    return interface_set(entries)


# ---------------------------------------------------------------------------
# expressions, commands, programs
# ---------------------------------------------------------------------------

def expr_to_json(e: Expr):
    if isinstance(e, IntLit):
        return {"int": e.value}
    if isinstance(e, Tid):
        return "tid"
    if isinstance(e, Deref):
        return {"deref": expr_to_json(e.addr)}
    if isinstance(e, Add):
        return {"add": [expr_to_json(e.left), expr_to_json(e.right)]}
    if isinstance(e, Neg):
        return {"neg": expr_to_json(e.operand)}
    if isinstance(e, Not):
        return {"not": expr_to_json(e.operand)}
    raise TypeError(f"not an expression: {e!r}")


MAX_NESTING = 200
"""The deepest command tree, expressions included, the loaders accept.  The
checker walks these trees recursively, and ``Seq`` and ``Choice`` nest to
the right, so a ``seq`` or ``choice`` list of n parts is n deep."""


def _nested(depth: int) -> int:
    if depth > MAX_NESTING:
        raise ValueError(f"command tree nested deeper than {MAX_NESTING} levels")
    return depth + 1


def expr_from_json(obj, depth: int = 0) -> Expr:
    depth = _nested(depth)
    if obj == "tid":
        return Tid()
    if isinstance(obj, Mapping):
        if "int" in obj:
            return IntLit(expect_json(obj["int"], int, "int"))
        if "deref" in obj:
            return Deref(expr_from_json(obj["deref"], depth))
        if "add" in obj:
            a, b = obj["add"]
            return Add(expr_from_json(a, depth), expr_from_json(b, depth))
        if "neg" in obj:
            return Neg(expr_from_json(obj["neg"], depth))
        if "not" in obj:
            return Not(expr_from_json(obj["not"], depth))
    raise ValueError(f"bad expression: {obj!r}")


def prim_to_json(c: PrimCommand) -> dict:
    if isinstance(c, Skip):
        return {"skip": {}}
    if isinstance(c, Store):
        return {"store": {"addr": expr_to_json(c.addr), "val": expr_to_json(c.value)}}
    if isinstance(c, Assume):
        return {"assume": expr_to_json(c.cond)}
    raise TypeError(f"not a primitive command: {c!r}")


def prim_from_json(obj: Mapping, depth: int = 0) -> PrimCommand:
    if "skip" in obj:
        return Skip()
    if "store" in obj:
        return Store(expr_from_json(obj["store"]["addr"], depth),
                     expr_from_json(obj["store"]["val"], depth))
    if "assume" in obj:
        return Assume(expr_from_json(obj["assume"], depth))
    raise ValueError(f"bad primitive command: {obj!r}")


def command_to_json(c: Command) -> dict:
    if isinstance(c, Prim):
        return {"prim": prim_to_json(c.command)}
    if isinstance(c, CallMethod):
        return {"call": c.method}
    if isinstance(c, Seq):
        return {"seq": [command_to_json(c.first), command_to_json(c.second)]}
    if isinstance(c, Choice):
        return {"choice": [command_to_json(c.left), command_to_json(c.right)]}
    if isinstance(c, Star):
        return {"star": command_to_json(c.body)}
    raise TypeError(f"not a command: {c!r}")


def command_from_json(obj: Mapping, depth: int = 0) -> Command:
    depth = _nested(depth)
    if "prim" in obj:
        return Prim(prim_from_json(obj["prim"], depth))
    if "call" in obj:
        return CallMethod(expect_json(obj["call"], str, "call"))
    for tag, node in (("seq", Seq), ("choice", Choice)):
        if tag in obj:
            # part i sits i levels down the right-nested chain
            parts = [command_from_json(o, depth + i) for i, o in enumerate(obj[tag])]
            out = parts[-1]
            for part in reversed(parts[:-1]):
                out = node(part, out)
            return out
    if "star" in obj:
        return Star(command_from_json(obj["star"], depth))
    raise ValueError(f"bad command: {obj!r}")


def _pred_to_json(p: Predicate) -> list:
    return [state_to_json(s) for s in p.sorted_states()]


def _param_pred_to_json(p: ParamPredicate) -> dict:
    out = {str(t): _pred_to_json(pred) for t, pred in p.entries}
    if p.default is not None:
        out["*"] = _pred_to_json(p.default)
    return out


def _param_pred_from_json(obj: Mapping, algebra: Algebra, field: str) -> ParamPredicate:
    entries = []
    default = None
    for key, states in expect_json(obj, dict, field).items():
        pred = predicate([state_from_json(s) for s in expect_json(states, list, f"{field} {key}")],
                         algebra)
        if key == "*":
            default = pred
        else:
            entries.append((int(key), pred))
    return ParamPredicate(tuple(sorted(entries)), default)


def gamma_to_json(gamma: MethodSpec) -> dict:
    return {m: {"pre": _param_pred_to_json(gamma.pre(m)),
                "post": _param_pred_to_json(gamma.post(m))}
            for m in gamma.method_names}


@_decoder
def gamma_from_json(obj: Mapping, algebra: Algebra) -> MethodSpec:
    expect_json(obj, dict, "gamma")
    triples = {}
    for m, spec in obj.items():
        expect_json(spec, dict, f"gamma {m}")
        triples[m] = tuple(_param_pred_from_json(spec[part], algebra, f"gamma {m} {part}")
                           for part in ("pre", "post"))
    return method_spec(triples)


def bounds_to_json(b: Bounds) -> dict:
    return {"star": b.star_unroll, "mgc_iters": b.mgc_iters,
            "mgc_threads": b.mgc_threads, "max_trace_len": b.max_trace_len}


def bounds_from_json(obj: Mapping) -> Bounds:
    expect_json(obj, dict, "bounds")
    base = Bounds()

    def get(key: str, default: int) -> int:
        return expect_json(obj.get(key, default), int, f"bounds {key}")

    return Bounds(
        star_unroll=get("star", base.star_unroll),
        mgc_iters=get("mgc_iters", base.mgc_iters),
        mgc_threads=get("mgc_threads", base.mgc_threads),
        max_trace_len=get("max_trace_len", base.max_trace_len),
    )


def universe_to_json(u: StateUniverse) -> dict:
    return {"locations": list(u.locations), "values": list(u.values),
            "permissions": [str(p) for p in u.permissions],
            "threads": list(u.threads)}


@_decoder
def universe_from_json(obj: Mapping) -> StateUniverse:
    expect_json(obj, dict, "universe")
    base = StateUniverse()

    def field(key: str, decode=lambda x, name: expect_json(x, int, name)) -> tuple:
        if key not in obj:
            return getattr(base, key)
        name = f"universe {key}"
        return tuple(decode(x, name) for x in expect_json(obj[key], list, name))

    return StateUniverse(
        locations=field("locations"),
        values=field("values"),
        permissions=field("permissions", _permission),
        threads=field("threads"),
    )


def program_to_json(p: Program) -> dict:
    out: dict[str, Any] = {"algebra": p.algebra.value}
    if p.library is not None:
        out["library"] = {m: command_to_json(p.library.body(m))
                          for m in p.library.method_names}
    if p.client is not None:
        out["client"] = [command_to_json(c) for c in p.client.threads]
    if p.gamma is not None:
        out["gamma"] = gamma_to_json(p.gamma)
    out["initial"] = [state_to_json(s) for s in sorted(p.initial, key=State.sort_key)]
    out["universe"] = universe_to_json(p.universe)
    out["bounds"] = bounds_to_json(p.bounds)
    return out


@_decoder
def program_from_json(obj: Mapping) -> Program:
    expect_json(obj, dict, "program")
    for field, kind in (("library", dict), ("client", list), ("initial", list)):
        if field in obj:
            expect_json(obj[field], kind, field)
    algebra = Algebra(obj["algebra"])
    lib = None
    if "library" in obj:
        lib = library({m: command_from_json(c) for m, c in obj["library"].items()})
    client = None
    if "client" in obj:
        client = ClientProgram(tuple(command_from_json(c) for c in obj["client"]))
    gamma = gamma_from_json(obj["gamma"], algebra) if "gamma" in obj else None
    universe = universe_from_json(obj.get("universe", {}))
    program = Program(
        algebra,
        library=lib,
        client=client,
        gamma=gamma,
        initial=frozenset(state_from_json(s) for s in obj.get("initial", [])),
        universe=universe,
        bounds=bounds_from_json(obj.get("bounds", {})),
    )
    if gamma is not None:
        gamma.check_precise(universe)
    return program


def load_program(path: str) -> Program:
    return program_from_json(load_json(path))


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def dump_json(obj, path: str | None = None) -> str:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
