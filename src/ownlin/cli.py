"""Command-line front end.

Exit codes: 0 = holds at bounds / balanced / laws pass, 1 = violated,
2 = hypothesis or input error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import Algebra, State, StateUniverse, algebra_law_check
from .checker import EXIT_CODES, Verdict, abstraction_check_code, check_lin_code
from .footprint import delta, foot_leq, footprint_law_check
from .frame import frame_check
from .history import evaluate_footprint, linearized_by
from .lang import Bounds, Program
from .rearrange import rearrange
from .semantics import _history_trie, history_of, interf, least_library_trace
from . import serialize


def _apply_bound_overrides(bounds: Bounds, args) -> Bounds:
    return Bounds(
        star_unroll=args.bound_star if args.bound_star is not None else bounds.star_unroll,
        mgc_iters=bounds.mgc_iters,
        mgc_threads=args.mgc_threads if args.mgc_threads is not None else bounds.mgc_threads,
        max_trace_len=args.max_trace if args.max_trace is not None else bounds.max_trace_len,
    )


def _load_program(path: str, *parts: str) -> Program:
    """The program in ``path``, which must give each of ``parts``."""
    prog = serialize.load_program(path)
    for part in parts:
        if getattr(prog, part) is None:
            raise ValueError(f"{path}: program has no {part}")
    return prog


def _load_universe(args) -> StateUniverse | None:
    if args.universe is None:
        return None
    return serialize.universe_from_json(serialize.load_json(args.universe))


def _emit_verdict(verdict: Verdict, as_json: bool) -> int:
    if as_json:
        print(serialize.dump_json(verdict.as_dict()))
    else:
        print(f"{verdict.status.value}: {verdict.summary}")
        for line in verdict.details:
            print(f"  {line}")
    return verdict.exit_code


def _cmd_check_lin(args) -> int:
    prog1 = _load_program(args.concrete, "library", "gamma")
    prog2 = _load_program(args.abstract, "library")
    bounds = _apply_bound_overrides(prog1.bounds, args)
    universe = _load_universe(args) or prog1.universe
    verdict = check_lin_code(prog1.library, prog1.gamma, prog1.initial,
                             prog2.library, prog2.initial, bounds, universe)
    return _emit_verdict(verdict, args.json)


def _cmd_check_balanced(args) -> int:
    h = serialize.history_from_json(serialize.load_json(args.history))
    l = serialize.footprint_from_json(serialize.load_json(args.initial))
    result = evaluate_footprint(h, l)
    ok = result is not None
    if args.json:
        payload = {"balanced": ok}
        if ok:
            payload["final"] = serialize.footprint_to_json(result)
        print(serialize.dump_json(payload))
    else:
        if ok:
            print(f"balanced; final footprint {result!r}")
        else:
            print("unbalanced")
    return 0 if ok else 1


def _cmd_abstraction(args) -> int:
    client_prog = _load_program(args.client, "client", "gamma")
    prog1 = _load_program(args.concrete, "library")
    prog2 = _load_program(args.abstract, "library")
    bounds = _apply_bound_overrides(prog1.bounds, args)
    universe = _load_universe(args) or client_prog.universe
    verdict = abstraction_check_code(
        client_prog.client, client_prog.gamma, client_prog.initial,
        prog1.library, prog1.initial, prog2.library, prog2.initial,
        bounds, universe)
    return _emit_verdict(verdict, args.json)


def _cmd_frame_check(args) -> int:
    prog1 = _load_program(args.concrete, "library")
    prog2 = _load_program(args.abstract, "library")
    ext = serialize.expect_json(serialize.load_json(args.extension), dict, "extension")
    algebra = Algebra(ext.get("algebra", prog1.algebra.value))
    gamma = serialize.gamma_from_json(ext["gamma"], algebra)
    gamma_ext = serialize.gamma_from_json(ext["gamma_extended"], algebra)
    extra = ext.get("initial_extra", [{"alg": algebra.value, "cells": {}}])
    initial_extra = frozenset(map(serialize.state_from_json,
                                  serialize.expect_json(extra, list, "initial_extra")))
    bounds = _apply_bound_overrides(prog1.bounds, args)
    universe = _load_universe(args) or prog1.universe
    report = frame_check(prog1.library, prog2.library, gamma, gamma_ext,
                         prog1.initial, prog2.initial, initial_extra, bounds, universe)
    if args.json:
        print(serialize.dump_json({"status": report.status.value,
                                   "details": list(report.lines())}))
    else:
        for line in report.lines():
            print(line)
    return EXIT_CODES[report.status]


def _cmd_validate_algebra(args) -> int:
    algebra = Algebra(args.alg)
    universe = _load_universe(args) or StateUniverse()
    alg_report = algebra_law_check(universe, algebra)
    foot_report = footprint_law_check(universe, algebra)
    ok = alg_report.passed and foot_report.passed
    if args.json:
        print(serialize.dump_json({
            "algebra_laws": alg_report.passed,
            "footprint_laws": foot_report.passed,
            "counterexamples": [
                f"{ce.law}: {ce.inputs!r}"
                for ce in alg_report.counterexamples + foot_report.counterexamples
            ],
        }))
    else:
        print(f"composition laws: {'pass' if alg_report.passed else 'FAIL'}")
        print(f"footprint laws:   {'pass' if foot_report.passed else 'FAIL'}")
        for ce in alg_report.counterexamples + foot_report.counterexamples:
            print(f"  {ce.law}: {ce.inputs!r} expected {ce.expected!r} got {ce.got!r}")
    return 0 if ok else 1


def _cmd_dump_interf(args) -> int:
    prog = _load_program(args.library, "library", "gamma")
    bounds = _apply_bound_overrides(prog.bounds, args)
    hs = interf(prog.library, prog.gamma, prog.initial, bounds)
    print(serialize.dump_json(serialize.interface_set_to_json(hs)))
    return 0


def _cmd_rearrange(args) -> int:
    prog = _load_program(args.library, "library", "gamma")
    target = serialize.expect_json(serialize.load_json(args.target), dict, "target")
    target_initial = serialize.footprint_from_json(target["initial"])
    target_history = serialize.history_from_json(target["history"])
    bounds = _apply_bound_overrides(prog.bounds, args)
    # the least trace of the first initial state below the target that has one:
    # its histories walk picks the linearizing histories, the cut walk the trace
    for sigma0 in sorted(prog.initial, key=State.sort_key):
        if foot_leq(delta(sigma0), target_initial):
            hs = {h for h, _ in _history_trie(prog.library, prog.gamma, sigma0, bounds)
                  if linearized_by(target_history, h) is not None}
            if hs:
                tau = least_library_trace(prog.library, prog.gamma, sigma0, bounds, hs)
                break
    else:
        print("no trace of the library linearizes the target history", file=sys.stderr)
        return 1
    result, log = rearrange(prog.library, prog.gamma, sigma0, tau,
                            target_history, target_initial, bounds)
    payload = {
        "initial": serialize.state_to_json(sigma0),
        "source_history": serialize.history_to_json(history_of(tau)),
        "result_history": serialize.history_to_json(history_of(result)),
        "result_len": len(result),
    }
    if args.explain:
        payload["log"] = log.as_dict()
    print(serialize.dump_json(payload))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ownlin",
        description="Linearizability checking with ownership transfer")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--bound-star", type=int, default=None, metavar="K")
    parser.add_argument("--mgc-threads", type=int, default=None, metavar="N")
    parser.add_argument("--max-trace", type=int, default=None, metavar="L")
    parser.add_argument("--universe", default=None, metavar="FILE")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-lin", help="is one library linearized by another")
    p.add_argument("concrete")
    p.add_argument("abstract")
    p.set_defaults(func=_cmd_check_lin)

    p = sub.add_parser("check-balanced", help="is a history balanced from a footprint")
    p.add_argument("history")
    p.add_argument("--from", dest="initial", required=True, metavar="FOOT")
    p.set_defaults(func=_cmd_check_balanced)

    p = sub.add_parser("abstraction", help="client containment under library replacement")
    p.add_argument("client")
    p.add_argument("concrete")
    p.add_argument("abstract")
    p.set_defaults(func=_cmd_abstraction)

    p = sub.add_parser("frame-check", help="frame rule for an extended contract")
    p.add_argument("concrete")
    p.add_argument("abstract")
    p.add_argument("extension")
    p.set_defaults(func=_cmd_frame_check)

    p = sub.add_parser("validate-algebra", help="exhaustive composition/footprint laws")
    p.add_argument("--alg", choices=[a.value for a in Algebra], default="ram")
    p.set_defaults(func=_cmd_validate_algebra)

    p = sub.add_parser("dump-interf", help="emit a library's interface set as JSON")
    p.add_argument("library")
    p.set_defaults(func=_cmd_dump_interf)

    p = sub.add_parser("rearrange", help="rewrite a library trace to a target history")
    p.add_argument("library")
    p.add_argument("target")
    p.add_argument("--explain", action="store_true", help="include the swap log")
    p.set_defaults(func=_cmd_rearrange)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # a most general client or a walk as deep as the bounds
        print("error: the bounds are too large to explore: lower mgc_iters, star_unroll "
              "or max_trace_len", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
