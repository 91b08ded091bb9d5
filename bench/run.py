"""Benchmark of ownlin's time to verdict, peak memory and set-up time.

Usage:
    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Every repetition of a workload runs in a fresh interpreter (``child.py``)
with ``PYTHONHASHSEED`` fixed, so no module-level cache survives from an
earlier repetition and set iteration order is the same in every run.
Repetitions run one at a time; this process waits idle while one is timed.
Each takes about a second, so that a run holds one to three dozen of them
spread over the machine's swings in speed.  Repetitions are started until the next
one would end the window of ``--seconds`` (at least three), which holds the
checks too; each metric is the median over them.

Times are reported at a fixed machine speed.  Between repetitions this
process times a fixed reference computation that does not touch the
program; each repetition's times are scaled by ``REFERENCE_NOMINAL_S``
over the mean of the reference times just before and just after it.  On
a shared 2-vCPU VM the speed swings by up to 1.6x within minutes; the
scaled times follow the program rather than the machine (``README.md``).

With ``--trace 0`` the result holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced repetition, its peak
allocation inside ``interf`` and the tracing overhead.  The first
repetition of every run is followed by the correctness checks; the others
must give the same output.  The last line printed is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
OUT_DIR = os.path.join(HERE, "out")

sys.path.insert(0, HERE)
from tracer import EXACT_COUNTS, LAYER_METRICS  # noqa: E402

# the names of workloads.WORKLOADS; this process does not import the program
WORKLOADS = ("check_lin_stack", "abstraction_spec_mini", "frame_ownership", "history_compare")
# fixed before any measurement; part of every workload's definition
HASH_SEED = "0"
MIN_REPS = 3
RUN_LIMIT_S = 170.0
# times are scaled to a machine on which reference_s() takes this long
REFERENCE_NOMINAL_S = 0.1

END_TO_END = (("verdict_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"))
TRACE_METRICS = (("trace.untraced_verdict_s", "s"), ("trace.traced_verdict_s", "s"),
                 ("trace.overhead_ratio", "ratio"))


class ChildFailed(RuntimeError):
    pass


def reference_s() -> float:
    """Time of a fixed computation that does not touch the program: tuples,
    frozensets, strings and dict updates, as in the program's inner loops.
    It hashes no strings, so the hash seed of this process does not matter."""
    t0 = time.perf_counter()
    table, acc = {}, 0
    for i in range(100000):
        t = (i % 97, i % 13, i % 7)
        key = frozenset((t, i % 5))
        table[key] = table.get(key, 0) + 1
        acc += len(t) + len("m" + str(i % 7))
    return time.perf_counter() - t0


def run_child(name: str, seed: int, mode: str, full_checks: bool, deadline: float,
              trace_file: str | None = None) -> dict:
    argv = [sys.executable, CHILD, name, str(seed), mode, "1" if full_checks else "0"]
    if trace_file:
        argv.append(trace_file)
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
    # imports read cached bytecode after the first repetition, as an
    # installed package would, whatever the caller's environment says
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{name} ({mode}) did not finish in time") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{name} ({mode}) exited with {proc.returncode}:\n"
                          + proc.stderr[-3000:])
    rec = json.loads(lines[-1])
    rec["setup_s"] = rec["setup_end"] - spawned
    return rec


def _repeat(seconds: float, min_rounds: int, round_fn) -> list:
    """Run rounds until the next one would overrun the window."""
    rounds, took, start = [], [], time.monotonic()
    while True:
        t0 = time.monotonic()
        rounds.append(round_fn(len(rounds)))
        took.append(time.monotonic() - t0)
        # the first round also runs the checks, so it is no guide to the rest
        typical = statistics.median(took[1:] or took)
        if len(rounds) >= min_rounds and time.monotonic() - start + typical > seconds:
            return rounds


def measure(name: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    refs = [reference_s()]

    def rep(mode, full_checks, trace_file=None):
        rec = run_child(name, seed, mode, full_checks, deadline, trace_file)
        refs.append(reference_s())
        rec["slowdown"] = (refs[-2] + refs[-1]) / (2 * REFERENCE_NOMINAL_S)
        return rec

    def median(recs, key, unit="s"):
        """Median over repetitions; a time is first scaled to the fixed speed."""
        return statistics.median(r[key] / r["slowdown"] if unit == "s" else r[key] for r in recs)

    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_file = os.path.join(OUT_DIR, f"trace-{name}-seed{seed}.json")

        def round_fn(i):
            return [rep("plain", i == 0), rep("spans", False, trace_file if i == 0 else None),
                    rep("alloc", False)]
        rounds = _repeat(seconds, 1, round_fn)
        plain = [r[0] for r in rounds]
        spans = [r[1] for r in rounds]
        alloc = [r[2] for r in rounds]
        recs = plain + spans + alloc
        for r in spans + alloc:
            r.update(r["layers"])
        layers = {m: median(spans, m, u) for m, u in LAYER_METRICS if m in spans[0]["layers"]}
        layers["semantics.interf_peak_alloc_mb"] = median(
            alloc, "semantics.interf_peak_alloc_mb", "MB")
        untraced, traced = median(plain, "verdict_s"), median(spans, "verdict_s")
        layers.update({"trace.untraced_verdict_s": untraced,
                       "trace.traced_verdict_s": traced,
                       "trace.overhead_ratio": traced / untraced})
        metrics = {m: {"value": layers[m], "unit": u}
                   for m, u in LAYER_METRICS + TRACE_METRICS}
        checks = [(f"{name}: traced repetition {i} repeats the first's counts",
                   all(r["layers"][c] == spans[0]["layers"][c] for c in EXACT_COUNTS), "")
                  for i, r in enumerate(spans[1:], 1)]
    else:
        recs = [r[0] for r in _repeat(seconds, MIN_REPS, lambda i: [rep("plain", i == 0)])]
        metrics = {m: {"value": median(recs, m, u), "unit": u} for m, u in END_TO_END}
        checks = []
        plain = recs
    checks = list(recs[0]["checks"]) + checks + [
        (f"{name}: repetition {i} gives the first's output", r["digest"] == recs[0]["digest"], "")
        for i, r in enumerate(recs[1:], 1)]
    failed = [c for c in checks if not c[1]]
    return {"correct": not failed, "attempted": len(checks), "failed": len(failed),
            "metrics": metrics, "repetitions": len(recs), "failures": failed,
            "unscaled_verdict_s": statistics.median(r["verdict_s"] for r in plain),
            "slowdown": statistics.median(r["slowdown"] for r in plain)}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "ownlin", "__init__.py")):
        print(f"error: no ownlin sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # the reference and the repetitions run on one CPU, so that the reference
    # sees the speed the repetitions get; children inherit the mask
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        deadline = time.monotonic() + RUN_LIMIT_S
        try:
            res = measure(name, args.seed, args.seconds, bool(args.trace), deadline)
        except ChildFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        results[name] = res
        for metric, m in res["metrics"].items():
            print(f"{name:22s} {metric:32s} {m['value']:12.4f} {m['unit']}")
        print(f"{name:22s} {res['attempted']} checks, {res['failed']} failed, "
              f"{res['repetitions']} repetitions; unscaled verdict "
              f"{res['unscaled_verdict_s']:.4f} s, reference at {res['slowdown']:.3f}x "
              f"its nominal {REFERENCE_NOMINAL_S} s")
        for check in res["failures"]:
            print(f"FAILED: {check[0]} {check[2]}")

    if len(names) == 1:
        res = results[names[0]]
        final = {k: res[k] for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{m}": v for n, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
