"""One repetition of one workload, in a fresh interpreter.

Usage: python3 bench/child.py WORKLOAD SEED MODE FULL_CHECKS [TRACE_FILE]

MODE is ``plain`` (no tracing), ``spans`` or ``alloc``.  The
process builds the inputs, times the verdict, samples its peak resident
memory, and only then runs the checks.  The last line of its output is one
JSON object; ``run.py`` reads it.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.dirname(os.path.abspath(__file__))]


def peak_rss_mb() -> float:
    """Peak resident memory of this process image.  ``VmHWM`` counts only
    this image; ``ru_maxrss`` also holds the parent's size when it started
    this process, so it serves only where ``/proc`` is missing."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv: list[str]) -> int:
    name, seed, mode, full_checks = argv[0], int(argv[1]), argv[2], argv[3] == "1"
    trace_file = argv[4] if len(argv) > 4 else None

    import ownlin
    if not os.path.abspath(ownlin.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"ownlin imported from {ownlin.__file__}, not from this checkout")
    from tracer import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    tracer = None
    if mode != "plain":
        tracer = Tracer(mode)
        tracer.install()
    inputs = workload.setup(seed)
    setup_end = time.monotonic()

    t0 = time.perf_counter()
    result = workload.verdict(inputs)
    verdict_s = time.perf_counter() - t0
    peak_mb = peak_rss_mb()
    if tracer is not None:
        tracer.uninstall()

    out = {"setup_end": setup_end, "verdict_s": verdict_s, "peak_rss_mb": peak_mb,
           "digest": workload.digest(result), "checks": []}
    if tracer is not None:
        out["layers"] = tracer.metrics()
        if trace_file and mode == "spans":
            with open(trace_file, "w") as f:
                json.dump({"workload": name, "seed": seed, "verdict_s": verdict_s,
                           "spans": tracer.span_records()}, f, indent=1)
    if full_checks:
        out["checks"] = workload.checks(inputs, result)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
