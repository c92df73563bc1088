"""Measured process: run one chunk of a workload's ops from a cold start.

Reads one input per line on stdin and runs the ops in order, in this one
process, each start to finish.  Between ops it runs the reference slices of
hostspeed.py, and it scales every time it reports to a host of nominal speed.
Prints one JSON line: per-op latencies, the ops that raised or failed their
check, a sha256 over the outputs, set-up time, busy time, the host's speed
and peak RSS; with --setup-only, only the set-up time.  With --spans it
installs the tracer before the first op and writes the spans to that file
after the last.

    PYTHONPATH=src python3 perfbench/worker.py --workload pi_mixed --spawned-at 0 < inputs
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import hostspeed
from stats import local_scale


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument(
        "--spawned-at", type=float, required=True,
        help="time.monotonic() of the parent just before it started this process",
    )
    parser.add_argument("--spans", default=None, help="trace, and write the spans here")
    parser.add_argument("--setup-only", action="store_true", help="stop before the first op")
    args = parser.parse_args()

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    op = workload.op
    tracer = None
    if args.spans:
        from layers import OP, Tracer

        tracer = Tracer()
        tracer.install()
        op = tracer.wrap(op, OP)
    items = [workload.prepare(line) for line in sys.stdin.read().splitlines()]

    digest = hashlib.sha256()
    spent = []  # per op, its measured time in s
    errors = []  # ops that raised
    wrong = []  # ops whose own check failed
    slice_at, slice_ms = [], []  # reference slice k ran just before op slice_at[k]
    clock = time.perf_counter
    setup_s = time.monotonic() - args.spawned_at
    reference = hostspeed.Reference()
    for _ in range(hostspeed.LEAD_SLICES):
        slice_at.append(0)
        slice_ms.append(reference.slice_ms())
    setup_s *= hostspeed.NOMINAL_MS / statistics.median(slice_ms)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}), flush=True)
        os._exit(0)
    busy_s = 0.0
    next_slice = hostspeed.SLICE_EVERY_S
    for i, item in enumerate(items):
        if busy_s >= next_slice:
            slice_at.append(i)
            slice_ms.append(reference.slice_ms())
            next_slice = busy_s + hostspeed.SLICE_EVERY_S
        started = clock()
        try:
            ok, output = op(item)
        except Exception as e:  # a failed op is counted and logged; the run goes on
            spent.append(clock() - started)
            errors.append({
                "index": i,
                "error": f"{type(e).__name__}: {e}",
                "expected": isinstance(e, workload.expected),
            })
            digest.update(f"{errors[-1]['error']}\n".encode())
        else:
            spent.append(clock() - started)
            if not ok:
                wrong.append({"index": i, "error": "output failed its check", "expected": False})
            digest.update(workload.canonical(output).encode() + b"\n")
        busy_s += spent[-1]
    for _ in range(hostspeed.HALF_WINDOW):
        slice_at.append(len(items))
        slice_ms.append(reference.slice_ms())
    # less the reference table, which the package never sees
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0 - reference.table_mb
    if tracer is not None:
        tracer.write(args.spans)

    scales = local_scale(len(items), slice_at, slice_ms, hostspeed.NOMINAL_MS, hostspeed.HALF_WINDOW)
    failed = {e["index"] for e in errors + wrong}
    print(json.dumps({
        "attempted": len(items),
        "errors": errors,
        "wrong": wrong,
        # per op, scaled to a host of nominal speed; None where the op failed
        "latencies_ms": [None if i in failed else 1000.0 * t * k for i, (t, k) in enumerate(zip(spent, scales))],
        "busy_s": sum(t * k for t, k in zip(spent, scales)),
        "setup_s": setup_s,
        "raw_busy_s": busy_s,
        "speed": hostspeed.NOMINAL_MS / statistics.median(slice_ms),
        "peak_rss_mb": peak_rss_mb,
        "digest": digest.hexdigest(),
    }), flush=True)
    # Skip interpreter teardown, which frees every cached object one by one
    # and would add most of a second per process to the run's wall time.
    os._exit(0)


if __name__ == "__main__":
    main()
