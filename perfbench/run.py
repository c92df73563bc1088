#!/usr/bin/env python3
"""supercolor benchmark: one command prints every metric with its unit and
checks every output.

    python3 perfbench/run.py --workload pi_mixed --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from src/.  The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  It exits 1 when an output is wrong and 2 when the run
cannot be made, for example outside a checkout.

Untraced (--trace 0): a separate process generates the seed's inputs as
JSON text.  They are cut into chunks, and each chunk runs in a fresh worker
process, one after the other: a closed loop with one client, no threads and
no pool.  Every op therefore starts from a cold interpreter with empty
package caches, as a user's command does.  The metrics are the end_to_end
list of BENCHMARK.json.  Their times are scaled to a host of nominal speed
by the reference slices the worker runs between ops (hostspeed.py).

Traced (--trace 1): the first chunk runs three times, traced, untraced and
traced again.  The per_layer metrics come from the traced runs, whose
counters must agree exactly, and trace.overhead_frac compares their busy
time with the untraced one.

See README.md for the workloads, the metrics and what is out of scope.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from stats import (
    MIN_BEYOND,
    completed_frac,
    percentile,
    samples_beyond,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
DEADLINE_S = 170.0  # a run must end within 180 s


# Ops per cold worker process: about 5 s of op time on a 2-vCPU x86-64 VM,
# and CHUNK_SECONDS of wall time with the reference slices and set-up.  A run
# makes round(seconds / CHUNK_SECONDS) chunks, at least MIN_CHUNKS, and runs
# each once.
CHUNK_OPS = {"pi_mixed": 1800, "pi_deep": 340, "battery": 400}
CHUNK_SECONDS = 6.0
MIN_CHUNKS = 3
# Further processes per run that only set up, so that setup_s is a median
# over chunks + SETUP_ONLY_RUNS set-ups.
SETUP_ONLY_RUNS = 9


class BenchError(RuntimeError):
    """The run could not be made; no result is printed."""


class Runner:
    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.started = time.monotonic()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
        )

    def _call(self, argv: list[str], stdin: str) -> str:
        left = DEADLINE_S - (time.monotonic() - self.started)
        if left <= 0:
            raise BenchError(f"out of time after {DEADLINE_S:.0f} s")
        try:
            proc = subprocess.run(
                [sys.executable, *argv], input=stdin, capture_output=True,
                text=True, env=self.env, cwd=ROOT, timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"{argv[0]} exceeded the {DEADLINE_S:.0f} s deadline") from None
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc.stdout

    def generate(self, count: int) -> list[tuple[str, str]]:
        out = self._call(
            [str(HERE / "gen_inputs.py"), "--workload", self.workload,
             "--seed", str(self.seed), "--count", str(count)],
            "",
        )
        return [tuple(line.split("\t", 1)) for line in out.splitlines()]

    def chunk(self, inputs: list[tuple[str, str]], spans: Path | None = None, setup_only: bool = False) -> dict:
        argv = [str(HERE / "worker.py"), "--workload", self.workload]
        if spans is not None:
            argv += ["--spans", str(spans)]
        if setup_only:
            argv.append("--setup-only")
        text = "".join(f"{line}\n" for _, line in inputs)
        argv += ["--spawned-at", repr(time.monotonic())]
        result = json.loads(self._call(argv, text).splitlines()[-1])
        for bad in result.get("errors", []) + result.get("wrong", []):
            print(f"failed op: workload={self.workload} replay={inputs[bad['index']][0]} {bad['error']}")
        return result


def unexpected(runs: list[dict]) -> bool:
    """Whether an op failed its check or raised an error that its workload
    does not expect; such a run is incorrect, not only slower."""
    bad = [e for r in runs for e in r["errors"] + r["wrong"] if not e["expected"]]
    for e in bad:
        print(f"unexpected failure: {e['error']}", file=sys.stderr)
    return bool(bad)


def timed_run(runner: Runner, seconds: int) -> tuple[dict, dict]:
    step = CHUNK_OPS[runner.workload]
    n_chunks = max(MIN_CHUNKS, round(seconds / CHUNK_SECONDS))
    inputs = runner.generate(n_chunks * step)
    chunks = [inputs[i : i + step] for i in range(0, len(inputs), step)]
    runs = [runner.chunk(chunk) for chunk in chunks]
    setups = [r["setup_s"] for r in runs]
    setups += [runner.chunk(chunks[i % len(chunks)], setup_only=True)["setup_s"] for i in range(SETUP_ONLY_RUNS)]

    correct = not unexpected(runs)
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["errors"]) + len(r["wrong"]) for r in runs)
    latencies = sorted(t for r in runs for t in r["latencies_ms"] if t is not None)
    if samples_beyond(len(latencies), 900) < MIN_BEYOND:
        raise BenchError(f"{len(latencies)} latency samples leave fewer than {MIN_BEYOND} beyond p90")

    digest = hashlib.sha256("".join(r["digest"] for r in runs).encode()).hexdigest()

    print(f"{runner.workload} seed={runner.seed}: {len(inputs)} inputs in {len(chunks)} chunks of "
          f"{step}, each chunk in a fresh process; {attempted} ops attempted, {failed} failed")
    # p99 is logged, not reported: host stalls shorter than an op move it.
    print(f"latency samples {len(latencies)}, of which {samples_beyond(len(latencies), 900)} lie beyond "
          f"p90; p99 {percentile(latencies, 990):.3f} ms with {samples_beyond(len(latencies), 990)} beyond")
    print(f"output digest sha256:{digest}")
    speeds = [r["speed"] for r in runs]
    print(f"host speed (nominal reference slice time / measured) per process: "
          f"{min(speeds):.3f}-{max(speeds):.3f}, median {statistics.median(speeds):.3f}; "
          f"unscaled busy time {sum(r['raw_busy_s'] for r in runs):.2f} s, "
          f"{attempted / sum(r['raw_busy_s'] for r in runs):.1f} ops/s")
    metrics = {
        "ops_per_s": 1000.0 * len(latencies) / sum(latencies),
        "op_ms_p50": percentile(latencies, 500),
        "op_ms_p90": percentile(latencies, 900),
        "completed_frac": completed_frac(attempted, failed),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "setup_s": statistics.median(setups),
    }
    return {"correct": correct, "attempted": attempted, "failed": failed}, metrics


def traced_run(runner: Runner) -> tuple[dict, dict]:
    from layers import EXACT, layer_metrics, read_spans

    inputs = runner.generate(CHUNK_OPS[runner.workload])
    runs = []
    for i, traced in enumerate((True, False, True)):
        spans = OUT / f"spans-{runner.workload}-{i}.bin" if traced else None
        result = runner.chunk(inputs, spans)
        if traced:
            result["layers"] = layer_metrics(read_spans(spans), ops=len(inputs))
        runs.append(result)
    traced_runs = [r for r in runs if "layers" in r]
    untraced = next(r for r in runs if "layers" not in r)

    digests = {r["digest"] for r in runs}
    counters = [{k: r["layers"][k] for k in EXACT} for r in traced_runs]
    correct = not unexpected(runs) and len(digests) == 1
    if len(digests) != 1:
        print(f"tracing changed the outputs: digests {sorted(digests)}", file=sys.stderr)
    if counters[0] != counters[1]:
        correct = False
        print(f"counters differ between traced runs: {counters}", file=sys.stderr)

    metrics = {}
    for name, first in traced_runs[0]["layers"].items():
        values = [r["layers"][name] for r in traced_runs]
        metrics[name] = statistics.median(values) if name not in EXACT else first
    busy = statistics.median(r["busy_s"] for r in traced_runs)
    metrics["trace.overhead_frac"] = busy / untraced["busy_s"] - 1.0
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(len(r["errors"]) + len(r["wrong"]) for r in runs)
    print(f"{runner.workload} seed={runner.seed}: {len(inputs)} ops traced twice and run once untraced; "
          f"output digest sha256:{digests.pop()}")
    return {"correct": correct, "attempted": attempted, "failed": failed}, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(CHUNK_OPS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "supercolor" / "__init__.py").is_file():
        print(f"perfbench: no package at {SRC / 'supercolor'}; run from a checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    OUT.mkdir(parents=True, exist_ok=True)
    runner = Runner(args.workload, args.seed)
    try:
        head, values = traced_run(runner) if args.trace else timed_run(runner, args.seconds)
    except BenchError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    if set(values) != {m["name"] for m in wanted}:
        print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json", file=sys.stderr)
        return 2
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({**head, "metrics": metrics}))
    return 0 if head["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
