#!/usr/bin/env python3
"""Run the benchmark on one workload over several seeds and report, for each
end-to-end metric, the median of the runs and their spread: the distance
between the first and third quartile as a share of the median.  A spread
must stay within the metric's bound in BENCHMARK.json, and should stay
below a third of it.

    python3 perfbench/spread.py --workload battery --seeds 1-10
    python3 perfbench/spread.py --workload battery --seeds 11-20 --against 1-10

The figures of every run are kept in .bench_build/perfbench/, so --against
compares the medians of two sets of seeds without running the first again.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys

from run import CHUNK_OPS, OUT, ROOT
from stats import spread


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def tree_digest() -> str:
    """sha256 over the code that makes a run's figures."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_once(workload: str, seed: int, seconds: int, tree: str) -> dict:
    path = OUT / f"e2e-{workload}-{seed}-{seconds}-{tree}.json"
    if path.exists():
        return json.loads(path.read_text())
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=ROOT,
    )
    if proc.returncode != 0:
        sys.exit(f"seed {seed} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    path.write_text(json.dumps(result))
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(CHUNK_OPS), required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="a range such as 1-10")
    parser.add_argument("--against", type=seeds, default=None, help="an earlier range to compare medians with")
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    tree = tree_digest()
    OUT.mkdir(parents=True, exist_ok=True)

    def collect(seed_list):
        runs = [run_once(args.workload, s, spec["run_seconds"], tree) for s in seed_list]
        if not all(r["correct"] for r in runs):
            sys.exit("a run reported incorrect outputs")
        return {m["name"]: [r["metrics"][m["name"]]["value"] for r in runs] for m in spec["end_to_end"]}

    now = collect(args.seeds)
    before = collect(args.against) if args.against else None
    ok = True
    print(f"{args.workload}, seeds {args.seeds[0]}-{args.seeds[-1]}")
    for m in spec["end_to_end"]:
        name, bound = m["name"], m["bound"]
        med, sp = statistics.median(now[name]), spread(now[name])
        line = f"  {name:16s} median {med:12.6g} {m['unit']:6s} spread {sp:6.3f}  bound {bound}"
        if sp > bound:
            ok = False
            line += "  SPREAD ABOVE BOUND"
        elif sp > bound / 3:
            line += "  (above a third of the bound)"
        if before is not None:
            old = statistics.median(before[name])
            worse = (old - med) / old if m["better"] == "higher" else (med - old) / old
            line += f"  vs {old:.6g}: {worse:+.3f} worse"
            if worse > bound:
                ok = False
                line += "  WORSE THAN BOUND"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
