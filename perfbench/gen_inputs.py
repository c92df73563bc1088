"""Generation step: print a workload's inputs for one seed, one per line, as
``replay<TAB>input``.

It runs in a process of its own, so nothing it computes or caches (the
generators validate every instance they return) reaches the measured
process, which sees only the input text.

    PYTHONPATH=src python3 perfbench/gen_inputs.py --workload pi_deep --seed 1 --count 5
"""

from __future__ import annotations

import argparse
import sys

from workloads import WORKLOADS


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args()
    for replay, text in WORKLOADS[args.workload].generate(args.seed, args.count):
        sys.stdout.write(f"{replay}\t{text}\n")


if __name__ == "__main__":
    main()
