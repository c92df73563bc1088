#!/usr/bin/env python3
"""Generate a batch of random instances and run the full verification battery
on each: auxiliary-pair conditions, random tight-list colorability, and the
minimum color count against the value bound.

    python scripts/batch_verify.py --count 200 --seed 7 --out summary.json

Exits 1 if any instance fails; the summary then carries a replayable config
and the serialized instance for every failure.  Exits 2 on bad input, 3
when a search cap is exceeded or generation gives up, and 4 on an internal
error, as the CLI does.
"""

import argparse
import sys

from supercolor import dump_json, mixed_configs
from supercolor.cli import batch_verify, caps_from_env, error_exit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--trials", type=int, default=3, help="list trials per instance")
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    try:
        configs = mixed_configs(seed=args.seed, count=args.count, n_max=args.n_max)
        report = batch_verify(
            configs,
            list_trials=args.trials,
            seed=args.seed,
            caps=caps_from_env(),
            out=args.out,
        )
    except Exception as e:  # the exit code tells expected errors from internal ones
        return error_exit(e)
    sys.stdout.write(dump_json(report.to_payload()))
    print(f"batch of {args.count} finished in {report.timing:.2f}s", file=sys.stderr)
    return 1 if report.results["failures"] else 0


if __name__ == "__main__":
    sys.exit(main())
