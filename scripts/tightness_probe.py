#!/usr/bin/env python3
"""Probe how tight the per-element list-length bound is.

For random instances, draw lists one shorter than max{d1(u), d2(u)} on every
element where that leaves a nonempty list, and count how often a coloring
still exists.  Shorter lists may or may not admit a coloring; the interesting
output is the failure rate, which must be zero at the full bound.

    python scripts/tightness_probe.py --count 100 --seed 3

Exits 0 after printing the counts, 2 on bad input, 3 when a search cap
(SUPERCOLOR_CAPS, read as the CLI reads it) is exceeded or generation gives
up, and 4 on an internal error, as the CLI does.
"""

import argparse
import random
import sys

from supercolor import (
    delta,
    dump_json,
    find_list_coloring,
    gen_instance,
    mixed_configs,
)
from supercolor.cli import caps_from_env, error_exit
from supercolor.oracle import tight_lengths


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--n-max", type=int, default=7)
    parser.add_argument("--draws", type=int, default=5, help="list draws per instance")
    args = parser.parse_args()

    try:
        counts = probe(args)
    except Exception as e:  # the exit code tells expected errors from internal ones
        return error_exit(e)
    sys.stdout.write(dump_json(counts))
    return 0


def probe(args) -> dict:
    caps = caps_from_env()
    colorable = 0
    uncolorable = 0
    skipped = 0
    for cfg in mixed_configs(seed=args.seed, count=args.count, n_max=args.n_max):
        g1, g2 = gen_instance(cfg)
        bound = tight_lengths(g1, g2)
        if all(b == 1 for b in bound.values()):
            skipped += 1  # nothing to shorten
            continue
        sigma = delta(g1, g2) + 2
        rng = random.Random(cfg.seed ^ 0x7717)
        for _ in range(args.draws):
            lists = {
                u: tuple(sorted(rng.sample(range(1, sigma + 1), max(1, b - 1))))
                for u, b in bound.items()
            }
            if find_list_coloring(g1, g2, lists, caps) is None:
                uncolorable += 1
            else:
                colorable += 1
    total = colorable + uncolorable
    return {
        "draws": total,
        "colorable": colorable,
        "uncolorable": uncolorable,
        "skipped_trivial_instances": skipped,
        "failure_rate": (uncolorable / total) if total else None,
    }


if __name__ == "__main__":
    sys.exit(main())
