"""The workloads: how each makes its inputs from a seed, and what one op is.

Every input crosses into the measured process as one line of compact JSON
text.  Its replay key (config or graph seed) stays with run.py, which logs
it for any op that fails.  One op is one instance, run start to finish.  It
returns whether its own check passed, plus the output that goes into the
run's digest.

The ops call the package through its module objects (``core.parse_instance``
and so on), so a traced run sees the wrappers installed by ``layers``.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass
from typing import Any, Callable, Iterator

from supercolor import cli, core, encode, gen, pi
from supercolor.core import ResourceLimitError
from supercolor.oracle import SearchCaps

# Explicit caps: with the defaults a batch can abort on the list product
# pre-check, which rejects a search before doing any work (see README.md).
BATTERY_CAPS = SearchCaps(k_search_elements=10, list_budget=10**12)
BATTERY_TRIALS = 3
DEEP_EDGES = 32


def compact(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class Workload:
    generate: Callable[[int, int], Iterator[tuple[str, str]]]  # (seed, count) -> (replay, input)
    prepare: Callable[[str], Any]  # input line -> op argument, before timing starts
    op: Callable[[Any], tuple[bool, Any]]  # -> (check passed, output)
    canonical: Callable[[Any], str]  # output -> digest text
    # Errors an op may raise and still leave the run correct: a known limit
    # of the package, counted as a failed op.  Any other error, or an output
    # that fails its check, makes the run incorrect.
    expected: tuple[type[Exception], ...] = ()


def _mixed_instances(seed: int, count: int) -> Iterator[tuple[str, str]]:
    for cfg in gen.mixed_configs(seed, count, n_min=6, n_max=10):
        g1, g2 = gen.gen_instance(cfg)
        yield compact(asdict(cfg)), compact(core.instance_payload(g1, g2))


def _deep_graphs(seed: int, count: int) -> Iterator[tuple[str, str]]:
    master = random.Random(seed)
    for _ in range(count):
        graph_seed = master.randrange(2**32)
        g = gen.random_multigraph(random.Random(graph_seed), DEEP_EDGES)
        doc = {"S": list(g.s_vertices), "T": list(g.t_vertices), "edges": [[s, t] for s, t, _ in g.edges]}
        yield compact({"graph_seed": graph_seed, "n_edges": DEEP_EDGES}), compact(doc)


def _battery_configs(seed: int, count: int) -> Iterator[tuple[str, str]]:
    for cfg in gen.mixed_configs(seed, count, n_min=6, n_max=7):
        line = compact(asdict(cfg))
        yield line, line


def _pi_of_instance(text: str):
    g1, g2 = core.parse_instance(text)
    pair = pi.construct_pi(g1, g2, check=False)
    return pi.verify_conditions(g1, g2, pair).all_ok, pair


def _pi_of_graph(text: str):
    g1, g2 = encode.encode_bipartite(encode.parse_graph(text))
    pair = pi.construct_pi(g1, g2, check=False)
    return pi.verify_conditions(g1, g2, pair).all_ok, pair


def _battery(cfg: gen.GenConfig):
    report = cli.batch_verify([cfg], list_trials=BATTERY_TRIALS, seed=cfg.seed, caps=BATTERY_CAPS)
    return not report.results["failures"], report


def _pair_text(pair) -> str:
    return compact({"pi1": pair.pi1, "pi2": pair.pi2})


WORKLOADS = {
    "pi_mixed": Workload(_mixed_instances, str, _pi_of_instance, _pair_text),
    # About one graph in 750 exceeds the closed-matching subset-scan cap.
    "pi_deep": Workload(_deep_graphs, str, _pi_of_graph, _pair_text, expected=(ResourceLimitError,)),
    "battery": Workload(
        _battery_configs,
        lambda line: gen.GenConfig(**json.loads(line)),
        _battery,
        lambda report: compact(report.to_payload()),
    ),
}
