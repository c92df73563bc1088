"""The benchmark's entry points still work against the package.

perfbench/ wraps the functions named in layers.TRACED, reads a count from
the arguments or the result of some of them (layers.ARG_COUNTS and
layers.RESULT_COUNTS), and runs the ops of workloads.WORKLOADS.  A refactor
that renames one of them, changes a shape the tracer reads, or breaks an op,
fails here in the test suite instead of in a benchmark run.  The modules are
imported from perfbench/ without writing bytecode there.
"""

import importlib
import itertools
import pathlib
import sys

import pytest

from supercolor import BipartiteGraph, delta, load_instance

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
BENCH_MODULES = ("layers", "stats", "workloads")  # layers imports stats


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield importlib.import_module("layers"), importlib.import_module("workloads")
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def _function(qualname):
    mod, attr = qualname.split(".")
    return getattr(importlib.import_module(f"supercolor.{mod}"), attr, None)


def test_traced_names_resolve_to_callables(bench):
    layers, _ = bench
    for qualname in layers.TRACED:
        assert callable(_function(qualname)), qualname


def _count_calls(example_path):
    """Real calls of each function whose span count the tracer takes, as
    (qualname, args, count the tracer must read)."""
    g1, g2 = load_instance(example_path)
    graph = BipartiteGraph.from_pairs(
        ["s1", "s2", "s3"], ["t1", "t2"], [("s1", "t1"), ("s2", "t2"), ("s3", "t1")]
    )
    k = delta(g1, g2)
    return [
        ("matching.closed_matching", (graph,), 3),
        ("matching.common_transversal", (g1, g2), 1),
        ("oracle.find_k_coloring", (g1, g2, k), 1),
        ("oracle.find_k_coloring", (g1, g2, k - 1), 0),
    ]


def test_span_counts_read_real_calls(bench, example_path):
    layers, _ = bench
    calls = _count_calls(example_path)
    assert {name for name, _, _ in calls} == set(layers.ARG_COUNTS) | set(layers.RESULT_COUNTS)
    for qualname, args, want in calls:
        result = _function(qualname)(*args)
        if qualname in layers.ARG_COUNTS:
            assert layers.ARG_COUNTS[qualname](args, {}) == want, qualname
        if qualname in layers.RESULT_COUNTS:
            assert layers.RESULT_COUNTS[qualname](result) == want, qualname


def test_workload_ops_pass_on_seed_one(bench):
    _, workloads = bench
    for name, w in workloads.WORKLOADS.items():
        for replay, line in itertools.islice(w.generate(1, 3), 3):
            arg = w.prepare(line)
            try:
                ok, output = w.op(arg)
            except w.expected:
                continue
            assert ok, (name, replay)
            assert isinstance(w.canonical(output), str), (name, replay)
