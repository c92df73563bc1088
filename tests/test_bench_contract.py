"""The benchmark's entry points still work against the package.

perfbench/ wraps the functions named in layers.TRACED and runs the ops of
workloads.WORKLOADS.  A refactor that renames one of them, or breaks an op,
fails here in the test suite instead of in a benchmark run.  The modules are
imported from perfbench/ without writing bytecode there.
"""

import importlib
import itertools
import pathlib
import sys

import pytest

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


def test_traced_names_resolve_to_callables(bench):
    layers, _ = bench
    for qualname in layers.TRACED:
        mod, attr = qualname.split(".")
        fn = getattr(importlib.import_module(f"supercolor.{mod}"), attr, None)
        assert callable(fn), qualname


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
