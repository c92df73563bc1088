"""Per-layer tracing from outside the package.

In a traced run every function named in TRACED is replaced by a wrapper at
each module attribute that binds it (``supercolor.bunch.reduce`` as well as
``supercolor.pi.reduce`` and ``supercolor.reduce``).  The package looks its
globals up at call time, so calls between its own modules are caught too.
Each call records a span: parent span, function, start, end and one count
taken from its arguments or result.  Spans stay in memory and are written to
a file once the run ends; ``layer_metrics`` turns them into the per-layer
figures.
"""

from __future__ import annotations

import importlib
import json
from array import array
from time import perf_counter
from typing import Callable

from stats import self_times

OP = "op"  # the root span of one benchmark op

# function -> layer group it is charged to.  Self time is charged, so the
# groups split an op's busy time without counting nested calls twice.
TRACED = {
    "core.parse_instance": "core.parse_instance",
    "core.require_valid": "core.validate",
    "core.require_capacity": "core.validate",
    "core.check_intersecting_family": "core.validate",
    "core.check_supermodular": "core.validate",
    "core.check_capacity": "core.validate",
    "bunch.reduce": "bunch.reduce",
    "bunch.bunch_partition": "bunch.bunch_partition",
    "bunch.effective_family": "bunch.effective_family",
    "bunch.d_function": "bunch.d_function",
    "matching.common_transversal": "matching.common_transversal",
    "matching.closed_matching": "matching.closed_matching",
    "pi.construct_pi": "pi.construct_pi",
    "pi.construct_pi_traced": "pi.construct_pi",
    "pi.verify_conditions": "pi.verify_conditions",
    "oracle.find_k_coloring": "oracle.k",  # split into k_sat / k_unsat below
    "oracle.find_list_coloring": "oracle.list",
    "encode.parse_graph": "encode.parse_graph",
    "encode.encode_bipartite": "encode.encode_bipartite",
    "gen.gen_instance": "gen.gen_instance",
    "cli.batch_verify": "cli.batch_verify",
}

MODULES = ("core", "bunch", "matching", "pi", "oracle", "encode", "gen", "cli")


def package_modules() -> list:
    """The package and its eight layer modules: every place a binding can live."""
    return [importlib.import_module("supercolor")] + [
        importlib.import_module(f"supercolor.{m}") for m in MODULES
    ]

# Counts taken at the span boundary: |S| of the graph handed to
# closed_matching, |K| of the transversal found, 1 for a k-coloring found and
# 0 for a proof that none exists.  Other spans record -1.
ARG_COUNTS: dict[str, Callable] = {
    "matching.closed_matching": lambda args, kwargs: len(args[0].s_vertices),
}
RESULT_COUNTS: dict[str, Callable] = {
    "matching.common_transversal": lambda result: len(result.k),
    "oracle.find_k_coloring": lambda result: 0 if result is None else 1,
}

PER_LAYER = (
    "core.validate.s",
    "core.validate.calls",
    "core.parse_instance.s",
    "bunch.reduce.s",
    "bunch.reduce.calls",
    "bunch.bunch_partition.s",
    "bunch.bunch_partition.calls",
    "bunch.effective_family.s",
    "bunch.d_function.s",
    "matching.common_transversal.s",
    "matching.closed_matching.s",
    "matching.closed_matching.s_side_max",
    "matching.k_size_mean",
    "pi.construct_pi.s",
    "pi.levels_per_op",
    "pi.verify_conditions.s",
    "oracle.k_unsat.s",
    "oracle.k_unsat.calls",
    "oracle.k_sat.s",
    "oracle.list.s",
    "oracle.list.calls",
    "encode.parse_graph.s",
    "encode.encode_bipartite.s",
    "gen.gen_instance.s",
    "cli.batch_verify.s",
)

# Counters that must repeat exactly between two traced runs of one seed.
EXACT = tuple(name for name in PER_LAYER if not name.endswith(".s"))


class Tracer:
    """Span recorder.  Span ids are indices into parallel arrays in start order."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.count = array("q")
        self._stack = [-1]

    def wrap(self, fn: Callable, name: str) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        parent, names, start, end, count = self.parent, self.name, self.start, self.end, self.count
        stack = self._stack
        arg_count = ARG_COUNTS.get(name)
        result_count = RESULT_COUNTS.get(name)

        def traced(*args, **kwargs):
            sid = len(end)
            parent.append(stack[-1])
            names.append(nid)
            count.append(-1 if arg_count is None else arg_count(args, kwargs))
            end.append(0.0)
            stack.append(sid)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf_counter()
                stack.pop()
            if result_count is not None:
                count[sid] = result_count(result)
            return result

        return traced

    def install(self) -> int:
        """Wrap every TRACED function at every binding in the package;
        return how many bindings were replaced."""
        modules = package_modules()
        wrappers = {}
        for qualname in TRACED:
            mod, attr = qualname.split(".")
            fn = getattr(importlib.import_module(f"supercolor.{mod}"), attr)
            wrappers[id(fn)] = (fn, self.wrap(fn, qualname))
        replaced = 0
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    replaced += 1
        return replaced

    def write(self, path) -> None:
        header = {"names": self.names, "spans": len(self.end)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.parent, self.name, self.start, self.end, self.count):
                arr.tofile(fh)


def read_spans(path) -> dict:
    """Inverse of Tracer.write: names plus the five span arrays."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["spans"]
        out = {"names": header["names"]}
        for key, code in (("parent", "q"), ("name", "H"), ("start", "d"), ("end", "d"), ("count", "q")):
            arr = array(code)
            arr.fromfile(fh, n)
            out[key] = arr
    return out


def layer_metrics(spans: dict, ops: int) -> dict[str, float]:
    """Per-layer self times, call counts and the matching/pi counters."""
    names = spans["names"]
    selfs = self_times(spans["parent"], spans["start"], spans["end"])
    secs: dict[str, float] = {}
    calls: dict[str, int] = {}
    s_side_max = 0
    k_sizes = []
    for nid, own, n in zip(spans["name"], selfs, spans["count"]):
        fname = names[nid]
        if fname == OP:
            continue
        group = TRACED[fname]
        if group == "oracle.k":
            group = {1: "oracle.k_sat", 0: "oracle.k_unsat"}.get(n, "oracle.k_raised")
        secs[group] = secs.get(group, 0.0) + own
        calls[group] = calls.get(group, 0) + 1
        if fname == "matching.closed_matching":
            s_side_max = max(s_side_max, n)
        elif fname == "matching.common_transversal" and n >= 0:
            k_sizes.append(n)
    out = {}
    for metric in PER_LAYER:
        group, _, kind = metric.rpartition(".")
        if kind == "s":
            out[metric] = secs.get(group, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(group, 0)
    out["matching.closed_matching.s_side_max"] = s_side_max
    out["matching.k_size_mean"] = sum(k_sizes) / len(k_sizes) if k_sizes else 0.0
    out["pi.levels_per_op"] = calls.get("matching.common_transversal", 0) / ops
    return out
