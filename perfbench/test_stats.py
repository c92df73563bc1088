"""Self-tests of the benchmark's own arithmetic and tracer.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import supercolor  # noqa: E402
from run import unexpected  # noqa: E402
from layers import OP, Tracer, layer_metrics, package_modules, read_spans  # noqa: E402
from stats import (  # noqa: E402
    MIN_BEYOND,
    completed_frac,
    failed_frac,
    local_scale,
    percentile,
    samples_beyond,
    self_times,
    spread,
)


def test_p99_keeps_ten_samples_beyond_from_1000_samples():
    assert samples_beyond(999, 990) == 9 < MIN_BEYOND
    assert samples_beyond(1000, 990) == 10 == MIN_BEYOND
    assert samples_beyond(1020, 990) == 10  # rank 1010: the ceiling of 1009.8
    assert samples_beyond(5400, 990) == 54
    assert samples_beyond(100, 900) == 10
    values = list(range(1, 1001))
    assert percentile(values, 990) == 990
    assert sum(v > percentile(values, 990) for v in values) == MIN_BEYOND


def test_percentile_is_nearest_rank_sample():
    values = list(range(1, 101))
    assert percentile(values, 500) == 50
    assert percentile(values, 900) == 90  # exactly 10 samples beyond
    assert samples_beyond(100, 900) == 10
    assert percentile(values, 999) == 100
    assert percentile([7.5], 990) == 7.5


def test_local_scale_uses_the_slices_around_each_op():
    # two lead slices, one slice before op 2, two after the last op
    at = [0, 0, 2, 4, 4]
    ms = [1.0, 1.0, 2.0, 4.0, 4.0]
    # half_window 1: the last slice before an op and the first after it,
    # slices 1-2 (median 1.5) for ops 0-1 and slices 2-3 (median 3) for ops 2-3
    assert local_scale(4, at, ms, nominal_ms=1.0, half_window=1) == pytest.approx([2 / 3, 2 / 3, 1 / 3, 1 / 3])
    # half_window 2: ops 0-1 use slices 0-3 (median 1.5), ops 2-3 slices 1-4 (median 3)
    assert local_scale(4, at, ms, nominal_ms=3.0, half_window=2) == [2.0, 2.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        local_scale(4, at, ms, nominal_ms=1.0, half_window=3)
    with pytest.raises(ValueError):
        local_scale(4, [0, 2, 1], [1.0, 1.0, 1.0], nominal_ms=1.0, half_window=1)


def test_self_time_subtracts_children_once():
    # root [0, 10] with children [1, 3] and [2, 5] (overlapping) and [8, 12]
    # (clipped to the root); grandchild [1.5, 2.5] under the first child
    parents = [-1, 0, 1, 0, 0]
    starts = [0.0, 1.0, 1.5, 2.0, 8.0]
    ends = [10.0, 3.0, 2.5, 5.0, 12.0]
    own = self_times(parents, starts, ends)
    assert own[0] == pytest.approx(10 - (4 + 2))
    assert own[1] == pytest.approx(2 - 1)
    assert own[2] == pytest.approx(1)
    assert own[3] == pytest.approx(3)
    assert own[4] == pytest.approx(4)


def test_self_time_needs_parents_first():
    with pytest.raises(ValueError):
        self_times([1, -1], [1.0, 0.0], [2.0, 3.0])


def test_failure_shares():
    assert failed_frac(2000, 1) == 0.0005
    assert completed_frac(2000, 1) == 0.9995
    assert completed_frac(5, 0) == 1.0
    for attempted, failed in ((0, 0), (3, 4), (3, -1)):
        with pytest.raises(ValueError):
            failed_frac(attempted, failed)


def test_only_expected_errors_leave_a_run_correct():
    limit = {"index": 3, "error": "ResourceLimitError: scan", "expected": True}
    other = {"index": 4, "error": "KeyError: 5", "expected": False}
    check = {"index": 5, "error": "output failed its check", "expected": False}
    assert not unexpected([{"errors": [limit], "wrong": []}, {"errors": [], "wrong": []}])
    assert unexpected([{"errors": [limit, other], "wrong": []}])
    assert unexpected([{"errors": [], "wrong": [check]}])


def test_spread_is_iqr_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx((8.25 - 2.75) / 5.5)


def test_layer_metrics_from_spans():
    names = [OP, "oracle.find_k_coloring", "matching.closed_matching",
             "matching.common_transversal", "core.require_valid", "core.check_supermodular"]
    # op 0: an UNSAT k-search then a SAT one; op 1: one transversal level
    # whose closed matching saw |S| = 7 and whose K has 2 elements, plus a
    # validation that calls a check.
    rows = [  # (parent, name, start, end, count)
        (-1, 0, 0.0, 1.0, -1),
        (0, 1, 0.1, 0.5, 0),
        (0, 1, 0.5, 0.6, 1),
        (-1, 0, 1.0, 2.0, -1),
        (3, 3, 1.1, 1.5, 2),
        (4, 2, 1.2, 1.3, 7),
        (3, 4, 1.5, 1.9, -1),
        (6, 5, 1.6, 1.8, -1),
    ]
    spans = {"names": names}
    for j, key in enumerate(("parent", "name", "start", "end", "count")):
        spans[key] = [row[j] for row in rows]
    m = layer_metrics(spans, ops=2)
    assert m["oracle.k_unsat.calls"] == 1 and m["oracle.k_unsat.s"] == pytest.approx(0.4)
    assert m["oracle.k_sat.s"] == pytest.approx(0.1)
    assert m["matching.common_transversal.s"] == pytest.approx(0.3)
    assert m["matching.closed_matching.s_side_max"] == 7
    assert m["matching.k_size_mean"] == 2
    assert m["pi.levels_per_op"] == 0.5
    assert m["core.validate.calls"] == 2
    assert m["core.validate.s"] == pytest.approx(0.4)  # 0.2 + 0.2, nesting counted once
    assert m["cli.batch_verify.s"] == 0.0


def test_install_wraps_every_binding_and_round_trips(tmp_path):
    g1, g2 = supercolor.gen_instance(supercolor.GenConfig(seed=3, n_elements=7, strategy="closure"))
    modules = package_modules()
    saved = [dict(vars(m)) for m in modules]
    try:
        tracer = Tracer()
        assert tracer.install() > 20
        assert supercolor.pi.reduce is supercolor.bunch.reduce is supercolor.reduce
        assert supercolor.cli.pi_mod.construct_pi is supercolor.construct_pi
        assert supercolor.cli.common_transversal is supercolor.matching.common_transversal
        op = tracer.wrap(lambda: supercolor.pi.construct_pi(g1, g2, check=False), OP)
        op()
        path = tmp_path / "spans.bin"
        tracer.write(path)
        spans = read_spans(path)
    finally:
        for module, before in zip(modules, saved):
            vars(module).update(before)
    seen = {spans["names"][i] for i in spans["name"]}
    # calls made inside the package, between modules, are caught
    assert {"bunch.reduce", "core.require_valid", "matching.closed_matching"} <= seen
    assert spans["parent"][0] == -1 and list(spans["start"]) == sorted(spans["start"])
    assert layer_metrics(spans, ops=1)["pi.levels_per_op"] >= 1
