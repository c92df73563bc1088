"""Acceptance battery: one test per criterion, each printing a pass/fail line.

Every criterion function is a pure function of its hard-coded seeds and
returns (summary, elapsed); the summaries are JSON-able and byte-compared in
the determinism criterion, so they must never contain timing or other
volatile data.
"""

import hashlib
import itertools
import pathlib
import random
import time

import pytest

import supercolor as sc
from supercolor import dump_json
from supercolor.cli import instance_digest
from lemmas import (
    check_degree_identity,
    coloring_is_proper,
    cover_witness,
    degrees,
    is_intersecting,
    part_of,
    random_lists,
    sample_partial_transversal,
)

DATA = pathlib.Path(__file__).parent / "data"


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _sets(ground, masks) -> list:
    return sorted([list(ground.names_of(m)) for m in masks])


# -- criterion 1: golden worked example ---------------------------------------

def criterion_1():
    started = time.monotonic()
    g1, g2 = sc.load_instance(DATA / "example1.json")
    analyze = {
        "effective_family": _sets(g1.ground, sc.effective_family(g1)),
        "partition": _sets(g1.ground, sc.bunch_partition(g1)),
        "d": sc.d_function(g1),
    }
    reduced, _ = sc.reduce(g1, g1.ground.mask_of(["f", "j"]))
    after = {
        "effective_family": _sets(reduced.ground, sc.effective_family(reduced)),
        "partition": _sets(reduced.ground, sc.bunch_partition(reduced)),
        "d": sc.d_function(reduced),
    }
    expected_analyze = {
        "effective_family": sorted(
            [
                list("abcd"),
                list("cdef"),
                list("abcdef"),
                list("cd"),
                list("ghij"),
                list("gh"),
            ]
        ),
        "partition": sorted([list("abcdef"), list("ghij")]),
        "d": dict({u: 4 for u in "abcdef"}, **{u: 3 for u in "ghij"}),
    }
    expected_after = {
        "effective_family": sorted([list("abcd"), list("cd"), list("gh")]),
        "partition": sorted([list("abcd"), ["e"], list("gh"), ["i"]]),
        "d": dict({u: 3 for u in "abcd"}, e=1, i=1, g=2, h=2),
    }
    summary = {
        "criterion": 1,
        "digest": instance_digest(g1, g2),
        "analyze": analyze,
        "after_reduce": after,
        "pass": analyze == expected_analyze and after == expected_after,
    }
    return summary, time.monotonic() - started


# -- criterion 2: auxiliary pair conditions on 1000 instances ------------------

def criterion_2():
    started = time.monotonic()
    configs = sc.mixed_configs(seed=1002, count=1000, n_max=8)
    failures = 0
    acc = []
    for cfg in configs:
        g1, g2 = sc.gen_instance(cfg)
        pair = sc.construct_pi(g1, g2, check=False)
        report = sc.verify_conditions(g1, g2, pair)
        if not report.all_ok:
            failures += 1
        acc.append((sorted(pair.pi1.items()), sorted(pair.pi2.items())))
    summary = {
        "criterion": 2,
        "instances": len(configs),
        "failures": failures,
        "pairs_digest": _digest(acc),
        "pass": failures == 0 and len(configs) >= 1000,
    }
    return summary, time.monotonic() - started


# -- criterion 3: tight random lists always admit a coloring -------------------

def criterion_3():
    started = time.monotonic()
    configs = sc.mixed_configs(seed=1003, count=300, n_max=7)
    trials = 0
    failures = 0
    acc = []
    for cfg in configs:
        g1, g2 = sc.gen_instance(cfg)
        rng = random.Random(cfg.seed ^ 0xC3)
        sigma = sc.delta(g1, g2) + 2
        for _ in range(5):
            lists = random_lists(g1, g2, sigma, rng)
            coloring = sc.find_list_coloring(g1, g2, lists)
            trials += 1
            if coloring is None:
                failures += 1
            else:
                acc.append(sorted(coloring.items()))
    summary = {
        "criterion": 3,
        "instances": len(configs),
        "trials": trials,
        "failures": failures,
        "colorings_digest": _digest(acc),
        "pass": failures == 0 and len(configs) >= 300 and trials == 5 * len(configs),
    }
    return summary, time.monotonic() - started


# -- criterion 4: minimum color count equals the value bound -------------------

def criterion_4():
    started = time.monotonic()
    configs = sc.mixed_configs(seed=1004, count=200, n_max=7)
    mismatches = 0
    below_threshold_hits = 0
    nontrivial = 0
    for cfg in configs:
        g1, g2 = sc.gen_instance(cfg)
        span = sc.delta(g1, g2)
        if sc.min_k(g1, g2) != span:
            mismatches += 1
        if span >= 2:
            nontrivial += 1
            if sc.find_k_coloring(g1, g2, span - 1) is not None:
                below_threshold_hits += 1
    summary = {
        "criterion": 4,
        "instances": len(configs),
        "mismatches": mismatches,
        "below_threshold_hits": below_threshold_hits,
        "nontrivial": nontrivial,
        "pass": mismatches == 0
        and below_threshold_hits == 0
        and len(configs) >= 200
        and nontrivial > 0,
    }
    return summary, time.monotonic() - started


# -- criterion 5: bipartite edge-coloring specialization -----------------------

def criterion_5():
    started = time.monotonic()
    rng = random.Random(1005)
    # nine tight lists of length up to nine overflow the default product cap;
    # existence is guaranteed, so the first-success search stays fast
    caps = sc.SearchCaps(k_search_elements=10, list_budget=10**10)
    graphs = 200
    identity_failures = 0
    equivalence_failures = 0
    coloring_checks = 0
    list_failures = 0
    for _ in range(graphs):
        graph = sc.random_multigraph(rng, rng.randint(1, 9))
        if not check_degree_identity(graph).ok:
            identity_failures += 1
        g1, g2 = sc.encode_bipartite(graph)
        max_deg = max(v for _, v in itertools.chain(g1.entries, g2.entries))
        for _ in range(5):
            phi = {eid: rng.randint(1, max_deg + 1) for eid in graph.edge_ids()}
            proper = coloring_is_proper(graph, phi)
            dominating = sc.dominates(phi, g1).ok and sc.dominates(phi, g2).ok
            coloring_checks += 1
            if proper != dominating:
                equivalence_failures += 1
        lists = {}
        s_deg, t_deg = degrees(graph)
        for s, t, eid in graph.edges:
            need = max(s_deg[s], t_deg[t])
            lists[eid] = tuple(sorted(rng.sample(range(1, max_deg + 3), need)))
        if sc.find_list_coloring(g1, g2, lists, caps) is None:
            list_failures += 1
    summary = {
        "criterion": 5,
        "graphs": graphs,
        "identity_failures": identity_failures,
        "coloring_checks": coloring_checks,
        "equivalence_failures": equivalence_failures,
        "list_failures": list_failures,
        "pass": identity_failures == 0
        and equivalence_failures == 0
        and list_failures == 0
        and coloring_checks >= 1000,
    }
    return summary, time.monotonic() - started


# -- criterion 6: structural invariants of partitions and reductions -----------

def _mask_pairs(fn):
    masks = [m for m, _ in fn.entries]
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            yield a, b


def criterion_6():
    started = time.monotonic()
    configs = sc.mixed_configs(seed=1006, count=250, n_max=7)
    rng = random.Random(1006)
    props = {
        name: {"checked": 0, "violations": 0}
        for name in (
            "partition_property",
            "part_value_bound",
            "effective_union",
            "effective_min_size",
            "reduction_valid_any_k",
            "cover_by_maximal_part",
            "cover_witness_contract",
            "reduced_capacity",
            "reduced_d_map",
            "refinement",
            "marked_value_monotone",
            "untouched_parts_survive",
            "touched_parts_drop",
        )
    }

    def tally(name, ok):
        props[name]["checked"] += 1
        if not ok:
            props[name]["violations"] += 1

    pair_count = 0
    for cfg in configs:
        for g in sc.gen_instance(cfg):
            pair_count += 1
            ground = g.ground
            values = dict(g.entries)
            eff = sc.effective_family(g)
            eff_masks = set(eff)
            parts = sc.bunch_partition(g)
            d_map = sc.d_function(g)

            union = 0
            disjoint = True
            for part in parts:
                if union & part:
                    disjoint = False
                union |= part
            tally("partition_property", disjoint and union == ground.full_mask)

            covered = 0
            for x in eff:
                covered |= x
            for i, name in enumerate(ground.names):
                part = part_of(parts, 1 << i)
                if (covered >> i) & 1:
                    ok = part in eff_masks and d_map[name] == values[part] >= 2
                else:
                    ok = part == 1 << i and d_map[name] == 1
                tally("part_value_bound", ok)

            for x in eff:
                for y in eff:
                    if x < y and is_intersecting(x, y):
                        u = x | y
                        ok = u in eff_masks and values[u] > max(values[x], values[y])
                        tally("effective_union", ok)
                tally("effective_min_size", x.bit_count() >= 2)
                part = part_of(parts, x)
                tally("cover_by_maximal_part", x & ~part == 0 and part in eff_masks)

            for x, v in g.entries:
                if v >= 2:
                    witness, part = cover_witness(g, x)
                    ok = (
                        witness & ~x == 0
                        and witness & ~part == 0
                        and values[witness] >= v
                        and witness in eff_masks
                        and part in eff_masks
                    )
                    tally("cover_witness_contract", ok)

            # reduction by an arbitrary (possibly non-transversal) removal set
            k_any = rng.randrange(1 << ground.size)
            reduced_any, _ = sc.reduce(g, k_any)
            tally(
                "reduction_valid_any_k",
                sc.check_intersecting_family(reduced_any).ok
                and sc.check_supermodular(reduced_any).ok,
            )

            def hat(mask, value, kmask):
                return value - 1 if mask & kmask else value

            for kmask in (k_any,):
                for a, b in _mask_pairs(g):
                    va, vb = values[a], values[b]
                    if a & ~b == 0 and va >= vb:
                        tally("marked_value_monotone", hat(a, va, kmask) >= hat(b, vb, kmask))
                    if b & ~a == 0 and vb >= va:
                        tally("marked_value_monotone", hat(b, vb, kmask) >= hat(a, va, kmask))
                    if va > vb:
                        tally("marked_value_monotone", hat(a, va, kmask) >= hat(b, vb, kmask))
                    if vb > va:
                        tally("marked_value_monotone", hat(b, vb, kmask) >= hat(a, va, kmask))

            # reduction by a partial transversal
            k = sample_partial_transversal(parts, rng)
            reduced, _ = sc.reduce(g, k)
            tally("reduced_capacity", sc.check_capacity(reduced).ok)

            d_reduced = sc.d_function(reduced)
            for name in reduced.ground.names:
                if part_of(parts, ground.mask_of([name])) & k:
                    tally("reduced_d_map", d_reduced[name] < d_map[name])
                else:
                    tally("reduced_d_map", d_reduced[name] == d_map[name])

            def lift(mask):
                """A set of the reduced function as a mask over g's ground."""
                return ground.mask_of(reduced.ground.names_of(mask))

            reduced_parts = [lift(q) for q in sc.bunch_partition(reduced)]
            for q in reduced_parts:
                tally("refinement", any(q & ~(p & ~k) == 0 for p in parts))

            eff_reduced = {lift(x) for x in sc.effective_family(reduced)}
            reduced_values = {lift(x): v for x, v in reduced.entries}
            for part in parts:
                if part not in eff_masks:
                    continue
                if part & k == 0:
                    ok = (
                        part in eff_reduced
                        and part in reduced_parts
                        and reduced_values.get(part) == values[part]
                    )
                    tally("untouched_parts_survive", ok)
                else:
                    residual = part & ~k
                    for x, v in reduced_values.items():
                        if x & ~residual == 0:
                            tally("touched_parts_drop", v < values[part])

    total_violations = sum(p["violations"] for p in props.values())
    summary = {
        "criterion": 6,
        "pairs": pair_count,
        "properties": props,
        "pass": total_violations == 0
        and pair_count >= 500
        and all(p["checked"] > 0 for p in props.values()),
    }
    return summary, time.monotonic() - started


# -- criterion 7: closed matchings on random graphs ----------------------------

def _gamma(graph, sub) -> set:
    """The T-side neighbour set of the S-vertices sub, from the edges."""
    return {e.t for e in graph.edges if e.s in sub}


def criterion_7():
    started = time.monotonic()
    rng = random.Random(1007)
    graphs = 500
    violations = 0
    for _ in range(graphs):
        nt = rng.randint(1, 4)
        ns = rng.randint(nt, 7)
        s = [f"s{i}" for i in range(ns)]
        t = [f"t{i}" for i in range(nt)]
        pairs = [(v, rng.choice(t)) for v in s]
        pairs += [(rng.choice(s), rng.choice(t)) for _ in range(rng.randint(0, 8))]
        graph = sc.BipartiteGraph(
            tuple(s), tuple(t), tuple(sc.Edge(a, b, i) for i, (a, b) in enumerate(pairs))
        )
        m = sc.closed_matching(graph)
        v = {e.s for e in m}
        covered_t = {e.t for e in m}
        ok = bool(m) and len(v) == len(covered_t) == len(m) and _gamma(graph, v) == covered_t
        for size in range(1, len(v)):
            for sub in itertools.combinations(sorted(v), size):
                if len(_gamma(graph, sub)) <= size:
                    ok = False
        for e in graph.edges:
            if e.s in v and e.t not in covered_t:
                ok = False
        if not ok:
            violations += 1
    summary = {
        "criterion": 7,
        "graphs": graphs,
        "violations": violations,
        "pass": violations == 0 and graphs >= 500,
    }
    return summary, time.monotonic() - started


# -- criterion 8: the pointwise bound beats the crude one ----------------------

def criterion_8():
    started = time.monotonic()
    ground = sc.GroundSet(("a", "b", "c"))
    g = sc.SetFn.from_names(ground, [(["a", "b"], 2), (["a", "b", "c"], 2)])
    d = sc.d_function(g)
    crude_c = max(v for x, v in g.entries if x & ground.mask_of(["c"]))
    pointwise_c = max(d["c"], d["c"])
    pool = range(1, sc.delta(g, g) + 3)
    failures = 0
    combos = 0
    for la in itertools.combinations(pool, d["a"]):
        for lb in itertools.combinations(pool, d["b"]):
            for lc in itertools.combinations(pool, 1):
                combos += 1
                if sc.find_list_coloring(g, g, {"a": la, "b": lb, "c": lc}) is None:
                    failures += 1
    summary = {
        "criterion": 8,
        "crude_bound": crude_c,
        "pointwise_bound": pointwise_c,
        "list_combos": combos,
        "failures": failures,
        "pass": crude_c == 2 and pointwise_c == 1 and failures == 0 and combos > 0,
    }
    return summary, time.monotonic() - started


CRITERIA = {
    1: (criterion_1, 1.0),
    2: (criterion_2, 60.0),
    3: (criterion_3, 300.0),
    4: (criterion_4, 300.0),
    5: (criterion_5, 300.0),
    6: (criterion_6, 300.0),
    7: (criterion_7, 300.0),
    8: (criterion_8, 300.0),
}


@pytest.fixture(scope="module")
def summaries():
    return {}


def _run(n, summaries):
    fn, budget = CRITERIA[n]
    summary, elapsed = fn()
    summaries[n] = summary
    status = "PASS" if summary["pass"] else "FAIL"
    print(f"criterion {n}: {status} ({elapsed:.2f}s)")
    assert summary["pass"], summary
    assert elapsed < budget, f"criterion {n} took {elapsed:.2f}s, budget {budget}s"


def test_criterion_1_worked_example(summaries):
    _run(1, summaries)


def test_criterion_2_pair_conditions(summaries):
    _run(2, summaries)


def test_criterion_3_tight_lists(summaries):
    _run(3, summaries)


def test_criterion_4_color_threshold(summaries):
    _run(4, summaries)


def test_criterion_5_bipartite_specialization(summaries):
    _run(5, summaries)


def test_criterion_6_structural_invariants(summaries):
    _run(6, summaries)


def test_criterion_7_closed_matching(summaries):
    _run(7, summaries)


def test_criterion_8_strictness_witness(summaries):
    _run(8, summaries)


# Digests of the canonical outputs, recorded from the reference implementation.
# Criterion 9 only compares two runs of the same code; these pin the outputs
# themselves, so a rewrite that changes the canonical pairs or colorings fails.
GOLDEN = {
    (2, "pairs_digest"): "50c875709e102519b600688cec93a9309e21f597e7fff3e857de85c090ce7038",
    (3, "colorings_digest"): "2ba944fe1648c5f8976b4f90f271eca33659550e472ba1ee216e8c4ce856c142",
}


@pytest.mark.parametrize("n, key", sorted(GOLDEN))
def test_golden_digests(summaries, n, key):
    summary = summaries.get(n)
    if summary is None:
        summary = CRITERIA[n][0]()[0]
    assert summary[key] == GOLDEN[(n, key)]


def test_golden_deep_pairs_digest():
    """Pins construct_pi on 32-edge encodings, which run many more levels
    than criteria 2 and 3 (they stop at n = 8).  A graph that hits a cap,
    such as the tight-set search's node budget, is recorded as "cap", so a
    change in which graphs fail moves the digest too.  None of seeds 0-199
    does."""
    acc = []
    for s in range(200):
        g1, g2 = sc.encode_bipartite(sc.random_multigraph(random.Random(s), 32))
        try:
            pair = sc.construct_pi(g1, g2, check=True)
        except sc.ResourceLimitError:
            acc.append("cap")
            continue
        acc.append((sorted(pair.pi1.items()), sorted(pair.pi2.items())))
    assert _digest(acc) == "837feea634de4231c24e8d6ee4a9b0155a04f6fbb2fdf81d56c41c8d87a98e05"


def test_criterion_9_determinism(summaries):
    started = time.monotonic()
    identical = True
    for n, (fn, _) in CRITERIA.items():
        first = summaries.get(n)
        if first is None:
            first = fn()[0]
        second = fn()[0]
        if dump_json(first) != dump_json(second):
            identical = False
    elapsed = time.monotonic() - started
    status = "PASS" if identical else "FAIL"
    print(f"criterion 9: {status} ({elapsed:.2f}s)")
    assert identical
