import random
import re

import pytest

from supercolor import (
    BipartiteGraph,
    GroundSet,
    InputError,
    ResourceLimitError,
    SetFn,
    bunch_partition,
    cli,
    closed_matching,
    common_transversal,
    construct_pi,
    dump_json,
    encode_bipartite,
    gen_instance,
    instance_payload,
    mixed_configs,
    random_multigraph,
    verify_conditions,
)
from supercolor.bunch import effective_entries, part_masks
from supercolor.core import bit_indices
from supercolor.matching import SCAN_NODE_BUDGET, closed_pairs, transversal_mask
from lemmas import is_partial_transversal, part_of


def graph(s, t, pairs):
    return BipartiteGraph.from_pairs(s, t, pairs)


def gamma(g: BipartiteGraph, v) -> set:
    """Γ(v): the T-side neighbour set of the S-vertices v, from g's edges."""
    return {e.t for e in g.edges if e.s in v}


def test_closed_matching_shared_sink():
    g = graph(["s1", "s2"], ["t1"], [("s1", "t1"), ("s2", "t1")])
    assert [(e.s, e.t) for e in closed_matching(g)] == [("s1", "t1")]


def test_closed_matching_perfect_pairs():
    g = graph(["s1", "s2"], ["t1", "t2"], [("s1", "t1"), ("s2", "t2")])
    assert [(e.s, e.t) for e in closed_matching(g)] == [("s1", "t1")]


def test_closed_matching_complete_two_by_two():
    g = graph(
        ["s1", "s2"],
        ["t1", "t2"],
        [("s1", "t1"), ("s1", "t2"), ("s2", "t1"), ("s2", "t2")],
    )
    m = closed_matching(g)
    assert {e.s for e in m} == {"s1", "s2"}
    assert {e.t for e in m} == {"t1", "t2"}


def test_closed_matching_preconditions():
    with pytest.raises(InputError, match=r"\|S\| >= \|T\|"):
        closed_matching(graph(["s1"], ["t1", "t2"], [("s1", "t1")]))
    with pytest.raises(InputError, match="isolated"):
        closed_matching(graph(["s1", "s2"], ["t1"], [("s1", "t1")]))


def check_closed(g: BipartiteGraph, m) -> None:
    assert m, "matching must be nonempty"
    assert set(m) <= set(g.edges)
    v = {e.s for e in m}
    covered_t = {e.t for e in m}
    assert len(v) == len(covered_t) == len(m), "matching edges share an endpoint"
    assert gamma(g, v) == covered_t
    # strict Hall surplus below the tight set
    members = sorted(v)
    for size in range(1, len(members)):
        for sub in _subsets(members, size):
            assert len(gamma(g, sub)) > size
    for e in g.edges:
        if e.s in v:
            assert e.t in covered_t


def _subsets(items, size):
    import itertools

    return itertools.combinations(items, size)


def test_closed_matching_random_graphs():
    rng = random.Random(97)
    for _ in range(200):
        nt = rng.randint(1, 4)
        ns = rng.randint(nt, 6)
        s = [f"s{i}" for i in range(ns)]
        t = [f"t{i}" for i in range(nt)]
        pairs = [(v, rng.choice(t)) for v in s]
        pairs += [(rng.choice(s), rng.choice(t)) for _ in range(rng.randint(0, 6))]
        g = graph(s, t, pairs)
        check_closed(g, closed_matching(g))


def two_partition_functions(ground, sets1, sets2):
    g1 = SetFn.from_names(ground, [(names, 2) for names in sets1])
    g2 = SetFn.from_names(ground, [(names, 2) for names in sets2])
    return g1, g2


def test_common_transversal_tight_singleton(abc_ground):
    # partitions {{a,b},{c}} and {{a},{b,c}}
    g1, g2 = two_partition_functions(abc_ground, [["a", "b"]], [["b", "c"]])
    result = common_transversal(g1, g2)
    assert result.k == ("c",)
    assert result.case_tag == "a"


def test_common_transversal_all_singletons(abc_ground):
    empty = SetFn(abc_ground, ())
    result = common_transversal(empty, empty)
    assert len(result.k) == 1
    assert result.case_tag == "a"


def test_common_transversal_worked_example(example_instance):
    g1, g2 = example_instance
    result = common_transversal(g1, g2)
    assert result.case_tag == "b"
    assert result.k
    k = g1.ground.mask_of(result.k)
    p1, p2 = bunch_partition(g1), bunch_partition(g2)
    assert is_partial_transversal(p1, k)
    assert is_partial_transversal(p2, k)
    # condition (b): a hit part on side 2 forces a hit part on side 1
    assert_case_condition(p2, p1, k, g1.ground.full_mask)


def test_common_transversal_condition_holds_randomly():
    for cfg in mixed_configs(seed=23, count=60, n_max=7):
        g1, g2 = gen_instance(cfg)
        result = common_transversal(g1, g2)
        assert result.k
        k = g1.ground.mask_of(result.k)
        p1, p2 = bunch_partition(g1), bunch_partition(g2)
        assert is_partial_transversal(p1, k)
        assert is_partial_transversal(p2, k)
        lead, follow = (p1, p2) if result.case_tag == "a" else (p2, p1)
        assert_case_condition(lead, follow, k, g1.ground.full_mask)


def assert_case_condition(lead, follow, k, full):
    """Every element of a K-hit lead part lies in a K-hit follow part."""
    for i in bit_indices(full):
        if part_of(lead, 1 << i) & k:
            assert part_of(follow, 1 << i) & k


def _transversal_by_graph(parts1, parts2):
    """transversal_mask through the explicit part graph and the public
    closed_matching: one edge per element, tagged with its index."""
    case = "a" if len(parts1) >= len(parts2) else "b"
    lead, follow = (parts1, parts2) if case == "a" else (parts2, parts1)
    owner_lead, owner_follow = (
        {i: j for j, part in enumerate(parts) for i in bit_indices(part)} for parts in (lead, follow)
    )
    graph = BipartiteGraph(
        range(len(lead)),
        range(len(follow)),
        [(owner_lead[i], owner_follow[i], i) for i in bit_indices(sum(lead))],
    )
    return sum(1 << e.id for e in closed_matching(graph)), case


def test_transversal_mask_matches_explicit_graph():
    cases = set()
    for cfg in mixed_configs(seed=61, count=320, n_min=2, n_max=10):
        g1, g2 = gen_instance(cfg)
        full = g1.ground.full_mask
        parts = [part_masks(effective_entries(g.entries), full) for g in (g1, g2)]
        got = transversal_mask(*parts)[:2]
        assert got == _transversal_by_graph(*parts), cfg
        cases.add(got[1])
    assert cases == {"a", "b"}


def _pi_checks(g1, g2) -> bool:
    return verify_conditions(g1, g2, construct_pi(g1, g2, check=True)).all_ok


@pytest.mark.parametrize("graph_seed", [1969818431, 2992501811])
def test_part_graphs_past_24_parts_complete(graph_seed):
    # 32-edge graphs whose levels reach a part graph with |S| = 25
    assert _pi_checks(*encode_bipartite(random_multigraph(random.Random(graph_seed), 32)))


def even_cycle(n: int) -> BipartiteGraph:
    """The 2n-cycle s0 t0 s1 t1 ... s(n-1) t(n-1): its first part graph is an
    n-cycle, on which only the whole of S is tight."""
    s = [f"s{i}" for i in range(n)]
    t = [f"t{i}" for i in range(n)]
    return graph(s, t, [(s[i], t[j % n]) for i in range(n) for j in (i, i + 1)])


def test_tight_set_search_completes_on_the_24_part_cycle():
    assert _pi_checks(*encode_bipartite(even_cycle(24)))


def test_closed_pairs_stack_does_not_grow_with_parts(shallow_stack):
    # K_{120,120}: only S is tight, so the search goes 120 picks deep, and the
    # augmenting path from the k-th S-vertex passes every earlier one
    n = 120
    pairs = shallow_stack(closed_pairs, [(1 << n) - 1] * n, n, range(n))
    assert sorted(s for s, _ in pairs) == sorted(t for _, t in pairs) == list(range(n))


def test_tight_set_search_budget_is_exit_3(tmp_path, capsys):
    g1, g2 = encode_bipartite(even_cycle(26))
    budget = rf"\|S\| = 26 exceeds {SCAN_NODE_BUDGET} nodes"
    with pytest.raises(ResourceLimitError, match=budget):
        construct_pi(g1, g2)
    inst = tmp_path / "cycle.json"
    inst.write_text(dump_json(instance_payload(g1, g2)))
    assert cli.run(["pi", str(inst)]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and re.search(budget, captured.err)


def test_48_to_80_edge_graphs_complete():
    for n_edges in (48, 64, 80):
        master = random.Random(5)
        for _ in range(100):
            g = random_multigraph(random.Random(master.randrange(2**32)), n_edges)
            assert _pi_checks(*encode_bipartite(g)), (n_edges, g)


def disjoint_bicliques(copies: int, a: int, b: int) -> BipartiteGraph:
    """copies disjoint copies of K_{a,b}."""
    s = [f"s{c}.{i}" for c in range(copies) for i in range(a)]
    t = [f"t{c}.{j}" for c in range(copies) for j in range(b)]
    pairs = [(f"s{c}.{i}", f"t{c}.{j}") for c in range(copies) for i in range(a) for j in range(b)]
    return graph(s, t, pairs)


@pytest.mark.parametrize(
    "copies, a, b",
    [(1, 1, 256), (64, 2, 2), (16, 4, 4)],
    ids=["star_K1_256", "64_disjoint_C4", "16_disjoint_K44"],
)
def test_256_element_encodings_complete(copies, a, b):
    g1, g2 = encode_bipartite(disjoint_bicliques(copies, a, b))
    assert g1.ground.size == 256
    assert _pi_checks(g1, g2)


def test_common_transversal_refuses_an_empty_ground_set():
    empty = SetFn(GroundSet(()), ())
    with pytest.raises(InputError) as e:
        common_transversal(empty, empty)
    assert str(e.value) == "common transversal needs a nonempty ground set"


def test_bipartite_graph_refuses_a_duplicate_edge_id():
    with pytest.raises(InputError) as e:
        BipartiteGraph(("s",), ("t",), [("s", "t", "e"), ("s", "t", "e")])
    assert str(e.value) == "duplicate edge id 'e'"
