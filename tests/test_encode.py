import random

import pytest
from hypothesis import given, settings, strategies as st

from supercolor import (
    BipartiteGraph,
    InputError,
    check_capacity,
    check_intersecting_family,
    check_supermodular,
    dominates,
    encode_bipartite,
    parse_graph,
)
from supercolor.gen import random_multigraph
from lemmas import check_degree_identity, coloring_is_proper


def test_single_edge():
    g = BipartiteGraph.from_pairs(("s",), ("t",), [("s", "t")])
    g1, g2 = encode_bipartite(g)
    assert g1.ground.names == ("s~t~0",)
    assert g1.entries == g2.entries == ((1, 1),)


def test_star():
    g = BipartiteGraph.from_pairs(
        ("s",), ("t1", "t2", "t3"), [("s", "t1"), ("s", "t2"), ("s", "t3")]
    )
    g1, g2 = encode_bipartite(g)
    assert [v for _, v in g1.entries] == [3]
    assert sorted(v for _, v in g2.entries) == [1, 1, 1]


def test_parallel_edges():
    g = BipartiteGraph.from_pairs(("s",), ("t",), [("s", "t"), ("s", "t")])
    g1, g2 = encode_bipartite(g)
    assert g1.ground.names == ("s~t~0", "s~t~1")
    assert g1.entries == ((0b11, 2),)
    assert g1.entries == g2.entries


def test_encoded_functions_are_valid():
    rng = random.Random(8)
    for _ in range(50):
        g1, g2 = encode_bipartite(random_multigraph(rng, rng.randint(1, 9)))
        for g in (g1, g2):
            assert check_intersecting_family(g).ok
            assert check_supermodular(g).ok
            assert check_capacity(g).ok


def test_degree_identity_random_graphs():
    rng = random.Random(9)
    for _ in range(150):
        assert check_degree_identity(random_multigraph(rng, rng.randint(1, 9))).ok


def test_coloring_is_proper_basics():
    single = BipartiteGraph.from_pairs(("s",), ("t",), [("s", "t")])
    assert coloring_is_proper(single, {"s~t~0": 7})
    path = BipartiteGraph.from_pairs(("s",), ("t1", "t2"), [("s", "t1"), ("s", "t2")])
    assert not coloring_is_proper(path, {"s~t1~0": 1, "s~t2~0": 1})
    assert coloring_is_proper(path, {"s~t1~0": 1, "s~t2~0": 2})
    with pytest.raises(InputError):
        coloring_is_proper(path, {"s~t1~0": 1})


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_proper_iff_dominating(data):
    n_edges = data.draw(st.integers(1, 7))
    ns = data.draw(st.integers(1, 4))
    nt = data.draw(st.integers(1, 4))
    pairs = [
        (f"s{data.draw(st.integers(1, ns))}", f"t{data.draw(st.integers(1, nt))}")
        for _ in range(n_edges)
    ]
    g = BipartiteGraph.from_pairs(
        tuple(f"s{i}" for i in range(1, ns + 1)),
        tuple(f"t{i}" for i in range(1, nt + 1)),
        pairs,
    )
    phi = {eid: data.draw(st.integers(1, 4)) for eid in g.edge_ids()}
    g1, g2 = encode_bipartite(g)
    assert coloring_is_proper(g, phi) == (dominates(phi, g1).ok and dominates(phi, g2).ok)


def test_parse_graph():
    g = parse_graph('{"S": ["s1"], "T": ["t1"], "edges": [["s1", "t1"], ["s1", "t1"]]}')
    assert g.edge_ids() == ("s1~t1~0", "s1~t1~1")
    with pytest.raises(InputError):
        parse_graph('{"S": ["s1"], "T": [], "edges": [["s1", "t1"]]}')
    with pytest.raises(InputError):
        parse_graph("[]")
    with pytest.raises(InputError):
        parse_graph('{"S": ["s1"], "T": ["t1"], "edges": [["s1"]]}')


def test_encode_rejects_empty_and_takes_65_parallel_edges():
    with pytest.raises(InputError):
        encode_bipartite(BipartiteGraph.from_pairs(("s",), ("t",), []))
    g1, g2 = encode_bipartite(BipartiteGraph.from_pairs(("s",), ("t",), [("s", "t")] * 65))
    assert g1.ground.size == 65
    assert [v for _, v in g1.entries] == [v for _, v in g2.entries] == [65]
