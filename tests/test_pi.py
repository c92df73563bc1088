import random
from bisect import insort

import pytest

from supercolor import (
    BipartiteGraph,
    GenConfig,
    GroundSet,
    InputError,
    PiPair,
    SetFn,
    bunch_partition,
    common_transversal,
    construct_pi,
    construct_pi_traced,
    d_function,
    delta,
    dominates,
    encode_bipartite,
    gen_instance,
    mixed_configs,
    random_multigraph,
    reduce,
    schrijver_pi,
    verify_conditions,
)
from supercolor import core, pi as pi_mod
from supercolor.bunch import checked


def test_dominates_injective_always_ok(example_g):
    pi = {name: i for i, name in enumerate(example_g.ground.names)}
    assert dominates(pi, example_g).ok


def test_dominates_constant_fails(abc_ground):
    g = SetFn.from_names(abc_ground, [(["a", "b"], 2)])
    report = dominates({"a": 1, "b": 1, "c": 1}, g)
    assert not report.ok
    (v,) = report.violations
    assert v.values == (1, 2)


def test_dominates_requires_total_assignment(abc_ground):
    g = SetFn.from_names(abc_ground, [(["a", "b"], 2)])
    with pytest.raises(InputError):
        dominates({"a": 1}, g)


def test_construct_pi_single_element():
    ground = GroundSet(("u",))
    g = SetFn.from_names(ground, [(["u"], 1)])
    pair = construct_pi(g, g)
    assert pair.pi1 == {"u": 1} and pair.pi2 == {"u": 1}


def test_construct_pi_empty_families(abc_ground):
    empty = SetFn(abc_ground, ())
    pair = construct_pi(empty, empty)
    assert set(pair.pi1.values()) == {1} and set(pair.pi2.values()) == {1}


def test_construct_pi_worked_example(example_instance):
    g1, g2 = example_instance
    pair, trace = construct_pi_traced(g1, g2)
    report = verify_conditions(g1, g2, pair)
    assert report.all_ok
    assert all(pair.pi1[u] <= 4 for u in "abcdef")
    assert 1 <= len(trace) <= g1.ground.size
    # every level removes a nonempty transversal
    assert all(level["k"] for level in trace)


def test_construct_pi_rejects_capacity_violation(abc_ground):
    bad = SetFn.from_names(abc_ground, [(["a"], 2)])
    empty = SetFn(abc_ground, ())
    with pytest.raises(InputError):
        construct_pi(bad, empty)


def test_verify_conditions_flags_arithmetic(abc_ground):
    ground = GroundSet(("a", "b"))
    g = SetFn.from_names(ground, [(["a", "b"], 2)])
    report = verify_conditions(g, g, PiPair({"a": 2, "b": 2}, {"a": 2, "b": 2}))
    assert not report.i_ok  # 2 + 2 - 1 = 3 > 2
    assert not report.ii_ok  # one distinct value on a two-demand set
    assert report.iii_ok


def test_conditions_hold_on_random_instances():
    for cfg in mixed_configs(seed=77, count=120, n_max=8):
        g1, g2 = gen_instance(cfg)
        pair = construct_pi(g1, g2, check=False)
        assert verify_conditions(g1, g2, pair).all_ok, cfg


def _reference_pi(g1, g2, trace):
    """The recursion spelled out with the public per-step functions, each on
    its own smaller ground set: a slow reference for construct_pi."""
    ground = g1.ground
    if ground.size <= 1:
        return {u: 1 for u in ground.names}, {u: 1 for u in ground.names}
    result = common_transversal(g1, g2)
    k, case = ground.mask_of(result.k), result.case_tag
    trace.append({"universe": list(ground.names), "k": list(result.k), "case": case})
    subs = _reference_pi(reduce(g1, k)[0], reduce(g2, k)[0], trace)
    lead, follow = (0, 1) if case == "a" else (1, 0)
    parts = bunch_partition((g1, g2)[lead])
    d = d_function((g1, g2)[follow])
    pis = ({}, {})
    for i, u in enumerate(ground.names):
        if k >> i & 1:
            pis[lead][u], pis[follow][u] = 1, d[u]
        else:
            hit = any(part >> i & 1 and part & k for part in parts)
            pis[lead][u] = subs[lead][u] + hit
            pis[follow][u] = subs[follow][u]
    return pis


def test_construct_pi_matches_public_steps():
    configs = mixed_configs(seed=79, count=150, n_min=6, n_max=10)
    configs += [GenConfig(seed=s, n_elements=10, strategy="bipartite") for s in range(30)]
    cases = set()
    for cfg in configs:
        g1, g2 = gen_instance(cfg)
        pair, trace = construct_pi_traced(g1, g2)
        want_trace = []
        pi1, pi2 = _reference_pi(g1, g2, want_trace)
        got = (list(pair.pi1.items()), list(pair.pi2.items()), trace)
        assert got == (list(pi1.items()), list(pi2.items()), want_trace), cfg
        cases.update(level["case"] for level in trace)
    assert cases == {"a", "b"}


def test_construct_pi_validates_once(monkeypatch):
    graph = random_multigraph(random.Random(3280387012), 32)
    assert len(construct_pi_traced(*encode_bipartite(graph), check=False)[1]) == 27
    g1, g2 = encode_bipartite(graph)  # fresh: no record of a passed check
    calls = []
    walk = core.check_pairs
    monkeypatch.setattr(core, "check_pairs", lambda g: calls.append(g) or walk(g))
    construct_pi(g1, g2, check=False)
    assert calls == [g1, g2]  # one pair walk per side, at entry; none per level


def test_construct_pi_check_validates_once(monkeypatch):
    g1, g2 = encode_bipartite(random_multigraph(random.Random(3280387012), 32))
    calls = []
    walk = core.check_pairs
    monkeypatch.setattr(core, "check_pairs", lambda g: calls.append(g) or walk(g))
    construct_pi(g1, g2, check=True)
    assert calls == [g1, g2]  # the final check reuses the entry validation


def test_construct_pi_stack_does_not_grow_with_levels(shallow_stack):
    pairs = [("s1", "t1")] * 63 + [("s2", "t1")]
    g1, g2 = encode_bipartite(BipartiteGraph.from_pairs(["s1", "s2"], ["t1"], pairs))
    assert len(construct_pi_traced(g1, g2, check=False)[1]) == 63
    pair = shallow_stack(construct_pi, g1, g2, check=True)
    assert verify_conditions(g1, g2, pair).all_ok


def test_pointwise_bound_tighter_than_global():
    for cfg in mixed_configs(seed=78, count=60, n_max=7):
        g1, g2 = gen_instance(cfg)
        d1, d2 = d_function(g1), d_function(g2)
        span = delta(g1, g2)
        for u in g1.ground.names:
            crude = max(
                [1]
                + [v for x, v in g1.entries if u in g1.ground.names_of(x)]
                + [v for x, v in g2.entries if u in g2.ground.names_of(x)]
            )
            assert max(d1[u], d2[u]) <= crude <= max(span, crude)
            assert max(d1[u], d2[u]) <= span


def test_strictness_witness():
    ground = GroundSet(("a", "b", "c"))
    g = SetFn.from_names(ground, [(["a", "b"], 2), (["a", "b", "c"], 2)])
    d = d_function(g)
    crude = max(v for x, v in g.entries if x & ground.mask_of(["c"]))
    assert crude == 2
    assert max(d["c"], d["c"]) == 1


def test_schrijver_empty(abc_ground):
    empty = SetFn(abc_ground, ())
    pair = schrijver_pi(checked(empty, empty))
    assert set(pair.pi1.values()) == {1} and set(pair.pi2.values()) == {1}


def test_schrijver_two_edge_path():
    # two edges at a shared vertex, encoded by hand: both demand 2 colors
    ground = GroundSet(("e1", "e2"))
    g1 = SetFn.from_names(ground, [(["e1", "e2"], 2)])
    g2 = SetFn.from_names(ground, [(["e1"], 1), (["e2"], 1)])
    pair = schrijver_pi(checked(g1, g2))
    k = delta(g1, g2)
    assert k == 2
    assert pair.pi1["e1"] != pair.pi1["e2"]
    assert all(pair.pi2[u] == k + 1 - pair.pi1[u] for u in ground.names)


def test_schrijver_worked_example(example_instance):
    g1, g2 = example_instance
    pair = schrijver_pi(checked(g1, g2))
    k = delta(g1, g2)
    assert k == 4
    assert dominates(pair.pi1, g1).ok and dominates(pair.pi2, g2).ok
    assert all(pair.pi1[u] + pair.pi2[u] - 1 <= k for u in g1.ground.names)


def test_pi_pair_rejects_nonpositive():
    with pytest.raises(InputError):
        PiPair({"a": 0}, {"a": 1})


def test_a_pair_missing_an_element_is_refused(example_instance):
    g1, g2 = example_instance
    names = g1.ground.names
    full, short = dict.fromkeys(names, 1), dict.fromkeys(names[:-1], 1)
    for pair in (PiPair(short, full), PiPair(full, short)):
        with pytest.raises(InputError) as e:
            verify_conditions(g1, g2, pair)
        assert str(e.value) == f"pair missing element {names[-1]!r}"


def test_construct_pi_refuses_a_pair_that_fails_its_conditions(monkeypatch, example_instance):
    # the final check is an internal-bug guard: build's pair always passes
    failed = pi_mod.ConditionReport(True, False, True, ())
    monkeypatch.setattr(pi_mod, "condition_report", lambda inst, pair: failed)
    with pytest.raises(RuntimeError, match=r"violates its contract \(internal bug\)"):
        construct_pi(*example_instance)


def test_construct_pi_refuses_a_level_that_peels_nothing(monkeypatch):
    # an empty part gives the singleton step K = 0, and live would never
    # shrink; only an internal bug files one, so a wrapped _shrink does
    shrink = pi_mod._shrink

    def shrink_and_file_an_empty_part(left, v, parts, inside, owner):
        shrink(left, v, parts, inside, owner)
        insort(parts, 0)

    monkeypatch.setattr(pi_mod, "_shrink", shrink_and_file_an_empty_part)
    with pytest.raises(RuntimeError, match=r"peeled no element \(internal bug\)"):
        construct_pi(*encode_bipartite(random_multigraph(random.Random(0), 32)))
