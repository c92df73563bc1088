import random
from collections import Counter

import pytest

from supercolor import (
    BipartiteGraph,
    GenConfig,
    GroundSet,
    InputError,
    PiPair,
    SearchCaps,
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
from supercolor import core, oracle, pi as pi_mod
from supercolor.bunch import checked
from lemmas import ref_condition_report


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


def test_a_pair_missing_elements_is_refused_as_the_reference_refuses(example_instance):
    """The first name in ground order that either dict lacks is named."""
    inst = checked(*example_instance)
    names = inst.ground.names

    def without(*gone):
        return {name: 1 for i, name in enumerate(names) if i not in gone}

    messages = []
    for pi1, pi2 in (
        (without(3), without()), (without(), without(5)),
        (without(6), without(2)), (without(2), without(6)), (without(4, 7), without(4)),
    ):
        for condition_report in (pi_mod.condition_report, ref_condition_report):
            with pytest.raises(InputError) as e:
                condition_report(inst, PiPair(pi1, pi2))
            messages.append(str(e.value))
    expected = [names[i] for i in (3, 5, 2, 2, 4) for _ in range(2)]
    assert messages == [f"pair missing element {name!r}" for name in expected]


def _witness_candidates():
    """Per config, (inst, build's pair, candidates): the pair, then at one
    element: one side raised past (i)'s bound, both sides raised past d_i
    (iii), and both sides lowered by one, which may break (ii) on either
    side."""
    rng = random.Random(11)
    for cfg in mixed_configs(11, 300, n_max=8):
        inst = checked(*gen_instance(cfg))
        pair, _ = pi_mod.build(inst, check=False)
        names = inst.ground.names
        i = rng.randrange(len(names))
        name, side = names[i], rng.randrange(2)
        pis, ds = (pair.pi1, pair.pi2), [d[i] for d in inst.ds]
        past_i = [pi[name] for pi in pis]
        past_i[side] = max(ds) - past_i[1 - side] + 2
        changes = (past_i, [d + 1 for d in ds], [max(1, pi[name] - 1) for pi in pis])
        candidates = [pair]
        for values in changes:
            candidates.append(PiPair(*({**pi, name: v} for pi, v in zip(pis, values))))
        yield inst, pair, candidates


def test_condition_report_keeps_its_witnesses():
    failed = Counter()
    for inst, pair, candidates in _witness_candidates():
        for candidate in candidates:
            report = pi_mod.condition_report(inst, candidate)
            assert report.to_dict() == ref_condition_report(inst, candidate).to_dict()
            failed.update(k for k in ("i_ok", "ii_ok", "iii_ok") if not getattr(report, k))
        assert pi_mod.condition_report(inst, pair).all_ok
    assert min(failed[k] for k in ("i_ok", "ii_ok", "iii_ok")) >= 20, failed


def test_the_reference_does_not_count_through_the_kernel(monkeypatch):
    """A _short_sets that stops counting at 2 values misses the sets of
    bound 3 or more that see 2: condition_report must then disagree with
    lemmas' reference on some candidate, and agree on it once restored."""
    short_sets = pi_mod._short_sets
    monkeypatch.setattr(
        pi_mod, "_short_sets",
        lambda colors, entries: [s for s in short_sets(colors, entries) if s[1] < 2],
    )
    for inst, _, candidates in _witness_candidates():
        for candidate in candidates:
            want = ref_condition_report(inst, candidate).to_dict()
            if pi_mod.condition_report(inst, candidate).to_dict() != want:
                monkeypatch.undo()
                assert pi_mod.condition_report(inst, candidate).to_dict() == want
                return
    pytest.fail("the reference agrees with a _short_sets that stops counting at 2")


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

    def shrink_and_file_an_empty_part(left, v, inside, owner):
        shrink(left, v, inside, owner)
        inside[0] = []

    monkeypatch.setattr(pi_mod, "_shrink", shrink_and_file_an_empty_part)
    with pytest.raises(RuntimeError, match=r"peeled no element \(internal bug\)"):
        construct_pi(*encode_bipartite(random_multigraph(random.Random(0), 32)))


def _pi_lengths(inst, pair) -> dict[str, int]:
    """The lengths pi1(u) + pi2(u) - 1 that the pair predicts colorable."""
    return {u: pair.pi1[u] + pair.pi2[u] - 1 for u in inst.ground.names}


def _uncolored(g1, g2, lengths, seed, budget) -> int:
    """How many of 3 random lists of these lengths, from a pool of delta + 2
    colors, have no coloring."""
    index = oracle.constraint_index(g1, g2)
    report = oracle.list_trials(index, lengths, 3, delta(g1, g2) + 2, seed, SearchCaps(10, budget))
    return len(report.violations)


def test_pi_lengths_are_at_most_the_tight_lengths_and_color():
    # condition (i) bounds pi1 + pi2 - 1 by max{d1, d2}; the lists of the
    # shorter length still color wherever it is shorter
    slack, trials, violations = Counter(), 0, 0
    for cfg in mixed_configs(11, 300, n_max=8):
        g1, g2 = gen_instance(cfg)
        inst = checked(g1, g2)
        pair, _ = pi_mod.build(inst)
        tight, lengths = inst.tight_lengths(), _pi_lengths(inst, pair)
        assert all(lengths[u] <= tight[u] for u in tight), cfg
        slack.update(tight[u] - lengths[u] for u in tight)
        if lengths != tight:
            trials += 3
            violations += _uncolored(g1, g2, lengths, cfg.seed, 10**12)
    assert slack == {0: 568, 1: 413, 2: 245, 3: 86, 4: 37, 5: 16, 6: 4, 7: 1}
    assert (trials, violations) == (657, 0)


def test_pi_lengths_color_on_encodings():
    # Galvin's setting: the list edge colorings of bipartite multigraphs.
    # 16 edges are left out: there the ground-order search's time swings
    # with the draw, from under a second to minutes for 90 trials
    trials = violations = 0
    for m in (8, 12):
        for s in range(30):
            g1, g2 = encode_bipartite(random_multigraph(random.Random(s), m))
            inst = checked(g1, g2)
            pair, _ = pi_mod.build(inst)
            trials += 3
            violations += _uncolored(g1, g2, _pi_lengths(inst, pair), s, 10**30)
    assert (trials, violations) == (180, 0)
