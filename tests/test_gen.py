import random

import pytest

from supercolor import (
    GenConfig,
    InputError,
    bunch_partition,
    check_capacity,
    check_intersecting_family,
    check_supermodular,
    dump_json,
    gen_instance,
    instance_payload,
    mixed_configs,
)
from supercolor.gen import close_family, rank_complement_value
from lemmas import is_partial_transversal, sample_partial_transversal


def all_checks_ok(g):
    return (
        check_intersecting_family(g).ok
        and check_supermodular(g).ok
        and check_capacity(g).ok
    )


def first_function(seed, n_elements, strategy):
    """g1 of the strategy's instance: the first function its generator draws."""
    return gen_instance(GenConfig(seed=seed, n_elements=n_elements, strategy=strategy))[0]


@pytest.mark.parametrize(
    "strategy", ["laminar", "closure", "rank_complement"], ids=lambda s: f"gen_{s}"
)
@pytest.mark.parametrize("seed", [0, 1, 7, 99])
def test_single_generators_valid(strategy, seed):
    assert all_checks_ok(first_function(seed, 7, strategy))


def test_generator_determinism():
    cfg = GenConfig(seed=424242, n_elements=6, strategy="closure")
    a = gen_instance(cfg)
    b = gen_instance(cfg)
    assert a == b
    assert dump_json(instance_payload(*a)) == dump_json(instance_payload(*b))


def test_laminar_single_element():
    fn = first_function(3, 1, "laminar")
    assert len(fn) <= 1
    for x, v in fn.entries:
        assert fn.ground.names_of(x) == ("a",) and v == 1


def test_laminar_has_no_intersecting_pairs():
    for seed in range(30):
        fn = first_function(seed, 8, "laminar")
        masks = [m for m, _ in fn.entries]
        for i, a in enumerate(masks):
            for b in masks[i + 1 :]:
                assert not (a & b and a & ~b and b & ~a)


def test_close_family_adds_union_and_intersection():
    # two overlapping four-element sets on {a..f}: close to union and intersection
    f1 = 0b001111  # {a,b,c,d}
    f2 = 0b111100  # {c,d,e,f}
    assert close_family({f1, f2}) == sorted({f1, f2, f1 | f2, f1 & f2})


def test_close_family_disjoint_is_identity():
    assert close_family({0b0011, 0b1100}) == [0b0011, 0b1100]


def test_close_family_cap():
    base = {0b0111, 0b1110, 0b1011}
    assert close_family(base, cap=2) is None


def test_rank_complement_extremes():
    blocks = [0b00111, 0b11000]
    full_caps = [3, 2]
    assert all(rank_complement_value(m, blocks, full_caps) == 0 for m in range(32))
    zero_caps = [0]
    assert all(
        rank_complement_value(m, [0b11111], zero_caps) == m.bit_count() for m in range(32)
    )


def test_every_pair_strategy_valid():
    for cfg in mixed_configs(seed=2024, count=60, n_max=8):
        g1, g2 = gen_instance(cfg)
        assert g1.ground == g2.ground
        assert all_checks_ok(g1) and all_checks_ok(g2)


def test_mixed_configs_deterministic_and_weighted():
    a = mixed_configs(seed=5, count=300, n_max=8)
    b = mixed_configs(seed=5, count=300, n_max=8)
    assert a == b
    counts = {}
    for cfg in a:
        counts[cfg.strategy] = counts.get(cfg.strategy, 0) + 1
    assert counts["closure"] > counts["bipartite"]
    assert set(counts) == {"closure", "rank_complement", "laminar", "bipartite"}


def test_config_validation():
    with pytest.raises(InputError):
        GenConfig(seed=0, n_elements=11, strategy="closure")
    with pytest.raises(InputError):
        GenConfig(seed=0, n_elements=3, strategy="nope")


def test_sample_partial_transversal():
    rng = random.Random(17)
    for cfg in mixed_configs(seed=900, count=30, n_max=8):
        g1, _ = gen_instance(cfg)
        parts = bunch_partition(g1)
        for _ in range(5):
            k = sample_partial_transversal(parts, rng)
            assert is_partial_transversal(parts, k)
