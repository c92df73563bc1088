import hashlib
import math
import random
from collections import Counter

import pytest

from supercolor import (
    GenConfig,
    InputError,
    ResourceLimitError,
    bunch_partition,
    check_capacity,
    check_intersecting_family,
    check_supermodular,
    dump_json,
    gen_instance,
    instance_payload,
    mixed_configs,
)
from supercolor import gen
from supercolor.gen import STRATEGIES, close_family, random_multigraph, rank_complement_value
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
    assert len(fn.entries) <= 1
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


def naive_closure(base):
    family = set(base)
    while True:
        more = {
            z
            for x in family
            for y in family
            if x & y and x & ~y and y & ~x
            for z in (x | y, x & y)
        } - family
        if not more:
            return sorted(family)
        family |= more


def test_close_family_equals_the_fixpoint_and_refuses_exactly_above_the_cap():
    rng = random.Random(11)
    for _ in range(300):
        base = {rng.randrange(1, 64) for _ in range(rng.randint(0, 5))}
        want = naive_closure(base)
        assert close_family(base) == want, base
        for cap in range(max(0, len(want) - 2), len(want) + 2):
            assert close_family(base, cap) == (want if len(want) <= cap else None), (base, cap)


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


# sha256 of the canonical JSON of every instance, in order; any change to a
# draw, to its order or to what a generator builds from it moves these
MIXED_DIGESTS = {
    1: "4b330f83d6bad5bbb8f7d2bc97850c4a8e07679ee997221d5d6ffcb6af34fb62",
    2: "bc29481b29df23fa8d4f8b150c98cdc901799e17723a179e7be6fc5d9902d6b4",
    3: "465aa2f3a5860d4dc3848df8265f88c99bb54de542d9f679b07a040ff4a70511",
}


def instances_digest(configs):
    h = hashlib.sha256()
    for cfg in configs:
        h.update(dump_json(instance_payload(*gen_instance(cfg))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("seed", sorted(MIXED_DIGESTS))
def test_mixed_instances_pinned(seed):
    assert instances_digest(mixed_configs(seed, 500, n_max=10)) == MIXED_DIGESTS[seed]


def test_every_strategy_and_size_pinned():
    configs = [
        GenConfig(seed=seed, n_elements=n, strategy=strategy)
        for strategy in STRATEGIES
        for n in range(1, 11)
        for seed in range(3)
    ]
    assert instances_digest(configs) == (
        "50d3d1e8e2d0fce0d4743b0eba4e4c7c2cab3646247b22f617267cab0a1417b9"
    )


def test_random_multigraph_pinned():
    """Vertices and edges for 1..64 edges from one generator per seed, then
    one more draw, so the generator's state after each graph is pinned too."""
    h = hashlib.sha256()
    for seed in range(5):
        rng = random.Random(seed)
        for m in range(1, 65):
            g = random_multigraph(rng, m)
            h.update(repr((g.s_vertices, g.t_vertices, g.edges)).encode())
        h.update(repr(rng.getrandbits(64)).encode())
    assert h.hexdigest() == "4f540b5f818ceb93807416571d5a812d367f5ce78d6f1c2d26c45bb56a80567f"


def assert_same_draws(mine, stdlib):
    """mine and stdlib, three calls each on generators seeded alike, give the
    same outputs and leave the generators in the same state."""
    for seed in range(4):
        a, b = random.Random(seed), random.Random(seed)
        assert [mine(a) for _ in range(3)] == [stdlib(b) for _ in range(3)], seed
        assert a.getstate() == b.getstate(), seed


def shuffled(rng, n):
    order = list(range(n))
    rng.shuffle(order)
    return order


def test_draws_equal_the_stdlib_calls():
    """Each draw of gen against the Random method it stands for, on this
    interpreter's Random, so a change to its internals fails here."""
    for n in range(1, 71):
        assert_same_draws(lambda r: gen._below(r.getrandbits, n), lambda r: r._randbelow(n))
        assert_same_draws(
            lambda r: 3 + gen._below(r.getrandbits, n), lambda r: r.randint(3, n + 2)
        )
    for n in range(13):
        assert_same_draws(lambda r: gen._shuffled(r.getrandbits, n), lambda r: shuffled(r, n))
    # sample's own choice: a swap pool up to its set size, set selection above
    branches = Counter()
    for n in [*range(121), 10**3, 10**12]:
        for k in range(min(n, 40) + 1):
            setsize = 21 + (4 ** math.ceil(math.log(k * 3, 4)) if k > 5 else 0)
            branches["pool" if n <= setsize else "set"] += 1
            assert_same_draws(
                lambda r: gen.sample(r.getrandbits, range(n), k),
                lambda r: r.sample(range(n), k),
            )
    assert branches["pool"] > 1000 and branches["set"] > 1000, branches
    for length in range(1, 41):
        seq = tuple(f"v{i}" for i in range(length))
        assert_same_draws(
            lambda r: seq[gen._below(r.getrandbits, length)], lambda r: r.choice(seq)
        )


@pytest.mark.parametrize("n_edges", [0, -1])
def test_random_multigraph_refuses_no_edges(n_edges):
    with pytest.raises(InputError, match="n_edges"):
        random_multigraph(random.Random(1), n_edges)


@pytest.mark.parametrize("n, k", [(2, 3), (0, 1), (10**12, 10**12 + 1), (5, -1), (0, -1)])
def test_sorted_sample_refuses_k_outside_the_population(n, k):
    def getrandbits(width):
        raise AssertionError("drew before refusing")

    with pytest.raises(ValueError) as want:
        random.Random(0).sample(range(n), k)
    with pytest.raises(InputError) as got:
        gen.sample(getrandbits, range(n), k)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("strategy, message", [
    ("closure", "closure generation exhausted 1 attempts"),
    ("rank_complement", "family sampling exhausted 1 attempts"),
])
def test_generation_refuses_once_its_attempts_run_out(strategy, message):
    # with no room for a family every attempt's closure is refused
    cfg = GenConfig(seed=1, n_elements=5, strategy=strategy, family_cap=0, max_attempts=1)
    with pytest.raises(ResourceLimitError) as e:
        gen_instance(cfg)
    assert str(e.value) == message
