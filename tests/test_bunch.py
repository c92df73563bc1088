import random

import pytest

from supercolor import (
    GroundSet,
    InputError,
    SetFn,
    bunch_partition,
    check_capacity,
    check_supermodular,
    common_transversal,
    d_function,
    effective_family,
    encode_bipartite,
    gen_instance,
    mixed_configs,
    random_multigraph,
    reduce,
)
from supercolor import core
from supercolor.bunch import effective_entries, part_masks, reduce_entries
from supercolor.core import bit_indices, require_valid
from supercolor.matching import transversal_mask
from conftest import names_of_sets
from lemmas import cover_witness, is_partial_transversal, part_of, sample_partial_transversal


def test_effective_family_worked_example(example_g):
    assert names_of_sets(example_g.ground, effective_family(example_g)) == {
        tuple("abcd"),
        tuple("cdef"),
        tuple("abcdef"),
        tuple("cd"),
        tuple("ghij"),
        tuple("gh"),
    }


def test_effective_family_threshold(abc_ground):
    g = SetFn.from_names(abc_ground, [(["a", "b"], 1)])
    assert effective_family(g) == ()


def test_effective_family_rejects_invalid(abc_ground):
    g = SetFn.from_names(abc_ground, [(["a", "b"], 1), (["b", "c"], 1)])
    with pytest.raises(InputError):
        effective_family(g)


def test_partition_worked_example(example_g):
    parts = bunch_partition(example_g)
    ground = example_g.ground
    assert parts == sorted(parts)
    assert names_of_sets(ground, parts) == {tuple("abcdef"), tuple("ghij")}
    assert ground.names_of(part_of(parts, ground.mask_of(["c"]))) == tuple("abcdef")


def test_partition_empty_family_is_singletons(abc_ground):
    assert bunch_partition(SetFn(abc_ground, ())) == [0b001, 0b010, 0b100]


def test_partition_rejects_empty_set_of_value_two(abc_ground):
    g = SetFn(abc_ground, ((0, 2),))
    with pytest.raises(InputError, match="empty set"):
        bunch_partition(g)
    with pytest.raises(InputError, match="empty set"):
        common_transversal(g, SetFn(abc_ground, ()))
    assert d_function(g) == {"a": 1, "b": 1, "c": 1}


def test_d_function_worked_example(example_g):
    d = d_function(example_g)
    assert all(d[u] == 4 for u in "abcdef")
    assert all(d[u] == 3 for u in "ghij")


def test_d_function_empty(abc_ground):
    assert d_function(SetFn(abc_ground, ())) == {"a": 1, "b": 1, "c": 1}


def test_partial_transversal(example_g):
    parts = bunch_partition(example_g)
    ground = example_g.ground
    assert is_partial_transversal(parts, ground.mask_of(["f", "j"]))
    assert not is_partial_transversal(parts, ground.mask_of(["a", "b"]))
    assert is_partial_transversal(parts, 0)


def test_reduce_worked_example(example_g):
    k = example_g.ground.mask_of(["f", "j"])
    red, _ = reduce(example_g, k)
    assert red.ground.names == tuple("abcdeghi")
    values = {red.ground.names_of(x): v for x, v in red.entries}
    assert values == {
        tuple("abcd"): 3,
        tuple("cde"): 2,
        tuple("abcde"): 3,
        tuple("cd"): 2,
        tuple("ghi"): 2,
        tuple("gh"): 2,
    }
    assert names_of_sets(red.ground, effective_family(red)) == {
        tuple("abcd"),
        tuple("cd"),
        tuple("gh"),
    }
    assert names_of_sets(red.ground, bunch_partition(red)) == {
        tuple("abcd"),
        ("e",),
        tuple("gh"),
        ("i",),
    }
    d = d_function(red)
    assert all(d[u] == 3 for u in "abcd")
    assert all(d[u] == 2 for u in "gh")
    assert d["e"] == 1 and d["i"] == 1


def test_reduce_attainer_contract(example_g):
    ground = example_g.ground
    k = ground.mask_of(["f", "j"])
    red, attainers = reduce(example_g, k)
    assert sorted(attainers) == [x for x, _ in red.entries]
    for x, z in attainers.items():
        assert ground.names_of(z & ~k) == red.ground.names_of(x)
        hat = dict(example_g.entries)[z] - (1 if z & k else 0)
        assert hat == dict(red.entries)[x]
        # no other preimage beats the recorded one
        for w, v in example_g.entries:
            if ground.names_of(w & ~k) == red.ground.names_of(x):
                assert v - (1 if w & k else 0) <= hat


def test_reduce_by_nothing_is_identity(example_g):
    red, attainers = reduce(example_g, 0)
    assert red == example_g
    assert attainers == {m: m for m, _ in example_g.entries}


def test_reduce_set_inside_removal():
    g = GroundSet(("a", "b"))
    fn = SetFn.from_names(g, [(["a"], 1)])
    red, attainers = reduce(fn, 0b01)
    assert red.ground.names == ("b",)
    assert red.entries == ((0, 0),)
    assert attainers == {0: 0b01}


def test_reduce_by_everything():
    g = GroundSet(("a", "b"))
    fn = SetFn.from_names(g, [(["a", "b"], 2)])
    red, _ = reduce(fn, g.full_mask)
    assert red.ground.names == ()
    assert red.entries == ((0, 1),)


@pytest.mark.parametrize("kmask", [-1, 1 << 10])
def test_reduce_rejects_a_mask_outside_the_ground(example_g, kmask):
    with pytest.raises(InputError, match="outside the ground set of 10 elements"):
        reduce(example_g, kmask)


def test_cover_witness_effective_set(example_g):
    x = example_g.ground.mask_of(["a", "b", "c", "d"])
    witness, part = cover_witness(example_g, x)
    assert witness == x
    assert example_g.ground.names_of(part) == tuple("abcdef")


def test_cover_witness_non_effective(abc_ground):
    g = SetFn.from_names(abc_ground, [(["a", "b"], 2), (["a", "b", "c"], 2)])
    witness, part = cover_witness(g, 0b111)
    assert witness == 0b011
    assert witness & ~part == 0
    assert dict(g.entries)[witness] >= 2


def test_cover_witness_minimal_set_is_itself(abc_ground):
    g = SetFn.from_names(abc_ground, [(["a", "b"], 2)])
    assert cover_witness(g, 0b011)[0] == 0b011


def test_cover_witness_validates_once(monkeypatch, example_g):
    fresh = SetFn(example_g.ground, example_g.entries)  # no record of a passed check
    calls = []
    walk = core.check_pairs
    monkeypatch.setattr(core, "check_pairs", lambda g: calls.append(g) or walk(g))
    x = fresh.ground.mask_of(["a", "b", "c", "d"])
    assert fresh.ground.names_of(cover_witness(fresh, x)[1]) == tuple("abcdef")
    assert calls == [fresh]  # one pair walk, shared with the partition


def test_cover_witness_requires_value_two(abc_ground):
    g = SetFn.from_names(abc_ground, [(["a", "b"], 1)])
    with pytest.raises(InputError):
        cover_witness(g, 0b011)


@pytest.mark.parametrize(
    "eff, live",
    [
        ([(0b011, 2), (0b110, 2)], 0b111),  # two maximal sets overlap
        ([(0b1000, 2)], 0b0111),  # a part outside the live set
        ([(0b0, 2)], 0b1),  # an empty part
    ],
)
def test_part_masks_rejects_non_partitions(eff, live):
    with pytest.raises(RuntimeError, match="internal bug"):
        part_masks(eff, live)


def test_reduction_invariants_random():
    rng = random.Random(20240)
    for cfg in mixed_configs(seed=501, count=40, n_max=7):
        for g in gen_instance(cfg):
            parts = bunch_partition(g)
            k = sample_partial_transversal(parts, rng)
            red, _ = reduce(g, k)
            assert check_supermodular(red).ok
            assert check_capacity(red).ok
            d0, d1 = d_function(g), d_function(red)
            for u in red.ground.names:
                if part_of(parts, g.ground.mask_of([u])) & k:
                    assert d1[u] < d0[u]
                else:
                    assert d1[u] == d0[u]


def _reduce(entries, kmask):
    return list(reduce_entries(entries, kmask).items())


def test_reducing_effective_entries_keeps_the_effective_family():
    """construct_pi reduces only the effective entries at each level and
    validates nothing there.  It may because eff(reduce(g, K)) equals
    eff(reduce(eff(g), K)) and reduce(g, K) stays valid.  Checked on every
    level of the construction, for its K, a random K and every singleton K."""
    rng = random.Random(1707)
    instances = [gen_instance(cfg) for cfg in mixed_configs(seed=83, count=100, n_min=6, n_max=10)]
    instances += [encode_bipartite(random_multigraph(random.Random(s), 32)) for s in range(3)]
    checked = 0
    for g1, g2 in instances:
        live = g1.ground.full_mask
        while live & (live - 1):
            effs = [effective_entries(g.entries) for g in (g1, g2)]
            k, _, _ = transversal_mask(*(part_masks(eff, live) for eff in effs))
            ks = [k, rng.getrandbits(g1.ground.size) & live] + [1 << i for i in bit_indices(live)]
            for g, eff in zip((g1, g2), effs):
                for kmask in ks:
                    full = SetFn(g.ground, tuple(_reduce(g.entries, kmask)))
                    require_valid(full)
                    got = effective_entries(_reduce(eff, kmask))
                    assert sorted(got) == sorted(effective_entries(full.entries)), (g, kmask)
                    checked += 1
            g1, g2 = (SetFn(g.ground, tuple(_reduce(g.entries, k))) for g in (g1, g2))
            live &= ~k
    assert checked >= 2000
