import pytest
from hypothesis import given, strategies as st

from supercolor import (
    ElemSet,
    GroundSet,
    InputError,
    SetFn,
    check_capacity,
    check_intersecting_family,
    check_supermodular,
    delta,
    dump_json,
    instance_payload,
    is_intersecting,
    parse_instance,
)
from supercolor.core import bit_indices


def test_ground_set_rejects_duplicates_and_bad_names():
    with pytest.raises(InputError):
        GroundSet(("a", "a"))
    with pytest.raises(InputError):
        GroundSet(("a", ""))
    with pytest.raises(InputError):
        GroundSet(tuple(f"e{i}" for i in range(65)))


def test_elem_set_ops(abc_ground):
    x = abc_ground.subset(["a", "b"])
    y = abc_ground.subset(["b", "c"])
    assert (x | y).names == ("a", "b", "c")
    assert (x & y).names == ("b",)
    assert (x - y).names == ("a",)
    assert x <= abc_ground.universe()
    assert len(x) == 2 and "a" in x and "c" not in x


def test_elem_set_ground_mismatch(abc_ground):
    other = GroundSet(("x", "y"))
    with pytest.raises(InputError):
        abc_ground.subset(["a"]) | other.subset(["x"])


def test_is_intersecting_examples():
    g = GroundSet(("1", "2", "3"))
    assert is_intersecting(g.subset(["1", "2"]), g.subset(["2", "3"]))
    assert not is_intersecting(g.subset(["1", "2"]), g.subset(["1", "2", "3"]))
    assert not is_intersecting(g.subset(["1"]), g.subset(["2"]))


@given(st.integers(0, 255), st.integers(0, 255))
def test_is_intersecting_symmetric(ma, mb):
    g = GroundSet(tuple("abcdefgh"))
    x, y = ElemSet(g, ma), ElemSet(g, mb)
    assert is_intersecting(x, y) == is_intersecting(y, x)


def test_family_closure_example(example_g):
    assert check_intersecting_family(example_g).ok


def test_family_closure_violation(abc_ground):
    g = SetFn.from_names(abc_ground, [(["a", "b"], 1), (["b", "c"], 1)])
    report = check_intersecting_family(g)
    assert not report.ok
    kinds = {v.kind for v in report.violations}
    assert "missing_union" in kinds and "missing_intersection" in kinds


def test_laminar_family_always_closed():
    g = GroundSet(tuple("abcde"))
    fn = SetFn.from_names(g, [(["a", "b"], 1), (["a", "b", "c"], 2), (["d"], 1)])
    assert check_intersecting_family(fn).ok
    assert check_supermodular(fn).ok  # no intersecting pairs at all


def test_supermodular_example_and_violation(example_g):
    assert check_supermodular(example_g).ok
    broken = SetFn.from_names(
        example_g.ground,
        [
            (["a", "b", "c", "d"], 3),
            (["c", "d", "e", "f"], 3),
            (["a", "b", "c", "d", "e", "f"], 4),
            (["c", "d"], 1),
            (["g", "h", "i", "j"], 3),
            (["g", "h"], 2),
        ],
    )
    report = check_supermodular(broken)
    assert not report.ok
    (v,) = report.violations
    assert v.values == (6, 5)
    assert {tuple(s) for s in v.subjects} == {tuple("abcd"), tuple("cdef")}


def test_supermodular_requires_closed_family(abc_ground):
    g = SetFn.from_names(abc_ground, [(["a", "b"], 1), (["b", "c"], 1)])
    with pytest.raises(InputError, match="missing"):
        check_supermodular(g)


def test_capacity(example_g, abc_ground):
    assert check_capacity(example_g).ok
    assert not check_capacity(SetFn.from_names(abc_ground, [(["a"], 2)])).ok
    assert check_capacity(SetFn.from_names(abc_ground, [([], 0)])).ok


def test_delta(example_g):
    empty = SetFn(example_g.ground, ())
    assert delta(example_g, example_g) == 4
    assert delta(empty, empty) == 1


def test_delta_floor_and_values():
    g = GroundSet(("a", "b"))
    fn = SetFn.from_names(g, [(["a"], 0), (["a", "b"], -3)])
    assert delta(fn, fn) == 1


def test_set_fn_rejects_duplicate_sets(abc_ground):
    with pytest.raises(InputError, match="duplicate"):
        SetFn.from_names(abc_ground, [(["a", "b"], 1), (["b", "a"], 2)])


def test_parse_round_trip(example_instance):
    g1, g2 = example_instance
    text = dump_json(instance_payload(g1, g2))
    h1, h2 = parse_instance(text)
    assert h1 == g1 and h2 == g2


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"elements": [], "g1": [], "g2": []}',
        '{"elements": ["a"], "g1": [{"set": ["z"], "value": 1}], "g2": []}',
        '{"elements": ["a"], "g1": [{"set": ["a"], "value": 1}, {"set": ["a"], "value": 2}], "g2": []}',
        '{"elements": ["a"], "g1": [{"set": ["a"]}], "g2": []}',
        '{"elements": ["a"], "g1": [], "g2": 3}',
    ],
)
def test_parse_errors(text):
    with pytest.raises(InputError):
        parse_instance(text)


@given(st.lists(st.tuples(st.integers(0, 63), st.integers(-3, 6)), max_size=12))
def test_delta_bounds_every_value(pairs):
    g = GroundSet(tuple("abcdef"))
    seen = {}
    for mask, v in pairs:
        seen.setdefault(mask, v)
    fn = SetFn(g, tuple(seen.items()))
    d = delta(fn, fn)
    assert d >= 1
    assert all(d >= v for _, v in fn.entries)


@given(st.integers(min_value=0, max_value=2**64 - 1))
def test_bit_indices_round_trip(mask):
    indices = list(bit_indices(mask))
    assert indices == sorted(set(indices))
    assert sum(1 << i for i in indices) == mask
