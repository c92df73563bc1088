import ast
import dataclasses
import pathlib
import random
from collections import Counter
from types import SimpleNamespace

import pytest
from hypothesis import given, strategies as st

from supercolor import (
    GroundSet,
    InputError,
    PiPair,
    SetFn,
    check_capacity,
    check_intersecting_family,
    check_supermodular,
    common_transversal,
    construct_pi,
    construct_pi_traced,
    delta,
    dump_json,
    encode_bipartite,
    find_k_coloring,
    find_list_coloring,
    gen_instance,
    instance_payload,
    min_k,
    mixed_configs,
    parse_instance,
    random_multigraph,
    verify_conditions,
    verify_main_theorem,
)
from supercolor import bunch, cli, core
from supercolor.core import (
    Report,
    Violation,
    bit_indices,
    check_pairs,
    require_capacity,
    require_valid,
)
from lemmas import is_intersecting, ref_require_capacity


def test_ground_set_rejects_duplicates_and_bad_names():
    with pytest.raises(InputError):
        GroundSet(("a", "a"))
    with pytest.raises(InputError):
        GroundSet(("a", ""))
    # no element cap: masks are Python ints of any width
    wide = GroundSet(tuple(f"e{i}" for i in range(65)))
    assert wide.full_mask == (1 << 65) - 1
    assert wide.names_of(wide.mask_of(["e64", "e0"])) == ("e0", "e64")


def test_mask_of_inverts_names_of(abc_ground):
    assert abc_ground.mask_of(["c", "a"]) == 0b101
    assert abc_ground.names_of(abc_ground.mask_of(["c", "a"])) == ("a", "c")
    with pytest.raises(InputError, match="listed twice"):
        abc_ground.mask_of(["a", "a"])
    with pytest.raises(InputError, match="unknown element 'x'"):
        abc_ground.mask_of(["x"])


def test_is_intersecting_examples():
    assert is_intersecting(0b011, 0b110)
    assert not is_intersecting(0b011, 0b111)
    assert not is_intersecting(0b001, 0b010)
    assert not is_intersecting(0, 0b001)


@given(st.integers(0, 255), st.integers(0, 255))
def test_is_intersecting_symmetric(ma, mb):
    assert is_intersecting(ma, mb) == is_intersecting(mb, ma)


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


# The two-walk checks as they stood before the single pair walk: the closure
# walk, then a second walk for the inequality.  Kept as the reference that
# the single walk must reproduce exactly.

def _ref_check_intersecting_family(g: SetFn) -> Report:
    masks = [m for m, _ in g.entries]
    present = set(masks)
    violations: list[Violation] = []
    for i, a in enumerate(masks):
        for b in masks[i + 1 :]:
            if not is_intersecting(a, b):
                continue
            missing = [m for m in (a | b, a & b) if m not in present]
            for m in missing:
                kind = "missing_union" if m == a | b else "missing_intersection"
                violations.append(
                    Violation(
                        kind,
                        (g.ground.names_of(a), g.ground.names_of(b), g.ground.names_of(m)),
                    )
                )
    return Report(tuple(violations))


def _ref_check_supermodular(g: SetFn) -> Report:
    family = _ref_check_intersecting_family(g)
    if not family.ok:
        v = family.violations[0]
        raise InputError(
            f"family is not intersecting-closed: {{{','.join(v.subjects[2])}}} is missing"
        )
    masks = [m for m, _ in g.entries]
    value = dict(g.entries)
    violations: list[Violation] = []
    for i, a in enumerate(masks):
        va = value[a]
        for b in masks[i + 1 :]:
            if not is_intersecting(a, b):
                continue
            vb = value[b]
            lhs = va + vb
            rhs = value[a | b] + value[a & b]
            if lhs > rhs:
                violations.append(
                    Violation(
                        "supermodular",
                        (g.ground.names_of(a), g.ground.names_of(b)),
                        (lhs, rhs),
                    )
                )
    return Report(tuple(violations))


def _ref_require_valid(g: SetFn) -> None:
    report = _ref_check_supermodular(g)
    if not report.ok:
        v = report.violations[0]
        raise InputError(
            "function is not supermodular: "
            f"{{{','.join(v.subjects[0])}}}, {{{','.join(v.subjects[1])}}} "
            f"give {v.values[0]} > {v.values[1]}"
        )


def _outcome(check, g):
    """The report a check returns, or the message of the InputError it raises."""
    try:
        return check(g)
    except InputError as e:
        return str(e)


def _random_family(rng: random.Random) -> SetFn:
    """A family on 3 to 6 elements, closed under intersecting pairs more than
    half the time, with values either random or convex in |X| (so
    supermodular on a closed family)."""
    n = rng.randint(3, 6)
    ground = GroundSet(tuple("abcdef"[:n]))
    masks = {rng.randrange(1 << n) for _ in range(rng.randint(3, 10))}
    return _with_values(rng, ground, masks, close=rng.random() < 0.6)


def _with_values(rng: random.Random, ground: GroundSet, masks: set, close: bool) -> SetFn:
    """masks, closed under intersecting pairs if close, with values either
    random or convex in |X|."""
    if close:
        grown = True
        while grown:
            grown = False
            for a in list(masks):
                for b in list(masks):
                    if is_intersecting(a, b) and not {a | b, a & b} <= masks:
                        masks |= {a | b, a & b}
                        grown = True
    if rng.random() < 0.5:
        values = {m: rng.randint(-2, 4) for m in masks}
    else:
        values = {m: m.bit_count() ** 2 - 3 for m in masks}
    return SetFn(ground, tuple(values.items()))


def _structured_families(rng: random.Random) -> list[SetFn]:
    """Families at the corners of the pair walk: random ones with the empty
    set added, pairwise-disjoint ones (each side of a bipartite encoding),
    both sides of an encoding together (stars that cross in one edge), and
    nested chains, alone or with sets that cross them."""
    families = []
    for _ in range(60):
        g = _random_family(rng)
        families.append(SetFn(g.ground, tuple({**dict(g.entries), 0: rng.randint(-2, 4)}.items())))
        g1, g2 = encode_bipartite(random_multigraph(rng, rng.randint(2, 12)))
        both = {**dict(g1.entries), **dict(g2.entries)}
        families += [g1, g2, SetFn(g1.ground, tuple(both.items()))]
        n = rng.randint(3, 8)
        order = rng.sample(range(n), n)
        chain = [sum(1 << i for i in order[: j + 1]) for j in range(n)]
        masks = set(rng.sample(chain, rng.randint(2, n)))
        crossing = {rng.randrange(1, 1 << n) for _ in range(rng.randint(0, 2))}
        ground = GroundSet(tuple("abcdefgh"[:n]))
        families.append(_with_values(rng, ground, masks | crossing, close=rng.random() < 0.5))
    return families


def test_pair_walk_matches_two_walk_reference():
    rng = random.Random(20170901)
    seen, corners = Counter(), Counter()
    structured = _structured_families(random.Random(1995))
    for index, g in enumerate([_random_family(rng) for _ in range(400)] + structured):
        family = check_intersecting_family(g)
        assert family == _ref_check_intersecting_family(g)
        supermodular = _outcome(check_supermodular, g)
        assert supermodular == _outcome(_ref_check_supermodular, g)
        assert _outcome(require_valid, g) == _outcome(_ref_require_valid, g)
        if index >= 400:
            corners[family.ok, isinstance(supermodular, Report) and supermodular.ok] += 1
        elif not family.ok:
            seen["not_closed"] += 1
            if len({v.kind for v in family.violations}) == 2:
                seen["both_missing_kinds"] += 1
        elif not supermodular.ok:
            seen["not_supermodular"] += 1
            if len(supermodular.violations) > 1:
                seen["several_inequalities"] += 1
        else:
            seen["valid"] += 1
    assert len(seen) == 5 and min(seen.values()) >= 20, seen
    # closed and valid, closed but not supermodular, and not closed
    assert len(corners) == 3 and min(corners.values()) >= 10, corners


def test_one_pair_walk_per_check(monkeypatch, example_path):
    calls = []
    walk = core.check_pairs
    monkeypatch.setattr(core, "check_pairs", lambda g: calls.append(g) or walk(g))
    monkeypatch.setattr(cli, "check_pairs", core.check_pairs)
    g1, _ = parse_instance(example_path.read_text())
    require_valid(g1)
    assert len(calls) == 1
    check_supermodular(g1)
    assert len(calls) == 2
    assert cli.run(["check", str(example_path)]) == 0
    assert len(calls) == 4  # one walk per side


# -- validation once: a passed check is recorded on the function ---------------

@pytest.fixture
def walks(monkeypatch):
    """The functions handed to each pair walk and each capacity scan, in order,
    through core's bindings and the ones cli's check command uses."""
    seen = SimpleNamespace(pairs=[], capacity=[])
    walk, scan = core.check_pairs, core.check_capacity
    for module in (core, cli):
        monkeypatch.setattr(module, "check_pairs", lambda g: seen.pairs.append(g) or walk(g))
        monkeypatch.setattr(module, "check_capacity", lambda g: seen.capacity.append(g) or scan(g))
    return seen


def test_pi_op_walks_each_function_once(walks):
    """The bench's pi op: parse, then two public calls on the same functions."""
    instances = [gen_instance(cfg) for cfg in mixed_configs(seed=3, count=20, n_min=6, n_max=10)]
    instances.append(encode_bipartite(random_multigraph(random.Random(3280387012), 32)))
    for instance in instances:
        g1, g2 = parse_instance(dump_json(instance_payload(*instance)))
        walks.pairs.clear()
        walks.capacity.clear()
        pair = construct_pi(g1, g2, check=False)
        assert verify_conditions(g1, g2, pair).all_ok
        assert walks.pairs == walks.capacity == [g1, g2]


@pytest.mark.parametrize("argv, pair_walks", [
    (["analyze"], 1),
    (["reduce", "--k", "f,j"], 4),  # each side and each reduced side
    (["transversal"], 2),
    (["pi"], 2),
    (["pi", "--method", "schrijver"], 2),
    (["verify", "--trials", "5"], 2),
    (["color", "--k", "4"], 0),  # the search needs no supermodularity
    (["check"], 2),
])
def test_commands_walk_each_function_once(capsys, walks, example_path, argv, pair_walks):
    assert cli.run([argv[0], str(example_path), *argv[1:]]) == 0
    capsys.readouterr()
    assert len(walks.pairs) == pair_walks


def test_a_failed_check_records_nothing(walks, abc_ground):
    not_closed = SetFn.from_names(abc_ground, [(["a", "b"], 1), (["b", "c"], 1)])
    not_supermodular = SetFn.from_names(
        abc_ground, [(["a", "b"], 2), (["b", "c"], 2), (["b"], 1), (["a", "b", "c"], 2)]
    )
    over = SetFn.from_names(abc_ground, [(["a"], 2)])
    require_valid(over)  # valid, but a proof of validity is none of capacity
    for g, check, seen in (
        (not_closed, require_valid, walks.pairs),
        (not_supermodular, require_valid, walks.pairs),
        (over, require_capacity, walks.capacity),
    ):
        seen.clear()
        messages = []
        for _ in range(2):
            with pytest.raises(InputError) as e:
                check(g)
            messages.append(str(e.value))
        assert messages[0] == messages[1]
        assert len(seen) == 2 and all(x is g for x in seen)


def test_a_proven_function_is_equal_to_a_fresh_one(walks, example_path):
    text = example_path.read_text()
    proven, fresh = parse_instance(text), parse_instance(text)
    for g in proven:
        require_valid(g)
        require_capacity(g)
        require_valid(g)
        require_capacity(g)
    assert len(walks.pairs) == len(walks.capacity) == 2  # the second calls returned at once
    assert proven == fresh
    assert list(map(hash, proven)) == list(map(hash, fresh))
    assert list(map(repr, proven)) == list(map(repr, fresh))
    assert instance_payload(*proven) == instance_payload(*fresh)
    assert cli.instance_digest(*proven) == cli.instance_digest(*fresh)


def test_a_replaced_copy_is_unproven(walks, example_path):
    g, _ = parse_instance(example_path.read_text())
    require_valid(g)
    require_capacity(g)
    copy = dataclasses.replace(g)
    for fn in (g, copy):
        require_valid(fn)
        require_capacity(fn)
    assert [x is copy for x in walks.pairs] == [x is copy for x in walks.capacity] == [False, True]


def test_only_the_require_checks_write_their_records():
    """The records' attribute names appear in core.require_valid and
    core.require_capacity alone, and the package keeps no functools cache."""
    package = pathlib.Path(core.__file__).parent
    uses = []
    for path in sorted(package.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        assert "functools" not in text and "lru_cache" not in text, path.name
        tree = ast.parse(text, str(path))
        owner = {
            id(node): fn.name
            for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn)
        }
        uses += [
            (path.name, owner.get(id(node)), node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in ("_valid", "_capacity")
        ]
    assert sorted(uses) == [
        ("core.py", "require_capacity", "_capacity"),
        ("core.py", "require_capacity", "_capacity"),
        ("core.py", "require_valid", "_valid"),
        ("core.py", "require_valid", "_valid"),
    ]


def test_capacity(example_g, abc_ground):
    assert check_capacity(example_g).ok
    assert not check_capacity(SetFn.from_names(abc_ground, [(["a"], 2)])).ok
    assert check_capacity(SetFn.from_names(abc_ground, [([], 0)])).ok


# -- a check that passes builds nothing ---------------------------------------

_ABCD = GroundSet(("a", "b", "c", "d"))
# b, ab, bc and abc: closed and supermodular, so its first crossing pair passes
_CORE = [(["b"], 1), (["a", "b"], 2), (["b", "c"], 2), (["a", "b", "c"], 3)]
_FAULTY = {
    "missing_union": (
        [(["a", "b"], 1), (["b", "c"], 1), (["b"], 1)],
        "family is not intersecting-closed: {a,b,c} is missing",
    ),
    "missing_intersection": (
        [(["a", "b"], 1), (["b", "c"], 1), (["a", "b", "c"], 2)],
        "family is not intersecting-closed: {b} is missing",
    ),
    "supermodular": (
        [(["a", "b"], 2), (["b", "c"], 2), (["b"], 1), (["a", "b", "c"], 2)],
        "function is not supermodular: {a,b}, {b,c} give 4 > 3",
    ),
    "missing_past_the_first_pair": (
        _CORE + [(["c", "d"], 2)],
        "family is not intersecting-closed: {b,c,d} is missing",
    ),
    "supermodular_past_the_first_pair": (
        _CORE + [(["c"], 1), (["c", "d"], 2), (["b", "c", "d"], 2), (["a", "b", "c", "d"], 4)],
        "function is not supermodular: {b,c}, {c,d} give 4 > 3",
    ),
    "over_capacity": (
        [(["a"], 1), (["b"], 2), (["c", "d"], 3), (["a", "b", "c", "d"], 1)],
        "capacity violated: |{b}| = 1 < 2",
    ),
}


@pytest.mark.parametrize("pairs, message", _FAULTY.values(), ids=_FAULTY)
def test_require_checks_keep_their_messages(pairs, message):
    g = SetFn.from_names(_ABCD, pairs)
    got = [_outcome(check, g) for check in (require_valid, require_capacity)]
    assert got == [_outcome(check, g) for check in (_ref_require_valid, ref_require_capacity)]
    assert message in got


def test_passing_checks_share_one_empty_report(example_instance):
    passed = check_capacity(SetFn(_ABCD, ()))
    assert passed == Report()
    instances = [gen_instance(cfg) for cfg in mixed_configs(seed=5, count=20, n_max=8)]
    for g in [*example_instance, *(g for instance in instances for g in instance)]:
        reports = (*check_pairs(g), check_capacity(g), check_supermodular(g))
        assert all(report is passed for report in reports)


def test_a_faulty_side_gets_a_fresh_report_with_every_witness():
    passed = check_capacity(SetFn(_ABCD, ()))
    for pairs, _ in _FAULTY.values():
        g = SetFn.from_names(_ABCD, pairs)
        family, unequal = check_pairs(g)
        capacity = check_capacity(g)
        assert family == _ref_check_intersecting_family(g)
        if family.ok:
            assert unequal == _ref_check_supermodular(g)
        for report in (family, unequal, capacity):
            assert (report is passed) == report.ok
    late = SetFn.from_names(_ABCD, _FAULTY["missing_past_the_first_pair"][0])
    assert len(check_pairs(late)[0].violations) == 4  # {b,c,d} and {c}, then {a,b,c,d} and {c}
    over = SetFn.from_names(_ABCD, _FAULTY["over_capacity"][0])
    assert check_capacity(over).violations == (
        Violation("capacity", (("b",),), (1, 2)),
        Violation("capacity", (("c", "d"),), (2, 3)),
    )


def test_ground_set_size_and_full_mask_are_set_once():
    for names in ((), ("a",), tuple("abcdefgh")):
        ground = GroundSet(names)
        copy = dataclasses.replace(ground)
        for g in (ground, copy):
            assert (g.size, g.full_mask) == (len(names), (1 << len(names)) - 1)
        assert copy == ground and hash(copy) == hash(ground)
        assert repr(ground) == f"GroundSet(names={names!r})"


class _Count(int):
    pass


@pytest.mark.parametrize("value", [True, False, 1.0, "1", None])
def test_set_values_must_be_integers(abc_ground, value):
    with pytest.raises(InputError) as e:
        SetFn(abc_ground, ((0b1, value),))
    assert str(e.value) == f"set values must be integers, got {value!r}"


def test_set_values_may_be_int_subclasses(abc_ground):
    assert SetFn(abc_ground, ((0b1, _Count(2)),)).entries == ((0b1, 2),)


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


@pytest.mark.parametrize("mask, message", [
    (0b1000, "set mask 0x8 outside the ground set"),
    (-1, "set mask -0x1 outside the ground set"),
])
def test_set_fn_rejects_a_mask_outside_its_ground_set(abc_ground, mask, message):
    with pytest.raises(InputError) as e:
        SetFn(abc_ground, ((mask, 1),))
    assert str(e.value) == message


_PAIR_ENTRIES = {
    "construct_pi": construct_pi,
    "construct_pi_traced": construct_pi_traced,
    "verify_conditions": lambda g1, g2: verify_conditions(
        g1, g2, PiPair(*[dict.fromkeys("abc", 1)] * 2)
    ),
    "checked": bunch.checked,
    "verify_main_theorem": lambda g1, g2: verify_main_theorem(g1, g2, trials=1),
    "min_k": min_k,
    "find_k_coloring": lambda g1, g2: find_k_coloring(g1, g2, 2),
    "find_list_coloring": lambda g1, g2: find_list_coloring(g1, g2, dict.fromkeys("abc", [1])),
    "common_transversal": common_transversal,
}


@pytest.mark.parametrize("entry", _PAIR_ENTRIES.values(), ids=_PAIR_ENTRIES)
def test_every_pair_entry_reports_a_ground_set_mismatch_first(abc_ground, entry):
    # g1 is not intersecting-closed and over capacity, and g2 lives on
    # another ground set
    g1 = SetFn.from_names(abc_ground, [(["a", "b"], 1), (["b", "c"], 1), (["a"], 2)])
    g2 = SetFn(GroundSet(("a", "b")), ())
    with pytest.raises(InputError) as e:
        entry(g1, g2)
    assert str(e.value) == "functions live on different ground sets"


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


def test_parse_refuses_a_set_given_as_a_string():
    with pytest.raises(InputError) as e:
        parse_instance('{"elements": ["a"], "g1": [{"set": "a", "value": 1}], "g2": []}')
    assert str(e.value) == '"set" must be a list of element names in g1'


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


def _json_load_uses(tree: ast.AST) -> list[ast.AST]:
    """Every json.load / json.loads reference, and every import of either."""
    return [
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr in ("load", "loads")
        and isinstance(node.value, ast.Name)
        and node.value.id == "json"
        or isinstance(node, ast.ImportFrom)
        and node.module == "json"
        and any(alias.name in ("load", "loads") for alias in node.names)
    ]


def test_json_is_decoded_only_in_decode_json():
    """Outside text has one decoder, so its error mapping has one place."""
    package = pathlib.Path(core.__file__).parent
    inside, outside = [], []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        decoder = {
            id(node)
            for fn in ast.walk(tree)
            if path.name == "core.py" and isinstance(fn, ast.FunctionDef) and fn.name == "decode_json"
            for node in ast.walk(fn)
        }
        for node in _json_load_uses(tree):
            (inside if id(node) in decoder else outside).append(f"{path.name}:{node.lineno}")
    assert outside == []
    assert len(inside) == 1
