import itertools
import json
import math
import pathlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from supercolor import (
    BipartiteGraph,
    GenConfig,
    GroundSet,
    InputError,
    ResourceLimitError,
    SearchCaps,
    SetFn,
    delta,
    dominates,
    encode_bipartite,
    find_k_coloring,
    find_list_coloring,
    gen_instance,
    load_instance,
    min_k,
    mixed_configs,
    random_multigraph,
    verify_main_theorem,
)
from supercolor import oracle
from supercolor.bunch import checked
from supercolor.cli import run
from supercolor.core import Report, Violation, bit_indices
from lemmas import random_lists, ref_min_k


def test_empty_families_one_color(abc_ground):
    empty = SetFn(abc_ground, ())
    assert find_k_coloring(empty, empty, 1) == {"a": 1, "b": 1, "c": 1}
    assert min_k(empty, empty) == 1


def test_worked_example_threshold(example_instance):
    g1, g2 = example_instance
    assert find_k_coloring(g1, g2, 3) is None
    coloring = find_k_coloring(g1, g2, 4)
    assert coloring is not None
    assert dominates(coloring, g1).ok and dominates(coloring, g2).ok
    assert min_k(g1, g2) == 4


def test_star_threshold():
    star = BipartiteGraph.from_pairs(("s",), ("t1", "t2", "t3"), [("s", "t1"), ("s", "t2"), ("s", "t3")])
    g1, g2 = encode_bipartite(star)
    assert find_k_coloring(g1, g2, 2) is None
    assert find_k_coloring(g1, g2, 3) is not None
    assert min_k(g1, g2) == 3 == delta(g1, g2)


def test_min_k_requires_capacity(abc_ground):
    bad = SetFn.from_names(abc_ground, [(["a"], 2)])
    with pytest.raises(InputError):
        min_k(bad, SetFn(abc_ground, ()))


def test_k_coloring_canonical_first(example_instance):
    g1, g2 = example_instance
    a = find_k_coloring(g1, g2, 4)
    b = find_k_coloring(g1, g2, 4)
    assert a == b  # deterministic, canonically smallest


def test_k_coloring_clamps_huge_k(example_instance):
    g1, g2 = example_instance
    n = g1.ground.size
    assert find_k_coloring(g1, g2, 10**11) == find_k_coloring(g1, g2, n)
    empty = SetFn(GroundSet(()), ())
    assert find_k_coloring(empty, empty, 10**11) == {}


class _CountedChecks(list):
    """An element's checks that count the colors the search tries on it."""

    tries = 0

    def __iter__(self):
        self.tries += 1
        return super().__iter__()


def _unmet_last():
    """Five elements whose last one's need can never be met, so the search
    tries every coloring it does not skip, and its bound 1 passes the
    pigeonhole rule: the index and the last element's counted checks."""
    last = _CountedChecks([(0, 6)])
    checks = [[], [], [], [], last]
    return oracle.ConstraintIndex(tuple("abcde"), [[4]], [1], checks, [[] for _ in range(5)]), last


def test_k_search_tries_only_colorings_in_order_of_first_use():
    # five elements with colors 1..5.  The colorings numbered in order of
    # first use are the restricted growth strings: Bell(5) = 52 of the 5^5
    index, last = _unmet_last()
    assert oracle.k_coloring(index, 5) is None
    assert last.tries == 52


def _tries_on_last(domains):
    """The colors _search tries on the last element of _unmet_last, each
    element i taking the colors domains[i]."""
    index, last = _unmet_last()
    assert oracle._search([sum(1 << c for c in dom) for dom in domains], index) is None
    return last.tries


@pytest.mark.parametrize(
    "domains, tries",
    [
        # the rule needs no domain to read 1..L: five shared even colors
        # give the Bell(5) = 52 of 1..5
        ([{2, 4, 6, 8, 10}] * 5, 52),
        # a private color per element is tried freely: sum over j of
        # C(5, j) Bell(5 - j) = Bell(6) = 203, j elements taking theirs,
        # against 6^5 = 7776 with no rule
        ([{1, 2, 3, 4, 5, 10 + i} for i in range(5)], 203),
        # a color some but not all domains hold unlocks nothing (5^5 = 3125
        # with no rule, 424 were such a color to unlock the next common one)
        ([{2, 4, 6, 8, c} for c in (3, 5, 7, 3, 5)], 202),
    ],
    ids=["shared-even", "private", "partly-shared"],
)
def test_search_takes_the_colors_every_domain_holds_in_order_of_first_use(domains, tries):
    assert _tries_on_last(domains) == tries


def test_search_on_one_shared_domain_that_is_not_one_to_l():
    ab = GroundSet(("a", "b"))
    index = oracle.constraint_index(SetFn.from_names(ab, [(["a", "b"], 2)]), SetFn(ab, ()))
    assert oracle._search([0b1100, 0b1100], index) == {"a": 2, "b": 3}


def test_search_on_shifted_shared_domains_is_the_k_search_relabeled():
    # every k-search at k up to delta + 1, against the same search on
    # min(k, n) colors drawn from 1..39: the k-search's coloring, its
    # colors 1, 2, ... mapped in order onto the drawn ones
    rng = random.Random(7)
    found = Counter()
    for cfg in mixed_configs(seed=31, count=400, n_max=8):
        g1, g2 = gen_instance(cfg)
        n = g1.ground.size
        index = oracle.constraint_index(g1, g2)
        for k in range(1, delta(g1, g2) + 2):
            colors = sorted(rng.sample(range(1, 40), min(k, n)))
            want = oracle.k_coloring(index, k)
            if want is not None:
                want = {u: colors[c - 1] for u, c in want.items()}
            got = oracle._search([sum(1 << c for c in colors)] * n, index)
            assert got == want, (cfg, k, colors)
            found[want is None] += 1
    assert found == {False: 800, True: 876}, found  # 1,676 searches


def test_renaming_colors_leaves_the_search_answer():
    # colors are labels: an injective renaming of the domains' color bits
    # into a wider range cannot turn a yes into a no.  Per instance, one
    # draw gives each element its own list, one shorter than its tight
    # length or tight, and one gives every element the same domain 1..L
    rng = random.Random(19)
    answers = Counter()
    for cfg in mixed_configs(seed=31, count=300, n_max=8):
        g1, g2 = gen_instance(cfg)
        index = oracle.constraint_index(g1, g2)
        span = delta(g1, g2)
        sigma = span + 2
        tight = checked(g1, g2).tight_lengths()
        own = [
            rng.sample(range(1, sigma + 1), max(1, tight[u] - rng.randint(0, 1)))
            for u in g1.ground.names
        ]
        shared = [range(1, rng.randint(max(1, span - 1), span + 1) + 1)] * len(own)
        rename = dict(zip(range(1, sigma + 1), rng.sample(range(1, 8 * sigma), sigma)))
        for kind, domains in (("own", own), ("shared", shared)):
            found = oracle._search([sum(1 << c for c in dom) for dom in domains], index)
            renamed = oracle._search([sum(1 << rename[c] for c in dom) for dom in domains], index)
            assert (found is None) == (renamed is None), (cfg, kind, domains, rename)
            answers[kind, found is None] += 1
    assert answers == {
        ("own", False): 292, ("own", True): 8, ("shared", False): 236, ("shared", True): 64,
    }, answers


def brute_force_coloring(g1, g2, domains):
    """First dominating assignment of a plain product over the domains, taken
    in ground order: the reference for the pruned search."""
    names = g1.ground.names
    sets = [
        (tuple(i for i in range(len(names)) if mask >> i & 1), bound)
        for g in (g1, g2)
        for mask, bound in g.entries
    ]
    for colors in itertools.product(*domains):
        if all(len({colors[i] for i in idx}) >= bound for idx, bound in sets):
            return dict(zip(names, colors))
    return None


def test_search_matches_brute_force():
    rng = random.Random(17)
    outcomes = set()
    configs = mixed_configs(seed=2024, count=300, n_max=5)
    for cfg in configs:
        g1, g2 = gen_instance(cfg)
        n = g1.ground.size
        for k in range(1, delta(g1, g2) + 2):
            expected = brute_force_coloring(g1, g2, [range(1, k + 1)] * n)
            assert find_k_coloring(g1, g2, k) == expected, (cfg, k)
            outcomes.add(("k", expected is not None))
        tight = checked(g1, g2).tight_lengths()
        sigma = delta(g1, g2) + 2
        for shorten in (0, 1):
            lists = {
                u: sorted(rng.sample(range(1, sigma + 1), max(1, need - shorten)))
                for u, need in tight.items()
            }
            domains = [lists[u] for u in g1.ground.names]
            expected = brute_force_coloring(g1, g2, domains)
            assert find_list_coloring(g1, g2, lists) == expected, (cfg, lists)
            outcomes.add(("list", expected is not None))
    assert outcomes == {("k", True), ("k", False), ("list", True), ("list", False)}


def test_min_k_matches_search_from_one(example_instance):
    empty = SetFn(GroundSet(()), ())
    instances = [(empty, empty), example_instance]
    instances += [gen_instance(cfg) for cfg in mixed_configs(seed=1995, count=300, n_max=7)]
    for g1, g2 in instances:
        assert min_k(g1, g2) == ref_min_k(g1, g2)
        # below delta the searches it skips find nothing
        assert all(find_k_coloring(g1, g2, k) is None for k in range(1, delta(g1, g2)))


def test_min_k_matches_delta_at_ten_elements():
    # k < delta is refused by counting colors, not by enumerating k^10
    for cfg in mixed_configs(seed=4242, count=15, n_min=10, n_max=10):
        g1, g2 = gen_instance(cfg)
        assert min_k(g1, g2) == delta(g1, g2), cfg


def test_min_k_without_a_coloring_up_to_n_is_an_internal_bug(monkeypatch, example_instance):
    monkeypatch.setattr(oracle, "k_coloring", lambda index, k, caps: None)
    with pytest.raises(RuntimeError, match=r"no coloring up to \|U\| colors \(internal bug\)"):
        min_k(*example_instance)


def _recorded(monkeypatch, name):
    """Wrap oracle's function name; the list returned collects what each call gives."""
    results = []
    real = getattr(oracle, name)

    def recording(*args):
        results.append(real(*args))
        return results[-1]

    monkeypatch.setattr(oracle, name, recording)
    return results


def test_k_search_below_delta_is_refused_before_searching(monkeypatch):
    # every element has the same k colors, so a bound above k is a pigeonhole
    # refusal; no element is assigned
    refusals = _recorded(monkeypatch, "_refused")
    searches = _recorded(monkeypatch, "_search")
    below = 0
    for cfg in mixed_configs(seed=2718, count=30, n_min=10, n_max=10):
        g1, g2 = gen_instance(cfg)
        for k in range(1, delta(g1, g2)):
            assert find_k_coloring(g1, g2, k) is None, (cfg, k)
            below += 1
    assert refusals == [True] * below and searches == [None] * below and below >= 30


@pytest.mark.parametrize("entries, width", [
    ('{"set": ["a", "b"], "value": 3}', 3),  # a bound above its set's size
    ('{"set": [], "value": 1}', 3),  # bound 1 on the empty set
    ('{"set": ["a", "b", "c"], "value": 3}', 2),  # the lists' union is short
], ids=["above_size", "empty_set", "short_union"])
def test_list_search_is_refused_before_searching(monkeypatch, capsys, tmp_path, entries, width):
    # every element's list is 1..width; the one pigeonhole rule refuses the
    # list searches, and k = 2, before any element is assigned
    inst = tmp_path / "inst.json"
    inst.write_text(f'{{"elements": ["a", "b", "c"], "g1": [{entries}], "g2": []}}')
    lists = {u: list(range(1, width + 1)) for u in "abc"}
    lists_file = tmp_path / "lists.json"
    lists_file.write_text(json.dumps(lists))
    g1, g2 = load_instance(str(inst))
    refusals = _recorded(monkeypatch, "_refused")
    searches = _recorded(monkeypatch, "_search")
    assert find_list_coloring(g1, g2, lists) is None
    index = oracle.constraint_index(g1, g2)
    report = oracle.list_trials(index, dict.fromkeys("abc", width), 3, width, seed=0)
    assert [v.kind for v in report.violations] == ["list_coloring_missing"] * 3
    for flags in (["--k", "2"], ["--lists", str(lists_file)]):
        assert run(["color", str(inst), *flags]) == 1
        assert json.loads(capsys.readouterr().out)["found"] is False
    assert refusals == [True] * 6 and searches == [None] * 6


def test_list_coloring_singleton_lists(abc_ground):
    empty = SetFn(abc_ground, ())
    lists = {"a": ["x"], "b": ["y"], "c": ["x"]}
    assert find_list_coloring(empty, empty, lists) == {"a": "x", "b": "y", "c": "x"}


def test_list_coloring_unsat():
    ground = GroundSet(("a", "b"))
    g = SetFn.from_names(ground, [(["a", "b"], 2)])
    assert find_list_coloring(g, g, {"a": [1], "b": [1]}) is None


def test_list_coloring_returns_each_lists_own_color_objects():
    # 1 == 1.0, so they are one color to the constraint, but each element's
    # coloring is the object from its own list
    ground = GroundSet(("a", "b"))
    pair = SetFn.from_names(ground, [(["a", "b"], 2)])
    coloring = find_list_coloring(pair, pair, {"a": [1], "b": [1.0, 2]})
    assert coloring == {"a": 1, "b": 2} and type(coloring["b"]) is int
    empty = SetFn(ground, ())
    coloring = find_list_coloring(empty, empty, {"a": [1], "b": [1.0]})
    assert coloring == {"a": 1, "b": 1.0}
    assert type(coloring["a"]) is int and type(coloring["b"]) is float


def test_list_coloring_string_colors_keep_their_own_order(abc_ground):
    # every list is tried in the one sorted order of all colors, whatever
    # order the colors first appear in across the lists
    g = SetFn.from_names(abc_ground, [(["a", "b", "c"], 3)])
    lists = {"a": ["q", "p"], "b": ["r", "p", "q"], "c": ["r", "p"]}
    assert find_list_coloring(g, g, lists) == {"a": "p", "b": "q", "c": "r"}
    empty = SetFn(abc_ground, ())
    lists = {"a": ["x", 2], "b": ["y", "x"], "c": [None, "x"]}
    assert find_list_coloring(empty, empty, lists) == {"a": 2, "b": "x", "c": None}


def test_equal_colors_of_two_types_sort_where_the_first_seen_sorts():
    # 1 and 1.0 are one color, which sorts by the first of them in ground
    # order: as ("int", 1) it comes after ("float", 1.5), as ("float", 1.0)
    # before it, and every element tries the colors in that one order
    ground = GroundSet(("a", "b"))
    empty = SetFn(ground, ())
    lists = {"a": [1, 1.5], "b": [1.0, 1.5]}
    assert find_list_coloring(empty, empty, lists) == {"a": 1.5, "b": 1.5}
    coloring = find_list_coloring(empty, empty, {"a": [1.0, 1.5], "b": [1, 1.5]})
    assert coloring == {"a": 1.0, "b": 1} and type(coloring["b"]) is int
    pair = SetFn.from_names(ground, [(["a", "b"], 2)])
    coloring = find_list_coloring(pair, pair, lists)
    assert coloring == {"a": 1.5, "b": 1.0} and type(coloring["b"]) is float


def test_list_coloring_ignores_the_order_of_lists_and_colors():
    # the visiting order comes from the sorted distinct colors, so shuffling
    # each list, repeating a color and reordering the mapping change nothing
    rng = random.Random(29)
    pool = [1, 2, 3, 4, 5, "a", "b", None, 2.5]
    caps = SearchCaps(list_budget=10**12)
    found = Counter()
    for cfg in mixed_configs(seed=2029, count=150, n_max=8):
        g1, g2 = gen_instance(cfg)
        tight = checked(g1, g2).tight_lengths()
        # tight or up to two shorter, so that some lists do not color
        lengths = {u: max(1, min(need, len(pool)) - rng.randrange(3)) for u, need in tight.items()}
        lists = {u: rng.sample(pool, length) for u, length in lengths.items()}
        want = find_list_coloring(g1, g2, lists, caps)
        shuffled = {}
        for u in rng.sample(list(lists), len(lists)):
            shuffled[u] = rng.sample(lists[u], len(lists[u])) + lists[u][:1]
        got = find_list_coloring(g1, g2, shuffled, caps)
        assert got == want, (cfg, lists, shuffled)
        if want is not None:
            assert [type(got[u]) for u in tight] == [type(want[u]) for u in tight]
        found[want is None] += 1
    assert found[False] > 0 and found[True] > 0, found


def test_list_coloring_validates_lists(abc_ground):
    empty = SetFn(abc_ground, ())
    with pytest.raises(InputError):
        find_list_coloring(empty, empty, {"a": [1], "b": [1]})  # c missing
    with pytest.raises(InputError):
        find_list_coloring(empty, empty, {"a": [1], "b": [1], "c": []})


def test_resource_caps():
    big = GroundSet(tuple(f"e{i}" for i in range(11)))
    empty = SetFn(big, ())
    with pytest.raises(ResourceLimitError):
        find_k_coloring(empty, empty, 2)
    small = GroundSet(tuple("abc"))
    e2 = SetFn(small, ())
    tiny = SearchCaps(k_search_elements=2, list_budget=7)
    with pytest.raises(ResourceLimitError):
        find_k_coloring(e2, e2, 2, caps=tiny)
    with pytest.raises(ResourceLimitError):
        find_list_coloring(e2, e2, {"a": [1, 2], "b": [1, 2], "c": [1, 2]}, caps=tiny)


def test_search_stack_does_not_grow_with_elements(shallow_stack):
    # the edges of a 200-edge path, in path order: the only 2-coloring in
    # first-use order alternates, and the search places it without backtracking
    v = [f"v{i}" for i in range(201)]
    pairs = [(v[i], v[i + 1]) if i % 2 == 0 else (v[i + 1], v[i]) for i in range(200)]
    g1, g2 = encode_bipartite(BipartiteGraph.from_pairs(v[::2], v[1::2], pairs))
    names = g1.ground.names
    alternating = {name: 1 + i % 2 for i, name in enumerate(names)}
    caps = SearchCaps(k_search_elements=200, list_budget=2**200)
    assert shallow_stack(find_k_coloring, g1, g2, 2, caps) == alternating
    lists = {name: [1, 2] for name in names}
    assert shallow_stack(find_list_coloring, g1, g2, lists, caps) == alternating


def test_tight_lists_always_color():
    rng = random.Random(5)
    for cfg in mixed_configs(seed=31, count=60, n_max=7):
        g1, g2 = gen_instance(cfg)
        lists = random_lists(g1, g2, delta(g1, g2) + 2, rng)
        coloring = find_list_coloring(g1, g2, lists)
        assert coloring is not None
        assert all(coloring[u] in lists[u] for u in g1.ground.names)
        assert dominates(coloring, g1).ok and dominates(coloring, g2).ok


def test_verify_main_theorem_batch(example_instance):
    g1, g2 = example_instance
    report = verify_main_theorem(g1, g2, trials=20, seed=3)
    assert report.ok


def test_verify_main_theorem_pool_too_small(example_instance):
    g1, g2 = example_instance
    with pytest.raises(InputError):
        verify_main_theorem(g1, g2, trials=1, sigma_size=2, seed=0)


def test_verify_main_theorem_on_a_huge_color_pool(example_instance):
    # a search mask holds the colors in play, not bits up to the largest value
    g1, g2 = example_instance
    assert verify_main_theorem(g1, g2, trials=20, sigma_size=10**12, seed=3).ok


def test_list_coloring_with_huge_colors(abc_ground):
    g1 = SetFn.from_names(abc_ground, [(["a", "b"], 2)])
    lists = {"a": [10**30], "b": [2**200, 10**30], "c": [-(10**40)]}
    coloring = find_list_coloring(g1, SetFn(abc_ground, ()), lists)
    assert coloring == {"a": 10**30, "b": 2**200, "c": -(10**40)}


def test_verify_main_theorem_rejects_invalid_without_trials(abc_ground):
    not_closed = SetFn.from_names(abc_ground, [(["a", "b"], 1), (["b", "c"], 1)])
    with pytest.raises(InputError, match="not intersecting-closed"):
        verify_main_theorem(not_closed, SetFn(abc_ground, ()), trials=0)


def test_search_determinism(example_instance):
    g1, g2 = example_instance
    r1 = verify_main_theorem(g1, g2, trials=5, seed=42)
    r2 = verify_main_theorem(g1, g2, trials=5, seed=42)
    assert r1 == r2


def test_draws_equal_the_stdlib_sample():
    """The oracle's list draw, sample over the color pool {1..sigma},
    against Random.sample on that pool, pick for pick, on both of sample's
    branches."""
    branches = Counter()
    for sigma in [*range(1, 121), 10**3, 10**12]:
        colors = range(1, sigma + 1)
        for need in range(min(sigma, 40) + 1):
            setsize = 21 + (4 ** math.ceil(math.log(need * 3, 4)) if need > 5 else 0)
            branches["pool" if sigma <= setsize else "set"] += 1
            for seed in range(4):
                mine, stdlib = random.Random(seed), random.Random(seed)
                for _ in range(3):
                    want = stdlib.sample(colors, need)
                    got = oracle.sample(mine.getrandbits, colors, need)
                    assert got == want, (sigma, need, seed)
                assert mine.getstate() == stdlib.getstate(), (sigma, need, seed)
    assert branches["pool"] > 1000 and branches["set"] > 1000, branches


def shortened(g1, g2):
    return {u: max(1, b - 1) for u, b in checked(g1, g2).tight_lengths().items()}


def test_list_trials_draw_in_the_order_of_lengths():
    """list_trials against Random.sample and find_list_coloring per trial,
    on lengths listed in reverse ground order and one shorter than tight,
    so that some trials do not color."""
    missing = 0
    for cfg in mixed_configs(seed=23, count=40, n_min=4, n_max=7):
        g1, g2 = gen_instance(cfg)
        lengths = dict(reversed(shortened(g1, g2).items()))
        sigma = delta(g1, g2) + 2
        rng = random.Random(cfg.seed)
        want = []
        for trial in range(4):
            lists = {u: sorted(rng.sample(range(1, sigma + 1), b)) for u, b in lengths.items()}
            if find_list_coloring(g1, g2, lists) is None:
                subjects = tuple((u, *map(str, lists[u])) for u in g1.ground.names)
                want.append(Violation("list_coloring_missing", subjects, (trial,)))
        index = oracle.constraint_index(g1, g2)
        got = oracle.list_trials(index, lengths, 4, sigma, cfg.seed)
        assert got == Report(tuple(want)), cfg
        missing += len(want)
    assert missing > 0


def test_equal_lists_that_are_not_one_to_l_color(abc_ground, monkeypatch):
    """Every element draws [3, 2] on a path that two colors color, in a
    trial and as find_list_coloring's lists: equal lists color whatever
    numbers their colors take."""
    g1 = SetFn.from_names(abc_ground, [(["a", "b"], 2)])
    g2 = SetFn.from_names(abc_ground, [(["b", "c"], 2)])
    monkeypatch.setattr(oracle, "sample", lambda getrandbits, colors, k: [3, 2])
    index = oracle.constraint_index(g1, g2)
    assert oracle.list_trials(index, dict.fromkeys("abc", 2), 3, 5, seed=0).ok
    assert find_list_coloring(g1, g2, dict.fromkeys("abc", [3, 2])) is not None


def test_trial_masks_are_as_wide_as_the_colors_drawn(monkeypatch):
    """From a pool of 10**12 colors, each color drawn takes the next free
    number, so no mask that reaches the search holds a color above
    sum(lengths)."""
    domains = []
    search = oracle._search

    def recording(doms, index):
        domains.append(doms)
        return search(doms, index)

    monkeypatch.setattr(oracle, "_search", recording)
    for cfg in mixed_configs(seed=5, count=20, n_min=4, n_max=7):
        g1, g2 = gen_instance(cfg)
        lengths = checked(g1, g2).tight_lengths()
        domains.clear()
        assert oracle.list_trials(oracle.constraint_index(g1, g2), lengths, 3, 10**12, cfg.seed).ok
        assert len(domains) == 3, cfg
        top = sum(lengths.values())
        assert all(mask.bit_length() <= top + 1 for doms in domains for mask in doms), cfg


@pytest.mark.parametrize("change, message", [
    ({"j": None}, "no list length for element 'j'"),
    ({"zz": 1}, "unknown element 'zz'"),
    ({"j": 0}, "list length of element 'j' must be an int >= 1, got 0"),
    ({"j": -1}, "list length of element 'j' must be an int >= 1, got -1"),
    ({"j": 2.0}, "list length of element 'j' must be an int >= 1, got 2.0"),
    ({"j": True}, "list length of element 'j' must be an int >= 1, got True"),
], ids=["missing", "unknown", "zero", "negative", "float", "bool"])
def test_list_trials_rejects_bad_lengths(example_instance, change, message):
    g1, g2 = example_instance
    lengths = checked(g1, g2).tight_lengths() | change
    lengths = {u: b for u, b in lengths.items() if b is not None}
    index = oracle.constraint_index(g1, g2)
    for trials in (0, 2):
        with pytest.raises(InputError) as e:
            oracle.list_trials(index, lengths, trials, 10, seed=0)
        assert str(e.value) == message


@pytest.mark.parametrize("change, message", [
    ({"j": None}, "no color list for element 'j'"),
    ({"zz": (1,)}, "unknown element 'zz'"),
    ({"j": ()}, "empty color list for element 'j'"),
], ids=["missing", "unknown", "empty"])
def test_list_coloring_rejects_bad_lists(example_instance, change, message):
    g1, g2 = example_instance
    tight = checked(g1, g2).tight_lengths()
    lists = {u: tuple(range(1, b + 1)) for u, b in tight.items()} | change
    lists = {u: dom for u, dom in lists.items() if dom is not None}
    with pytest.raises(InputError) as e:
        find_list_coloring(g1, g2, lists)
    assert str(e.value) == message


def test_list_trials_refuse_once_before_any_draw(example_instance, monkeypatch):
    g1, g2 = example_instance
    lengths = checked(g1, g2).tight_lengths()
    index = oracle.constraint_index(g1, g2)
    caps = SearchCaps(list_budget=5)
    # the message find_list_coloring gives on lists of these lengths
    with pytest.raises(ResourceLimitError) as e:
        find_list_coloring(g1, g2, {u: range(b) for u, b in lengths.items()}, caps)
    over_budget = str(e.value)
    assert over_budget.startswith("list search budget 5 exceeded: product ")

    def entered(*args):
        raise AssertionError("entered")

    monkeypatch.setattr(oracle, "_search", entered)
    monkeypatch.setattr(oracle, "sample", entered)
    for trials in (1, 50):
        with pytest.raises(ResourceLimitError) as e:
            oracle.list_trials(index, lengths, trials, 10, 0, caps)
        assert str(e.value) == over_budget
        # a pool too small for a list (a's, the first) comes before the budget
        with pytest.raises(InputError) as e:
            oracle.list_trials(index, lengths, trials, 2, 0, caps)
        assert str(e.value) == "color pool of 2 too small for list length 4"
    # with no trials neither check runs
    assert oracle.list_trials(index, lengths, 0, 0, 0, caps).ok


def ref_constraints(g1, g2):
    """The (mask, bound) pairs that one color cannot meet, or None when some
    bound exceeds its set's size (the empty set's too): ref_search's input,
    built from the entries without the oracle's index."""
    pairs = [(mask, bound) for g in (g1, g2) for mask, bound in g.entries if bound > 0]
    if any(bound > mask.bit_count() for mask, bound in pairs):
        return None
    return [(mask, bound) for mask, bound in pairs if bound >= 2]


def ref_search(names, domains, constraints):
    """oracle._search before first-use symmetry breaking, kept verbatim."""
    n = len(names)
    if constraints is None:
        return None
    per_elem: list[list[int]] = [[] for _ in range(n)]
    remaining = []
    bounds = []
    for ci, (mask, bound) in enumerate(constraints):
        elems = list(bit_indices(mask))
        if len(set().union(*(domains[i] for i in elems))) < bound:
            return None  # pigeonhole: too few colors to reach the bound
        remaining.append(len(elems))
        bounds.append(bound)
        for i in elems:
            per_elem[i].append(ci)
    counts: list[dict] = [{} for _ in constraints]
    distinct = [0] * len(constraints)
    assignment: list = [None] * n

    def place(i: int, color) -> bool:
        ok = True
        for ci in per_elem[i]:
            remaining[ci] -= 1
            c = counts[ci].get(color, 0) + 1
            counts[ci][color] = c
            if c == 1:
                distinct[ci] += 1
            if distinct[ci] + remaining[ci] < bounds[ci]:
                ok = False
        return ok

    def unplace(i: int, color) -> None:
        for ci in per_elem[i]:
            remaining[ci] += 1
            c = counts[ci][color] - 1
            if c:
                counts[ci][color] = c
            else:
                del counts[ci][color]
                distinct[ci] -= 1

    def dfs(i: int) -> bool:
        if i == n:
            return True
        for color in domains[i]:
            feasible = place(i, color)
            if feasible:
                assignment[i] = color
                if dfs(i + 1):
                    return True
            unplace(i, color)
        return False

    if dfs(0):
        return {name: assignment[i] for i, name in enumerate(names)}
    return None


def test_k_coloring_matches_full_domain_search():
    # first-use symmetry breaking keeps the canonical first coloring, and None
    found = Counter()
    for cfg in mixed_configs(seed=2017, count=400, n_max=8):
        g1, g2 = gen_instance(cfg)
        n = g1.ground.size
        for k in range(1, delta(g1, g2) + 2):
            colors = tuple(range(1, min(k, n) + 1))
            want = ref_search(g1.ground.names, [colors] * n, ref_constraints(g1, g2))
            assert find_k_coloring(g1, g2, k) == want, (cfg, k)
            found[want is None] += 1
    assert found[False] >= 500 and found[True] >= 500, found


def test_equal_lists_give_the_k_search():
    # a k-coloring is the list coloring whose lists all equal {1..k}; no color
    # above n is ever needed, so the lists stop at min(k, n)
    caps = SearchCaps(list_budget=10**12)
    found = Counter()
    for cfg in mixed_configs(seed=2028, count=300, n_max=8):
        g1, g2 = gen_instance(cfg)
        n = g1.ground.size
        for k in range(1, delta(g1, g2) + 2):
            lists = dict.fromkeys(g1.ground.names, list(range(1, min(k, n) + 1)))
            want = find_k_coloring(g1, g2, k, caps)
            assert find_list_coloring(g1, g2, lists, caps) == want, (cfg, k)
            found[want is None] += 1
    assert found[False] >= 300 and found[True] >= 300, found


def _canonical_list(pool):
    """A list as find_list_coloring orders it: distinct, sorted within each type."""
    return tuple(sorted(set(pool), key=lambda c: (type(c).__name__, c)))


def _matches_ref_on_lists(g1, g2, lists, caps=SearchCaps()):
    """find_list_coloring against ref_search, down to each color's type;
    returns whether a coloring exists."""
    names = g1.ground.names
    domains = [_canonical_list(lists[name]) for name in names]
    want = ref_search(names, domains, ref_constraints(g1, g2))
    got = find_list_coloring(g1, g2, lists, caps)
    assert got == want, (lists, got, want)
    if want is not None:
        assert [type(got[u]) for u in names] == [type(want[u]) for u in names]
    return want is not None


def test_list_search_matches_ref_search_on_tight_uniform_and_shorter_lists():
    # whole colorings, not just existence; the k-searches at every k up to
    # delta + 1 are compared in test_k_coloring_matches_full_domain_search
    rng = random.Random(8)
    caps = SearchCaps(list_budget=10**8)  # uniform lists on 8 elements
    outcomes = Counter()
    shared = 0
    for cfg in mixed_configs(seed=2113, count=250, n_max=8):
        g1, g2 = gen_instance(cfg)
        span = delta(g1, g2)
        tight = checked(g1, g2).tight_lengths()
        pool = range(1, span + 3)
        cases = {
            "tight": {u: rng.sample(pool, need) for u, need in tight.items()},
            "uniform": {u: list(range(1, max(1, span) + 1)) for u in tight},
            "shorter": {u: rng.sample(pool, max(1, need - 1)) for u, need in tight.items()},
        }
        for kind, lists in cases.items():
            outcomes[kind, _matches_ref_on_lists(g1, g2, lists, caps)] += 1
            # lists that differ but share a color: the search's symmetry rule
            # prunes those shared colors
            sets = [set(lists[u]) for u in tight]
            shared += any(dom != sets[0] for dom in sets) and bool(set.intersection(*sets))
    assert outcomes["tight", False] == 0  # the paper's statement
    for key in [("tight", True), ("uniform", True), ("shorter", True), ("shorter", False)]:
        assert outcomes[key] > 0, outcomes
    assert shared >= 100, shared  # 133 of the 750


@st.composite
def _families_and_lists(draw):
    n = draw(st.integers(1, 5))
    ground = GroundSet(tuple("abcde"[:n]))
    sets = st.dictionaries(st.integers(0, 2**n - 1), st.integers(-1, 4), max_size=4)
    g1, g2 = (SetFn(ground, tuple(draw(sets).items())) for _ in range(2))
    colors = st.sampled_from([1, 2, 3, 10, "1", "a", "b", "z"])
    lists = {u: draw(st.lists(colors, min_size=1, max_size=4)) for u in ground.names}
    return g1, g2, lists


def test_list_search_matches_ref_search_on_random_families():
    seen = set()

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_families_and_lists())
    def check(case):
        g1, g2, lists = case
        seen.add(_matches_ref_on_lists(g1, g2, lists))

    check()
    assert seen == {True, False}


def test_k_coloring_at_delta_on_a_hard_encoding():
    # the full-domain search took about a minute on this 16-edge encoding
    g1, g2 = encode_bipartite(random_multigraph(random.Random(3046027418), 16))
    k = delta(g1, g2)
    coloring = find_k_coloring(g1, g2, k, SearchCaps(k_search_elements=16))
    assert coloring is not None and set(coloring.values()) <= set(range(1, k + 1))
    assert dominates(coloring, g1).ok and dominates(coloring, g2).ok


def test_the_search_itself_answers_no(monkeypatch):
    # three pairs that each need two colors: within capacity, and no bound
    # exceeds its set's size or two colors, so the pigeonhole rule passes
    # k = 2 and only the exhausted search can say no
    g1, g2 = load_instance(pathlib.Path(__file__).parent / "data" / "triangle.json")
    refusals = _recorded(monkeypatch, "_refused")
    searches = _recorded(monkeypatch, "_search")
    assert find_k_coloring(g1, g2, 2) is None
    assert refusals == [False] and searches == [None]
    assert brute_force_coloring(g1, g2, [(1, 2)] * 3) is None
    want = brute_force_coloring(g1, g2, [(1, 2, 3)] * 3)
    assert find_k_coloring(g1, g2, 3) == want == {"a": 1, "b": 2, "c": 3}
    assert delta(g1, g2) == 2 and min_k(g1, g2) == 3
    refusals.clear()
    searches.clear()
    assert find_list_coloring(g1, g2, dict.fromkeys("abc", [1, 2])) is None
    assert refusals == [False] and searches == [None]


@pytest.mark.parametrize("seed, n, trial", [(1835767930, 8, 0), (237549135, 5, 2)])
def test_probe_trials_that_only_the_search_refuses(monkeypatch, seed, n, trial):
    # of the trials of tightness-probe --count 200 --seed 7 --n-max 8
    # --draws 3, the two whose search enters and runs out
    cfg = GenConfig(seed=seed, n_elements=n, strategy="bipartite")
    assert cfg in mixed_configs(seed=7, count=200, n_max=8)
    g1, g2 = gen_instance(cfg)
    lengths = shortened(g1, g2)
    sigma = delta(g1, g2) + 2
    refusals = _recorded(monkeypatch, "_refused")
    searches = _recorded(monkeypatch, "_search")
    index = oracle.constraint_index(g1, g2)
    report = oracle.list_trials(index, lengths, 3, sigma, seed ^ 0x7717)
    assert [v.values for v in report.violations] == [(trial,)]
    assert refusals == [False] * 3
    assert [found is None for found in searches] == [t == trial for t in range(3)]
    # the same lists against ref_search, drawn as list_trials draws them
    getrandbits = random.Random(seed ^ 0x7717).getrandbits
    colors = range(1, sigma + 1)
    for t in range(3):
        lists = {u: sorted(oracle.sample(getrandbits, colors, b)) for u, b in lengths.items()}
        assert _matches_ref_on_lists(g1, g2, lists) == (t != trial), t

