"""Differential test of the per-level helpers of construct_pi against the
comprehension-based versions they replaced, kept here verbatim as references
(and closed_pairs against its version that found the tight set by a Gosper
scan over at most SUBSET_SCAN_LIMIT S-vertices and tracked visited T-vertices
in a set).

The helpers must give equal outputs, or raise the same exception type with
the same message, on every level of real constructions, on small random
inputs that break their preconditions on purpose, and on explicit inputs at
the guards of construct_pi's singleton step, where transversal_mask's part
graph must still give the reference's answer or error.

construct_pi's loop, which re-derives only the bunch parts that K hits, is
compared with ref_build, the loop it replaced, which rebuilt both whole
families at every level; a work count keeps it from drifting back.

The condition report and dominates, which run on element-indexed lists and
value-class masks, are compared with the name-keyed versions they replaced,
on built pairs and on pairs corrupted so that every condition fails often.
"""

import functools
import random
import sys
from collections import Counter

import pytest

from supercolor import (
    InputError,
    construct_pi,
    construct_pi_traced,
    encode_bipartite,
    gen_instance,
    mixed_configs,
    random_multigraph,
    reduce,
)
from supercolor import bunch, matching, pi
from supercolor.bunch import checked, d_list, effective_entries, part_masks, reduce_entries
from supercolor.core import (
    GroundSet,
    Report,
    ResourceLimitError,
    SetFn,
    Violation,
    bit_indices,
    require_capacity,
    require_valid,
)
from supercolor.matching import closed_pairs, transversal_mask
from supercolor.pi import ConditionReport, PiPair, condition_report, dominates, verify_conditions


# -- references ---------------------------------------------------------------

SUBSET_SCAN_LIMIT = 24


def _gosper_next(v: int) -> int:
    # next integer with the same popcount
    c = v & -v
    r = v + c
    return (((r ^ v) >> 2) // c) | r


def ref_effective_entries(entries) -> list[tuple[int, int]]:
    return [
        (m, v) for m, v in entries
        if v >= 2 and not any(m2 != m and m2 & ~m == 0 and v2 >= v for m2, v2 in entries)
    ]


def ref_part_masks(eff, live: int) -> list[int]:
    masks = [m for m, _ in eff]
    parts = [m for m in masks if not any(m2 != m and m & ~m2 == 0 for m2 in masks)]
    covered = 0  # every effective set lies in a maximal one
    for m in parts:
        covered |= m
    parts = sorted(parts + [1 << i for i in bit_indices(live & ~covered)])
    # the parts cover covered | live; they are disjoint iff their sizes add up
    if 0 in parts or covered & ~live or sum(m.bit_count() for m in parts) != live.bit_count():
        raise RuntimeError("bunch partition is not a partition of the ground set (internal bug)")
    return parts


def ref_d_values(eff, mask: int) -> dict[int, int]:
    return {i: max((v for m, v in eff if (m >> i) & 1), default=1) for i in bit_indices(mask)}


def d_at(eff, mask: int) -> dict[int, int]:
    """d_list read at the elements of mask, keyed by index as ref_d_values is."""
    d = d_list(eff, max([mask.bit_length()] + [m.bit_length() for m, _ in eff]))
    return {i: d[i] for i in bit_indices(mask)}


def ref_reduce_entries(entries, kmask: int) -> dict[int, tuple[int, int]]:
    best: dict[int, tuple[int, int]] = {}
    for m, v in entries:
        hat = v - 1 if m & kmask else v
        proj = m & ~kmask
        cur = best.get(proj)
        if cur is None or hat > cur[0] or (hat == cur[0] and m < cur[1]):
            best[proj] = (hat, m)
    return best


def ref_reduced_values(entries, kmask: int) -> dict[int, int]:
    """ref_reduce_entries without the attainers, as reduce_entries returns it."""
    return {p: hv[0] for p, hv in ref_reduce_entries(entries, kmask).items()}


def ref_transversal_mask(parts1: list[int], parts2: list[int]) -> tuple[int, str]:
    case = "a" if len(parts1) >= len(parts2) else "b"
    lead, follow = (parts1, parts2) if case == "a" else (parts2, parts1)
    adj = [sum(1 << t for t, f in enumerate(follow) if f & s) for s in lead]
    k = 0
    for s, t in closed_pairs(adj, len(follow), range(len(lead))):
        common = lead[s] & follow[t]
        k |= common & -common

    # every element of a K-hit lead part must lie in a K-hit follow part
    hit_lead, hit_follow = (sum(part for part in parts if part & k) for parts in (lead, follow))
    if hit_lead & ~hit_follow:
        raise RuntimeError("transversal case condition failed (internal bug)")
    return k, case


def ref_closed_pairs(
    adj: list[int], nt: int, s_names, limit: int = SUBSET_SCAN_LIMIT
) -> list[tuple[int, int]]:
    """Sorted (S-index, T-index) pairs of a closed matching, from the S-side
    adjacency masks over T-indices 0..nt-1; s_names names S-vertices in
    errors.

    The minimal tight set V is found by scanning subsets of S ordered by
    (size, set-as-integer); the first hit is inclusion-minimal, satisfies
    |Γ(V)| = |V|, and admits a perfect matching onto Γ(V) by Hall.
    """
    ns = len(adj)
    if ns < nt:
        raise InputError(f"closed matching needs |S| >= |T|, got {ns} < {nt}")
    if ns == 0:
        raise InputError("closed matching needs a nonempty S side")
    if ns > limit:
        raise ResourceLimitError(f"subset scan over |S| = {ns} > {limit}")
    for i, m in enumerate(adj):
        if m == 0:
            raise InputError(f"isolated S-vertex {s_names[i]!r}")

    tight = None
    for size in range(1, ns + 1):
        v = (1 << size) - 1
        while v < (1 << ns):
            gamma = 0
            rest = v
            while rest:
                low = rest & -rest
                gamma |= adj[low.bit_length() - 1]
                rest ^= low
            if gamma.bit_count() <= size:
                tight = (v, gamma)
                break
            v = _gosper_next(v)
        if tight:
            break
    if tight is None:  # impossible: V = S is tight because |Γ(S)| <= |T| <= |S|
        raise RuntimeError("no tight subset found (internal bug)")
    vmask, gamma = tight
    if gamma.bit_count() != vmask.bit_count():
        raise RuntimeError("minimal tight set is not tight (internal bug)")

    # perfect matching of V onto Γ(V) by augmenting paths, canonical order
    match_t: dict[int, int] = {}

    def augment(si: int, seen: set[int]) -> bool:
        rest = adj[si] & gamma
        while rest:
            low = rest & -rest
            ti = low.bit_length() - 1
            rest ^= low
            if ti in seen:
                continue
            seen.add(ti)
            if ti not in match_t or augment(match_t[ti], seen):
                match_t[ti] = si
                return True
        return False

    for si in bit_indices(vmask):
        if not augment(si, set()):
            raise RuntimeError("Hall condition failed on the tight set (internal bug)")

    matched_t = sum(1 << ti for ti in match_t)
    if any(adj[si] & ~matched_t for si in match_t.values()):
        raise RuntimeError("matching is not closed (internal bug)")
    return sorted((si, ti) for ti, si in match_t.items())


def ref_build(g1: SetFn, g2: SetFn, check: bool) -> tuple[PiPair, list[tuple]]:
    """Validate, then peel levels in one forward loop that raises both
    sides' values on element indices as it goes.  One record per level:
    (live, K, case)."""
    if g1.ground != g2.ground:
        raise InputError("functions live on different ground sets")
    for g in (g1, g2):
        require_valid(g)
        require_capacity(g)
    ground = g1.ground
    effs = [effective_entries(g.entries) for g in (g1, g2)]
    pis = ([1] * ground.size, [1] * ground.size)
    live, levels = ground.full_mask, []
    while live & (live - 1):  # at most one element left: its value is final
        k, case, hit = transversal_mask(*(part_masks(eff, live) for eff in effs))
        lead, follow = (0, 1) if case == "a" else (1, 0)
        for i in bit_indices(hit & ~k):
            pis[lead][i] += 1
        for i, bound in ref_d_values(effs[follow], k).items():
            pis[follow][i] += bound - 1
        levels.append((live, k, case))
        effs = [effective_entries(reduce_entries(eff, k).items()) for eff in effs]
        live &= ~k

    pair = PiPair(*(dict(zip(ground.names, pi)) for pi in pis))
    if check:
        report = condition_report(checked(g1, g2), pair)
        if not report.all_ok:
            raise RuntimeError(
                f"constructed pair violates its contract (internal bug): {report.to_dict()}"
            )
    return pair, levels


def ref_dominates(assignment, g: SetFn) -> Report:
    """Check that every family set sees at least g(X) distinct values."""
    for name in g.ground.names:
        if name not in assignment:
            raise InputError(f"assignment missing element {name!r}")
    colors = [assignment[name] for name in g.ground.names]
    violations = []
    for m, bound in g.entries:
        got = len({colors[i] for i in bit_indices(m)})
        if got < bound:
            violations.append(Violation("domination", (g.ground.names_of(m),), (got, bound)))
    return Report(tuple(violations))


def ref_condition_report(g1: SetFn, g2: SetFn, pair: PiPair, effs: list) -> ConditionReport:
    """(i)-(iii) for valid functions with effective entries effs and a pair
    defined on their whole ground set."""
    ground = g1.ground
    d1, d2 = (ref_d_values(eff, ground.full_mask) for eff in effs)
    witnesses = []

    i_ok = True
    for i, name in enumerate(ground.names):
        bound = max(d1[i], d2[i])
        if pair.pi1[name] + pair.pi2[name] - 1 > bound:
            i_ok = False
            witnesses.append(
                Violation("condition_i", ((name,),), (pair.pi1[name], pair.pi2[name], bound))
            )

    ii_ok = True
    for side, (pi, g) in enumerate(((pair.pi1, g1), (pair.pi2, g2)), start=1):
        rep = ref_dominates(pi, g)
        if not rep.ok:
            ii_ok = False
            for v in rep.violations:
                witnesses.append(Violation("condition_ii", v.subjects, (side, *v.values)))

    iii_ok = True
    for side, (pi, d) in enumerate(((pair.pi1, d1), (pair.pi2, d2)), start=1):
        for i, name in enumerate(ground.names):
            if pi[name] > d[i]:
                iii_ok = False
                witnesses.append(
                    Violation("condition_iii", ((name,),), (side, pi[name], d[i]))
                )
    return ConditionReport(i_ok, ii_ok, iii_ok, tuple(witnesses))


# -- comparison ---------------------------------------------------------------

def outcome(fn, *args):
    """("ok", result), or the exception's type and message."""
    try:
        result = fn(*args)
    except Exception as e:  # the comparison is the test
        return type(e), str(e)
    if isinstance(result, dict):
        result = list(result.items())  # the order is part of the output
    return "ok", result


def k_and_case(parts1, parts2):
    """transversal_mask's (k, case), after checking that its hit mask is the
    union of the lead parts that K hits."""
    k, case, hit = transversal_mask(parts1, parts2)
    lead = parts1 if case == "a" else parts2
    assert hit == sum(part for part in lead if part & k)
    return k, case


def same(new, ref, *args):
    got, want = outcome(new, *args), outcome(ref, *args)
    assert got == want, (new.__name__, args)
    return want


def test_helpers_match_references_on_every_level():
    instances = [gen_instance(cfg) for cfg in mixed_configs(seed=88, count=100, n_min=6, n_max=10)]
    instances += [encode_bipartite(random_multigraph(random.Random(s), 32)) for s in range(3)]
    levels = 0
    for g1, g2 in instances:
        effs = [same(effective_entries, ref_effective_entries, g.entries)[1] for g in (g1, g2)]
        live = g1.ground.full_mask
        for eff in effs:  # d_list is ref_d_values of the whole ground set
            want = ref_d_values(eff, live)
            assert d_list(eff, g1.ground.size) == [want[i] for i in range(g1.ground.size)]
        while live & (live - 1):
            parts = [same(part_masks, ref_part_masks, eff, live)[1] for eff in effs]
            for eff in effs:
                same(d_at, ref_d_values, eff, live)
            k, case = same(k_and_case, ref_transversal_mask, *parts)[1]
            same(d_at, ref_d_values, effs[1 if case == "a" else 0], k)
            reduced = [same(reduce_entries, ref_reduced_values, eff, k)[1] for eff in effs]
            effs = [same(effective_entries, ref_effective_entries, r)[1] for r in reduced]
            live &= ~k
            levels += 1
    assert levels >= 700


def test_reduce_matches_reference():
    """bunch.reduce's values and least attainers, found in one more pass
    over the entries, equal ref_reduce_entries', in the same key order."""
    rng = random.Random(2017)
    checked = 0
    for cfg in mixed_configs(seed=17, count=200, n_min=1, n_max=8):
        for g in gen_instance(cfg):
            for k in (0, rng.getrandbits(g.ground.size), g.ground.full_mask):
                red, attainers = reduce(g, k)
                renamed = [
                    (red.ground.mask_of(g.ground.names_of(p)), hv)
                    for p, hv in ref_reduce_entries(g.entries, k).items()
                ]
                assert list(attainers.items()) == [(x, hv[1]) for x, hv in renamed]
                assert dict(red.entries) == {x: hv[0] for x, hv in renamed}
                checked += 1
    assert checked == 1200


def _random_entries(rng, n):
    # masks over one bit more than the live set can hold, so some leave it
    return [(rng.getrandbits(n + 1), rng.randint(0, 4)) for _ in range(rng.randint(0, 6))]


def _laminar_entries(rng, live):
    # sets inside the blocks of a random partition of live: a genuine partition
    blocks = [0, 0, 0]
    for i in bit_indices(live):
        blocks[rng.randrange(3)] |= 1 << i
    entries = []
    for block in blocks:
        for _ in range(rng.randint(0, 2)):
            sub = block & rng.getrandbits(block.bit_length())
            if sub:
                entries.append((rng.choice([sub, block]), rng.randint(2, 4)))
    return entries


EDGE_CASES = [
    ([(0b011, 2), (0b110, 2)], 0b111),  # two maximal sets overlap
    ([(0b011, 2), (0b110, 3), (0b010, 4)], 0b111),  # they overlap on a common subset
    ([(0b0111, 2), (0b1100, 2)], 0b1111),  # overlap, not at the lowest bit
    ([(0b1000, 2)], 0b0111),  # a part outside the live set
    ([(0b0011, 2), (0b0001, 3)], 0b0010),  # a non-maximal set sticks out too
    ([(0b0, 2)], 0b1),  # the empty mask alone
    ([(0b0, 2), (0b0, 3)], 0b11),  # only empty masks
    ([(0b0, 3), (0b110, 2)], 0b111),  # the empty mask beside another set
    ([(0b011, 2), (0b011, 3)], 0b111),  # a maximal set twice
    ([(0b001, 2), (0b001, 3), (0b011, 2)], 0b111),  # a non-maximal set twice
    ([], 0b101),  # singletons only
    ([], 0),  # nothing live
]


def test_helpers_match_references_on_small_random_inputs():
    rng = random.Random(4242)
    cases = list(EDGE_CASES)
    for _ in range(4000):
        n = rng.randint(1, 6)
        live = rng.choice([(1 << n) - 1, rng.getrandbits(n)])
        entries = _random_entries(rng, n)
        cases.append((entries, live))
        cases.append((ref_effective_entries(entries), live))
        cases.append((_laminar_entries(rng, live), live))
    seen = Counter()
    compared = 0
    for i, (entries, live) in enumerate(cases):
        same(effective_entries, ref_effective_entries, entries)
        seen["effective_entries", min(sum(v >= 2 for _, v in entries), 2)] += 1
        same(reduce_entries, ref_reduced_values, entries, rng.getrandbits(7))
        # d_list reads effective entries, whose values are at least 2
        same(d_at, ref_d_values, ref_effective_entries(entries), live | rng.getrandbits(7))
        kind, parts = same(part_masks, ref_part_masks, entries, live)
        seen["part_masks", min(len(entries), 2), kind] += 1
        compared += 4
        if kind != "ok":
            seen["part_masks", kind] += 1
            continue
        # a partner partition, of the same live set or of another one, so
        # that some lead parts meet no follow part or leave the follow side
        other, other_live = cases[rng.randrange(i + 1)]
        if rng.random() < 0.5:
            other_live = live
        kind, other_parts = outcome(ref_part_masks, other, other_live)
        if kind == "ok":
            for pair in ((parts, other_parts), (other_parts, parts)):
                kind = same(k_and_case, ref_transversal_mask, *pair)[0]
                seen["transversal_mask", kind] += 1
                compared += 1
    assert compared >= 40000
    # every check is reached: the partition check, closed_pairs' input
    # checks and transversal_mask's case condition
    assert seen["part_masks", RuntimeError] >= 1000, seen
    assert seen["transversal_mask", InputError] >= 100, seen
    assert seen["transversal_mask", RuntimeError] >= 10, seen
    # and the small inputs, which take the same single path: effective_entries
    # with fewer than two values >= 2, part_masks with no set or one set,
    # kept or refused
    assert min(seen["effective_entries", n] for n in (0, 1)) >= 1000, seen
    assert min(seen["part_masks", n, "ok"] for n in (0, 1)) >= 500, seen
    assert seen["part_masks", 1, RuntimeError] >= 100, seen


SINGLE = [1 << i for i in range(SUBSET_SCAN_LIMIT + 1)]

# (parts1, parts2, what the reference gives) at the guards of construct_pi's
# singleton step, which transversal_mask's part graph must handle as the
# reference does; each pair is also compared the other way round
SINGLETON_CASES = [
    (SINGLE, [sum(SINGLE)], "ok"),  # 25 lead parts, all inside one follow part
    (SINGLE[:-1], [sum(SINGLE[:-1])], "ok"),  # 24 of them
    ([0b01, 0b10], [0b01], InputError),  # different masks: lead part 0b10 is isolated
    ([0, 0b01, 0b10], [0b11], InputError),  # a zero lead part before a tight one
    ([0b01, 0b10, 0], [0b11], InputError),  # and after it
    ([0b1], [], InputError),  # an empty follow side
    ([], [], InputError),
    ([0b0011, 0b0100, 0b1000], [0b0101, 0b1010], "ok"),  # tight part at index 1
    ([0b00011, 0b01100, 0b10000], [0b00101, 0b11010], "ok"),  # at the last index
    ([0b0011, 0b1100], [0b0101, 0b1010], "ok"),  # no tight part: V = S
    ([0b0011, 0b1100, 0b110000], [0b0101, 0b1010, 0b110000], "ok"),  # tight at index 2 of 3
]


def test_singleton_step_matches_reference_at_its_guards():
    # ref_transversal_mask calls the live closed_pairs, so each part graph also
    # goes to the Gosper reference, with its cap lifted for the 25-part row
    uncapped = functools.partial(ref_closed_pairs, limit=len(SINGLE))
    for parts1, parts2, kind in SINGLETON_CASES:
        assert same(k_and_case, ref_transversal_mask, parts1, parts2)[0] == kind
        same(k_and_case, ref_transversal_mask, parts2, parts1)
        for lead, follow in ((parts1, parts2), (parts2, parts1)):
            adj = [sum(1 << t for t, f in enumerate(follow) if f & s) for s in lead]
            same(closed_pairs, uncapped, adj, len(follow), range(len(adj)))
    capped = outcome(ref_closed_pairs, [1] * len(SINGLE), 1, range(len(SINGLE)))
    assert capped[0] is ResourceLimitError


def test_singleton_step_settles_most_levels(monkeypatch):
    calls = 0
    scan = matching.closed_pairs

    def counting(*args):
        nonlocal calls
        calls += 1
        return scan(*args)

    monkeypatch.setattr(matching, "closed_pairs", counting)
    levels = 0
    for seed in range(20):
        g1, g2 = encode_bipartite(random_multigraph(random.Random(seed), 32))
        levels += len(construct_pi_traced(g1, g2)[1])
    assert 0 < calls < levels, (calls, levels)


def augment_depth(adj, nt) -> int:
    """Longest chain of nested augment calls in ref_closed_pairs(adj, nt):
    the length of its longest augmenting path."""
    depth = deepest = 0

    def on_call(frame, event, arg):
        nonlocal depth, deepest
        if frame.f_code.co_name != "augment":
            return None
        depth += 1
        deepest = max(deepest, depth)
        return on_return

    def on_return(frame, event, arg):
        nonlocal depth
        if event == "return":
            depth -= 1
        return on_return

    sys.settrace(on_call)
    try:
        ref_closed_pairs(adj, nt, range(len(adj)))
    finally:
        sys.settrace(None)
    return deepest


def _ladder(rng, n):
    """Adjacency masks of an n-cycle ladder: s_i meets t_i and t_(i+1) for
    i < n-1, and s_(n-1) meets t_0 and t_(n-1).  Only the whole of S is
    tight, and the last S-vertex's augmenting path runs through all the
    others.  Some random extra edges and a random T-relabelling keep the
    paths long in most draws."""
    adj = [(1 << i) | (1 << (i + 1)) for i in range(n - 1)] + [1 | (1 << (n - 1))]
    for _ in range(rng.randint(0, 2)):
        adj[rng.randrange(n)] |= 1 << rng.randrange(n)
    if rng.random() < 0.5:
        perm = list(range(n))
        rng.shuffle(perm)
        adj = [sum(1 << perm[t] for t in bit_indices(m)) for m in adj]
    return adj


def test_closed_pairs_matches_reference():
    rng = random.Random(1707)
    cases = [([], 0), ([0], 0), ([1, 0], 1), ([0b11], 2)]
    for _ in range(2200):
        ns = rng.randint(1, 12)
        nt = rng.randint(1, ns)
        density = rng.random() / 2
        adj = [
            (1 << rng.randrange(nt)) | sum(1 << t for t in range(nt) if rng.random() < density)
            for _ in range(ns)
        ]
        if rng.random() < 0.05:  # break a precondition: an isolated vertex or |S| < |T|
            adj[rng.randrange(ns)] = 0
        elif rng.random() < 0.05:
            nt = ns + 1
        cases.append((adj, nt))
    ladders = []
    for _ in range(400):
        n = rng.randint(2, 12)
        ladders.append((_ladder(rng, n), n))
    # only the whole of S is tight on cycles and ladders: the most search nodes
    large = [([(1 << i) | (1 << ((i + 1) % n)) for i in range(n)], n) for n in range(13, 19)]
    large += [(_ladder(rng, n), n) for n in range(13, 19)]
    kinds = Counter()
    for adj, nt in cases + ladders + large:
        kind = same(closed_pairs, ref_closed_pairs, adj, nt, [f"s{i}" for i in range(len(adj))])[0]
        kinds[kind] += 1
    assert kinds["ok"] >= 2000 and kinds[InputError] >= 100, kinds
    long_paths = sum(augment_depth(adj, nt) >= 8 for adj, nt in ladders)
    assert long_paths >= 100, long_paths


def traced(g1, g2):
    pair, log = construct_pi_traced(g1, g2)
    return pair.pi1, pair.pi2, log


def ref_traced(g1, g2):
    """ref_build's pair and level log, in construct_pi_traced's form."""
    pair, levels = ref_build(g1, g2, True)
    names = g1.ground.names_of
    log = [{"universe": list(names(live)), "k": list(names(k)), "case": case}
           for live, k, case in levels]
    return pair.pi1, pair.pi2, log


def hit_part_splits(g1, g2, log) -> int:
    """Hit parts, on either side, that a level's K leaves in two or more
    parts of the next level's partition, both partitions rebuilt from the
    whole families as ref_build does, so that build's path is moot."""
    effs = [effective_entries(g.entries) for g in (g1, g2)]
    live = g1.ground.full_mask
    parts = [part_masks(eff, live) for eff in effs]
    splits = 0
    for level in log:
        k = g1.ground.mask_of(level["k"])
        live &= ~k
        effs = [effective_entries(reduce_entries(eff, k).items()) for eff in effs]
        after = [part_masks(eff, live) for eff in effs]
        for before, now in zip(parts, after):
            splits += sum(1 for part in before if part & k and part & ~k and part & ~k not in now)
        parts = after
    return splits


def test_construct_pi_matches_ref_build(monkeypatch):
    paths = Counter()  # hit parts reduced by build's one-set step and by _split
    for name in ("_shrink", "_split"):
        def counting(*args, fn=getattr(pi, name), name=name):
            paths[name] += 1
            return fn(*args)

        monkeypatch.setattr(pi, name, counting)
    instances = [gen_instance(cfg) for cfg in mixed_configs(seed=15, count=300, n_min=1, n_max=10)]
    for edges in (32, 48, 64):
        instances += [encode_bipartite(random_multigraph(random.Random(s), edges)) for s in range(20)]
    levels = Counter()
    for g1, g2 in instances:
        paths["_split"] -= 2  # the first two calls split the whole ground set, one per side
        kind, result = same(traced, ref_traced, g1, g2)
        assert kind == "ok", result
        log = result[2]
        levels["level"] += len(log)
        levels["|K| >= 2"] += sum(len(level["k"]) >= 2 for level in log)
        levels["case b"] += sum(level["case"] == "b" for level in log)
        levels["hit part splits"] += hit_part_splits(g1, g2, log)
    assert levels["level"] >= 3000, levels
    assert levels["|K| >= 2"] >= 100, levels
    assert levels["case b"] >= 1000, levels
    assert levels["hit part splits"] >= 100, levels
    assert paths["_shrink"] >= 1000 and paths["_split"] >= 300, paths


def test_owner_lookup_matches_the_part_graph(monkeypatch):
    """On the instances of test_construct_pi_matches_ref_build, every level
    that build's singleton step settles (through the follow side's owner
    index, without calling transversal_mask) gets the (K, case, hit) that
    transversal_mask's part graph gives on that level's partitions, rebuilt
    from the whole families as ref_build does."""
    graph_levels = set()  # the live mask of each level that built the part graph
    real = pi.transversal_mask

    def recording(parts1, parts2):
        graph_levels.add(sum(parts1))
        return real(parts1, parts2)

    monkeypatch.setattr(pi, "transversal_mask", recording)
    instances = [gen_instance(cfg) for cfg in mixed_configs(seed=15, count=300, n_min=1, n_max=10)]
    for edges in (32, 48, 64):
        instances += [encode_bipartite(random_multigraph(random.Random(s), edges)) for s in range(20)]
    levels = Counter()
    for g1, g2 in instances:
        graph_levels.clear()
        effs = [effective_entries(g.entries) for g in (g1, g2)]
        for live, k, case, hit in pi.build(checked(g1, g2), check=False)[1]:
            if live in graph_levels:
                levels["part graph"] += 1
            else:
                parts = [part_masks(eff, live) for eff in effs]
                assert (k, case, hit) == real(*parts), (g1, g2, live)
                levels["owner lookup"] += 1
            effs = [effective_entries(reduce_entries(eff, k).items()) for eff in effs]
    assert levels == {"owner lookup": 3421, "part graph": 208}, levels


def entries_passed(module, build, instances) -> int:
    """Entries that build passes to module's effective_entries and
    reduce_entries on the instances, past the entry step's two calls of
    effective_entries on the functions' own entries.  The entry step may
    derive through bunch.checked, so bunch's bindings count too."""
    sizes = []
    total = 0
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in ("effective_entries", "reduce_entries"):
            real = getattr(module, name)

            def counting(entries, *rest, fn=real):
                sizes.append(len(entries))
                return fn(entries, *rest)

            for mod in (module, bunch):
                if getattr(mod, name) is real:
                    monkeypatch.setattr(mod, name, counting)
        for g1, g2 in instances:
            sizes.clear()
            build(g1, g2, False)
            assert sizes[:2] == [len(g1.entries), len(g2.entries)]
            total += sum(sizes[2:])
    return total


def test_levels_rederive_only_the_hit_parts(monkeypatch):
    # whole-family rebuilds pass every live entry at every level; the counts
    # are deterministic, so they are pinned.  A hit part whose one effective
    # set is the part itself, as every part of an encoding is, is reduced in
    # place by build's one-set step (pi._shrink), so no entry of those 20
    # encodings reaches the helpers; parts with more sets still do.
    encodings = [encode_bipartite(random_multigraph(random.Random(s), 32)) for s in range(20)]
    mixed = [gen_instance(cfg) for cfg in mixed_configs(seed=11, count=100, n_min=1, n_max=10)]
    new = entries_passed(pi, pi.construct_pi, encodings)
    ref = entries_passed(sys.modules[__name__], ref_build, encodings)
    assert (new, ref) == (0, 10448)
    assert new * 5 <= ref
    new = entries_passed(pi, pi.construct_pi, mixed)
    ref = entries_passed(sys.modules[__name__], ref_build, mixed)
    assert (new, ref) == (1109, 2159)
    kept = Counter()  # one-set steps on the encodings, by whether left stays one part
    real = pi._shrink

    def counting(left, v, *rest):
        kept[v >= 2] += 1
        return real(left, v, *rest)

    monkeypatch.setattr(pi, "_shrink", counting)
    for g1, g2 in encodings:
        pi.construct_pi(g1, g2, False)
    # 742 steps, one for each pair of entries the helpers were handed before
    assert kept == {True: 431, False: 311}, kept


def test_one_set_step_matches_the_generic_chain():
    """build's in-place step for a hit part whose one effective set is the
    part itself leaves the side's parts, entries and owner index exactly as
    the generic chain, _split of the effective entries of the reduction,
    does, on random sides around the part."""
    rng = random.Random(3301)
    seen = Counter()
    for _ in range(3000):
        n = rng.randint(2, 12)
        gone = rng.getrandbits(n) & rng.getrandbits(n)  # peeled earlier: stale owner bits
        order = list(range(n))
        rng.shuffle(order)
        cuts = sorted(rng.sample(range(1, n), rng.randint(0, n // 3)))
        blocks = [order[a:b] for a, b in zip([0, *cuts], [*cuts, n])]
        blocks = [sum(1 << i for i in block if not gone >> i & 1) for block in blocks]
        blocks = [block for block in blocks if block]
        big = [block for block in blocks if block & (block - 1)]
        if not big:
            continue
        hit = rng.choice(big)
        parts, inside, owner = [], {}, [0] * n
        for block in sorted(blocks):
            if block != hit:
                parts.append(block)
                size = block.bit_count()
                inside[block] = [(block, rng.randint(2, size))] if size >= 2 and rng.random() < 0.5 else []
            for i in bit_indices(block):
                owner[i] = block | (gone & rng.getrandbits(n))
        v = rng.choice([2, rng.randint(2, hit.bit_count())])  # 2: left loses its set
        k = 1 << rng.choice(list(bit_indices(hit)))
        states = [(list(parts), dict(inside), list(owner)) for _ in range(2)]
        pi._shrink(hit & ~k, v - 1, *states[0])
        pi._split(effective_entries(reduce_entries([(hit, v)], k).items()), hit & ~k, *states[1])
        assert states[0] == states[1], (parts, inside, owner, hit, v, k)
        left = hit & ~k
        seen["one part" if v > 2 else "one element" if not left & (left - 1) else "singletons"] += 1
    assert min(seen.values()) >= 300 and len(seen) == 3, seen


# -- condition report ---------------------------------------------------------

def _bumped(rng, pair: PiPair) -> PiPair:
    """Each value moved up or down by one, staying at least 1."""
    return PiPair(*({name: max(1, v + rng.choice((-1, 1))) for name, v in pi.items()}
                    for pi in (pair.pi1, pair.pi2)))


def _transplanted(pair: PiPair, other: PiPair) -> PiPair:
    """other's values, by element position, on pair's elements."""
    out = []
    for pi, source in ((pair.pi1, other.pi1), (pair.pi2, other.pi2)):
        values = list(source.values())
        out.append({name: values[i % len(values)] for i, name in enumerate(pi)})
    return PiPair(*out)


def same_report(g1, g2, pair) -> dict:
    effs = [effective_entries(g.entries) for g in (g1, g2)]
    got = condition_report(checked(g1, g2), pair).to_dict()
    want = ref_condition_report(g1, g2, pair, effs).to_dict()
    assert list(got.items()) == list(want.items()), (pair, g1, g2)
    return want


def test_condition_report_matches_reference():
    rng = random.Random(1995)
    instances = [gen_instance(cfg) for cfg in mixed_configs(seed=16, count=300, n_min=1, n_max=10)]
    instances += [encode_bipartite(random_multigraph(random.Random(s), 32)) for s in range(20)]
    pairs = [construct_pi(g1, g2, check=False) for g1, g2 in instances]
    kinds = Counter()
    for (g1, g2), pair in zip(instances, pairs):
        ones = PiPair(*(dict.fromkeys(g1.ground.names, 1) for _ in range(2)))
        other = _transplanted(pair, pairs[rng.randrange(len(pairs))])
        for candidate in (pair, _bumped(rng, pair), ones, other):
            report = same_report(g1, g2, candidate)
            kinds.update(w["kind"] for w in report["witnesses"])
            kinds["all_ok", report["i_ok"] and report["ii_ok"] and report["iii_ok"]] += 1
        # colors of any hashable kind, through the public wrapper
        coloring = {name: rng.choice("xyz") for name in g1.ground.names}
        for g in (g1, g2):
            assert dominates(coloring, g) == ref_dominates(coloring, g)
    assert kinds["all_ok", True] >= len(instances), kinds
    assert min(kinds[k] for k in ("condition_i", "condition_ii", "condition_iii")) >= 20, kinds


def test_condition_report_flags_the_empty_set():
    # verify_conditions does not require capacity, so {} may hold value 1,
    # which no coloring reaches
    ground = GroundSet(("a", "b", "c"))
    g1 = SetFn(ground, ((0, 1), (0b011, 2), (0b111, 3)))
    g2 = SetFn(ground, ((0b110, 2),))
    pair = PiPair({"a": 1, "b": 2, "c": 3}, {"a": 1, "b": 2, "c": 1})
    effs = [effective_entries(g.entries) for g in (g1, g2)]
    report = verify_conditions(g1, g2, pair)
    assert report.to_dict() == ref_condition_report(g1, g2, pair, effs).to_dict()
    assert report.witnesses == (Violation("condition_ii", ((),), (1, 0, 1)),)
    assert dominates(pair.pi1, g1) == ref_dominates(pair.pi1, g1)
    assert not dominates(pair.pi1, g1).ok
