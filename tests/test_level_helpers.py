"""Differential test of the per-level helpers of construct_pi against the
comprehension-based versions they replaced, kept here verbatim as references.

The helpers must give equal outputs, or raise the same exception type with
the same message, on every level of real constructions and on small random
inputs that break their preconditions on purpose.
"""

import random
from collections import Counter

from supercolor import InputError, encode_bipartite, gen_instance, mixed_configs, random_multigraph
from supercolor.bunch import d_values, effective_entries, part_masks, reduce_entries
from supercolor.core import bit_indices
from supercolor.matching import closed_pairs, transversal_mask


# -- references ---------------------------------------------------------------

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


def ref_reduce_entries(entries, kmask: int) -> dict[int, tuple[int, int]]:
    best: dict[int, tuple[int, int]] = {}
    for m, v in entries:
        hat = v - 1 if m & kmask else v
        proj = m & ~kmask
        cur = best.get(proj)
        if cur is None or hat > cur[0] or (hat == cur[0] and m < cur[1]):
            best[proj] = (hat, m)
    return best


def ref_transversal_mask(parts1: list[int], parts2: list[int]) -> tuple[int, str]:
    case = "a" if len(parts1) >= len(parts2) else "b"
    lead, follow = (parts1, parts2) if case == "a" else (parts2, parts1)
    adj = [sum(1 << t for t, f in enumerate(follow) if f & s) for s in lead]
    k = 0
    for s, t in closed_pairs(adj, len(follow), range(len(lead))):
        common = lead[s] & follow[t]
        k |= common & -common

    if __debug__:
        # every element of a K-hit lead part must lie in a K-hit follow part
        hit_lead, hit_follow = (sum(part for part in parts if part & k) for parts in (lead, follow))
        if hit_lead & ~hit_follow:
            raise RuntimeError("transversal case condition failed (internal bug)")
    return k, case


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
        while live & (live - 1):
            parts = [same(part_masks, ref_part_masks, eff, live)[1] for eff in effs]
            for eff in effs:
                same(d_values, ref_d_values, eff, live)
            k, case = same(k_and_case, ref_transversal_mask, *parts)[1]
            same(d_values, ref_d_values, effs[1 if case == "a" else 0], k)
            reduced = [same(reduce_entries, ref_reduce_entries, eff, k)[1] for eff in effs]
            effs = [
                same(effective_entries, ref_effective_entries, [(p, hv[0]) for p, hv in r])[1]
                for r in reduced
            ]
            live &= ~k
            levels += 1
    assert levels >= 700


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
        same(reduce_entries, ref_reduce_entries, entries, rng.getrandbits(7))
        # d_values reads effective entries, whose values are at least 2
        same(d_values, ref_d_values, ref_effective_entries(entries), live | rng.getrandbits(7))
        kind, parts = same(part_masks, ref_part_masks, entries, live)
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
