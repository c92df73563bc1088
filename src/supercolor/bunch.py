"""Effective set families, bunch partitions, per-element bounds, and the
reduction of a set function by a removal set.

The effective family keeps the sets that actually constrain a coloring: value
at least 2 and no proper subset of equal or larger value.  Its maximal members,
padded with singletons, always partition the universe; that partition drives
both the per-element list-length bound and the level-by-level construction.

The mask-level helpers (effective_entries, part_masks, reduce_entries) run
at every level of construct_pi, on one hit part's entries, so they, d_values
and d_list are plain loops over (mask, value) pairs: at that size the cost
is per-call overhead, not the asymptotics.  part_masks takes the maximal sets
greedily by descending size and checks that every other set lies strictly
inside the part holding its lowest bit, which is how an overlap surfaces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .core import (
    ElemSet,
    GroundSet,
    InputError,
    SetFn,
    bit_indices,
    require_valid,
)


@dataclass(frozen=True)
class Partition:
    """Pairwise-disjoint nonempty parts covering the whole ground set."""

    ground: GroundSet
    parts: tuple[ElemSet, ...]

    def __post_init__(self) -> None:
        union = 0
        for p in self.parts:
            if p.ground != self.ground:
                raise InputError("part lives on a different ground set")
            if p.mask == 0:
                raise InputError("partition parts must be nonempty")
            if union & p.mask:
                raise InputError("partition parts overlap")
            union |= p.mask
        if union != self.ground.full_mask:
            raise InputError("partition parts do not cover the ground set")

    def index_of(self, name: str) -> int:
        bit = 1 << self.ground.index(name)  # raises on unknown names
        return next(i for i, p in enumerate(self.parts) if p.mask & bit)

    def part_of(self, name: str) -> ElemSet:
        return self.parts[self.index_of(name)]

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return len(self.parts)


@dataclass(frozen=True, eq=False)
class ReductionResult:
    """The reduced function plus, for each reduced set, the set attaining its value."""

    reduced: SetFn
    attainers: Mapping[ElemSet, ElemSet]


def effective_entries(entries) -> list[tuple[int, int]]:
    """The (mask, value) entries with value >= 2 and no proper subset of equal
    or larger value, in the given order.  The function is taken as valid."""
    big = [(m, v) for m, v in entries if v >= 2]  # only these can dominate
    eff = []
    for m, v in big:
        outside = ~m
        for m2, v2 in big:
            if v2 >= v and not m2 & outside and m2 != m:
                break
        else:
            eff.append((m, v))
    return eff


_NOT_A_PARTITION = "bunch partition is not a partition of the ground set (internal bug)"


def part_masks(eff, live: int) -> list[int]:
    """Bunch partition of the live mask, sorted: the maximal effective sets
    plus singletons of uncovered elements.

    The masks are taken greedily by descending size: one that misses every
    part taken so far is maximal and becomes a part, and every other one must
    lie strictly inside the part that holds its lowest bit.  That holds
    exactly when the maximal sets are distinct and pairwise disjoint, which
    is always so for a valid input; otherwise, or when a part is empty or
    leaves the live mask, an upstream validity bug surfaces as a hard error.
    """
    parts = []
    covered = 0
    for m in sorted([m for m, _ in eff], key=int.bit_count, reverse=True):
        if m & covered:
            low = m & -m
            for p in parts:
                if p & low:
                    break
            # if no part holds the lowest bit, p is a part without it
            if m == p or m & ~p:
                raise RuntimeError(_NOT_A_PARTITION)
        elif m:
            parts.append(m)
            covered |= m
        elif not covered:  # only empty sets: the empty set is a maximal one
            raise RuntimeError(_NOT_A_PARTITION)
    if covered & ~live:
        raise RuntimeError(_NOT_A_PARTITION)
    rest = live & ~covered
    while rest:  # singletons of the uncovered elements
        low = rest & -rest
        parts.append(low)
        rest ^= low
    parts.sort()
    return parts


def d_values(eff, mask: int) -> dict[int, int]:
    """Per-element bound of each element of mask, by index: max of 1 and the
    largest effective value covering it."""
    d = dict.fromkeys(bit_indices(mask), 1)
    for m, v in eff:
        common = m & mask
        if common:
            for i in bit_indices(common):
                if v > d[i]:
                    d[i] = v
    return d


def d_list(eff, size: int) -> list[int]:
    """d_values of the whole ground set of size elements, as a list indexed
    by element, in one pass over the effective entries."""
    d = [1] * size
    for m, v in eff:
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if v > d[i]:
                d[i] = v
            m ^= low
    return d


def reduce_entries(entries, kmask: int) -> dict[int, tuple[int, int]]:
    """Reduce (mask, value) entries by the removal mask, staying on their
    ground set: each set drops its k-elements, sets that met k lose one unit of
    value, and sets with the same residual merge by maximum.  Returns, per
    residual, (value, least attaining mask).  Valid entries stay valid for any
    k, and reducing only the effective entries keeps the effective family."""
    best: dict[int, tuple[int, int]] = {}
    keep = ~kmask
    for m, v in entries:
        hat = v - 1 if m & kmask else v
        proj = m & keep
        cur = best.get(proj)
        if cur is None or hat > cur[0] or (hat == cur[0] and m < cur[1]):
            best[proj] = (hat, m)
    return best


def effective_family(g: SetFn) -> tuple[ElemSet, ...]:
    """Sets with value >= 2 and no proper subset of equal or larger value."""
    require_valid(g)
    return tuple(ElemSet(g.ground, m) for m, _ in effective_entries(g.entries))


def partition_masks(g: SetFn) -> list[int]:
    """Validate g and return part_masks of its whole ground set.  An empty set
    of value >= 2 would be an effective set covering nothing, i.e. an empty
    part, so it is rejected as input."""
    require_valid(g)
    for m, v in g.entries:
        if m == 0 and v >= 2:
            raise InputError(f"the empty set has value {v} >= 2, so there is no bunch partition")
    return part_masks(effective_entries(g.entries), g.ground.full_mask)


def bunch_partition(g: SetFn) -> Partition:
    """Maximal effective sets plus singletons of uncovered elements."""
    parts = partition_masks(g)
    return Partition(g.ground, tuple(ElemSet(g.ground, m) for m in parts))


def d_function(g: SetFn) -> dict[str, int]:
    """Per-element bound: max of 1 and the largest effective value covering it."""
    require_valid(g)
    d = d_values(effective_entries(g.entries), g.ground.full_mask)
    return {name: d[i] for i, name in enumerate(g.ground.names)}


def is_partial_transversal(p: Partition, k: ElemSet) -> bool:
    """True iff every part meets k in at most one element."""
    return all((part.mask & k.mask).bit_count() <= 1 for part in p.parts)


def reduce(g: SetFn, k: ElemSet) -> ReductionResult:
    """Reduce g by the removal set k (see reduce_entries); the result lives on
    the ground set without k and is checked to be valid."""
    require_valid(g)
    if k.ground != g.ground:
        raise InputError("removal set lives on a different ground set")
    best = reduce_entries(g.entries, k.mask)
    names = g.ground.names_of
    new_ground = GroundSet(names(g.ground.full_mask & ~k.mask))
    reduced = SetFn.from_names(new_ground, ((names(p), hv[0]) for p, hv in best.items()))
    try:
        require_valid(reduced)
    except InputError as e:
        raise RuntimeError(f"reduction lost validity (internal bug): {e}") from e
    attainers = {new_ground.subset(names(p)): ElemSet(g.ground, hv[1]) for p, hv in best.items()}
    return ReductionResult(reduced, attainers)


def cover_witness(g: SetFn, x: ElemSet) -> tuple[ElemSet, ElemSet]:
    """For x in the family with g(x) >= 2, return (x', part) with x' an
    effective subset of x∩part and g(x') >= g(x).

    When x itself is effective, x' = x.  Otherwise x' is an inclusion-minimal
    maximizer of g among family sets inside x, ties broken by smallest
    set-as-integer.
    """
    parts = partition_masks(g)  # the one validity walk
    if x not in g:
        raise InputError(f"set {x!r} not in the family")
    if g.value(x) < 2:
        raise InputError(f"cover witness needs g(x) >= 2, got {g.value(x)}")
    inside = [(m, v) for m, v in g.entries if m & ~x.mask == 0]
    top = max(v for _, v in inside)
    maximizers = [m for m, v in inside if v == top]
    minimal = [
        m for m in maximizers
        if not any(m2 != m and m2 & ~m == 0 for m2 in maximizers)
    ]
    witness = ElemSet(g.ground, min(minimal))
    low = witness.mask & -witness.mask
    part = ElemSet(g.ground, next(p for p in parts if p & low))
    if not witness <= part:
        raise RuntimeError("cover witness escaped its part (internal bug)")
    return witness, part
