"""Effective set families, bunch partitions, per-element bounds, and the
reduction of a set function by a removal set, all on masks.

The effective family keeps the sets that actually constrain a coloring: value
at least 2 and no proper subset of equal or larger value.  Its maximal members,
padded with singletons, always partition the universe; that partition drives
both the per-element list-length bound and the level-by-level construction.

The public functions validate, then call the mask-level helpers
(effective_entries, part_masks, d_list, reduce_entries).  checked is the one
boundary for a pair: it validates both functions on their shared ground set
and derives their effective entries and d-lists into an Instance, which
pi, oracle and the CLI take from there.  The helpers run at every
level of construct_pi, on one hit part's entries, so they are plain loops
over (mask, value) pairs.  part_masks takes the maximal sets greedily by
descending size and checks that every other set lies strictly inside the
part holding its lowest bit, which is how an overlap surfaces.
reduce_entries keeps only the merged values; reduce finds the least set
attaining each in one more pass.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import GroundSet, InputError, SetFn, require_same_ground, require_valid


def effective_entries(entries) -> list[tuple[int, int]]:
    """The (mask, value) entries with value >= 2 and no proper subset of equal
    or larger value, in the given order.  The function is taken as valid."""
    big = []  # only these can dominate; a loop, as a comprehension costs a call
    for m, v in entries:
        if v >= 2:
            big.append((m, v))
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


def d_list(eff, size: int) -> list[int]:
    """Per-element bound of a ground set of size elements, as a list indexed
    by element: max of 1 and the largest effective value covering it, in one
    pass over the effective entries."""
    d = [1] * size
    for m, v in eff:
        while m:
            low = m & -m
            i = low.bit_length() - 1
            if v > d[i]:
                d[i] = v
            m ^= low
    return d


@dataclass(frozen=True, eq=False)
class Instance:
    """Two valid functions on one ground set with each side's effective
    entries and d-list; build it with checked.  Capacity is not implied: it
    stays the per-function record of core.require_capacity, so a function
    that needs it requires it itself."""

    g1: SetFn
    g2: SetFn
    effs: tuple[list, list]
    ds: tuple[list, list]

    @property
    def ground(self) -> GroundSet:
        return self.g1.ground

    def tight_lengths(self) -> dict[str, int]:
        """Per-element tight list length max{d1(u), d2(u)}, in ground order."""
        return {name: a if a > b else b for name, a, b in zip(self.ground.names, *self.ds)}


def checked(g1: SetFn, g2: SetFn) -> Instance:
    """Check that g1 and g2 share a ground set and are both valid, then
    derive the Instance.  A caller that also needs capacity requires it
    afterwards, so either side's invalidity comes before a capacity error."""
    require_same_ground(g1, g2)
    for g in (g1, g2):
        require_valid(g)
    effs = (effective_entries(g1.entries), effective_entries(g2.entries))
    size = g1.ground.size
    return Instance(g1, g2, effs, (d_list(effs[0], size), d_list(effs[1], size)))


def reduce_entries(entries, kmask: int) -> dict[int, int]:
    """Reduce (mask, value) entries by the removal mask, staying on their
    ground set: each set drops its k-elements, sets that met k lose one unit of
    value, and sets with the same residual merge by maximum.  Returns residual
    -> value, in order of first appearance.  Valid entries stay valid for any
    k, and reducing only the effective entries keeps the effective family."""
    best: dict[int, int] = {}
    keep = ~kmask
    for m, v in entries:
        if m & kmask:
            m &= keep
            v -= 1
        cur = best.get(m)
        if cur is None or v > cur:
            best[m] = v
    return best


def effective_family(g: SetFn) -> tuple[int, ...]:
    """Masks of the sets with value >= 2 and no proper subset of equal or
    larger value, in entry order."""
    require_valid(g)
    return tuple(m for m, _ in effective_entries(g.entries))


def bunch_partition(g: SetFn) -> list[int]:
    """Validate g and return its bunch partition as sorted part masks: the
    maximal effective sets plus singletons of uncovered elements.  An empty
    set of value >= 2 would be an effective set covering nothing, i.e. an
    empty part, so it is rejected as input."""
    require_valid(g)
    for m, v in g.entries:
        if m == 0 and v >= 2:
            raise InputError(f"the empty set has value {v} >= 2, so there is no bunch partition")
    return part_masks(effective_entries(g.entries), g.ground.full_mask)


def d_function(g: SetFn) -> dict[str, int]:
    """Per-element bound by name: max of 1 and the largest effective value covering it."""
    require_valid(g)
    return dict(zip(g.ground.names, d_list(effective_entries(g.entries), g.ground.size)))


def reduce(g: SetFn, kmask: int) -> tuple[SetFn, dict[int, int]]:
    """Reduce g by the removal mask kmask (see reduce_entries).  Returns the
    reduced function, on the ground set without K and checked to be valid,
    and for each of its sets (a mask over that ground) the least set of g
    attaining its value."""
    if not 0 <= kmask <= g.ground.full_mask:
        raise InputError(
            f"removal mask {kmask:#x} outside the ground set of {g.ground.size} elements"
        )
    require_valid(g)
    best = reduce_entries(g.entries, kmask)
    least: dict[int, int] = {}
    for m, v in g.entries:  # ascending masks: the first attainer is the least
        p = m & ~kmask
        if p not in least and (v - 1 if m & kmask else v) == best[p]:
            least[p] = m
    names = g.ground.names_of
    new_ground = GroundSet(names(g.ground.full_mask & ~kmask))
    renamed = {p: new_ground.mask_of(names(p)) for p in best}
    reduced = SetFn(new_ground, tuple((renamed[p], v) for p, v in best.items()))
    try:
        require_valid(reduced)
    except InputError as e:
        raise RuntimeError(f"reduction lost validity (internal bug): {e}") from e
    return reduced, {renamed[p]: least[p] for p in best}
