"""Brute-force ground truth: k-colorings, list colorings, the minimum color
count, and randomized whole-theorem verification at desk scale.

There is one search, _search(domains, index), on one domain per element, the
mask of the colors it may take.  A k-coloring is the list coloring whose
lists all equal {1..k}, so k_coloring gives every element the mask of
1..min(k, n), and a list search the mask of its own list.  The search decides
the rest for itself.  One pigeonhole rule refuses it before any element is
placed: some constraint's bound exceeds min(|X|, the distinct colors its
elements' domains hold).  It assigns elements in ground order and cuts a
branch as soon as some constrained set can no longer reach its required
number of distinct colors, even if every remaining element contributed a
fresh one.  The bound is exact on fully assigned sets, so a completed
assignment needs no final recheck; the pruning never discards a satisfiable
branch, hence the first assignment found is the canonically smallest one.
The search also skips colorings that take a color every domain holds before
a lower such color is used; the canonically smallest one is never among them.

In every color mask a color c >= 1 is the bit 1 << c.  The search's
state is one color mask per constraint: the colors of the members placed so
far.  Since elements are placed in ground order, the members still to come
after element i are fixed, so the test at i is static: the constraint index
(constraint_index, built once per instance) holds, per element, each
constraint's need, bound minus the members after i, and the element's color
passes when every such mask, with its bit added, has at least need bits.  Only
needs above 1 are kept, since one color always meets them.  A placed element
saves the masks it feeds and backtracking restores them; a rejected color
changes nothing.  Both list searches number the distinct colors from 1, so
a mask is as wide as the colors in play, not as the largest color value (a
trial's colors come from a pool 1..sigma_size of any size).
find_list_coloring sorts them (by equality, so 1 and 1.0 are one), so every
element tries its colors in one order and the coloring found is canonical.
list_trials numbers them in order of first draw, as it draws: a trial asks
only whether a coloring exists, which no numbering changes.

k_coloring and list_trials search on the index, which needs no validity, so
cli.batch_verify builds it once per instance for both of its searches.  The
functions on (g1, g2) check what they rely on, then search: min_k capacity
(it alone steps k upward), verify_main_theorem validity (bunch.checked) and
capacity, and find_k_coloring and find_list_coloring only a shared ground set
and their k or lists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import chain
from typing import Hashable, Mapping, NamedTuple, Sequence

from .core import (
    InputError,
    Report,
    ResourceLimitError,
    SetFn,
    Violation,
    bit_indices,
    delta,
    require_capacity,
    require_same_ground,
)
from .bunch import checked
from .gen import sample


@dataclass(frozen=True)
class SearchCaps:
    k_search_elements: int = 10
    list_budget: int = 10_000_000


DEFAULT_CAPS = SearchCaps()

Coloring = dict[str, Hashable]


class ConstraintIndex(NamedTuple):
    """The search's view of an instance (see constraint_index)."""

    names: tuple[str, ...]
    members: list[list[int]]  # per constraint, its elements
    bounds: list[int]
    checks: list[list[tuple[int, int]]]  # per element, its (constraint, need) pairs
    feeds: list[list[int]]  # per element, the constraints with members after it


def constraint_index(g1: SetFn, g2: SetFn) -> ConstraintIndex:
    """The search's constraint index of two functions on one ground set.
    It keeps each constraint that one color cannot meet: bound >= 2, or
    bound >= 1 on the empty set, also when the bound exceeds the set's size.
    Per constraint: its elements and bound.  Per element i: its checks, each
    a (constraint, need) pair where need = bound - (members after i) > 1, and
    the constraints with members after i, whose color masks i feeds.  It does
    not depend on the domains, so one index serves every search on the
    instance.  It needs no validity, only the entries."""
    require_same_ground(g1, g2)
    names = g1.ground.names
    checks: list[list[tuple[int, int]]] = [[] for _ in names]
    feeds: list[list[int]] = [[] for _ in names]
    members = []
    bounds = []
    for g in (g1, g2):
        for mask, bound in g.entries:
            if bound < 2 and (mask or bound < 1):
                continue
            ci = len(bounds)
            elems = list(bit_indices(mask))
            members.append(elems)
            bounds.append(bound)
            for after, i in enumerate(reversed(elems)):
                if after:
                    feeds[i].append(ci)
                if bound - after > 1:
                    checks[i].append((ci, bound - after))
    return ConstraintIndex(names, members, bounds, checks, feeds)


def _refused(index: ConstraintIndex, domains: Sequence[int]) -> bool:
    """The pigeonhole test, _search's only one before it places an element:
    True when some constraint's bound exceeds min(|X|, the colors its
    elements' domains hold).  No assignment meets such a bound."""
    for elems, bound in zip(index.members, index.bounds):
        if bound > len(elems):
            return True
        m = 0
        for i in elems:
            m |= domains[i]
        if m.bit_count() < bound:
            return True
    return False


def _search(domains: Sequence[int], index: ConstraintIndex) -> Coloring | None:
    """First dominating assignment in canonical order, or None.  domains[i]
    is element i's color mask, the color c >= 1 being the bit 1 << c (list
    colors are numbered by find_list_coloring and list_trials), and element
    i tries its untried colors lowest first.

    First it refuses by the pigeonhole rule, _refused, on the domains.  The
    colors every domain holds are interchangeable: of them, element i tries
    only those used before it and the lowest one not yet used; it tries its
    other colors freely.  The canonical first coloring survives: were its
    first element to break the rule given color c while a lower common
    color a is unused, swapping a and c everywhere would keep every element
    in its domain and every set's count of distinct colors, and would
    lower the coloring, the elements before it being unchanged."""
    names, _, bounds, checks, feeds = index
    n = len(names)
    if _refused(index, domains):
        return None
    masks = [0] * len(bounds)  # per constraint, the colors of its placed members
    saved: list = [None] * n  # per placed element, the masks it feeds as they were before it
    assignment = [0] * n  # per placed element, its color bit

    # depth-first on an explicit stack, so any number of elements fits:
    # untried[i] holds element i's untried colors, allowed[i] the colors it
    # may take: every color outside common, the colors all domains hold, and
    # of common those used before it and the next one
    common = -1
    for dom in domains:
        common &= dom
    untried = [0] * n
    allowed = [0] * (n + 1)
    allowed[0] = ~common | (common & -common)
    i, descending = 0, True
    while i >= 0:
        if descending:
            if i == n:
                return {name: bit.bit_length() - 1 for name, bit in zip(names, assignment)}
            untried[i] = domains[i] & allowed[i]
            descending = False
        options = untried[i]
        while options:
            bit = options & -options
            options ^= bit
            for ci, need in checks[i]:
                if (masks[ci] | bit).bit_count() < need:
                    break
            else:
                untried[i] = options
                assignment[i] = bit
                fed = feeds[i]
                saved[i] = [masks[ci] for ci in fed]
                for ci in fed:
                    masks[ci] |= bit
                # a common color unlocks the next common color above it
                above = common & -((bit & common) << 1)
                allowed[i + 1] = allowed[i] | (above & -above)
                i, descending = i + 1, True
                break
        else:
            i -= 1
            if i >= 0:
                for ci, m in zip(feeds[i], saved[i]):
                    masks[ci] = m
    return None


def k_coloring(
    index: ConstraintIndex, k: int, caps: SearchCaps = DEFAULT_CAPS
) -> Coloring | None:
    """find_k_coloring on the instance's index: the search with every
    element's domain the mask of 1..min(k, n)."""
    if k < 1:
        raise InputError(f"need k >= 1, got {k}")
    n = len(index.names)
    if n > caps.k_search_elements:
        raise ResourceLimitError(
            f"k-coloring search capped at {caps.k_search_elements} elements, got {n}"
        )
    return _search([(2 << min(k, n)) - 2] * n, index)


def find_k_coloring(
    g1: SetFn, g2: SetFn, k: int, caps: SearchCaps = DEFAULT_CAPS
) -> Coloring | None:
    """First assignment U -> {1..k} (in canonical order) dominating both
    functions, or None after exhausting the search space: the list coloring
    whose lists all equal {1..k}, which the one search refuses by pigeonhole
    and whose color symmetry it breaks.  Only colors up to |U| are tried,
    since renumbering colors in order of first use keeps a coloring
    dominating and never makes it larger (see _search)."""
    return k_coloring(constraint_index(g1, g2), k, caps)


def min_k(g1: SetFn, g2: SetFn, caps: SearchCaps = DEFAULT_CAPS) -> int:
    """Smallest k admitting a dominating k-coloring, by increasing search
    from k = delta(g1, g2): a set of value delta must see delta distinct
    colors, so every smaller k is infeasible by pigeonhole."""
    index = constraint_index(g1, g2)  # a ground-set mismatch before capacity
    require_capacity(g1)
    require_capacity(g2)
    k = delta(g1, g2)
    while k_coloring(index, k, caps) is None:
        if k >= len(index.names):
            # an injective coloring with n colors dominates any capacity-valid pair
            raise RuntimeError("no coloring up to |U| colors (internal bug)")
        k += 1
    return k


def _require_budget(names: Sequence[str], sizes: Sequence[int], caps: SearchCaps) -> None:
    """Refuse lists of these sizes, one per element in ground order, whose
    product exceeds the list budget."""
    budget = 1
    for at, size in enumerate(sizes):
        budget *= size
        if budget > caps.list_budget:
            raise ResourceLimitError(
                f"list search budget {caps.list_budget} exceeded: product {budget}"
                f" at element {names[at]!r} ({at + 1} of {len(names)})"
            )


def _require_known(names: Sequence[str], per_element: Mapping) -> None:
    """Given an entry for every name, refuse an entry for any other name."""
    if len(per_element) > len(names):
        unknown = next(name for name in per_element if name not in names)
        raise InputError(f"unknown element {unknown!r}")


def find_list_coloring(
    g1: SetFn,
    g2: SetFn,
    lists: Mapping[str, Sequence],
    caps: SearchCaps = DEFAULT_CAPS,
) -> Coloring | None:
    """Dominating coloring drawing each element's color from its own list,
    or None when the exhaustive search proves there is none.  Lists are
    checked before the search, after the shared ground set: every element
    needs a nonempty list and no other name may have one, then the list
    budget must admit their distinct colors.

    The colors of all lists, equal values being one color (1 and 1.0), are
    sorted once, each by (type name, value) of its first appearance in
    ground order, and numbered from 1, so every element tries its colors in
    one order.  Each element's color is the first object of that color in
    its own list."""
    index = constraint_index(g1, g2)
    names = index.names
    for name in names:
        if name not in lists:
            raise InputError(f"no color list for element {name!r}")
        if not lists[name]:
            raise InputError(f"empty color list for element {name!r}")
    _require_known(names, lists)
    domains = [set(lists[name]) for name in names]
    _require_budget(names, [len(dom) for dom in domains], caps)
    order = sorted(dict.fromkeys(chain.from_iterable(domains)), key=lambda c: (type(c).__name__, c))
    bit = {c: 2 << at for at, c in enumerate(order)}
    found = _search([sum(map(bit.__getitem__, dom)) for dom in domains], index)
    if found is None:
        return None
    return {name: next(c for c in lists[name] if bit[c] == 1 << found[name]) for name in names}


def verify_main_theorem(
    g1: SetFn,
    g2: SetFn,
    trials: int,
    sigma_size: int | None = None,
    seed: int = 0,
    caps: SearchCaps = DEFAULT_CAPS,
) -> Report:
    """Run repeated random tight-list instances and demand a coloring each
    time.  A failure witnesses an implementation bug and is reported with the
    lists that triggered it."""
    lengths = checked(g1, g2).tight_lengths()
    require_capacity(g1)
    require_capacity(g2)
    if sigma_size is None:
        sigma_size = delta(g1, g2) + 2
    return list_trials(constraint_index(g1, g2), lengths, trials, sigma_size, seed, caps)


def list_trials(
    index: ConstraintIndex,
    lengths: Mapping[str, int],
    trials: int,
    sigma_size: int,
    seed: int,
    caps: SearchCaps = DEFAULT_CAPS,
) -> Report:
    """Color trials lists of the given lengths, drawn from {1..sigma_size}
    by a generator seeded with seed, on the instance's index; each list
    that does not color is a violation that carries the lists.

    lengths holds an int >= 1 for each element of the index and for nothing
    else.  With trials > 0, a pool smaller than some length, then lists over
    the list budget, are refused once, before any draw.  Each trial draws
    the lists in the order of lengths, each by gen.sample, and numbers
    their colors from 1 in order of first draw; it only asks whether a
    coloring exists."""
    if trials < 0:
        raise InputError("trials must be nonnegative")
    names = index.names
    for name in names:
        if name not in lengths:
            raise InputError(f"no list length for element {name!r}")
        need = lengths[name]
        if not isinstance(need, int) or isinstance(need, bool) or need < 1:
            raise InputError(
                f"list length of element {name!r} must be an int >= 1, got {need!r}"
            )
    _require_known(names, lengths)
    if trials == 0:
        return Report(())
    for need in lengths.values():
        if sigma_size < need:
            raise InputError(f"color pool of {sigma_size} too small for list length {need}")
    _require_budget(names, [lengths[name] for name in names], caps)
    getrandbits = random.Random(seed).getrandbits
    colors = range(1, sigma_size + 1)
    violations = []
    for trial in range(trials):
        bit: dict[int, int] = {}  # per color drawn, its bit
        lists = {}
        masks = {}
        for name, need in lengths.items():
            lists[name] = picks = sample(getrandbits, colors, need)
            mask = 0
            for c in picks:
                mask |= bit.setdefault(c, 2 << len(bit))
            masks[name] = mask
        if _search([masks[name] for name in names], index) is None:
            subjects = tuple((name, *map(str, sorted(lists[name]))) for name in names)
            violations.append(Violation("list_coloring_missing", subjects, (trial,)))
    return Report(tuple(violations))
