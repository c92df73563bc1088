"""Construction and verification of the auxiliary index pair (pi1, pi2).

A pair of functions pi1, pi2: U -> N certifies list-colorability when
(i)  pi1(u) + pi2(u) - 1 <= max{d1(u), d2(u)} for every element,
(ii) each pi_i dominates g_i, i.e. every family set sees at least g_i(X)
     distinct values, and
(iii) pi_i(u) <= d_i(u) pointwise.

construct_pi builds such a pair in one forward loop over the ground set: peel
off a common partial transversal K of the two bunch partitions, reduce both
effective families by K, and repeat on the smaller instance.  Every effective
set lies inside one bunch part and K meets a part in at most one element, so
the reduction acts on each part alone: a level re-derives only the parts that
K hits and carries every other part over unchanged.  A hit part whose one
effective set is the part itself, as every part of a bipartite encoding is,
is reduced in place, with no call of the bunch helpers.  Most levels find K by
the singleton step, one lookup per lead part in the follow side's
element-to-part index; only the others build a part graph.  Values start at
1 and only grow: on the side whose matched parts drove the matching, the
other elements of K-hit parts go up by one; on the other side, each K-element
goes up by its per-element bound minus one.  A K-element leaves the live
mask, so its value is final once it is peeled.  The alternative schrijver_pi
splits one dominating coloring into complementary halves; it meets (i) only
against the global color count, not the pointwise bound.

build, condition_report and schrijver_pi take a checked pair, a
bunch.Instance; the first two read its effective entries and d-lists, and
build and schrijver_pi also require capacity.  construct_pi and
verify_conditions check the pair with bunch.checked and call them.
core.require_valid and require_capacity record a pass on the function, so
verify_conditions after construct_pi walks nothing.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass

from .core import (
    GroundSet,
    InputError,
    Report,
    SetFn,
    Violation,
    delta,
    require_capacity,
)
from .bunch import Instance, checked, effective_entries, part_masks, reduce_entries
from .matching import transversal_mask
from . import oracle


@dataclass(frozen=True, eq=False)
class PiPair:
    pi1: dict[str, int]
    pi2: dict[str, int]

    def __post_init__(self) -> None:
        for pi in (self.pi1, self.pi2):
            for name, v in pi.items():
                if v < 1:
                    raise InputError(f"pi({name!r}) = {v} must be >= 1")


@dataclass(frozen=True, eq=False)
class ConditionReport:
    i_ok: bool
    ii_ok: bool
    iii_ok: bool
    witnesses: tuple[Violation, ...]

    @property
    def all_ok(self) -> bool:
        return self.i_ok and self.ii_ok and self.iii_ok

    def to_dict(self) -> dict:
        return {
            "i_ok": self.i_ok,
            "ii_ok": self.ii_ok,
            "iii_ok": self.iii_ok,
            "witnesses": [v.to_dict() for v in self.witnesses],
        }


def dominates(assignment, g: SetFn) -> Report:
    """Check that every family set sees at least g(X) distinct values."""
    for name in g.ground.names:
        if name not in assignment:
            raise InputError(f"assignment missing element {name!r}")
    colors = [assignment[name] for name in g.ground.names]
    return Report(tuple(
        Violation("domination", (g.ground.names_of(m),), (got, bound))
        for m, got, bound in _short_sets(colors, g.entries)
    ))


def _short_sets(colors: list, entries) -> list[tuple[int, int, int]]:
    """(mask, values seen, bound) of each (mask, bound) entry whose set sees
    fewer than bound distinct colors (indexed by element), in entry order: a
    set sees one value per class mask it meets, counted up to the bound."""
    classes: dict = {}
    bit = 1
    for c in colors:
        classes[c] = classes.get(c, 0) | bit
        bit <<= 1
    masks = list(classes.values())
    short = []
    for m, bound in entries:
        if bound > 0:  # no set sees fewer than 0 values
            got = 0
            for cls in masks:
                if cls & m:
                    got += 1
                    if got == bound:
                        break
            else:
                short.append((m, got, bound))
    return short


def build(inst: Instance, check: bool = True) -> tuple[PiPair, list[tuple]]:
    """Peel levels in one forward loop that raises both sides' values on
    element indices as it goes, once both functions pass require_capacity.
    One record per level: (live, K, case, hit), hit the K-hit lead parts;
    with check, the pair must also meet (i)-(iii).

    Each side keeps its sorted bunch parts, each part's effective entries and
    each element's part, and a level re-derives only the parts K hits, from
    their own entries.  That is exact: every effective set lies in one part, a
    part meets K at most once, and capacity keeps every projection nonempty,
    so no merge in reduce_entries or subset test in effective_entries crosses
    two parts.  A hit part whose only entry is (part, v) skips that chain
    (_shrink): as a maximal effective set it holds nothing else, so the
    reduction leaves the one set (part - K, v - 1), a part of its own while
    v - 1 >= 2 and otherwise singletons.

    Singleton step: both sides partition live and no part is empty, so
    closed_pairs' first tight set is V = {s} for the first lead part s inside
    the follow part holding its lowest bit, found through the follow side's
    index; K is that bit and the hit mask is the part.  Only when no lead
    part qualifies does the level build the part graph (transversal_mask)."""
    for g in (inst.g1, inst.g2):
        require_capacity(g)
    ground = inst.ground
    pis = ([1] * ground.size, [1] * ground.size)
    # per side: sorted parts, entries by part, owner masks by element (see _split)
    sides = [([], {}, [ground.full_mask] * ground.size) for _ in inst.effs]
    for eff, state in zip(inst.effs, sides):
        _split(eff, ground.full_mask, *state)
    live, levels = ground.full_mask, []
    while live & (live - 1):  # at most one element left: its value is final
        case = "a" if len(sides[0][0]) >= len(sides[1][0]) else "b"
        lead, follow = (0, 1) if case == "a" else (1, 0)
        follow_owner = sides[follow][2]  # a part lies in live: stale bits are moot
        for hit in sides[lead][0]:
            k = hit & -hit
            if not hit & ~follow_owner[k.bit_length() - 1]:
                break
        else:
            k, _, hit = transversal_mask(sides[0][0], sides[1][0])
        if not k:  # an empty part: live would never shrink
            raise RuntimeError("level peeled no element (internal bug)")
        rest = hit & ~k
        while rest:
            low = rest & -rest
            pis[lead][low.bit_length() - 1] += 1
            rest ^= low
        levels.append((live, k, case, hit))
        for side, (parts, inside, owner) in enumerate(sides):
            rest = k
            while rest:
                low = rest & -rest
                rest ^= low
                i = low.bit_length() - 1
                part = owner[i] & live
                del parts[bisect_left(parts, part)]
                eff = inside.pop(part)
                if side == follow:  # i's bound: the largest value of a set holding it
                    bound = 1
                    for m, v in eff:
                        if m & low and v > bound:
                            bound = v
                    pis[follow][i] += bound - 1
                left = part & ~k
                if len(eff) == 1 and eff[0][0] == part:  # the part is its one set
                    _shrink(left, eff[0][1] - 1, parts, inside, owner)
                elif left:
                    reduced = reduce_entries(eff, k).items()
                    _split(effective_entries(reduced), left, parts, inside, owner)
        live &= ~k
    pair = PiPair(*(dict(zip(ground.names, pi)) for pi in pis))
    if check:
        report = condition_report(inst, pair)
        if not report.all_ok:
            raise RuntimeError(
                f"constructed pair violates its contract (internal bug): {report.to_dict()}"
            )
    return pair, levels


def _split(eff, live: int, parts: list, inside: dict, owner: list) -> None:
    """Insort the bunch parts of live into parts and file each effective
    entry in inside under its part.  owner[i] & live is i's part: a part only
    loses K-elements until it splits, so owner changes only on a split."""
    new = part_masks(eff, live)
    if len(new) == 1:  # one part holds every entry
        insort(parts, live)
        inside[live] = eff
        return
    for part in new:
        insort(parts, part)
        inside[part] = []
        rest = part
        while rest:
            low = rest & -rest
            owner[low.bit_length() - 1] = part
            rest ^= low
    for e in eff:
        inside[owner[(e[0] & -e[0]).bit_length() - 1] & live].append(e)


def _shrink(left: int, v: int, parts: list, inside: dict, owner: list) -> None:
    """File left, a hit part without its K-element whose one effective set was
    the part itself, as _split does the reduced set (left, v): one part with
    that set while v >= 2, else singletons with no entries, and owner changes
    only when that splits left.  Capacity keeps left nonempty."""
    if v >= 2 or not left & (left - 1):
        insort(parts, left)
        inside[left] = [(left, v)] if v >= 2 else []
        return
    while left:
        low = left & -left
        left ^= low
        insort(parts, low)
        inside[low] = []
        owner[low.bit_length() - 1] = low


def construct_pi(g1: SetFn, g2: SetFn, check: bool = True) -> PiPair:
    """Build a pair satisfying (i)-(iii) for two valid capacity-bounded
    functions on a shared ground set."""
    return build(checked(g1, g2), check)[0]


def construct_pi_traced(g1: SetFn, g2: SetFn, check: bool = True) -> tuple[PiPair, list]:
    """As construct_pi, but also return the per-level (universe, K, case) log."""
    inst = checked(g1, g2)
    pair, levels = build(inst, check)
    return pair, level_log(inst.ground, levels)


def level_log(ground: GroundSet, levels: list[tuple]) -> list[dict]:
    """build's level records, without hit, with their masks as names."""
    names = ground.names_of
    return [
        {"universe": list(names(live)), "k": list(names(k)), "case": case}
        for live, k, case, _ in levels
    ]


def verify_conditions(g1: SetFn, g2: SetFn, pair: PiPair) -> ConditionReport:
    """Evaluate (i), (ii), (iii) exactly and list every witness of failure."""
    return condition_report(checked(g1, g2), pair)


def condition_report(inst: Instance, pair: PiPair) -> ConditionReport:
    """(i)-(iii) on the instance's d-lists for a pair defined on its whole
    ground set, on lists indexed by element."""
    ground = inst.ground
    names = ground.names
    for name in names:
        if name not in pair.pi1 or name not in pair.pi2:
            raise InputError(f"pair missing element {name!r}")
    pis = [[pi[name] for name in names] for pi in (pair.pi1, pair.pi2)]
    (d1, d2), (p1, p2) = inst.ds, pis
    witnesses = []

    for i, name in enumerate(names):
        bound = d1[i] if d1[i] > d2[i] else d2[i]
        if p1[i] + p2[i] - 1 > bound:
            witnesses.append(Violation("condition_i", ((name,),), (p1[i], p2[i], bound)))
    before_ii = len(witnesses)

    for side, (p, g) in enumerate(zip(pis, (inst.g1, inst.g2)), start=1):
        for m, got, bound in _short_sets(p, g.entries):
            witnesses.append(Violation("condition_ii", (ground.names_of(m),), (side, got, bound)))
    before_iii = len(witnesses)

    for side, (p, d) in enumerate(zip(pis, inst.ds), start=1):
        for i, name in enumerate(names):
            if p[i] > d[i]:
                witnesses.append(Violation("condition_iii", ((name,),), (side, p[i], d[i])))
    return ConditionReport(
        before_ii == 0, before_iii == before_ii, len(witnesses) == before_iii, tuple(witnesses)
    )


def schrijver_pi(inst: Instance, caps: oracle.SearchCaps = oracle.DEFAULT_CAPS) -> PiPair:
    """Split one dominating coloring with k = delta(g1, g2) colors into the
    pair (pi, k+1-pi), once both functions pass require_capacity.  Satisfies
    (i) with the constant bound k and (ii), but not the pointwise bound
    (iii) in general."""
    g1, g2 = inst.g1, inst.g2
    for g in (g1, g2):
        require_capacity(g)
    k = delta(g1, g2)
    coloring = oracle.find_k_coloring(g1, g2, k, caps)
    if coloring is None:
        raise RuntimeError(
            f"no dominating {k}-coloring found for a valid instance (internal bug)"
        )
    pi1 = {name: int(c) for name, c in coloring.items()}
    pi2 = {name: k + 1 - v for name, v in pi1.items()}
    return PiPair(pi1, pi2)
