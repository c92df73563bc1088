"""Definitions that only the tests use, as lemma checks on masks.

cover_witness, part_of, is_partial_transversal and sample_partial_transversal
state properties of bunch partitions and reductions; is_intersecting tells
crossing sets apart; check_degree_identity, degrees and coloring_is_proper
tie the bipartite encoding to edge coloring; random_lists draws one set of
tight lists.  No package code calls them, so they live here.

The ref_ functions are the references of checked package functions, one
per function, and each calls none of the code it checks:
- ref_require_capacity, for core.require_capacity, scans the entries
  itself; it must not call core.check_capacity;
- ref_dominates, for pi.dominates, counts each set's distinct values in
  full; it must not call pi._short_sets;
- ref_condition_report, for pi.condition_report, reads d off the
  instance's effective entries and (ii) through ref_dominates; it must not
  read the instance's d-lists or call pi.dominates or pi._short_sets;
- ref_min_k, for oracle.min_k, requires capacity by ref_require_capacity
  and runs find_k_coloring from k = 1, each coloring checked by
  ref_dominates; it must not call min_k, core.require_capacity or
  pi.dominates.
"""

import random
from collections import Counter

from supercolor import (
    BipartiteGraph,
    ConditionReport,
    InputError,
    PiPair,
    Report,
    SearchCaps,
    SetFn,
    Violation,
    bunch_partition,
    find_k_coloring,
)
from supercolor.bunch import Instance, checked
from supercolor.core import bit_indices
from supercolor.encode import encode_bipartite
from supercolor.gen import sample

KEEP_PART_P = 0.5  # chance that sample_partial_transversal hits a part


def is_intersecting(a: int, b: int) -> bool:
    """True iff the sets with masks a and b cross: A∩B, A\\B and B\\A are all nonempty."""
    return bool(a & b) and bool(a & ~b) and bool(b & ~a)


def cover_witness(g: SetFn, x: int) -> tuple[int, int]:
    """For a set x of g's family with g(x) >= 2, return (x', part) with x' an
    effective subset of x∩part and g(x') >= g(x), as masks.

    When x itself is effective, x' = x.  Otherwise x' is an inclusion-minimal
    maximizer of g among family sets inside x, ties broken by smallest
    set-as-integer.
    """
    parts = bunch_partition(g)  # the one validity walk
    values = dict(g.entries)
    if x not in values:
        raise InputError(f"set {{{','.join(g.ground.names_of(x))}}} not in the family")
    if values[x] < 2:
        raise InputError(f"cover witness needs g(x) >= 2, got {values[x]}")
    inside = [(m, v) for m, v in g.entries if m & ~x == 0]
    top = max(v for _, v in inside)
    maximizers = [m for m, v in inside if v == top]
    minimal = [
        m for m in maximizers
        if not any(m2 != m and m2 & ~m == 0 for m2 in maximizers)
    ]
    witness = min(minimal)
    part = part_of(parts, witness)
    if witness & ~part:
        raise RuntimeError("cover witness escaped its part (internal bug)")
    return witness, part


def part_of(parts, mask: int) -> int:
    """The part holding the lowest element of mask."""
    return next(p for p in parts if p & mask & -mask)


def is_partial_transversal(parts, k: int) -> bool:
    """True iff every part meets k in at most one element."""
    return all((part & k).bit_count() <= 1 for part in parts)


def sample_partial_transversal(parts, rng: random.Random) -> int:
    """Pick at most one random element from each part, independently."""
    mask = 0
    for part in parts:
        if rng.random() < KEEP_PART_P:
            mask |= 1 << rng.choice(list(bit_indices(part)))
    return mask


def degrees(g: BipartiteGraph) -> tuple[Counter, Counter]:
    """Per s-vertex, then per t-vertex, its number of edges."""
    return Counter(s for s, _, _ in g.edges), Counter(t for _, t, _ in g.edges)


def check_degree_identity(g: BipartiteGraph) -> Report:
    """Per edge st, the encoded per-element bound max{d1(e), d2(e)} must equal
    max{deg(s), deg(t)}."""
    bound = checked(*encode_bipartite(g)).tight_lengths()
    s_deg, t_deg = degrees(g)
    violations = []
    for s, t, eid in g.edges:
        got = bound[eid]
        want = max(s_deg[s], t_deg[t])
        if got != want:
            violations.append(Violation("degree_identity", ((eid,), (s, t)), (got, want)))
    return Report(tuple(violations))


def coloring_is_proper(g: BipartiteGraph, phi) -> bool:
    """True iff no two edges sharing a vertex get the same color."""
    for _, _, eid in g.edges:
        if eid not in phi:
            raise InputError(f"coloring missing edge {eid!r}")
    for pos, vertices in ((0, g.s_vertices), (1, g.t_vertices)):
        for v in vertices:
            colors = [phi[e[2]] for e in g.edges if e[pos] == v]
            if len(set(colors)) != len(colors):
                return False
    return True


def random_lists(
    g1: SetFn, g2: SetFn, sigma_size: int, rng: random.Random
) -> dict[str, tuple[int, ...]]:
    """Per-element lists of the tight length max{d1(u), d2(u)}, drawn in
    ground order from the pool {1..sigma_size}, which must hold the longest,
    each by gen.sample, as oracle.list_trials draws a trial's lists, and
    sorted."""
    colors = range(1, sigma_size + 1)
    lengths = checked(g1, g2).tight_lengths()
    return {
        name: tuple(sorted(sample(rng.getrandbits, colors, need)))
        for name, need in lengths.items()
    }


def ref_require_capacity(g: SetFn) -> None:
    """Raise InputError naming the first set over capacity.  Records nothing."""
    violations = tuple(
        Violation("capacity", (g.ground.names_of(m),), (m.bit_count(), v))
        for m, v in g.entries
        if m.bit_count() < v
    )
    if violations:
        v = violations[0]
        raise InputError(
            f"capacity violated: |{{{','.join(v.subjects[0])}}}| = {v.values[0]} < {v.values[1]}"
        )


def ref_dominates(assignment, g: SetFn) -> Report:
    """Check that every family set sees at least g(X) distinct values,
    counted in full per set."""
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


def ref_condition_report(inst: Instance, pair: PiPair) -> ConditionReport:
    """(i)-(iii) in separate passes: a presence pass, d per element as the
    largest effective value whose set covers it (1 if none), (i) over the
    elements, (ii) per side by ref_dominates, then (iii) per side."""
    names = inst.ground.names
    for name in names:
        if name not in pair.pi1 or name not in pair.pi2:
            raise InputError(f"pair missing element {name!r}")
    ds = [
        [max((v for m, v in eff if m >> i & 1), default=1) for i in range(len(names))]
        for eff in inst.effs
    ]
    pis = [[pi[name] for name in names] for pi in (pair.pi1, pair.pi2)]
    (d1, d2), (p1, p2) = ds, pis
    witnesses = []
    for i, name in enumerate(names):
        bound = max(d1[i], d2[i])
        if p1[i] + p2[i] - 1 > bound:
            witnesses.append(Violation("condition_i", ((name,),), (p1[i], p2[i], bound)))
    before_ii = len(witnesses)
    for side, (pi, g) in enumerate(((pair.pi1, inst.g1), (pair.pi2, inst.g2)), start=1):
        for v in ref_dominates(pi, g).violations:
            witnesses.append(Violation("condition_ii", v.subjects, (side, *v.values)))
    before_iii = len(witnesses)
    for side, (p, d) in enumerate(zip(pis, ds), start=1):
        for i, name in enumerate(names):
            if p[i] > d[i]:
                witnesses.append(Violation("condition_iii", ((name,),), (side, p[i], d[i])))
    return ConditionReport(
        before_ii == 0, before_iii == before_ii, len(witnesses) == before_iii, tuple(witnesses)
    )


def ref_min_k(g1: SetFn, g2: SetFn, caps: SearchCaps = SearchCaps()) -> int:
    """min_k as a search from k = 1: ref_require_capacity on both sides, then
    find_k_coloring per k, each coloring found checked by ref_dominates."""
    ref_require_capacity(g1)
    ref_require_capacity(g2)
    for k in range(1, max(1, g1.ground.size) + 1):
        coloring = find_k_coloring(g1, g2, k, caps)
        if coloring is not None:
            if not (ref_dominates(coloring, g1).ok and ref_dominates(coloring, g2).ok):
                raise AssertionError(f"{k}-coloring {coloring} does not dominate")
            return k
    # an injective coloring with n colors dominates any capacity-valid pair
    raise AssertionError("no coloring up to |U| colors")
