"""Construction and verification of the auxiliary index pair (pi1, pi2).

A pair of functions pi1, pi2: U -> N certifies list-colorability when
(i)  pi1(u) + pi2(u) - 1 <= max{d1(u), d2(u)} for every element,
(ii) each pi_i dominates g_i, i.e. every family set sees at least g_i(X)
     distinct values, and
(iii) pi_i(u) <= d_i(u) pointwise.

construct_pi builds such a pair by recursion on the ground set: peel off a
common partial transversal K of the two bunch partitions, reduce both
effective families by K, solve the smaller instance, then extend.  On the
side whose matched parts drove the matching, K-elements take value 1 and
elements of K-hit parts are shifted up by one; on the other side, K-elements
take their full per-element bound.  The alternative schrijver_pi splits one
dominating coloring into complementary halves; it meets (i) only against the
global color count, not the pointwise bound.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    InputError,
    Report,
    SetFn,
    Violation,
    bit_indices,
    delta,
    require_capacity,
    require_valid,
)
from .bunch import d_function, d_values, effective_entries, part_masks, reduce_entries
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
    violations = []
    for x, bound in g.items():
        got = len({assignment[name] for name in x.names})
        if got < bound:
            violations.append(Violation("domination", (x.names,), (got, bound)))
    return Report(tuple(violations))


def _construct(ground, live: int, effs: list, trace: list | None) -> tuple[dict, dict]:
    # effs: both sides' effective (mask, value) lists, inside the live mask
    if live & (live - 1) == 0:
        ones = {name: 1 for name in ground.names_of(live)}
        return ones, dict(ones)

    parts = [part_masks(eff, live) for eff in effs]
    k, case = transversal_mask(*parts)
    if trace is not None:
        names = ground.names_of
        trace.append({"universe": list(names(live)), "k": list(names(k)), "case": case})
    reduced = [[(p, hv[0]) for p, hv in reduce_entries(eff, k).items()] for eff in effs]
    subs = _construct(ground, live & ~k, [effective_entries(r) for r in reduced], trace)

    lead, follow = (0, 1) if case == "a" else (1, 0)
    hit = sum(part for part in parts[lead] if part & k)  # parts are disjoint
    follow_d = d_values(effs[follow], ground, k)
    pis = ({}, {})
    for i in bit_indices(live):
        name = ground.names[i]
        if (k >> i) & 1:
            pis[lead][name] = 1
            pis[follow][name] = follow_d[name]
        else:
            pis[lead][name] = subs[lead][name] + ((hit >> i) & 1)
            pis[follow][name] = subs[follow][name]
    return pis


def construct_pi(g1: SetFn, g2: SetFn, check: bool = __debug__) -> PiPair:
    """Build a pair satisfying (i)-(iii) for two valid capacity-bounded
    functions on a shared ground set."""
    pair, _ = construct_pi_traced(g1, g2, check=check, want_trace=False)
    return pair


def construct_pi_traced(
    g1: SetFn, g2: SetFn, check: bool = __debug__, want_trace: bool = True
) -> tuple[PiPair, list]:
    """As construct_pi, but also return the per-level (universe, K, case) log."""
    if g1.ground != g2.ground:
        raise InputError("functions live on different ground sets")
    for g in (g1, g2):
        require_valid(g)
        require_capacity(g)
    trace: list | None = [] if want_trace else None
    effs = [effective_entries(g.entries) for g in (g1, g2)]
    pi1, pi2 = _construct(g1.ground, g1.ground.full_mask, effs, trace)
    pair = PiPair(pi1, pi2)
    if check:
        report = verify_conditions(g1, g2, pair)
        if not report.all_ok:
            raise RuntimeError(
                f"constructed pair violates its contract (internal bug): {report.to_dict()}"
            )
    return pair, trace if trace is not None else []


def verify_conditions(g1: SetFn, g2: SetFn, pair: PiPair) -> ConditionReport:
    """Evaluate (i), (ii), (iii) exactly and list every witness of failure."""
    if g1.ground != g2.ground:
        raise InputError("functions live on different ground sets")
    ground = g1.ground
    for name in ground.names:
        if name not in pair.pi1 or name not in pair.pi2:
            raise InputError(f"pair missing element {name!r}")
    d1 = d_function(g1)
    d2 = d_function(g2)
    witnesses = []

    i_ok = True
    for name in ground.names:
        bound = max(d1[name], d2[name])
        if pair.pi1[name] + pair.pi2[name] - 1 > bound:
            i_ok = False
            witnesses.append(
                Violation("condition_i", ((name,),), (pair.pi1[name], pair.pi2[name], bound))
            )

    ii_ok = True
    for side, (pi, g) in enumerate(((pair.pi1, g1), (pair.pi2, g2)), start=1):
        rep = dominates(pi, g)
        if not rep.ok:
            ii_ok = False
            for v in rep.violations:
                witnesses.append(Violation("condition_ii", v.subjects, (side, *v.values)))

    iii_ok = True
    for side, (pi, d) in enumerate(((pair.pi1, d1), (pair.pi2, d2)), start=1):
        for name in ground.names:
            if pi[name] > d[name]:
                iii_ok = False
                witnesses.append(
                    Violation("condition_iii", ((name,),), (side, pi[name], d[name]))
                )
    return ConditionReport(i_ok, ii_ok, iii_ok, tuple(witnesses))


def schrijver_pi(
    g1: SetFn, g2: SetFn, caps: oracle.SearchCaps = oracle.DEFAULT_CAPS
) -> PiPair:
    """Split one dominating coloring with k = delta(g1, g2) colors into the
    pair (pi, k+1-pi).  Satisfies (i) with the constant bound k and (ii), but
    not the pointwise bound (iii) in general."""
    for g in (g1, g2):
        require_valid(g)
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
