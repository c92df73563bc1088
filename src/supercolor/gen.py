"""Seeded generators of valid, capacity-bounded instances for property tests.

Strategies:
  laminar          nested/disjoint sets; no intersecting pairs, so the
                   supermodular inequality is vacuous
  closure          random base sets closed under union/intersection, values
                   repaired until supermodular, kept tight against capacity
  rank_complement  g(X) = |X| - rank(X) for a partition-matroid rank; always
                   supermodular and capacity-bounded with no repair
  bipartite        a random multigraph encoded as a function pair

Every generator re-checks its output and the same config always reproduces
the same instance byte for byte.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from .core import (
    GenerationError,
    GroundSet,
    InputError,
    SetFn,
    is_intersecting,
    require_capacity,
    require_valid,
)
from .encode import encode_bipartite
from .matching import BipartiteGraph

STRATEGIES = ("laminar", "closure", "rank_complement", "bipartite")

# relative weights of the default test mix
STRATEGY_MIX = (("closure", 40), ("rank_complement", 30), ("laminar", 20), ("bipartite", 10))

MAX_GEN_ELEMENTS = 10
REPAIR_MAX_PASSES = 200  # sweeps before _repair_supermodular gives up


@dataclass(frozen=True)
class GenConfig:
    seed: int
    n_elements: int
    strategy: str
    base_sets: int = 3
    density: float = 0.55
    family_cap: int = 80
    max_attempts: int = 40

    def __post_init__(self) -> None:
        if self.strategy not in STRATEGIES:
            raise InputError(f"unknown strategy {self.strategy!r}")
        if not 1 <= self.n_elements <= MAX_GEN_ELEMENTS:
            raise InputError(
                f"n_elements must be in [1, {MAX_GEN_ELEMENTS}], got {self.n_elements}"
            )


def _ground(n: int) -> GroundSet:
    return GroundSet(tuple(string.ascii_lowercase[:n]))


# -- laminar ----------------------------------------------------------------

def _laminar_masks(rng: random.Random, n: int, include_p: float) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    out: set[int] = set()

    def rec(lo: int, hi: int) -> None:
        if hi - lo < 1:
            return
        if rng.random() < include_p:
            mask = 0
            for i in order[lo:hi]:
                mask |= 1 << i
            out.add(mask)
        if hi - lo >= 2:
            cut = rng.randint(lo + 1, hi - 1)
            rec(lo, cut)
            rec(cut, hi)

    rec(0, n)
    return sorted(out)


def _laminar_fn(ground: GroundSet, rng: random.Random, cfg: GenConfig) -> SetFn:
    masks = _laminar_masks(rng, ground.size, cfg.density)
    pairs = tuple((m, rng.randint(1, m.bit_count())) for m in masks)
    return SetFn(ground, pairs)


# -- closure ----------------------------------------------------------------

def close_family(base, cap: int | None = None) -> list[int] | None:
    """Close a family of masks under union/intersection of intersecting
    pairs; None once the fixpoint exceeds the cap."""
    masks: set[int] = set(base)
    frontier = list(masks)
    while frontier:
        x = frontier.pop()
        for y in list(masks):
            if is_intersecting(x, y):
                for z in (x | y, x & y):
                    if z not in masks:
                        masks.add(z)
                        frontier.append(z)
        if cap is not None and len(masks) > cap:
            return None
    return sorted(masks)


def _closure_masks(rng: random.Random, n: int, cfg: GenConfig) -> list[int] | None:
    base = set()
    for _ in range(cfg.base_sets):
        size = rng.randint(1, n)
        mask = 0
        for i in rng.sample(range(n), size):
            mask |= 1 << i
        base.add(mask)
    return close_family(base, cfg.family_cap)


def _repair_supermodular(values: dict[int, int], masks: list[int]) -> bool:
    """Raise union values (inside capacity) or lower the smaller operand until
    every intersecting pair satisfies the inequality; False if it oscillates."""
    pairs = [
        (a, b)
        for i, a in enumerate(masks)
        for b in masks[i + 1 :]
        if is_intersecting(a, b)
    ]
    for _ in range(REPAIR_MAX_PASSES):
        dirty = False
        for a, b in pairs:
            need = values[a] + values[b] - values[a | b] - values[a & b]
            if need <= 0:
                continue
            room = (a | b).bit_count() - values[a | b]
            up = min(need, room)
            if up > 0:
                values[a | b] += up
                need -= up
            if need > 0:
                if values[a] <= values[b]:
                    values[a] -= need
                else:
                    values[b] -= need
            dirty = True
        if not dirty:
            return True
    return False


def _closure_fn(ground: GroundSet, rng: random.Random, cfg: GenConfig) -> SetFn:
    for _ in range(cfg.max_attempts):
        masks = _closure_masks(rng, ground.size, cfg)
        if masks is None:
            continue
        values = {m: rng.randint(1, m.bit_count()) for m in masks}
        if not _repair_supermodular(values, masks):
            continue
        return SetFn(ground, tuple(values.items()))
    raise GenerationError(f"closure generation exhausted {cfg.max_attempts} attempts")


# -- rank complement ---------------------------------------------------------

def rank_complement_value(mask: int, blocks: list[int], caps: list[int]) -> int:
    """|X| minus the partition-matroid rank with the given blocks/capacities."""
    rank = sum(min((mask & b).bit_count(), c) for b, c in zip(blocks, caps))
    return mask.bit_count() - rank


def _random_blocks(rng: random.Random, n: int) -> list[int]:
    order = list(range(n))
    rng.shuffle(order)
    blocks = []
    lo = 0
    while lo < n:
        hi = rng.randint(lo + 1, n)
        mask = 0
        for i in order[lo:hi]:
            mask |= 1 << i
        blocks.append(mask)
        lo = hi
    return blocks


def _rank_complement_fn(ground: GroundSet, rng: random.Random, cfg: GenConfig) -> SetFn:
    n = ground.size
    blocks = _random_blocks(rng, n)
    caps = [rng.randint(0, b.bit_count()) for b in blocks]
    for _ in range(cfg.max_attempts):
        masks = _closure_masks(rng, n, cfg)
        if masks is not None:
            pairs = tuple((m, rank_complement_value(m, blocks, caps)) for m in masks)
            return SetFn(ground, pairs)
    raise GenerationError(f"family sampling exhausted {cfg.max_attempts} attempts")


# -- bipartite ---------------------------------------------------------------

def random_multigraph(rng: random.Random, n_edges: int) -> BipartiteGraph:
    ns = rng.randint(1, n_edges)
    nt = rng.randint(1, n_edges)
    s_names = tuple(f"s{i}" for i in range(1, ns + 1))
    t_names = tuple(f"t{i}" for i in range(1, nt + 1))
    pairs = [(rng.choice(s_names), rng.choice(t_names)) for _ in range(n_edges)]
    return BipartiteGraph.from_pairs(s_names, t_names, pairs)


# -- public surface ----------------------------------------------------------

_SINGLE = {
    "laminar": _laminar_fn,
    "closure": _closure_fn,
    "rank_complement": _rank_complement_fn,
}


def _checked(fn: SetFn) -> SetFn:
    require_valid(fn)
    require_capacity(fn)
    return fn


def gen_instance(cfg: GenConfig) -> tuple[SetFn, SetFn]:
    """A pair of valid functions on a shared ground set, per the strategy."""
    rng = random.Random(cfg.seed)
    if cfg.strategy == "bipartite":
        g1, g2 = encode_bipartite(random_multigraph(rng, cfg.n_elements))
    else:
        build = _SINGLE[cfg.strategy]
        ground = _ground(cfg.n_elements)
        g1 = build(ground, rng, cfg)
        g2 = build(ground, rng, cfg)
    return _checked(g1), _checked(g2)


def mixed_configs(seed: int, count: int, n_max: int = 8, n_min: int = 1) -> list[GenConfig]:
    """The default strategy mix, seeded; one config per requested instance."""
    if not 1 <= n_min <= n_max <= MAX_GEN_ELEMENTS:
        raise InputError(f"need 1 <= n_min <= n_max <= {MAX_GEN_ELEMENTS}")
    if count < 0:
        raise InputError("count must be nonnegative")
    rng = random.Random(seed)
    names = [s for s, _ in STRATEGY_MIX]
    weights = [w for _, w in STRATEGY_MIX]
    out = []
    for _ in range(count):
        strategy = rng.choices(names, weights=weights, k=1)[0]
        n = rng.randint(n_min, n_max)
        out.append(GenConfig(seed=rng.randrange(2**32), n_elements=n, strategy=strategy))
    return out

