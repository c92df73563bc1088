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

The draws of gen_instance and random_multigraph, and the list draws of
sample, call only rng.getrandbits (and rng.random, for the laminar
strategy): each site makes, draw for draw, the draws of the Random method it
stands for (randint, shuffle, sample, choice), so for random.Random and
SystemRandom it gives what those methods give and leaves the generator in
the same state, without their per-call cost.  sample is the one replay of
Random.sample, pick for pick: gen's base sets and oracle's tight lists both
draw through it.  The replays follow CPython's Random internals (_randbelow
and sample's set size), and the tests pin them against the running
interpreter's Random.  mixed_configs calls Random's own methods (choices,
randint, randrange): it is not timed, and its stream fixes every config.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from itertools import islice
from math import ceil, log

from .core import (
    GroundSet,
    InputError,
    ResourceLimitError,
    SetFn,
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


# -- draws ------------------------------------------------------------------
# Random._randbelow(n) draws n.bit_length() bits until the value is below n;
# randint(a, b) is a + _randbelow(b - a + 1), choice(seq) is
# seq[_randbelow(len(seq))], and shuffle and sample draw through _randbelow.

def _below(getrandbits, n: int) -> int:
    """rng._randbelow(n) for n >= 1, given rng.getrandbits."""
    width = n.bit_length()
    r = getrandbits(width)
    while r >= n:
        r = getrandbits(width)
    return r


def _shuffled(getrandbits, n: int) -> list[int]:
    """order = list(range(n)); rng.shuffle(order); order."""
    order = list(range(n))
    for i in range(n - 1, 0, -1):
        j = _below(getrandbits, i + 1)
        order[i], order[j] = order[j], order[i]
    return order


def sample(getrandbits, population: range, k: int) -> list[int]:
    """rng.sample(population, k) for 0 <= k <= len(population), given
    rng.getrandbits: the same picks in the same order, leaving rng in the
    same state.  It takes sample's branch: up to sample's set size, a pool
    whose last live element fills each pick's place; above it, set
    selection, which redraws repeats.  Each pick inlines _below.  Any other
    k is refused with sample's message, before any draw."""
    n = len(population)
    if not 0 <= k <= n:
        raise InputError("Sample larger than population or is negative")
    setsize = 21
    if k > 5:
        setsize += 4 ** ceil(log(k * 3, 4))
    picked = []
    if n <= setsize:
        pool = list(population)
        for live in range(n, n - k, -1):
            width = live.bit_length()
            j = getrandbits(width)
            while j >= live:
                j = getrandbits(width)
            picked.append(pool[j])
            pool[j] = pool[live - 1]
    else:
        width = n.bit_length()
        selected: set[int] = set()
        for _ in range(k):
            j = getrandbits(width)
            while j >= n or j in selected:
                j = getrandbits(width)
            selected.add(j)
            picked.append(population[j])
    return picked


# -- laminar ----------------------------------------------------------------

def _laminar_masks(rng: random.Random, n: int, include_p: float) -> list[int]:
    getrandbits = rng.getrandbits
    order = _shuffled(getrandbits, n)
    out: set[int] = set()
    stack = [(0, n)]  # hi > lo: n >= 1 and every cut splits
    while stack:  # depth first, left half first, as the draws are made
        lo, hi = stack.pop()
        if rng.random() < include_p:
            mask = 0
            for i in order[lo:hi]:
                mask |= 1 << i
            out.add(mask)
        if hi - lo >= 2:
            cut = lo + 1 + _below(getrandbits, hi - lo - 1)
            stack.append((cut, hi))
            stack.append((lo, cut))
    return sorted(out)


def _laminar_fn(ground: GroundSet, rng: random.Random, cfg: GenConfig) -> SetFn:
    masks = _laminar_masks(rng, ground.size, cfg.density)
    getrandbits = rng.getrandbits
    pairs = tuple((m, 1 + _below(getrandbits, m.bit_count())) for m in masks)
    return SetFn(ground, pairs)


# -- closure ----------------------------------------------------------------

def close_family(base, cap: int | None = None) -> list[int] | None:
    """Close a family of masks under union/intersection of intersecting
    pairs; None once the fixpoint exceeds the cap."""
    seen: set[int] = set(base)
    family = list(seen)  # grows; each mask meets every mask before it once
    for i, x in enumerate(family):
        # the last mask adds none, so the last check sees the closure's size
        if cap is not None and len(family) > cap:
            return None
        for y in islice(family, i):
            meet = x & y
            if meet and meet != x and meet != y:  # x and y cross
                for z in (x | y, meet):
                    if z not in seen:
                        seen.add(z)
                        family.append(z)
    family.sort()
    return family


def _closure_masks(rng: random.Random, n: int, cfg: GenConfig) -> list[int] | None:
    getrandbits = rng.getrandbits
    base = set()
    for _ in range(cfg.base_sets):
        size = 1 + _below(getrandbits, n)
        mask = 0
        for i in sample(getrandbits, range(n), size):
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
        if (meet := a & b) and meet != a and meet != b  # a and b cross
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
        getrandbits = rng.getrandbits
        values = {m: 1 + _below(getrandbits, m.bit_count()) for m in masks}
        if not _repair_supermodular(values, masks):
            continue
        return SetFn(ground, tuple(values.items()))
    raise ResourceLimitError(f"closure generation exhausted {cfg.max_attempts} attempts")


# -- rank complement ---------------------------------------------------------

def rank_complement_value(mask: int, blocks: list[int], caps: list[int]) -> int:
    """|X| minus the partition-matroid rank with the given blocks/capacities."""
    rank = sum(min((mask & b).bit_count(), c) for b, c in zip(blocks, caps))
    return mask.bit_count() - rank


def _random_blocks(rng: random.Random, n: int) -> list[int]:
    getrandbits = rng.getrandbits
    order = _shuffled(getrandbits, n)
    blocks = []
    lo = 0
    while lo < n:
        hi = lo + 1 + _below(getrandbits, n - lo)
        mask = 0
        for i in order[lo:hi]:
            mask |= 1 << i
        blocks.append(mask)
        lo = hi
    return blocks


def _rank_complement_fn(ground: GroundSet, rng: random.Random, cfg: GenConfig) -> SetFn:
    n = ground.size
    blocks = _random_blocks(rng, n)
    getrandbits = rng.getrandbits
    caps = [_below(getrandbits, b.bit_count() + 1) for b in blocks]
    for _ in range(cfg.max_attempts):
        masks = _closure_masks(rng, n, cfg)
        if masks is not None:
            pairs = tuple((m, rank_complement_value(m, blocks, caps)) for m in masks)
            return SetFn(ground, pairs)
    raise ResourceLimitError(f"family sampling exhausted {cfg.max_attempts} attempts")


# -- bipartite ---------------------------------------------------------------

def random_multigraph(rng: random.Random, n_edges: int) -> BipartiteGraph:
    """n_edges >= 1 edges between 1..n_edges S- and T-vertices, each end
    drawn uniformly."""
    if n_edges < 1:
        raise InputError(f"need n_edges >= 1, got {n_edges}")
    getrandbits = rng.getrandbits
    ns = 1 + _below(getrandbits, n_edges)
    nt = 1 + _below(getrandbits, n_edges)
    s_names = tuple(f"s{i}" for i in range(1, ns + 1))
    t_names = tuple(f"t{i}" for i in range(1, nt + 1))
    pairs = [
        (s_names[_below(getrandbits, ns)], t_names[_below(getrandbits, nt)])
        for _ in range(n_edges)
    ]
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

