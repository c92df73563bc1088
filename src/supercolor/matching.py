"""Bipartite multigraphs, closed matchings, and common partial transversals
of two bunch partitions.

A closed matching is a nonempty matching M such that every edge leaving a
matched S-vertex ends at a matched T-vertex.  It always exists when
|S| >= |T| and S has no isolated vertex: take an inclusion-minimal nonempty
V ⊆ S with |Γ(V)| <= |V| (then |Γ(V)| = |V| and Hall's condition holds
strictly below V) and match V onto Γ(V).  closed_pairs finds V by a pruned
search of at most SCAN_NODE_BUDGET nodes and checks the matching on adjacency
masks; closed_matching maps its index pairs to a graph's edges.

transversal_mask builds the part-versus-part adjacency masks with plain loops
over the two partitions, hands them to closed_pairs, and returns with K the
hit mask: the union of the matched lead parts, which are the K-hit ones.  It
checks the case condition from the matched parts of both sides.  construct_pi
calls it only on the levels its singleton step does not settle (see
pi.build); that step finds closed_pairs' first tight set when it has one
element, so common_transversal, which always calls it, gets the same K.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, NamedTuple

from .core import InputError, ResourceLimitError, SetFn, bit_indices, require_same_ground
from .bunch import bunch_partition

SCAN_NODE_BUDGET = 1 << 22


class Edge(NamedTuple):
    s: Hashable
    t: Hashable
    id: Hashable


@dataclass(frozen=True, eq=False)
class BipartiteGraph:
    """Bipartite multigraph; edges are (s, t, id) with distinct ids, so
    parallel edges stay apart."""

    s_vertices: tuple
    t_vertices: tuple
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_vertices", tuple(self.s_vertices))
        object.__setattr__(self, "t_vertices", tuple(self.t_vertices))
        object.__setattr__(self, "edges", tuple(Edge(*e) for e in self.edges))
        s_set = _distinct(self.s_vertices, "S")
        t_set = _distinct(self.t_vertices, "T")
        ids = set()
        for e in self.edges:
            if e.s not in s_set:
                raise InputError(f"edge references unknown S-vertex {e.s!r}")
            if e.t not in t_set:
                raise InputError(f"edge references unknown T-vertex {e.t!r}")
            if e.id in ids:
                raise InputError(f"duplicate edge id {e.id!r}")
            ids.add(e.id)

    @classmethod
    def from_pairs(cls, s_vertices, t_vertices, pairs) -> "BipartiteGraph":
        """Build from (s, t) pairs, assigning stable ids "s~t~i" with i the
        0-based index among earlier edges with the same "s~t" text.  The text
        after the last "~" is all digits, so the ids are distinct even when
        distinct pairs print alike ("a~b", "c" and "a", "b~c"; 1 and "1")."""
        seen: dict[str, int] = {}
        edges = []
        for s, t in pairs:
            key = f"{s}~{t}"
            i = seen.get(key, 0)
            seen[key] = i + 1
            edges.append((s, t, f"{key}~{i}"))
        return cls(tuple(s_vertices), tuple(t_vertices), tuple(edges))

    def edge_ids(self) -> tuple:
        return tuple(e.id for e in self.edges)


def _distinct(vertices: tuple, side: str) -> set:
    """The set of vertices; the first repeated one (Python takes 1, 1.0 and
    True as one id) is an input error that names it."""
    seen = set()
    for v in vertices:
        if v in seen:
            raise InputError(f"duplicate {side}-vertex id {v!r}")
        seen.add(v)
    return seen


def closed_pairs(adj: list[int], nt: int, s_names) -> list[tuple[int, int]]:
    """Sorted (S-index, T-index) pairs of a closed matching, from the S-side
    adjacency masks over T-indices 0..nt-1; s_names names S-vertices in
    errors.

    The minimal tight set V is the (size, set-as-integer)-first V ⊆ S with
    |Γ(V)| <= |V|: inclusion-minimal, with |Γ(V)| = |V|, matched by Hall.  A
    depth-first search picks V's top element in ascending order, then the
    rest below it alike: integer (colex) order.  It skips S-vertices of degree
    above the size and drops a prefix once |Γ(prefix)| exceeds it (Γ grows).
    """
    ns = len(adj)
    if ns < nt:
        raise InputError(f"closed matching needs |S| >= |T|, got {ns} < {nt}")
    if ns == 0:
        raise InputError("closed matching needs a nonempty S side")
    for i, m in enumerate(adj):
        if m == 0:
            raise InputError(f"isolated S-vertex {s_names[i]!r}")

    nodes = 0

    def first_tight(size: int, cand: list[int]):
        # the integer-first `size` of cand that keep |Γ| <= size, and Γ; else None.
        # picks[d] is the position taken at depth d, in range(size - 1 - d, picks[d - 1]);
        # gammas[d] is Γ of picks[:d].  An explicit stack, so any size fits.
        nonlocal nodes
        picks: list[int] = []
        gammas = [0]
        p = size - 1
        while True:
            if p >= (picks[-1] if picks else len(cand)):
                if not picks:
                    return None
                p = picks.pop() + 1
                gammas.pop()
                continue
            g = gammas[-1] | adj[cand[p]]  # one node
            if (nodes := nodes + 1) > SCAN_NODE_BUDGET:
                raise ResourceLimitError(
                    f"tight-set search over |S| = {ns} exceeds {SCAN_NODE_BUDGET} nodes")
            if g.bit_count() > size:
                p += 1
            elif len(picks) + 1 < size:
                picks.append(p)
                gammas.append(g)
                p = size - 1 - len(picks)
            else:
                return sum(1 << cand[q] for q in (*picks, p)), g

    for size in range(1, ns + 1):
        cand = [i for i, m in enumerate(adj) if m.bit_count() <= size]
        if tight := first_tight(size, cand):
            break
    else:  # impossible: V = S is tight because |Γ(S)| <= |T| <= |S|
        raise RuntimeError("no tight subset found (internal bug)")
    vmask, gamma = tight
    if gamma.bit_count() != vmask.bit_count():
        raise RuntimeError("minimal tight set is not tight (internal bug)")

    # perfect matching of V onto Γ(V) by augmenting paths, canonical order;
    # path holds the (S, T) steps taken from the root, so any length fits
    match_t: dict[int, int] = {}
    for root in bit_indices(vmask):
        si = root
        seen = 0  # T-vertices visited from this root, as a mask
        path: list[tuple[int, int]] = []
        while True:
            if rest := adj[si] & gamma & ~seen:
                low = rest & -rest
                seen |= low
                ti = low.bit_length() - 1
                if ti in match_t:
                    path.append((si, ti))
                    si = match_t[ti]
                    continue
                match_t[ti] = si
                for s_step, t_step in reversed(path):
                    match_t[t_step] = s_step
                break
            if not path:
                raise RuntimeError("Hall condition failed on the tight set (internal bug)")
            si = path.pop()[0]

    matched_t = sum(1 << ti for ti in match_t)
    if any(adj[si] & ~matched_t for si in match_t.values()):
        raise RuntimeError("matching is not closed (internal bug)")
    return sorted((si, ti) for ti, si in match_t.items())


def closed_matching(g: BipartiteGraph) -> tuple[Edge, ...]:
    """A closed matching of g (see closed_pairs): for each matched pair, in
    S-vertex order, the first edge of g between the two."""
    s_pos = {v: i for i, v in enumerate(g.s_vertices)}
    t_pos = {v: i for i, v in enumerate(g.t_vertices)}
    adj = [0] * len(s_pos)
    first: dict[tuple[int, int], Edge] = {}
    for e in g.edges:
        si, ti = s_pos[e.s], t_pos[e.t]
        adj[si] |= 1 << ti
        first.setdefault((si, ti), e)
    return tuple(first[pair] for pair in closed_pairs(adj, len(t_pos), g.s_vertices))


@dataclass(frozen=True, eq=False)
class TransversalResult:
    k: tuple[str, ...]  # the names of K's elements, in ground order
    case_tag: str  # "a": matched side 1 implies matched side 2; "b": converse


def transversal_mask(parts1: list[int], parts2: list[int]) -> tuple[int, str, int]:
    """Nonempty common partial transversal of two partitions of one mask, as
    a mask, with its case tag and the union of the lead parts it hits.

    Takes a closed matching of the part-versus-part graph, one edge per
    element, with the larger side as S; each matched pair of parts gives
    its least common element.  Each matched part holds exactly one element
    of K, so the matched lead parts are the K-hit ones.
    """
    case = "a" if len(parts1) >= len(parts2) else "b"
    lead, follow = (parts1, parts2) if case == "a" else (parts2, parts1)
    adj = []
    for part in lead:
        a = 0
        bit = 1
        for f in follow:
            if f & part:
                a |= bit
            bit <<= 1
        adj.append(a)
    k = hit = hit_follow = 0
    for s, t in closed_pairs(adj, len(follow), range(len(lead))):
        common = lead[s] & follow[t]
        k |= common & -common
        hit |= lead[s]
        hit_follow |= follow[t]
    # every element of a K-hit lead part must lie in a K-hit follow part
    if hit & ~hit_follow:
        raise RuntimeError("transversal case condition failed (internal bug)")
    return k, case, hit


def common_transversal(g1: SetFn, g2: SetFn) -> TransversalResult:
    """Nonempty common partial transversal of both bunch partitions."""
    require_same_ground(g1, g2)
    if g1.ground.size == 0:
        raise InputError("common transversal needs a nonempty ground set")
    k, case, _ = transversal_mask(*(bunch_partition(g) for g in (g1, g2)))
    return TransversalResult(g1.ground.names_of(k), case)
