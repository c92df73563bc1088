"""Encoding bipartite multigraphs as pairs of set functions on the edge set.

Each vertex contributes its incident edge set with value equal to its degree;
the two sides give two functions whose simultaneous domination is exactly a
proper edge coloring.  Per-vertex families are pairwise disjoint, so the
encoded functions are trivially valid.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .core import GroundSet, InputError, Report, SetFn, Violation
from .bunch import d_function


@dataclass(frozen=True, eq=False)
class Multigraph:
    """Bipartite multigraph; edges are (s, t, edge_id) with distinct ids."""

    s_vertices: tuple[str, ...]
    t_vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "s_vertices", tuple(self.s_vertices))
        object.__setattr__(self, "t_vertices", tuple(self.t_vertices))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        if len(set(self.s_vertices)) != len(self.s_vertices):
            raise InputError("duplicate S-vertex names")
        if len(set(self.t_vertices)) != len(self.t_vertices):
            raise InputError("duplicate T-vertex names")
        s_set, t_set = set(self.s_vertices), set(self.t_vertices)
        ids = set()
        for s, t, eid in self.edges:
            if s not in s_set:
                raise InputError(f"edge endpoint {s!r} not an S-vertex")
            if t not in t_set:
                raise InputError(f"edge endpoint {t!r} not a T-vertex")
            if eid in ids:
                raise InputError(f"duplicate edge id {eid!r}")
            ids.add(eid)

    @classmethod
    def from_pairs(
        cls,
        s_vertices,
        t_vertices,
        pairs,
    ) -> "Multigraph":
        """Build from (s, t) pairs, assigning stable ids "s~t~i" with i the
        0-based index among parallel copies of the same pair."""
        seen: dict[tuple[str, str], int] = {}
        edges = []
        for s, t in pairs:
            i = seen.get((s, t), 0)
            seen[(s, t)] = i + 1
            edges.append((s, t, f"{s}~{t}~{i}"))
        return cls(tuple(s_vertices), tuple(t_vertices), tuple(edges))

    def edge_ids(self) -> tuple[str, ...]:
        return tuple(eid for _, _, eid in self.edges)

    def degree(self, vertex: str, side: str) -> int:
        pos = 0 if side == "s" else 1
        return sum(1 for e in self.edges if e[pos] == vertex)


def parse_graph(text: str) -> Multigraph:
    """Read {"S": [...], "T": [...], "edges": [["s","t"], ...]}."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise InputError("graph file must be a JSON object")
    for key in ("S", "T", "edges"):
        if not isinstance(doc.get(key), list):
            raise InputError(f'"{key}" must be a list')
    pairs = []
    for e in doc["edges"]:
        if not isinstance(e, list) or len(e) != 2:
            raise InputError("each edge must be a [s, t] pair")
        pairs.append((e[0], e[1]))
    for name in (*doc["S"], *doc["T"], *(v for pair in pairs for v in pair)):
        if isinstance(name, (list, dict)):
            raise InputError(f"vertex names must be JSON scalars, got {name!r}")
    return Multigraph.from_pairs(doc["S"], doc["T"], pairs)


def load_graph(path) -> Multigraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None
    return parse_graph(text)


def encode_bipartite(g: Multigraph) -> tuple[SetFn, SetFn]:
    """Ground set = edge ids; one entry per non-isolated vertex, mapping its
    incident edges to its degree."""
    if not g.edges:
        raise InputError("graph has no edges")
    if len(g.edges) > 64:
        raise InputError(f"at most 64 edges supported, got {len(g.edges)}")
    ground = GroundSet(g.edge_ids())
    sides = []
    for pos, vertices in ((0, g.s_vertices), (1, g.t_vertices)):
        pairs = []
        for v in vertices:
            mask = 0
            for i, e in enumerate(g.edges):
                if e[pos] == v:
                    mask |= 1 << i
            if mask:  # isolated vertices contribute nothing
                pairs.append((mask, mask.bit_count()))
        sides.append(SetFn(ground, tuple(pairs)))
    return sides[0], sides[1]


def check_degree_identity(g: Multigraph) -> Report:
    """Per edge st, the encoded per-element bound max{d1(e), d2(e)} must equal
    max{deg(s), deg(t)}."""
    g1, g2 = encode_bipartite(g)
    d1 = d_function(g1)
    d2 = d_function(g2)
    s_deg = {v: g.degree(v, "s") for v in g.s_vertices}
    t_deg = {v: g.degree(v, "t") for v in g.t_vertices}
    violations = []
    for s, t, eid in g.edges:
        got = max(d1[eid], d2[eid])
        want = max(s_deg[s], t_deg[t])
        if got != want:
            violations.append(Violation("degree_identity", ((eid,), (s, t)), (got, want)))
    return Report(tuple(violations))


def coloring_is_proper(g: Multigraph, phi) -> bool:
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
