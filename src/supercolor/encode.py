"""Encoding bipartite multigraphs as pairs of set functions on the edge set.

Each vertex contributes its incident edge set with value equal to its degree;
the two sides give two functions whose simultaneous domination is exactly a
proper edge coloring.  Per-vertex families are pairwise disjoint, so the
encoded functions are trivially valid.
"""

from __future__ import annotations

from .core import GroundSet, InputError, SetFn, decode_json, read_text
from .matching import BipartiteGraph


def parse_graph(text: str) -> BipartiteGraph:
    """Read {"S": [...], "T": [...], "edges": [["s","t"], ...]}."""
    doc = decode_json(text)
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
    return BipartiteGraph.from_pairs(doc["S"], doc["T"], pairs)


def load_graph(path) -> BipartiteGraph:
    return parse_graph(read_text(path))


def encode_bipartite(g: BipartiteGraph) -> tuple[SetFn, SetFn]:
    """Ground set = edge ids; one entry per non-isolated vertex, mapping its
    incident edges to its degree."""
    if not g.edges:
        raise InputError("graph has no edges")
    ground = GroundSet(g.edge_ids())
    sides = []
    for pos, vertices in ((0, g.s_vertices), (1, g.t_vertices)):
        masks = dict.fromkeys(vertices, 0)
        for i, e in enumerate(g.edges):
            masks[e[pos]] |= 1 << i
        # isolated vertices contribute nothing
        sides.append(SetFn(ground, tuple((m, m.bit_count()) for m in masks.values() if m)))
    return sides[0], sides[1]

