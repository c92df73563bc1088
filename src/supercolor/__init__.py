"""Exact combinatorial toolkit for supermodular colorings at desk scale."""

from .core import (
    GroundSet,
    InputError,
    Report,
    ResourceLimitError,
    SetFn,
    Violation,
    check_capacity,
    check_intersecting_family,
    check_supermodular,
    delta,
    dump_json,
    instance_payload,
    load_instance,
    parse_instance,
)
from .bunch import (
    bunch_partition,
    d_function,
    effective_family,
    reduce,
)
from .matching import (
    BipartiteGraph,
    Edge,
    TransversalResult,
    closed_matching,
    common_transversal,
)
from .pi import (
    ConditionReport,
    PiPair,
    construct_pi,
    construct_pi_traced,
    dominates,
    schrijver_pi,
    verify_conditions,
)
from .oracle import (
    DEFAULT_CAPS,
    SearchCaps,
    find_k_coloring,
    find_list_coloring,
    min_k,
    verify_main_theorem,
)
from .encode import (
    encode_bipartite,
    load_graph,
    parse_graph,
)
from .gen import (
    GenConfig,
    gen_instance,
    mixed_configs,
    random_multigraph,
)

__version__ = "0.1.0"
