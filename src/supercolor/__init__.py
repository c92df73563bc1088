"""Exact combinatorial toolkit for supermodular colorings at desk scale."""

from .core import (
    ElemSet,
    GenerationError,
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
    is_intersecting,
    load_instance,
    parse_instance,
)
from .bunch import (
    Partition,
    ReductionResult,
    bunch_partition,
    cover_witness,
    d_function,
    effective_family,
    is_partial_transversal,
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
    random_lists,
    verify_main_theorem,
)
from .encode import (
    check_degree_identity,
    coloring_is_proper,
    encode_bipartite,
    load_graph,
    parse_graph,
)
from .gen import (
    GenConfig,
    gen_closure,
    gen_instance,
    gen_laminar,
    gen_rank_complement,
    mixed_configs,
    random_multigraph,
    sample_partial_transversal,
)

__version__ = "0.1.0"
