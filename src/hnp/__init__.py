"""Non-uniform random hypergraphs: the H(n, p) model, strong/weak
subhypergraph search and appearance thresholds, 2-section clique
origination, and clustering coefficients."""

from .core import (
    Graph,
    Hypergraph,
    induced_strong,
    induced_weak,
    profiles,
    remove_isolated,
    truncate,
    two_section,
)
from .errors import BudgetError, CliqueCapError, GuardError, InputError
from .io import ParsedEdgeList, read_edge_list, write_edge_list
from .isomorphism import (
    Embedding,
    automorphism_count,
    canonical_form,
    enumerate_strong_subgraphs,
    find_strong_copies,
    find_weak_copies,
    is_isomorphic,
)
from .model import (
    ProbSequence,
    covering_probability,
    covering_weight,
    expected_covering_edges,
    from_edge_counts,
    sample,
)
from .thresholds import (
    ContainmentVerdict,
    classify_induced_weak,
    classify_strong,
    classify_two_section,
    classify_weak,
    covering_weight_exponent,
    is_subedge_system,
    minimal_two_section_covers,
    pad_amount,
    padded_pattern,
    strong_exponent,
    weak_exponent,
)
from .signatures import (
    OriginationTable,
    enumerate_feasible,
    labelled_total,
    labelled_weight,
    origination_distribution,
    rank_signatures,
    signature_weights,
)
from .census import (
    CensusReport,
    census,
    list_k_cliques,
    observed_signature,
)
from .clustering import (
    clustering_report,
    extra_overlap,
    graph_cc,
    hc_global,
    hc_local,
    intersecting_pairs,
)

__version__ = "0.1.0"
