"""Dense-k-subgraph toolkit: exact baselines, flow / LP / combinatorial
approximation algorithms, reductions between the problem variants, and a
worst-case approximation-ratio analyzer."""

from .damks import (
    DistanceLayers,
    a6_damks,
    build_damks_lp,
    distance_layers,
    gamma_ladder,
    lp_pairs,
    min_degree_core,
    round_batch,
)
from .exact import (
    DEFAULT_ENUMERATION_CAP,
    EnumerationCapError,
    ProblemKind,
    brute_quasi_density,
    exact_solve,
    walk_count_matrix,
)
from .flow import dalks_2approx, max_flow, max_quasi_density
from .fkp import (
    ALGO_NAMES,
    FkpParams,
    WalkLayers,
    a1_matching,
    a2_top_degrees,
    a3_neighborhoods,
    a4_edge_dense,
    a5_walks,
    build_walk_layers,
    combined_dks,
)
from .graph import (
    Graph,
    GraphParseError,
    SubgraphResult,
    average_degree_fraction,
    better_than,
    cut_size,
    gnp_graph,
    graph_from_edges,
    induced_stats,
    induced_subgraph,
    pad_lowest_id,
    pad_most_neighbors,
    parse_edge_list,
    pick_best,
    remove_top_degrees,
    serialize_edge_list,
    top_degree_vertices,
    top_half_degree_stats,
)
from .ratio import (
    A6_COMBO,
    FKP5,
    ExponentPoint,
    GridResult,
    error_bound,
    grid_max_min,
    ratio_exponent,
)
from .reduction import (
    DamksSolverHandle,
    DriverIteration,
    DriverRun,
    SolverContractError,
    dalks_gadget,
    dks_via_damks,
    fixing_trim,
    oracle_damks_handle,
    run_damks_driver,
)
from .simplex import (
    LinearProgram,
    LpNumericalError,
    LpSolution,
    solve_lp,
)

__version__ = "0.1.0"
