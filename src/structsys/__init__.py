"""Structural analysis of sparsity-pattern linear systems.

Decide generic diagonalizability, structural functional observability and
structural output controllability from zero/nonzero structure alone, compute
provably minimal sensor and actuator placements for generically
diagonalizable systems, and cross-check every verdict with randomized
numeric and exhaustive oracles at desk scale.
"""

from .combinat import (
    Flow,
    FlowNetwork,
    extremal_weight_max_matching,
    max_matching,
    min_cost_max_flow,
    reachable,
    scc,
)
from .core import (
    Bigraph,
    Digraph,
    Matching,
    Pattern,
    PreconditionError,
    SystemPattern,
    bigraph_pattern,
    dedicated_rows,
    hstack,
    identity_pattern,
    pattern_bigraph,
    stack,
    state_digraph,
    system_digraph,
    unit_row,
)
from .diag import DiagReport, certificate_components, is_generically_diagonalizable, scc_induced_diagonalizable
from .grank import (
    CactusReport,
    Linking,
    cactus_size,
    cycle_cover_max,
    grank,
    input_cactus_size,
    linking_size,
    max_linking,
)
from .oracle import (
    OracleConfig,
    Realization,
    brute_force,
    diagonalizable_majority,
    numeric_diagonalizable,
    numeric_grank,
    numeric_obs_rank,
    numeric_output_controllable,
    numeric_pbh_functional,
    sample_field_realization,
    sample_real_realization,
)
from .placement import (
    ActuatorPlacement,
    SensorPlacement,
    min_actuators_diag,
    min_sensors_diag,
    min_sensors_iterative,
    min_sensors_matching,
)
from .sfo import (
    SfoReport,
    functional_states,
    in_minimal_dilation,
    is_sfo,
    is_sfo_diag,
    sfo_feasible,
    sfo_preserved_under_functional_edge_addition,
)
from .soc import SocReport, input_reachable_restriction, is_soc

__version__ = "0.1.0"

__all__ = [
    "ActuatorPlacement",
    "Bigraph",
    "CactusReport",
    "DiagReport",
    "Digraph",
    "Flow",
    "FlowNetwork",
    "Linking",
    "Matching",
    "OracleConfig",
    "Pattern",
    "PreconditionError",
    "Realization",
    "SensorPlacement",
    "SfoReport",
    "SocReport",
    "SystemPattern",
    "bigraph_pattern",
    "brute_force",
    "cactus_size",
    "certificate_components",
    "cycle_cover_max",
    "dedicated_rows",
    "diagonalizable_majority",
    "extremal_weight_max_matching",
    "functional_states",
    "grank",
    "hstack",
    "identity_pattern",
    "in_minimal_dilation",
    "input_cactus_size",
    "input_reachable_restriction",
    "is_generically_diagonalizable",
    "is_sfo",
    "is_sfo_diag",
    "is_soc",
    "linking_size",
    "max_linking",
    "max_matching",
    "min_actuators_diag",
    "min_cost_max_flow",
    "min_sensors_diag",
    "min_sensors_iterative",
    "min_sensors_matching",
    "numeric_diagonalizable",
    "numeric_grank",
    "numeric_obs_rank",
    "numeric_output_controllable",
    "numeric_pbh_functional",
    "pattern_bigraph",
    "reachable",
    "sample_field_realization",
    "sample_real_realization",
    "scc",
    "scc_induced_diagonalizable",
    "sfo_feasible",
    "sfo_preserved_under_functional_edge_addition",
    "stack",
    "state_digraph",
    "system_digraph",
    "unit_row",
]
