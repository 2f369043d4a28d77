"""Structural analysis of sparsity-pattern linear systems.

Decide generic diagonalizability, structural functional observability and
structural output controllability from zero/nonzero structure alone, compute
provably minimal sensor and actuator placements for generically
diagonalizable systems, and cross-check every verdict with randomized
numeric and exhaustive oracles at desk scale.
"""

from importlib import import_module

from .combinat import reachable, scc
from .core import (
    Matching,
    Pattern,
    PreconditionError,
    SystemPattern,
    dedicated_rows,
    hstack,
    identity_pattern,
    stack,
    unit_row,
)
from .grank import (
    CactusReport,
    Linking,
    cactus_size,
    grank,
    input_cactus_size,
    linking_size,
    max_linking,
)

# Every other export imports its module on first use, so that a program (a
# CLI subcommand, say) compiles only the modules it runs. The grank module is
# imported above because a later first import of it would bind
# ``structsys.grank`` to the module in place of the function.
_LAZY = {
    "DiagReport": "diag",
    "certificate_components": "diag",
    "cycle_cover_max": "diag",
    "is_generically_diagonalizable": "diag",
    "scc_induced_diagonalizable": "diag",
    "OracleConfig": "oracle",
    "Realization": "oracle",
    "brute_force": "oracle",
    "diagonalizable_majority": "oracle",
    "numeric_diagonalizable": "oracle",
    "numeric_grank": "oracle",
    "numeric_obs_rank": "oracle",
    "numeric_output_controllable": "oracle",
    "numeric_pbh_functional": "oracle",
    "sample_field_realization": "oracle",
    "sample_real_realization": "oracle",
    "ActuatorPlacement": "placement",
    "SensorPlacement": "placement",
    "min_actuators_diag": "placement",
    "min_sensors_diag": "placement",
    "min_sensors_iterative": "placement",
    "min_sensors_matching": "placement",
    "SfoReport": "sfo",
    "functional_states": "sfo",
    "in_minimal_dilation": "sfo",
    "is_sfo": "sfo",
    "is_sfo_diag": "sfo",
    "sfo_feasible": "sfo",
    "sfo_preserved_under_functional_edge_addition": "sfo",
    "SocReport": "soc",
    "input_reachable_restriction": "soc",
    "is_soc": "soc",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # the next lookup finds it without this call
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


__version__ = "0.1.0"

__all__ = [
    "ActuatorPlacement",
    "CactusReport",
    "DiagReport",
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
    "brute_force",
    "cactus_size",
    "certificate_components",
    "cycle_cover_max",
    "dedicated_rows",
    "diagonalizable_majority",
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
    "min_actuators_diag",
    "min_sensors_diag",
    "min_sensors_iterative",
    "min_sensors_matching",
    "numeric_diagonalizable",
    "numeric_grank",
    "numeric_obs_rank",
    "numeric_output_controllable",
    "numeric_pbh_functional",
    "reachable",
    "sample_field_realization",
    "sample_real_realization",
    "scc",
    "scc_induced_diagonalizable",
    "sfo_feasible",
    "sfo_preserved_under_functional_edge_addition",
    "stack",
    "unit_row",
]
