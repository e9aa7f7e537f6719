"""Quantum-graph vertex couplings.

Represents the boundary condition A Psi + B Psi' = 0 of a degree-n vertex,
converts among its canonical descriptions (ST, reverse ST, PQRS, unitary,
projector), evaluates the vertex scattering matrix S(k) along five
independent routes together with its k -> 0 and k -> infinity limits and
momentum expansions, counts coupling parameters per rank pair, and builds
uniform-block spectral branching filters.
"""

from . import errors
from .coupling import (
    UnitaryForm,
    VertexCoupling,
    from_unitary,
    to_unitary,
    validate,
)
from .filters import (
    FIG1_PARAMS,
    FIG2_PARAMS,
    PRESETS,
    AmplitudeLimits,
    FilterParams,
    SweepTable,
    amplitude_limits,
    classify_branching,
    probability_sweep,
    uniform_block_pqrs,
)
from .forms import (
    PQRSForm,
    ProjectorForm,
    ReverseSTForm,
    STForm,
    delta_parameters,
    parameter_count,
    pqrs_to_matrices,
    projector_to_matrices,
    reverse_st_to_matrices,
    st_to_matrices,
    subfamily_count,
    to_pqrs_form,
    to_projector_form,
    to_reverse_st_form,
    to_st_form,
)
from .sampling import admissible_rank_pairs, haar_unitary, random_coupling
from .scattering import (
    SeriesExpansion,
    SMatrix,
    bc_residual,
    expand,
    limit_high_k,
    limit_low_k,
    smatrix_direct,
    smatrix_pqrs,
    smatrix_projector,
    smatrix_reverse_st,
    smatrix_st,
)

__version__ = "0.1.0"

__all__ = [
    "AmplitudeLimits",
    "FIG1_PARAMS",
    "FIG2_PARAMS",
    "FilterParams",
    "PQRSForm",
    "PRESETS",
    "ProjectorForm",
    "ReverseSTForm",
    "SMatrix",
    "STForm",
    "SeriesExpansion",
    "SweepTable",
    "UnitaryForm",
    "VertexCoupling",
    "admissible_rank_pairs",
    "amplitude_limits",
    "bc_residual",
    "classify_branching",
    "delta_parameters",
    "errors",
    "expand",
    "from_unitary",
    "haar_unitary",
    "limit_high_k",
    "limit_low_k",
    "parameter_count",
    "pqrs_to_matrices",
    "probability_sweep",
    "projector_to_matrices",
    "random_coupling",
    "reverse_st_to_matrices",
    "smatrix_direct",
    "smatrix_pqrs",
    "smatrix_projector",
    "smatrix_reverse_st",
    "smatrix_st",
    "st_to_matrices",
    "subfamily_count",
    "to_pqrs_form",
    "to_projector_form",
    "to_reverse_st_form",
    "to_st_form",
    "to_unitary",
    "uniform_block_pqrs",
    "validate",
]
