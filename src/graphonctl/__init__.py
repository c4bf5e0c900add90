"""Spectral representation, approximation and control of graphon network systems."""

import os as _os

__version__ = "0.1.0"


def _cap_threads():
    # GRAPHON_CTL_THREADS caps BLAS parallelism; it must land before numpy
    # initializes its backend, hence before any submodule import below.
    cap = _os.environ.get("GRAPHON_CTL_THREADS")
    if not cap:
        return
    try:
        n = int(cap)
    except ValueError:
        return
    if n < 1:
        return
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ[key] = str(n)


_cap_threads()

from .errors import (  # noqa: E402
    ExactControllabilityError,
    GraphonError,
    IncompatibleOperandsError,
    NumericsError,
    ParseError,
    PartitionMismatchError,
)
from .functions import (  # noqa: E402
    PiecewiseConstantFunction,
    TrigPolynomial,
)
from .graphons import (  # noqa: E402
    SinusoidalGraphon,
    StepGraphon,
    apply,
    exponential,
    l2_norm,
    power,
    subtract,
)
from .spectral import (  # noqa: E402
    FiniteRankKernel,
    SpectralDecomposition,
    SpectralMultiplier,
    bound_for_exponential,
    bound_for_power,
    decompose,
    eigenvalue_convergence_experiment,
    fourier_truncate,
    l2_distance,
    measured_function_discrepancy,
    truncate,
    truncation_error,
)
from .control import (  # noqa: E402
    GraphonSystem,
    Trajectory,
    exact_controllability_check,
    gramian,
    gramian_inverse,
    gramian_quadrature_matrix,
    min_energy_control,
    simulate,
)
from .epidemic import (  # noqa: E402
    EpidemicModel,
    RegulatorParams,
    RiccatiSolution,
    closed_loop_cost,
    linear_costs,
    linear_feedback,
    optimal_control_finite,
    simulate_linearized,
    simulate_nonlinear,
    solve_riccati_finite,
    solve_riccati_graphon,
    stability_threshold,
)
from .netio import (  # noqa: E402
    NetworkDataset,
    SpectralReport,
    parse_edge_list,
    parse_matrix_market,
    sample_graph,
    spectral_report,
    to_step_graphon,
    write_edge_list,
)

__all__ = [
    "__version__",
    "GraphonError",
    "PartitionMismatchError",
    "IncompatibleOperandsError",
    "NumericsError",
    "ExactControllabilityError",
    "ParseError",
    "PiecewiseConstantFunction",
    "TrigPolynomial",
    "StepGraphon",
    "SinusoidalGraphon",
    "apply",
    "power",
    "exponential",
    "subtract",
    "l2_norm",
    "SpectralDecomposition",
    "SpectralMultiplier",
    "FiniteRankKernel",
    "decompose",
    "truncate",
    "truncation_error",
    "l2_distance",
    "fourier_truncate",
    "bound_for_power",
    "bound_for_exponential",
    "measured_function_discrepancy",
    "eigenvalue_convergence_experiment",
    "GraphonSystem",
    "Trajectory",
    "simulate",
    "gramian",
    "gramian_inverse",
    "gramian_quadrature_matrix",
    "exact_controllability_check",
    "min_energy_control",
    "EpidemicModel",
    "RegulatorParams",
    "RiccatiSolution",
    "stability_threshold",
    "solve_riccati_finite",
    "solve_riccati_graphon",
    "optimal_control_finite",
    "linear_feedback",
    "simulate_linearized",
    "simulate_nonlinear",
    "closed_loop_cost",
    "linear_costs",
    "NetworkDataset",
    "SpectralReport",
    "parse_edge_list",
    "parse_matrix_market",
    "to_step_graphon",
    "sample_graph",
    "write_edge_list",
    "spectral_report",
]
