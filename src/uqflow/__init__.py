"""Sparse-grid collocation UQ and Newton-Kantorovich certificates for
steady-state power flow.

The package is a plain library plus a batch CLI (``uqflow``); see the module
docstrings for the individual pieces:

- nodes1d: 1D node families, barycentric interpolation, Chebyshev analysis
- sparse_grid: multi-index sets, combination coefficients, surrogates
- moments: density-weighted quadrature moments and a Monte Carlo oracle
- newton: damped-free Newton, Kantorovich certificates, complexified solves
- analyticity: Bernstein-ellipse regions and convergence bounds
- powerflow: AC network model, residual/Jacobian, parametric perturbations
- case_io: case-table parsing, serialization, bundled fixtures
- cli: argparse front end

The names most workflows need are re-exported here; rarely-used pieces
(``newton.solve``, ``moments.expectation``, ...) stay module-qualified.
"""

from .analyticity import (
    BoundConstants,
    ConvergenceBound,
    EllipseRegion,
    PerturbationBounds,
    admissible_region_search,
    bound_constants,
    convergence_bound,
    ellipse_contains,
    estimate_perturbation_norms,
    mtilde_bound,
)
from .case_io import (
    CaseFile,
    bundled_case,
    bundled_case_names,
    load_case,
    parse_matpower,
    serialize_case,
    to_network,
)
from .errors import (
    BoundUnavailableError,
    CacheMismatchError,
    CaseFormatError,
    CaseValidationError,
    InfeasibleRegionError,
    NonconvergenceError,
    NonphysicalStateError,
    SingularJacobianError,
    UqflowError,
)
from .moments import (
    DensityModel,
    MomentEstimate,
    MonteCarloEstimate,
    QuadraturePlan,
    default_orders,
    moment_estimates,
    monte_carlo_oracle,
    quadrature_plan,
    uniform_model,
)
from .newton import (
    ComplexNewtonTrace,
    KantorovichCertificate,
    NewtonProblem,
    NewtonTrace,
    cauchy_riemann_residual,
    estimate_jacobian_lipschitz,
    kantorovich_certificate,
    solve_complexified,
)
from .nodes1d import (
    chebyshev_coefficients,
    clenshaw_curtis_nodes,
    gauss_nodes,
    interpolate_1d,
    level_to_count,
    uniform_density,
)
from .powerflow import (
    AdmittanceTerm,
    Branch,
    Bus,
    LoadTerm,
    PowerFlowResult,
    PowerNetwork,
    QuantityOfInterest,
    StateVector,
    StochasticPerturbation,
    initial_state,
    parametric_problem,
    qoi_sampler,
    quantity_of_interest,
    solve_power_flow,
    solve_power_flow_complexified,
)
from .sparse_grid import (
    GridRule,
    SparseGridPlan,
    Surrogate,
    TensorTerm,
    admissible_indices,
    build_plan,
    build_surrogate,
    combination_coefficients,
    evaluate_on_grid,
    evaluate_surrogate,
    polynomial_space,
    surrogate_from_json,
    surrogate_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "AdmittanceTerm",
    "BoundConstants",
    "BoundUnavailableError",
    "Branch",
    "Bus",
    "CacheMismatchError",
    "CaseFile",
    "CaseFormatError",
    "CaseValidationError",
    "ComplexNewtonTrace",
    "ConvergenceBound",
    "DensityModel",
    "EllipseRegion",
    "GridRule",
    "InfeasibleRegionError",
    "KantorovichCertificate",
    "LoadTerm",
    "MomentEstimate",
    "MonteCarloEstimate",
    "NewtonProblem",
    "NewtonTrace",
    "NonconvergenceError",
    "NonphysicalStateError",
    "PerturbationBounds",
    "PowerFlowResult",
    "PowerNetwork",
    "QuadraturePlan",
    "QuantityOfInterest",
    "SingularJacobianError",
    "SparseGridPlan",
    "StateVector",
    "StochasticPerturbation",
    "Surrogate",
    "TensorTerm",
    "UqflowError",
    "admissible_indices",
    "admissible_region_search",
    "bound_constants",
    "build_plan",
    "build_surrogate",
    "bundled_case",
    "bundled_case_names",
    "cauchy_riemann_residual",
    "chebyshev_coefficients",
    "clenshaw_curtis_nodes",
    "combination_coefficients",
    "convergence_bound",
    "default_orders",
    "ellipse_contains",
    "estimate_jacobian_lipschitz",
    "estimate_perturbation_norms",
    "evaluate_on_grid",
    "evaluate_surrogate",
    "gauss_nodes",
    "initial_state",
    "interpolate_1d",
    "kantorovich_certificate",
    "level_to_count",
    "load_case",
    "moment_estimates",
    "monte_carlo_oracle",
    "mtilde_bound",
    "parametric_problem",
    "parse_matpower",
    "polynomial_space",
    "qoi_sampler",
    "quadrature_plan",
    "quantity_of_interest",
    "serialize_case",
    "solve_complexified",
    "solve_power_flow",
    "solve_power_flow_complexified",
    "surrogate_from_json",
    "surrogate_to_json",
    "to_network",
    "uniform_model",
    "__version__",
]
