"""Sparse-grid collocation UQ and Newton-Kantorovich certificates for
steady-state power flow.

The package is a plain library plus a batch CLI (``uqflow``); see the module
docstrings for the individual pieces:

- nodes1d: 1D node families, barycentric interpolation, Chebyshev analysis
- sparse_grid: multi-index sets, combination coefficients, surrogates
- moments: tensor Gauss moments under the uniform density
- newton: damped-free Newton (real or complex), Kantorovich certificates
- analyticity: Bernstein-ellipse regions and convergence bounds
- powerflow: AC network model, residual/Jacobian, parametric perturbations
- case_io: case-table parsing, serialization, bundled fixtures
- study: one study solved level by level, with its surrogate cache
- cli: argparse front end

The names most workflows need are re-exported here; rarely-used pieces
(``newton.solve``, ``nodes1d.barycentric_basis``, ...) stay module-qualified.
"""

from .analyticity import (
    BoundConstants,
    ConvergenceBound,
    EllipseRegion,
    PerturbationBounds,
    admissible_region_search,
    bound_constants,
    convergence_bound,
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
    MomentEstimate,
    QuadraturePlan,
    default_orders,
    moment_estimates,
    quadrature_plan,
)
from .newton import (
    KantorovichCertificate,
    NewtonProblem,
    NewtonTrace,
    estimate_jacobian_lipschitz,
    kantorovich_certificate,
    parameter_slopes,
)
from .nodes1d import (
    chebyshev_coefficients,
    clenshaw_curtis_nodes,
    gauss_nodes,
)
from .powerflow import (
    AdmittanceTerm,
    Branch,
    Bus,
    LoadTerm,
    PowerFlowResult,
    PowerNetwork,
    QuantityOfInterest,
    StochasticPerturbation,
    initial_state,
    parametric_problem,
    qoi_sampler,
    solve_power_flow,
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
    "ConvergenceBound",
    "EllipseRegion",
    "GridRule",
    "InfeasibleRegionError",
    "KantorovichCertificate",
    "LoadTerm",
    "MomentEstimate",
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
    "chebyshev_coefficients",
    "clenshaw_curtis_nodes",
    "combination_coefficients",
    "convergence_bound",
    "default_orders",
    "estimate_jacobian_lipschitz",
    "estimate_perturbation_norms",
    "evaluate_on_grid",
    "evaluate_surrogate",
    "gauss_nodes",
    "initial_state",
    "kantorovich_certificate",
    "load_case",
    "moment_estimates",
    "mtilde_bound",
    "parameter_slopes",
    "parametric_problem",
    "parse_matpower",
    "polynomial_space",
    "qoi_sampler",
    "quadrature_plan",
    "serialize_case",
    "solve_power_flow",
    "surrogate_from_json",
    "surrogate_to_json",
    "to_network",
    "__version__",
]
