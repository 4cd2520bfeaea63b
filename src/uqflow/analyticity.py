"""Analyticity-region estimation and interpolation error-rate bounds.

A parametric residual that extends analytically to a complex polyellipse
around the parameter box admits provable sparse-grid convergence rates.
This module estimates how far the parameters can be pushed into the complex
plane before the Newton linearization degrades (via Taylor-remainder
perturbation bounds on the complexified system, read off one affine model
of the problem in its parameters that each region search takes once),
packages the resulting polyellipse, and evaluates the closed-form decay
bounds that the ellipse size implies for Clenshaw-Curtis sparse grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import BoundUnavailableError, InfeasibleRegionError
from .newton import NewtonProblem, ParameterSlopes, _lu_with_pivot_check, parameter_slopes

__all__ = [
    "EllipseRegion",
    "PerturbationBounds",
    "BoundConstants",
    "ConvergenceBound",
    "ellipse_contains",
    "estimate_perturbation_norms",
    "admissible_region_search",
    "bound_constants",
    "convergence_bound",
    "mtilde_bound",
]

#: Largest relative gap between the problem at g and its affine model.
_AFFINE_TOL = 1e-10

#: Bisection of the region search stops once its bracket is this narrow, relative.
_BISECTION_REL_TOL = 1e-3

#: Relative agreement below which the 1/|1 - C1| factor is considered unusable.
_C1_DEGENERACY_TOL = 1e-9


@dataclass(frozen=True)
class EllipseRegion:
    """Axis-aligned polyellipse with foci +-1 in every parameter coordinate.

    ``sigma_hat[n]`` is the logarithmic radius of coordinate ``n``: the
    ellipse crosses the real axis at ``cosh(sigma_hat[n])`` and the imaginary
    axis at ``sinh(sigma_hat[n])``.  ``sigma_hat = 0`` degenerates to the
    real interval [-1, 1] itself.
    """

    sigma_hat: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.sigma_hat) == 0:
            raise ValueError("region needs at least one dimension")
        for s in self.sigma_hat:
            if not (math.isfinite(s) and s >= 0.0):
                raise ValueError(f"sigma_hat entries must be finite and >= 0, got {s}")

    @property
    def n_dims(self) -> int:
        return len(self.sigma_hat)


def _elliptic_radius(z: complex) -> float:
    """Log-magnitude of the inverse Joukowski image of z (largest branch).

    Maps the ellipse through z (foci +-1) to its logarithmic radius: 0 on
    [-1, 1] itself, growing as z recedes from the interval.
    """
    z = complex(z)
    s = np.sqrt(z * z - 1.0)
    return math.log(max(abs(z + s), abs(z - s)))


def ellipse_contains(region: EllipseRegion, g: Sequence[complex]) -> bool:
    """True iff every coordinate of g lies inside (or on) its ellipse.

    Boundary membership is accepted with a 1e-12 relative slack so that
    points constructed exactly on the boundary (e.g. the real-axis crossing
    ``cosh(sigma_hat)``) test as contained despite roundoff.
    """
    g = np.asarray(g, dtype=complex)
    if g.shape != (region.n_dims,):
        raise ValueError(f"expected {region.n_dims} coordinates, got shape {g.shape}")
    for z, s_hat in zip(g, region.sigma_hat):
        if _elliptic_radius(z) > s_hat + 1e-12 * max(1.0, s_hat):
            return False
    return True


@dataclass(frozen=True)
class PerturbationBounds:
    """Norm estimates for the complexified system displaced to g = q + v.

    ``e_norm`` bounds the spectral-norm perturbation of the complex m x m
    Jacobian relative to the real system at q (its real 2m x 2m block form
    has the same norm); ``g_norm`` bounds the Euclidean-norm perturbation
    of the residual.
    """

    e_norm: float
    g_norm: float

    def certifies(self, kappa: float, delta: float, kappa_e: float, delta_e: float) -> bool:
        """Evaluate the two admissibility inequalities for target constants.

        The extended inverse-Jacobian bound ``kappa_e`` holds when
        ``e_norm < (1 - kappa/kappa_e)/kappa`` and the extended step bound
        ``delta_e`` holds when ``g_norm < delta_e/kappa_e - delta/kappa``.
        """
        e_ok = self.e_norm < (1.0 - kappa / kappa_e) / kappa
        g_ok = self.g_norm < delta_e / kappa_e - delta / kappa
        return e_ok and g_ok


def estimate_perturbation_norms(
    problem: NewtonProblem,
    x0: np.ndarray,
    slopes: ParameterSlopes,
    q: np.ndarray,
    v: np.ndarray,
) -> PerturbationBounds:
    """Perturbation norms of the complexified system displaced to g = q + v.

    ``slopes`` is the problem's affine model at x0 (``parameter_slopes``).
    Along q + t*v the real part of J moves only with Re v, so the first-order
    Taylor remainder is bounded entrywise by sum_k |Re v_k| |dJ_k|, exactly
    (likewise for the residual); the imaginary parts at g are
    sum_k Im v_k dJ_k. Norms are spectral (matrix) and Euclidean (vector).

    The real system at the anchor q must pass Newton's pivot test, or
    SingularJacobianError is raised. J and f at g are evaluated and checked
    against the model; a gap above 1e-10 of the largest entry involved
    raises InfeasibleRegionError naming g.
    """
    x0 = np.asarray(x0, dtype=float)
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=complex)
    dims = len(slopes.dj)
    if q.shape != (dims,) or v.shape != (dims,):
        raise ValueError(f"q and v need {dims} entries, got shapes {q.shape} and {v.shape}")
    _lu_with_pivot_check(slopes.j0 + np.tensordot(q, slopes.dj, axes=1), 0)

    g = q + v
    j_g = np.asarray(problem.jacobian(x0, g), dtype=complex)
    f_g = np.asarray(problem.residual(x0, g), dtype=complex)
    j_gap = np.abs(j_g - slopes.j0 - np.tensordot(g, slopes.dj, axes=1)).max()
    f_gap = np.abs(f_g - slopes.f0 - g @ slopes.df).max()
    j_top = max(np.abs(j_g).max(), np.abs(slopes.j0).max(), np.abs(slopes.dj).max())
    f_top = max(np.abs(f_g).max(), np.abs(slopes.f0).max(), np.abs(slopes.df).max())
    if j_gap > _AFFINE_TOL * j_top or f_gap > _AFFINE_TOL * f_top:
        raise InfeasibleRegionError(
            f"the problem is not affine in the parameters: at g = {g.tolist()} "
            f"J and f differ from the affine model by {j_gap:.3e} and {f_gap:.3e}"
        )

    re_v = np.abs(v.real)
    q_hat = np.tensordot(re_v, np.abs(slopes.dj), axes=1)  # (m, m) remainder bound
    p_hat = re_v @ np.abs(slopes.df)  # (m,) remainder bound
    # The real block [[Q, -J_I], [J_I, Q]] has the singular values of Q + i J_I.
    e_norm = float(np.linalg.norm(q_hat + 1j * np.tensordot(v.imag, slopes.dj, axes=1), 2))
    g_norm = float(np.hypot(np.linalg.norm(p_hat), np.linalg.norm(v.imag @ slopes.df)))
    return PerturbationBounds(e_norm=e_norm, g_norm=g_norm)


def _boundary_probes(sigma_hat: np.ndarray, angles: np.ndarray) -> list[np.ndarray]:
    """Probe points for a candidate polyellipse: axis vertices + random boundary.

    Per dimension, the real-axis crossing ``cosh`` and the imaginary-axis
    crossing ``i sinh`` (other coordinates held at the box center); plus one
    point per row of ``angles`` with every coordinate on its own ellipse
    boundary simultaneously.
    """
    n = sigma_hat.size
    probes: list[np.ndarray] = []
    for k in range(n):
        axis_real = np.zeros(n, dtype=complex)
        axis_real[k] = math.cosh(sigma_hat[k])
        probes.append(axis_real)
        axis_imag = np.zeros(n, dtype=complex)
        axis_imag[k] = 1j * math.sinh(sigma_hat[k])
        probes.append(axis_imag)
    for row in angles:
        probes.append(np.cosh(sigma_hat) * np.cos(row) + 1j * np.sinh(sigma_hat) * np.sin(row))
    return probes


def admissible_region_search(
    problem: NewtonProblem,
    x0: np.ndarray,
    kappa: float,
    delta: float,
    kappa_e: float,
    delta_e: float,
    dims: int,
    sigma_cap: float = 2.0,
    seed: int = 0,
) -> EllipseRegion:
    """Largest certifiable polyellipse for the target extended constants.

    One radius for all ``dims`` dimensions is found by bisection: a radius
    is accepted when both perturbation inequalities, with the nominal
    ``kappa`` and ``delta``, hold at every boundary probe (two axis vertices
    per dimension plus ``4 * dims`` random points with all coordinates on
    the boundary; angles drawn once per call, so the search is
    deterministic for a fixed seed).  This certifies the inequalities at
    probes only -- it is a heuristic inner approximation, not a proof over
    the full boundary.  The parameter slopes are taken once per call; each
    probe only evaluates the problem at its own point.

    Raises InfeasibleRegionError when the targets make either inequality's
    right-hand side nonpositive, or when the problem is not affine in the
    parameters at a probe, and SingularJacobianError when the real system
    at a probe's anchor is singular.  Returns the degenerate region (all
    zeros) when no positive radius is certifiable.
    """
    if kappa <= 0.0:
        raise InfeasibleRegionError(f"kappa must be positive, got {kappa}")
    if not kappa_e > kappa:
        raise InfeasibleRegionError(
            f"kappa_e ({kappa_e}) must exceed kappa ({kappa}) for a positive threshold"
        )
    if not delta_e / kappa_e > delta / kappa:
        raise InfeasibleRegionError(
            f"delta_e/kappa_e ({delta_e / kappa_e}) must exceed delta/kappa "
            f"({delta / kappa}) for a positive threshold"
        )

    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(4 * dims, dims))
    slopes = parameter_slopes(problem, x0, dims)

    def feasible(scale: float) -> bool:
        for g in _boundary_probes(np.full(dims, scale), angles):
            anchor = np.clip(np.real(g), -1.0, 1.0)
            bounds = estimate_perturbation_norms(problem, x0, slopes, anchor, g - anchor)
            if not bounds.certifies(kappa, delta, kappa_e, delta_e):
                return False
        return True

    if feasible(sigma_cap):
        return EllipseRegion((sigma_cap,) * dims)
    lo, hi = 0.0, sigma_cap
    while hi - lo > _BISECTION_REL_TOL * hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return EllipseRegion((lo,) * dims)


@dataclass(frozen=True)
class BoundConstants:
    """Closed-form constants controlling sparse-grid decay on a polyellipse.

    ``sigma`` is half the smallest logarithmic ellipse radius; ``m_tilde``
    bounds the target function's magnitude over the polyellipse.  The
    remaining fields are the derived rate exponents (``mu1`` algebraic,
    ``mu2``/``mu3`` sub-exponential) and prefactors.  ``q_coef`` is ``inf``
    when ``c1`` is within 1e-9 of 1 (the ``1/|1-c1|`` factor degenerates);
    evaluating a bound in that state raises BoundUnavailableError.
    """

    sigma: float
    n_dims: int
    m_tilde: float
    mu1: float
    mu2: float
    mu3: float
    delta_star: float
    c1: float
    c2_tilde: float
    a_coef: float
    q_coef: float


class ConvergenceBound(NamedTuple):
    regime: str
    bound: float


def bound_constants(
    sigma_hat: EllipseRegion | Sequence[float], m_tilde: float
) -> BoundConstants:
    """Derive the decay constants for a polyellipse and magnitude bound.

    The decay is governed by the smallest per-dimension radius: with
    ``sigma = min(sigma_hat) / 2`` and N dimensions,

        mu1 = sigma / (1 + log(2N))          (algebraic exponent)
        mu2 = log 2 / (N (1 + log(2N)))      (sub-exponential exponent)
        mu3 = sigma d* C2 / (1 + 2 log(2N))  (sub-exponential prefactor power)

    where ``C2 = 1 + sqrt(pi/(2 sigma))/log 2``, ``d* = (e log 2 - 1)/C2``,
    and the prefactors

        a = exp(d* sigma (1/(sigma log^2 2) + 1/(log 2 sqrt(2 sigma)) + 2 C2))
        c1 = 4 m_tilde (2/(e^sigma - 1)) a / (e d* sigma)
        q_coef = c1 / exp(sigma d* C2) * max(1, c1)^N / |1 - c1|.
    """
    if isinstance(sigma_hat, EllipseRegion):
        radii = sigma_hat.sigma_hat
    else:
        radii = tuple(float(s) for s in sigma_hat)
    if len(radii) == 0:
        raise ValueError("need at least one dimension")
    sig_min = min(radii)
    if sig_min <= 0.0:
        raise ValueError(f"all sigma_hat entries must be positive, got min {sig_min}")
    if m_tilde <= 0.0:
        raise ValueError(f"m_tilde must be positive, got {m_tilde}")
    n = len(radii)
    sigma = 0.5 * sig_min
    log2 = math.log(2.0)
    log_2n = math.log(2.0 * n)

    mu1 = sigma / (1.0 + log_2n)
    mu2 = log2 / (n * (1.0 + log_2n))
    c2_tilde = 1.0 + math.sqrt(math.pi / (2.0 * sigma)) / log2
    delta_star = (math.e * log2 - 1.0) / c2_tilde
    a_coef = math.exp(
        delta_star
        * sigma
        * (1.0 / (sigma * log2**2) + 1.0 / (log2 * math.sqrt(2.0 * sigma)) + 2.0 * c2_tilde)
    )
    c_sigma = 2.0 / (math.exp(sigma) - 1.0)
    c1 = 4.0 * m_tilde * c_sigma * a_coef / (math.e * delta_star * sigma)
    mu3 = sigma * delta_star * c2_tilde / (1.0 + 2.0 * log_2n)
    if abs(c1 - 1.0) < _C1_DEGENERACY_TOL:
        q_coef = math.inf
    else:
        q_coef = c1 / math.exp(sigma * delta_star * c2_tilde) * max(1.0, c1) ** n / abs(c1 - 1.0)
    return BoundConstants(
        sigma=sigma,
        n_dims=n,
        m_tilde=m_tilde,
        mu1=mu1,
        mu2=mu2,
        mu3=mu3,
        delta_star=delta_star,
        c1=c1,
        c2_tilde=c2_tilde,
        a_coef=a_coef,
        q_coef=q_coef,
    )


def convergence_bound(constants: BoundConstants, w: int, eta: int) -> ConvergenceBound:
    """Sup-norm error bound for a level-w sparse grid with eta knots.

    Levels above ``n_dims / log 2`` fall in the sub-exponential regime

        q_coef * eta^mu3 * exp(-(N sigma / 2^(1/N)) * eta^mu2),

    lower levels in the algebraic regime

        c1 / |1 - c1| * max(1, c1)^N * eta^(-mu1).

    Raises BoundUnavailableError when ``c1`` is within 1e-9 of 1, where the
    shared ``1/|1 - c1|`` factor blows up.
    """
    if eta < 1:
        raise ValueError(f"eta must be >= 1, got {eta}")
    if abs(constants.c1 - 1.0) < _C1_DEGENERACY_TOL:
        raise BoundUnavailableError(
            f"c1 = {constants.c1!r} is within {_C1_DEGENERACY_TOL} of 1; "
            "the 1/|1 - c1| prefactor is unusable"
        )
    n = constants.n_dims
    if w > n / math.log(2.0):
        rate = n * constants.sigma / 2.0 ** (1.0 / n)
        bound = constants.q_coef * eta**constants.mu3 * math.exp(-rate * eta**constants.mu2)
        return ConvergenceBound("sub-exponential", float(bound))
    prefactor = constants.c1 / abs(1.0 - constants.c1) * max(1.0, constants.c1) ** n
    return ConvergenceBound("algebraic", float(prefactor * eta**-constants.mu1))


def mtilde_bound(t_star_e: float, x0: Sequence[float]) -> float:
    """Magnitude cap for Newton iterates started at x0 inside the region.

    Every iterate stays within the extended convergence radius ``t_star_e``
    of the start, so its norm never exceeds ``t_star_e + ||x0||``.
    """
    if t_star_e < 0.0:
        raise ValueError(f"t_star_e must be >= 0, got {t_star_e}")
    return float(t_star_e) + float(np.linalg.norm(np.asarray(x0, dtype=float)))
