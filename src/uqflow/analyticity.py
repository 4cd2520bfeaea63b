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
from typing import Callable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import BoundUnavailableError, InfeasibleRegionError, SingularJacobianError
from .newton import (
    _STACK_ROWS,
    NewtonProblem,
    ParameterSlopes,
    _lu_with_pivot_check,
    _row_norms,
    _stacked,
    parameter_slopes,
)

__all__ = [
    "EllipseRegion",
    "PerturbationBounds",
    "BoundConstants",
    "ConvergenceBound",
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


def _rows_times(rows: np.ndarray, slopes: np.ndarray) -> np.ndarray:
    """sum_k rows[p, k] slopes[k] for every row p of a (P, dims) stack: one
    vector-matrix product per row, the size of a single probe's."""
    flat = (rows[:, None, :] @ slopes.reshape(len(slopes), -1))[:, 0]
    return flat.reshape((len(rows),) + slopes.shape[1:])


def _probe_bounds(
    problem: NewtonProblem,
    x0: np.ndarray,
    slopes: ParameterSlopes,
    q: np.ndarray,
    v: np.ndarray,
    passed: set[bytes],
) -> Iterator[PerturbationBounds]:
    """PerturbationBounds at the probes g = q + v, rows of the (P, dims) q
    and v, in row order.

    The problem is evaluated at all the probes in one stacked call, and the
    model side is taken for all of them at once. The model moves J only on
    the support of dJ (``slopes.support``), so off it the gap to the model
    is |J(g) - j0| and the remainder bounds are zero; a Jacobian that does
    not depend on the parameters may come back as one matrix for all the
    probes. Each bound is finished when it is asked for: the pivot test of
    its anchor (skipped for an anchor in ``passed``, which gathers the
    anchors that pass), the affine-gap test and the spectral norm. A caller
    that stops at one probe never sees an error of a later one.
    """
    count, m = len(q), len(slopes.f0)
    g = q + v
    support = slopes.support
    dj = slopes.dj.reshape(len(slopes.dj), -1)[:, support]  # (dims, S)
    j_g = np.asarray(problem.jacobian(x0, g), dtype=complex)
    f_g = _stacked(problem.residual(x0, g), (count, m), complex)
    shift = (j_g - slopes.j0).reshape(j_g.shape[:-2] + (m * m,))
    on_support = np.abs(shift[..., support] - _rows_times(g, dj)).max(axis=-1, initial=0.0)
    shift[..., support] = 0.0
    j_gap = np.maximum(np.abs(shift).max(axis=-1), on_support)
    j_top = np.broadcast_to(np.maximum(np.abs(j_g).max(axis=(-2, -1)), slopes.j_top), (count,))
    f_gap = np.abs(f_g - slopes.f0 - _rows_times(g, slopes.df)).max(axis=1)
    f_top = np.maximum(np.abs(f_g).max(axis=1), slopes.f_top)

    re_v = np.abs(v.real)
    q_hat = _rows_times(re_v, np.abs(dj))  # (P, S) remainder bounds
    j_im = _rows_times(v.imag, dj)
    e_any = q_hat.any(axis=1) | j_im.any(axis=1)
    p_hat = _rows_times(re_v, np.abs(slopes.df))  # (P, m) remainder bounds
    g_norm = np.hypot(_row_norms(p_hat), _row_norms(_rows_times(v.imag, slopes.df)))

    for k in range(count):
        anchor = q[k].tobytes()
        if anchor not in passed:
            try:
                _lu_with_pivot_check(slopes.j0 + np.tensordot(q[k], slopes.dj, axes=1), 0)
            except SingularJacobianError as exc:
                exc.args = (f"{exc} at the anchor q={q[k].tolist()}",)
                raise
            passed.add(anchor)
        if j_gap[k] > _AFFINE_TOL * j_top[k] or f_gap[k] > _AFFINE_TOL * f_top[k]:
            raise InfeasibleRegionError(
                f"the problem is not affine in the parameters: at g = {g[k].tolist()} "
                f"J and f differ from the affine model by {j_gap[k]:.3e} and {f_gap[k]:.3e}"
            )
        e_norm = 0.0
        if e_any[k]:
            # The real block [[Q, -J_I], [J_I, Q]] has the singular values of Q + i J_I.
            e = np.zeros(m * m, dtype=complex)
            e[support] = q_hat[k] + 1j * j_im[k]
            e_norm = float(np.linalg.norm(e.reshape(m, m), 2))
        yield PerturbationBounds(e_norm=e_norm, g_norm=float(g_norm[k]))


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
    A perturbation matrix with no nonzero entry has spectral norm exactly
    0.0, which is returned without an SVD; any other takes one dense
    complex SVD. The support of dJ and the largest entries of the model are
    read from ``slopes``, taken once per model.

    The real system at the anchor q must pass Newton's pivot test, or
    SingularJacobianError is raised. J and f at g are evaluated and checked
    against the model; a gap above 1e-10 of the largest entry involved
    raises InfeasibleRegionError naming g. This is the one-probe case of the
    stacked evaluation that the region search runs.
    """
    x0 = np.asarray(x0, dtype=float)
    q = np.asarray(q, dtype=float)
    v = np.asarray(v, dtype=complex)
    dims = len(slopes.dj)
    if q.shape != (dims,) or v.shape != (dims,):
        raise ValueError(f"q and v need {dims} entries, got shapes {q.shape} and {v.shape}")
    return next(_probe_bounds(problem, x0, slopes, q[None], v[None], set()))


def _boundary_probes(sigma_hat: np.ndarray, angles: np.ndarray) -> np.ndarray:
    """Probe points for a candidate polyellipse: axis vertices + random boundary.

    Per dimension, the real-axis crossings ``cosh`` and ``-cosh`` and the
    imaginary-axis crossings ``i sinh`` and ``-i sinh`` (other coordinates
    held at the box center), so both ends of every axis are probed; plus one
    point per row of ``angles`` with every coordinate on its own ellipse
    boundary simultaneously. One probe per row, in that order.
    """
    n = sigma_hat.size
    axes = np.zeros((n, 4, n), dtype=complex)
    for k in range(n):
        c, s = math.cosh(sigma_hat[k]), math.sinh(sigma_hat[k])
        axes[k, :, k] = (c, 1j * s, -c, -1j * s)
    boundary = np.cosh(sigma_hat) * np.cos(angles) + 1j * np.sinh(sigma_hat) * np.sin(angles)
    return np.concatenate([axes.reshape(4 * n, n), boundary])


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
    ``kappa`` and ``delta``, hold at every boundary probe (``_boundary_probes``:
    four axis vertices per dimension, whose anchors are both ends of the
    box, plus ``4 * dims`` random points with all coordinates on the
    boundary; angles drawn once per call, so the search is deterministic
    for a fixed seed).  This certifies the inequalities at
    probes only -- it is a heuristic inner approximation, not a proof over
    the full boundary.  The parameter slopes are taken once per call.  Each
    bisection step evaluates the problem at its probes in stacked calls of
    up to ``newton._STACK_ROWS`` points, then decides the probes in order:
    the first one that fails ends the step, and an error at a later probe
    does not preempt it.  Each anchor's pivot test is taken once per call.

    Raises InfeasibleRegionError when the targets make either inequality's
    right-hand side nonpositive, when cosh(sigma_cap) is not a finite float
    (sigma_cap above about 710), or when the problem is not affine in the
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

    with np.errstate(over="ignore"):
        if not np.isfinite(np.cosh(sigma_cap)):
            raise InfeasibleRegionError(
                f"sigma_cap ({sigma_cap}) is too large: its ellipse vertex "
                "cosh(sigma_cap) overflows a float"
            )

    rng = np.random.default_rng(seed)
    angles = rng.uniform(0.0, 2.0 * math.pi, size=(4 * dims, dims))
    x0 = np.asarray(x0, dtype=float)
    slopes = parameter_slopes(problem, x0, dims)
    passed: set[bytes] = set()  # anchors whose real system passed the pivot test

    def feasible(scale: float) -> bool:
        g = _boundary_probes(np.full(dims, scale), angles)
        anchor = np.clip(g.real, -1.0, 1.0)
        for start in range(0, len(g), _STACK_ROWS):
            q = anchor[start : start + _STACK_ROWS]
            v = g[start : start + _STACK_ROWS] - q
            bounds = _probe_bounds(problem, x0, slopes, q, v, passed)
            if not all(b.certifies(kappa, delta, kappa_e, delta_e) for b in bounds):
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


def _finite(name: str, compute: Callable[[], float]) -> float:
    """compute(), or BoundUnavailableError naming it if it overflows or is not finite."""
    try:
        value = compute()
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise BoundUnavailableError(f"{name} is not finite ({value!r}); no rate bound")
    return value


def bound_constants(region: EllipseRegion, m_tilde: float) -> BoundConstants:
    """Derive the decay constants for a polyellipse and magnitude bound.

    The decay is governed by the smallest per-dimension radius: with
    ``sigma = min(region.sigma_hat) / 2`` and N dimensions,

        mu1 = sigma / (1 + log(2N))          (algebraic exponent)
        mu2 = log 2 / (N (1 + log(2N)))      (sub-exponential exponent)
        mu3 = sigma d* C2 / (1 + 2 log(2N))  (sub-exponential prefactor power)

    where ``C2 = 1 + sqrt(pi/(2 sigma))/log 2``, ``d* = (e log 2 - 1)/C2``,
    and the prefactors

        a = exp(d* sigma (1/(sigma log^2 2) + 1/(log 2 sqrt(2 sigma)) + 2 C2))
        c1 = 4 m_tilde (2/(e^sigma - 1)) a / (e d* sigma)
        q_coef = c1 / exp(sigma d* C2) * max(1, c1)^N / |1 - c1|.

    Raises BoundUnavailableError naming a constant that overflows a float.
    """
    sig_min = min(region.sigma_hat)
    if sig_min <= 0.0:
        raise ValueError(f"all sigma_hat entries must be positive, got min {sig_min}")
    if m_tilde <= 0.0:
        raise ValueError(f"m_tilde must be positive, got {m_tilde}")
    n = len(region.sigma_hat)
    sigma = 0.5 * sig_min
    log2 = math.log(2.0)
    log_2n = math.log(2.0 * n)

    mu1 = sigma / (1.0 + log_2n)
    mu2 = log2 / (n * (1.0 + log_2n))
    c2_tilde = 1.0 + math.sqrt(math.pi / (2.0 * sigma)) / log2
    delta_star = (math.e * log2 - 1.0) / c2_tilde
    a_exponent = (
        delta_star
        * sigma
        * (1.0 / (sigma * log2**2) + 1.0 / (log2 * math.sqrt(2.0 * sigma)) + 2.0 * c2_tilde)
    )
    a_coef = _finite("a_coef", lambda: math.exp(a_exponent))
    c_sigma = 2.0 / (math.exp(sigma) - 1.0)
    c1 = _finite("c1", lambda: 4.0 * m_tilde * c_sigma * a_coef / (math.e * delta_star * sigma))
    mu3 = sigma * delta_star * c2_tilde / (1.0 + 2.0 * log_2n)
    if abs(c1 - 1.0) < _C1_DEGENERACY_TOL:
        q_coef = math.inf
    else:
        scale = c1 / math.exp(sigma * delta_star * c2_tilde)
        q_coef = _finite("q_coef", lambda: scale * max(1.0, c1) ** n / abs(c1 - 1.0))
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
    shared ``1/|1 - c1|`` factor blows up, and when the prefactor or the bound
    overflows a float.
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
        decay = math.exp(-rate * eta**constants.mu2)
        bound = _finite("bound", lambda: constants.q_coef * eta**constants.mu3 * decay)
        return ConvergenceBound("sub-exponential", float(bound))
    c1 = constants.c1
    prefactor = _finite("algebraic prefactor", lambda: c1 / abs(1.0 - c1) * max(1.0, c1) ** n)
    return ConvergenceBound("algebraic", float(prefactor * eta**-constants.mu1))


def mtilde_bound(t_star_e: float, x0: Sequence[float]) -> float:
    """Magnitude cap for Newton iterates started at x0 inside the region.

    Every iterate stays within the extended convergence radius ``t_star_e``
    of the start, so its norm never exceeds ``t_star_e + ||x0||``.
    """
    if t_star_e < 0.0:
        raise ValueError(f"t_star_e must be >= 0, got {t_star_e}")
    return float(t_star_e) + float(np.linalg.norm(np.asarray(x0, dtype=float)))
