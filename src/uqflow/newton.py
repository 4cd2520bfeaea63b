"""Newton's method with dense LU and Kantorovich certificates.

A problem is a (residual, jacobian) pair over a state vector and an opaque
parameter object. Written dtype-generically, the same pair serves the
a-priori Kantorovich certificate and one Newton solve for real and complex
inputs alike: a complex start point or complex parameters run the
complexified iteration on z = x_R + i x_I as one complex m x m LU solve,
which is the same linear system as the real 2m x 2m block form
[[J_R, -J_I], [J_I, J_R]]. Every LU calls LAPACK getrf/getrs directly (d or
z picked by dtype), which skips SciPy's per-call wrapper cost.

A problem affine in its parameters is also described once by its slopes at
a fixed state (parameter_slopes), which the region search reads its
perturbation bounds from and chord_predictor turns into a Newton start.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np
from scipy.linalg import get_lapack_funcs, svdvals

from .errors import SingularJacobianError

_PIVOT_REL_FLOOR = 1e-14

#: Central-difference step of cauchy_riemann_residual.
_CR_STEP = 1e-4


@dataclass(frozen=True)
class NewtonProblem:
    """residual(x, params) -> (m,) and jacobian(x, params) -> (m, m).

    Both callables must accept complex x/params if the problem is to be
    solved at complex points; the complex evaluation is then the analytic
    extension of the real one.
    """

    residual: Callable[[np.ndarray, Any], np.ndarray]
    jacobian: Callable[[np.ndarray, Any], np.ndarray]


@dataclass
class NewtonTrace:
    x: np.ndarray
    converged: bool
    iterations: int
    residual_norms: list[float]
    iterates: list[np.ndarray]


@functools.cache
def _getrf_getrs(dtype: np.dtype):
    return get_lapack_funcs(("getrf", "getrs"), dtype=dtype)


def _lu_with_pivot_check(matrix: np.ndarray, iteration: int):
    """LAPACK getrf of matrix, raising SingularJacobianError when a pivot of U
    falls below 1e-14 * the largest one or is not finite. getrf reports an
    exactly zero pivot through its info code, which the pivot test covers."""
    lu, piv, _ = _getrf_getrs(matrix.dtype)[0](matrix)
    diag = np.abs(np.diag(lu))
    scale, low = (diag.max(), diag.min()) if diag.size else (0.0, 0.0)
    if scale == 0.0 or not low >= _PIVOT_REL_FLOOR * scale:
        raise SingularJacobianError(iteration, float(low), float(scale))
    return lu, piv


def _lu_solve(lu: np.ndarray, piv: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve with the factors of _lu_with_pivot_check; rhs takes their dtype."""
    return _getrf_getrs(lu.dtype)[1](lu, piv, rhs.astype(lu.dtype, copy=False))[0]


def solve(
    problem: NewtonProblem,
    x0: np.ndarray,
    params: Any = None,
    tol: float = 1e-10,
    max_iter: int = 20,
) -> NewtonTrace:
    """Undamped Newton until the sup-norm of the residual drops below tol.

    Dtype-generic: the iterates take the dtype of x0 (at least float), and a
    complex residual or Jacobian, as complex params give, promotes them to
    complex. Non-convergence within max_iter, or a residual that is no
    longer finite, is reported through the returned trace (converged=False),
    not an exception; a pivot collapsing below 1e-14 * max-pivot raises
    SingularJacobianError, complex or not.
    """
    x = np.array(x0, dtype=np.result_type(np.asarray(x0), float))
    iterates = [x.copy()]
    residual_norms: list[float] = []
    for iteration in range(max_iter + 1):
        r = np.asarray(problem.residual(x, params))
        rn = float(np.abs(r).max()) if r.size else 0.0
        residual_norms.append(rn)
        if rn <= tol:
            return NewtonTrace(x, True, iteration, residual_norms, iterates)
        if iteration == max_iter or not math.isfinite(rn):
            break
        j = np.asarray(problem.jacobian(x, params))
        lu, piv = _lu_with_pivot_check(j.astype(np.result_type(j, r), copy=False), iteration)
        x = x - _lu_solve(lu, piv, r)
        iterates.append(x.copy())
    return NewtonTrace(x, False, len(residual_norms) - 1, residual_norms, iterates)


# --- the affine model in the parameters ----------------------------------------


class ParameterSlopes(NamedTuple):
    """The affine model of a problem in its parameters at a fixed state x0.

    ``j0``/``f0`` are J and f at (x0, 0); ``dj[k]``/``df[k]`` their unit
    differences along parameter k, so J(x0, p) = j0 + sum_k p_k dj[k] for
    real or complex p (likewise f).
    """

    j0: np.ndarray
    f0: np.ndarray
    dj: np.ndarray
    df: np.ndarray


def parameter_slopes(problem: NewtonProblem, x0: np.ndarray, dims: int) -> ParameterSlopes:
    """Evaluate J and f at (x0, 0) and at (x0, e_k) for every parameter k."""
    x0 = np.asarray(x0, dtype=float)
    points = np.vstack([np.zeros(dims), np.eye(dims)])
    f = np.array([np.real(problem.residual(x0, p)) for p in points])
    j = np.array([np.real(problem.jacobian(x0, p)) for p in points])
    return ParameterSlopes(j[0], f[0], j[1:] - j[0], f[1:] - f[0])


def chord_predictor(slopes: ParameterSlopes, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x_hat, tangent) such that x_hat + tangent @ q = x0 - J0^-1 f(x0, q).

    For a residual affine in the parameters, f(x0, q) = f0 + q @ df, this is
    one chord step from x0 at every q at once: x_hat = x0 - J0^-1 f0 and
    tangent = -J0^-1 [df_1 ... df_d], the first-order continuation predictor
    of the solution map anchored at x0. J0 must pass Newton's pivot test, or
    SingularJacobianError is raised.
    """
    lu, piv = _lu_with_pivot_check(slopes.j0, 0)
    # One right-hand side per getrs call: OpenBLAS spreads a many-column
    # solve over its thread pool (at 67 x 5, twice as much CPU as wall time),
    # and the woken threads keep spinning; one column stays on this thread.
    x_hat = np.asarray(x0, dtype=float) - _lu_solve(lu, piv, slopes.f0)
    tangent = np.zeros((len(x_hat), len(slopes.df)))
    for k, df in enumerate(slopes.df):
        tangent[:, k] = -_lu_solve(lu, piv, df)
    return x_hat, tangent


# --- Kantorovich certificate --------------------------------------------------


@dataclass(frozen=True)
class KantorovichCertificate:
    """Affine-invariant convergence certificate at a start point.

    kappa = ||J(x0)^-1|| (spectral), delta = ||J(x0)^-1 f(x0)||_2, lipschitz
    a bound for ||J(x) - J(y)|| / ||x - y|| near x0, h = 2 kappa lipschitz
    delta. satisfied (h <= 1) guarantees: the iterates exist, stay within
    t_star = (2/h)(1 - sqrt(1-h)) delta of x0, and converge to the unique
    root in that ball. t_star -> delta as h -> 0 and is NaN when h > 1.
    """

    kappa: float
    delta: float
    lipschitz: float
    h: float
    t_star: float
    satisfied: bool
    probe_count: int
    lipschitz_is_exact: bool


def _sample_ball(rng: np.random.Generator, center: np.ndarray, radius: float) -> np.ndarray:
    direction = rng.standard_normal(center.shape)
    norm = np.linalg.norm(direction)
    if norm == 0.0:
        return center.copy()
    r = radius * rng.uniform() ** (1.0 / max(center.size, 1))
    return center + (r / norm) * direction

def estimate_jacobian_lipschitz(
    problem: NewtonProblem,
    x0: np.ndarray,
    params: Any = None,
    radius: float = 1.0,
    probe_count: int = 64,
    seed: int = 0,
) -> float:
    """Sampled spectral-norm Lipschitz estimate for J over the radius ball.

    Maximizes ||J(u) - J(v)|| / ||u - v|| over seeded probe pairs. This is a
    lower estimate of the true constant; certificates that need a guarantee
    should pass an exact bound instead.
    """
    rng = np.random.default_rng(seed)
    x0 = np.asarray(x0, dtype=float)
    best = 0.0
    for _ in range(probe_count):
        u = _sample_ball(rng, x0, radius)
        v = _sample_ball(rng, x0, radius)
        gap = np.linalg.norm(u - v)
        if gap == 0.0:
            continue
        ju = np.asarray(problem.jacobian(u, params), dtype=float)
        jv = np.asarray(problem.jacobian(v, params), dtype=float)
        best = max(best, float(svdvals(ju - jv)[0]) / gap)
    return best


def kantorovich_t_star(h: float, delta: float) -> float:
    """Radius t* = (2/h)(1 - sqrt(1-h)) delta of the ball holding the iterates.

    t* -> delta as h -> 0 and is NaN when h > 1 (no guarantee).
    """
    if h > 1.0:
        return math.nan
    if h == 0.0:
        return delta
    return (2.0 / h) * (1.0 - math.sqrt(1.0 - h)) * delta


def kantorovich_certificate(
    problem: NewtonProblem,
    x0: np.ndarray,
    params: Any = None,
    radius: float = 1.0,
    lipschitz: float | None = None,
    probe_count: int = 64,
    seed: int = 0,
) -> KantorovichCertificate:
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    j0 = np.atleast_2d(np.asarray(problem.jacobian(x0, params), dtype=float))
    f0 = np.atleast_1d(np.asarray(problem.residual(x0, params), dtype=float))
    sigma = svdvals(j0)
    if sigma[-1] == 0.0:
        raise SingularJacobianError(0, 0.0, float(sigma[0]))
    kappa = 1.0 / float(sigma[-1])
    lu, piv = _lu_with_pivot_check(j0, 0)
    delta = float(np.linalg.norm(_lu_solve(lu, piv, f0)))
    exact = lipschitz is not None
    lam = (
        float(lipschitz)
        if exact
        else estimate_jacobian_lipschitz(problem, x0, params, radius, probe_count, seed)
    )
    h = 2.0 * kappa * lam * delta
    return KantorovichCertificate(
        kappa=kappa,
        delta=delta,
        lipschitz=lam,
        h=h,
        t_star=kantorovich_t_star(h, delta),
        satisfied=h <= 1.0,
        probe_count=probe_count,
        lipschitz_is_exact=exact,
    )


def cauchy_riemann_residual(func: Callable[[complex], np.ndarray | complex], g: complex) -> float:
    """Max norm of the Cauchy-Riemann defects of func at g.

    Central differences of step _CR_STEP along the real and imaginary
    parameter directions; for func analytic at g both d_s Re - d_w Im and
    d_w Re + d_s Im vanish up to O(step^2).
    """
    step = _CR_STEP
    d_s = (np.asarray(func(g + step)) - np.asarray(func(g - step))) / (2.0 * step)
    d_w = (np.asarray(func(g + 1j * step)) - np.asarray(func(g - 1j * step))) / (2.0 * step)
    p = d_s.real - d_w.imag
    q = d_w.real + d_s.imag
    return float(max(np.abs(p).max(), np.abs(q).max()))
