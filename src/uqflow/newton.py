"""Newton's method with dense LU, Kantorovich certificates, and the
complexified block iteration for analytic parameter continuation.

A problem is a (residual, jacobian) pair over a state vector and an opaque
parameter object. The same pair, written dtype-generically, serves three
consumers: the plain real solver, the a-priori Kantorovich certificate, and
the complexified solver that tracks states z = x_R + i x_I through the
equivalent 2m x 2m real block system [[J_R, -J_I], [J_I, J_R]].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
from scipy.linalg import lu_factor, lu_solve, svdvals

from .errors import SingularJacobianError

_PIVOT_REL_FLOOR = 1e-14


@dataclass(frozen=True)
class NewtonProblem:
    """residual(x, params) -> (m,) and jacobian(x, params) -> (m, m).

    Both callables must accept complex x/params if the problem is to be used
    with solve_complexified; the complex evaluation is then the analytic
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
    step_norms: list[float]
    iterates: list[np.ndarray]


def _lu_with_pivot_check(matrix: np.ndarray, iteration: int):
    lu, piv = lu_factor(matrix)
    diag = np.abs(np.diag(lu))
    scale = diag.max() if diag.size else 0.0
    if scale == 0.0 or diag.min() < _PIVOT_REL_FLOOR * scale:
        raise SingularJacobianError(iteration, float(diag.min(initial=0.0)), float(scale))
    return lu, piv


def solve(
    problem: NewtonProblem,
    x0: np.ndarray,
    params: Any = None,
    tol: float = 1e-10,
    max_iter: int = 20,
) -> NewtonTrace:
    """Undamped Newton until the sup-norm of the residual drops below tol.

    Non-convergence within max_iter is reported through the returned trace
    (converged=False), not an exception; a pivot collapsing below
    1e-14 * max-pivot raises SingularJacobianError.
    """
    x = np.array(x0, dtype=float)
    iterates = [x.copy()]
    residual_norms: list[float] = []
    step_norms: list[float] = []
    for iteration in range(max_iter + 1):
        r = np.asarray(problem.residual(x, params), dtype=float)
        rn = float(np.abs(r).max()) if r.size else 0.0
        residual_norms.append(rn)
        if rn <= tol:
            return NewtonTrace(x, True, iteration, residual_norms, step_norms, iterates)
        if iteration == max_iter:
            break
        lu, piv = _lu_with_pivot_check(
            np.asarray(problem.jacobian(x, params), dtype=float), iteration
        )
        step = lu_solve((lu, piv), r)
        x = x - step
        step_norms.append(float(np.linalg.norm(step)))
        iterates.append(x.copy())
    return NewtonTrace(x, False, max_iter, residual_norms, step_norms, iterates)


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
    radius: float
    probe_count: int
    seed: int
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
    delta = float(np.linalg.norm(lu_solve((lu, piv), f0)))
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
        radius=radius,
        probe_count=probe_count,
        seed=seed,
        lipschitz_is_exact=exact,
    )


# --- complexified iteration ----------------------------------------------------


@dataclass
class ComplexNewtonTrace:
    z: np.ndarray
    converged: bool
    iterations: int
    residual_norms: list[float]
    sigma_min: list[float]
    iterates: list[np.ndarray]


def solve_complexified(
    problem: NewtonProblem,
    z0: np.ndarray,
    params: Any = None,
    tol: float = 1e-10,
    max_iter: int = 40,
    sigma_rel_floor: float = 1e-12,
) -> ComplexNewtonTrace:
    """Newton on the complexified system via the real 2m x 2m block form.

    Each sweep solves [[J_R, -J_I], [J_I, J_R]] d = -[f_R; f_I] and applies
    z += d_R + i d_I. The block's smallest singular value is recorded every
    sweep; dropping below sigma_rel_floor times the largest is the
    invertibility failure and raises SingularJacobianError. For real inputs
    the imaginary half stays exactly zero and the iterates match solve().
    """
    z = np.atleast_1d(np.asarray(z0, dtype=complex))
    m = z.size
    iterates = [z.copy()]
    residual_norms: list[float] = []
    sigma_min: list[float] = []
    for iteration in range(max_iter + 1):
        f = np.atleast_1d(np.asarray(problem.residual(z, params), dtype=complex))
        rn = float(np.abs(f).max()) if f.size else 0.0
        residual_norms.append(rn)
        if rn <= tol:
            return ComplexNewtonTrace(z, True, iteration, residual_norms, sigma_min, iterates)
        if iteration == max_iter:
            break
        j = np.atleast_2d(np.asarray(problem.jacobian(z, params), dtype=complex))
        block = np.block([[j.real, -j.imag], [j.imag, j.real]])
        sig = svdvals(block)
        sigma_min.append(float(sig[-1]))
        if sig[-1] < sigma_rel_floor * sig[0]:
            raise SingularJacobianError(iteration, float(sig[-1]), float(sig[0]))
        lu, piv = _lu_with_pivot_check(block, iteration)
        d = lu_solve((lu, piv), np.concatenate([f.real, f.imag]))
        z = z - (d[:m] + 1j * d[m:])
        iterates.append(z.copy())
    return ComplexNewtonTrace(z, False, max_iter, residual_norms, sigma_min, iterates)


def cauchy_riemann_residual(
    func: Callable[[complex], np.ndarray | complex], g: complex, step: float = 1e-4
) -> float:
    """Max norm of the Cauchy-Riemann defects of func at g.

    Central differences along the real and imaginary parameter directions;
    for func analytic at g both d_s Re - d_w Im and d_w Re + d_s Im vanish
    up to O(step^2).
    """
    d_s = (np.asarray(func(g + step)) - np.asarray(func(g - step))) / (2.0 * step)
    d_w = (np.asarray(func(g + 1j * step)) - np.asarray(func(g - 1j * step))) / (2.0 * step)
    p = d_s.real - d_w.imag
    q = d_w.real + d_s.imag
    return float(max(np.abs(p).max(), np.abs(q).max()))
