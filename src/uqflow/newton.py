"""Newton's method with dense LU and Kantorovich certificates.

A problem is a (residual, jacobian) pair over a state vector and an opaque
parameter object. Written dtype-generically, the same pair serves the
a-priori Kantorovich certificate and one Newton solve for real and complex
inputs alike: a complex start point or complex parameters run the
complexified iteration on z = x_R + i x_I as one complex m x m LU solve,
which is the same linear system as the real 2m x 2m block form
[[J_R, -J_I], [J_I, J_R]]. Every LU calls LAPACK getrf/getrs directly (d or
z picked by dtype), which skips SciPy's per-call wrapper cost.

SciPy serves these LU factors and the singular values, nothing else, and
this is the only module that imports it: _scipy_linalg imports scipy.linalg
on the first call that factors a matrix or takes an SVD. The import costs
about 0.25 s and 28 MB per process (2-core Xeon host), which a run that
only reads solved knots back (a warm uq-moments, grid-info, parse-case)
would pay for nothing.

A problem affine in its parameters is also described once by its slopes at
a fixed state (parameter_slopes), which the region search reads its
perturbation bounds from and taylor_predictor turns into a second-order
Newton start.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

import numpy as np

from .errors import BoundUnavailableError, SingularJacobianError

_PIVOT_REL_FLOOR = 1e-14

#: Relative rounding margin of the Gram-norm bound in estimate_jacobian_lipschitz.
_GRAM_BOUND_MARGIN = 1e-10

#: The Gram-norm bound skips a pair only while it exceeds this before and after
#: the division by the gap: far above underflow, where rounding is relative.
_GRAM_BOUND_FLOOR = 1e-50

#: Central-difference step of cauchy_riemann_residual.
_CR_STEP = 1e-4

#: Imaginary step of the complex-step directional derivative in taylor_predictor.
_COMPLEX_STEP = 1e-20

#: Most points in one stacked problem call of the Lipschitz sample and the
#: region search: an (8, 67, 67) float64 Jacobian stack is 0.3 MB, and
#: stacks of 16 ran no faster.
_STACK_ROWS = 8


@dataclass(frozen=True)
class NewtonProblem:
    """residual(x, params) -> (..., m) and jacobian(x, params) -> (..., m, m).

    Both callables evaluate a stack of points in one call: x has shape
    (..., m) and params, an array of parameter rows, shape (..., d); their
    leading axes broadcast against each other, as in NumPy, and give the
    stack shape of the results. A 1-D x and params is one point, and a
    stacked call must give each row the values that the point gives alone.
    A result may also have any shape that broadcasts to the stacked one (a
    Jacobian that ignores the parameters may keep the stack shape of x
    alone); callers broadcast it. Index the state and the parameters from
    the last axis, x[..., :1] and not x[0]. params that are not an array
    of rows (None) reach the callables as they are.

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


def _scipy_linalg():
    """scipy.linalg, imported on first use (see the module docstring)."""
    import scipy.linalg

    return scipy.linalg


@functools.cache
def _getrf_getrs(dtype: np.dtype):
    return _scipy_linalg().get_lapack_funcs(("getrf", "getrs"), dtype=dtype)


def _lu_with_pivot_check(matrix: np.ndarray, iteration: int):
    """LAPACK getrf of matrix, raising SingularJacobianError when a pivot of U
    falls below 1e-14 * the largest one or is not finite. getrf reports an
    exactly zero pivot through its info code, which the pivot test covers."""
    lu, piv, _ = _getrf_getrs(matrix.dtype)[0](matrix)
    diag = np.abs(lu.diagonal())
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
    # Every step makes a new x, so the iterates are recorded without copies.
    x = np.array(x0, dtype=np.result_type(np.asarray(x0), float))
    iterates = [x]
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
        j = j.astype(np.promote_types(j.dtype, r.dtype), copy=False)
        lu, piv = _lu_with_pivot_check(j, iteration)
        x = x - _lu_solve(lu, piv, r)
        iterates.append(x)
    return NewtonTrace(x, False, len(residual_norms) - 1, residual_norms, iterates)


# --- the affine model in the parameters ----------------------------------------


class ParameterSlopes(NamedTuple):
    """The affine model of a problem in its parameters at a fixed state x0.

    ``j0``/``f0`` are J and f at (x0, 0); ``dj[k]``/``df[k]`` their unit
    differences along parameter k, so J(x0, p) = j0 + sum_k p_k dj[k] for
    real or complex p (likewise f). ``support`` holds the row-major flat
    indices of the m x m entries where some dj[k] is nonzero (none for a
    Jacobian that does not depend on the parameters), and ``j_top``/``f_top``
    the largest entry magnitude of j0 and dj (of f0 and df): the constants
    every probe of a region search reads.
    """

    j0: np.ndarray
    f0: np.ndarray
    dj: np.ndarray
    df: np.ndarray
    support: np.ndarray
    j_top: float
    f_top: float


def _stacked(values, shape: tuple[int, ...], dtype=float) -> np.ndarray:
    """A stacked problem result as an array of its full stack shape."""
    return np.broadcast_to(np.asarray(values, dtype=dtype), shape)


def parameter_slopes(problem: NewtonProblem, x0: np.ndarray, dims: int) -> ParameterSlopes:
    """Evaluate J and f at (x0, 0) and at (x0, e_k) for every parameter k,
    in one stacked call each."""
    x0 = np.asarray(x0, dtype=float)
    m = len(x0)
    points = np.vstack([np.zeros(dims), np.eye(dims)])
    f = _stacked(np.real(problem.residual(x0, points)), (dims + 1, m))
    # C order whatever the problem's layout: BLAS products with dj (as in
    # taylor_predictor) round by the memory order of their operands
    j = np.ascontiguousarray(_stacked(np.real(problem.jacobian(x0, points)), (dims + 1, m, m)))
    dj, df = j[1:] - j[0], f[1:] - f[0]
    support = np.flatnonzero(dj.any(axis=0))
    j_top = max(np.abs(j[0]).max(), np.abs(dj).max(initial=0.0))
    f_top = max(np.abs(f[0]).max(), np.abs(df).max(initial=0.0))
    return ParameterSlopes(j[0], f[0], dj, df, support, j_top, f_top)


class Predictor(NamedTuple):
    """Second-order Taylor model x_hat + T q + 1/2 H[q, q] of a solution map.

    ``taylor`` holds [T, H/2] side by side, shape (m, d + d^2): the tangent
    T (m, d) and the curvature H (m, d, d) flattened row-major. Calling the
    predictor at q multiplies it with the monomials [q, q q^T], which gives
    the Newton start.
    """

    x_hat: np.ndarray
    taylor: np.ndarray

    def __call__(self, q: np.ndarray) -> np.ndarray:
        return self.x_hat + self.taylor @ np.concatenate([q, (q[:, None] * q).ravel()])


def taylor_predictor(
    problem: NewtonProblem, slopes: ParameterSlopes, x0: np.ndarray
) -> Predictor:
    """Second-order continuation predictor of the solution map, anchored at x0.

    For a residual affine in the parameters, f(x0, q) = f0 + q @ df, one
    chord step from x0 at every q at once is x_hat + T q = x0 - J0^-1 f(x0, q):
    x_hat = x0 - J0^-1 f0 and T = -J0^-1 [df_1 ... df_d]. Differentiating
    f(x(q), q) = 0 twice, with f affine in q, gives the curvature

        H_jk = -J0^-1 (D_x J[T_j] T_k + dJ_j T_k + dJ_k T_j),

    where D_x J[T_j] is the complex-step derivative Im J(x0 + i h T_j, 0) / h
    (exact to rounding, because the problem is analytic and dtype-generic).
    Everything reuses the one LU of J0, which must pass Newton's pivot test,
    or SingularJacobianError is raised.
    """
    lu, piv = _lu_with_pivot_check(slopes.j0, 0)
    x0 = np.asarray(x0, dtype=float)
    dims = len(slopes.df)
    # One right-hand side per getrs call, by the calling-thread rule of the
    # moments module docstring: OpenBLAS spreads a many-column solve over its
    # thread pool (at 67 x 5, twice as much CPU as wall time), and the woken
    # threads keep spinning; one column stays on this thread.
    x_hat = x0 - _lu_solve(lu, piv, slopes.f0)
    tangent = np.zeros((len(x_hat), dims))
    for k, df in enumerate(slopes.df):
        tangent[:, k] = -_lu_solve(lu, piv, df)
    m = len(x_hat)
    # bend[j][:, k] = D_x J[T_j] T_k and turn[j][:, k] = dJ_j T_k, with the
    # complex-step Jacobians of all the tangents in one stacked call
    steps = x0 + 1j * _COMPLEX_STEP * tangent.T
    jac = _stacked(problem.jacobian(steps, np.zeros(dims)), (dims, m, m), complex)
    bend = np.imag(jac) / _COMPLEX_STEP @ tangent
    turn = slopes.dj @ tangent
    curvature = np.zeros((m, dims, dims))
    for j in range(dims):
        for k in range(j, dims):
            rhs = bend[j][:, k] + turn[j][:, k] + turn[k][:, j]
            curvature[:, j, k] = curvature[:, k, j] = -_lu_solve(lu, piv, rhs)
    return Predictor(x_hat, np.hstack([tangent, 0.5 * curvature.reshape(m, -1)]))


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


def _pair_differences(problem: NewtonProblem, u: np.ndarray, v: np.ndarray, params: Any):
    """J(u) - J(v) for the rows of u and v, from one stacked call at [u; v]."""
    count, m = u.shape
    jac = _stacked(problem.jacobian(np.concatenate([u, v]), params), (2 * count, m, m))
    return jac[:count] - jac[count:]


def _row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of a stack (..., n), each from one dot
    product, as np.linalg.norm takes it for a single vector."""
    return np.sqrt((rows[..., None, :] @ rows[..., :, None])[..., 0, 0])


def _gram_bound(diff: np.ndarray) -> np.ndarray:
    """(sum_i sigma_i^4)^(1/4) = ||D^T D||_F^(1/2) >= sigma_1 of each D in a
    stack (..., m, m); NaN or inf for non-finite D."""
    gram = np.swapaxes(diff, -1, -2) @ diff
    return np.sqrt(_row_norms(gram.reshape(gram.shape[:-2] + (-1,))))


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

    An exact SVD is taken only for a pair that can raise the running best:
    a pair is skipped when its Gram bound ||D^T D||_F^(1/2) =
    (sum_i sigma_i^4)^(1/4) >= sigma_1 of the difference D, over the gap and
    times 1 + 1e-10, is below the best so far. Forming D^T D, its norm and
    LAPACK's sigma_1 each round within a small multiple of m * eps relative
    (about 1e-14 at m = 67), so for Jacobians up to a few thousand rows the
    1e-10 margin skips no pair that could reach the best, and the maximum is
    the same float as with an SVD of every pair. Rounding is relative only
    far from underflow, so a pair whose bound is below 1e-50, before or
    after the division by the gap, always gets its SVD.

    The pairs are drawn first, one after another as the generator gives
    them. Their Jacobians are then taken in stacked calls of _STACK_ROWS
    points, and their Gram bounds by stacked products of m x m matrices, the
    size of one pair's; the pairs are walked in order. The extra memory is
    O(_STACK_ROWS m^2).

    Raises BoundUnavailableError naming the radius and the probe pair when a
    pair's Jacobian difference is not finite (such a D is never skipped: its
    bound is NaN or inf); no SVD of non-finite data is taken.
    """
    rng = np.random.default_rng(seed)
    x0 = np.asarray(x0, dtype=float)
    ends = np.array([_sample_ball(rng, x0, radius) for _ in range(2 * probe_count)])
    u, v = ends[0::2], ends[1::2]
    chunk = _STACK_ROWS // 2
    best = 0.0
    # Overflow at far-out probes shows up as a non-finite D, reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, probe_count, chunk):
            stop = min(start + chunk, probe_count)
            diffs = _pair_differences(problem, u[start:stop], v[start:stop], params)
            for pair, diff, scale in zip(range(start, stop), diffs, _gram_bound(diffs)):
                gap = np.linalg.norm(u[pair] - v[pair])
                if gap == 0.0:
                    continue
                bound = scale / gap * (1.0 + _GRAM_BOUND_MARGIN)
                if min(scale, bound) > _GRAM_BOUND_FLOOR and bound < best:
                    continue
                if not np.isfinite(diff).all():
                    raise BoundUnavailableError(
                        f"Lipschitz probe pair {pair} of {probe_count} at radius {radius!r} "
                        "gives a non-finite Jacobian difference; use a smaller radius or "
                        "an exact Lipschitz constant"
                    )
                best = max(best, float(_scipy_linalg().svdvals(diff)[0]) / gap)
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
    sigma = _scipy_linalg().svdvals(j0)
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
