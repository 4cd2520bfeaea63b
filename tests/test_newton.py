from __future__ import annotations

import functools
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import svdvals

from oracles import cauchy_riemann_residual
from uqflow.case_io import load_case, to_network
from uqflow.errors import BoundUnavailableError, SingularJacobianError
from uqflow.newton import (
    _GRAM_BOUND_MARGIN,
    NewtonProblem,
    _gram_bound,
    _sample_ball,
    estimate_jacobian_lipschitz,
    kantorovich_certificate,
    kantorovich_t_star,
    parameter_slopes,
    solve,
    taylor_predictor,
)
from uqflow.powerflow import initial_state, parametric_problem
from uqflow.study import study_perturbation

SCALAR = NewtonProblem(
    residual=lambda x, p: x[..., :1] ** 2 - 2.0,
    jacobian=lambda x, p: 2.0 * x[..., :1, None],
)

# same map with the constant term moved into the parameter, complex-safe
PARAMETRIC = NewtonProblem(
    residual=lambda x, p: x[..., :1] ** 2 - (2.0 + 0.1 * p[..., :1]),
    jacobian=lambda x, p: 2.0 * x[..., :1, None],
)


def test_scalar_newton_converges_quadratically():
    trace = solve(SCALAR, np.array([1.5]), tol=1e-13)
    assert trace.converged
    assert trace.x[0] == pytest.approx(math.sqrt(2.0), abs=1e-13)
    assert trace.iterations <= 6
    norms = [r for r in trace.residual_norms if 1e-13 < r < 1.0]
    e1, e2, e3 = norms[-3:]
    order = math.log(e3 / e2) / math.log(e2 / e1)
    assert order > 1.8


def test_newton_trace_records_iterates():
    trace = solve(SCALAR, np.array([1.5]), tol=1e-13)
    assert len(trace.iterates) == trace.iterations + 1
    assert trace.iterates[0][0] == 1.5
    assert len(trace.residual_norms) == trace.iterations + 1
    assert all(b < a for a, b in zip(trace.residual_norms, trace.residual_norms[1:]))


def test_newton_nonconvergence_reported_not_raised():
    # x^2 + 1 has no real root; the trace must say so instead of blowing up
    problem = NewtonProblem(
        residual=lambda x, p: x[..., :1] ** 2 + 1.0,
        jacobian=lambda x, p: 2.0 * x[..., :1, None],
    )
    trace = solve(problem, np.array([0.7]), tol=1e-12, max_iter=8)
    assert not trace.converged
    # a residual that turns NaN ends the iteration there, not at a pivot test
    blows_up = NewtonProblem(
        residual=lambda x, p: np.where(x[..., :1] > 1.2, math.nan, x[..., :1] ** 2 - 2.0),
        jacobian=lambda x, p: 2.0 * x[..., :1, None],
    )
    trace = solve(blows_up, np.array([1.3]))
    assert not trace.converged
    assert trace.iterations == 0 and math.isnan(trace.residual_norms[-1])


def test_singular_jacobian_raises():
    # an exactly zero pivot raises without a LinAlgWarning; a NaN one is unusable too
    for entry in (0.0, math.nan):
        problem = NewtonProblem(
            residual=lambda x, p: x[..., :1] ** 2,
            jacobian=lambda x, p: np.array([[entry]]),
        )
        with pytest.raises(SingularJacobianError):
            solve(problem, np.array([1.0]))
    # the certificate tests the smallest singular value before any LU
    diagonal = NewtonProblem(
        residual=lambda x, p: x[..., :2] ** 2 - 1.0,
        jacobian=lambda x, p: np.diag([1.0, 0.0]),
    )
    with pytest.raises(SingularJacobianError):
        kantorovich_certificate(diagonal, np.array([1.0, 1.0]), lipschitz=2.0)


def test_lipschitz_estimate_for_quadratic():
    # the Jacobian 2x is linear, so every difference quotient equals 2
    lam = estimate_jacobian_lipschitz(SCALAR, np.array([1.5]), radius=0.5, seed=2)
    assert lam == pytest.approx(2.0, rel=1e-9)


def test_kantorovich_certificate_exact_values():
    cert = kantorovich_certificate(SCALAR, np.array([1.5]), lipschitz=2.0)
    assert cert.lipschitz_is_exact
    assert cert.kappa == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert cert.delta == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert cert.h == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert cert.t_star == pytest.approx(1.5 - math.sqrt(2.0), abs=1e-12)
    assert cert.satisfied


def test_kantorovich_certificate_sampled_lipschitz():
    cert = kantorovich_certificate(SCALAR, np.array([1.5]), radius=0.5, seed=1)
    assert not cert.lipschitz_is_exact
    assert cert.lipschitz == pytest.approx(2.0, rel=1e-9)
    assert cert.satisfied


def test_kantorovich_unsatisfied_when_h_large():
    # kappa = 1, delta = 1, lambda = 2 -> h = 4 > 1
    problem = NewtonProblem(
        residual=lambda x, p: x[..., :1] ** 2 - 2.0,
        jacobian=lambda x, p: 2.0 * x[..., :1, None],
    )
    cert = kantorovich_certificate(problem, np.array([0.5]), lipschitz=2.0)
    assert cert.h > 1.0
    assert not cert.satisfied
    assert math.isnan(cert.t_star)


def test_t_star_is_delta_at_h_zero():
    # the limit of (2/h)(1 - sqrt(1 - h)) delta as h -> 0, taken without dividing by 0
    assert kantorovich_t_star(0.0, 0.25) == 0.25


@pytest.mark.parametrize(
    ("h", "want"),
    # 2 / (1 + sqrt(1 - h)) = 1 + h/4 + h^2/8 + ..., to double precision here
    [(1e-10, 1.000000000025), (1e-12, 1.00000000000025), (1e-17, 1.0)],
)
def test_t_star_does_not_cancel_at_small_h(h, want):
    assert kantorovich_t_star(h, 1.0) == pytest.approx(want, rel=1e-15)


def test_complexified_solve_tracks_real_solution():
    trace = solve(PARAMETRIC, np.array([1.5 + 0.0j]), np.array([0.0]), tol=1e-13)
    assert trace.converged
    assert trace.x.dtype == complex
    assert trace.x[0] == pytest.approx(math.sqrt(2.0), abs=1e-12)
    # purely real data: the complexified iteration must retrace the real one
    real = solve(PARAMETRIC, np.array([1.5]), np.array([0.0]), tol=1e-13)
    assert trace.iterations == real.iterations
    assert np.max(np.abs(np.asarray(trace.iterates).imag)) == 0.0
    np.testing.assert_allclose(
        np.asarray(trace.iterates).real, np.asarray(real.iterates), atol=1e-14
    )
    np.testing.assert_allclose(trace.residual_norms, real.residual_norms, atol=1e-14)


def test_complexified_solve_at_complex_parameter():
    g = np.array([0.3 + 0.05j])
    trace = solve(PARAMETRIC, np.array([1.5 + 0.0j]), g, tol=1e-13)
    assert trace.converged
    root = trace.x[0]
    assert root**2 == pytest.approx(2.0 + 0.1 * g[0], abs=1e-12)
    assert abs(root.imag) > 0.0


def test_solution_map_is_analytic():
    def root_of(g: complex) -> complex:
        trace = solve(PARAMETRIC, np.array([1.5 + 0.0j]), np.array([g]), tol=1e-13)
        assert trace.converged
        return complex(trace.x[0])

    assert cauchy_riemann_residual(root_of, 0.2 + 0.1j) < 1e-7


def test_real_start_at_complex_parameter_turns_complex():
    # a real start point is promoted once the residual turns complex
    g = np.array([0.3 + 0.05j])
    trace = solve(PARAMETRIC, np.array([1.5]), g, tol=1e-13)
    reference = solve(PARAMETRIC, np.array([1.5 + 0.0j]), g, tol=1e-13)
    assert trace.converged
    assert trace.x[0] == reference.x[0]


def test_singular_complex_jacobian_raises():
    # J = [[1, i], [i, -1]] is singular (det = -1 - i^2 = 0); its real part is not
    jac = np.array([[1.0, 1j], [1j, -1.0]])
    problem = NewtonProblem(
        residual=lambda x, p: x @ jac.T - [1.0, 0.0], jacobian=lambda x, p: jac
    )
    with pytest.raises(SingularJacobianError) as exc:
        solve(problem, np.array([0.3 + 0.1j, 0.2j]))
    assert exc.value.iteration == 0


def test_cauchy_riemann_flags_nonanalytic_map():
    assert cauchy_riemann_residual(lambda g: g.conjugate(), 0.3 + 0.2j) > 0.1


def test_taylor_predictor_hand_oracle():
    # x^2 - (2 + 0.1 p) at x0 = 1.5: J0 = 3, f0 = 0.25, df = -0.1, D_x J[T] = 2 T,
    # dJ = 0, so x_hat = 1.5 - 0.25 / 3, T = 0.1 / 3 and H = -2 T^2 / 3.
    slopes = parameter_slopes(PARAMETRIC, np.array([1.5]), 1)
    predictor = taylor_predictor(PARAMETRIC, slopes, np.array([1.5]))
    tangent = 0.1 / 3.0
    curvature = -2.0 * tangent**2 / 3.0
    assert predictor.x_hat[0] == pytest.approx(1.5 - 0.25 / 3.0, abs=1e-15)
    np.testing.assert_allclose(predictor.taylor, [[tangent, 0.5 * curvature]], rtol=1e-14)
    q = np.array([0.7])
    expected = 1.5 - 0.25 / 3.0 + tangent * 0.7 + 0.5 * curvature * 0.49
    assert predictor(q)[0] == pytest.approx(expected, abs=1e-15)
    # anchored at the root, the model is the Taylor polynomial of sqrt(2 + 0.1 p)
    root = np.array([math.sqrt(2.0)])
    at_root = taylor_predictor(PARAMETRIC, parameter_slopes(PARAMETRIC, root, 1), root)
    np.testing.assert_allclose(
        at_root.taylor, [[0.05 / math.sqrt(2.0), -0.5 * 0.0025 / 2.0**1.5]], rtol=1e-12
    )


# --- the pruned Lipschitz estimate against one SVD per probe pair ---------------


def _exhaustive_lipschitz(problem, x0, params, radius, probe_count, seed):
    """The estimate with an SVD of every probe pair: the oracle of the pruned loop."""
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


@functools.cache
def _case39_problem(study, dims):
    net = to_network(load_case("bundled:case39"))
    problem = parametric_problem(net, study_perturbation(net, study, dims, 0.5))
    return problem, initial_state(net, "flat")


# probe radii both where the Gram bound prunes and below its 1e-50 floor
_RADII = st.one_of(st.floats(1e-3, 2.0), st.floats(-100.0, -3.0).map(lambda e: 10.0**e))


@settings(max_examples=25, deadline=None)
@given(
    study=st.sampled_from(["load", "admittance"]),
    dims=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    radius=_RADII,
    probe_count=st.integers(1, 80),
    data=st.data(),
)
def test_pruned_lipschitz_equals_the_exhaustive_max_on_case39(
    study, dims, seed, radius, probe_count, data
):
    problem, x0 = _case39_problem(study, dims)
    corner = st.floats(-1.0, 1.0, allow_subnormal=False)
    params = np.array(data.draw(st.lists(corner, min_size=dims, max_size=dims)))
    args = (problem, x0, params, radius, probe_count, seed)
    assert estimate_jacobian_lipschitz(*args) == _exhaustive_lipschitz(*args)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 6),
    kind=st.sampled_from(["tied rank one", "rank one", "linear", "sine"]),
    seed=st.integers(0, 2**32 - 1),
    radius=_RADII,
    probe_count=st.integers(1, 40),
)
def test_pruned_lipschitz_equals_the_exhaustive_max_on_small_problems(
    m, kind, seed, radius, probe_count
):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((m, m))
    w = rng.standard_normal(m)
    w /= np.linalg.norm(w)
    s = rng.standard_normal(m)
    b = rng.standard_normal((m, m, m))
    c = rng.uniform(0.5, 4.0)
    # Elementwise products and sums over the state axis, so that a stacked
    # call gives every point the bits it gets alone (BLAS products need not).
    jacobians = {
        # D = c (u - v) w^T: rank one, so the Gram bound is sigma_1, and every
        # pair's ratio ties at c up to rounding
        "tied rank one": lambda x: a + c * x[..., :, None] * w,
        # D = (s . (u - v)) w w^T: rank one, ratios that differ
        "rank one": lambda x: a + (x * s).sum(axis=-1)[..., None, None] * np.outer(w, w),
        "linear": lambda x: a + (x[..., :, None, None] * b).sum(axis=-3),
        "sine": lambda x: a + np.sin(3.0 * (x[..., :, None, None] * b).sum(axis=-3)),
    }
    problem = NewtonProblem(
        residual=lambda x, p: np.zeros_like(x), jacobian=lambda x, p: jacobians[kind](x)
    )
    x0 = rng.uniform(-1.0, 1.0, size=m)
    args = (problem, x0, None, radius, probe_count, seed)
    assert estimate_jacobian_lipschitz(*args) == _exhaustive_lipschitz(*args)


@settings(max_examples=200, deadline=None)
@given(
    m=st.integers(1, 8),
    rank_one=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
    exponent=st.integers(-40, 40),
)
def test_gram_bound_is_at_least_the_largest_singular_value(m, rank_one, seed, exponent):
    rng = np.random.default_rng(seed)
    if rank_one:
        d = np.outer(rng.standard_normal(m), rng.standard_normal(m))
    else:
        d = rng.standard_normal((m, m))
    d *= 10.0**exponent
    sigma_1 = float(svdvals(d)[0])
    bound = _gram_bound(d)
    assert bound * (1.0 + _GRAM_BOUND_MARGIN) >= sigma_1
    if rank_one:  # the tight case: only rounding separates the two
        assert bound == pytest.approx(sigma_1, rel=1e-13)


def test_non_finite_lipschitz_probe_is_a_named_error(monkeypatch):
    # x^2 overflows at radius 1e200; the suite's warning filters stay on
    problem = NewtonProblem(
        residual=lambda x, p: x**3 / 3.0,
        jacobian=lambda x, p: np.where(np.eye(x.shape[-1], dtype=bool), x[..., None, :] ** 2, 0.0),
    )
    seen = []
    monkeypatch.setattr(scipy.linalg, "svdvals", lambda d: seen.append(d) or svdvals(d))
    with pytest.raises(BoundUnavailableError, match=r"probe pair 0 of 64 at radius 1e\+200"):
        estimate_jacobian_lipschitz(problem, np.array([0.5, -0.5]), radius=1e200)
    assert seen == []
