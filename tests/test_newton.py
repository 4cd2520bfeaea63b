from __future__ import annotations

import math

import numpy as np
import pytest

from uqflow.errors import SingularJacobianError
from uqflow.newton import (
    NewtonProblem,
    cauchy_riemann_residual,
    estimate_jacobian_lipschitz,
    kantorovich_certificate,
    solve,
)

SCALAR = NewtonProblem(
    residual=lambda x, p: np.array([x[0] ** 2 - 2.0]),
    jacobian=lambda x, p: np.array([[2.0 * x[0]]]),
)

# same map with the constant term moved into the parameter, complex-safe
PARAMETRIC = NewtonProblem(
    residual=lambda x, p: np.array([x[0] ** 2 - (2.0 + 0.1 * p[0])]),
    jacobian=lambda x, p: np.array(
        [[2.0 * x[0]]], dtype=np.result_type(np.asarray(x).dtype, np.asarray(p).dtype)
    ),
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
        residual=lambda x, p: np.array([x[0] ** 2 + 1.0]),
        jacobian=lambda x, p: np.array([[2.0 * x[0]]]),
    )
    trace = solve(problem, np.array([0.7]), tol=1e-12, max_iter=8)
    assert not trace.converged
    # a residual that turns NaN ends the iteration there, not at a pivot test
    blows_up = NewtonProblem(
        residual=lambda x, p: np.array([math.nan if x[0] > 1.2 else x[0] ** 2 - 2.0]),
        jacobian=lambda x, p: np.array([[2.0 * x[0]]]),
    )
    trace = solve(blows_up, np.array([1.3]))
    assert not trace.converged
    assert trace.iterations == 0 and math.isnan(trace.residual_norms[-1])


def test_singular_jacobian_raises():
    # an exactly zero pivot raises without a LinAlgWarning; a NaN one is unusable too
    for entry in (0.0, math.nan):
        problem = NewtonProblem(
            residual=lambda x, p: np.array([x[0] ** 2]),
            jacobian=lambda x, p: np.array([[entry]]),
        )
        with pytest.raises(SingularJacobianError):
            solve(problem, np.array([1.0]))


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
        residual=lambda x, p: np.array([x[0] ** 2 - 2.0]),
        jacobian=lambda x, p: np.array([[2.0 * x[0]]]),
    )
    cert = kantorovich_certificate(problem, np.array([0.5]), lipschitz=2.0)
    assert cert.h > 1.0
    assert not cert.satisfied
    assert math.isnan(cert.t_star)


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
    problem = NewtonProblem(
        residual=lambda x, p: np.array([x[0] + 1j * x[1] - 1.0, 1j * x[0] - x[1]]),
        jacobian=lambda x, p: np.array([[1.0, 1j], [1j, -1.0]]),
    )
    with pytest.raises(SingularJacobianError) as exc:
        solve(problem, np.array([0.3 + 0.1j, 0.2j]))
    assert exc.value.iteration == 0


def test_cauchy_riemann_flags_nonanalytic_map():
    assert cauchy_riemann_residual(lambda g: g.conjugate(), 0.3 + 0.2j) > 0.1
