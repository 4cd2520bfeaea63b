from __future__ import annotations

import math

import numpy as np
import pytest

from uqflow.analyticity import (
    EllipseRegion,
    admissible_region_search,
    bound_constants,
    convergence_bound,
    ellipse_contains,
    estimate_perturbation_norms,
    mtilde_bound,
)
from uqflow.errors import BoundUnavailableError, InfeasibleRegionError
from uqflow.newton import NewtonProblem

# x^2 - q with the nominal q = 2: root sqrt(2), kappa = 1/3 at x0 = 1.5
SHIFTED = NewtonProblem(
    residual=lambda x, p: np.array([x[0] ** 2 - p[0]]),
    jacobian=lambda x, p: np.array(
        [[2.0 * x[0]]], dtype=np.result_type(np.asarray(x).dtype, np.asarray(p).dtype)
    ),
)

# x^2 - (2 + 0.1 q): the map used for region searches around q = 0
COUPLED = NewtonProblem(
    residual=lambda x, p: np.array([x[0] ** 2 - (2.0 + 0.1 * p[0])]),
    jacobian=lambda x, p: np.array(
        [[2.0 * x[0]]], dtype=np.result_type(np.asarray(x).dtype, np.asarray(p).dtype)
    ),
)

# no parameter coupling at all: every admissible radius certifies
CONSTANT = NewtonProblem(
    residual=lambda x, p: np.array([x[0] ** 2 - 2.0], dtype=np.asarray(x).dtype),
    jacobian=lambda x, p: np.array([[2.0 * x[0]]], dtype=np.asarray(x).dtype),
)

X0 = np.array([1.5])
KAPPA = 1.0 / 3.0
DELTA = 1.0 / 12.0


def test_ellipse_region_validation():
    region = EllipseRegion((0.5, 1.25))
    assert region.n_dims == 2
    with pytest.raises(ValueError):
        EllipseRegion((-0.1,))
    with pytest.raises(ValueError):
        EllipseRegion((math.nan,))


def test_ellipse_contains_boundary_and_outside():
    region = EllipseRegion((0.5,))
    # the real interval [-cosh(s), cosh(s)] is exactly the degenerate slice
    assert ellipse_contains(region, np.array([math.cosh(0.5) + 0.0j]))
    assert not ellipse_contains(region, np.array([math.cosh(0.5) + 0.05j]))
    assert ellipse_contains(region, np.array([1j * math.sinh(0.49)]))
    assert not ellipse_contains(region, np.array([1j * math.sinh(0.51)]))


def test_perturbation_norms_hand_oracle():
    # v purely imaginary with |v| = 0.1: the Jacobian 2x never reacts to q,
    # so E vanishes and G is exactly the imaginary residual magnitude.
    est = estimate_perturbation_norms(SHIFTED, X0, np.array([2.0]), np.array([0.1j]))
    assert est.e_norm == 0.0
    assert est.g_norm == pytest.approx(0.1, abs=1e-12)
    assert est.kappa == pytest.approx(KAPPA, abs=1e-15)
    assert est.delta == pytest.approx(DELTA, abs=1e-15)
    assert est.kappa_e == pytest.approx(est.kappa, abs=1e-15)
    assert est.delta_e == pytest.approx(est.delta + est.kappa * 0.1, abs=1e-12)


def test_perturbation_norms_zero_direction():
    est = estimate_perturbation_norms(SHIFTED, X0, np.array([2.0]), np.array([0.0]))
    assert est.e_norm == 0.0
    assert est.g_norm == 0.0


def test_perturbation_norms_monotone_in_direction():
    sizes = [0.05, 0.1, 0.2, 0.4]
    norms = [
        estimate_perturbation_norms(SHIFTED, X0, np.array([2.0]), np.array([s * 1j])).g_norm
        for s in sizes
    ]
    assert all(b > a for a, b in zip(norms, norms[1:]))


def test_perturbation_norms_reject_a_non_affine_problem():
    # x^2 - p^2 bends in p: at g = 0.5i the residual is 2.5, while the unit
    # slope from p = 0 predicts 2.25 - 0.5i
    squared = NewtonProblem(
        residual=lambda x, p: np.array([x[0] ** 2 - p[0] ** 2]),
        jacobian=lambda x, p: np.array(
            [[2.0 * x[0]]], dtype=np.result_type(np.asarray(x).dtype, np.asarray(p).dtype)
        ),
    )
    with pytest.raises(InfeasibleRegionError, match=r"not affine.*g = \[0\.5j\]"):
        estimate_perturbation_norms(squared, X0, np.array([0.0]), np.array([0.5j]))


def test_certifies_thresholds():
    est = estimate_perturbation_norms(SHIFTED, X0, np.array([2.0]), np.array([0.1j]))
    assert est.certifies(kappa_e=2 * KAPPA, delta_e=3 * DELTA)
    # delta_e/kappa_e at exactly delta/kappa leaves no room for any G
    assert not est.certifies(kappa_e=2 * KAPPA, delta_e=2 * DELTA)


def test_region_search_frozen_radius():
    region = admissible_region_search(COUPLED, X0, KAPPA, DELTA, dims=1, seed=0)
    assert region.sigma_hat == (1.646484375,)
    again = admissible_region_search(COUPLED, X0, KAPPA, DELTA, dims=1, seed=99)
    assert again.sigma_hat == (1.646484375,)


def test_region_search_grows_with_delta_budget():
    tight = admissible_region_search(
        COUPLED, X0, KAPPA, DELTA, delta_e=3 * DELTA, dims=1, seed=0
    )
    loose = admissible_region_search(
        COUPLED, X0, KAPPA, DELTA, delta_e=6 * DELTA, dims=1, seed=0
    )
    assert tight.sigma_hat == (1.046875,)
    assert loose.sigma_hat == (2.0,)  # runs into the cap


def test_region_search_uncoupled_problem_hits_cap():
    region = admissible_region_search(
        CONSTANT, X0, KAPPA, DELTA, dims=1, sigma_cap=1.7, seed=0
    )
    assert region.sigma_hat == (1.7,)


def test_region_interior_points_actually_solve():
    # the whole point of the certificate: inside the region, the complexified
    # iteration converges — spot-check 20 random interior parameters
    from uqflow.newton import solve_complexified

    region = admissible_region_search(COUPLED, X0, KAPPA, DELTA, dims=1, seed=0)
    sigma = region.sigma_hat[0]
    rng = np.random.default_rng(12)
    for _ in range(20):
        r = rng.uniform(0.0, sigma)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        g = math.cosh(r) * math.cos(ang) + 1j * math.sinh(r) * math.sin(ang)
        assert ellipse_contains(region, np.array([g]))
        trace = solve_complexified(COUPLED, np.array([1.5 + 0.0j]), np.array([g]))
        assert trace.converged


def test_region_search_rejects_empty_budgets():
    with pytest.raises(InfeasibleRegionError):
        admissible_region_search(COUPLED, X0, KAPPA, DELTA, kappa_e=KAPPA, dims=1)
    with pytest.raises(InfeasibleRegionError):
        admissible_region_search(
            COUPLED, X0, KAPPA, DELTA, kappa_e=2 * KAPPA, delta_e=DELTA, dims=1
        )


def test_bound_constants_frozen_values():
    constants = bound_constants(EllipseRegion((1.0,)), m_tilde=10.0)
    assert constants.sigma == pytest.approx(0.5, abs=1e-15)
    assert constants.c1 == pytest.approx(1773.6675507189184, rel=1e-12)
    assert constants.q_coef == pytest.approx(1140.5706817876996, rel=1e-12)


def test_bound_constants_accept_sequences():
    a = bound_constants(EllipseRegion((1.0, 2.0)), m_tilde=3.0)
    b = bound_constants((1.0, 2.0), m_tilde=3.0)
    assert a == b
    # the tightest dimension controls the rate
    assert a.sigma == pytest.approx(0.5, abs=1e-15)


def test_convergence_bound_regimes():
    one_dim = bound_constants(EllipseRegion((1.0,)), m_tilde=10.0)
    regime, _ = convergence_bound(one_dim, w=2, eta=5)
    assert regime == "sub-exponential"  # 2 > 1/log 2
    wide = bound_constants(EllipseRegion((1.0,) * 12), m_tilde=10.0)
    regime, _ = convergence_bound(wide, w=4, eta=1000)
    assert regime == "algebraic"  # 4 <= 12/log 2


def test_convergence_bound_decreases_in_eta():
    constants = bound_constants(EllipseRegion((1.0,)), m_tilde=10.0)
    values = [convergence_bound(constants, w, eta).bound for w, eta in
              ((2, 5), (3, 9), (4, 17), (5, 33))]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert all(v > 0 for v in values)


def test_convergence_bound_requires_eta_at_least_one():
    constants = bound_constants(EllipseRegion((1.0,)), m_tilde=10.0)
    with pytest.raises(ValueError):
        convergence_bound(constants, w=1, eta=0)


def test_degenerate_c1_refuses_to_quote_a_bound():
    # pick m_tilde so the leading constant lands exactly on its pole
    probe = bound_constants(EllipseRegion((1.0,)), m_tilde=1.0)
    m_star = 1.0 / probe.c1
    degenerate = bound_constants(EllipseRegion((1.0,)), m_tilde=m_star)
    assert math.isinf(degenerate.q_coef)
    with pytest.raises(BoundUnavailableError):
        convergence_bound(degenerate, w=2, eta=5)


def test_mtilde_bound_values():
    assert mtilde_bound(0.5, np.array([3.0, 4.0])) == pytest.approx(5.5, abs=1e-15)
    t_star = 1.5 - math.sqrt(2.0)
    assert mtilde_bound(t_star, np.array([1.5])) == pytest.approx(
        1.5857864376269049, abs=1e-12
    )
