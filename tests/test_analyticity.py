from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqflow.analyticity import (
    EllipseRegion,
    _probe_bounds,
    admissible_region_search,
    bound_constants,
    convergence_bound,
    estimate_perturbation_norms,
    mtilde_bound,
)
from uqflow.case_io import load_case, to_network
from uqflow.errors import BoundUnavailableError, InfeasibleRegionError, SingularJacobianError
from uqflow.newton import NewtonProblem, parameter_slopes
from uqflow.powerflow import initial_state, parametric_problem
from uqflow.study import study_perturbation

# x^2 - q with the nominal q = 2: root sqrt(2), kappa = 1/3 at x0 = 1.5
SHIFTED = NewtonProblem(
    residual=lambda x, p: x[..., :1] ** 2 - p[..., :1],
    jacobian=lambda x, p: 2.0 * x[..., :1, None],
)

# x^2 - (2 + 0.1 q): the map used for region searches around q = 0
COUPLED = NewtonProblem(
    residual=lambda x, p: x[..., :1] ** 2 - (2.0 + 0.1 * p[..., :1]),
    jacobian=lambda x, p: 2.0 * x[..., :1, None],
)

# no parameter coupling at all: every admissible radius certifies
CONSTANT = NewtonProblem(
    residual=lambda x, p: x[..., :1] ** 2 - 2.0,
    jacobian=lambda x, p: 2.0 * x[..., :1, None],
)

X0 = np.array([1.5])
KAPPA = 1.0 / 3.0
DELTA = 1.0 / 12.0
# the extended constants cmd_certify targets by default
KAPPA_E = 2.0 * KAPPA
DELTA_E = 4.0 * DELTA


def _shifted_norms(q, v):
    slopes = parameter_slopes(SHIFTED, X0, 1)
    return estimate_perturbation_norms(SHIFTED, X0, slopes, np.array([q]), np.array([v]))


def test_ellipse_region_validation():
    assert EllipseRegion((0.5, 1.25)).sigma_hat == (0.5, 1.25)
    with pytest.raises(ValueError, match="region needs at least one dimension"):
        EllipseRegion(())
    with pytest.raises(ValueError):
        EllipseRegion((-0.1,))
    with pytest.raises(ValueError):
        EllipseRegion((math.nan,))


def test_perturbation_norms_hand_oracle():
    # v purely imaginary with |v| = 0.1: the Jacobian 2x never reacts to q,
    # so E vanishes and G is exactly the imaginary residual magnitude.
    est = _shifted_norms(2.0, 0.1j)
    assert est.e_norm == 0.0
    assert est.g_norm == pytest.approx(0.1, abs=1e-12)


def test_perturbation_norms_zero_direction():
    est = _shifted_norms(2.0, 0.0)
    assert est.e_norm == 0.0
    assert est.g_norm == 0.0


def test_perturbation_norms_monotone_in_direction():
    sizes = [0.05, 0.1, 0.2, 0.4]
    norms = [_shifted_norms(2.0, s * 1j).g_norm for s in sizes]
    assert all(b > a for a, b in zip(norms, norms[1:]))


def test_perturbation_norms_reject_a_non_affine_problem():
    # x^2 - p^2 bends in p: at g = 0.5i the residual is 2.5, while the unit
    # slope from p = 0 predicts 2.25 - 0.5i
    squared = NewtonProblem(
        residual=lambda x, p: x[..., :1] ** 2 - p[..., :1] ** 2,
        jacobian=lambda x, p: 2.0 * x[..., :1, None],
    )
    slopes = parameter_slopes(squared, X0, 1)
    with pytest.raises(InfeasibleRegionError, match=r"not affine.*g = \[0\.5j\]"):
        estimate_perturbation_norms(squared, X0, slopes, np.array([0.0]), np.array([0.5j]))


@pytest.mark.parametrize(
    ("q", "v", "shapes"),
    [
        ([0.0, 0.0], [0.1j], r"\(2,\) and \(1,\)"),
        ([0.0], [[0.1j]], r"\(1,\) and \(1, 1\)"),
        (0.0, 0.1j, r"\(\) and \(\)"),
    ],
)
def test_perturbation_norms_reject_a_wrong_shape(q, v, shapes):
    slopes = parameter_slopes(SHIFTED, X0, 1)
    with pytest.raises(ValueError, match=rf"q and v need 1 entries, got shapes {shapes}"):
        estimate_perturbation_norms(SHIFTED, X0, slopes, np.array(q), np.array(v))


def test_perturbation_norms_reject_a_quadratic_term_off_zero():
    # x^2 - p - p^2: the model from p = 0 predicts 1.25 - 0.6i at g = 0.5 + 0.3i,
    # where the residual is 1.59 - 0.6i
    bent = NewtonProblem(
        residual=lambda x, p: x[..., :1] ** 2 - p[..., :1] - p[..., :1] ** 2,
        jacobian=lambda x, p: 2.0 * x[..., :1, None],
    )
    slopes = parameter_slopes(bent, X0, 1)
    with pytest.raises(InfeasibleRegionError, match=r"not affine.*g = \[\(0\.5\+0\.3j\)\]"):
        estimate_perturbation_norms(bent, X0, slopes, np.array([0.5]), np.array([0.3j]))


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 5),
    dims=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_perturbation_norms_match_the_direct_formula(m, dims, seed, data):
    # f(x, p) = (A0 + sum_k p_k A_k) x + b0 + sum_k p_k b_k, with A0 diagonally
    # dominant enough that the real system is regular everywhere in the box
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, size=(dims + 1, m, m))
    a[0] += (1.0 + m * (dims + 1)) * np.eye(m)
    b = rng.uniform(-1.0, 1.0, size=(dims + 1, m))
    x0 = rng.uniform(-1.0, 1.0, size=m)

    def jacobian(x, p):
        return a[0] + np.tensordot(p, a[1:], axes=1)

    def residual(x, p):
        return (jacobian(x, p) @ x[..., None])[..., 0] + b[0] + p @ b[1:]

    anchor = st.floats(-1.0, 1.0, allow_subnormal=False)
    offset = st.complex_numbers(max_magnitude=2.0, allow_subnormal=False)
    q = np.array(data.draw(st.lists(anchor, min_size=dims, max_size=dims)))
    v = np.array(data.draw(st.lists(offset, min_size=dims, max_size=dims)), dtype=complex)
    problem = NewtonProblem(residual=residual, jacobian=jacobian)
    est = estimate_perturbation_norms(problem, x0, parameter_slopes(problem, x0, dims), q, v)

    f_k = a[1:] @ x0 + b[1:]  # (dims, m) residual slopes
    re_v, im_v = np.abs(v.real), v.imag
    e_direct = np.linalg.norm(
        np.tensordot(re_v, np.abs(a[1:]), axes=1) + 1j * np.tensordot(im_v, a[1:], axes=1), 2
    )
    g_direct = math.hypot(np.linalg.norm(re_v @ np.abs(f_k)), np.linalg.norm(im_v @ f_k))
    assert est.e_norm == pytest.approx(e_direct, rel=1e-12, abs=0.0)
    assert est.g_norm == pytest.approx(g_direct, rel=1e-12, abs=0.0)


def test_load_study_perturbation_is_exactly_zero():
    # G and B do not depend on the loads, so every dJ_k is zero and the
    # perturbation matrix has no nonzero entry: its norm is 0.0 with no SVD
    net = to_network(load_case("bundled:case39"))
    problem = parametric_problem(net, study_perturbation(net, "load", 2, 0.5))
    x0 = initial_state(net, "flat")
    slopes = parameter_slopes(problem, x0, 2)
    assert not slopes.dj.any()
    q, v = np.array([0.3, -1.0]), np.array([0.2 + 0.5j, -0.7j])
    est = estimate_perturbation_norms(problem, x0, slopes, q, v)
    assert est.e_norm == 0.0
    assert est.g_norm > 0.0


def test_certifies_thresholds():
    est = _shifted_norms(2.0, 0.1j)
    assert est.certifies(KAPPA, DELTA, 2 * KAPPA, 3 * DELTA)
    # delta_e/kappa_e at exactly delta/kappa leaves no room for any G
    assert not est.certifies(KAPPA, DELTA, 2 * KAPPA, 2 * DELTA)


def test_region_search_frozen_radius():
    region = admissible_region_search(COUPLED, X0, KAPPA, DELTA, KAPPA_E, DELTA_E, dims=1, seed=0)
    assert region.sigma_hat == (1.646484375,)
    again = admissible_region_search(COUPLED, X0, KAPPA, DELTA, KAPPA_E, DELTA_E, dims=1, seed=99)
    assert again.sigma_hat == (1.646484375,)


def test_region_search_grows_with_delta_budget():
    tight = admissible_region_search(COUPLED, X0, KAPPA, DELTA, KAPPA_E, 3 * DELTA, dims=1, seed=0)
    loose = admissible_region_search(COUPLED, X0, KAPPA, DELTA, KAPPA_E, 6 * DELTA, dims=1, seed=0)
    assert tight.sigma_hat == (1.046875,)
    assert loose.sigma_hat == (2.0,)  # runs into the cap


def test_region_search_uncoupled_problem_hits_cap():
    region = admissible_region_search(
        CONSTANT, X0, KAPPA, DELTA, KAPPA_E, DELTA_E, dims=1, sigma_cap=1.7, seed=0
    )
    assert region.sigma_hat == (1.7,)


def test_region_interior_points_actually_solve():
    # the whole point of the certificate: inside the region, the complexified
    # iteration converges — spot-check 20 random interior parameters
    from uqflow.newton import solve

    region = admissible_region_search(COUPLED, X0, KAPPA, DELTA, KAPPA_E, DELTA_E, dims=1, seed=0)
    sigma = region.sigma_hat[0]
    rng = np.random.default_rng(12)
    for _ in range(20):
        r = rng.uniform(0.0, sigma)
        ang = rng.uniform(0.0, 2.0 * math.pi)
        # on the ellipse of log-radius r < sigma_hat, so inside the region
        g = math.cosh(r) * math.cos(ang) + 1j * math.sinh(r) * math.sin(ang)
        trace = solve(COUPLED, np.array([1.5 + 0.0j]), np.array([g]), max_iter=40)
        assert trace.converged


def test_region_search_rejects_empty_budgets():
    with pytest.raises(InfeasibleRegionError, match=r"kappa must be positive, got 0\.0"):
        admissible_region_search(COUPLED, X0, 0.0, DELTA, KAPPA_E, DELTA_E, dims=1)
    with pytest.raises(InfeasibleRegionError):
        admissible_region_search(COUPLED, X0, KAPPA, DELTA, KAPPA, DELTA_E, dims=1)
    with pytest.raises(InfeasibleRegionError):
        admissible_region_search(COUPLED, X0, KAPPA, DELTA, 2 * KAPPA, DELTA, dims=1)


@pytest.mark.parametrize("sigma_cap", [711.0, 800.0, math.inf])
def test_region_search_rejects_an_overflowing_sigma_cap(sigma_cap):
    with pytest.raises(InfeasibleRegionError, match=r"sigma_cap \(.*\) is too large"):
        admissible_region_search(
            COUPLED, X0, KAPPA, DELTA, KAPPA_E, DELTA_E, dims=1, sigma_cap=sigma_cap
        )


# J = 1 + p is singular at p = -1, the anchor clip(Re g) of every probe that
# reaches past the left end of the box
HINGE = NewtonProblem(
    residual=lambda x, p: (1.0 + p[..., :1]) * x[..., :1] - 2.0,
    jacobian=lambda x, p: 1.0 + p[..., :1, None],
)


def test_region_search_rejects_a_singular_anchor():
    # the probes of seed 1 reach past the left end of the box
    with pytest.raises(SingularJacobianError, match=r"iteration 0: .* at the anchor q=\[-1\.0\]$"):
        admissible_region_search(HINGE, X0, 1.0, 0.5, 2.0, 2.0, dims=1, seed=1)


def test_region_search_decides_probes_in_order():
    # Every step probes both ends of the box, so every seed meets the
    # singular anchor p = -1 of its first step whose earlier probes pass.
    for seed in range(10):
        with pytest.raises(SingularJacobianError):
            admissible_region_search(HINGE, X0, 1.0, 0.5, 2.0, 2.0, dims=1, seed=seed)
    # Within a step a probe that fails ends the step before a later probe's
    # singular anchor is tested: here g = 3 fails (|Re v| |dJ| = 2 >= 0.5)
    # and the anchor of g = -1 is singular.
    slopes = parameter_slopes(HINGE, X0, 1)
    q, v = np.array([[1.0], [-1.0]]), np.array([[2.0], [0.0]], dtype=complex)
    bounds = _probe_bounds(HINGE, X0, slopes, q, v, set())
    assert not next(bounds).certifies(1.0, 0.5, 2.0, 2.0)
    with pytest.raises(SingularJacobianError, match=r"iteration 0: .* at the anchor q=\[-1\.0\]$"):
        next(bounds)


@settings(max_examples=40, deadline=None)
@given(end=st.sampled_from([-1.0, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_region_search_never_certifies_past_a_singular_box_end(end, seed):
    # J = 1 - end * p is singular at p = end, one end of the box [-1, 1]
    problem = NewtonProblem(
        residual=lambda x, p: (1.0 - end * p[..., :1]) * x[..., :1] - 2.0,
        jacobian=lambda x, p: 1.0 - end * p[..., :1, None],
    )
    try:
        region = admissible_region_search(problem, X0, 1.0, 0.5, 2.0, 2.0, dims=1, seed=seed)
    except SingularJacobianError:
        return
    assert region.sigma_hat == (0.0,)


def test_bound_constants_frozen_values():
    constants = bound_constants(EllipseRegion((1.0,)), m_tilde=10.0)
    assert constants.sigma == pytest.approx(0.5, abs=1e-15)
    assert constants.c1 == pytest.approx(1773.6675507189184, rel=1e-12)
    assert constants.q_coef == pytest.approx(1140.5706817876996, rel=1e-12)


def test_bound_constants_take_the_tightest_dimension():
    wide = bound_constants(EllipseRegion((1.0, 2.0)), m_tilde=3.0)
    assert wide.sigma == pytest.approx(0.5, abs=1e-15)
    # every constant follows from the smallest radius and the dimension count
    assert wide == bound_constants(EllipseRegion((1.0, 1.0)), m_tilde=3.0)


def test_bound_constants_reject_a_zero_radius_or_magnitude():
    # an EllipseRegion may hold zero radii; no rate follows from them
    with pytest.raises(ValueError, match=r"all sigma_hat entries must be positive, got min 0\.0"):
        bound_constants(EllipseRegion((1.0, 0.0)), m_tilde=3.0)
    with pytest.raises(ValueError, match=r"m_tilde must be positive, got 0\.0"):
        bound_constants(EllipseRegion((1.0,)), m_tilde=0.0)


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


def test_overflowing_constants_refuse_to_quote_a_bound():
    with pytest.raises(BoundUnavailableError, match="q_coef is not finite"):
        bound_constants(EllipseRegion((1e-6, 1e-6)), m_tilde=1e150)
    with pytest.raises(BoundUnavailableError, match="c1 is not finite"):
        bound_constants(EllipseRegion((1e-6,)), m_tilde=1e300)
    with pytest.raises(BoundUnavailableError, match="a_coef is not finite"):
        bound_constants(EllipseRegion((1e3,)), m_tilde=1.0)
    # Finite constants whose sub-exponential bound overflows: eta^mu3 > 1e308.
    with pytest.raises(BoundUnavailableError, match="bound is not finite"):
        convergence_bound(bound_constants(EllipseRegion((700.0,)), m_tilde=1.0), w=10, eta=1025)
    # c1 ~ 1.999 at 1024 dims: q_coef is finite, c1 / |1 - c1| * c1^1024 is not.
    region = EllipseRegion((2.0,) * 1024)
    constants = bound_constants(region, 1.999e-9 / bound_constants(region, 1e-9).c1)
    assert math.isfinite(constants.q_coef)
    with pytest.raises(BoundUnavailableError, match="algebraic prefactor is not finite"):
        convergence_bound(constants, w=1, eta=5)


def test_mtilde_bound_values():
    assert mtilde_bound(0.5, np.array([3.0, 4.0])) == pytest.approx(5.5, abs=1e-15)
    with pytest.raises(ValueError, match=r"t_star_e must be >= 0, got -1\.0"):
        mtilde_bound(-1.0, np.array([1.5]))
    t_star = 1.5 - math.sqrt(2.0)
    assert mtilde_bound(t_star, np.array([1.5])) == pytest.approx(
        1.5857864376269049, abs=1e-12
    )
