from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uqflow.moments import (
    default_orders,
    moment_estimates,
    monte_carlo_oracle,
    quadrature_plan,
)
from uqflow.sparse_grid import GridRule, build_plan, build_surrogate, polynomial_space


def test_uniform_linear_moments():
    plan = quadrature_plan([5])
    est = moment_estimates(lambda pts: pts[:, 0], plan)
    assert est.mean == pytest.approx(0.0, abs=1e-14)
    assert est.variance == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_uniform_product_moments():
    # f = q1^2 q2^2 on U[-1,1]^2: mean 1/9, variance 1/25 - 1/81
    plan = quadrature_plan([5, 5])
    est = moment_estimates(lambda pts: pts[:, 0] ** 2 * pts[:, 1] ** 2, plan)
    assert est.mean == pytest.approx(1.0 / 9.0, abs=1e-14)
    assert est.variance == pytest.approx(1.0 / 25.0 - 1.0 / 81.0, abs=1e-14)


def test_variance_clamped_nonnegative():
    plan = quadrature_plan([3])
    est = moment_estimates(lambda pts: np.full(pts.shape[0], 2.5), plan)
    assert est.variance == 0.0
    assert abs(est.raw_variance) < 1e-14


def test_variance_does_not_cancel_against_a_large_mean():
    # Var[1e4 + q] = 1/3 on U[-1, 1]; E[S^2] - E[S]^2 loses ~1e-8 of it to
    # cancellation, and leaves round-off on the constant column.
    plan = quadrature_plan([3])
    scalar = moment_estimates(lambda pts: 1e4 + pts[:, 0], plan)
    assert scalar.variance == pytest.approx(1.0 / 3.0, rel=1e-10)
    columns = moment_estimates(
        lambda pts: np.column_stack([1e4 + pts[:, 0], np.full(pts.shape[0], 2.5)]),
        plan,
    )
    assert columns.variance[0] == pytest.approx(1.0 / 3.0, rel=1e-10)
    assert columns.variance[1] == 0.0
    assert columns.raw_variance[1] == 0.0


def test_surrogate_and_callable_targets_agree():
    from uqflow.sparse_grid import build_plan, build_surrogate, evaluate_surrogate

    plan = quadrature_plan([4, 3])
    grid = build_plan(GridRule("smolyak", "clenshaw_curtis"), 2, 2)
    surrogate = build_surrogate(grid, lambda q: float(np.sin(q[0]) + q[1] ** 2))
    direct = moment_estimates(surrogate, plan)
    wrapped = moment_estimates(lambda pts: evaluate_surrogate(surrogate, pts), plan)
    # The Surrogate target is contracted axis by axis on the grid, the callable
    # point by point: the same Gauss sums in two summation orders.
    assert direct.mean == wrapped.mean
    assert abs(direct.variance - wrapped.variance) <= 1e-15 * abs(wrapped.variance)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["smolyak", "td", "hc"]),
    family=st.sampled_from(["clenshaw_curtis", "gauss_legendre"]),
    dims=st.integers(1, 3),
    w=st.integers(0, 3),
    pick=st.integers(0, 2**32 - 1),
)
def test_tensor_rule_mean_is_exact_on_polynomial_space(kind, family, dims, w, pick):
    """A surrogate of a monomial the plan reproduces gets the exact mean
    prod_d E[q^p_d] (1 / (p_d + 1) for even p_d, else 0) at default_orders."""
    rule = GridRule(kind, family)
    space = polynomial_space(rule, w, dims)
    powers = space[pick % len(space)]
    surrogate = build_surrogate(
        build_plan(rule, w, dims), lambda q: float(np.prod(q**powers))
    )
    est = moment_estimates(surrogate, quadrature_plan(default_orders(rule, w, dims)))
    exact = np.prod([0.0 if p % 2 else 1.0 / (p + 1) for p in powers])
    assert est.mean == pytest.approx(exact, abs=1e-14)


def test_default_orders_track_level():
    rule = GridRule("smolyak", "clenshaw_curtis")
    assert default_orders(rule, 0, 2) == [2, 2]
    assert default_orders(rule, 1, 2) == [2, 2]
    assert default_orders(rule, 2, 2) == [3, 3]
    assert default_orders(rule, 3, 2) == [5, 5]


def test_monte_carlo_oracle_seeded():
    f = lambda pts: pts[:, 0] ** 2
    a = monte_carlo_oracle(f, 2, 50_000, seed=3)
    b = monte_carlo_oracle(f, 2, 50_000, seed=3)
    c = monte_carlo_oracle(f, 2, 50_000, seed=4)
    assert a.mean == b.mean and a.variance == b.variance
    assert a.mean != c.mean
    # E[q^2] = 1/3, Var[q^2] = 1/5 - 1/9 = 4/45
    assert a.mean == pytest.approx(1.0 / 3.0, abs=5 * a.se_mean)
    assert a.variance == pytest.approx(4.0 / 45.0, abs=5 * a.se_variance)
    assert a.se_mean == pytest.approx(
        np.sqrt(a.variance / a.count), rel=1e-12
    )


def test_monte_carlo_custom_sampler():
    half = monte_carlo_oracle(
        lambda pts: pts[:, 0],
        1,
        10_000,
        seed=0,
        sampler=lambda rng, n: rng.uniform(0.0, 1.0, (n, 1)),
    )
    assert half.mean == pytest.approx(0.5, abs=5 * half.se_mean)
