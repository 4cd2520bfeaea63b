from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqflow
from uqflow.moments import (
    QuadraturePlan,
    default_orders,
    moment_estimates,
    monte_carlo_oracle,
    quadrature_plan,
)
from uqflow.sparse_grid import (
    GridRule,
    build_plan,
    build_surrogate,
    evaluate_on_grid,
    evaluate_surrogate,
    polynomial_space,
)


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


_MOMENTS_IN_A_CHILD = """
import numpy as np
from uqflow.moments import default_orders, moment_estimates, quadrature_plan
from uqflow.sparse_grid import GridRule, Surrogate, build_plan
rule = GridRule("smolyak")
plan = build_plan(rule, 4, 5)
values = 1.0 + 0.1 * np.random.default_rng(0).standard_normal((plan.n_knots, 1))
est = moment_estimates(Surrogate(plan, values, True), quadrature_plan(default_orders(rule, 4, 5)))
print(repr(est.mean), repr(est.variance))
"""


def test_moments_do_not_depend_on_the_blas_thread_count():
    """A 5-dim w=4 surrogate (59,049 tensor points) gets the same mean and
    variance, to the last bit, with one OpenBLAS thread and with two. Each
    run is a child process, because OpenBLAS reads the variable only at
    start-up. A host with one CPU runs both children on one thread, so there
    the test cannot tell the difference."""
    env = dict(os.environ, PYTHONPATH=str(Path(uqflow.__file__).parents[1]))
    printed = [
        subprocess.run(
            [sys.executable, "-c", _MOMENTS_IN_A_CHILD],
            env=dict(env, OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        ).stdout
        for threads in ("1", "2")
    ]
    assert printed[0] and printed[0] == printed[1]


def _sine_surrogate():
    grid = build_plan(GridRule("smolyak", "clenshaw_curtis"), 2, 2)
    return build_surrogate(grid, lambda q: float(np.sin(q[0]) + q[1] ** 2))


def test_surrogate_and_callable_targets_agree():
    surrogate = _sine_surrogate()
    plan = quadrature_plan([4, 3])
    direct = moment_estimates(surrogate, plan)
    wrapped = moment_estimates(lambda pts: evaluate_surrogate(surrogate, pts), plan)
    # The Surrogate target is contracted axis by axis on the grid (tensordot),
    # the callable point by point (einsum): the same basis rows in two
    # summation orders, whose values may round apart in the last bit at any
    # barycentric weights (here at 2 of the 12 points; on a (5, 4) plan the
    # means differ by 2 ulps with the product-formula weights too).
    assert abs(direct.mean - wrapped.mean) <= np.spacing(abs(wrapped.mean))
    assert abs(direct.variance - wrapped.variance) <= 1e-15 * abs(wrapped.variance)


def test_surrogate_and_callable_targets_agree_bitwise_on_shared_nodes():
    """At points on {-1, 0, 1}^2, nodes of every Clenshaw-Curtis count but 1
    (whose basis is the constant 1), every basis row is exact, so both paths
    read the stored values with no rounding and agree bit for bit."""
    surrogate = _sine_surrogate()
    nodes, weights = np.array([-1.0, 0.0, 1.0]), np.array([1.0, 4.0, 1.0]) / 6.0
    plan = QuadraturePlan(nodes=(nodes, nodes), weights=(weights, weights))
    on_grid = evaluate_on_grid(surrogate, plan.nodes)
    assert np.array_equal(on_grid, evaluate_surrogate(surrogate, plan.points))
    direct = moment_estimates(surrogate, plan)
    wrapped = moment_estimates(lambda pts: evaluate_surrogate(surrogate, pts), plan)
    assert direct.mean == wrapped.mean
    assert direct.variance == wrapped.variance


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
