from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uqflow.moments import quadrature_plan
from uqflow.sparse_grid import (
    GridRule,
    Surrogate,
    admissible_indices,
    build_plan,
    build_surrogate,
    combination_coefficients,
    evaluate_on_grid,
    evaluate_surrogate,
    polynomial_space,
    surrogate_from_json,
    surrogate_to_json,
)

SMOLYAK = GridRule("smolyak", "clenshaw_curtis")


def _monomial(powers):
    powers = np.asarray(powers)

    def f(q):
        return float(np.prod(np.asarray(q) ** powers))

    return f


def test_grid_rule_rejects_unknown_names():
    with pytest.raises(ValueError):
        GridRule("simpson", "clenshaw_curtis")
    with pytest.raises(ValueError):
        GridRule("smolyak", "chebyshev")


def test_smolyak_knot_counts_two_dims():
    # doubling growth with nested nodes: the classic 1, 5, 13, 29, 65, 145
    counts = [len(build_plan(SMOLYAK, w, 2).knots) for w in range(6)]
    assert counts == [1, 5, 13, 29, 65, 145]


def test_smolyak_knots_are_nested():
    for w in range(4):
        coarse = {tuple(k) for k in build_plan(SMOLYAK, w, 2).knots.tolist()}
        fine = {tuple(k) for k in build_plan(SMOLYAK, w + 1, 2).knots.tolist()}
        assert coarse <= fine


def test_admissible_indices_budgets():
    assert admissible_indices(GridRule("td", "clenshaw_curtis"), 2, 2) == [
        (1, 1),
        (1, 2),
        (1, 3),
        (2, 1),
        (2, 2),
        (3, 1),
    ]
    hc = admissible_indices(GridRule("hc", "clenshaw_curtis"), 3, 2)
    assert all(i * j <= 4 for i, j in hc)
    assert (2, 2) in hc and (1, 4) in hc and (2, 3) not in hc


def test_combination_coefficients_telescope():
    coeffs = combination_coefficients(SMOLYAK, 2, 2)
    assert coeffs == {
        (1, 1): 0,
        (1, 2): -1,
        (1, 3): 1,
        (2, 1): -1,
        (2, 2): 1,
        (3, 1): 1,
    }
    # any rule/level: coefficients of a telescoping sum reproduce constants
    for rule in (SMOLYAK, GridRule("td", "clenshaw_curtis"), GridRule("hc", "clenshaw_curtis")):
        for w in range(4):
            assert sum(combination_coefficients(rule, w, 3).values()) == 1


def test_plan_terms_are_the_nonzero_coefficients():
    for w in range(4):
        plan = build_plan(SMOLYAK, w, 2)
        nonzero = {
            levels: c for levels, c in combination_coefficients(SMOLYAK, w, 2).items() if c != 0
        }
        assert {t.levels: t.coefficient for t in plan.terms} == nonzero


def test_quadrature_weights_positive_and_normalized():
    plan = quadrature_plan([4, 5])
    for weights in plan.weights:
        assert np.all(weights > 0)
        assert weights.sum() == pytest.approx(1.0, abs=1e-12)


def test_surrogate_matches_values_at_knots():
    plan = build_plan(SMOLYAK, 3, 2)
    f = lambda q: math.sin(1.3 * q[0]) * math.exp(0.5 * q[1])
    surrogate = build_surrogate(plan, f)
    got = evaluate_surrogate(surrogate, plan.knots)
    want = np.array([f(k) for k in plan.knots])
    np.testing.assert_allclose(got, want, atol=1e-12)


@pytest.mark.parametrize("kind", ["smolyak", "td", "hc"])
def test_polynomial_space_membership(kind):
    rule = GridRule(kind, "clenshaw_curtis")
    space = {tuple(row) for row in polynomial_space(rule, 3, 2)}
    assert (0, 0) in space
    if kind == "td":
        assert space == {(p1, p2) for p1 in range(4) for p2 in range(4) if p1 + p2 <= 3}
    if kind == "hc":
        assert space == {
            (p1, p2) for p1 in range(4) for p2 in range(4) if (p1 + 1) * (p2 + 1) <= 4
        }
    if kind == "smolyak":
        # doubling rule at w=3 resolves degree 8 on-axis but not mixed (8, 1)
        assert (8, 0) in space and (0, 8) in space
        assert (8, 1) not in space


@pytest.mark.parametrize("kind", ["smolyak", "td", "hc"])
def test_exactness_on_polynomial_space(kind):
    rule = GridRule(kind, "clenshaw_curtis")
    rng = np.random.default_rng(5)
    plan = build_plan(rule, 3, 2)
    space = polynomial_space(rule, 3, 2)
    rows = space[rng.choice(len(space), size=min(8, len(space)), replace=False)]
    pts = rng.uniform(-1.0, 1.0, (50, 2))
    for powers in rows:
        f = _monomial(powers)
        surrogate = build_surrogate(plan, f)
        got = evaluate_surrogate(surrogate, pts)
        want = np.prod(pts**powers, axis=1)
        np.testing.assert_allclose(got, want, atol=1e-11)


def test_gauss_family_is_also_exact():
    rule = GridRule("td", "gauss_legendre")
    rng = np.random.default_rng(6)
    plan = build_plan(rule, 3, 2)
    pts = rng.uniform(-1.0, 1.0, (50, 2))
    surrogate = build_surrogate(plan, _monomial((2, 1)))
    np.testing.assert_allclose(
        evaluate_surrogate(surrogate, pts), pts[:, 0] ** 2 * pts[:, 1], atol=1e-11
    )


def test_vector_valued_surrogate():
    plan = build_plan(SMOLYAK, 2, 2)
    f = lambda q: np.array([q[0] ** 2, q[0] * q[1], 1.0])
    surrogate = build_surrogate(plan, f)
    pts = np.random.default_rng(7).uniform(-1.0, 1.0, (20, 2))
    got = evaluate_surrogate(surrogate, pts)
    assert got.shape == (20, 3)
    np.testing.assert_allclose(got[:, 0], pts[:, 0] ** 2, atol=1e-12)
    np.testing.assert_allclose(got[:, 1], pts[:, 0] * pts[:, 1], atol=1e-12)
    np.testing.assert_allclose(got[:, 2], 1.0, atol=1e-12)


@settings(max_examples=80, deadline=None)
@given(
    kind=st.sampled_from(["smolyak", "td", "hc"]),
    family=st.sampled_from(["clenshaw_curtis", "gauss_legendre"]),
    dims=st.integers(1, 4),
    w=st.integers(0, 3),
    n_out=st.sampled_from([None, 3]),
    orders=st.lists(st.integers(1, 9), min_size=4, max_size=4),
    seed=st.integers(0, 2**32 - 1),
)
# Orders 1, 7 and 9 put the Gauss node 0.0 exactly on a knot.
@example("smolyak", "gauss_legendre", 3, 3, None, [7, 9, 1, 2], 0)
@example("td", "clenshaw_curtis", 2, 3, 3, [9, 7, 1, 1], 1)
def test_grid_evaluation_matches_pointwise(kind, family, dims, w, n_out, orders, seed):
    """Axis-by-axis grid evaluation equals evaluate_surrogate at the flattened
    tensor Gauss points, up to summation order."""
    plan = build_plan(GridRule(kind, family), w, dims)
    values = np.random.default_rng(seed).standard_normal((plan.n_knots, n_out or 1))
    surrogate = Surrogate(plan=plan, values=values, scalar=n_out is None)
    q_plan = quadrature_plan(orders[:dims])
    want = evaluate_surrogate(surrogate, q_plan.points)
    got = evaluate_on_grid(surrogate, q_plan.nodes)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_surrogate_json_roundtrip():
    plan = build_plan(SMOLYAK, 2, 2)
    surrogate = build_surrogate(plan, lambda q: math.exp(q[0] - q[1]))
    clone = surrogate_from_json(surrogate_to_json(surrogate))
    pts = np.random.default_rng(9).uniform(-1.0, 1.0, (25, 2))
    np.testing.assert_allclose(
        evaluate_surrogate(clone, pts), evaluate_surrogate(surrogate, pts), atol=0.0
    )


def test_surrogate_json_rejects_garbage():
    plan = build_plan(SMOLYAK, 1, 1)
    surrogate = build_surrogate(plan, lambda q: float(q[0]))
    text = surrogate_to_json(surrogate)
    with pytest.raises(Exception):
        surrogate_from_json(text.replace("smolyak", "simpson"))
