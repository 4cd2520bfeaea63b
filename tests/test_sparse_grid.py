from __future__ import annotations

import dataclasses
import itertools
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import cc_fractions

from uqflow import sparse_grid
from uqflow.errors import CacheMismatchError
from uqflow.moments import quadrature_plan
from uqflow.nodes1d import clenshaw_curtis_nodes, gauss_nodes
from uqflow.sparse_grid import (
    GridRule,
    Surrogate,
    _basis_lookup,
    _blocked_dot,
    _blocks,
    _contract_leading,
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


def _brute_force_coefficients(rule, w, dims):
    # One Python tuple per bumped index: the definition, kept as the oracle.
    coeffs = {}
    for index in admissible_indices(rule, w, dims):
        c = 0
        for j in itertools.product((0, 1), repeat=dims):
            bumped = tuple(a + b for a, b in zip(index, j))
            if rule.admissible(bumped, w):
                c += -1 if sum(j) % 2 else 1
        coeffs[index] = c
    return coeffs


@pytest.mark.parametrize("kind", ["smolyak", "td", "hc"])
def test_combination_coefficients_match_the_double_loop(kind):
    rule = GridRule(kind, "clenshaw_curtis")
    for dims in range(1, 7):
        for w in range(6):
            got = combination_coefficients(rule, w, dims)
            assert got == _brute_force_coefficients(rule, w, dims)
            assert list(got) == admissible_indices(rule, w, dims)
            assert all(type(c) is int for c in got.values())


def test_plan_terms_are_the_nonzero_coefficients():
    for w in range(4):
        plan = build_plan(SMOLYAK, w, 2)
        nonzero = {
            levels: c for levels, c in combination_coefficients(SMOLYAK, w, 2).items() if c != 0
        }
        assert {t.levels: t.coefficient for t in plan.terms} == nonzero


def test_high_dimensional_plan_needs_little_memory():
    # The coefficients are taken on the index set alone: no array grows with 2^dims.
    tracemalloc.start()
    try:
        plan = build_plan(SMOLYAK, 2, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert plan.n_knots == 545
    assert peak < 64 * 2**20


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
    grids = np.meshgrid(*q_plan.nodes, indexing="ij")
    want = evaluate_surrogate(surrogate, np.column_stack([g.ravel() for g in grids]))
    got = evaluate_on_grid(surrogate, q_plan.nodes)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_evaluation_rejects_a_wrong_dimension_count():
    surrogate = Surrogate(plan=build_plan(SMOLYAK, 1, 2), values=np.ones((5, 1)), scalar=True)
    with pytest.raises(ValueError, match="points have 3 columns, plan wants 2"):
        evaluate_surrogate(surrogate, np.zeros((4, 3)))
    with pytest.raises(ValueError, match="points have 1 columns, plan wants 2"):
        evaluate_surrogate(surrogate, np.zeros(1))
    with pytest.raises(ValueError, match="got 1 axes, plan wants 2"):
        evaluate_on_grid(surrogate, (np.zeros(3),))
    with pytest.raises(ValueError, match="got 3 axes, plan wants 2"):
        evaluate_on_grid(surrogate, (np.zeros(3),) * 3)


def _per_term_points(surrogate, pts):
    # Every term contracted on its own and then summed: the oracle for the
    # grouped traversal, shaped (P, n_out).
    plan = surrogate.plan
    basis = _basis_lookup(plan, pts.T)
    out = np.zeros((pts.shape[0], surrogate.n_out))
    for term, tensor in zip(plan.terms, surrogate.term_tensors()):
        acc = np.tensordot(basis(0, term.counts[0]), tensor, axes=(1, 0))
        for dim in range(1, plan.dims):
            acc = np.einsum("pm,pm...->p...", basis(dim, term.counts[dim]), acc)
        out += term.coefficient * acc
    return out


def _per_term_grid(surrogate, axes):
    plan = surrogate.plan
    basis = _basis_lookup(plan, axes)
    out = np.zeros((surrogate.n_out, *map(len, axes)))
    for term, tensor in zip(plan.terms, surrogate.term_tensors()):
        for dim, count in enumerate(term.counts):
            tensor = np.tensordot(tensor, basis(dim, count), axes=(0, 1))
        out += term.coefficient * tensor
    return out.reshape(surrogate.n_out, -1).T


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["smolyak", "td", "hc"]),
    family=st.sampled_from(["clenshaw_curtis", "gauss_legendre"]),
    dims=st.integers(1, 6),
    w=st.integers(0, 4),
    n_out=st.sampled_from([1, 3]),
    seed=st.integers(0, 2**32 - 1),
)
@example("smolyak", "clenshaw_curtis", 6, 4, 3, 0)
@example("td", "gauss_legendre", 5, 4, 1, 1)
def test_grouped_contraction_matches_the_per_term_loop(kind, family, dims, w, n_out, seed):
    """Summing terms over shared count suffixes before contracting moves the
    result by round-off only, and the order of plan.terms does not matter."""
    rng = np.random.default_rng(seed)
    plan = build_plan(GridRule(kind, family), w, dims)
    values = rng.standard_normal((plan.n_knots, n_out))
    surrogate = Surrogate(plan=plan, values=values, scalar=False)
    # Up to 3 points per axis; the first axis also hits the knot 0.0 exactly.
    axes = [np.sort(rng.uniform(-1.0, 1.0, rng.integers(1, 4))) for _ in range(dims)]
    axes[0] = np.append(axes[0], 0.0)
    pts = np.column_stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
    bound = 8 * np.finfo(float).eps * sum(abs(t.coefficient) for t in plan.terms)
    bound *= np.abs(values).max()

    want = _per_term_points(surrogate, pts)
    assert np.abs(evaluate_surrogate(surrogate, pts) - want).max() <= bound
    grid_want = _per_term_grid(surrogate, axes)
    assert np.abs(evaluate_on_grid(surrogate, axes) - grid_want).max() <= bound

    terms = list(plan.terms)
    random.Random(seed).shuffle(terms)
    shuffled = Surrogate(plan=dataclasses.replace(plan, terms=terms), values=values, scalar=False)
    assert np.abs(evaluate_surrogate(shuffled, pts) - want).max() <= bound
    assert np.abs(evaluate_on_grid(shuffled, axes) - grid_want).max() <= bound


@settings(max_examples=40, deadline=None)
@given(
    count=st.integers(1, 17),
    nodes=st.integers(2, 33),
    n_out=st.integers(1, 3),
    blocks=st.integers(0, 3),
    shift=st.integers(-2, 2),
    seed=st.integers(0, 2**32 - 1),
)
# The 6,561-row last-axis product of a 5-dim w=4 moments run; count 1; one
# row past a block boundary.
@example(17, 9, 1, 4, -95, 0)
@example(1, 9, 1, 1, 1, 0)
@example(2, 2, 1, 1, 1, 2)
def test_blocked_contraction_is_tensordot_bit_for_bit(count, nodes, n_out, blocks, shift, seed):
    """Row blocks change no bit of the grid contraction: _contract_leading
    equals tensordot(partial, basis, axes=(0, 1)) at row counts on either
    side of the block boundaries."""
    step = _blocks(2**18 + 2, count * nodes)[0].stop  # rows per full block
    rows = max(1, blocks * step + shift)
    rng = np.random.default_rng(seed)
    partial = rng.standard_normal((count, -(-rows // n_out), n_out))
    basis = rng.standard_normal((nodes, count))
    got = _contract_leading(partial, basis)
    want = np.tensordot(partial, basis, axes=(0, 1))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("count, columns", [(17, 1), (9, 1), (17, 3), (9, 27), (5, 9)])
def test_blocked_point_product_keeps_the_whole_products_bits(count, columns):
    """evaluate_surrogate's first-axis product at 1e5 points, taken in row
    blocks, equals the one np.dot product of the parent code bit for bit."""
    rng = np.random.default_rng(count)
    rows = rng.uniform(0.0, 1.0, (100_000, count))
    flat = rng.standard_normal((count, columns))
    assert _blocked_dot(rows, flat).tobytes() == np.dot(rows, flat).tobytes()


def test_surrogate_json_roundtrip():
    plan = build_plan(SMOLYAK, 2, 2)
    surrogate = build_surrogate(plan, lambda q: math.exp(q[0] - q[1]))
    clone = surrogate_from_json(surrogate_to_json(surrogate), build_plan(SMOLYAK, 2, 2))
    pts = np.random.default_rng(9).uniform(-1.0, 1.0, (25, 2))
    np.testing.assert_allclose(
        evaluate_surrogate(clone, pts), evaluate_surrogate(surrogate, pts), atol=0.0
    )


def test_surrogate_json_rejects_garbage():
    plan = build_plan(SMOLYAK, 1, 1)
    surrogate = build_surrogate(plan, lambda q: float(q[0]))
    text = surrogate_to_json(surrogate)
    with pytest.raises(CacheMismatchError):
        surrogate_from_json(text.replace("smolyak", "simpson"), plan)


@pytest.mark.parametrize("field", ["knots"])
def test_surrogate_json_rejects_one_tampered_knot(field):
    plan = build_plan(GridRule("td", "gauss_legendre"), 3, 2)
    payload = json.loads(surrogate_to_json(build_surrogate(plan, lambda q: float(q.sum()))))
    payload[field][4][1] = float(np.nextafter(payload[field][4][1], 2.0))
    with pytest.raises(CacheMismatchError):
        surrogate_from_json(json.dumps(payload), plan)


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["smolyak", "td", "hc"]),
    family=st.sampled_from(["clenshaw_curtis", "gauss_legendre"]),
    dims=st.integers(1, 4),
    w=st.integers(0, 3),
    n_out=st.sampled_from([None, 1, 3]),
    data=st.data(),
)
def test_surrogate_json_roundtrip_is_bitwise(kind, family, dims, w, n_out, data):
    plan = build_plan(GridRule(kind, family), w, dims)
    size = plan.n_knots * (n_out or 1)
    finite = st.floats(allow_nan=False, allow_infinity=False)
    rows = data.draw(st.lists(finite, min_size=size, max_size=size))
    values = np.array(rows, dtype=float).reshape(plan.n_knots, n_out or 1)
    surrogate = Surrogate(plan=plan, values=values, scalar=n_out is None)
    rebuilt = build_plan(GridRule(kind, family), w, dims)
    clone = surrogate_from_json(surrogate_to_json(surrogate), rebuilt)
    assert clone.values.tobytes() == values.tobytes()
    assert clone.scalar == surrogate.scalar
    assert clone.plan.knots.tobytes() == plan.knots.tobytes()
    assert clone.plan.terms == plan.terms


def _oracle_union(plan):
    """The knot union walked term by term over (key, value) pairs into a dict
    keyed by tuples of exact node keys, sorted on (values, keys): the
    reference that build_plan's identity by value gives the same knots and
    rows as identity by key. Returns the knots and each term's knot rows in C
    order over counts."""

    def key_values(count):
        if plan.rule.family == "clenshaw_curtis":
            keys = [("cc", p, q) for p, q in cc_fractions(count)]
            return list(zip(keys, clenshaw_curtis_nodes(count).tolist()))
        keys = [
            ("gl0",) if count % 2 == 1 and j == count // 2 else ("gl", count, j)
            for j in range(count)
        ]
        return list(zip(keys, gauss_nodes(count)[0].tolist()))

    seen = {}
    for term in plan.terms:
        for combo in itertools.product(*(key_values(c) for c in term.counts)):
            seen.setdefault(tuple(k for k, _ in combo), tuple(v for _, v in combo))
    ordered = sorted(seen.items(), key=lambda item: (item[1], item[0]))
    knots = np.array([v for _, v in ordered], dtype=float).reshape(len(ordered), plan.dims)
    index = {k: row for row, (k, _) in enumerate(ordered)}
    rows = [
        [
            index[tuple(k for k, _ in combo)]
            for combo in itertools.product(*(key_values(c) for c in term.counts))
        ]
        for term in plan.terms
    ]
    return knots, rows


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["smolyak", "td", "hc"]),
    family=st.sampled_from(["clenshaw_curtis", "gauss_legendre"]),
    dims=st.integers(1, 6),
    w=st.integers(0, 4),
    seed=st.integers(0, 2**32 - 1),
)
@example("smolyak", "clenshaw_curtis", 6, 4, 0)
@example("smolyak", "gauss_legendre", 6, 4, 1)
@example("hc", "gauss_legendre", 3, 4, 2)
def test_knot_union_matches_the_tuple_key_oracle(kind, family, dims, w, seed):
    plan = build_plan(GridRule(kind, family), w, dims)
    knots, rows = _oracle_union(plan)
    assert plan.knots.tobytes() == knots.tobytes()
    values = np.random.default_rng(seed).standard_normal((plan.n_knots, 2))
    surrogate = Surrogate(plan=plan, values=values, scalar=False)
    for term, tensor, term_rows in zip(plan.terms, surrogate.term_tensors(), rows):
        assert np.array_equal(tensor, values[term_rows].reshape(*term.counts, 2))

    order = list(range(len(plan.terms)))
    random.Random(seed).shuffle(order)
    shuffled = dataclasses.replace(plan, terms=[plan.terms[t] for t in order])
    tensors = Surrogate(plan=shuffled, values=values, scalar=False).term_tensors()
    for t, tensor in zip(order, tensors):
        want = values[rows[t]].reshape(*plan.terms[t].counts, 2)
        assert np.array_equal(tensor, want)


_FIXTURES = Path(__file__).resolve().parent / "data"


_FIXTURE_LEVELS = {
    "surrogate_td_gauss_w3_d2.json": (GridRule("td", "gauss_legendre"), 3, 2),
    "surrogate_smolyak_cc_w2_d3.json": (SMOLYAK, 2, 3),
}


@pytest.mark.parametrize("name", list(_FIXTURE_LEVELS))
def test_cache_text_written_before_the_id_union_round_trips(name):
    # Written by the tuple-key union, with per-knot "keys" text: existing
    # caches must stay hits, and a rewrite drops only that field.
    text = (_FIXTURES / name).read_text()
    old = json.loads(text)
    plan = build_plan(*_FIXTURE_LEVELS[name])
    surrogate = surrogate_from_json(text, plan)
    assert surrogate.plan.knots.tobytes() == np.array(old["knots"]).tobytes()
    assert surrogate.values.tobytes() == np.array(old["values"]).tobytes()
    del old["keys"]
    assert surrogate_to_json(surrogate) == json.dumps(old)


_CORRUPTIONS = {
    "values one row short": lambda p: {**p, "values": p["values"][:-1]},
    "list payload": lambda p: [p],
    "w as text": lambda p: {**p, "w": str(p["w"])},
    "null values": lambda p: {**p, "values": [[None] for _ in p["values"]]},
    "infinite value": lambda p: {**p, "values": [[math.inf]] + p["values"][1:]},
    "scalar as int": lambda p: {**p, "scalar": 1},
    "scalar with two columns": lambda p: {**p, "values": [row * 2 for row in p["values"]]},
    "no columns": lambda p: {**p, "values": [[] for _ in p["values"]]},
    "ragged values": lambda p: {**p, "values": [p["values"][0] * 2] + p["values"][1:]},
    "rule missing": lambda p: {k: v for k, v in p.items() if k != "rule"},
    "unknown rule": lambda p: {**p, "rule": {**p["rule"], "kind": "simpson"}},
}


@pytest.mark.parametrize("how", list(_CORRUPTIONS))
def test_surrogate_json_rejects_a_corrupt_entry(how):
    plan = build_plan(SMOLYAK, 2, 2)
    payload = json.loads(surrogate_to_json(build_surrogate(plan, lambda q: float(q.sum()))))
    with pytest.raises(CacheMismatchError):
        surrogate_from_json(json.dumps(_CORRUPTIONS[how](payload)), plan)


def test_surrogate_json_is_read_against_the_callers_plan_only(monkeypatch):
    plan = build_plan(SMOLYAK, 2, 2)
    text = surrogate_to_json(build_surrogate(plan, lambda q: float(q.sum())))
    builds = []
    monkeypatch.setattr(sparse_grid, "build_plan", lambda *a: builds.append(a))
    assert surrogate_from_json(text.encode(), plan).plan is plan
    for entry in (b"\xff" + text.encode(), text[:-1], text.replace('"w": 2', '"w": 14')):
        with pytest.raises(CacheMismatchError):
            surrogate_from_json(entry, plan)
    with pytest.raises(CacheMismatchError, match="cache entry of .* read for"):
        surrogate_from_json(text, dataclasses.replace(plan, dims=3))
    assert builds == []
