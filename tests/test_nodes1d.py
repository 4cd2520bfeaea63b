from __future__ import annotations

import math

import numpy as np
import pytest
from oracles import cc_fractions, cc_node

from uqflow.cli import main
from uqflow.errors import UqflowError
from uqflow.nodes1d import (
    _monic_eval,
    _uniform_recurrence,
    barycentric_basis,
    barycentric_weights,
    cc_barycentric_weights,
    chebyshev_coefficients,
    clenshaw_curtis_nodes,
    gauss_nodes,
)
from uqflow.sparse_grid import GridRule, build_plan


def test_grid_rule_count_smolyak_doubles():
    rule = GridRule("smolyak")
    assert [rule.count(i) for i in (0, 1, 2, 3, 4, 5)] == [0, 1, 3, 5, 9, 17]


def test_grid_rule_count_td_and_hc_add_one_node_per_level():
    for kind in ("td", "hc"):
        rule = GridRule(kind, "gauss_legendre")
        assert [rule.count(i) for i in (0, 1, 2, 3, 4, 5)] == [0, 1, 2, 3, 4, 5]


def test_grid_rule_count_rejects_a_negative_level():
    for kind in ("smolyak", "td", "hc"):
        with pytest.raises(ValueError, match="level must be >= 0"):
            GridRule(kind).count(-1)


def test_cc_nodes_small_counts():
    assert clenshaw_curtis_nodes(1).tolist() == [0.0]
    np.testing.assert_allclose(clenshaw_curtis_nodes(3), [-1.0, 0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(
        clenshaw_curtis_nodes(5),
        [-1.0, -math.sqrt(0.5), 0.0, math.sqrt(0.5), 1.0],
        atol=1e-15,
    )


def test_cc_nodes_sorted_and_symmetric():
    for count in (3, 5, 9, 17, 33):
        nodes = clenshaw_curtis_nodes(count)
        assert np.all(np.diff(nodes) > 0)
        np.testing.assert_allclose(nodes, -nodes[::-1], atol=1e-15)


def test_cc_nodes_nested_exactly():
    # every node of the smaller set must appear bit-for-bit in the larger one
    for small, big in ((1, 3), (3, 5), (5, 9), (9, 17)):
        coarse = clenshaw_curtis_nodes(small)
        fine = set(clenshaw_curtis_nodes(big).tolist())
        for x in coarse.tolist():
            assert x in fine


def test_cc_shared_fractions_give_equal_nodes():
    vals5 = dict(zip(cc_fractions(5), clenshaw_curtis_nodes(5).tolist()))
    vals9 = dict(zip(cc_fractions(9), clenshaw_curtis_nodes(9).tolist()))
    shared = set(vals5) & set(vals9)
    assert len(shared) == 5
    for key in shared:
        assert vals5[key] == vals9[key]


@pytest.mark.parametrize(
    "counts", [range(1, 1101), [2**k + 1 for k in range(11, 15)]], ids=["to-1100", "2^k+1"]
)
def test_cc_nodes_equal_the_scalar_fraction_formula_bitwise(counts):
    # the one-pass form must keep the bits of the per-node formula on any
    # NumPy build or CPU: nesting and symmetry are exact only through them
    for count in counts:
        ref = np.array([cc_node(p, q) for p, q in cc_fractions(count)])
        assert clenshaw_curtis_nodes(count).tobytes() == ref.tobytes(), count


def test_gauss_nodes_match_legendre_rule():
    nodes, weights = gauss_nodes(7)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(7)
    np.testing.assert_allclose(nodes, ref_nodes, atol=1e-13)
    # probability convention: weights integrate against the uniform density
    np.testing.assert_allclose(weights, ref_weights / 2.0, atol=1e-13)


def test_gauss_nodes_exactly_symmetric():
    for count in range(1, 10):
        nodes, _ = gauss_nodes(count)
        assert np.array_equal(nodes, -nodes[::-1]), count
        if count % 2 == 1:
            assert nodes[count // 2] == 0.0, count


@pytest.mark.parametrize("count", [1, 15, 16, 17, 100, 600, 1000])
def test_rescaled_recurrence_keeps_the_newton_step_bitwise(count):
    """Scaling the recurrence by powers of two is exact: wherever the plain
    recurrence stays normal, p_n / p_n' is bit for bit the plain one."""
    a, b = _uniform_recurrence(count + 1)
    x = np.linspace(-0.99, 0.99, 64)
    p_prev, p_cur = np.zeros_like(x), np.ones_like(x)
    d_prev, d_cur = np.zeros_like(x), np.zeros_like(x)
    for k in range(count):
        bk = b[k] if k > 0 else 0.0
        p_prev, p_cur, d_prev, d_cur = (
            p_cur,
            (x - a[k]) * p_cur - bk * p_prev,
            d_cur,
            p_cur + (x - a[k]) * d_cur - bk * d_prev,
        )
    assert np.abs(p_cur).min() >= np.finfo(float).tiny
    scaled_p, scaled_d = _monic_eval(x, a, b, count)
    assert np.array_equal(scaled_p / scaled_d, p_cur / d_cur)


# End weights at 1,035 and 2,049 nodes from the Legendre formula
# 1 / ((1 - x^2) P_n'(x)^2) in 50-digit arithmetic (mpmath).
_END_WEIGHTS = {1035: 3.4603325657694055544e-6, 2049: 8.8332905756690473066e-7}


@pytest.mark.parametrize("count", [1020, 1034, 1035, 2049])
def test_gauss_nodes_past_a_thousand_nodes(count):
    """Past a thousand nodes the monic p_n falls below the smallest normal
    double unless the recurrence is rescaled. The nodes agree with numpy's
    to 2.3e-16. numpy's own end weights are off by up to 7e-8 relative at
    these counts, so the end weight is checked against a 50-digit value."""
    nodes, weights = gauss_nodes(count)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(count)
    np.testing.assert_allclose(nodes, ref_nodes, rtol=0.0, atol=2.3e-16)
    np.testing.assert_allclose(weights, ref_weights / 2.0, rtol=1e-7)
    assert weights.sum() == pytest.approx(1.0, abs=1e-14)
    if count in _END_WEIGHTS:
        assert weights[0] == pytest.approx(_END_WEIGHTS[count], rel=1e-10)


def test_gauss_plan_at_level_11():
    plan = build_plan(GridRule("smolyak", "gauss_legendre"), 11, 1)
    assert len(plan.knots) == 2049


def test_gauss_quadrature_exactness():
    nodes, weights = gauss_nodes(4)
    for k in range(8):  # exact through degree 2m - 1 = 7
        exact = (1.0 / (k + 1)) if k % 2 == 0 else 0.0
        assert weights @ nodes**k == pytest.approx(exact, abs=1e-14)


def test_barycentric_interpolation_reproduces_polynomials():
    rng = np.random.default_rng(11)
    nodes = clenshaw_curtis_nodes(9)
    coeffs = rng.standard_normal(9)
    poly = np.polynomial.Polynomial(coeffs)
    x = rng.uniform(-1.0, 1.0, 40)
    basis = barycentric_basis(nodes, barycentric_weights(nodes), x)
    np.testing.assert_allclose(basis @ poly(nodes), poly(x), atol=1e-11)


def test_barycentric_basis_at_nodes_is_identity():
    nodes = clenshaw_curtis_nodes(5)
    basis = barycentric_basis(nodes, barycentric_weights(nodes), nodes)
    np.testing.assert_allclose(basis, np.eye(5), atol=1e-14)


def test_barycentric_basis_a_subnormal_distance_from_a_node_is_its_unit_row():
    # 1 / 2.2e-311 overflows: the quotient formula alone gives inf / inf = nan
    nodes = clenshaw_curtis_nodes(5)
    basis = barycentric_basis(nodes, barycentric_weights(nodes), np.array([2.2e-311, -5e-324]))
    assert np.array_equal(basis, np.eye(5)[[2, 2]])


def test_closed_form_cc_weights_match_the_product():
    for count in (1, 2, 3, 5, 9, 17, 33, 65):
        np.testing.assert_allclose(
            cc_barycentric_weights(count),
            barycentric_weights(clenshaw_curtis_nodes(count)),
            rtol=0.0,
            atol=1e-13,
        )


def test_gauss_weights_reproduce_polynomials():
    rng = np.random.default_rng(12)
    for count in (4, 17, 65):
        nodes = gauss_nodes(count)[0]
        poly = np.polynomial.Polynomial(rng.standard_normal(count))
        x = rng.uniform(-1.0, 1.0, 40)
        basis = barycentric_basis(nodes, barycentric_weights(nodes), x)
        scale = np.abs(poly(nodes)).max()
        np.testing.assert_allclose(basis @ poly(nodes), poly(x), rtol=0.0, atol=1e-9 * scale)


def test_weights_of_shuffled_nodes_follow_the_nodes():
    """Node order is free: each weight, sign included, moves with its node,
    and the interpolant is unchanged."""
    rng = np.random.default_rng(13)
    x = rng.uniform(-1.0, 1.0, 30)
    for nodes in (clenshaw_curtis_nodes(17), gauss_nodes(12)[0], np.array([0.3, -0.7, 0.1])):
        perm = rng.permutation(nodes.size)
        shuffled = barycentric_weights(nodes[perm])
        np.testing.assert_allclose(shuffled, barycentric_weights(nodes)[perm], rtol=1e-12)
        poly = np.polynomial.Polynomial(rng.standard_normal(nodes.size))
        basis = barycentric_basis(nodes[perm], shuffled, x)
        np.testing.assert_allclose(basis @ poly(nodes[perm]), poly(x), rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("count", [2049, 4097])
def test_weights_stay_finite_at_thousands_of_nodes(count):
    """The plain product of node gaps overflows from 2,049 nodes on."""
    closed = cc_barycentric_weights(count)
    assert np.isfinite(closed).all() and np.abs(closed).max() == 1.0
    if count == 2049:  # the log-magnitude product, on a 2049 x 2049 gap matrix
        logged = barycentric_weights(clenshaw_curtis_nodes(count))
        assert np.isfinite(logged).all()
        np.testing.assert_allclose(logged, closed, rtol=0.0, atol=1e-10)


def test_level_11_mean_is_finite(tmp_path):
    """At w = 11 (2,049 knots) the moments are finite and agree with w = 6,
    where the 1-dim load study has long converged."""
    out = tmp_path / "w.csv"
    argv = ["uq-moments", "--case", "bundled:demo-3bus", "--dims", "1", "--qoi", "voltage:3"]
    assert main(argv + ["--levels", "6,11", "--out", str(out)]) == 0
    coarse, fine = (line.split(",") for line in out.read_text().splitlines()[2:])
    assert fine[:2] == ["11", "2049"]
    assert math.isfinite(float(fine[2])) and math.isfinite(float(fine[3]))
    assert float(fine[2]) == pytest.approx(float(coarse[2]), rel=1e-12)
    assert float(fine[3]) == pytest.approx(float(coarse[3]), rel=1e-9)


def test_a_one_dim_rule_too_big_to_build_is_an_error(capsys):
    # w = 40 asks for 2^40 + 1 Clenshaw-Curtis nodes, 8 TiB of them
    message = "clenshaw_curtis rule of 1099511627777 nodes is above the limit of 1048577"
    with pytest.raises(UqflowError, match=message):
        build_plan(GridRule("smolyak"), 40, 1)
    assert main(["grid-info", "--dims", "1", "--levels", "40"]) == 1
    assert message in capsys.readouterr().err
    # the w = 20 moments ask for 2^19 + 1 Gauss points: a 2 TiB Jacobi matrix
    argv = ["uq-moments", "--case", "bundled:demo2", "--dims", "1", "--qoi", "voltage:2"]
    assert main(argv + ["--levels", "20"]) == 1
    assert "gauss_legendre rule of 524289 nodes is above the limit of 4097" in capsys.readouterr().err


def test_chebyshev_coefficients_geometric_decay():
    # 1/(y - 3) is analytic inside the Bernstein ellipse through its pole,
    # so coefficients decay like (3 + 2*sqrt(2))**-k until the float floor.
    u = lambda y: 1.0 / (y - 3.0)
    coeffs = chebyshev_coefficients(u, 30)
    zeta = 3.0 + 2.0 * math.sqrt(2.0)
    ks = np.arange(2, 14)
    slope = np.polyfit(ks, np.log(np.abs(coeffs[2:14])), 1)[0]
    assert math.exp(-slope) == pytest.approx(zeta, rel=5e-3)


def test_chebyshev_coefficients_reconstruct_function():
    # series convention: u = alpha_0 + 2 sum_{k>=1} alpha_k T_k
    u = lambda y: np.exp(0.7 * y)
    coeffs = chebyshev_coefficients(u, 20)
    doubled = np.concatenate([coeffs[:1], 2.0 * coeffs[1:]])
    y = np.linspace(-1.0, 1.0, 101)
    recon = np.polynomial.chebyshev.chebval(y, doubled)
    np.testing.assert_allclose(recon, u(y), atol=1e-12)
    # a callable that gives one scalar for any input is called point by point
    scalar = lambda y: float(np.exp(0.7 * np.max(y)))
    np.testing.assert_allclose(chebyshev_coefficients(scalar, 20), coeffs, rtol=0, atol=1e-15)
