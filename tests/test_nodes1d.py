from __future__ import annotations

import math

import numpy as np
import pytest

from uqflow.nodes1d import (
    barycentric_basis,
    barycentric_weights,
    cc_node_keys,
    chebyshev_coefficients,
    clenshaw_curtis_nodes,
    gauss_nodes,
    level_to_count,
)


def test_level_to_count_doubling():
    assert [level_to_count(i, "doubling") for i in (0, 1, 2, 3, 4, 5)] == [0, 1, 3, 5, 9, 17]


def test_level_to_count_linear():
    assert [level_to_count(i, "linear") for i in (0, 1, 2, 3, 4, 5)] == [0, 1, 2, 3, 4, 5]


def test_level_to_count_unknown_growth():
    with pytest.raises(Exception):
        level_to_count(2, "cubic")


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


def test_cc_node_keys_identify_shared_nodes():
    vals5 = dict(zip(cc_node_keys(5), clenshaw_curtis_nodes(5).tolist()))
    vals9 = dict(zip(cc_node_keys(9), clenshaw_curtis_nodes(9).tolist()))
    shared = set(vals5) & set(vals9)
    assert len(shared) == 5
    for key in shared:
        assert vals5[key] == vals9[key]


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
