"""One-dimensional node families, barycentric interpolation and Chebyshev
coefficients on the reference interval [-1, 1].

Every parameter is uniformly distributed on [-1, 1]; gauss_nodes gives the
Gauss rule of that probability density (weights summing to one).

Node sets are identified by exact integer keys: a reduced fraction
(j-1)/(count-1) for cosine-spaced nodes, and (count, index) for Gauss nodes
(with one shared key for the zero node). Multi-dimensional code builds knot
unions from these keys and never compares floats for identity.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Literal

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .errors import NonconvergenceError

GrowthRule = Literal["doubling", "linear"]

_NEWTON_TOL = 1e-15
_NEWTON_MAX_ITER = 100


def level_to_count(level: int, growth: GrowthRule = "doubling") -> int:
    """Number of nodes at a 1-based level; level 0 means the empty rule."""
    if level < 0:
        raise ValueError(f"level must be >= 0, got {level}")
    if level == 0:
        return 0
    if growth == "doubling":
        return 1 if level == 1 else 2 ** (level - 1) + 1
    if growth == "linear":
        return level
    raise ValueError(f"unknown growth rule {growth!r}")


# --- cosine-spaced (Clenshaw-Curtis) nodes ---------------------------------


def cc_node_keys(count: int) -> list[tuple[int, int]]:
    """Exact identities for the cosine-spaced nodes at a given count.

    The key is the reduced fraction (j-1)/(count-1); equal fractions give
    bitwise-equal node values across counts, which is what makes the nested
    doubling family dedupe exactly. The single-node rule {0} gets the key 1/2
    (the fraction whose cosine vanishes).
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count == 1:
        return [(1, 2)]
    keys = []
    for j in range(count):
        g = math.gcd(j, count - 1)
        keys.append((j // g, (count - 1) // g))
    return keys


@lru_cache(maxsize=None)
def _cc_value(p: int, q: int) -> float:
    # -cos(pi p/q) for the reduced fraction p/q, evaluated so the symmetric
    # partner q-p yields the exact negation and p/q = 1/2 yields exactly 0.
    if 2 * p == q:
        return 0.0
    if 2 * p < q:
        return -math.cos(math.pi * p / q)
    return math.cos(math.pi * (q - p) / q)


def clenshaw_curtis_nodes(count: int) -> np.ndarray:
    """Cosine-spaced nodes -cos(pi (j-1)/(count-1)), ordered increasing.

    count == 1 returns the midpoint {0}, keeping the family symmetric and
    nested under count doubling.
    """
    return np.array([_cc_value(p, q) for p, q in cc_node_keys(count)])


# --- Gauss rules -----------------------------------------------------------


def _uniform_recurrence(n: int) -> tuple[np.ndarray, np.ndarray]:
    # Legendre (normalized to unit mass): a_k = 0, b_k = k^2 / (4k^2 - 1).
    a = np.zeros(n)
    k = np.arange(n, dtype=float)
    b = k * k / (4.0 * k * k - 1.0)
    b[0] = 1.0
    return a, b


def _monic_eval(x: np.ndarray, a: np.ndarray, b: np.ndarray, n: int):
    # Monic p_n and derivative via the three-term recurrence, up to one
    # power-of-two factor per node. p_k shrinks about 2x per step and would
    # underflow from n ~ 1,035, so every 16 steps each node's four running
    # values are scaled by the power of two that brings their largest into
    # [0.5, 1). The scaling is exact, so p_n / p_n' does not change.
    p_prev = np.zeros_like(x)
    p_cur = np.ones_like(x)
    d_prev = np.zeros_like(x)
    d_cur = np.zeros_like(x)
    for k in range(n):
        bk = b[k] if k > 0 else 0.0
        p_next = (x - a[k]) * p_cur - bk * p_prev
        d_next = p_cur + (x - a[k]) * d_cur - bk * d_prev
        p_prev, p_cur = p_cur, p_next
        d_prev, d_cur = d_cur, d_next
        if k % 16 == 15:
            running = np.array([p_prev, p_cur, d_prev, d_cur])
            shift = -np.frexp(np.abs(running).max(axis=0))[1]
            p_prev, p_cur, d_prev, d_cur = np.ldexp(running, shift)
    return p_cur, d_cur


def gauss_nodes(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss nodes and weights for the uniform probability density on [-1, 1].

    Nodes are roots of the degree-count Legendre polynomial, found by Newton
    refinement on the three-term recurrence from tridiagonal eigenvalue
    starting guesses, then made exactly symmetric (x == -x[::-1], with the
    middle node of an odd rule exactly 0.0); weights come from the
    Christoffel sum and add up to 1. Failure to reach tolerance 1e-15 within
    100 sweeps raises NonconvergenceError rather than silently degrading.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    a, b = _uniform_recurrence(count + 1)
    # Jacobi-matrix eigenvalues seed Newton; the refinement below is what
    # carries the accuracy contract.
    x = np.array([a[0]]) if count == 1 else eigh_tridiagonal(
        a[:count], np.sqrt(b[1:count]), eigvals_only=True
    )
    for sweep in range(_NEWTON_MAX_ITER):
        p, dp = _monic_eval(x, a, b, count)
        step = p / dp
        x = x - step
        if np.all(np.abs(step) <= _NEWTON_TOL * np.maximum(1.0, np.abs(x))):
            break
    else:
        raise NonconvergenceError(
            f"gauss nodes: Newton refinement for count {count} did not reach "
            f"{_NEWTON_TOL} within {_NEWTON_MAX_ITER} sweeps"
        )
    x = np.sort(x)
    # Exact symmetry about 0; the middle node of an odd rule becomes 0.0.
    x = 0.5 * (x - x[::-1])
    # Christoffel weights from the orthonormal recurrence.
    q_prev = np.zeros_like(x)
    q_cur = np.full_like(x, 1.0 / math.sqrt(b[0]))
    total = q_cur * q_cur
    for k in range(count - 1):
        q_next = ((x - a[k]) * q_cur - (math.sqrt(b[k]) if k > 0 else 0.0) * q_prev) / math.sqrt(
            b[k + 1]
        )
        total += q_next * q_next
        q_prev, q_cur = q_cur, q_next
    return x, 1.0 / total


# --- barycentric interpolation ---------------------------------------------


def barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    """Second-form barycentric weights of distinct nodes, in any order,
    normalized to unit max magnitude.

    w_j = 1 / prod_{k != j} (x_j - x_k) takes its sign from the count of
    negative factors; its magnitude is summed as logarithms, so no product
    over- or underflows at any node count (the plain product does from
    about 2,049 nodes on).
    """
    x = np.asarray(nodes, dtype=float)
    m = x.size
    if m == 1:
        return np.ones(1)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    log_w = -np.log(np.abs(diff)).sum(axis=1)
    sign = np.where((diff < 0.0).sum(axis=1) % 2 == 0, 1.0, -1.0)
    return sign * np.exp(log_w - log_w.max())


def cc_barycentric_weights(count: int) -> np.ndarray:
    """Closed-form barycentric weights of clenshaw_curtis_nodes(count):
    (-1)^(count-1-j), halved at both ends when there are interior nodes
    (Salzer 1972). This is what barycentric_weights gives for these nodes,
    without its rounding."""
    w = np.where((count - 1 - np.arange(count)) % 2 == 0, 1.0, -1.0)
    if count > 2:
        w[[0, -1]] *= 0.5
    return w


def barycentric_basis(
    nodes: np.ndarray, weights: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """Lagrange basis values l_j(x) as a (len(x), len(nodes)) matrix.

    Rows sum to 1; a query that hits a node exactly gets the exact unit row,
    so stored values are reproduced bitwise at knots.
    """
    xq = np.atleast_1d(np.asarray(x, dtype=float))
    if nodes.size == 1:
        return np.ones((xq.size, 1))
    d = xq[:, None] - nodes[None, :]
    hit_rows, hit_cols = np.nonzero(d == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = weights[None, :] / d
        basis = t / t.sum(axis=1, keepdims=True)
    if hit_rows.size:
        basis[hit_rows, :] = 0.0
        basis[hit_rows, hit_cols] = 1.0
    return basis


# --- Chebyshev coefficients -------------------------------------------------


def chebyshev_coefficients(u: Callable[[np.ndarray], np.ndarray], k_max: int) -> np.ndarray:
    """Coefficients alpha_0..alpha_k_max in u = alpha_0 + 2 sum alpha_k T_k.

    alpha_k = (1/pi) * integral of u(y) T_k(y) / sqrt(1 - y^2), evaluated by
    Gauss-Chebyshev collocation at enough points that aliasing sits below
    roundoff for analytic u.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    n = max(2 * (k_max + 1) + 64, 128)
    theta = (np.arange(n) + 0.5) * math.pi / n
    y = np.cos(theta)
    uy = np.asarray(u(y), dtype=float)
    if uy.shape != y.shape:
        uy = np.array([u(v) for v in y], dtype=float)
    k = np.arange(k_max + 1)
    return (np.cos(np.outer(k, theta)) @ uy) / n
