"""Moments of a surrogate with the parameters independent and uniform on
[-1, 1].

Expectations are tensor Gauss sums (E[u] = sum_k w_k u(q_k), weights summing
to one). The surrogate is evaluated on the whole grid axis by axis
(sparse_grid.evaluate_on_grid).

Calling-thread rule: every product and reduction of the moment path runs on
the calling thread, in an order fixed by the data. A weighted sum is the
elementwise product w * u summed by NumPy's pairwise summation along a
contiguous axis over the tensor ordering, never a BLAS dot, which OpenBLAS
splits across its threads above 10,000 points; the grid contractions are
BLAS products in row blocks too small to be threaded
(sparse_grid._contract_leading). Moments therefore depend neither on the
order in which knots were solved upstream nor on the BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import UqflowError
from .nodes1d import gauss_nodes
from .sparse_grid import GridRule, Surrogate, evaluate_on_grid


@dataclass(frozen=True)
class QuadraturePlan:
    """Tensor Gauss rule: one (nodes, weights) pair per dimension."""

    nodes: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]

    @property
    def n_points(self) -> int:
        return math.prod(len(n) for n in self.nodes)

    @cached_property
    def point_weights(self) -> np.ndarray:
        """Product weights (P,), over the tensor grid in C order."""
        wts = np.ones(1)
        for w in self.weights:
            wts = np.multiply.outer(wts, w).ravel()
        return wts


#: Most points of a tensor rule. Moments hold several float arrays of one
#: entry per point (a 16-dim study at 3^16 points peaked at 1.95 GB RSS), so
#: 2^26 keeps 16 dims at w = 2 and 8 at w = 4, and refuses 17 dims at w = 2.
_MAX_TENSOR_POINTS = 2**26


def quadrature_plan(orders: list[int]) -> QuadraturePlan:
    """Tensor Gauss rule with orders[d] points along dimension d; a rule of
    more than 2^26 points is a UqflowError, raised before any allocation."""
    points = math.prod(orders)
    if points > _MAX_TENSOR_POINTS:
        raise UqflowError(
            f"tensor Gauss rule over {len(orders)} dims with orders {orders} has "
            f"{points} points, above the limit of {_MAX_TENSOR_POINTS}"
        )
    rules = {o: gauss_nodes(o) for o in set(orders)}
    pairs = [rules[o] for o in orders]
    return QuadraturePlan(
        nodes=tuple(p[0] for p in pairs), weights=tuple(p[1] for p in pairs)
    )


def default_orders(rule: GridRule, w: int, dims: int) -> list[int]:
    """Per-dimension Gauss order that integrates the surrogate itself exactly.

    The largest 1D degree the plan can carry is 2^w (smolyak) or w (td, hc),
    and ceil(maxdeg / 2) + 1 Gauss points are exact to degree
    2 ceil(maxdeg / 2) + 1 >= maxdeg, so surrogate means are quadrature-exact.
    The surrogate's square (degree 2 maxdeg) is not integrated exactly once
    maxdeg >= 2 (smolyak w >= 1, td and hc w >= 2): the variance carries
    quadrature error, e.g. a 1D w=1 smolyak surrogate of q^2 gets variance 0
    against the exact 4/45.
    """
    max_degree = 2**w if rule.kind == "smolyak" else w
    return [max_degree // 2 + (max_degree % 2) + 1] * dims


@dataclass(frozen=True)
class MomentEstimate:
    mean: float | np.ndarray
    variance: float | np.ndarray
    raw_variance: float | np.ndarray  # before clamping at zero


def moment_estimates(surrogate: Surrogate, plan: QuadraturePlan) -> MomentEstimate:
    """Mean E[S] and the variance in shifted-data form.

    The variance is taken from the deviations D = S - S(q_0) from the first
    sample (column by column for a vector-valued surrogate) as E[D^2] - E[D]^2
    (Chan, Golub & LeVeque, Am. Stat. 1983). The Gauss weights of a
    probability density sum to one, so this equals E[S^2] - E[S]^2 in exact
    arithmetic, but it does not subtract two O(mean^2) numbers, so a column
    that is constant on the grid has exactly zero variance.

    Quadrature error can push the raw variance a hair negative; the clamped
    value is what downstream consumers use, the raw value stays visible here.

    E[S], E[D^2] and E[D] are pairwise sums of w * u, one contiguous row per
    output column, with no BLAS reduction, so the result does not depend on
    the BLAS thread count (the calling-thread rule of the module docstring).
    """
    wts = plan.point_weights
    # (n_out, P) or (P,): the point axis is the contiguous one
    vals = np.ascontiguousarray(evaluate_on_grid(surrogate, plan.nodes).T)
    mean = _weighted_sum(wts, vals)
    dev = vals - vals[..., :1]
    mean_dev = _weighted_sum(wts, dev)
    dev *= dev
    raw = _weighted_sum(wts, dev) - mean_dev**2
    return MomentEstimate(mean=mean, variance=np.maximum(raw, 0.0), raw_variance=raw)


def _weighted_sum(wts: np.ndarray, vals: np.ndarray) -> float | np.ndarray:
    """sum_k wts[k] * vals[..., k], pairwise along the last (contiguous) axis."""
    return np.add.reduce(wts * vals, axis=-1)
