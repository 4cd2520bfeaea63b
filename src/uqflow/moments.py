"""Moments of a surrogate (or any batch-evaluable map) with the parameters
independent and uniform on [-1, 1], plus a seeded Monte Carlo oracle for
cross-checks.

Expectations are tensor Gauss sums (E[u] = sum_k w_k u(q_k), weights summing
to one). A Surrogate target is evaluated on the whole grid axis by axis
(sparse_grid.evaluate_on_grid); any other target is called on the (P, dims)
point array. All accumulations run over the deterministic tensor ordering
with numpy pairwise summation, so results do not depend on the order in which
knots were solved upstream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

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
    def points(self) -> np.ndarray:
        """Flattened tensor grid (P, dims), in C order."""
        grids = np.meshgrid(*self.nodes, indexing="ij")
        return np.column_stack([g.ravel() for g in grids])

    @cached_property
    def point_weights(self) -> np.ndarray:
        """Product weights (P,), in the order of points."""
        wts = np.ones(1)
        for w in self.weights:
            wts = np.multiply.outer(wts, w).ravel()
        return wts


def quadrature_plan(orders: list[int]) -> QuadraturePlan:
    """Tensor Gauss rule with orders[d] points along dimension d."""
    pairs = [gauss_nodes(o) for o in orders]
    return QuadraturePlan(
        nodes=tuple(p[0] for p in pairs), weights=tuple(p[1] for p in pairs)
    )


def default_orders(rule: GridRule, w: int, dims: int) -> list[int]:
    """Per-dimension Gauss order that integrates the surrogate itself exactly.

    The largest 1D degree the plan can carry is 2^w (doubling) or w (linear),
    and ceil(maxdeg / 2) + 1 Gauss points are exact to degree
    2 ceil(maxdeg / 2) + 1 >= maxdeg, so surrogate means are quadrature-exact.
    The surrogate's square (degree 2 maxdeg) is not integrated exactly once
    maxdeg >= 2 (doubling w >= 1, linear w >= 2): the variance carries
    quadrature error, e.g. a 1D w=1 smolyak surrogate of q^2 gets variance 0
    against the exact 4/45.
    """
    max_degree = 2**w if rule.growth == "doubling" else w
    return [max_degree // 2 + (max_degree % 2) + 1] * dims


def _as_values(target, plan: QuadraturePlan) -> np.ndarray:
    if isinstance(target, Surrogate):
        return evaluate_on_grid(target, plan.nodes)
    pts = plan.points
    vals = np.asarray(target(pts), dtype=float)
    if vals.shape[0] != pts.shape[0]:
        raise ValueError("target must map (P, dims) batches to P rows")
    return vals


@dataclass(frozen=True)
class MomentEstimate:
    mean: float | np.ndarray
    variance: float | np.ndarray
    raw_variance: float | np.ndarray  # before clamping at zero


def moment_estimates(target, plan: QuadraturePlan) -> MomentEstimate:
    """Mean E[S] and the variance in shifted-data form.

    The variance is taken from the deviations D = S - S(q_0) from the first
    sample (column by column for a vector-valued target) as E[D^2] - E[D]^2
    (Chan, Golub & LeVeque, Am. Stat. 1983). The Gauss weights of a
    probability density sum to one, so this equals E[S^2] - E[S]^2 in exact
    arithmetic, but it does not subtract two O(mean^2) numbers, so a constant
    target has exactly zero variance.

    Quadrature error can push the raw variance a hair negative; the clamped
    value is what downstream consumers use, the raw value stays visible here.
    """
    wts = plan.point_weights
    vals = _as_values(target, plan)
    mean = wts @ vals
    dev = vals - vals[0]
    raw = wts @ (dev * dev) - (wts @ dev) ** 2
    return MomentEstimate(mean=mean, variance=np.maximum(raw, 0.0), raw_variance=raw)


# --- Monte Carlo oracle -------------------------------------------------------


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float | np.ndarray
    variance: float | np.ndarray
    se_mean: float | np.ndarray
    se_variance: float | np.ndarray
    count: int
    seed: int


def monte_carlo_oracle(
    f: Callable[[np.ndarray], np.ndarray],
    dims: int,
    count: int,
    seed: int,
    sampler: Callable[[np.random.Generator, int], np.ndarray] | None = None,
) -> MonteCarloEstimate:
    """Seeded sample moments of f with standard errors for both moments.

    sampler(rng, n) draws n parameter rows from the true density; the default
    is uniform on [-1, 1]^dims. se_variance uses the delta-method estimate
    sqrt((m4 - s^4) / n) from the sample's central fourth moment.
    """
    rng = np.random.default_rng(seed)
    samples = sampler(rng, count) if sampler else rng.uniform(-1.0, 1.0, (count, dims))
    vals = np.asarray(f(samples), dtype=float)
    mean = vals.mean(axis=0)
    var = vals.var(axis=0, ddof=1)
    centered = vals - mean
    m4 = (centered**4).mean(axis=0)
    se_var = np.sqrt(np.maximum(m4 - var * var, 0.0) / count)
    return MonteCarloEstimate(
        mean=mean,
        variance=var,
        se_mean=np.sqrt(var / count),
        se_variance=se_var,
        count=count,
        seed=seed,
    )
