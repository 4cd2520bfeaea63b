"""Independent oracles the tests check uqflow against; not part of the package."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

#: Central-difference step of cauchy_riemann_residual.
CR_STEP = 1e-4


def cauchy_riemann_residual(func: Callable[[complex], np.ndarray | complex], g: complex) -> float:
    """Max norm of the Cauchy-Riemann defects of func at g.

    Central differences of step CR_STEP along the real and imaginary
    parameter directions; for func analytic at g both d_s Re - d_w Im and
    d_w Re + d_s Im vanish up to O(step^2).
    """
    step = CR_STEP
    d_s = (np.asarray(func(g + step)) - np.asarray(func(g - step))) / (2.0 * step)
    d_w = (np.asarray(func(g + 1j * step)) - np.asarray(func(g - 1j * step))) / (2.0 * step)
    p = d_s.real - d_w.imag
    q = d_w.real + d_s.imag
    return float(max(np.abs(p).max(), np.abs(q).max()))


@dataclass(frozen=True)
class MonteCarloEstimate:
    mean: float | np.ndarray
    variance: float | np.ndarray
    se_mean: float | np.ndarray
    se_variance: float | np.ndarray
    count: int


def monte_carlo_oracle(
    f: Callable[[np.ndarray], np.ndarray], dims: int, count: int, seed: int
) -> MonteCarloEstimate:
    """Seeded sample moments of f under the uniform density on [-1, 1]^dims.

    se_variance uses the delta-method estimate sqrt((m4 - s^4) / n) from the
    sample's central fourth moment.
    """
    rng = np.random.default_rng(seed)
    vals = np.asarray(f(rng.uniform(-1.0, 1.0, (count, dims))), dtype=float)
    mean = vals.mean(axis=0)
    var = vals.var(axis=0, ddof=1)
    m4 = ((vals - mean) ** 4).mean(axis=0)
    return MonteCarloEstimate(
        mean=mean,
        variance=var,
        se_mean=np.sqrt(var / count),
        se_variance=np.sqrt(np.maximum(m4 - var * var, 0.0) / count),
        count=count,
    )
