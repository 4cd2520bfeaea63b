"""Independent oracles the tests check uqflow against; not part of the package."""

from __future__ import annotations

import math
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


def dense_gb_matrices(net, g_scale=None, b_scale=None) -> tuple[np.ndarray, np.ndarray]:
    """Dense n x n G and B of the bus admittance matrix, assembled branch by
    branch in a loop: the reference for ``powerflow.gb_matrices``, which
    gives their values on the network's pattern."""
    nb = net.n
    ones = np.ones(len(net.branches))
    sg = ones if g_scale is None else np.asarray(g_scale)
    sb = ones if b_scale is None else np.asarray(b_scale)
    dtype = np.result_type(float, sg.dtype, sb.dtype)
    G = np.zeros((nb, nb), dtype=dtype)
    B = np.zeros((nb, nb), dtype=dtype)
    for k, br in enumerate(net.branches):
        z2 = br.r * br.r + br.x * br.x
        g = br.r / z2 * sg[k]
        b = -br.x / z2 * sb[k]
        f = net.position[br.from_bus]
        t = net.position[br.to_bus]
        tap = br.tap if br.tap else 1.0
        c, s = math.cos(br.phase), math.sin(br.phase)
        G[f, f] += g / tap**2
        B[f, f] += (b + br.b_charge / 2.0) / tap**2
        G[t, t] += g
        B[t, t] += b + br.b_charge / 2.0
        # -y e^{+j phase}/tap from-to, -y e^{-j phase}/tap to-from
        G[f, t] += -(g * c - b * s) / tap
        B[f, t] += -(g * s + b * c) / tap
        G[t, f] += -(g * c + b * s) / tap
        B[t, f] += -(b * c - g * s) / tap
    for k, bus in enumerate(net.buses):
        G[k, k] += bus.gs
        B[k, k] += bus.bs
    return G, B
