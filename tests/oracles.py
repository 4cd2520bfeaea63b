"""Independent oracles the tests check uqflow against; not part of the package."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import mpmath
import numpy as np

from uqflow.powerflow import StochasticPerturbation, _branch_entries, gb_matrices

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


# --- the per-term perturbation model ------------------------------------------
#
# A load term (bus id, c_p, c_q, p_dim, q_dim) scales one bus's P load by
# 1 + c_p q[p_dim] and its Q load by 1 + c_q q[q_dim]; an admittance term
# (branch position, c_g, c_b, g_dim, b_dim) scales one in-service branch's
# series g and b the same way. Terms were how a perturbation was written
# before it was its coefficient matrices.


def term_perturbation(net, dims: int, load_terms=(), admittance_terms=()) -> StochasticPerturbation:
    """The perturbation of the terms: each coefficient at its dim in its
    target's row."""
    load = np.zeros((2, net.n, dims))
    for bus, c_p, c_q, p_dim, q_dim in load_terms:
        k = net.position[bus]
        load[0, k, p_dim], load[1, k, q_dim] = c_p, c_q
    admittance = np.zeros((2, len(net.branches), dims))
    for branch, c_g, c_b, g_dim, b_dim in admittance_terms:
        admittance[0, branch, g_dim], admittance[1, branch, b_dim] = c_g, c_b
    return StochasticPerturbation(
        dims, load.reshape(2 * net.n, dims), admittance.reshape(2 * len(net.branches), dims)
    )


def term_affine_parts(net, dims: int, load_terms=(), admittance_terms=()):
    """q -> ([G; G], [B; B], [P_sched; Q_sched]) by the term-by-term
    translation: term after term, the branch entries at its share of g,
    then of b, are added to the slopes of its dims, and each load term
    writes its two coefficients into a (2n, dims) matrix. Admittance terms
    with no nonzero coefficient leave G and B nominal."""
    G0, B0 = gb_matrices(net)
    dG, dB = np.zeros((2, dims, len(G0)))
    targets = net.stamps[1][: 4 * len(net.branches)].reshape(-1, 4)
    for branch, c_g, c_b, g_dim, b_dim in admittance_terms:
        g, b, _, *tap_phase = net.branch_constants[:, branch]
        for dim, share in ((g_dim, (c_g * g, 0.0)), (b_dim, (0.0, c_b * b))):
            for slopes, values in zip((dG, dB), _branch_entries(*share, 0.0, *tap_phase)):
                np.add.at(slopes[dim], targets[branch], values)
    coefficients = np.zeros((2 * net.n, dims))
    for bus, c_p, c_q, p_dim, q_dim in load_terms:
        k = net.position[bus]
        coefficients[k, p_dim] = c_p
        coefficients[net.n + k, q_dim] = c_q
    gen = np.array([b.p_gen for b in net.buses] + [b.q_gen for b in net.buses])
    load = np.array([b.p_load for b in net.buses] + [b.q_load for b in net.buses])

    def parts(q):
        q = np.atleast_1d(np.asarray(q))
        G, B = G0, B0
        if any(c_g or c_b for _, c_g, c_b, _, _ in admittance_terms):
            row = q[..., None, :]
            G, B = G0 + (row @ dG)[..., 0, :], B0 + (row @ dB)[..., 0, :]
        sched = gen - load * (1.0 + q @ coefficients.T)
        return np.concatenate([G, G], axis=-1), np.concatenate([B, B], axis=-1), sched

    return parts


def cc_fractions(count: int) -> list[tuple[int, int]]:
    """Reduced fractions p/q = (j-1)/(count-1) of the count cosine-spaced
    nodes, j = 1..count; the single-node rule {0} gets 1/2."""
    if count == 1:
        return [(1, 2)]
    return [(j // math.gcd(j, count - 1), (count - 1) // math.gcd(j, count - 1)) for j in range(count)]


def cc_node(p: int, q: int) -> float:
    """-cos(pi p/q) for the reduced fraction p/q, one node at a time: the
    reference for ``nodes1d.clenshaw_curtis_nodes``. The symmetric partner
    q-p gives the exact negation, and p/q = 1/2 gives exactly 0."""
    if 2 * p == q:
        return 0.0
    if 2 * p < q:
        return -math.cos(math.pi * p / q)
    return math.cos(math.pi * (q - p) / q)


# --- the bundled 2-bus case (bundled:demo2) in closed form -------------------
#
# A slack bus at V = 1 feeds one PQ load P (Q = 0) over a lossless line of
# reactance X, so V^2 = (1 + sqrt(1 - 4 P^2 X^2)) / 2. A 1-dim load study
# scales the load as P = P0 (1 + c q), q uniform on [-1, 1].

#: Nominal load (50 MW on 100 MVA) and line reactance of bundled:demo2.
TWO_BUS_P0 = 0.5
TWO_BUS_X = 0.5


def two_bus_voltage(q, c: float):
    """Load-bus voltage magnitude at parameter q (float or mpmath number)."""
    p = TWO_BUS_P0 * (1 + c * q)
    return mpmath.sqrt((1 + mpmath.sqrt(1 - 4 * p * p * TWO_BUS_X**2)) / 2)


def two_bus_angle(q, c: float):
    """Load-bus voltage angle at parameter q (float or mpmath number): the
    line carries P = V sin(-theta) / X from the slack bus at angle 0."""
    p = TWO_BUS_P0 * (1 + c * q)
    return -mpmath.asin(p * TWO_BUS_X / two_bus_voltage(q, c))


def two_bus_critical_coefficient() -> float:
    """c* = 1/(2 X P0) - 1 = 1.0: the coefficient whose load reaches the nose
    at q = 1, the edge of the parameter box."""
    return 1.0 / (2.0 * TWO_BUS_X * TWO_BUS_P0) - 1.0


def two_bus_singularity(c: float) -> float:
    """q* = c*/c: the nose of the PV curve, where P = 1/(2X) and the voltage
    and the angle stop being analytic in q."""
    return two_bus_critical_coefficient() / c


def two_bus_radius(c: float) -> float:
    """sigma* = acosh q*: the largest Bernstein-ellipse parameter of [-1, 1]
    on which the voltage is analytic."""
    return math.acosh(two_bus_singularity(c))


def two_bus_moments(c: float, digits: int = 30, quantity=two_bus_voltage) -> tuple[float, float]:
    """Exact mean and variance of the quantity (two_bus_voltage or
    two_bus_angle) under the uniform density, by mpmath.quad at the given
    working precision, rounded to floats."""
    with mpmath.workdps(digits):
        mean = mpmath.quad(lambda q: quantity(q, c), [-1, 1]) / 2
        var = mpmath.quad(lambda q: (quantity(q, c) - mean) ** 2, [-1, 1]) / 2
    return float(mean), float(var)
