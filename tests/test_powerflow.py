from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import uqflow.powerflow
from uqflow.case_io import load_case, to_network
from uqflow.errors import CaseValidationError, NonphysicalStateError, SingularJacobianError
from uqflow.powerflow import (
    AdmittanceTerm,
    LoadTerm,
    QuantityOfInterest,
    StochasticPerturbation,
    _affine_parts,
    _pack_state,
    gb_matrices,
    initial_state,
    parametric_problem,
    qoi_sampler,
    quantity_of_interest,
    solve_power_flow,
    solve_power_flow_complexified,
)


@pytest.fixture(scope="module")
def demo():
    return to_network(load_case("bundled:demo-3bus"))


@pytest.fixture(scope="module")
def case39():
    return to_network(load_case("bundled:case39"))


def test_demo_solution_frozen(demo):
    result = solve_power_flow(demo, tol=1e-10)
    assert result.converged
    assert result.trace.iterations <= 5
    np.testing.assert_allclose(
        result.state.theta, [0.0, -0.05237956, -0.17470709], atol=1e-7
    )
    np.testing.assert_allclose(result.state.v, [1.0, 1.05, 0.94895234], atol=1e-7)


def test_demo_respects_setpoints(demo):
    result = solve_power_flow(demo)
    assert result.state.v[0] == 1.0  # slack magnitude pinned
    assert result.state.v[1] == 1.05  # pv magnitude pinned
    assert result.state.theta[0] == 0.0  # slack angle reference


def test_demo_power_balance(demo):
    # net injections must sum to zero: the triangle is lossless (r = 0)
    result = solve_power_flow(demo)
    assert result.p_injection.sum() == pytest.approx(0.0, abs=1e-9)
    # bus 3 injection equals the negated load in per unit
    assert result.p_injection[2] == pytest.approx(-2.8653, abs=1e-9)
    assert result.q_injection[2] == pytest.approx(-1.2244, abs=1e-9)


def test_case39_flat_start_converges(case39):
    result = solve_power_flow(case39, tol=1e-10)
    assert result.converged
    assert result.trace.iterations <= 10
    assert result.trace.residual_norms[-1] < 1e-8


def test_case39_matches_stored_operating_point(case39):
    # the bundled tables carry a converged operating point; solving from a
    # flat start must land on it (theta0/v0 are stored in solver units)
    result = solve_power_flow(case39, tol=1e-10)
    v0 = np.array([b.v0 for b in case39.buses])
    theta0 = np.array([b.theta0 for b in case39.buses])
    assert np.max(np.abs(result.state.v - v0)) < 1e-6
    assert np.max(np.abs(result.state.theta - theta0)) < 1e-5


def test_case39_v22_in_physical_band(case39):
    result = solve_power_flow(case39, tol=1e-10)
    v22 = quantity_of_interest(case39, result.state, QuantityOfInterest.parse("voltage:22"))
    assert 0.8 < v22 < 1.2


def test_case_start_agrees_with_flat_start(case39):
    flat = solve_power_flow(case39, init="flat", tol=1e-10)
    warm = solve_power_flow(case39, init="from-case", tol=1e-10)
    assert warm.converged and warm.trace.iterations <= flat.trace.iterations
    np.testing.assert_allclose(warm.state.v, flat.state.v, atol=1e-8)


def test_quantity_of_interest_parse():
    qoi = QuantityOfInterest.parse("voltage:22")
    assert qoi.kind == "voltage" and qoi.bus == 22
    qoi = QuantityOfInterest.parse("angle:5")
    assert qoi.kind == "angle" and qoi.bus == 5
    with pytest.raises(ValueError):
        QuantityOfInterest.parse("frequency:2")


def test_quantity_of_interest_lookup(demo):
    result = solve_power_flow(demo)
    v3 = quantity_of_interest(demo, result.state, QuantityOfInterest.parse("voltage:3"))
    assert v3 == pytest.approx(0.9489523351354909, abs=1e-9)
    a2 = quantity_of_interest(demo, result.state, QuantityOfInterest.parse("angle:2"))
    assert a2 == pytest.approx(result.state.theta[1], abs=0.0)


def test_perturbation_validation(demo):
    with pytest.raises(Exception):
        StochasticPerturbation(
            dims=1, load_terms=(LoadTerm(bus=99, c_p=0.5, c_q=0.5, p_dim=0, q_dim=0),)
        ).validate(demo)
    with pytest.raises(Exception):
        StochasticPerturbation(
            dims=1, load_terms=(LoadTerm(bus=3, c_p=0.5, c_q=0.5, p_dim=1, q_dim=0),)
        ).validate(demo)
    with pytest.raises(Exception):
        StochasticPerturbation(
            dims=1,
            admittance_terms=(AdmittanceTerm(branch=7, c_g=0.5, c_b=0.5, g_dim=0, b_dim=0),),
        ).validate(demo)


def test_perturbation_rejects_duplicate_targets(case39):
    with pytest.raises(CaseValidationError, match="two load terms target bus 3"):
        StochasticPerturbation(
            dims=2,
            load_terms=(
                LoadTerm(bus=3, c_p=0.5, c_q=0.5, p_dim=0, q_dim=0),
                LoadTerm(bus=3, c_p=0.5, c_q=0.5, p_dim=1, q_dim=1),
            ),
        ).validate(case39)
    with pytest.raises(CaseValidationError, match=r"two admittance terms target branch 1 \(1-39\)"):
        StochasticPerturbation(
            dims=2,
            admittance_terms=(
                AdmittanceTerm(branch=1, c_g=0.5, c_b=0.5, g_dim=0, b_dim=0),
                AdmittanceTerm(branch=1, c_g=0.5, c_b=0.5, g_dim=1, b_dim=1),
            ),
        ).validate(case39)


@pytest.fixture(scope="module")
def case39_shifted(case39):
    # case39 has no phase shifter; without one G would not depend on the
    # series susceptance nor B on the series conductance.
    branches = list(case39.branches)
    branches[20] = dataclasses.replace(branches[20], phase=0.1)
    return dataclasses.replace(case39, branches=tuple(branches))


# case39 PQ buses with nonzero load, and branch rows that include
# off-nominal taps (4, 13, 20, the last also phase-shifted) next to plain lines.
_LOAD_BUSES = (1, 3, 4, 7, 8, 15, 20, 29)
_BRANCHES = (0, 1, 4, 9, 13, 20, 30, 45)


@st.composite
def _perturbation_and_point(draw):
    dims = draw(st.integers(1, 4))
    dim = st.integers(0, dims - 1)
    coef = st.floats(-0.8, 0.8)
    buses = draw(st.lists(st.sampled_from(_LOAD_BUSES), max_size=3, unique=True))
    rows = draw(st.lists(st.sampled_from(_BRANCHES), min_size=1, max_size=3, unique=True))
    pert = StochasticPerturbation(
        dims=dims,
        load_terms=tuple(
            LoadTerm(bus=b, c_p=draw(coef), c_q=draw(coef), p_dim=draw(dim), q_dim=draw(dim))
            for b in buses
        ),
        admittance_terms=tuple(
            AdmittanceTerm(branch=r, c_g=draw(coef), c_b=draw(coef), g_dim=draw(dim), b_dim=draw(dim))
            for r in rows
        ),
    )
    part = st.floats(-1.0, 1.0)
    q = np.array([draw(part) for _ in range(dims)])
    if draw(st.booleans()):
        q = q + 1j * np.array([draw(part) for _ in range(dims)])
    return pert, q


def _direct_parts(net, pert, q):
    """Dense G, B and the schedules assembled directly at one point q."""
    sg = np.ones(len(net.branches), dtype=q.dtype)
    sb = np.ones(len(net.branches), dtype=q.dtype)
    for t in pert.admittance_terms:
        sg[t.branch] = 1.0 + t.c_g * q[t.g_dim]
        sb[t.branch] = 1.0 + t.c_b * q[t.b_dim]
    G, B = gb_matrices(net, sg, sb)
    ps = np.array([b.p_gen - b.p_load for b in net.buses], dtype=q.dtype)
    qs = np.array([b.q_gen - b.q_load for b in net.buses], dtype=q.dtype)
    for t in pert.load_terms:
        k = net.position[t.bus]
        bus = net.buses[k]
        ps[k] = bus.p_gen - bus.p_load * (1.0 + t.c_p * q[t.p_dim])
        qs[k] = bus.q_gen - bus.q_load * (1.0 + t.c_q * q[t.q_dim])
    return G, B, ps, qs


@settings(max_examples=60, deadline=None)
@given(_perturbation_and_point())
def test_affine_model_matches_direct_assembly(case39_shifted, drawn):
    """The affine edge values of G, B and the schedules equal a per-point
    assembly of the scaled branches and loads, for real and complex q, and
    the assembled matrices are exactly zero off the pattern."""
    net, (pert, q) = case39_shifted, drawn
    G, B, ps, qs = _affine_parts(net, pert)(q)
    G_ref, B_ref, ps_ref, qs_ref = _direct_parts(net, pert, q)
    rows, cols = net.pattern

    off_pattern = np.ones((net.n, net.n), dtype=bool)
    off_pattern[rows, cols] = False
    assert not np.any(G_ref[off_pattern]) and not np.any(B_ref[off_pattern])
    pairs = ((G, G_ref[rows, cols]), (B, B_ref[rows, cols]), (ps, ps_ref), (qs, qs_ref))
    for got, ref in pairs:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_pattern_is_row_sorted_with_every_diagonal(case39):
    rows, cols = case39.pattern
    flat = rows * case39.n + cols
    assert np.all(np.diff(flat) > 0)  # row-sorted, each position once
    assert np.array_equal(rows[rows == cols], np.arange(case39.n))  # one diagonal per bus
    G, B = gb_matrices(case39)
    assert len(rows) == np.count_nonzero((G != 0.0) | (B != 0.0)) == 131


def test_load_study_keeps_nominal_admittances(case39):
    pert = StochasticPerturbation(
        dims=1, load_terms=(LoadTerm(bus=3, c_p=0.5, c_q=0.5, p_dim=0, q_dim=0),)
    )
    G, B, _, _ = _affine_parts(case39, pert)(np.array([0.3 + 0.2j]))
    G0, B0 = case39.gb_nominal
    assert G is G0 and B is B0
    assert G0.shape == B0.shape == case39.pattern[0].shape


def _dense_oracle(net, pert, u, q):
    """Residual and Jacobian by the dense n x n formulas on directly
    assembled G(q), B(q)."""
    G, B, ps, qs = _direct_parts(net, pert, q)
    dtype = np.result_type(u, q)
    theta, v = (x.astype(dtype) for x in net.setpoints)
    nn = len(net.non_slack)
    theta[net.non_slack] = u[:nn]
    v[net.pq] = u[nn:]
    # a_kl = V_k (G_kl cos th_kl + B_kl sin th_kl), c_kl = V_k (G_kl sin th_kl - B_kl cos th_kl)
    dtheta = theta[:, None] - theta[None, :]
    ct, st_ = np.cos(dtheta), np.sin(dtheta)
    a = v[:, None] * (G * ct + B * st_)
    c = v[:, None] * (G * st_ - B * ct)
    p, qi = a @ v, c @ v
    res = np.concatenate([(p - ps)[net.non_slack], (qi - qs)[net.pq]])
    dp = np.concatenate([c * v - np.diag(qi), a + np.diag(p / v)], axis=1)
    dq = np.concatenate([np.diag(p) - a * v, c + np.diag(qi / v)], axis=1)
    index = np.concatenate([net.non_slack, net.n + net.pq])
    jac = np.concatenate([dp[net.non_slack], dq[net.pq]])[:, index]
    return res, jac


@settings(max_examples=40, deadline=None)
@given(_perturbation_and_point(), st.integers(0, 2**32 - 1), st.booleans())
def test_edge_kernels_match_dense_oracle(case39_shifted, drawn, seed, complex_state):
    """Residual and Jacobian on the branch pattern equal the dense n x n
    formulas at real and complex q and states, with mixed load and
    admittance terms."""
    net, (pert, q) = case39_shifted, drawn
    rng = np.random.default_rng(seed)
    u = _pack_state(net, initial_state(net)) + rng.uniform(-0.1, 0.1, net.n_unknowns)
    if complex_state:
        u = u + 1j * rng.uniform(-0.05, 0.05, net.n_unknowns)
    problem = parametric_problem(net, pert)
    res_ref, jac_ref = _dense_oracle(net, pert, u, q)
    for got, ref in ((problem.residual(u, q), res_ref), (problem.jacobian(u, q), jac_ref)):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_problem_reevaluates_when_point_changes(case39_shifted):
    """One problem evaluated at q1, q2, q1 (and at q1 with a complex dtype,
    and at a second state) gives what a fresh problem gives each time."""
    u1 = _pack_state(case39_shifted, initial_state(case39_shifted))
    u2 = u1 + 0.01
    q1 = np.array([0.4, -0.3, 0.7])
    q2 = np.array([-0.6, 0.2, 0.1])
    problem = parametric_problem(case39_shifted, _MIXED)
    for u, q in ((u1, q1), (u1, q2), (u1, q1), (u1, q1.astype(complex)), (u2, q1), (u1, q1)):
        fresh = parametric_problem(case39_shifted, _MIXED)
        for got, ref in (
            (problem.residual(u, q), fresh.residual(u, q)),
            (problem.jacobian(u, q), fresh.jacobian(u, q)),
        ):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_load_term_shifts_schedule(demo):
    pert = StochasticPerturbation(
        dims=1, load_terms=(LoadTerm(bus=3, c_p=0.5, c_q=0.5, p_dim=0, q_dim=0),)
    )
    pert.validate(demo)
    problem = parametric_problem(demo, pert)
    u = _pack_state(demo, initial_state(demo, "flat"))
    base = problem.residual(u, np.array([0.0]))
    shifted = problem.residual(u, np.array([1.0]))
    diff = shifted - base
    # only the P and Q mismatch rows of bus 3 move, by c * load in per unit
    changed = np.nonzero(np.abs(diff) > 1e-14)[0]
    assert len(changed) == 2
    np.testing.assert_allclose(
        np.sort(np.abs(diff[changed])),
        np.sort([0.5 * 1.2244, 0.5 * 2.8653]),
        atol=1e-12,
    )


def test_qoi_sampler_cold_start_deterministic(demo):
    pert = StochasticPerturbation(
        dims=1, load_terms=(LoadTerm(bus=3, c_p=0.5, c_q=0.5, p_dim=0, q_dim=0),)
    )
    sample = qoi_sampler(demo, pert, QuantityOfInterest.parse("voltage:3"))
    a = sample(np.array([0.4]))
    b = sample(np.array([-0.7]))
    assert sample(np.array([0.4])) == a  # same point, same answer, any order
    assert a != b
    assert sample(np.array([0.0])) == pytest.approx(0.9489523351354909, abs=1e-9)


def test_qoi_sampler_reports_offending_point(demo):
    pert = StochasticPerturbation(
        dims=1, load_terms=(LoadTerm(bus=3, c_p=30.0, c_q=30.0, p_dim=0, q_dim=0),)
    )
    sample = qoi_sampler(demo, pert, QuantityOfInterest.parse("voltage:3"))
    with pytest.raises(NonphysicalStateError, match=r"q=\[1\.0\]"):
        sample(np.array([1.0]))


def test_qoi_sampler_names_point_of_singular_jacobian(demo, monkeypatch):
    def singular(*args, **kwargs):
        raise SingularJacobianError(2, 0.0, 1.0)

    pert = StochasticPerturbation(
        dims=1, load_terms=(LoadTerm(bus=3, c_p=0.5, c_q=0.5, p_dim=0, q_dim=0),)
    )
    sample = qoi_sampler(demo, pert, QuantityOfInterest.parse("voltage:3"))
    monkeypatch.setattr(uqflow.powerflow, "solve", singular)
    with pytest.raises(SingularJacobianError, match=r"iteration 2.* at q=\[0\.25\]") as exc:
        sample(np.array([0.25]))
    assert exc.value.iteration == 2


def test_complexified_solve_real_limit(demo):
    pert = StochasticPerturbation(
        dims=1, load_terms=(LoadTerm(bus=3, c_p=0.5, c_q=0.5, p_dim=0, q_dim=0),)
    )
    theta, v, trace = solve_power_flow_complexified(demo, pert, np.array([0.0 + 0.0j]))
    assert trace.converged
    assert np.max(np.abs(v.imag)) < 1e-10
    assert v[2].real == pytest.approx(0.9489523351354909, abs=1e-8)


def test_complexified_solve_complex_parameter(demo):
    pert = StochasticPerturbation(
        dims=1, load_terms=(LoadTerm(bus=3, c_p=0.5, c_q=0.5, p_dim=0, q_dim=0),)
    )
    theta, v, trace = solve_power_flow_complexified(demo, pert, np.array([0.3 + 0.05j]))
    assert trace.converged
    assert abs(v[2].imag) > 1e-5  # genuinely complex response
    assert v[2] == pytest.approx(0.9337296146920018 - 0.002655449647778387j, abs=1e-8)


# load terms next to admittance terms on tapped (4, 13) and plain branches
_MIXED = StochasticPerturbation(
    dims=3,
    load_terms=(
        LoadTerm(bus=3, c_p=0.5, c_q=0.4, p_dim=0, q_dim=1),
        LoadTerm(bus=20, c_p=0.3, c_q=0.6, p_dim=2, q_dim=2),
    ),
    admittance_terms=(
        AdmittanceTerm(branch=4, c_g=0.5, c_b=0.3, g_dim=1, b_dim=0),
        AdmittanceTerm(branch=13, c_g=0.2, c_b=0.5, g_dim=2, b_dim=1),
        AdmittanceTerm(branch=30, c_g=0.4, c_b=0.4, g_dim=0, b_dim=2),
    ),
)


def test_jacobian_matches_finite_differences(case39):
    """Complex-step derivative: J e_j = Im f(u + i h e_j) / h, exact to
    round-off for the analytic mismatch, at random real q."""
    problem = parametric_problem(case39, _MIXED)
    u0 = _pack_state(case39, initial_state(case39, "flat"))
    rng = np.random.default_rng(4)
    h = 1e-20
    for _ in range(3):
        u = u0 + rng.uniform(-0.05, 0.05, u0.shape)
        q = rng.uniform(-1.0, 1.0, _MIXED.dims)
        jac = problem.jacobian(u, q)
        step = np.zeros(len(u), dtype=complex)
        cs = np.empty_like(jac)
        for j in range(len(u)):
            step[j] = 1j * h
            cs[:, j] = problem.residual(u + step, q).imag / h
            step[j] = 0.0
        assert np.linalg.norm(jac - cs) / np.linalg.norm(jac) < 1e-12


def test_jacobian_matches_central_differences_at_complex_point(case39):
    """The complex Jacobian is the derivative of the analytic extension."""
    problem = parametric_problem(case39, _MIXED)
    u0 = _pack_state(case39, initial_state(case39, "flat"))
    rng = np.random.default_rng(5)
    h = 1e-6
    for _ in range(3):
        u = u0 + rng.uniform(-0.05, 0.05, u0.shape) + 1j * rng.uniform(-0.05, 0.05, u0.shape)
        q = rng.uniform(-1.0, 1.0, _MIXED.dims) + 1j * rng.uniform(-0.3, 0.3, _MIXED.dims)
        jac = problem.jacobian(u, q)
        fd = np.empty_like(jac)
        for j in range(len(u)):
            e = np.zeros(len(u))
            e[j] = h
            fd[:, j] = (problem.residual(u + e, q) - problem.residual(u - e, q)) / (2 * h)
        assert np.linalg.norm(jac - fd) / np.linalg.norm(jac) < 1e-8
