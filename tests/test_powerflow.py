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


@settings(max_examples=60, deadline=None)
@given(_perturbation_and_point())
def test_affine_model_matches_direct_assembly(case39_shifted, drawn):
    """The affine G, B and schedules equal a per-point assembly of the
    scaled branches and loads, for real and complex q."""
    net, (pert, q) = case39_shifted, drawn
    G, B, ps, qs = _affine_parts(net, pert)(q)

    sg = np.ones(len(net.branches), dtype=q.dtype)
    sb = np.ones(len(net.branches), dtype=q.dtype)
    for t in pert.admittance_terms:
        sg[t.branch] = 1.0 + t.c_g * q[t.g_dim]
        sb[t.branch] = 1.0 + t.c_b * q[t.b_dim]
    G_ref, B_ref = gb_matrices(net, sg, sb)
    ps_ref = np.array([b.p_gen - b.p_load for b in net.buses], dtype=q.dtype)
    qs_ref = np.array([b.q_gen - b.q_load for b in net.buses], dtype=q.dtype)
    for t in pert.load_terms:
        k = net.position[t.bus]
        bus = net.buses[k]
        ps_ref[k] = bus.p_gen - bus.p_load * (1.0 + t.c_p * q[t.p_dim])
        qs_ref[k] = bus.q_gen - bus.q_load * (1.0 + t.c_q * q[t.q_dim])

    for got, ref in ((G, G_ref), (B, B_ref), (ps, ps_ref), (qs, qs_ref)):
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_load_study_keeps_nominal_admittances(case39):
    pert = StochasticPerturbation(
        dims=1, load_terms=(LoadTerm(bus=3, c_p=0.5, c_q=0.5, p_dim=0, q_dim=0),)
    )
    G, B, _, _ = _affine_parts(case39, pert)(np.array([0.3 + 0.2j]))
    assert G is case39.gb_nominal[0] and B is case39.gb_nominal[1]


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


def test_jacobian_matches_finite_differences(case39):
    pert = StochasticPerturbation(dims=1)
    pert.validate(case39)
    problem = parametric_problem(case39, pert)
    u0 = _pack_state(case39, initial_state(case39, "flat"))
    rng = np.random.default_rng(4)
    q0 = np.zeros(1)
    for _ in range(3):
        u = u0 + rng.uniform(-0.05, 0.05, u0.shape)
        jac = problem.jacobian(u, q0)
        fd = np.empty_like(jac)
        h = 1e-6
        for j in range(len(u)):
            e = np.zeros(len(u))
            e[j] = h
            fd[:, j] = (problem.residual(u + e, q0) - problem.residual(u - e, q0)) / (2 * h)
        assert np.linalg.norm(jac - fd) / np.linalg.norm(jac) < 1e-6
