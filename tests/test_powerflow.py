from __future__ import annotations

import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import dense_gb_matrices, term_affine_parts, term_perturbation

import uqflow.powerflow
from uqflow.case_io import load_case, to_network
from uqflow.errors import (
    CaseValidationError,
    NonconvergenceError,
    NonphysicalStateError,
    SingularJacobianError,
)
from uqflow.newton import parameter_slopes, solve, taylor_predictor
from uqflow.powerflow import (
    Branch,
    Bus,
    PowerNetwork,
    QuantityOfInterest,
    StochasticPerturbation,
    _affine_parts,
    _expand_state,
    gb_matrices,
    initial_state,
    parametric_problem,
    qoi_sampler,
    solve_power_flow,
)
from uqflow.sparse_grid import GridRule, build_plan
from uqflow.study import study_perturbation


@pytest.fixture(scope="module")
def demo():
    return to_network(load_case("bundled:demo-3bus"))


@pytest.fixture(scope="module")
def case39():
    return to_network(load_case("bundled:case39"))


def test_demo_solution_frozen(demo):
    result = solve_power_flow(demo, tol=1e-10)
    assert result.trace.converged
    assert result.trace.iterations <= 5
    np.testing.assert_allclose(
        result.theta, [0.0, -0.05237956, -0.17470709], atol=1e-7
    )
    np.testing.assert_allclose(result.v, [1.0, 1.05, 0.94895234], atol=1e-7)


def test_demo_respects_setpoints(demo):
    result = solve_power_flow(demo)
    assert result.v[0] == 1.0  # slack magnitude pinned
    assert result.v[1] == 1.05  # pv magnitude pinned
    assert result.theta[0] == 0.0  # slack angle reference


def test_demo_power_balance(demo):
    # net injections must sum to zero: the triangle is lossless (r = 0)
    result = solve_power_flow(demo)
    assert result.p_injection.sum() == pytest.approx(0.0, abs=1e-9)
    # bus 3 injection equals the negated load in per unit
    assert result.p_injection[2] == pytest.approx(-2.8653, abs=1e-9)
    assert result.q_injection[2] == pytest.approx(-1.2244, abs=1e-9)


def test_case39_flat_start_converges(case39):
    result = solve_power_flow(case39, tol=1e-10)
    assert result.trace.converged
    assert result.trace.iterations <= 10
    assert result.trace.residual_norms[-1] < 1e-8


def test_case39_matches_stored_operating_point(case39):
    # the bundled tables carry a converged operating point; solving from a
    # flat start must land on it (theta0/v0 are stored in solver units)
    result = solve_power_flow(case39, tol=1e-10)
    v0 = np.array([b.v0 for b in case39.buses])
    theta0 = np.array([b.theta0 for b in case39.buses])
    assert np.max(np.abs(result.v - v0)) < 1e-6
    assert np.max(np.abs(result.theta - theta0)) < 1e-5


def test_case39_v22_in_physical_band(case39):
    result = solve_power_flow(case39, tol=1e-10)
    v22 = result.v[case39.position[22]]
    assert 0.8 < v22 < 1.2


def test_case_start_agrees_with_flat_start(case39):
    flat = solve_power_flow(case39, init="flat", tol=1e-10)
    warm = solve_power_flow(case39, init="from-case", tol=1e-10)
    assert warm.trace.converged and warm.trace.iterations <= flat.trace.iterations
    np.testing.assert_allclose(warm.v, flat.v, atol=1e-8)


def test_quantity_of_interest_parse():
    qoi = QuantityOfInterest.parse("voltage:22")
    assert qoi.kind == "voltage" and qoi.bus == 22
    qoi = QuantityOfInterest.parse("angle:5")
    assert qoi.kind == "angle" and qoi.bus == 5
    with pytest.raises(ValueError):
        QuantityOfInterest.parse("frequency:2")


def test_quantity_of_interest_lookup(demo):
    voltage, angle = QuantityOfInterest.parse("voltage:3"), QuantityOfInterest.parse("angle:2")
    assert voltage.state_index(demo) == demo.n + 2
    assert angle.state_index(demo) == 1
    result = solve_power_flow(demo)
    state = np.concatenate([result.theta, result.v])
    assert state[voltage.state_index(demo)] == pytest.approx(0.9489523351354909, abs=1e-9)
    assert state[angle.state_index(demo)] == result.theta[1]


@pytest.mark.parametrize("name", ["bundled:case39", "bundled:demo-3bus"])
@pytest.mark.parametrize("init", ["flat", "from-case"])
def test_initial_state_is_the_packed_per_bus_start(name, init):
    """The unknowns [theta at non-slack; V at pq] of the per-bus start, with
    the setpoints at the slack and PV buses, bit for bit."""
    net = to_network(load_case(name))
    if init == "flat":
        theta = np.full(net.n, net.buses[net.slack_pos].theta0)
        v = np.array([b.v_set if b.kind != "pq" else 1.0 for b in net.buses])
    else:
        theta = np.array([b.theta0 for b in net.buses])
        v = np.array([b.v_set if b.kind != "pq" else b.v0 for b in net.buses])
    packed = np.concatenate([theta[net.non_slack], v[net.pq]])
    u = initial_state(net, init)
    assert u.dtype == packed.dtype and u.tobytes() == packed.tobytes()
    with pytest.raises(ValueError, match="unknown init"):
        initial_state(net, "from_case")


def test_perturbation_validation(demo):
    # demo has 3 buses (6 load rows) and 3 in-service branches (6 admittance rows)
    bus3 = np.zeros((6, 1))
    bus3[[2, 5]] = 0.5
    for dims, load, admittance, message in (
        (1, bus3[:5], (), "^load coefficients need 6 rows of 1$"),
        (2, bus3, (), "^load coefficients need 6 rows of 2$"),
        (1, (), np.ones((7, 1)), "^admittance coefficients need 6 rows of 1$"),
        (1, np.where(bus3, math.inf, 0.0), (), "load coefficients must be finite"),
        (1, (), np.full((6, 1), math.nan), "admittance coefficients must be finite"),
    ):
        with pytest.raises(CaseValidationError, match=message):
            StochasticPerturbation(dims, load, admittance).validate(demo)
    with pytest.raises(CaseValidationError, match="^load term references unknown bus 99$"):
        study_perturbation(demo, "load", 1, 0.5, load_buses=(99,))
    # an array converts to rows of floats, so the perturbation is hashable
    pert = StochasticPerturbation(dims=1, load=bus3)
    assert pert.load == ((0.0,), (0.0,), (0.5,), (0.0,), (0.0,), (0.5,))
    assert hash(pert) == hash(StochasticPerturbation(dims=1, load=pert.load))
    assert pert == study_perturbation(demo, "load", 1, 0.5, load_buses=(3,))
    # a matrix without a nonzero entry is no dependence, spelt one way
    zeros = np.zeros((6, 1))
    assert StochasticPerturbation(1, zeros, zeros) == StochasticPerturbation(1)
    # a listed bus is checked even where a zero coefficient leaves no row naming it
    with pytest.raises(CaseValidationError, match="^load term on bus 1 is the slack bus$"):
        study_perturbation(demo, "load", 1, 0.0, load_buses=(1,))


def test_perturbation_rejects_inert_load_terms(demo):
    # demo bus 1 is the slack bus; bus 2 is a PV bus without load. One
    # nonzero entry, in the P row or in the Q row, is enough.
    for row, why in ((0, "bus 1 is the slack bus"), (4, "bus 2 carries no load")):
        load = np.zeros((6, 2))
        load[row, 1] = 0.5
        with pytest.raises(CaseValidationError, match=f"load term on {why}"):
            StochasticPerturbation(dims=2, load=load).validate(demo)


def test_perturbation_rejects_duplicate_targets(case39):
    with pytest.raises(CaseValidationError, match="two load terms target bus 3"):
        study_perturbation(case39, "load", 2, 0.5, load_buses=(3, 3))
    with pytest.raises(CaseValidationError, match=r"two admittance terms target branch row 2 \(1-39\)"):
        study_perturbation(case39, "admittance", 2, 0.5, branches=(2, 2))


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
def _terms_and_point(draw, load_buses=_LOAD_BUSES, branches=_BRANCHES):
    """(dims, load terms, admittance terms, q): load terms on up to three of
    load_buses and admittance terms on one to three of branches, drawn dims
    of which two terms may share, and a real or complex point q."""
    dims = draw(st.integers(1, 4))
    dim = st.integers(0, dims - 1)
    coef = st.floats(-0.8, 0.8)
    buses = []
    if load_buses:
        buses = draw(st.lists(st.sampled_from(load_buses), max_size=3, unique=True))
    rows = draw(st.lists(st.sampled_from(branches), min_size=1, max_size=3, unique=True))
    load_terms = tuple((b, draw(coef), draw(coef), draw(dim), draw(dim)) for b in buses)
    admittance_terms = tuple((r, draw(coef), draw(coef), draw(dim), draw(dim)) for r in rows)
    part = st.floats(-1.0, 1.0)
    q = np.array([draw(part) for _ in range(dims)])
    if draw(st.booleans()):
        q = q + 1j * np.array([draw(part) for _ in range(dims)])
    return dims, load_terms, admittance_terms, q


def _direct_parts(net, pert, q):
    """Dense G, B and the schedules assembled directly at one point q: every
    branch's series g and b, and every bus's P and Q load, times 1 + row @ q
    of its coefficient row; without admittance rows, the real nominal G, B."""

    def scales(rows, count):
        matrix = np.array(rows).reshape(count, pert.dims) if rows else np.zeros((count, pert.dims))
        return np.split(1.0 + matrix @ q, 2)

    sg, sb = np.ones((2, len(net.branches)))
    if pert.admittance:
        sg, sb = scales(pert.admittance, 2 * len(net.branches))
    G, B = dense_gb_matrices(net, sg, sb)
    sp, sq = scales(pert.load, 2 * net.n)
    ps = np.array([b.p_gen - b.p_load * s for b, s in zip(net.buses, sp)])
    qs = np.array([b.q_gen - b.q_load * s for b, s in zip(net.buses, sq)])
    return G, B, ps, qs


def _assert_affine_parts_match(net, pert, q, scale=0.0):
    """The affine edge values of G, B and the schedules equal a per-point
    assembly of the scaled branches and loads within 1e-13 relative to the
    larger of their largest value and scale, and the assembled matrices are
    exactly zero off the pattern."""
    G2, B2, sched = _affine_parts(net, pert)(q)
    G_ref, B_ref, ps_ref, qs_ref = _direct_parts(net, pert, q)
    rows, cols = net.pattern
    # G and B come stacked twice, once per half of the edge terms
    G, B = G2[: len(rows)], B2[: len(rows)]
    assert np.array_equal(G2[len(rows) :], G) and np.array_equal(B2[len(rows) :], B)
    ps, qs = np.split(sched, 2)

    off_pattern = np.ones((net.n, net.n), dtype=bool)
    off_pattern[rows, cols] = False
    assert not np.any(G_ref[off_pattern]) and not np.any(B_ref[off_pattern])
    pairs = ((G, G_ref[rows, cols]), (B, B_ref[rows, cols]), (ps, ps_ref), (qs, qs_ref))
    for got, ref in pairs:
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * max(np.max(np.abs(ref)), scale)


def _assert_terms_translate_bitwise(net, dims, load_terms, admittance_terms, q):
    """The coefficient matrices of the terms give G, B and the schedules
    with the bits of the term-by-term translation of the admittance terms
    in branch order: a matrix has no term order, and the slopes that two
    terms add on one edge and dim are summed in order."""
    pert = term_perturbation(net, dims, load_terms, admittance_terms)
    got = _affine_parts(net, pert)(q)
    ref = term_affine_parts(net, dims, load_terms, sorted(admittance_terms))(q)
    for a, b in zip(got, ref):
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=100, deadline=None)
@given(_terms_and_point())
def test_coefficient_matrices_equal_the_term_translation_bitwise(case39_shifted, drawn):
    """On case39, with load and admittance terms, for real and complex q."""
    _assert_terms_translate_bitwise(case39_shifted, *drawn)


@settings(max_examples=60, deadline=None)
@given(_terms_and_point())
def test_affine_model_matches_direct_assembly(case39_shifted, drawn):
    """On case39, for real and complex q."""
    dims, load_terms, admittance_terms, q = drawn
    pert = term_perturbation(case39_shifted, dims, load_terms, admittance_terms)
    _assert_affine_parts_match(case39_shifted, pert, q)


def test_pattern_is_row_sorted_with_every_diagonal(case39):
    rows, cols = case39.pattern
    flat = rows * case39.n + cols
    assert np.all(np.diff(flat) > 0)  # row-sorted, each position once
    assert np.array_equal(rows[rows == cols], np.arange(case39.n))  # one diagonal per bus
    G, B = dense_gb_matrices(case39)
    assert len(rows) == np.count_nonzero((G != 0.0) | (B != 0.0)) == 131


@st.composite
def _drawn_network(draw):
    """A small network whose branches include parallel pairs (the same bus
    pair, either way round) and may join a bus to itself, with off-nominal
    and zero taps, phase shifts, charging and bus shunts."""
    n = draw(st.integers(2, 6))
    value = st.floats(-0.5, 0.5, allow_subnormal=False)
    buses = tuple(
        Bus(id=k + 1, kind="slack" if k == 0 else "pq", gs=draw(value), bs=draw(value))
        for k in range(n)
    )
    bus_id = st.integers(1, n)

    def branch(from_bus, to_bus):
        return Branch(
            from_bus=from_bus,
            to_bus=to_bus,
            r=draw(st.floats(0.001, 0.1)),
            x=draw(st.floats(0.01, 0.5)),
            b_charge=draw(st.floats(0.0, 0.5)),
            tap=draw(st.sampled_from([0.0, 1.0]) | st.floats(0.9, 1.1)),
            phase=draw(st.sampled_from([0.0]) | st.floats(-0.5, 0.5)),
        )

    branches = [branch(draw(bus_id), draw(bus_id)) for _ in range(draw(st.integers(1, 8)))]
    for k in draw(st.lists(st.integers(0, len(branches) - 1), min_size=1, max_size=4)):
        ends = (branches[k].from_bus, branches[k].to_bus)
        branches.append(branch(*(ends[::-1] if draw(st.booleans()) else ends)))
    return PowerNetwork(name="drawn", base_mva=100.0, buses=buses, branches=tuple(branches))


@settings(max_examples=200, deadline=None)
@given(_drawn_network())
def test_pattern_assembly_equals_the_dense_oracle_bitwise(net):
    """G and B on the pattern hold the bits of the dense branch-by-branch
    assembly, which is zero off the pattern: parallel branches add up in
    branch order."""
    rows, cols = net.pattern
    off_pattern = np.ones((net.n, net.n), dtype=bool)
    off_pattern[rows, cols] = False
    for got, dense in zip(gb_matrices(net), dense_gb_matrices(net)):
        assert got.dtype == dense.dtype and got.shape == rows.shape
        assert got.tobytes() == dense[rows, cols].tobytes()
        assert not np.any(dense[off_pattern])


@st.composite
def _drawn_network_terms_and_point(draw):
    net = draw(_drawn_network())
    return net, draw(_terms_and_point(load_buses=(), branches=range(len(net.branches))))


@settings(max_examples=200, deadline=None)
@given(_drawn_network_terms_and_point())
def test_coefficient_matrices_equal_the_term_translation_bitwise_on_drawn_networks(drawn):
    """On the networks of the bitwise test above: the slopes of parallel
    branches and self-loops add up on shared edges, in branch order."""
    net, terms = drawn
    _assert_terms_translate_bitwise(net, *terms)


@settings(max_examples=200, deadline=None)
@given(_drawn_network_terms_and_point())
def test_affine_model_matches_direct_assembly_on_drawn_networks(drawn):
    """On the networks of the bitwise test above, with admittance terms on
    drawn branches (self-loops, parallel branches, zero taps, shifters),
    for real and complex q. A self-loop's four entries cancel on its bus
    diagonal, so the error is taken relative to the branch admittances that
    are summed, not to the sum."""
    net, (dims, load_terms, admittance_terms, q) = drawn
    pert = term_perturbation(net, dims, load_terms, admittance_terms)
    _assert_affine_parts_match(net, pert, q, scale=np.max(np.abs(net.branch_constants[:3])))


def test_load_study_keeps_nominal_admittances(case39):
    pert = study_perturbation(case39, "load", 1, 0.5, load_buses=(3,))
    parts = _affine_parts(case39, pert)
    G, B, _ = parts(np.array([0.3 + 0.2j]))
    G_other, B_other, _ = parts(np.array([-0.7]))
    assert G is G_other and B is B_other  # built once, not per q
    G0, B0 = gb_matrices(case39)
    assert G0.shape == B0.shape == case39.pattern[0].shape
    assert np.array_equal(G, np.concatenate([G0, G0]))
    assert np.array_equal(B, np.concatenate([B0, B0]))


def _dense_oracle(net, pert, u, q):
    """Residual and Jacobian by the dense n x n formulas on directly
    assembled G(q), B(q)."""
    G, B, ps, qs = _direct_parts(net, pert, q)
    dtype = np.result_type(u, G)
    theta, v = np.split(net.setpoints.astype(dtype), 2)
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
@given(_terms_and_point(), st.integers(0, 2**32 - 1), st.booleans())
def test_edge_kernels_match_dense_oracle(case39_shifted, drawn, seed, complex_state):
    """Residual and Jacobian on the branch pattern equal the dense n x n
    formulas at real and complex q and states, with mixed load and
    admittance terms."""
    net, (dims, load_terms, admittance_terms, q) = case39_shifted, drawn
    pert = term_perturbation(net, dims, load_terms, admittance_terms)
    rng = np.random.default_rng(seed)
    u = initial_state(net) + rng.uniform(-0.1, 0.1, net.n_unknowns)
    if complex_state:
        u = u + 1j * rng.uniform(-0.05, 0.05, net.n_unknowns)
    problem = parametric_problem(net, pert)
    res_ref, jac_ref = _dense_oracle(net, pert, u, q)
    for got, ref in ((problem.residual(u, q), res_ref), (problem.jacobian(u, q), jac_ref)):
        assert got.shape == ref.shape and got.dtype == ref.dtype
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


# --- the earlier per-half kernels, kept as a bitwise oracle ---------------------
#
# These are the residual and Jacobian kernels as they stood before the stacked
# [theta; V] and [P; Q] layout: separate theta and V, separate P and Q sums,
# a row-major scatter. The stacked kernels must reproduce them bit for bit.


def _oracle_scatter(net):
    rows, cols = net.pattern
    nn = len(net.non_slack)
    angle = np.full(net.n, -1)
    angle[net.non_slack] = np.arange(nn)
    magnitude = np.full(net.n, -1)
    magnitude[net.pq] = nn + np.arange(len(net.pq))
    r = np.concatenate([angle[rows], angle[rows], magnitude[rows], magnitude[rows]])
    c = np.concatenate([angle[cols], magnitude[cols], angle[cols], magnitude[cols]])
    diagonal = np.flatnonzero(np.tile(rows == cols, 4))
    select = np.flatnonzero((r >= 0) & (c >= 0))
    return diagonal, select, r[select] * net.n_unknowns + c[select]


def _oracle_kernels(net, G, B, p_sched, q_sched, u):
    rows, cols = net.pattern
    setpoints = np.split(net.setpoints, 2)
    theta, v = (x.astype(u.dtype) for x in setpoints)
    nn = len(net.non_slack)
    theta[net.non_slack] = u[:nn]
    v[net.pq] = u[nn:]
    dtheta = theta[rows] - theta[cols]
    ct = np.cos(dtheta)
    st_ = np.sin(dtheta)
    vk = v[rows]
    a, c = vk * (G * ct + B * st_), vk * (G * st_ - B * ct)
    vl = v[cols]
    row_starts = np.flatnonzero(np.diff(rows, prepend=-1))
    p, q = np.add.reduceat(a * vl, row_starts), np.add.reduceat(c * vl, row_starts)
    residual = np.concatenate([(p - p_sched)[net.non_slack], (q - q_sched)[net.pq]])
    diagonal, select, flat = _oracle_scatter(net)
    blocks = np.concatenate([c * vl, a, -a * vl, c])
    blocks[diagonal] += np.concatenate([-q, p / v, p, q / v])
    m = net.n_unknowns
    jac = np.zeros(m * m, dtype=blocks.dtype)
    jac[flat] = blocks[select]
    return residual, jac.reshape(m, m)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["load", "admittance"]),
    st.integers(1, 4),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
)
def test_kernels_match_the_per_half_oracle_bitwise(
    case39, kind, dims, seed, complex_state, complex_q
):
    """Residual and Jacobian equal the earlier per-half kernels exactly, at
    random real and complex states and parameters of the case39 studies."""
    pert = study_perturbation(case39, kind, dims, 0.5)
    rng = np.random.default_rng(seed)
    u = initial_state(case39, "from-case")
    u = u + rng.uniform(-0.1, 0.1, case39.n_unknowns)
    if complex_state:
        u = u + 1j * rng.uniform(-0.05, 0.05, case39.n_unknowns)
    q = rng.uniform(-1.0, 1.0, dims)
    if complex_q:
        q = q + 1j * rng.uniform(-0.5, 0.5, dims)
    G2, B2, sched = _affine_parts(case39, pert)(q)
    edges = len(case39.pattern[0])
    res_ref, jac_ref = _oracle_kernels(case39, G2[:edges], B2[:edges], *np.split(sched, 2), u)
    problem = parametric_problem(case39, pert)
    for got, ref in ((problem.residual(u, q), res_ref), (problem.jacobian(u, q), jac_ref)):
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert np.array_equal(got, ref)


def test_problem_reevaluates_when_point_changes(case39_shifted):
    """One problem evaluated at q1, q2, q1 (and at q1 with a complex dtype,
    and at a second state) gives what a fresh problem gives each time."""
    u1 = initial_state(case39_shifted)
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
    pert = study_perturbation(demo, "load", 1, 0.5, load_buses=(3,))
    pert.validate(demo)
    problem = parametric_problem(demo, pert)
    u = initial_state(demo, "flat")
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


def test_qoi_sampler_deterministic(demo):
    pert = study_perturbation(demo, "load", 1, 0.5, load_buses=(3,))
    sample = qoi_sampler(demo, pert, QuantityOfInterest.parse("voltage:3"))
    a = sample(np.array([0.4]))
    b = sample(np.array([-0.7]))
    assert sample(np.array([0.4])) == a  # same point, same answer, any order
    assert a != b
    assert sample(np.array([0.0])) == pytest.approx(0.9489523351354909, abs=1e-9)


def test_qoi_sampler_reports_offending_point(demo):
    pert = study_perturbation(demo, "load", 1, 30.0, load_buses=(3,))
    sample = qoi_sampler(demo, pert, QuantityOfInterest.parse("voltage:3"))
    with pytest.raises(NonphysicalStateError, match=r"q=\[1\.0\]"):
        sample(np.array([1.0]))


def test_qoi_sampler_names_point_of_singular_jacobian(demo, monkeypatch):
    def singular(*args, **kwargs):
        raise SingularJacobianError(2, 0.0, 1.0)

    pert = study_perturbation(demo, "load", 1, 0.5, load_buses=(3,))
    sample = qoi_sampler(demo, pert, QuantityOfInterest.parse("voltage:3"))
    monkeypatch.setattr(uqflow.powerflow, "solve", singular)
    with pytest.raises(SingularJacobianError, match=r"iteration 2.* at q=\[0\.25\]") as exc:
        sample(np.array([0.25]))
    assert exc.value.iteration == 2


def test_knot_start_reraises_when_the_flat_start_fails_too(monkeypatch):
    # an isolated loaded PQ bus makes J singular from every start
    case = load_case("bundled:demo3")
    isolated = case.bus[-1].copy()
    isolated[0] = 4
    case.bus = np.vstack([case.bus, isolated])
    net = to_network(case)
    inits = []

    def recording(net, init="flat"):
        inits.append(init)
        return initial_state(net, init)

    monkeypatch.setattr(uqflow.powerflow, "initial_state", recording)
    pert = study_perturbation(net, "load", 1, 0.5)
    sample = qoi_sampler(net, pert, QuantityOfInterest.parse("voltage:3"))
    with pytest.raises(SingularJacobianError, match=r"iteration 0.* at q=\[0\.5\]"):
        sample(np.array([0.5]))
    assert inits == ["from-case", "flat"]


def test_knot_out_of_iterations_is_a_nonconvergence_error(demo):
    pert = study_perturbation(demo, "load", 1, 0.5)
    sample = qoi_sampler(demo, pert, QuantityOfInterest.parse("voltage:3"), tol=1e-300)
    with pytest.raises(NonconvergenceError, match=r"did not converge at q=\[0\.25\]"):
        sample(np.array([0.25]))


def test_unknown_qoi_bus_is_refused_when_the_sampler_is_made(demo):
    qoi = QuantityOfInterest.parse("voltage:99")
    message = "quantity of interest references unknown bus 99"
    with pytest.raises(CaseValidationError, match=message):
        qoi.state_index(demo)
    with pytest.raises(CaseValidationError, match=message):
        qoi_sampler(demo, study_perturbation(demo, "load", 1, 0.5), qoi)


def _recorded_sample(sample, q):
    """sample(q) and the NewtonTrace of the knot solve it ran."""
    traces = []

    def recording(*args, **kwargs):
        traces.append(solve(*args, **kwargs))
        return traces[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(uqflow.powerflow, "solve", recording)
        value = sample(q)
    (trace,) = traces
    return value, trace


# (case, study, dims, qoi): the CLI's studies with their default terms
_STUDIES = [
    *(("case39", kind, dims, "voltage:22") for kind in ("load", "admittance") for dims in range(1, 5)),
    ("demo", "load", 1, "voltage:3"),
    ("demo", "admittance", 3, "angle:3"),
]


def _independent_start(net, pert, q):
    """x_c - J0^-1 f(x_c, q) - 1/2 J0^-1 sum_jk q_j q_k (D_x J[T_j] T_k + dJ_j T_k
    + dJ_k T_j) at the stored operating point x_c, with np.linalg.solve and
    central differences of J along T_j in place of the LAPACK factors and
    the complex step of newton.taylor_predictor."""
    problem = parametric_problem(net, pert)
    dims = pert.dims
    u_c = initial_state(net, "from-case")
    zero = np.zeros(dims)
    j_c = problem.jacobian(u_c, zero)
    f_c = problem.residual(u_c, zero)
    slope_f = [problem.residual(u_c, e) - f_c for e in np.eye(dims)]
    slope_j = [problem.jacobian(u_c, e) - j_c for e in np.eye(dims)]
    tangent = -np.linalg.solve(j_c, np.array(slope_f).T)
    h = 1e-5
    bend = [
        (problem.jacobian(u_c + h * t, zero) - problem.jacobian(u_c - h * t, zero)) / (2 * h)
        for t in tangent.T
    ]
    second = sum(
        q[j] * q[k] * ((bend[j] + slope_j[j]) @ tangent[:, k] + slope_j[k] @ tangent[:, j])
        for j in range(dims)
        for k in range(dims)
    )
    chord = u_c - np.linalg.solve(j_c, problem.residual(u_c, q))
    return chord - 0.5 * np.linalg.solve(j_c, second)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_STUDIES), st.data())
def test_predictor_start_matches_flat_start(demo, case39, study, data):
    """At random q in the box the sampler starts from the second-order
    predictor and reaches the flat-start solution, in no more Newton
    iterations."""
    case, kind, dims, text = study
    net = {"case39": case39, "demo": demo}[case]
    pert = study_perturbation(net, kind, dims, 0.5)
    qoi = QuantityOfInterest.parse(text)
    q = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=dims, max_size=dims)))
    value, trace = _recorded_sample(qoi_sampler(net, pert, qoi), q)
    problem = parametric_problem(net, pert)
    start = _independent_start(net, pert, q)
    np.testing.assert_allclose(trace.iterates[0], start, rtol=0.0, atol=1e-9)
    flat = solve(problem, initial_state(net), q, tol=1e-12, max_iter=25)
    assert flat.converged
    reference = _expand_state(net, flat.x)[qoi.state_index(net)]
    assert abs(value - reference) <= 1e-12
    assert trace.iterations <= flat.iterations


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["load", "admittance"]), st.integers(1, 4), st.data())
def test_predictor_error_is_third_order(case39, kind, dims, data):
    """Along a ray t q the start misses the solved state by O(t^3): the slope
    of log(error) against log(t), fitted from t = 0.2 down to 0.025, is about
    3 (2.88 to 3.04 measured; the first-order chord step gives 2)."""
    pert = study_perturbation(case39, kind, dims, 0.5)
    problem = parametric_problem(case39, pert)
    u_c = initial_state(case39, "from-case")
    predictor = taylor_predictor(problem, parameter_slopes(problem, u_c, dims), u_c)
    direction = st.lists(st.floats(-1.0, 1.0), min_size=dims, max_size=dims)
    q = np.array(data.draw(direction.filter(lambda q: max(map(abs, q)) > 0.1)))
    q /= np.abs(q).max()
    ts = np.array([0.2, 0.1, 0.05, 0.025])
    errors = []
    for t in ts:
        start = predictor(t * q)
        trace = solve(problem, start, t * q, tol=1e-12, max_iter=25)
        assert trace.converged
        errors.append(np.abs(start - trace.x).max())
    slope = np.polyfit(np.log(ts), np.log(errors), 1)[0]
    assert 2.6 <= slope <= 3.4


def test_nonphysical_stored_point_falls_back_to_the_flat_start(demo):
    """A stored magnitude of 0 at a PQ bus leaves no usable anchor at the
    case's point; the sampler then anchors its predictor at the flat start."""
    buses = tuple(dataclasses.replace(b, v0=0.0) if b.kind == "pq" else b for b in demo.buses)
    zeroed = dataclasses.replace(demo, buses=buses)
    pert = study_perturbation(demo, "load", 1, 0.5)
    qoi = QuantityOfInterest.parse("voltage:3")
    u_c = initial_state(zeroed, "from-case")
    with pytest.raises(NonphysicalStateError):
        parametric_problem(zeroed, pert).residual(u_c, np.zeros(1))
    for q in ([-0.5], [0.0], [0.8]):
        got = qoi_sampler(zeroed, pert, qoi)(np.array(q))
        assert got == pytest.approx(qoi_sampler(demo, pert, qoi)(np.array(q)), abs=1e-12)


def _load_study_knots(case39):
    pert = study_perturbation(case39, "load", 4, 0.5)
    return pert, build_plan(GridRule("smolyak", "clenshaw_curtis"), 2, 4).knots


def test_knot_value_does_not_depend_on_solve_order(case39):
    """A knot solved first by a fresh sampler and the same knot solved after
    every other knot give the same float, bit for bit."""
    pert, knots = _load_study_knots(case39)
    qoi = QuantityOfInterest.parse("voltage:22")
    shared = qoi_sampler(case39, pert, qoi)
    in_order = [shared(q) for q in knots]
    for i in (0, 7, len(knots) // 2, len(knots) - 1):
        assert qoi_sampler(case39, pert, qoi)(knots[i]) == in_order[i]
        assert shared(knots[i]) == in_order[i]


def test_load_study_knots_converge_in_three_iterations(case39):
    pert, knots = _load_study_knots(case39)
    sample = qoi_sampler(case39, pert, QuantityOfInterest.parse("voltage:22"))
    assert len(knots) == 41
    assert max(_recorded_sample(sample, q)[1].iterations for q in knots) <= 3


def _complex_flat_start_solve(net, pert, g: complex):
    """Per-bus V and the trace of a flat-start solve at the complex point g."""
    u0 = initial_state(net).astype(complex)
    trace = solve(parametric_problem(net, pert), u0, np.array([g]), tol=1e-12, max_iter=40)
    return _expand_state(net, trace.x)[net.n :], trace


def test_complexified_solve_real_limit(demo):
    pert = study_perturbation(demo, "load", 1, 0.5, load_buses=(3,))
    v, trace = _complex_flat_start_solve(demo, pert, 0.0 + 0.0j)
    assert trace.converged
    assert np.max(np.abs(v.imag)) < 1e-10
    assert v[2].real == pytest.approx(0.9489523351354909, abs=1e-8)


def test_complexified_solve_complex_parameter(demo):
    pert = study_perturbation(demo, "load", 1, 0.5, load_buses=(3,))
    v, trace = _complex_flat_start_solve(demo, pert, 0.3 + 0.05j)
    assert trace.converged
    assert abs(v[2].imag) > 1e-5  # genuinely complex response
    assert v[2] == pytest.approx(0.9337296146920018 - 0.002655449647778387j, abs=1e-8)


# load terms next to admittance terms on tapped (4, 13) and plain branches
_MIXED = term_perturbation(
    to_network(load_case("bundled:case39")),
    3,
    load_terms=((3, 0.5, 0.4, 0, 1), (20, 0.3, 0.6, 2, 2)),
    admittance_terms=((4, 0.5, 0.3, 1, 0), (13, 0.2, 0.5, 2, 1), (30, 0.4, 0.4, 0, 2)),
)


def test_jacobian_matches_finite_differences(case39):
    """Complex-step derivative: J e_j = Im f(u + i h e_j) / h, exact to
    round-off for the analytic mismatch, at random real q."""
    problem = parametric_problem(case39, _MIXED)
    u0 = initial_state(case39, "flat")
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
    u0 = initial_state(case39, "flat")
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


# --- stacked evaluation -------------------------------------------------------


@functools.cache
def _case39_study(study, dims):
    net = to_network(load_case("bundled:case39"))
    return net, parametric_problem(net, study_perturbation(net, study, dims, 0.5))


@settings(max_examples=60, deadline=None)
@given(
    study=st.sampled_from(["load", "admittance"]),
    dims=st.integers(1, 4),
    rows=st.integers(1, 40),
    stacked=st.sampled_from(["x and q", "x", "q"]),
    complex_q=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_problem_equals_per_point_evaluation(study, dims, rows, stacked, complex_q, seed):
    """A stack of states and parameter rows gives every row the bits that
    the row gets alone, for stacks in x, in q or in both."""
    net, problem = _case39_study(study, dims)
    rng = np.random.default_rng(seed)
    u0 = initial_state(net, "flat")
    m = len(u0)
    x = u0 + rng.uniform(-0.05, 0.05, (rows, m))
    q = rng.uniform(-1.0, 1.0, (rows, dims))
    if complex_q:
        q = q + 1j * rng.uniform(-0.5, 0.5, (rows, dims))
    if stacked == "x":
        q = q[0]
    elif stacked == "q":
        x = x[0]
    res = problem.residual(x, q)
    jac = problem.jacobian(x, q)
    assert res.shape == (rows, m)
    # a Jacobian that does not depend on q keeps the stack shape of x
    assert jac.shape == ((m, m) if stacked == "q" and study == "load" else (rows, m, m))
    jac = np.broadcast_to(jac, (rows, m, m))
    for k in range(rows):
        xk = x if x.ndim == 1 else x[k]
        qk = q if q.ndim == 1 else q[k]
        assert np.array_equal(problem.residual(xk, qk), res[k])
        assert np.array_equal(problem.jacobian(xk, qk), jac[k])


def test_stacked_residual_names_the_first_nonphysical_bus(case39):
    problem = parametric_problem(case39, study_perturbation(case39, "load", 1, 0.5))
    u = np.tile(initial_state(case39, "flat"), (3, 1))
    magnitudes = len(case39.non_slack)  # the PQ magnitudes follow the angles
    u[1, magnitudes + 4] = -0.1
    u[2, magnitudes + 2] = 0.0
    bus = case39.buses[case39.pq[4]].id
    with pytest.raises(NonphysicalStateError, match=rf"at bus {bus} dropped"):
        problem.residual(u, np.zeros(1))
    with pytest.raises(NonphysicalStateError, match=rf"at bus {bus} dropped"):
        problem.residual(u[1], np.zeros(1))
