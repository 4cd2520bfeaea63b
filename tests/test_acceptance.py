"""Acceptance gate: one test per shipped claim, tolerances pinned inline.

Each test prints a single ``PASS criterion n`` line on success so a verbose
run reads as a checklist (a property check beside its criterion prints
nothing); pytest's own pass/fail status is the authority.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import cauchy_riemann_residual, monte_carlo_oracle
from uqflow.analyticity import EllipseRegion, bound_constants, convergence_bound
from uqflow.case_io import load_case, parse_matpower, serialize_case, to_network
from uqflow.errors import CaseFormatError
from uqflow.moments import (
    default_orders,
    moment_estimates,
    quadrature_plan,
)
from uqflow.newton import NewtonProblem, kantorovich_certificate, solve
from uqflow.nodes1d import (
    barycentric_basis,
    barycentric_weights,
    chebyshev_coefficients,
    clenshaw_curtis_nodes,
)
from uqflow.powerflow import (
    AdmittanceTerm,
    LoadTerm,
    QuantityOfInterest,
    StochasticPerturbation,
    _expand_state,
    initial_state,
    parametric_problem,
    solve_power_flow,
)
from uqflow.sparse_grid import (
    GridRule,
    build_plan,
    build_surrogate,
    evaluate_surrogate,
    polynomial_space,
)
from uqflow.study import Study

SMOLYAK = GridRule("smolyak", "clenshaw_curtis")


def test_c1_interpolation_exact_on_polynomial_space():
    """Every rule reproduces its exactness space to round-off."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    for kind in ("smolyak", "td", "hc"):
        rule = GridRule(kind, "clenshaw_curtis")
        for dims in (1, 2, 3):
            for w in range(5):
                plan = build_plan(rule, w, dims)
                space = polynomial_space(rule, w, dims)
                take = min(20, len(space))
                powers = space[rng.choice(len(space), size=take, replace=False)]
                surrogate = build_surrogate(
                    plan, lambda q, P=powers: np.prod(np.asarray(q) ** P, axis=1)
                )
                pts = rng.uniform(-1.0, 1.0, (100, dims))
                got = evaluate_surrogate(surrogate, pts)
                want = np.stack([np.prod(pts**p, axis=1) for p in powers], axis=1)
                worst = max(worst, float(np.max(np.abs(got - want))))
    elapsed = time.perf_counter() - start
    assert worst < 1e-10, f"worst interpolation defect {worst:.2e}"
    assert elapsed < 10.0, f"exactness sweep took {elapsed:.1f}s"
    print(f"PASS criterion 1: polynomial exactness (worst defect {worst:.1e}, {elapsed:.1f}s)")


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["smolyak", "td", "hc"]),
    family=st.sampled_from(["clenshaw_curtis", "gauss_legendre"]),
    dims=st.integers(1, 3),
    w=st.integers(0, 3),
    data=st.data(),
)
def test_c1_every_rule_and_family_reproduces_its_polynomial_space(kind, family, dims, w, data):
    """Criterion 1 as a property: a monomial of the drawn rule's polynomial
    space, at drawn points of [-1, 1]^dims, for either node family."""
    rule = GridRule(kind, family)
    space = polynomial_space(rule, w, dims)
    powers = space[data.draw(st.integers(0, len(space) - 1), label="degree")]
    point = st.lists(st.floats(-1.0, 1.0), min_size=dims, max_size=dims)
    pts = np.array(data.draw(st.lists(point, min_size=1, max_size=5), label="points"))
    surrogate = build_surrogate(build_plan(rule, w, dims), lambda q: np.prod(np.asarray(q) ** powers))
    defect = np.max(np.abs(evaluate_surrogate(surrogate, pts) - np.prod(pts**powers, axis=1)))
    assert defect <= 1e-10, f"defect {defect:.2e} of degree {powers.tolist()}"


def test_c2_univariate_rate_matches_ellipse_radius():
    """1/(y-3): coefficient decay and interpolation error track the pole."""
    u = lambda y: 1.0 / (y - 3.0)
    zeta = 3.0 + 2.0 * math.sqrt(2.0)

    coeffs = chebyshev_coefficients(u, 30)
    ks = np.arange(2, 14)
    slope = np.polyfit(ks, np.log(np.abs(coeffs[2:14])), 1)[0]
    fitted = math.exp(-slope)
    assert abs(fitted - zeta) / zeta < 0.05, f"fitted decay base {fitted:.4f}"

    def minimized_bound(m: int) -> float:
        best = math.inf
        for rho in np.linspace(1.02, zeta * 0.999, 400):
            vertex = 0.5 * (rho + 1.0 / rho)
            if vertex >= 3.0:
                continue
            peak = 1.0 / (3.0 - vertex)
            best = min(best, 4.0 * peak / ((rho - 1.0) * rho ** (m - 1)))
        return best

    grid = np.linspace(-1.0, 1.0, 2001)
    for m in (5, 9, 17):
        nodes = clenshaw_curtis_nodes(m)
        basis = barycentric_basis(nodes, barycentric_weights(nodes), grid)
        err = float(np.max(np.abs(basis @ u(nodes) - u(grid))))
        assert err <= 1.5 * minimized_bound(m), f"m={m}: err {err:.2e} above bound"
    print(f"PASS criterion 2: univariate decay base {fitted:.4f} vs {zeta:.4f}, errors under bound")


def test_c3_kantorovich_certificate_scalar():
    """x^2 - 2 at 1.5 with exact curvature: h = 1/9, t* = 1.5 - sqrt(2)."""
    problem = NewtonProblem(
        residual=lambda x, p: x[..., :1] ** 2 - 2.0,
        jacobian=lambda x, p: 2.0 * x[..., :1, None],
    )
    cert = kantorovich_certificate(problem, np.array([1.5]), lipschitz=2.0)
    assert cert.satisfied
    assert abs(cert.h - 1.0 / 9.0) < 1e-12
    t_star = 1.5 - math.sqrt(2.0)
    assert abs(cert.t_star - t_star) < 1e-12
    trace = solve(problem, np.array([1.5]), tol=1e-14)
    assert trace.converged
    for x in trace.iterates:
        assert abs(x[0] - 1.5) <= cert.t_star + 1e-12
    print(f"PASS criterion 3: h = {cert.h:.12f}, t* = {cert.t_star:.12f}, iterates inside ball")


def test_c4_power_flow_jacobian_and_convergence():
    """Analytic Jacobian matches differences; flat start converges fast."""
    net = to_network(load_case("bundled:case39"))
    pert = StochasticPerturbation(dims=1)
    pert.validate(net)
    problem = parametric_problem(net, pert)
    u0 = initial_state(net, "flat")
    q0 = np.zeros(1)
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(10):
        u = u0 + rng.uniform(-0.05, 0.05, u0.shape)
        jac = problem.jacobian(u, q0)
        fd = np.empty_like(jac)
        h = 1e-6
        for j in range(len(u)):
            e = np.zeros(len(u))
            e[j] = h
            fd[:, j] = (problem.residual(u + e, q0) - problem.residual(u - e, q0)) / (2 * h)
        worst = max(worst, float(np.linalg.norm(jac - fd) / np.linalg.norm(jac)))
    assert worst < 1e-6, f"Jacobian mismatch {worst:.2e}"

    start = time.perf_counter()
    result = solve_power_flow(net, tol=1e-10)
    elapsed = time.perf_counter() - start
    assert result.trace.converged
    assert result.trace.iterations <= 10
    assert result.trace.residual_norms[-1] < 1e-8
    assert elapsed < 1.0

    usable = [r for r in result.trace.residual_norms if 1e-14 < r < 1e3]
    e1, e2, e3 = usable[-3:]
    order = math.log(e3 / e2) / math.log(e2 / e1)
    assert order >= 1.8, f"observed order {order:.2f}"
    print(
        f"PASS criterion 4: Jacobian defect {worst:.1e}, "
        f"{result.trace.iterations} iterations, order {order:.2f}, {elapsed*1e3:.0f} ms"
    )


def _study_errors(net, pert):
    study = Study.open(net, pert, SMOLYAK, QuantityOfInterest.parse("voltage:22"), tol=1e-12)
    ref = study.level(5)
    return [
        (r.w, r.knots, abs(r.mean - ref.mean), abs(r.variance - ref.variance))
        for r in map(study.level, (1, 2, 3, 4))
    ]


def test_c5_moment_convergence_studies():
    """Both two-parameter studies sharpen monotonically toward level 5."""
    start = time.perf_counter()
    net = to_network(load_case("bundled:case39"))
    load_pert = StochasticPerturbation(
        dims=2,
        load_terms=(
            LoadTerm(bus=1, c_p=0.5, c_q=0.5, p_dim=0, q_dim=0),
            LoadTerm(bus=3, c_p=0.5, c_q=0.5, p_dim=1, q_dim=1),
        ),
    )
    adm_pert = StochasticPerturbation(
        dims=2,
        admittance_terms=(
            AdmittanceTerm(branch=0, c_g=0.5, c_b=0.5, g_dim=0, b_dim=0),
            AdmittanceTerm(branch=1, c_g=0.5, c_b=0.5, g_dim=1, b_dim=1),
        ),
    )
    summaries = []
    for label, pert in (("load", load_pert), ("admittance", adm_pert)):
        rows = _study_errors(net, pert)
        mean_errs = [r[2] for r in rows]
        var_errs = [r[3] for r in rows]
        assert all(b < a for a, b in zip(mean_errs, mean_errs[1:])), (label, mean_errs)
        assert all(b < a for a, b in zip(var_errs, var_errs[1:])), (label, var_errs)
        (w3, n3, e3, _), (w4, n4, e4, _) = rows[-2], rows[-1]
        slope = -math.inf if e4 == 0.0 else math.log(e4 / e3) / math.log(n4 / n3)
        if label == "load":
            assert slope <= -2.0, f"final secant slope {slope:.2f}"
        summaries.append(f"{label}: errs {mean_errs[0]:.1e}->{mean_errs[-1]:.1e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"PASS criterion 5: {'; '.join(summaries)} ({elapsed:.1f}s)")


_DEMO3 = to_network(load_case("bundled:demo-3bus"))
_DEMO3_LOAD = StochasticPerturbation(
    dims=1, load_terms=(LoadTerm(bus=3, c_p=0.5, c_q=0.5, p_dim=0, q_dim=0),)
)


def _demo3_v3(g: complex) -> complex:
    """Bus-3 voltage of the demo load study at complex g, from a flat start."""
    problem = parametric_problem(_DEMO3, _DEMO3_LOAD)
    u0 = initial_state(_DEMO3).astype(complex)
    trace = solve(problem, u0, np.array([g], dtype=complex), tol=1e-12, max_iter=40)
    assert trace.converged
    return complex(_expand_state(_DEMO3, trace.x)[_DEMO3.n + 2])


def test_c6_complexified_solver_is_analytic():
    """The demo load-bus voltage responds analytically to a complex load scale."""
    g0 = 0.3 + 0.05j
    value = _demo3_v3(g0)
    assert abs(value.imag) > 1e-5
    residual = cauchy_riemann_residual(_demo3_v3, g0)
    assert residual < 1e-6, f"Cauchy-Riemann residual {residual:.2e}"
    print(f"PASS criterion 6: complex solve converged, CR residual {residual:.1e}")


@settings(max_examples=100, deadline=None)
@given(re=st.floats(-1.0, 1.0), im=st.floats(-0.3, 0.3))
def test_c6_solution_map_is_analytic_across_the_strip(re, im):
    """Criterion 6 as a property: analytic at every g with |Im g| <= 0.3."""
    residual = cauchy_riemann_residual(_demo3_v3, complex(re, im))
    assert residual < 1e-6, f"Cauchy-Riemann residual {residual:.2e} at g={complex(re, im)}"


def test_c7_theory_bound_dominates_observation():
    """Worst-case rate bound stays above the measured error at every level."""
    u = lambda q: 1.0 / (q - 3.0)
    sigma_hat = math.acosh(2.9)  # ellipse stops short of the pole at 3
    m_tilde = 1.0 / (3.0 - 2.9)  # sup of |u| on that closed ellipse
    constants = bound_constants(EllipseRegion((sigma_hat,)), m_tilde)
    grid = np.linspace(-1.0, 1.0, 2001).reshape(-1, 1)
    checked = []
    for w in range(1, 7):
        plan = build_plan(SMOLYAK, w, 1)
        surrogate = build_surrogate(plan, lambda q: u(q[0]))
        observed = float(np.max(np.abs(evaluate_surrogate(surrogate, grid) - u(grid[:, 0]))))
        regime, bound = convergence_bound(constants, w, len(plan.knots))
        assert math.isfinite(bound) and bound > 0
        assert observed <= bound, f"w={w}: observed {observed:.2e} above bound {bound:.2e}"
        checked.append((w, observed, bound, regime))
    print(
        "PASS criterion 7: bound dominates at w=1..6 "
        f"(last: obs {checked[-1][1]:.1e} <= bound {checked[-1][2]:.1e})"
    )


def test_c8_case_parser_contract(data_dir):
    """Table shapes, canonical round trip, and line-numbered failures."""
    case = load_case("bundled:case39")
    assert (case.bus.shape[0], case.gen.shape[0], case.branch.shape[0]) == (39, 10, 46)
    text = serialize_case(case)
    assert serialize_case(parse_matpower(text, name=case.name)) == text

    expected = {"ragged_row.m": 6, "bad_token.m": 12, "duplicate_bus.m": 6}
    for fname, line in expected.items():
        with pytest.raises(CaseFormatError) as err:
            load_case(str(data_dir / fname))
        assert err.value.line == line, f"{fname}: wrong line {err.value.line}"
    print("PASS criterion 8: shapes (39, 10, 46), round trip fixed point, 3 line-numbered rejects")


def test_c9_surrogate_moments_match_monte_carlo():
    """Level-4 surrogate moments sit inside 4 standard errors of plain MC."""
    rng = np.random.default_rng(77)
    plan = build_plan(SMOLYAK, 4, 2)
    q_plan = quadrature_plan(default_orders(SMOLYAK, 4, 2))
    for trial in range(10):
        a = rng.uniform(-0.8, 0.8, 2)
        b = rng.uniform(-2.0, 2.0, 2)
        c = rng.uniform(0.0, 2.0 * math.pi)

        def f(pts):
            pts = np.atleast_2d(pts)
            return np.exp(pts @ a) + 0.5 * np.sin(pts @ b + c)

        surrogate = build_surrogate(plan, lambda q: float(f(q)[0]))
        est = moment_estimates(surrogate, q_plan)
        mc = monte_carlo_oracle(f, 2, 1_000_000, seed=500 + trial)
        assert abs(est.mean - mc.mean) <= 4.0 * mc.se_mean, f"trial {trial} mean"
        assert abs(est.variance - mc.variance) <= 4.0 * mc.se_variance, f"trial {trial} var"
    print("PASS criterion 9: 10/10 random responses inside 4 SE of a million-sample MC")
