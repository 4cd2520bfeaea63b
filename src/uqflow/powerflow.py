"""AC power-flow network model: pi-model admittance assembly, polar mismatch
and Jacobian, Newton solves, and stochastic perturbations of loads and branch
admittances.

The mismatch and Jacobian kernels work on the branch pattern of the bus
admittance matrix, not on dense n x n arrays: G and B are carried as value
vectors over the E row-sorted edges of ``PowerNetwork.pattern`` (every bus
diagonal and both ends of every branch), the flow terms take cos/sin of the E
angle differences only, per-bus injections are segment sums over each bus's
row of edges, and the Jacobian is scattered from the edge values into the
m x m matrix of the unknowns through flat indices cached per network.

All evaluation kernels are dtype-generic: called with complex angles,
magnitudes, or parameters they compute the analytic extension of the real
equations, so the one Newton solve runs the complexified iteration at a
complex parameter point and the Cauchy-Riemann diagnostics can differentiate
its result. Conductance and susceptance are carried as separate values end
to end (never as real/imaginary parts of one complex value) because
perturbed parameters make each of them complex on its own.

External bus ids are the 1-based ids from the case tables; positions in all
internal arrays are 0-based.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Literal

import numpy as np

from .errors import CaseValidationError, NonphysicalStateError, SingularJacobianError
from .newton import NewtonProblem, NewtonTrace, chord_predictor, parameter_slopes, solve

BusKind = Literal["slack", "pv", "pq"]

#: Newton iteration caps of the knot solves and of the complex-parameter solve.
_KNOT_MAX_ITER = 25
_COMPLEX_MAX_ITER = 40


@dataclass(frozen=True)
class Bus:
    id: int
    kind: BusKind
    p_load: float = 0.0
    q_load: float = 0.0
    p_gen: float = 0.0
    q_gen: float = 0.0
    v_set: float = 1.0
    gs: float = 0.0
    bs: float = 0.0
    v0: float = 1.0
    theta0: float = 0.0


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    r: float
    x: float
    b_charge: float = 0.0
    tap: float = 1.0
    phase: float = 0.0  # radians

    def series_gb(self) -> tuple[float, float]:
        z2 = self.r * self.r + self.x * self.x
        if z2 == 0.0:
            raise CaseValidationError(
                f"branch {self.from_bus}-{self.to_bus} has zero impedance"
            )
        return self.r / z2, -self.x / z2


@dataclass(frozen=True)
class PowerNetwork:
    name: str
    base_mva: float
    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]

    def __post_init__(self):
        ids = [b.id for b in self.buses]
        if len(set(ids)) != len(ids):
            raise CaseValidationError("duplicate bus ids")
        slacks = [b for b in self.buses if b.kind == "slack"]
        if len(slacks) != 1:
            raise CaseValidationError(f"need exactly one slack bus, found {len(slacks)}")
        pos = {b.id: k for k, b in enumerate(self.buses)}
        for br in self.branches:
            if br.from_bus not in pos or br.to_bus not in pos:
                raise CaseValidationError(
                    f"branch {br.from_bus}-{br.to_bus} references an unknown bus"
                )
            br.series_gb()  # zero-impedance check at construction time

    @cached_property
    def n(self) -> int:
        return len(self.buses)

    @cached_property
    def position(self) -> dict[int, int]:
        return {b.id: k for k, b in enumerate(self.buses)}

    @cached_property
    def slack_pos(self) -> int:
        return next(k for k, b in enumerate(self.buses) if b.kind == "slack")

    @cached_property
    def non_slack(self) -> np.ndarray:
        return np.array([k for k, b in enumerate(self.buses) if b.kind != "slack"])

    @cached_property
    def pq(self) -> np.ndarray:
        return np.array([k for k, b in enumerate(self.buses) if b.kind == "pq"], dtype=int)

    @cached_property
    def n_unknowns(self) -> int:
        return len(self.non_slack) + len(self.pq)

    @cached_property
    def pattern(self) -> tuple[np.ndarray, np.ndarray]:
        """Row-sorted (row, col) of the admittance pattern: every bus diagonal
        and both ends of every branch, each position once. Built from the
        topology, so a value that cancels to zero keeps its edge."""
        edges = {(k, k) for k in range(self.n)}
        for br in self.branches:
            f, t = self.position[br.from_bus], self.position[br.to_bus]
            edges |= {(f, t), (t, f)}
        rows, cols = zip(*sorted(edges))
        return np.array(rows), np.array(cols)

    @cached_property
    def row_starts(self) -> np.ndarray:
        """First edge of each bus row, the np.add.reduceat segments (none is
        empty: every row holds its diagonal)."""
        return np.flatnonzero(np.diff(self.pattern[0], prepend=-1))

    @cached_property
    def gb_nominal(self) -> tuple[np.ndarray, np.ndarray]:
        """Nominal G and B values on the pattern edges."""
        rows, cols = self.pattern
        G, B = gb_matrices(self)
        return G[rows, cols], B[rows, cols]

    @cached_property
    def setpoints(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-bus (theta, V) with the slack angle and PV/slack magnitudes set
        and zeros where the unknowns go."""
        theta = np.array([b.theta0 if b.kind == "slack" else 0.0 for b in self.buses])
        v = np.array([b.v_set if b.kind != "pq" else 0.0 for b in self.buses])
        return theta, v

    @cached_property
    def jacobian_scatter(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(diagonal, select, flat) for the concatenated edge blocks [dP/dtheta,
        dP/dV, dQ/dtheta, dQ/dV] of the Jacobian: the bus diagonals in each
        block, the block entries that land on an unknown row and column of
        the m x m Jacobian [theta at non-slack; V at pq], and their flat
        indices there."""
        rows, cols = self.pattern
        nn = len(self.non_slack)
        angle = np.full(self.n, -1)
        angle[self.non_slack] = np.arange(nn)
        magnitude = np.full(self.n, -1)
        magnitude[self.pq] = nn + np.arange(len(self.pq))
        r = np.concatenate([angle[rows], angle[rows], magnitude[rows], magnitude[rows]])
        c = np.concatenate([angle[cols], magnitude[cols], angle[cols], magnitude[cols]])
        diagonal = np.flatnonzero(np.tile(rows == cols, 4))
        select = np.flatnonzero((r >= 0) & (c >= 0))
        return diagonal, select, r[select] * self.n_unknowns + c[select]


@dataclass
class StateVector:
    """Full per-bus polar state (angles in radians)."""

    theta: np.ndarray
    v: np.ndarray


# --- admittance assembly -------------------------------------------------------


def gb_matrices(
    net: PowerNetwork,
    g_scale: np.ndarray | None = None,
    b_scale: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Conductance and susceptance parts of the bus admittance matrix.

    g_scale / b_scale multiply each branch's series conductance /
    susceptance (the stochastic admittance perturbation); complex scales
    produce complex G, B. Tap models an off-nominal turns ratio on the from
    side, phase a shifter; charging and bus shunts stay unscaled.
    """
    nb = net.n
    ones = np.ones(len(net.branches))
    sg = ones if g_scale is None else np.asarray(g_scale)
    sb = ones if b_scale is None else np.asarray(b_scale)
    dtype = np.result_type(float, sg.dtype, sb.dtype)
    G = np.zeros((nb, nb), dtype=dtype)
    B = np.zeros((nb, nb), dtype=dtype)
    for k, br in enumerate(net.branches):
        g0, b0 = br.series_gb()
        g = g0 * sg[k]
        b = b0 * sb[k]
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


# --- injections, mismatch, Jacobian ---------------------------------------------


def _flows(net: PowerNetwork, G, B, theta, v):
    # V-scaled flow terms on the pattern edges (k, l), th = theta_k - theta_l:
    # a_kl = V_k (G_kl cos th + B_kl sin th)
    # c_kl = V_k (G_kl sin th - B_kl cos th)
    rows, cols = net.pattern
    dtheta = theta[rows] - theta[cols]
    ct = np.cos(dtheta)
    st = np.sin(dtheta)
    vk = v[rows]
    return vk * (G * ct + B * st), vk * (G * st - B * ct)


def _injections(net: PowerNetwork, a, c, v):
    # P_k = sum_l a_kl V_l and Q_k = sum_l c_kl V_l over bus k's row of edges.
    vl = v[net.pattern[1]]
    return np.add.reduceat(a * vl, net.row_starts), np.add.reduceat(c * vl, net.row_starts)


def _expand_state(net: PowerNetwork, u: np.ndarray):
    # Unknowns are [theta at non-slack; V at pq]; the rest are setpoints.
    theta0, v0 = net.setpoints
    theta = theta0.astype(u.dtype)
    v = v0.astype(u.dtype)
    nn = len(net.non_slack)
    theta[net.non_slack] = u[:nn]
    v[net.pq] = u[nn:]
    return theta, v


def _pack_state(net: PowerNetwork, state: StateVector) -> np.ndarray:
    return np.concatenate([state.theta[net.non_slack], state.v[net.pq]])


def _mismatch(net, v, p, q, p_sched, q_sched):
    if not np.iscomplexobj(v) and np.any(v[net.pq] <= 0.0):
        bad = net.buses[int(net.pq[np.argmax(v[net.pq] <= 0.0)])].id
        raise NonphysicalStateError(
            f"voltage magnitude at bus {bad} dropped to a nonphysical value"
        )
    return np.concatenate(
        [(p - p_sched)[net.non_slack], (q - q_sched)[net.pq]]
    )


def _jacobian_matrix(net, a, c, p, q, v):
    # Off the diagonal dP/d[theta, V] = [c V_l, a] and dQ/d[theta, V] =
    # [-a V_l, c] per edge; the bus diagonals add [-Q, P / V] and [P, Q / V].
    # The entries at the rows and columns of the unknowns are scattered into
    # a zeroed m x m array.
    vl = v[net.pattern[1]]
    diagonal, select, flat = net.jacobian_scatter
    blocks = np.concatenate([c * vl, a, -a * vl, c])
    blocks[diagonal] += np.concatenate([-q, p / v, p, q / v])
    m = net.n_unknowns
    jac = np.zeros(m * m, dtype=blocks.dtype)
    jac[flat] = blocks[select]
    return jac.reshape(m, m)


def initial_state(net: PowerNetwork, init: str = "flat") -> StateVector:
    """flat: slack angle everywhere, 1.0 pu at pq buses; from-case: stored
    operating point."""
    if init == "flat":
        theta = np.full(net.n, net.buses[net.slack_pos].theta0)
        v = np.array([b.v_set if b.kind != "pq" else 1.0 for b in net.buses])
    elif init in ("from-case", "from_case"):
        theta = np.array([b.theta0 for b in net.buses])
        v = np.array([b.v_set if b.kind != "pq" else b.v0 for b in net.buses])
    else:
        raise ValueError(f"unknown init {init!r} (want 'flat' or 'from-case')")
    return StateVector(theta=theta, v=v)


@dataclass
class PowerFlowResult:
    state: StateVector
    trace: NewtonTrace
    converged: bool
    p_injection: np.ndarray
    q_injection: np.ndarray


def solve_power_flow(
    net: PowerNetwork,
    init: str = "flat",
    tol: float = 1e-10,
    max_iter: int = 20,
) -> PowerFlowResult:
    problem = parametric_problem(net, StochasticPerturbation(dims=0))
    u0 = _pack_state(net, initial_state(net, init))
    trace = solve(problem, u0, np.zeros(0), tol=tol, max_iter=max_iter)
    theta, v = _expand_state(net, trace.x)
    p, q = _injections(net, *_flows(net, *net.gb_nominal, theta, v), v)
    return PowerFlowResult(
        state=StateVector(theta=theta, v=v),
        trace=trace,
        converged=trace.converged,
        p_injection=p,
        q_injection=q,
    )


# --- quantities of interest ------------------------------------------------------


@dataclass(frozen=True)
class QuantityOfInterest:
    kind: Literal["voltage", "angle"]
    bus: int  # external id

    @classmethod
    def parse(cls, text: str) -> "QuantityOfInterest":
        kind, _, bus = text.partition(":")
        try:
            bus_id = int(bus)
        except ValueError:
            bus_id = None
        if kind not in ("voltage", "angle") or bus_id is None:
            raise ValueError(
                f"bad quantity of interest {text!r} (want voltage:<bus> or angle:<bus>)"
            )
        return cls(kind=kind, bus=bus_id)


def quantity_of_interest(net: PowerNetwork, state: StateVector, qoi: QuantityOfInterest):
    k = net.position[qoi.bus]
    return state.v[k] if qoi.kind == "voltage" else state.theta[k]


# --- stochastic perturbations ------------------------------------------------------


@dataclass(frozen=True)
class LoadTerm:
    """Scale bus loads: P -> P (1 + c_p q[p_dim]), Q -> Q (1 + c_q q[q_dim])."""

    bus: int
    c_p: float
    c_q: float
    p_dim: int
    q_dim: int


@dataclass(frozen=True)
class AdmittanceTerm:
    """Scale one branch's series conductance/susceptance the same way."""

    branch: int  # position in network.branches
    c_g: float
    c_b: float
    g_dim: int
    b_dim: int


@dataclass(frozen=True)
class StochasticPerturbation:
    dims: int
    load_terms: tuple[LoadTerm, ...] = ()
    admittance_terms: tuple[AdmittanceTerm, ...] = ()

    def validate(self, net: PowerNetwork) -> None:
        """Reject terms on unknown buses or branches, dims out of range, two
        terms on one bus or branch (their scalings would add up), and load
        terms that cannot move the solution: on the slack bus, whose
        injection is not scheduled, or on a bus with zero P and Q load."""
        buses: set[int] = set()
        for t in self.load_terms:
            if t.bus not in net.position:
                raise CaseValidationError(f"load term references unknown bus {t.bus}")
            bus = net.buses[net.position[t.bus]]
            if bus.kind == "slack":
                raise CaseValidationError(f"load term on bus {t.bus} is the slack bus")
            if bus.p_load == 0.0 and bus.q_load == 0.0:
                raise CaseValidationError(f"load term on bus {t.bus} carries no load")
            if not (0 <= t.p_dim < self.dims and 0 <= t.q_dim < self.dims):
                raise CaseValidationError(f"load term on bus {t.bus} uses a dim out of range")
            if t.bus in buses:
                raise CaseValidationError(f"two load terms target bus {t.bus}")
            buses.add(t.bus)
        branches: set[int] = set()
        for t in self.admittance_terms:
            if not (0 <= t.branch < len(net.branches)):
                raise CaseValidationError(f"admittance term references branch {t.branch}")
            if not (0 <= t.g_dim < self.dims and 0 <= t.b_dim < self.dims):
                raise CaseValidationError(
                    f"admittance term on branch {t.branch} uses a dim out of range"
                )
            if t.branch in branches:
                br = net.branches[t.branch]
                raise CaseValidationError(
                    f"two admittance terms target branch {t.branch} "
                    f"({br.from_bus}-{br.to_bus})"
                )
            branches.add(t.branch)


def _affine_parts(net: PowerNetwork, pert: StochasticPerturbation):
    """Build q -> (G, B, P_sched, Q_sched) once per network and perturbation.

    G and B are value vectors on the pattern edges. All four are affine in q:
    G(q) = G0 + q @ dG (the same for B), with one slope row per dimension,
    shape (dims, E), taken from gb_matrices differences of the admittance
    terms, and P_sched(q) = p_gen - p_load (1 + S_p q) with one row of load
    coefficients per bus (the same for Q). Without admittance terms G and B
    are the nominal edge arrays themselves. q may be complex.
    """
    pert.validate(net)
    G0, B0 = net.gb_nominal
    rows, cols = net.pattern
    dG = dB = None
    if pert.admittance_terms:
        dG = np.zeros((pert.dims, len(rows)))
        dB = np.zeros((pert.dims, len(rows)))
        for t in pert.admittance_terms:
            bumped = np.ones(len(net.branches))
            bumped[t.branch] = 2.0
            G1, B1 = gb_matrices(net, g_scale=bumped)
            dG[t.g_dim] += t.c_g * (G1[rows, cols] - G0)
            dB[t.g_dim] += t.c_g * (B1[rows, cols] - B0)
            G1, B1 = gb_matrices(net, b_scale=bumped)
            dG[t.b_dim] += t.c_b * (G1[rows, cols] - G0)
            dB[t.b_dim] += t.c_b * (B1[rows, cols] - B0)
    load_p = np.zeros((net.n, pert.dims))
    load_q = np.zeros((net.n, pert.dims))
    for t in pert.load_terms:
        k = net.position[t.bus]
        load_p[k, t.p_dim] = t.c_p
        load_q[k, t.q_dim] = t.c_q
    p_gen = np.array([b.p_gen for b in net.buses])
    p_load = np.array([b.p_load for b in net.buses])
    q_gen = np.array([b.q_gen for b in net.buses])
    q_load = np.array([b.q_load for b in net.buses])

    def parts(q):
        q = np.atleast_1d(np.asarray(q))
        G, B = G0, B0
        if dG is not None:
            G = G0 + q @ dG
            B = B0 + q @ dB
        ps = p_gen - p_load * (1.0 + load_p @ q)
        qs = q_gen - q_load * (1.0 + load_q @ q)
        return G, B, ps, qs

    return parts


def _last_call(fn):
    """Memoize fn on its most recent array arguments, compared by dtype,
    shape and bytes, so repeated calls at one point reuse the result."""
    key = None
    value = None

    def call(*args):
        nonlocal key, value
        args = tuple(np.asarray(x) for x in args)
        now = tuple((x.dtype, x.shape, x.tobytes()) for x in args)
        if now != key:
            value = fn(*args)
            key = now
        return value

    return call


def parametric_problem(net: PowerNetwork, pert: StochasticPerturbation) -> NewtonProblem:
    """NewtonProblem over (packed state, parameter row q), dtype-generic.

    Complex q (or complex state) evaluates the analytic extension, which is
    what the Newton solve at a complex parameter point runs on. The
    q-dependent parts are built once per q, and the flow terms once per
    (state, q): the residual and the Jacobian of one Newton step share them.
    """
    parts = _last_call(_affine_parts(net, pert))

    @_last_call
    def point(u, q):
        G, B, ps, qs = parts(q)
        theta, v = _expand_state(net, u)
        a, c = _flows(net, G, B, theta, v)
        p, qi = _injections(net, a, c, v)
        return a, c, p, qi, v, ps, qs

    def res(u, q):
        _, _, p, qi, v, ps, qs = point(u, q)
        return _mismatch(net, v, p, qi, ps, qs)

    def jac(u, q):
        a, c, p, qi, v, _, _ = point(u, q)
        return _jacobian_matrix(net, a, c, p, qi, v)

    return NewtonProblem(residual=res, jacobian=jac)


def _knot_start(net: PowerNetwork, pert: StochasticPerturbation):
    """The knot problem and its chord predictor (x_hat, T), anchored at the
    case's stored operating point, or at the flat start where the stored
    point is nonphysical or has a singular Jacobian."""
    problem = parametric_problem(net, pert)
    for init in ("from-case", "flat"):
        u = _pack_state(net, initial_state(net, init))
        try:
            return problem, *chord_predictor(parameter_slopes(problem, u, pert.dims), u)
        except (NonphysicalStateError, SingularJacobianError):
            if init == "flat":
                raise


def qoi_sampler(
    net: PowerNetwork,
    pert: StochasticPerturbation,
    qoi: QuantityOfInterest,
    tol: float = 1e-12,
):
    """Map one parameter row to the solved quantity of interest.

    Every call starts Newton from the same predictor x_hat + T q: one chord
    step at q from the case's stored operating point x_c, with J, f and their
    parameter slopes taken once at x_c (``newton.chord_predictor``). The
    start is a pure function of q, so values do not depend on which knots
    were solved before; warm starts from other knots would couple them. The
    problem and the predictor are built on the first call, so a sampler that
    is never called costs nothing.
    """
    k = net.position[qoi.bus]
    start = None

    def sample(q: np.ndarray) -> float:
        nonlocal start
        q_arr = np.asarray(q, dtype=float)
        try:
            if start is None:
                start = _knot_start(net, pert)
            problem, x_hat, tangent = start
            u0 = x_hat + tangent @ q_arr
            trace = solve(problem, u0, q_arr, tol=tol, max_iter=_KNOT_MAX_ITER)
        except (NonphysicalStateError, SingularJacobianError) as exc:
            exc.args = (f"{exc} at q={q_arr.tolist()}",)
            raise
        if not trace.converged:
            raise NonphysicalStateError(
                f"power flow did not converge at q={q_arr.tolist()} "
                f"(residual {trace.residual_norms[-1]:.3e})"
            )
        theta, v = _expand_state(net, trace.x)
        return float(v[k] if qoi.kind == "voltage" else theta[k])

    return sample


def solve_power_flow_complexified(
    net: PowerNetwork,
    pert: StochasticPerturbation,
    g: np.ndarray,
    tol: float = 1e-12,
):
    """Solve at a complex parameter point from a flat start; returns the
    complex (theta, v) and the NewtonTrace."""
    problem = parametric_problem(net, pert)
    u0 = _pack_state(net, initial_state(net)).astype(complex)
    g = np.atleast_1d(np.asarray(g, dtype=complex))
    trace = solve(problem, u0, g, tol=tol, max_iter=_COMPLEX_MAX_ITER)
    theta, v = _expand_state(net, trace.x)
    return theta, v, trace
