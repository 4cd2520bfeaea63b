"""AC power-flow network model: pi-model admittance assembly, polar mismatch
and Jacobian, Newton solves, and stochastic perturbations of loads and branch
admittances.

The mismatch and Jacobian kernels work on the branch pattern of the bus
admittance matrix, not on dense n x n arrays: G and B are carried as value
vectors over the E row-sorted edges of ``PowerNetwork.pattern`` (every bus
diagonal and both ends of every branch), the flow terms take cos/sin of the E
angle differences only, per-bus injections are segment sums over each bus's
row of edges, and the Jacobian is scattered from the edge values into the
m x m matrix of the unknowns through flat indices cached per network. The
per-bus state is one stacked vector [theta; V] and the injections one stacked
[P; Q], so each kernel step is one NumPy call for both halves. Every kernel
also takes a stack of points along leading axes, in the same NumPy calls,
and gives each point the bits it gets alone.

All evaluation kernels are dtype-generic: called with complex angles,
magnitudes, or parameters they compute the analytic extension of the real
equations, so the one Newton solve runs the complexified iteration at a
complex parameter point, and its result is analytic in that point.
Conductance and susceptance are carried as separate values end
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

from .errors import (
    CaseValidationError,
    NonconvergenceError,
    NonphysicalStateError,
    SingularJacobianError,
)
from .newton import NewtonProblem, NewtonTrace, parameter_slopes, solve, taylor_predictor

BusKind = Literal["slack", "pv", "pq"]

#: Newton iteration cap of the knot solves.
_KNOT_MAX_ITER = 25


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
        """First entry of each bus row in the stacked edge values [P terms;
        Q terms] of length 2E, the np.add.reduceat segments (none is empty:
        every row holds its diagonal)."""
        first = np.flatnonzero(np.diff(self.pattern[0], prepend=-1))
        return np.concatenate([first, len(self.pattern[0]) + first])

    @cached_property
    def unknowns(self) -> np.ndarray:
        """Positions of the unknowns [theta at non-slack; V at pq] in the
        stacked per-bus state [theta; V], and of their equations in the
        stacked injections [P; Q]."""
        return np.concatenate([self.non_slack, self.n + self.pq])

    @cached_property
    def state_source(self) -> np.ndarray:
        """Position of every entry of the stacked per-bus state [theta; V] in
        [u; setpoints], the unknowns followed by the setpoints: an unknown is
        read from u and any other entry from the setpoints, so building the
        state takes no scatter."""
        source = self.n_unknowns + np.arange(2 * self.n)
        source[self.unknowns] = np.arange(self.n_unknowns)
        return source

    @cached_property
    def state_gather(self) -> np.ndarray:
        """Positions in [u; setpoints] of, in this order: theta_k and theta_l
        of every pattern edge (k, l); V_k twice and V_l twice, to scale both
        halves of the stacked edge terms; and every bus V twice, to scale
        both halves of the stacked injections [P; Q]. One gather then feeds
        the kernels with operands of equal length, which NumPy runs faster
        than broadcast ones."""
        rows, cols = self.pattern
        v = self.n + np.arange(self.n)
        r, c = self.n + rows, self.n + cols
        return self.state_source[np.concatenate([rows, cols, r, r, c, c, v, v])]

    @cached_property
    def gb_nominal(self) -> tuple[np.ndarray, np.ndarray]:
        """Nominal G and B values on the pattern edges."""
        rows, cols = self.pattern
        G, B = gb_matrices(self)
        return G[rows, cols], B[rows, cols]

    @cached_property
    def setpoints(self) -> np.ndarray:
        """Stacked per-bus [theta; V] with the slack angle and PV/slack
        magnitudes set and zeros where the unknowns go."""
        theta = [b.theta0 if b.kind == "slack" else 0.0 for b in self.buses]
        v = [b.v_set if b.kind != "pq" else 0.0 for b in self.buses]
        return np.array(theta + v)

    @cached_property
    def jacobian_scatter(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(source, flat, diagonal_source) of the Jacobian scatter.

        The edge blocks [dP/dtheta, dP/dV, dQ/dtheta, dQ/dV] are read from
        the pool [a, c, a V_l, c V_l, -a V_l, P, Q, -Q, P/V, Q/V] (five edge
        segments, then five bus segments) that _jacobian_matrix builds:
        block entries that land on an unknown row and column of the m x m
        Jacobian [theta at non-slack; V at pq] come from pool[source] and go
        to the column-major flat indices flat. The bus diagonals come first
        in that list, one per entry of diagonal_source, and also add
        pool[diagonal_source]."""
        rows, cols = self.pattern
        edges, nn = len(rows), len(self.non_slack)
        angle = np.full(self.n, -1)
        angle[self.non_slack] = np.arange(nn)
        magnitude = np.full(self.n, -1)
        magnitude[self.pq] = nn + np.arange(len(self.pq))
        r = np.concatenate([angle[rows], angle[rows], magnitude[rows], magnitude[rows]])
        c = np.concatenate([angle[cols], magnitude[cols], angle[cols], magnitude[cols]])
        select = np.flatnonzero((r >= 0) & (c >= 0))
        # bus diagonals first, so that their extra terms add to a leading slice
        select = select[np.argsort(rows[select % edges] != cols[select % edges], kind="stable")]
        block, edge = np.divmod(select, edges)
        # pool segments per block: edge terms c V_l, a, -a V_l, c and bus
        # diagonal terms -Q, P/V, P, Q/V
        source = np.array([3, 0, 4, 1])[block] * edges + edge
        diagonal = rows[edge] == cols[edge]
        bus = rows[edge[diagonal]]
        diagonal_source = 5 * edges + np.array([2, 3, 0, 4])[block[diagonal]] * self.n + bus
        return source, c[select] * self.n_unknowns + r[select], diagonal_source


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


def _with_setpoints(net: PowerNetwork, u: np.ndarray) -> np.ndarray:
    """[u; setpoints] (..., m + 2n): the unknowns, then the per-bus setpoints
    broadcast over the stack, which net.state_source and net.state_gather
    index."""
    m = net.n_unknowns
    z = np.empty(u.shape[:-1] + (m + 2 * net.n,), dtype=u.dtype)
    z[..., :m] = u
    z[..., m:] = net.setpoints
    return z


def _flows(net: PowerNetwork, G, B, u):
    """Edge flow terms, their V_l-scaled values and the bus injections.

    With th = theta_k - theta_l on pattern edge (k, l), the flow terms are
    a_kl = V_k (G_kl cos th + B_kl sin th) and
    c_kl = V_k (G_kl sin th - B_kl cos th), returned stacked as ac = [a; c]
    (..., 2E); acv = ac * V_l, and the injections P_k = sum_l a_kl V_l and
    Q_k = sum_l c_kl V_l over bus k's row of edges come stacked as [P; Q].
    G and B are the edge values stacked twice, [G; G] and [B; B]. The last
    value is every bus V twice, [V; V], for the Jacobian's diagonal. The
    unknowns u (..., m) and G, B (..., 2E) broadcast over their leading axes.
    """
    e = G.shape[-1] // 2
    g = _with_setpoints(net, u).take(net.state_gather, axis=-1)
    dtheta = g[..., :e] - g[..., e : 2 * e]
    trig = np.empty(dtheta.shape[:-1] + (3 * e,), dtype=dtheta.dtype)  # cos, sin, -cos
    np.cos(dtheta, out=trig[..., :e])
    np.sin(dtheta, out=trig[..., e : 2 * e])
    np.negative(trig[..., :e], out=trig[..., 2 * e :])
    ac = g[..., 2 * e : 4 * e] * (G * trig[..., : 2 * e] + B * trig[..., e:])
    acv = ac * g[..., 4 * e : 6 * e]
    return ac, acv, np.add.reduceat(acv, net.row_starts, axis=-1), g[..., 6 * e :]


def _expand_state(net: PowerNetwork, u: np.ndarray) -> np.ndarray:
    """Stacked per-bus [theta; V] (..., 2n) of the unknowns u (..., m) =
    [theta at non-slack; V at pq] and the setpoints."""
    return _with_setpoints(net, u).take(net.state_source, axis=-1)


def _check_physical(net: PowerNetwork, u: np.ndarray) -> None:
    """Raise NonphysicalStateError where a real state has a PQ magnitude
    (the tail of u) at or below zero; in a stack, the first such one."""
    v_pq = u[..., len(net.non_slack) :]
    if v_pq.size and v_pq.dtype.kind != "c" and v_pq.min() <= 0.0:
        column = np.argmax(v_pq.reshape(-1) <= 0.0) % v_pq.shape[-1]
        bad = net.buses[int(net.pq[column])].id
        raise NonphysicalStateError(
            f"voltage magnitude at bus {bad} dropped to a nonphysical value"
        )


def _jacobian_matrix(net, ac, acv, inj, vv):
    # Off the diagonal dP/d[theta, V] = [c V_l, a] and dQ/d[theta, V] =
    # [-a V_l, c] per edge; the bus diagonals add [-Q, P / V] and [P, Q / V].
    # The entries at the rows and columns of the unknowns are scattered into
    # zeroed m x m arrays in Fortran order, which LAPACK's getrf then copies
    # as they are instead of transposing. The scatter writes through the
    # transpose, stack axes last, so that one point takes NumPy's 1-D path.
    source, flat, diagonal_source = net.jacobian_scatter
    e, n = acv.shape[-1] // 2, net.n
    pool = np.concatenate([ac, acv, -acv[..., :e], inj, -inj[..., n:], inj / vv], axis=-1)
    values = pool.take(source, axis=-1)
    values[..., : len(diagonal_source)] += pool.take(diagonal_source, axis=-1)
    m = net.n_unknowns
    jac = np.zeros(values.shape[:-1] + (m, m), dtype=values.dtype)
    jac.reshape(values.shape[:-1] + (m * m,)).T[flat] = values.T
    return jac.swapaxes(-1, -2)


def initial_state(net: PowerNetwork, init: str = "flat") -> np.ndarray:
    """Newton start u = [theta at non-slack; V at pq]. flat: the slack angle
    everywhere and 1.0 pu; from-case: the stored operating point."""
    if init == "flat":
        s = np.repeat([net.buses[net.slack_pos].theta0, 1.0], net.n)
    elif init == "from-case":
        s = np.array([b.theta0 for b in net.buses] + [b.v0 for b in net.buses])
    else:
        raise ValueError(f"unknown init {init!r} (want 'flat' or 'from-case')")
    return s[net.unknowns]


@dataclass
class PowerFlowResult:
    """Per-bus angles (radians), magnitudes and injections of a solve."""

    theta: np.ndarray
    v: np.ndarray
    p_injection: np.ndarray
    q_injection: np.ndarray
    trace: NewtonTrace


def solve_power_flow(
    net: PowerNetwork,
    init: str = "flat",
    tol: float = 1e-10,
    max_iter: int = 20,
) -> PowerFlowResult:
    problem = parametric_problem(net, StochasticPerturbation(dims=0))
    trace = solve(problem, initial_state(net, init), np.zeros(0), tol=tol, max_iter=max_iter)
    G0, B0 = net.gb_nominal
    p, q = np.split(_flows(net, np.tile(G0, 2), np.tile(B0, 2), trace.x)[2], 2)
    theta, v = np.split(_expand_state(net, trace.x), 2)
    return PowerFlowResult(theta=theta, v=v, p_injection=p, q_injection=q, trace=trace)


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

    def state_index(self, net: PowerNetwork) -> int:
        """Position of the quantity in the stacked per-bus state [theta; V]."""
        if self.bus not in net.position:
            raise CaseValidationError(f"quantity of interest references unknown bus {self.bus}")
        return net.position[self.bus] + (net.n if self.kind == "voltage" else 0)


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
        injection is not scheduled, or on a bus with zero P and Q load.
        Errors name a branch by its 1-based table row and its end buses."""
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
                raise CaseValidationError(
                    f"admittance term references branch row {t.branch + 1} "
                    f"(the case has rows 1..{len(net.branches)})"
                )
            br = net.branches[t.branch]
            target = f"branch row {t.branch + 1} ({br.from_bus}-{br.to_bus})"
            if not (0 <= t.g_dim < self.dims and 0 <= t.b_dim < self.dims):
                raise CaseValidationError(f"admittance term on {target} uses a dim out of range")
            if t.branch in branches:
                raise CaseValidationError(f"two admittance terms target {target}")
            branches.add(t.branch)


def _affine_parts(net: PowerNetwork, pert: StochasticPerturbation):
    """Build q -> ([G; G], [B; B], [P_sched; Q_sched]) once per network and
    perturbation.

    G and B are value vectors on the pattern edges, stacked twice for the two
    halves of the edge terms in _flows. All are affine in q:
    G(q) = G0 + q @ dG (the same for B), with one slope row per dimension,
    shape (dims, E), taken from gb_matrices differences of the admittance
    terms, and the stacked schedule is gen - load (1 + S q) with one row of
    load coefficients per bus and power (P rows, then Q rows). Without
    admittance terms G and B are the same nominal arrays at every q, so they
    carry no stack axes of q. q (..., dims) may be complex and stacked.
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
    coefficients = np.zeros((2 * net.n, pert.dims))
    for t in pert.load_terms:
        k = net.position[t.bus]
        coefficients[k, t.p_dim] = t.c_p
        coefficients[net.n + k, t.q_dim] = t.c_q
    gen = np.array([b.p_gen for b in net.buses] + [b.q_gen for b in net.buses])
    load = np.array([b.p_load for b in net.buses] + [b.q_load for b in net.buses])

    G2, B2 = np.concatenate([G0, G0]), np.concatenate([B0, B0])

    def parts(q):
        q = np.atleast_1d(np.asarray(q))
        G, B = G2, B2
        if dG is not None:
            # one vector-matrix product per row of a stack, so that every
            # row gets the bits that it gets alone
            row = q[..., None, :]
            G, B = G0 + (row @ dG)[..., 0, :], B0 + (row @ dB)[..., 0, :]
            G, B = np.concatenate([G, G], axis=-1), np.concatenate([B, B], axis=-1)
        return G, B, gen - load * (1.0 + q @ coefficients.T)

    return parts


def parametric_problem(net: PowerNetwork, pert: StochasticPerturbation) -> NewtonProblem:
    """NewtonProblem over (packed state, parameter row q), dtype-generic.

    Complex q (or complex state) evaluates the analytic extension, which is
    what the Newton solve at a complex parameter point runs on. States
    (..., m) and parameter rows (..., dims) broadcast as NewtonProblem says;
    without admittance terms the Jacobian does not depend on q and keeps the
    stack shape of the state alone. The
    q-dependent parts are built once per q, and the flow terms once per
    (state, q): the residual and the Jacobian of one Newton step share them.
    Both are kept for the most recent point only, compared by dtype, shape
    and bytes, so a repeated call at one point reuses them.
    """
    parts = _affine_parts(net, pert)
    point_key = q_key = flows = q_parts = None

    def point(u, q):
        nonlocal point_key, q_key, flows, q_parts
        u, q = np.asarray(u), np.asarray(q)
        key = (u.dtype, u.shape, u.tobytes(), q.dtype, q.shape, q.tobytes())
        if key != point_key:
            if key[3:] != q_key:
                q_parts, q_key = parts(q), key[3:]
            G, B, _ = q_parts
            flows, point_key = _flows(net, G, B, u), key
        return flows, q_parts[2]

    def res(u, q):
        (_, _, inj, _), sched = point(u, q)
        _check_physical(net, np.asarray(u))
        return (inj - sched).take(net.unknowns, axis=-1)

    def jac(u, q):
        return _jacobian_matrix(net, *point(u, q)[0])

    return NewtonProblem(residual=res, jacobian=jac)


def _knot_start(net: PowerNetwork, pert: StochasticPerturbation):
    """The knot problem and its Taylor predictor, anchored at the case's
    stored operating point, or at the flat start where the stored point is
    nonphysical or has a singular Jacobian."""
    problem = parametric_problem(net, pert)
    for init in ("from-case", "flat"):
        u = initial_state(net, init)
        try:
            return problem, taylor_predictor(problem, parameter_slopes(problem, u, pert.dims), u)
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

    Every call starts Newton from the same second-order predictor
    x_hat + T q + 1/2 H[q, q] (``newton.taylor_predictor``): x_hat + T q is
    one chord step at q from the case's stored operating point x_c, and H
    the curvature of the solution map, with J, f, their parameter slopes and
    the curvature taken once at x_c. The start is a pure function of q, so
    values do not depend on which knots were solved before; warm starts from
    other knots would couple them. The problem and the predictor are built
    on the first call, so a sampler that is never called costs nothing; a
    quantity on a bus the network lacks is refused when the sampler is made.
    """
    k = qoi.state_index(net)
    start = None

    def sample(q: np.ndarray) -> float:
        nonlocal start
        q_arr = np.asarray(q, dtype=float)
        try:
            if start is None:
                start = _knot_start(net, pert)
            problem, predictor = start
            trace = solve(problem, predictor(q_arr), q_arr, tol=tol, max_iter=_KNOT_MAX_ITER)
        except (NonphysicalStateError, SingularJacobianError) as exc:
            exc.args = (f"{exc} at q={q_arr.tolist()}",)
            raise
        if not trace.converged:
            raise NonconvergenceError(
                f"power flow did not converge at q={q_arr.tolist()} "
                f"(residual {trace.residual_norms[-1]:.3e})"
            )
        return float(_expand_state(net, trace.x)[k])

    return sample
