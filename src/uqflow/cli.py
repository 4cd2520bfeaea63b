"""Command-line experiment runner for the package.

Subcommands
-----------
solve           nominal power-flow solution report for a case
parse-case      parse/validate a case file, optionally writing canonical text
grid-info       sparse-grid size table for a rule/dims/levels choice
uq-moments      surrogate moments of a power-flow quantity, one row per level
uq-convergence  moment errors against a reference level, one row per level
certify         Kantorovich certificate, analyticity region, and rate bounds

Study commands accept a flat ``key = value`` config file (``--config``);
explicit flags override config entries, which override built-in defaults.
CSV outputs start with a versioned ``# uqflow-csv/1 <command>`` comment so
downstream plotting can detect schema drift.  Exit codes: 0 success, 1 domain
failure (parse, solve, or feasibility), 2 command-line usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .analyticity import (
    EllipseRegion,
    admissible_region_search,
    bound_constants,
    convergence_bound,
    mtilde_bound,
)
from .case_io import load_case, serialize_case, to_network
from .errors import CacheMismatchError, CaseValidationError, UqflowError
from .moments import default_orders, moment_estimates, quadrature_plan
from .newton import NewtonProblem, kantorovich_certificate, kantorovich_t_star
from .powerflow import (
    AdmittanceTerm,
    LoadTerm,
    PowerNetwork,
    QuantityOfInterest,
    StochasticPerturbation,
    initial_state,
    parametric_problem,
    qoi_sampler,
    solve_power_flow,
)
from .sparse_grid import (
    GridRule,
    build_plan,
    build_surrogate,
    polynomial_space,
    surrogate_from_json,
    surrogate_to_json,
)

CSV_TAG = "uqflow-csv/1"

_FAMILY_ALIASES = {
    "cc": "clenshaw_curtis",
    "gauss": "gauss_legendre",
    "clenshaw_curtis": "clenshaw_curtis",
    "gauss_legendre": "gauss_legendre",
}


def _grid_rule(kind: str, family: str) -> GridRule:
    try:
        family = _FAMILY_ALIASES[family.lower().replace("-", "_")]
    except KeyError:
        raise UqflowError(f"unknown node family {family!r} (use cc or gauss)") from None
    try:
        return GridRule(kind=kind, family=family)
    except ValueError as exc:
        raise UqflowError(str(exc)) from None


def _fmt(x: float) -> str:
    """Shortest exact decimal for a float; keeps CSV output reproducible."""
    return repr(float(x))


def parse_config_text(text: str) -> dict[str, str]:
    """Flat ``key = value`` config: one pair per line, ``#`` comments, blank lines ok.

    Keys are case-insensitive with ``-`` treated as ``_``.  Values keep comma
    syntax for lists (e.g. ``levels = 1,2,3``); interpretation happens at the
    consuming option.
    """
    entries: dict[str, str] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UqflowError(f"config line {line_no}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip().lower().replace("-", "_")
        if not key:
            raise UqflowError(f"config line {line_no}: empty key")
        entries[key] = value.strip()
    return entries


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(part) for part in text.split(",") if part.strip() != "")


def _parse_qoi(text: str) -> QuantityOfInterest:
    try:
        return QuantityOfInterest.parse(text)
    except ValueError as exc:
        raise UqflowError(str(exc)) from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a study command needs, resolved from flags + config file."""

    case: str
    rule: GridRule
    levels: tuple[int, ...]
    reference_level: int | None
    dims: int
    qoi: QuantityOfInterest
    study: str
    coefficient: float
    load_buses: tuple[int, ...] | None
    branches: tuple[int, ...] | None
    tol: float
    output: str | None
    cache_dir: str | None

    def __post_init__(self) -> None:
        if self.reference_level is not None and max(self.levels) >= self.reference_level:
            raise UqflowError(
                f"max(levels) = {max(self.levels)} must stay below the reference "
                f"level {self.reference_level}"
            )


_CONFIG_KEYS = (
    "case", "rule", "family", "levels", "ref_level", "dims", "qoi", "study",
    "coefficient", "load_buses", "branches", "seed", "tol", "out", "cache",
)


def _experiment_config(args: argparse.Namespace, need_reference: bool) -> ExperimentConfig:
    config = {}
    if args.config is not None:
        config = parse_config_text(Path(args.config).read_text())
    for key in config:
        if key not in _CONFIG_KEYS:
            raise UqflowError(f"{args.config}: unknown config key {key!r}")

    def pick(flag_value, key: str, default, convert):
        if flag_value is not None:
            return flag_value
        if key in config:
            try:
                return convert(config[key])
            except (TypeError, ValueError, argparse.ArgumentTypeError, UqflowError) as exc:
                raise UqflowError(f"config key {key!r}: {exc}") from exc
        return default

    case = pick(args.case, "case", None, str)
    if case is None:
        raise UqflowError("a case is required (--case or config key 'case')")
    rule = _grid_rule(
        pick(args.rule, "rule", "smolyak", str),
        pick(args.family, "family", "cc", str),
    )
    reference = pick(getattr(args, "ref_level", None), "ref_level", 5, int) if need_reference else None
    qoi = _parse_qoi(pick(args.qoi, "qoi", "voltage:22", str))
    return ExperimentConfig(
        case=case,
        rule=rule,
        levels=pick(args.levels, "levels", (1, 2, 3), _levels_argument),
        reference_level=reference,
        dims=pick(args.dims, "dims", 2, _dims_argument),
        qoi=qoi,
        study=pick(args.study, "study", "load", str),
        coefficient=pick(args.coefficient, "coefficient", 0.5, float),
        load_buses=pick(None, "load_buses", None, _parse_int_list),
        branches=pick(None, "branches", None, _parse_int_list),
        tol=pick(args.tol, "tol", 1e-12, _finite_argument(positive=True)),
        output=pick(args.out, "out", None, str),
        cache_dir=pick(args.cache, "cache", None, _directory_argument),
    )


def _study_perturbation(
    net: PowerNetwork,
    study: str,
    dims: int,
    coefficient: float,
    load_buses: tuple[int, ...] | None = None,
    branches: tuple[int, ...] | None = None,
) -> StochasticPerturbation:
    """Build the perturbation model of a study.

    Load study: each parameter dimension scales one load bus's P and Q
    together (explicit ``load_buses`` list, or the first ``dims`` PQ buses
    carrying nonzero load — perturbing a zero load would leave the dimension
    inert).  Admittance study: each dimension scales one branch's series
    conductance and susceptance together (explicit ``branches`` list of
    1-based table rows, or the first ``dims`` rows). A list the chosen study
    does not read is an error, not a silent no-op.
    """
    if not math.isfinite(coefficient):
        raise UqflowError(f"coefficient must be finite, got {coefficient}")
    c = coefficient
    if study == "load":
        if branches is not None:
            raise UqflowError(
                "config key 'branches' is read by --study admittance, not --study load"
            )
        if load_buses is not None:
            buses = list(load_buses)
        else:
            buses = [
                b.id
                for b in net.buses
                if b.kind == "pq" and (b.p_load != 0.0 or b.q_load != 0.0)
            ][:dims]
        if len(buses) != dims:
            raise CaseValidationError(
                f"load study needs {dims} target buses, have {len(buses)} "
                f"(case offers too few nonzero-load PQ buses?)"
            )
        terms = tuple(
            LoadTerm(bus=bus, c_p=c, c_q=c, p_dim=k, q_dim=k) for k, bus in enumerate(buses)
        )
        pert = StochasticPerturbation(dims=dims, load_terms=terms)
    elif study == "admittance":
        if load_buses is not None:
            raise UqflowError(
                "config key 'load_buses' is read by --study load, not --study admittance"
            )
        if branches is not None:
            for row in branches:
                if not 1 <= row <= len(net.branches):
                    raise CaseValidationError(
                        f"config key 'branches': row {row} is not a branch row of the case "
                        f"(1..{len(net.branches)})"
                    )
            rows = [r - 1 for r in branches]
        else:
            rows = list(range(min(dims, len(net.branches))))
        if len(rows) != dims:
            raise CaseValidationError(
                f"admittance study needs {dims} branches, have {len(rows)}"
            )
        terms = tuple(
            AdmittanceTerm(branch=row, c_g=c, c_b=c, g_dim=k, b_dim=k)
            for k, row in enumerate(rows)
        )
        pert = StochasticPerturbation(dims=dims, admittance_terms=terms)
    else:
        raise UqflowError(f"unknown study {study!r} (expected load or admittance)")
    pert.validate(net)
    return pert


#: Version of the cached knot values; bumped whenever the knot solve changes
#: them, so entries written by an older solve are misses.
_CACHE_TAG = "uqflow-cache/3"


def _cache_key(case_digest: str, cfg: ExperimentConfig, w: int) -> str:
    parts = [
        _CACHE_TAG,
        case_digest,
        cfg.study,
        str(cfg.dims),
        cfg.rule.kind,
        cfg.rule.family,
        str(w),
        f"{cfg.qoi.kind}:{cfg.qoi.bus}",
        _fmt(cfg.coefficient),
        _fmt(cfg.tol),
        ",".join(map(str, cfg.load_buses or ())),
        ",".join(map(str, cfg.branches or ())),
    ]
    return hashlib.sha256("|".join(parts).encode()).hexdigest()[:32]


@dataclass(frozen=True)
class LevelResult:
    w: int
    knots: int
    mean: float
    variance: float
    wall_ms: float


def _memoized(sample):
    memo: dict[bytes, float] = {}

    def wrapped(q: np.ndarray) -> float:
        key = np.asarray(q, dtype=float).tobytes()
        if key not in memo:
            memo[key] = sample(q)
        return memo[key]

    return wrapped


def _write_atomically(path: Path, text: str) -> None:
    """Write through a temporary file in the same directory, so that a reader
    never sees a partly written entry and concurrent writers do not mix."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _level_result(
    cfg: ExperimentConfig,
    sample: Callable[[np.ndarray], float],
    w: int,
    case_digest: str,
) -> LevelResult:
    start = time.perf_counter()
    surrogate = None
    cache_path = None
    if cfg.cache_dir is not None:
        cache_path = Path(cfg.cache_dir) / f"{_cache_key(case_digest, cfg, w)}.json"
        try:
            surrogate = surrogate_from_json(cache_path.read_text(), (cfg.rule, w, cfg.dims))
        except (FileNotFoundError, UnicodeDecodeError, json.JSONDecodeError, CacheMismatchError):
            pass  # a missing, unreadable, corrupt or stale entry is a miss, written below
    if surrogate is None:
        surrogate = build_surrogate(build_plan(cfg.rule, w, cfg.dims), sample)
        if cache_path is not None:
            _write_atomically(cache_path, surrogate_to_json(surrogate))
    q_plan = quadrature_plan(default_orders(cfg.rule, w, cfg.dims))
    # by name: perfbench/tracing.py reads the plan at position 2 or as `plan`
    est = moment_estimates(surrogate, plan=q_plan)
    wall_ms = (time.perf_counter() - start) * 1e3
    return LevelResult(
        w=w,
        knots=len(surrogate.plan.knots),
        mean=float(est.mean),
        variance=float(est.variance),
        wall_ms=wall_ms,
    )


def _emit_csv(command: str, header: list[str], rows: list[list[str]], out: str | None) -> None:
    lines = [f"# {CSV_TAG} {command}", ",".join(header)]
    lines.extend(",".join(row) for row in rows)
    text = "\n".join(lines) + "\n"
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _load_network(cfg_case: str):
    case = load_case(cfg_case)
    return case, to_network(case)


def _study_setup(
    args: argparse.Namespace, need_reference: bool
) -> tuple[ExperimentConfig, Callable[[np.ndarray], float], str]:
    """Config, memoized QoI sampler and case digest of a study command."""
    cfg = _experiment_config(args, need_reference)
    case, net = _load_network(cfg.case)
    pert = _study_perturbation(
        net, cfg.study, cfg.dims, cfg.coefficient, cfg.load_buses, cfg.branches
    )
    digest = hashlib.sha256(serialize_case(case).encode()).hexdigest()
    return cfg, _memoized(qoi_sampler(net, pert, cfg.qoi, tol=cfg.tol)), digest


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args: argparse.Namespace) -> int:
    case, net = _load_network(args.case)
    result = solve_power_flow(net, init=args.init, tol=args.tol, max_iter=args.max_iter)
    print(
        f"case {case.name}: {net.n} buses, {len(net.branches)} branches, "
        f"base {net.base_mva:g} MVA"
    )
    status = "converged" if result.trace.converged else "DID NOT CONVERGE"
    print(
        f"{status} in {result.trace.iterations} iterations; "
        f"final mismatch {result.trace.residual_norms[-1]:.3e} (tol {args.tol:g})"
    )
    print(f"{'bus':>5} {'type':>6} {'V (pu)':>12} {'theta (deg)':>13} "
          f"{'P (pu)':>12} {'Q (pu)':>12}")
    for k, bus in enumerate(net.buses):
        print(
            f"{bus.id:>5} {bus.kind:>6} {result.v[k]:>12.6f} "
            f"{math.degrees(result.theta[k]):>13.6f} "
            f"{result.p_injection[k]:>12.6f} {result.q_injection[k]:>12.6f}"
        )
    if not result.trace.converged:
        print("error: power flow did not converge", file=sys.stderr)
        return 1
    return 0


def cmd_parse_case(args: argparse.Namespace) -> int:
    case, net = _load_network(args.case)
    print(f"name: {case.name}")
    print(f"version: {case.version}")
    print(f"base_mva: {case.base_mva:g}")
    print(f"rows: bus={case.bus.shape[0]} gen={case.gen.shape[0]} branch={case.branch.shape[0]}")
    print(f"network: {net.n} buses ({len(net.pq)} PQ), {len(net.branches)} in-service branches")
    for warning in case.warnings:
        print(f"warning: {warning}")
    if args.out is not None:
        Path(args.out).write_text(serialize_case(case))
        print(f"canonical case written to {args.out}")
    return 0


def cmd_grid_info(args: argparse.Namespace) -> int:
    rule = _grid_rule(args.rule, args.family)
    rows = []
    for w in args.levels:
        plan = build_plan(rule, w, args.dims)
        space = polynomial_space(rule, w, args.dims)
        rows.append([str(w), str(len(plan.knots)), str(len(plan.terms)), str(len(space))])
    _emit_csv("grid-info", ["w", "knots", "terms", "poly_dim"], rows, args.out)
    return 0


def cmd_uq_moments(args: argparse.Namespace) -> int:
    cfg, sample, digest = _study_setup(args, need_reference=False)
    rows = []
    for w in cfg.levels:
        r = _level_result(cfg, sample, w, digest)
        rows.append([str(r.w), str(r.knots), _fmt(r.mean), _fmt(r.variance), f"{r.wall_ms:.3f}"])
    _emit_csv("uq-moments", ["w", "knots", "mean", "var", "wall_ms"], rows, cfg.output)
    return 0


def cmd_uq_convergence(args: argparse.Namespace) -> int:
    cfg, sample, digest = _study_setup(args, need_reference=True)
    # The reference level runs first: with nested node families every lower
    # level then reuses its solves through the memo.
    reference = _level_result(cfg, sample, cfg.reference_level, digest)
    rows = []
    for w in cfg.levels:
        r = _level_result(cfg, sample, w, digest)
        rows.append(
            [
                str(r.w),
                str(r.knots),
                _fmt(r.mean),
                _fmt(r.variance),
                _fmt(abs(r.mean - reference.mean)),
                _fmt(abs(r.variance - reference.variance)),
                f"{r.wall_ms:.3f}",
            ]
        )
    _emit_csv(
        "uq-convergence",
        ["w", "knots", "mean", "var", "err_mean", "err_var", "wall_ms"],
        rows,
        cfg.output,
    )
    return 0


def _certificate_lines(cert, label: str) -> list[str]:
    kind = "exact" if cert.lipschitz_is_exact else f"sampled ({cert.probe_count} probes)"
    return [
        f"problem: {label}",
        f"kappa: {_fmt(cert.kappa)}",
        f"delta: {_fmt(cert.delta)}",
        f"lipschitz: {_fmt(cert.lipschitz)} ({kind})",
        f"h: {_fmt(cert.h)}",
        f"t_star: {'nan' if math.isnan(cert.t_star) else _fmt(cert.t_star)}",
        f"kantorovich satisfied: {cert.satisfied}",
    ]


def _bound_schedule_lines(
    region: EllipseRegion,
    m_tilde: float | None,
    rule: GridRule,
    levels: tuple[int, ...],
    dims: int,
) -> list[str]:
    lines = [f"sigma_hat: {', '.join(_fmt(s) for s in region.sigma_hat)}"]
    if min(region.sigma_hat) <= 0.0:
        lines.append("rate bounds: unavailable (degenerate region, sigma_hat = 0)")
        return lines
    if m_tilde is None:
        lines.append("rate bounds: unavailable (no magnitude bound; pass --m-tilde)")
        return lines
    constants = bound_constants(region, m_tilde)
    lines.append(f"m_tilde: {_fmt(m_tilde)}")
    lines.append(f"sigma: {_fmt(constants.sigma)}")
    lines.append(
        f"mu1: {_fmt(constants.mu1)}  mu2: {_fmt(constants.mu2)}  mu3: {_fmt(constants.mu3)}"
    )
    lines.append(f"c1: {_fmt(constants.c1)}")
    for w in levels:
        eta = len(build_plan(rule, w, dims).knots)
        regime, bound = convergence_bound(constants, w, eta)
        lines.append(f"bound w={w} eta={eta} regime={regime} value={_fmt(bound)}")
    return lines


def cmd_certify(args: argparse.Namespace) -> int:
    rule = _grid_rule(args.rule, args.family)
    lines: list[str]

    if args.scalar_demo:
        dims = 1
        # x^2 - (2 + 0.1 q) is x^2 - 2 at q = 0; q drives the region search.
        problem = NewtonProblem(
            residual=lambda x, p: x[..., :1] ** 2 - (2.0 + 0.1 * p[..., :1]),
            jacobian=lambda x, p: 2.0 * x[..., :1, None],
        )
        x0 = np.array([1.5])
        cert = kantorovich_certificate(problem, x0, params=np.zeros(dims), lipschitz=2.0)
        lines = _certificate_lines(cert, "built-in scalar x^2 - 2 at x0 = 1.5")
        lines.append("region problem: x^2 - (2 + 0.1 q)")
    else:
        if args.case is None:
            raise UqflowError("certify needs --case or --scalar-demo")
        dims = args.dims
        case, net = _load_network(args.case)
        pert = _study_perturbation(net, args.study, dims, args.coefficient)
        problem = parametric_problem(net, pert)
        x0 = initial_state(net, "flat")
        cert = kantorovich_certificate(
            problem,
            x0,
            params=np.zeros(dims),
            radius=args.radius,
            lipschitz=args.lipschitz,
            probe_count=args.probes,
            seed=args.seed,
        )
        lines = _certificate_lines(
            cert, f"{case.name} ({args.study} study, {dims} dims) from flat start"
        )

    kappa_e = args.kappa_e if args.kappa_e is not None else 2.0 * cert.kappa
    delta_e = (
        args.delta_e
        if args.delta_e is not None
        else (2.0 * kappa_e * cert.delta / cert.kappa if cert.delta > 0 else kappa_e)
    )
    lines.append(f"kappa_e: {_fmt(kappa_e)}")
    lines.append(f"delta_e: {_fmt(delta_e)}")

    if args.sigma_hat is not None:
        values = args.sigma_hat
        if len(values) == 1:
            values = values * dims
        elif len(values) != dims:
            raise UqflowError(
                f"--sigma-hat gives {len(values)} radii; want one or one per dimension ({dims})"
            )
        region = EllipseRegion(values)
        lines.append("region: supplied via --sigma-hat (search skipped)")
    else:
        region = admissible_region_search(
            problem,
            x0,
            cert.kappa,
            cert.delta,
            kappa_e,
            delta_e,
            dims=dims,
            sigma_cap=args.sigma_cap,
            seed=args.seed,
        )
        lines.append("region: certified by boundary-probe bisection")

    m_tilde = args.m_tilde
    h_e = 2.0 * kappa_e * cert.lipschitz * delta_e
    lines.append(f"h_e: {_fmt(h_e)}")
    if h_e <= 1.0:
        t_star_e = kantorovich_t_star(h_e, delta_e)
        lines.append(f"t_star_e: {_fmt(t_star_e)}")
        if m_tilde is None:
            m_tilde = mtilde_bound(t_star_e, x0)
    else:
        lines.append("t_star_e: unavailable (h_e > 1)")
    lines.extend(_bound_schedule_lines(region, m_tilde, rule, args.levels, dims))

    text = "\n".join(lines) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
    return 0


# ---------------------------------------------------------------------------
# parser assembly


def _levels_argument(text: str) -> tuple[int, ...]:
    """argparse type (and config converter): comma-separated levels >= 0."""
    try:
        levels = tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}: {exc}") from None
    if not levels:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}: no entries")
    if min(levels) < 0:
        raise argparse.ArgumentTypeError(f"bad level list {text!r}: levels must be >= 0")
    return levels


def _count_argument(what: str, least: int = 1):
    """argparse type: an integer >= least, named ``what`` in the error."""

    def parse(text: str) -> int:
        try:
            count = int(text)
        except ValueError:
            count = least - 1
        if count < least:
            raise argparse.ArgumentTypeError(f"bad {what} {text!r}: want an integer >= {least}")
        return count

    return parse


_dims_argument = _count_argument("dimension count")


def _directory_argument(text: str) -> str:
    """argparse type: a non-empty path; '' would put cache entries in the CWD."""
    if not text:
        raise argparse.ArgumentTypeError("bad directory '': want a non-empty path")
    return text


def _sigma_hat_argument(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(part) for part in text.split(","))
    except ValueError:
        values = ()
    if not values or not all(math.isfinite(s) and s >= 0.0 for s in values):
        raise argparse.ArgumentTypeError(
            f"bad radius list {text!r}: want finite numbers >= 0, comma-separated"
        )
    return values


def _finite_argument(positive: bool):
    """argparse type: a finite float, > 0 if positive and >= 0 otherwise."""
    relation = ">" if positive else ">="

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
            raise argparse.ArgumentTypeError(f"bad value {text!r}: want a finite number {relation} 0")
        return value

    return parse


def _add_common_study_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--case", help="case path or bundled:<name>")
    sub.add_argument("--config", help="flat key=value config file")
    sub.add_argument("--rule", choices=["smolyak", "td", "hc"], help="index-set rule")
    sub.add_argument("--family", choices=["cc", "gauss"], help="1-D node family")
    sub.add_argument("--levels", type=_levels_argument, help="comma-separated levels, e.g. 1,2,3")
    sub.add_argument("--dims", type=_dims_argument, help="stochastic dimension count")
    sub.add_argument("--qoi", help="quantity of interest, e.g. voltage:22")
    sub.add_argument("--study", choices=["load", "admittance"], help="perturbation family")
    sub.add_argument("--coefficient", type=float, help="perturbation coefficient (default 0.5)")
    sub.add_argument(
        "--seed", type=int, help="ignored; accepted so existing command lines still parse"
    )
    sub.add_argument(
        "--tol",
        type=_finite_argument(positive=True),
        help="knot-solve mismatch tolerance (default 1e-12)",
    )
    sub.add_argument("--cache", type=_directory_argument, help="directory for surrogate JSON caching")
    sub.add_argument("--out", help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uqflow",
        description="Sparse-grid uncertainty quantification for Newton-solved power flow.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a case and print the operating point")
    p_solve.add_argument("--case", required=True, help="case path or bundled:<name>")
    p_solve.add_argument("--init", choices=["flat", "from-case"], default="flat")
    p_solve.add_argument("--tol", type=_finite_argument(positive=True), default=1e-10)
    p_solve.add_argument("--max-iter", type=_count_argument("iteration cap", 0), default=20)
    p_solve.set_defaults(func=cmd_solve)

    p_parse = sub.add_parser("parse-case", help="parse and validate a case file")
    p_parse.add_argument("--case", required=True, help="case path or bundled:<name>")
    p_parse.add_argument("--out", help="write canonical serialization here")
    p_parse.set_defaults(func=cmd_parse_case)

    p_grid = sub.add_parser("grid-info", help="sparse-grid size table")
    p_grid.add_argument("--rule", choices=["smolyak", "td", "hc"], default="smolyak")
    p_grid.add_argument("--family", choices=["cc", "gauss"], default="cc")
    p_grid.add_argument("--dims", type=_dims_argument, default=2)
    p_grid.add_argument("--levels", type=_levels_argument, default=(0, 1, 2, 3, 4))
    p_grid.add_argument("--out")
    p_grid.set_defaults(func=cmd_grid_info)

    p_mom = sub.add_parser("uq-moments", help="surrogate moments per level")
    _add_common_study_arguments(p_mom)
    p_mom.set_defaults(func=cmd_uq_moments)

    p_conv = sub.add_parser("uq-convergence", help="moment errors against a reference level")
    _add_common_study_arguments(p_conv)
    p_conv.add_argument("--ref-level", dest="ref_level", type=int, help="reference level (default 5)")
    p_conv.set_defaults(func=cmd_uq_convergence)

    p_cert = sub.add_parser("certify", help="Kantorovich certificate + analyticity report")
    p_cert.add_argument("--case", help="case path or bundled:<name>")
    p_cert.add_argument("--scalar-demo", action="store_true", help="run the built-in scalar example")
    p_cert.add_argument("--rule", choices=["smolyak", "td", "hc"], default="smolyak")
    p_cert.add_argument("--family", choices=["cc", "gauss"], default="cc")
    p_cert.add_argument("--levels", type=_levels_argument, default=(1, 2, 3), help="bound schedule levels")
    p_cert.add_argument("--dims", type=_dims_argument, default=2)
    ignored = "ignored; accepted so study command lines still parse"
    p_cert.add_argument("--qoi", help=ignored)
    p_cert.add_argument("--study", choices=["load", "admittance"], default="load")
    p_cert.add_argument("--coefficient", type=float, default=0.5)
    p_cert.add_argument("--tol", type=float, help=ignored)
    p_cert.add_argument("--seed", type=_count_argument("seed", 0), default=0)
    p_cert.add_argument(
        "--lipschitz",
        type=_finite_argument(positive=False),
        help="exact Lipschitz constant, skips sampling",
    )
    p_cert.add_argument(
        "--radius",
        type=_finite_argument(positive=True),
        default=1.0,
        help="Lipschitz probe ball radius",
    )
    p_cert.add_argument(
        "--probes", type=_count_argument("probe count"), default=64, help="Lipschitz probe pair count"
    )
    p_cert.add_argument(
        "--kappa-e",
        dest="kappa_e",
        type=_finite_argument(positive=True),
        help="target extended kappa",
    )
    p_cert.add_argument(
        "--delta-e",
        dest="delta_e",
        type=_finite_argument(positive=True),
        help="target extended delta",
    )
    p_cert.add_argument(
        "--sigma-cap", dest="sigma_cap", type=_finite_argument(positive=False), default=2.0
    )
    p_cert.add_argument(
        "--samples",
        type=int,
        help="ignored: the region search uses the exact parameter slopes",
    )
    p_cert.add_argument(
        "--sigma-hat",
        dest="sigma_hat",
        type=_sigma_hat_argument,
        help="fixed region radii (comma list or single value), skips the search",
    )
    p_cert.add_argument(
        "--m-tilde",
        dest="m_tilde",
        type=_finite_argument(positive=True),
        help="magnitude bound override",
    )
    p_cert.add_argument("--out")
    p_cert.set_defaults(func=cmd_certify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UqflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
