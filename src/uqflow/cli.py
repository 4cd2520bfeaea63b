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
The resolved study runs through ``uqflow.study``, one level per CSV row.
CSV outputs start with a versioned ``# uqflow-csv/1 <command>`` comment so
downstream plotting can detect schema drift.  Exit codes: 0 success, 1 domain
failure (parse, solve, or feasibility), 2 command-line usage error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from .analyticity import (
    EllipseRegion,
    admissible_region_search,
    bound_constants,
    convergence_bound,
    mtilde_bound,
)
from .case_io import load_case, serialize_case, to_network
from .errors import UqflowError
from .newton import NewtonProblem, kantorovich_certificate, kantorovich_t_star
from .powerflow import QuantityOfInterest, initial_state, parametric_problem, solve_power_flow
from .sparse_grid import GridRule, build_plan, polynomial_space
from .study import Study, study_perturbation

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


_CONFIG_KEYS = (
    "case", "rule", "family", "levels", "ref_level", "dims", "qoi", "study",
    "coefficient", "load_buses", "branches", "seed", "tol", "out", "cache",
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


def _study(args: argparse.Namespace, need_reference: bool):
    """Resolve a study command's inputs: flags, then the config file, then the
    built-in defaults. Each flag's dest is its config key. Returns the Study
    with the command's levels, reference level and output path."""
    config = {}
    if args.config is not None:
        config = parse_config_text(Path(args.config).read_text())
    for key in config:
        if key not in _CONFIG_KEYS:
            raise UqflowError(f"{args.config}: unknown config key {key!r}")

    def pick(key: str, default, convert):
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            return flag_value
        if key in config:
            try:
                return convert(config[key])
            except (TypeError, ValueError, argparse.ArgumentTypeError, UqflowError) as exc:
                raise UqflowError(f"config key {key!r}: {exc}") from exc
        return default

    case_path = pick("case", None, str)
    if case_path is None:
        raise UqflowError("a case is required (--case or config key 'case')")
    rule = _grid_rule(pick("rule", "smolyak", str), pick("family", "cc", str))
    reference = pick("ref_level", 5, int) if need_reference else None
    qoi = _parse_qoi(pick("qoi", "voltage:22", str))
    levels = pick("levels", (1, 2, 3), _levels_argument)
    dims = pick("dims", 2, _dims_argument)
    study = pick("study", "load", str)
    coefficient = pick("coefficient", 0.5, float)
    load_buses = pick("load_buses", None, _parse_int_list)
    branches = pick("branches", None, _parse_int_list)
    tol = pick("tol", 1e-12, _finite_argument(positive=True))
    output = pick("out", None, str)
    cache_dir = pick("cache", None, _directory_argument)
    if reference is not None and max(levels) >= reference:
        raise UqflowError(
            f"max(levels) = {max(levels)} must stay below the reference level {reference}"
        )

    _, net = _load_network(case_path)
    pert = study_perturbation(net, study, dims, coefficient, load_buses, branches)
    return Study.open(net, pert, rule, qoi, tol, cache_dir), levels, reference, output


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
    study, levels, _, output = _study(args, need_reference=False)
    rows = []
    for w in levels:
        r = study.level(w)
        rows.append([str(r.w), str(r.knots), _fmt(r.mean), _fmt(r.variance), f"{r.wall_ms:.3f}"])
    _emit_csv("uq-moments", ["w", "knots", "mean", "var", "wall_ms"], rows, output)
    return 0


def cmd_uq_convergence(args: argparse.Namespace) -> int:
    study, levels, reference_level, output = _study(args, need_reference=True)
    # The reference level runs first: with nested node families every lower
    # level then reuses its solves through the memo.
    reference = study.level(reference_level)
    rows = []
    for w in levels:
        r = study.level(w)
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
        output,
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
        pert = study_perturbation(net, args.study, dims, args.coefficient)
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
