"""Spans around the public functions of each uqflow module.

``Tracer.install`` replaces, in every loaded ``uqflow`` module, each
attribute that refers to a public function of a layer module with a wrapper
that records a span; ``Tracer.restore`` puts the originals back.  No file of
the package is touched.  A span is ``[name, start, end, parent, op, counts]``
with ``parent`` the index of the enclosing span (-1 for none); spans stay in
memory until ``write``.

A few wrappers also record work counts (Newton iterations, knots requested,
points evaluated) or wrap the callables a function returns (the residual and
Jacobian of ``parametric_problem``, the knot sampler of ``qoi_sampler``).
A metric whose functions no longer exist is reported as missing.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("case_io", "powerflow", "newton", "sparse_grid", "nodes1d", "moments", "analyticity", "cli")

_START, _END, _PARENT, _OP, _COUNTS = 1, 2, 3, 4, 5


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


# Per-layer metrics: name -> (unit, how, span names, count field).
#   calls: number of spans; sum/max: of a recorded count; busy: span time
#   (outermost spans only); self: span time minus child spans.
_SPAN_METRICS = {
    "powerflow.assembly_calls": ("count", "calls", ("powerflow.gb_matrices",), None),
    "powerflow.assembly_s": ("s", "busy", ("powerflow.gb_matrices",), None),
    "powerflow.residual_calls": ("count", "calls", ("powerflow.residual",), None),
    "powerflow.residual_s": ("s", "busy", ("powerflow.residual",), None),
    "powerflow.jacobian_calls": ("count", "calls", ("powerflow.jacobian",), None),
    "powerflow.jacobian_s": ("s", "busy", ("powerflow.jacobian",), None),
    "newton.solves": ("count", "calls", ("newton.solve",), None),
    "newton.iterations": ("count", "sum", ("newton.solve",), "iterations"),
    "newton.iterations_max": ("count", "max", ("newton.solve",), "iterations"),
    "newton.solve_s": ("s", "busy", ("newton.solve",), None),
    "newton.solve_self_s": ("s", "self", ("newton.solve",), None),
    "newton.certificate_s": ("s", "busy", ("newton.kantorovich_certificate",), None),
    "sparse_grid.plan_s": ("s", "busy", ("sparse_grid.build_plan",), None),
    "sparse_grid.build_s": ("s", "busy", ("sparse_grid.build_surrogate",), None),
    "sparse_grid.knots_requested": ("count", "sum", ("sparse_grid.build_surrogate",), "knots"),
    "sparse_grid.knots_solved": ("count", "calls", ("powerflow.qoi_sample",), None),
    "sparse_grid.eval_points": ("count", "sum", ("sparse_grid.evaluate_surrogate",), "points"),
    "sparse_grid.eval_term_points": ("count", "sum", ("sparse_grid.evaluate_surrogate",), "term_points"),
    "sparse_grid.eval_s": ("s", "busy", ("sparse_grid.evaluate_surrogate",), None),
    "sparse_grid.cache_reads": ("count", "calls", ("sparse_grid.surrogate_from_json",), None),
    "sparse_grid.cache_read_s": ("s", "busy", ("sparse_grid.surrogate_from_json",), None),
    "nodes1d.basis_calls": ("count", "calls", ("nodes1d.barycentric_basis",), None),
    "nodes1d.basis_s": ("s", "busy", ("nodes1d.barycentric_basis",), None),
    "moments.tensor_points": ("count", "sum", ("moments.moment_estimates",), "points"),
    "moments.estimate_s": ("s", "busy", ("moments.moment_estimates",), None),
    "moments.estimate_self_s": ("s", "self", ("moments.moment_estimates",), None),
    "analyticity.region_search_s": ("s", "busy", ("analyticity.admissible_region_search",), None),
    "analyticity.norm_estimates": ("count", "calls", ("analyticity.estimate_perturbation_norms",), None),
    "analyticity.norm_estimate_s": ("s", "busy", ("analyticity.estimate_perturbation_norms",), None),
    "analyticity.bound_s": (
        "s",
        "busy",
        ("analyticity.bound_constants", "analyticity.convergence_bound", "analyticity.mtilde_bound"),
        None,
    ),
    "case_io.load_s": ("s", "busy", ("case_io.load_case",), None),
    "case_io.serialize_s": ("s", "busy", ("case_io.serialize_case",), None),
}

# Spans that do not name a module function: the callables returned by these.
_RETURNED = {
    "powerflow.residual": "powerflow.parametric_problem",
    "powerflow.jacobian": "powerflow.parametric_problem",
    "powerflow.qoi_sample": "powerflow.qoi_sampler",
}

# Self time of every span, grouped by layer; these add up to the op's root span.
LAYER_SELF = {f"{layer}.self_s": ("s", "layer_self", (layer,), None) for layer in LAYERS}

# Metrics derived from the ones above or from the ops' wall times.
_DERIVED = {
    "sparse_grid.memo_hit_ratio": "ratio",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace_overhead_s": "s",
}


def metric_units() -> dict[str, str]:
    units = {name: spec[0] for name, spec in {**_SPAN_METRICS, **LAYER_SELF}.items()}
    units.update(_DERIVED)
    return units


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op: int | None = None  # spans are recorded only while an op is set
        self.hooked: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[_START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[_END] = perf_counter()
                self._stack.pop()
            return result if after is None else after(record, args, kwargs, result)

        return traced

    def _after(self, name: str):
        """Count recorders and result wrappers for the functions that have them."""

        # A signature or result type that changed makes the count missing
        # (None) and leaves the call's result alone; the op never fails here.
        def counts(**fields):
            def after(record, args, kwargs, result):
                try:
                    record[_COUNTS] = {k: f(args, kwargs, result) for k, f in fields.items()}
                except (AttributeError, KeyError, IndexError, TypeError):
                    pass
                return result

            return after

        def problem(record, args, kwargs, result):
            try:
                return dataclasses.replace(
                    result,
                    residual=self.wrap("powerflow.residual", result.residual),
                    jacobian=self.wrap("powerflow.jacobian", result.jacobian),
                )
            except (AttributeError, TypeError):
                return result

        def points(args, kwargs, result):
            return np.atleast_2d(np.asarray(_arg(args, kwargs, 1, "points"))).shape[0]

        return {
            "newton.solve": counts(iterations=lambda a, k, r: r.iterations),
            "sparse_grid.build_surrogate": counts(knots=lambda a, k, r: _arg(a, k, 0, "plan").n_knots),
            "sparse_grid.evaluate_surrogate": counts(
                points=points,
                term_points=lambda a, k, r: points(a, k, r) * len(_arg(a, k, 0, "surrogate").plan.terms),
            ),
            "moments.moment_estimates": counts(points=lambda a, k, r: _arg(a, k, 2, "plan").n_points),
            "powerflow.parametric_problem": problem,
            "powerflow.qoi_sampler": lambda record, a, k, r: self.wrap("powerflow.qoi_sample", r),
        }.get(name)

    # -- hooks -------------------------------------------------------------

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"uqflow.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = self.wrap(name, obj, self._after(name))
                self.hooked.add(name)
        for returned, maker in _RETURNED.items():
            if maker in self.hooked:
                self.hooked.add(returned)
        for module in [m for n, m in list(sys.modules.items()) if n == "uqflow" or n.startswith("uqflow.")]:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def restore(self) -> None:
        while self._patches:
            module, attr, obj = self._patches.pop()
            setattr(module, attr, obj)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write(json.dumps(["name", "start", "end", "parent", "op", "counts"]) + "\n")
            for record in self.spans:
                fh.write(json.dumps(record) + "\n")

    # -- metrics -----------------------------------------------------------

    def op_metrics(self, op: int) -> dict[str, float | None]:
        """Per-layer metrics of one traced op; None marks a missing hook."""
        spans = [(i, s) for i, s in enumerate(self.spans) if s[_OP] == op]
        dur = {i: s[_END] - s[_START] for i, s in spans}
        child = dict.fromkeys(dur, 0.0)
        by_name: dict[str, list[int]] = {}
        for i, s in spans:
            if s[_PARENT] in child:
                child[s[_PARENT]] += dur[i]
            by_name.setdefault(s[0], []).append(i)

        def outermost(i, names):
            parent = self.spans[i][_PARENT]
            while parent >= 0:
                if self.spans[parent][0] in names:
                    return False
                parent = self.spans[parent][_PARENT]
            return True

        out: dict[str, float | None] = {}
        for metric, (_, how, names, field) in {**_SPAN_METRICS, **LAYER_SELF}.items():
            if how == "layer_self":
                out[metric] = float(sum(dur[i] - child[i] for i, s in spans if s[0].split(".")[0] == names[0]))
                continue
            if not any(n in self.hooked for n in names):
                out[metric] = None
                continue
            mine = [i for n in names for i in by_name.get(n, ())]
            if how == "calls":
                out[metric] = len(mine)
            elif how in ("sum", "max"):
                values = [(self.spans[i][_COUNTS] or {}).get(field) for i in mine]
                if None in values:
                    out[metric] = None
                else:
                    out[metric] = sum(values) if how == "sum" else max(values, default=0)
            elif how == "busy":
                out[metric] = float(sum(dur[i] for i in mine if outermost(i, names)))
            else:
                out[metric] = float(sum(dur[i] - child[i] for i in mine))
        requested, solved = out["sparse_grid.knots_requested"], out["sparse_grid.knots_solved"]
        if requested is None or solved is None:
            out["sparse_grid.memo_hit_ratio"] = None
        else:
            # base: knots requested; 0 when the op requested none
            out["sparse_grid.memo_hit_ratio"] = 1.0 - solved / requested if requested else 0.0
        return out


def summarize(per_op: list[dict[str, float | None]]) -> dict[str, float | None]:
    """Median over traced ops; a count that repeats exactly stays that count."""
    out = {}
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        if None in values:
            out[name] = None
        else:
            out[name] = values[0] if len(set(values)) == 1 else statistics.median(values)
    return out
