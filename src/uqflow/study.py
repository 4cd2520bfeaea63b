"""One study: one network, one perturbation, one rule and one QoI, solved
level by level. A level is Newton solves at the plan's knots (memoized
across levels), the combination-form surrogate over them and its moments;
with a cache directory each level's surrogate is stored as JSON."""

from __future__ import annotations

import hashlib
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import CacheMismatchError, CaseValidationError, UqflowError
from .moments import default_orders, moment_estimates, quadrature_plan
from .powerflow import (
    AdmittanceTerm,
    LoadTerm,
    PowerNetwork,
    QuantityOfInterest,
    StochasticPerturbation,
    qoi_sampler,
)
from .sparse_grid import (
    GridRule, build_plan, build_surrogate, surrogate_from_json, surrogate_to_json,
)


def study_perturbation(
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
    1-based case-table rows, which must be in service, or the first ``dims``
    in-service branches). A list the chosen study does not read is an error,
    not a silent no-op.
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
            position = {row: k for k, row in enumerate(net.branch_rows)}
            table = len(net.branches) + len(net.out_of_service_rows)
            for row in branches:
                if row not in position:
                    why = f"is not a branch row of the case (1..{table})"
                    if row in net.out_of_service_rows:
                        why = "is out of service"
                    raise CaseValidationError(f"config key 'branches': row {row} {why}")
            rows = [position[r] for r in branches]
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
_CACHE_TAG = "uqflow-cache/4"


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
    never sees a partly written entry and concurrent writers, processes or
    threads, do not mix: each writer has its own temporary name."""
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


@dataclass(frozen=True)
class Study:
    """What each level of one study reads. ``key`` (None without a cache)
    keys its entries by the reprs of what they cache, the perturbation as
    resolved, so two spellings of one study share."""

    rule: GridRule
    dims: int
    cache_dir: str | None
    key: str | None
    sample: Callable[[np.ndarray], float]

    @classmethod
    def open(
        cls,
        net: PowerNetwork,
        pert: StochasticPerturbation,
        rule: GridRule,
        qoi: QuantityOfInterest,
        tol: float,
        cache_dir: str | None = None,
    ) -> Study:
        """Knots are solved to ``tol``. Cache entries are keyed by the exact
        network: its repr holds every value the solve reads."""
        key = None
        if cache_dir is not None:
            digest = hashlib.sha256(repr(net).encode()).hexdigest()
            key = "|".join(map(repr, (_CACHE_TAG, digest, pert, rule, qoi, tol)))
        sample = _memoized(qoi_sampler(net, pert, qoi, tol=tol))
        return cls(rule, pert.dims, cache_dir, key, sample)

    def level(self, w: int) -> LevelResult:
        start = time.perf_counter()
        # first, so that a tensor rule too big to hold fails before any solve
        q_plan = quadrature_plan(default_orders(self.rule, w, self.dims))
        plan = build_plan(self.rule, w, self.dims)
        surrogate = cache_path = None
        if self.key is not None:
            key = hashlib.sha256(f"{self.key}|{w}".encode()).hexdigest()[:32]
            cache_path = Path(self.cache_dir) / f"{key}.json"
            try:
                surrogate = surrogate_from_json(cache_path.read_bytes(), plan)
            except (FileNotFoundError, CacheMismatchError):
                pass  # a missing, corrupt or stale entry is a miss, written below
        if surrogate is None:
            surrogate = build_surrogate(plan, self.sample)
            if cache_path is not None:
                _write_atomically(cache_path, surrogate_to_json(surrogate))
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
