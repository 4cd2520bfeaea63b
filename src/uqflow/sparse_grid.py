"""Sparse-grid index sets, combination coefficients, plans, and surrogates.

A plan fixes a rule (index-set shape + node family), a budget w, and a
dimension count; it enumerates the admissible multi-indices, folds the
telescoping differences into integer combination coefficients, and takes the
exact set union of the surviving tensor grids. Knot identity is integer-based
(see nodes1d), so the union never compares floats and a model function is
evaluated exactly once per unique knot.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Literal

import numpy as np

from .errors import CacheMismatchError
from .nodes1d import (
    barycentric_basis,
    barycentric_weights,
    cc_node_keys,
    clenshaw_curtis_nodes,
    gauss_nodes,
    level_to_count,
)

RuleKind = Literal["smolyak", "td", "hc"]
FamilyKind = Literal["clenshaw_curtis", "gauss_legendre"]

_RULE_GROWTH = {"smolyak": "doubling", "td": "linear", "hc": "linear"}


@dataclass(frozen=True)
class GridRule:
    """Index-set shape plus the 1D node family driving each dimension.

    smolyak pairs the doubling count sequence 1, 3, 5, 9, ... with the level
    budget sum(i_n - 1) <= w; td and hc grow linearly, td budgets the level
    sum and hc the level product (prod i_n <= w + 1).
    """

    kind: RuleKind
    family: FamilyKind = "clenshaw_curtis"

    def __post_init__(self):
        if self.kind not in _RULE_GROWTH:
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.family not in ("clenshaw_curtis", "gauss_legendre"):
            raise ValueError(f"unknown node family {self.family!r}")

    @property
    def growth(self) -> str:
        return _RULE_GROWTH[self.kind]

    def count(self, level: int) -> int:
        return level_to_count(level, self.growth)  # type: ignore[arg-type]

    def level_weight(self, index: tuple[int, ...]) -> int:
        """g(i); an index is admissible at budget w iff g(i) <= w."""
        if any(i < 1 for i in index):
            raise ValueError(f"levels are 1-based, got {index}")
        if self.kind == "hc":
            return math.prod(index) - 1
        return sum(index) - len(index)

    def admissible(self, index: tuple[int, ...], w: int) -> bool:
        return self.level_weight(index) <= w


def admissible_indices(rule: GridRule, w: int, dims: int) -> list[tuple[int, ...]]:
    """All 1-based level multi-indices with g(i) <= w, lexicographic order."""
    if w < 0 or dims < 1:
        raise ValueError(f"need w >= 0 and dims >= 1, got w={w}, dims={dims}")
    out: list[tuple[int, ...]] = []

    def extend(prefix: list[int]):
        if len(prefix) == dims:
            out.append(tuple(prefix))
            return
        pad = dims - len(prefix) - 1
        i = 1
        while rule.admissible(tuple(prefix + [i] + [1] * pad), w):
            extend(prefix + [i])
            i += 1

    extend([])
    return out


def combination_coefficients(
    rule: GridRule, w: int, dims: int
) -> dict[tuple[int, ...], int]:
    """Integer weight of each admissible tensor term.

    c(i) = sum over j in {0,1}^dims with i+j admissible of (-1)^|j|; the
    telescoping-difference algebra collapses to this for any downward-closed
    index set. All (N, 2^dims, dims) bumped indices i+j are tested in one
    broadcast. Zero-weight terms are kept here and dropped by build_plan.
    """
    indices = admissible_indices(rule, w, dims)
    corners = np.array(list(itertools.product((0, 1), repeat=dims)))
    bumped = np.array(indices)[:, None, :] + corners
    # g(i) of GridRule.level_weight, taken over the last axis.
    if rule.kind == "hc":
        weights = bumped.prod(axis=-1) - 1
    else:
        weights = bumped.sum(axis=-1) - dims
    signs = 1 - 2 * (corners.sum(axis=1) % 2)
    return dict(zip(indices, ((weights <= w) @ signs).tolist()))


# --- node sets with exact identities ----------------------------------------


@lru_cache(maxsize=None)
def _gl_unit_nodes(count: int) -> tuple[float, ...]:
    return tuple(gauss_nodes(count)[0].tolist())


def _family_nodes(family: FamilyKind, count: int) -> tuple[np.ndarray, list[tuple]]:
    """Node values plus their exact identity keys for one count."""
    if family == "clenshaw_curtis":
        keys = [("cc", p, q) for p, q in cc_node_keys(count)]
        return clenshaw_curtis_nodes(count), keys
    nodes = np.array(_gl_unit_nodes(count))
    keys = []
    for j in range(count):
        if count % 2 == 1 and j == count // 2:
            keys.append(("gl0",))  # the zero node is shared across odd counts
        else:
            keys.append(("gl", count, j))
    return nodes, keys


@dataclass(frozen=True)
class TensorTerm:
    levels: tuple[int, ...]
    coefficient: int
    counts: tuple[int, ...]


@dataclass
class SparseGridPlan:
    """Deterministic evaluation plan: terms plus the deduplicated knot union.

    knots are sorted lexicographically by coordinate value (exact keys break
    ties), so plans are reproducible across runs; knot_index maps each exact
    key combination to its row in knots.
    """

    rule: GridRule
    w: int
    dims: int
    terms: list[TensorTerm]
    knots: np.ndarray
    knot_keys: list[tuple[tuple, ...]]
    knot_index: dict[tuple[tuple, ...], int]
    node_sets: dict[int, tuple[np.ndarray, np.ndarray, list[tuple]]] = field(
        repr=False, default_factory=dict
    )

    @property
    def n_knots(self) -> int:
        return self.knots.shape[0]


def build_plan(rule: GridRule, w: int, dims: int) -> SparseGridPlan:
    coeffs = combination_coefficients(rule, w, dims)
    terms = [
        TensorTerm(levels=i, coefficient=c, counts=tuple(rule.count(l) for l in i))
        for i, c in coeffs.items()
        if c != 0
    ]
    node_sets: dict[int, tuple[np.ndarray, np.ndarray, list[tuple]]] = {}
    for term in terms:
        for count in term.counts:
            if count not in node_sets:
                nodes, keys = _family_nodes(rule.family, count)
                node_sets[count] = (nodes, barycentric_weights(nodes), keys)

    seen: dict[tuple[tuple, ...], tuple[float, ...]] = {}
    for term in terms:
        per_dim = [
            list(zip(node_sets[c][2], node_sets[c][0].tolist())) for c in term.counts
        ]
        for combo in itertools.product(*per_dim):
            key = tuple(k for k, _ in combo)
            if key not in seen:
                seen[key] = tuple(v for _, v in combo)

    ordered = sorted(seen.items(), key=lambda item: (item[1], item[0]))
    knot_keys = [k for k, _ in ordered]
    knots = np.array([v for _, v in ordered], dtype=float).reshape(len(ordered), dims)
    knot_index = {k: row for row, k in enumerate(knot_keys)}
    return SparseGridPlan(
        rule=rule,
        w=w,
        dims=dims,
        terms=terms,
        knots=knots,
        knot_keys=knot_keys,
        knot_index=knot_index,
        node_sets=node_sets,
    )


# --- surrogates --------------------------------------------------------------


@dataclass
class Surrogate:
    """Sparse interpolant: plan plus one value row per knot.

    values has shape (n_knots, n_out); scalar records whether the model
    returned scalars so evaluation can hand back unwrapped floats.
    """

    plan: SparseGridPlan
    values: np.ndarray
    scalar: bool
    _tensors: list[np.ndarray] | None = field(default=None, repr=False)

    @property
    def n_out(self) -> int:
        return self.values.shape[1]

    def term_tensors(self) -> list[np.ndarray]:
        # Value blocks reshaped per term, gathered once and reused.
        if self._tensors is None:
            tensors = []
            plan = self.plan
            for term in plan.terms:
                key_lists = [plan.node_sets[c][2] for c in term.counts]
                rows = [
                    plan.knot_index[combo]
                    for combo in itertools.product(*key_lists)
                ]
                tensors.append(
                    self.values[rows].reshape(*term.counts, self.n_out)
                )
            self._tensors = tensors
        return self._tensors


def build_surrogate(plan: SparseGridPlan, f: Callable) -> Surrogate:
    """Evaluate f once per knot row, in knot order, and wrap the values."""
    rows = [f(plan.knots[k]) for k in range(plan.n_knots)]

    first = np.atleast_1d(np.asarray(rows[0], dtype=float))
    scalar = first.size == 1 and np.ndim(rows[0]) == 0
    values = np.array([np.atleast_1d(np.asarray(r, dtype=float)) for r in rows])
    return Surrogate(plan=plan, values=values, scalar=scalar)


def _basis_lookup(plan: SparseGridPlan, coords) -> Callable[[int, int], np.ndarray]:
    """(dim, count) -> basis matrix of node set `count` at coords[dim].

    Each matrix is built on first use and shared across terms.
    """
    cache: dict[tuple[int, int], np.ndarray] = {}

    def basis(dim: int, count: int) -> np.ndarray:
        if (dim, count) not in cache:
            nodes, bw, _ = plan.node_sets[count]
            cache[dim, count] = barycentric_basis(nodes, bw, coords[dim])
        return cache[dim, count]

    return basis


def _contract_terms(
    surrogate: Surrogate, step: Callable[[int, int, np.ndarray], np.ndarray]
) -> np.ndarray:
    """Sum over the plan's terms of coefficient * tensor, every axis contracted.

    step(dim, count, partial) contracts the leading axis of partial with node
    set `count` along dimension dim. Terms are grouped depth first by the
    counts of their uncontracted axes, and a group is summed before those
    axes are contracted (sum factorization): each distinct count suffix
    (counts[dim], ..., counts[-1]) is contracted once along dim. One partial
    sum per depth is alive at a time.
    """
    dims = surrogate.plan.dims
    # Sorting on the reversed counts makes every group contiguous at every depth.
    pairs = sorted(
        zip(surrogate.plan.terms, surrogate.term_tensors()),
        key=lambda pair: pair[0].counts[::-1],
    )

    def contract(group: list, depth: int) -> np.ndarray:
        # group shares counts[depth:]; returns its sum with axes < depth contracted.
        if depth == 0:
            return sum(term.coefficient * tensor for term, tensor in group)
        total = None
        for count, sub in itertools.groupby(group, key=lambda pair: pair[0].counts[depth - 1]):
            part = step(depth - 1, count, contract(list(sub), depth - 1))
            if total is None:
                total = part
            else:
                total += part
        return total

    return contract(pairs, dims)


def evaluate_surrogate(surrogate: Surrogate, points) -> np.ndarray | float:
    """Evaluate the combination-form interpolant at one point or a batch.

    Accepts (dims,) or (P, dims); returns a scalar / (n_out,) row for a
    single point and (P,) / (P, n_out) for a batch. Cost: one per-point
    contraction along d per distinct count suffix (counts[d], ...,
    counts[-1]) of the plan's terms (see _contract_terms).
    """
    plan = surrogate.plan
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    pts = np.atleast_2d(pts)
    if pts.shape[1] != plan.dims:
        raise ValueError(f"points have {pts.shape[1]} columns, plan wants {plan.dims}")

    basis = _basis_lookup(plan, pts.T)

    def step(dim: int, count: int, partial: np.ndarray) -> np.ndarray:
        # The first contraction adds the point axis in front: (P, counts..., n_out).
        if dim == 0:
            return np.tensordot(basis(0, count), partial, axes=(1, 0))
        return np.einsum("pm,pm...->p...", basis(dim, count), partial)

    out = _contract_terms(surrogate, step)
    if surrogate.scalar:
        out = out[:, 0]
    return out[0] if single else out


def evaluate_on_grid(surrogate: Surrogate, axes) -> np.ndarray:
    """Evaluate the interpolant on the tensor grid axes[0] x ... x axes[-1].

    Value tensors are contracted with one (len(axes[d]), count) basis matrix
    per axis. Cost: one such contraction along d per distinct count suffix
    (counts[d], ..., counts[-1]) of the plan's terms (see _contract_terms).
    Rows come in C order (meshgrid(indexing="ij").ravel()), shaped (P,) or
    (P, n_out) as evaluate_surrogate returns for the flattened grid.
    """
    plan = surrogate.plan
    if len(axes) != plan.dims:
        raise ValueError(f"got {len(axes)} axes, plan wants {plan.dims}")
    basis = _basis_lookup(plan, axes)

    # Contracting the leading axis appends the grid axis at the end, so after
    # every axis the layout is (n_out, len(axes[0]), ...).
    def step(dim: int, count: int, partial: np.ndarray) -> np.ndarray:
        return np.tensordot(partial, basis(dim, count), axes=(0, 1))

    out = _contract_terms(surrogate, step).reshape(surrogate.n_out, -1).T
    return out[:, 0] if surrogate.scalar else out


# --- polynomial exactness sets ----------------------------------------------


def _degree_cost(kind: RuleKind, p: int) -> int:
    # Cheapest level budget at which a 1D rule resolves degree p.
    if kind == "smolyak":
        return 0 if p == 0 else (1 if p == 1 else (p - 1).bit_length())
    return p


def polynomial_space(rule: GridRule, w: int, dims: int) -> np.ndarray:
    """Multi-degrees the plan reproduces exactly, one row per degree.

    smolyak: sum of f(p_n) <= w with f = 0, 1, ceil(log2 p); td: sum p_n <= w;
    hc: prod (p_n + 1) <= w + 1. Rows are lexicographically sorted.
    """
    out: list[tuple[int, ...]] = []

    def feasible(degrees: list[int], pad_zero: int) -> bool:
        full = tuple(degrees + [0] * pad_zero)
        if rule.kind == "hc":
            return math.prod(d + 1 for d in full) <= w + 1
        return sum(_degree_cost(rule.kind, d) for d in full) <= w

    def extend(prefix: list[int]):
        if len(prefix) == dims:
            out.append(tuple(prefix))
            return
        pad = dims - len(prefix) - 1
        p = 0
        while feasible(prefix + [p], pad):
            extend(prefix + [p])
            p += 1

    extend([])
    return np.array(out, dtype=int).reshape(len(out), dims)


# --- serialization ------------------------------------------------------------

_PLAN_FORMAT = "uqflow-plan/1"
_SURROGATE_FORMAT = "uqflow-surrogate/1"


def _key_to_text(key: tuple) -> str:
    if key[0] == "cc":
        return f"{key[1]}/{key[2]}"
    if key[0] == "gl0":
        return "gl0"
    return f"gl:{key[1]}:{key[2]}"


def plan_to_dict(plan: SparseGridPlan) -> dict:
    return {
        "format": _PLAN_FORMAT,
        "rule": {"kind": plan.rule.kind, "family": plan.rule.family},
        "w": plan.w,
        "dims": plan.dims,
        "knots": plan.knots.tolist(),
        "keys": [[_key_to_text(k) for k in combo] for combo in plan.knot_keys],
    }


def surrogate_to_json(surrogate: Surrogate) -> str:
    payload = plan_to_dict(surrogate.plan)
    payload["format"] = _SURROGATE_FORMAT
    payload["values"] = surrogate.values.tolist()
    payload["scalar"] = surrogate.scalar
    return json.dumps(payload)


def surrogate_from_json(text: str) -> Surrogate:
    """Rebuild a surrogate, re-deriving the plan and checking it bitwise.

    The plan is reconstructed from (rule, w, dims) and compared against the
    stored knots and keys, so a cache written by a different build can never
    be silently reused.
    """
    payload = json.loads(text)
    if payload.get("format") != _SURROGATE_FORMAT:
        raise CacheMismatchError(
            f"unexpected format tag {payload.get('format')!r}"
        )
    rule = GridRule(kind=payload["rule"]["kind"], family=payload["rule"]["family"])
    plan = build_plan(rule, payload["w"], payload["dims"])
    stored_knots = np.asarray(payload["knots"], dtype=float).reshape(-1, plan.dims)
    if payload["keys"] != plan_to_dict(plan)["keys"] or not np.array_equal(
        stored_knots, plan.knots
    ):
        raise CacheMismatchError("cached knot set does not match the rebuilt plan")
    values = np.asarray(payload["values"], dtype=float)
    return Surrogate(plan=plan, values=values, scalar=payload["scalar"])
