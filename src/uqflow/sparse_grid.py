"""Sparse-grid index sets, combination coefficients, plans, and surrogates.

A plan fixes a rule (index-set shape + node family), a budget w, and a
dimension count; it enumerates the admissible multi-indices, folds the
telescoping differences into integer combination coefficients, and takes the
exact set union of the surviving tensor grids. Nodes are identified by their
exact values: each distinct 1D node value gets an integer id, and the union
is one sort of the id tuples of every term's grid, so a model function is
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
    _check_node_count,
    barycentric_basis,
    barycentric_weights,
    cc_barycentric_weights,
    clenshaw_curtis_nodes,
    gauss_nodes,
)

RuleKind = Literal["smolyak", "td", "hc"]
FamilyKind = Literal["clenshaw_curtis", "gauss_legendre"]

#: Most multiply-adds in one BLAS product of a contraction. The bundled
#: OpenBLAS 0.3.31 on a 2-core host runs a dgemm on the calling thread up to
#: about 1.0e6 of them (6,500 x 17 x 9 serial, 6,561 x 17 x 9 threaded) and a
#: dgemv up to about 4.4e5 (26,000 x 17 serial, 28,000 x 17 threaded); a
#: threaded 6,561 x 17 x 9 product costs about 290 us of wall time and twice
#: that in CPU, against 80 us on one thread. Blocks of at most 2^18 stay
#: below both.
_SERIAL_PRODUCTS = 2**18
#: Blocks start on multiples of this many rows: OpenBLAS's one-column kernels
#: round a row by its offset within the call (a 100,003 x 17 by 17 x 1
#: product keeps its bits in 1,000-row blocks, not in 1,001-row ones).
_BLOCK_ALIGN = 64


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
        if self.kind not in ("smolyak", "td", "hc"):
            raise ValueError(f"unknown rule kind {self.kind!r}")
        if self.family not in ("clenshaw_curtis", "gauss_legendre"):
            raise ValueError(f"unknown node family {self.family!r}")

    def count(self, level: int) -> int:
        """Nodes at a 1-based level; level 0 is the empty rule."""
        if level < 0:
            raise ValueError(f"level must be >= 0, got {level}")
        if self.kind != "smolyak" or level < 2:
            return level
        return 2 ** (level - 1) + 1

    def admissible(self, index: tuple[int, ...], w: int) -> bool:
        """Whether g(i) <= w: g(i) = prod(i) - 1 for hc, sum(i_n - 1) otherwise."""
        if any(i < 1 for i in index):
            raise ValueError(f"levels are 1-based, got {index}")
        if self.kind == "hc":
            return math.prod(index) - 1 <= w
        return sum(index) - len(index) <= w


def _downward_closed(
    dims: int, first: int, fits: Callable[[tuple[int, ...]], bool]
) -> list[tuple[int, ...]]:
    """Every dims-tuple of entries >= first that fits, in lexicographic order.

    fits must be downward closed (lowering an entry keeps a tuple fitting), so
    a prefix grows while the prefix padded with `first` still fits.
    """
    out: list[tuple[int, ...]] = []

    def extend(prefix: tuple[int, ...]):
        if len(prefix) == dims:
            out.append(prefix)
            return
        pad = (first,) * (dims - len(prefix) - 1)
        i = first
        while fits(prefix + (i,) + pad):
            extend(prefix + (i,))
            i += 1

    extend(())
    return out


def admissible_indices(rule: GridRule, w: int, dims: int) -> list[tuple[int, ...]]:
    """All 1-based level multi-indices with g(i) <= w, lexicographic order."""
    if w < 0 or dims < 1:
        raise ValueError(f"need w >= 0 and dims >= 1, got w={w}, dims={dims}")
    return _downward_closed(dims, 1, lambda index: rule.admissible(index, w))


def combination_coefficients(
    rule: GridRule, w: int, dims: int
) -> dict[tuple[int, ...], int]:
    """Integer weight of each admissible tensor term, in admissible_indices order.

    c(i) = sum over j in {0,1}^dims with i+j in I of (-1)^|j| is the product
    over the axes n of the forward differences 1 - shift_n applied to the
    indicator of I, so one pass per axis takes them on I alone: an index off
    I counts 0, which is exact because I is downward closed (if i is off I,
    so is every i+j). Zero-weight terms are kept here and dropped by build_plan.
    """
    coeff = dict.fromkeys(admissible_indices(rule, w, dims), 1)
    for n in range(dims):
        # The comprehension reads the previous pass before `coeff` is rebound.
        coeff = {i: c - coeff.get(i[:n] + (i[n] + 1,) + i[n + 1 :], 0) for i, c in coeff.items()}
    return coeff


# --- node sets ---------------------------------------------------------------


@lru_cache(maxsize=None)
def _gl_unit_nodes(count: int) -> tuple[float, ...]:
    return tuple(gauss_nodes(count)[0].tolist())


def _family_nodes(family: FamilyKind, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Node values and their barycentric weights for one count."""
    if family == "clenshaw_curtis":
        return clenshaw_curtis_nodes(count), cc_barycentric_weights(count)
    nodes = np.array(_gl_unit_nodes(count))
    return nodes, barycentric_weights(nodes)


@dataclass(frozen=True)
class TensorTerm:
    """One tensor grid of the combination form; rows holds its knots' plan rows in C order."""

    levels: tuple[int, ...]
    coefficient: int
    counts: tuple[int, ...]
    rows: np.ndarray = field(compare=False, repr=False)


@dataclass
class SparseGridPlan:
    """Deterministic evaluation plan: terms plus the deduplicated knot union.

    A knot is identified by its coordinates, and each coordinate by its exact
    value: nested node families give bitwise-equal values across counts (see
    nodes1d), so equal nodes are one node. The union is taken by sorting the
    knots of all terms, so knots come lexicographically by value and are
    reproducible across runs. node_sets maps a count to its nodes and
    barycentric weights.
    """

    rule: GridRule
    w: int
    dims: int
    terms: list[TensorTerm]
    knots: np.ndarray
    node_sets: dict[int, tuple[np.ndarray, np.ndarray]] = field(repr=False)

    @property
    def n_knots(self) -> int:
        return self.knots.shape[0]


def build_plan(rule: GridRule, w: int, dims: int) -> SparseGridPlan:
    coeffs = combination_coefficients(rule, w, dims)
    indices = [(i, c, tuple(rule.count(l) for l in i)) for i, c in coeffs.items() if c != 0]
    distinct = sorted({c for _, _, counts in indices for c in counts})
    _check_node_count(rule.family, distinct[-1])  # before any node set is built
    node_sets = {count: _family_nodes(rule.family, count) for count in distinct}
    # A node's id is its place among the distinct node values, in order.
    node_values = np.unique(np.concatenate([nodes for nodes, _ in node_sets.values()]))
    count_ids = {c: np.searchsorted(node_values, nodes) for c, (nodes, _) in node_sets.items()}

    # Each term's (counts..., dims) grid of ids, filled axis by axis by
    # broadcasting, flattened in C order and stacked.
    grids = []
    for _, _, counts in indices:
        grid = np.empty((*counts, dims), dtype=np.intp)
        for d, count in enumerate(counts):
            grid[..., d] = count_ids[count].reshape((-1,) + (1,) * (dims - 1 - d))
        grids.append(grid.reshape(-1, dims))
    stacked = np.concatenate(grids)
    # Sorting the id rows, first column primary, makes equal knots neighbours.
    order = np.lexsort(stacked.T[::-1])
    ordered = stacked[order]
    new = np.ones(len(ordered), dtype=bool)
    new[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    rows = np.empty(len(ordered), dtype=np.intp)
    rows[order] = np.cumsum(new) - 1

    starts = np.cumsum([len(g) for g in grids])[:-1]
    terms = [
        TensorTerm(levels=i, coefficient=c, counts=counts, rows=term_rows)
        for (i, c, counts), term_rows in zip(indices, np.split(rows, starts))
    ]
    return SparseGridPlan(
        rule=rule,
        w=w,
        dims=dims,
        terms=terms,
        knots=node_values[ordered[new]],
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

    @property
    def n_out(self) -> int:
        return self.values.shape[1]

    def term_tensors(self) -> list[np.ndarray]:
        """Each term's value block, shaped (counts..., n_out)."""
        return [
            self.values[term.rows].reshape(*term.counts, self.n_out)
            for term in self.plan.terms
        ]


def build_surrogate(plan: SparseGridPlan, f: Callable) -> Surrogate:
    """Evaluate f once per knot row, in knot order, and wrap the values."""
    rows = [f(plan.knots[k]) for k in range(plan.n_knots)]
    scalar = np.ndim(rows[0]) == 0
    values = np.array([np.atleast_1d(np.asarray(r, dtype=float)) for r in rows])
    return Surrogate(plan=plan, values=values, scalar=scalar)


def _basis_lookup(plan: SparseGridPlan, coords) -> Callable[[int, int], np.ndarray]:
    """(dim, count) -> basis matrix of node set `count` at coords[dim].

    Each matrix is built on first use and shared across terms.
    """
    cache: dict[tuple[int, int], np.ndarray] = {}

    def basis(dim: int, count: int) -> np.ndarray:
        if (dim, count) not in cache:
            nodes, bw = plan.node_sets[count]
            cache[dim, count] = barycentric_basis(nodes, bw, coords[dim])
        return cache[dim, count]

    return basis


def _blocks(rows: int, width: int) -> list[slice]:
    """Row slices of a product whose rows take `width` multiply-adds each:
    at most _SERIAL_PRODUCTS per block, each starting on a multiple of
    _BLOCK_ALIGN. The last block takes a single leftover row, because NumPy
    hands a one-row product to a different BLAS routine."""
    step = max(_BLOCK_ALIGN, _SERIAL_PRODUCTS // max(width, 1) // _BLOCK_ALIGN * _BLOCK_ALIGN)
    starts = range(0, max(rows - 1, 1), step)
    return [slice(lo, lo + step) for lo in starts[:-1]] + [slice(starts[-1], rows)]


def _blocked_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.dot(a, b) of 2-D operands, taken in row blocks of a (_blocks)
    written into one output, so that no BLAS call is large enough to wake
    OpenBLAS's threads.

    The blocks take b in Fortran order: on the bundled OpenBLAS each row then
    keeps the bits of the whole product for inner sizes 1-17 (with a C-order
    b they move from 16 on). A grid axis of one node, or an inner size of 33,
    can still move the last bit.
    """
    blocks = _blocks(len(a), a.shape[1] * b.shape[1])
    if len(blocks) == 1:
        return np.dot(a, b)
    b = np.asfortranarray(b)
    out = np.empty((len(a), b.shape[1]))
    for rows in blocks:
        np.dot(a[rows], b, out=out[rows])
    return out


def _contract_leading(partial: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """np.tensordot(partial, basis, axes=(0, 1)) by tensordot's own product,
    partial.reshape(count, -1).T @ basis.T, in row blocks (_blocked_dot)."""
    count = partial.shape[0]
    out = _blocked_dot(partial.reshape(count, -1).T, basis.T)
    return out.reshape(partial.shape[1:] + basis.shape[:1])


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
            rows = basis(0, count)
            out = _blocked_dot(rows, partial.reshape(count, -1))
            return out.reshape(rows.shape[:1] + partial.shape[1:])
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
    out = _contract_terms(
        surrogate, lambda dim, count, partial: _contract_leading(partial, basis(dim, count))
    ).reshape(surrogate.n_out, -1).T
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

    def fits(degrees: tuple[int, ...]) -> bool:
        if rule.kind == "hc":
            return math.prod(d + 1 for d in degrees) <= w + 1
        return sum(_degree_cost(rule.kind, d) for d in degrees) <= w

    out = _downward_closed(dims, 0, fits)
    return np.array(out, dtype=int).reshape(len(out), dims)


# --- serialization ------------------------------------------------------------

_SURROGATE_FORMAT = "uqflow-surrogate/1"


def _header(plan: SparseGridPlan) -> dict:
    """The fields of a cache entry that name its plan, as written."""
    rule = {"kind": plan.rule.kind, "family": plan.rule.family}
    return {"format": _SURROGATE_FORMAT, "rule": rule, "w": plan.w, "dims": plan.dims}


def surrogate_to_json(surrogate: Surrogate) -> str:
    plan = surrogate.plan
    payload = {
        **_header(plan),
        "knots": plan.knots.tolist(),
        "values": surrogate.values.tolist(),
        "scalar": surrogate.scalar,
    }
    return json.dumps(payload)


def surrogate_from_json(text: str | bytes, plan: SparseGridPlan) -> Surrogate:
    """Read a cached surrogate of ``plan`` from its JSON (str, or UTF-8 bytes).

    The entry must name the plan's format, rule, w and dims, and hold its
    knots exactly, a bool ``scalar`` and one finite value row per knot;
    anything else, text that is not JSON included, raises CacheMismatchError.
    Other fields are ignored (entries written with per-knot ``keys`` text
    still read). Nothing is built from the entry, so an edited level cannot
    make the read build a grid.
    """
    want = _header(plan)
    try:
        payload = json.loads(text)
        header = {key: payload[key] for key in want}
        if header != want:
            raise CacheMismatchError(f"cache entry of {header} read for {want}")
        scalar = payload["scalar"]
        stored_knots = np.asarray(payload["knots"], dtype=float)
        values = np.asarray(payload["values"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:  # ValueError: not UTF-8 JSON too
        raise CacheMismatchError(f"malformed cache entry: {exc!r}") from None
    if type(scalar) is not bool:
        raise CacheMismatchError("cached scalar must be a bool")
    if not np.array_equal(stored_knots, plan.knots):
        raise CacheMismatchError("cached knot set does not match the plan")
    n_out = values.shape[1] if values.ndim == 2 else 0
    if values.shape[:1] != (plan.n_knots,) or n_out < 1 or (scalar and n_out != 1):
        raise CacheMismatchError(f"cached values of shape {values.shape} do not fit the plan")
    if not np.isfinite(values).all():
        raise CacheMismatchError("cached values are not all finite")
    return Surrogate(plan=plan, values=values, scalar=scalar)
