"""Output checks with tolerances that fit the numerics.

CSV (``uq-moments`` / ``uq-convergence``): ``wall_ms`` is ignored, ``w`` and
``knots`` must match exactly, ``mean`` to ``REL`` relative.  ``var``,
``err_mean`` and ``err_var`` are differences of O(mean^2) quantities, so
they are held to an absolute tolerance of ``VAR_ABS * mean^2``: a variance
of 2e-6 computed as E[S^2] - E[S]^2 already carries about 1e-15 of
cancellation error, which a relative check would mistake for a change.

``certify``: the certificate lines match to ``REL`` relative.  ``sigma_hat``
comes from a bisection that stops at a relative bracket of 1e-3, so each
radius may move by ``SIGMA_REL``; the lines derived from it (``sigma``,
``mu*``, ``c1`` and the bound values) are then recomputed from the reported
``sigma_hat`` with ``bound_constants``/``convergence_bound`` and compared to
``REL``.
"""

from __future__ import annotations

import math
import re

REL = 1e-12
VAR_ABS = 1e-12
SIGMA_REL = 1e-3

_NUMBER = re.compile(r"([-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan)")
_DERIVED = ("sigma", "mu1", "c1", "bound")


def _close(a: float, b: float, rel: float = REL) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def compare_line(got: str, want: str, rel: float = REL) -> str | None:
    """Text must match exactly; the numbers in it to ``rel`` relative."""
    g, w = _NUMBER.split(got), _NUMBER.split(want)
    if len(g) != len(w):
        return f"{got!r} != {want!r}"
    for k, (a, b) in enumerate(zip(g, w)):
        same = _close(float(a), float(b), rel) if k % 2 else a == b
        if not same:
            return f"{got!r} != {want!r}"
    return None


def check_csv(got: str, want: str) -> list[str]:
    g, w = got.splitlines(), want.splitlines()
    if g[:2] != w[:2] or len(g) != len(w):
        return [f"CSV tag, header or row count differs: {g[:2]} vs {w[:2]}, {len(g)} vs {len(w)} lines"]
    header = w[1].split(",")
    problems = []
    for row_g, row_w in zip(g[2:], w[2:]):
        cg, cw = row_g.split(","), row_w.split(",")
        if len(cg) != len(header):
            problems.append(f"row {row_g!r} has {len(cg)} fields, header has {len(header)}")
            continue
        values = dict(zip(header, cw))
        scale = float(values["mean"]) ** 2 if "mean" in values else 1.0
        for col, a, b in zip(header, cg, cw):
            if col == "wall_ms":
                continue
            if col == "mean":
                ok = _close(float(a), float(b))
            elif col in ("var", "err_mean", "err_var"):
                ok = abs(float(a) - float(b)) <= VAR_ABS * scale
            else:
                ok = a == b
            if not ok:
                problems.append(f"{col}: got {a}, want {b} (row w={values.get('w')})")
    return problems


def _key(line: str) -> str:
    return re.split(r"[: ]", line, maxsplit=1)[0]


def _derived_lines(sigma_hat: list[float], m_tilde: float, schedule: list[tuple[int, int]]) -> list[str]:
    from uqflow.analyticity import EllipseRegion, bound_constants, convergence_bound

    c = bound_constants(EllipseRegion(tuple(sigma_hat)), m_tilde)
    lines = [
        f"sigma: {c.sigma!r}",
        f"mu1: {c.mu1!r}  mu2: {c.mu2!r}  mu3: {c.mu3!r}",
        f"c1: {c.c1!r}",
    ]
    for w, eta in schedule:
        regime, value = convergence_bound(c, w, eta)
        lines.append(f"bound w={w} eta={eta} regime={regime} value={float(value)!r}")
    return lines


def check_certify(got: str, want: str) -> list[str]:
    g, w = got.splitlines(), want.splitlines()
    if [_key(x) for x in g] != [_key(x) for x in w]:
        return [f"certify report lines differ: {[_key(x) for x in g]} vs {[_key(x) for x in w]}"]
    problems = []
    sigma_same = True
    for a, b in zip(g, w):
        key = _key(b)
        if key == "sigma_hat":
            sa = [float(s) for s in a.split(":", 1)[1].split(",")]
            sb = [float(s) for s in b.split(":", 1)[1].split(",")]
            sigma_same = a == b
            if len(sa) != len(sb) or not all(_close(x, y, SIGMA_REL) for x, y in zip(sa, sb)):
                problems.append(f"sigma_hat {sa} outside {SIGMA_REL} of {sb}")
        elif key not in _DERIVED:
            bad = compare_line(a, b)
            if bad:
                problems.append(bad)
    derived_got = [a for a in g if _key(a) in _DERIVED]
    derived_want = [b for b in w if _key(b) in _DERIVED]
    if not sigma_same and not problems and derived_want:
        sigma_hat = [float(s) for s in next(a for a in g if _key(a) == "sigma_hat").split(":", 1)[1].split(",")]
        m_tilde = float(next(a for a in g if _key(a) == "m_tilde").split(":", 1)[1])
        schedule = [
            tuple(int(re.search(rf"{k}=(\d+)", b).group(1)) for k in ("w", "eta"))
            for b in derived_want
            if _key(b) == "bound"
        ]
        derived_want = _derived_lines(sigma_hat, m_tilde, schedule)
    for a, b in zip(derived_got, derived_want):
        bad = compare_line(a, b)
        if bad:
            problems.append(bad)
    return problems


def check_output(kind: str, got: str, want: str) -> list[str]:
    """Problems found in ``got`` against the reference ``want``; empty when it passes."""
    try:
        return (check_certify if kind == "certify" else check_csv)(got, want)
    except (ValueError, KeyError, IndexError, StopIteration, AttributeError) as exc:
        return [f"unreadable output: {exc!r}"]
