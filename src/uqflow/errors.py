"""Failure types shared across the package.

Every anticipated domain failure raises a subclass of UqflowError so the CLI
can map "the computation said no" (exit 1) separately from usage mistakes
(exit 2, argparse) and crashes.
"""

from __future__ import annotations


class UqflowError(Exception):
    """Base class for structured domain failures."""


class NonconvergenceError(UqflowError):
    """An iteration exhausted its budget without meeting its tolerance."""


class SingularJacobianError(UqflowError):
    """LU hit a pivot below threshold; the linearized system is unusable."""

    def __init__(self, iteration: int, pivot: float, scale: float):
        self.iteration = iteration
        self.pivot = pivot
        self.scale = scale
        super().__init__(
            f"singular Jacobian at iteration {iteration}: "
            f"|pivot| {pivot:.3e} below 1e-14 * scale ({scale:.3e})"
        )


class NonphysicalStateError(UqflowError):
    """An iterate left the physical domain (e.g. voltage magnitude <= 0)."""


class CaseFormatError(UqflowError):
    """Case text failed to parse; carries the 1-based offending line."""

    def __init__(self, line: int, message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}")


class CaseValidationError(UqflowError):
    """Parsed case tables are structurally inconsistent."""


class InfeasibleRegionError(UqflowError):
    """Region search preconditions rule out any certifiable polyellipse."""


class BoundUnavailableError(UqflowError):
    """A bound cannot be quoted: its constants degenerate (C1 too close to 1 for
    the 1/|1-C1| factor) or overflow, or its inputs are not finite."""


class CacheMismatchError(UqflowError):
    """A cached surrogate does not match the plan it claims to cache."""
