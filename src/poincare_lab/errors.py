"""Shared exception and warning types, and the report-value encoder.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map errors onto structured report entries and exit codes
without string matching.  ``jsonable`` is the one encoder for report values:
every record, check and report passes through it, so they all turn numpy
values and non-finite floats into JSON the same way.
"""

from __future__ import annotations

import math

import numpy as np


def jsonable(value):
    """JSON-ready copy of a report value: non-finite floats become None,
    tuples and arrays become lists, numpy scalars become Python scalars."""
    if isinstance(value, dict):
        return {k: jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


class PoincareLabError(Exception):
    """Base class for all package errors."""


class SpecError(PoincareLabError, ValueError):
    """Base class for domain-description errors."""


class SpecSyntaxError(SpecError):
    """Malformed domain text.  Carries 1-based line and column positions."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class NonStrictRelationError(SpecSyntaxError):
    """A '<=', '>=' or '=' comparison, which the strict-inequality model rejects."""


class DegreeLimitError(SpecError):
    """An atom exceeds the supported total degree."""


class MissingBoundingBoxError(SpecError):
    """Domain text without a 'box' line."""


class ParamOutOfRangeError(PoincareLabError, ValueError):
    """A parameter vector outside the declared parameter box."""


class EmptyFiberError(PoincareLabError):
    """Raised by operations that need a non-empty rasterized fiber."""


class UnboundedDirectionError(PoincareLabError):
    """The fiber is unbounded along the requested direction (a chord ray
    leaves the bounding box while still inside the set)."""


class EmptySamplesError(PoincareLabError, ValueError):
    """A margin query against an empty boundary-sample set."""


class NotApplicableError(PoincareLabError):
    """A family-level check whose hypothesis fails (no regular direction
    with positive margin), so pass/fail is undefined rather than false."""


class SolverDivergedError(PoincareLabError):
    """Eigenvalue or descent solver failed to converge.

    The best iterate found so far is attached as ``estimate``.
    """

    def __init__(self, message: str, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class DegenerateGeometryError(PoincareLabError):
    """Root isolation failed (clustered roots) while decomposing a fiber.

    ``x_interval`` names the abscissa range where isolation broke down.
    """

    def __init__(self, message: str, x_interval=None):
        super().__init__(message)
        self.x_interval = x_interval


class StratumTooThinWarning(UserWarning):
    """Boundary sampling produced far fewer valid points than requested."""


class StagnationWarning(UserWarning):
    """Multi-start descent runs disagree beyond the accepted spread."""
