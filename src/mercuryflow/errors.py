"""Exception types shared across the package.

Each class carries the CLI exit code it maps to as ``exit_code``:
configuration problems exit 2, numeric/range failures exit 3, and any
other package error exits 4, the code of a failed verification.
"""

import math
import numbers

import numpy as np

NORMAL_MIN = float(np.finfo(float).tiny)   # the smallest normal double: 1/gain stays finite


class MercuryflowError(Exception):
    """Base class for all package-specific errors."""
    exit_code = 4


class InvalidInputError(MercuryflowError, ValueError):
    """A caller-supplied value violates a documented precondition."""
    exit_code = 2


class SchemaError(InvalidInputError):
    """A config file is malformed; ``field`` names the offending entry."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class TableBuildError(MercuryflowError):
    """A precomputed mmse table violates its invariants."""
    exit_code = 3

    def __init__(self, message: str, indices: list[int] | None = None):
        super().__init__(message)
        self.indices = indices or []


class TableRangeError(MercuryflowError):
    """A query fell outside the snr range modeled by a table.

    Raised instead of extrapolating: silently extending an exponential
    tail corrupts power allocations.  Rebuild with a larger ``snr_max``
    (or accept that the requested water level exceeds the modeled range).
    """
    exit_code = 3


class ConvergenceError(MercuryflowError):
    """An iterative solver ran out of iterations or left an energy residual."""
    exit_code = 3


def _integer(value, name: str, least: int | None = 1) -> int:
    """``value`` as an int, or InvalidInputError naming ``name`` unless it is an integer (a
    numpy one too, a bool never) and, for a ``least`` that is not None, at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        bound = "" if least is None else f" >= {least}"
        raise InvalidInputError(f"{name} must be an integer{bound}, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value!r}")
    return value


def _real(value, name: str, strict: bool = False) -> float:
    """``value`` as a float, or InvalidInputError naming ``name`` unless it is a real number (a
    numpy one too, a bool never) that is finite and > 0 (``strict``) or >= 0."""
    try:
        x = float(value) if isinstance(value, numbers.Real) and type(value) is not bool else -1.0
    except OverflowError:   # an int past the largest double is not finite
        x = -1.0
    if not 0.0 <= x < math.inf or strict and x == 0.0:
        raise _outside(name, strict, 0, value)
    return x


def _reals(value, name: str, strict: bool = False, least: float = 0) -> np.ndarray:
    """``value`` as a float array whose entries :func:`_real` reads as reals, each finite and
    > ``least`` (``strict``) or >= ``least``, else InvalidInputError naming the first outside."""
    try:   # a ragged list raises ValueError, an int past the largest double OverflowError
        x = np.asarray(value)
        x = x.astype(float, copy=False) if x.dtype.kind in "iuf" or x.dtype.kind == "O" and all(
            isinstance(v, numbers.Real) and type(v) is not bool for v in x.flat) else None
    except (ValueError, OverflowError):
        x = None
    ok = None if x is None else np.isfinite(x) & (x > least if strict else x >= least)
    if ok is None or not ok.all():
        raise _outside(name, strict, least, value if ok is None else x[~ok][0].item())
    return x


def _outside(name: str, strict: bool, least: float, value) -> InvalidInputError:
    return InvalidInputError(f"{name} must be finite and {'>' if strict else '>='} {least!r}, "
                             f"got {value!r}")
