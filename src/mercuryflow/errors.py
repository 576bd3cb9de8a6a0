"""Exception types shared across the package.

Each class carries the CLI exit code it maps to as ``exit_code``:
configuration problems exit 2, numeric/range failures exit 3, and any
other package error exits 4, the code of a failed verification.
"""

import math
import reprlib
from numbers import Integral, Real

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
    if isinstance(value, bool) or not isinstance(value, Integral):
        bound = "" if least is None else f" >= {least}"
        raise InvalidInputError(f"{name} must be an integer{bound}, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise InvalidInputError(f"{name} must be >= {least}, got {value!r}")
    return value


def _float(value) -> float:
    """The one definition of a real input's value: a number (a numpy one too, a bool never) as a
    float; anything else, and an int past the largest double, NaN, which no bound admits."""
    try:
        return float(value) if isinstance(value, Real) and type(value) is not bool else math.nan
    except OverflowError:
        return math.nan


def _real(value, name: str, strict: bool = False) -> float:
    """``value`` as a float, or InvalidInputError naming ``name`` unless it is one real input
    inside the bound 0: :func:`_reals` of a value that is not a sequence."""
    if isinstance(value, (list, tuple, np.ndarray)):
        raise _outside(name, strict, 0, value)
    return float(_reals(value, name, strict))


def _reals(value, name: str, strict: bool = False, least: float = 0) -> np.ndarray:
    """``value`` as a float array of real inputs (:func:`_float`), each finite and > ``least``
    or, unless ``strict``, equal to it; else InvalidInputError naming ``name`` and quoting the
    first entry outside.  A list, a tuple or an object array is read entry by entry, so no bool
    converts; a numpy int or float array, a Python int or float at once."""
    try:   # numpy holds a ragged list as objects, or raises ValueError
        x = np.array(value, dtype=object) if isinstance(value, (list, tuple)) else np.asarray(value)
    except ValueError:
        raise _outside(name, strict, least, value) from None
    if x.dtype.kind in "iuf":
        entries, x = x, x.astype(float, copy=False)
    elif x.dtype.kind == "O":
        entries, x = x, np.array([_float(v) for v in x.flat]).reshape(x.shape)
    else:   # a bool or a string array
        raise _outside(name, strict, least, value)
    ok = np.isfinite(x) & (x > least if strict else x >= least)
    if not ok.all():   # a sequence as an entry: the value is ragged, so it is quoted itself
        bad = entries[~ok].tolist()[0]
        ragged = isinstance(bad, (list, tuple, np.ndarray))
        raise _outside(name, strict, least, value if ragged else bad)
    return x


def _outside(name: str, strict: bool, least: float, value) -> InvalidInputError:
    """The rule's error: a number is quoted whole, as Python's, anything else bounded."""
    value = value.item() if isinstance(value, np.generic) else value
    quoted = repr(value) if isinstance(value, Real) else reprlib.repr(value)
    return InvalidInputError(f"{name} must be finite and {'>' if strict else '>='} {least!r}, "
                             f"got {quoted}")
