"""Exception hierarchy shared by all mhdes modules, and the input checks
that raise its ParameterError.

The command line maps these onto process exit codes: parameter and usage
problems exit 2, numerical solver failures exit 3, and failed verification
checks exit 4.  Every layer checks a caller's numbers and counts with the
checks below, and each part of a bundle handed between layers (Params,
SpectralOperator, BaseFlowSample, ClampedMaps, TrialField, EvpPencil)
with the one type check, instance, so the library and the command line
refuse alike.
"""

import math

import numpy as np


class MhdesError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(MhdesError):
    """An input lies outside the documented domain of a function."""


class ConsistencyError(MhdesError):
    """Bundled inputs disagree (e.g. a flow sample built for different
    parameters or on different nodes than the operator supplied with it)."""


class NumericalError(MhdesError):
    """A solver failed to produce a usable result, or was handed a pencil
    without the Hermitian positive-definite structure its solve needs."""


class VerificationError(MhdesError):
    """A verification check found a counterexample.

    ``report`` holds a JSON-serializable falsification record describing
    the offending trial field.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


def instance(value, cls, name):
    """value if it is a cls, else a ParameterError naming the part."""
    if not isinstance(value, cls):
        raise ParameterError(f"{name} must be of type {cls.__name__}, got "
                             f"{type(value).__name__}")
    return value


def real_scalar(value, name):
    """value as a float if it is one real number, not a bool."""
    if isinstance(value, bool) or not isinstance(
            value, (int, float, np.integer, np.floating)):
        raise ParameterError(f"{name} must be a real number, got {value!r}")
    return float(value)


def positive_scalar(value, name):
    """value as a float if it is one finite real number > 0."""
    value = real_scalar(value, name)
    if not (math.isfinite(value) and value > 0):
        raise ParameterError(f"{name} must be finite and > 0, got {value}")
    return value


def wavenumber(value, name):
    """value as a float if it is finite, > 0 and with a finite a^4."""
    value = positive_scalar(value, name)
    if not math.isfinite(value * value * value * value):
        raise ParameterError(f"{name} must have a finite fourth power: "
                             f"{value}")
    return value


def integer_in(value, name, low, high=math.inf):
    """value as an int if it is an integer, not a bool, in [low, high]."""
    # int() would truncate 20.9 to 20 and read True as 1
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    if not low <= value <= high:
        bounds = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ParameterError(f"{name} must be an integer {bounds}, got {value}")
    return int(value)


def numbers(values, name):
    """values as a nonempty 1-D float array, else a ParameterError."""
    try:
        # a float array would read a bool entry as 1.0; a numeric ndarray
        # holds none, so only other inputs are scanned
        numeric = isinstance(values, np.ndarray) and values.dtype.kind in "iuf"
        if not numeric and any(isinstance(v, (bool, np.bool_)) for v in
                               np.ravel(np.asarray(values, dtype=object))):
            raise TypeError(f"a bool is not a number: {values!r}")
        arr = np.atleast_1d(np.asarray(values, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must hold numbers: {exc}") from exc
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{name} must be a nonempty 1-D sequence, got "
                             f"shape {arr.shape}")
    return arr
