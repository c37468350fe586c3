"""Laminar base states of conducting channel flow between z = -1 and z = 1.

Two profiles are provided: the wall-driven state whose velocity reduces to
U = z without a magnetic field, and the pressure-driven state that reduces
to U = 1 - z^2.  Both are written in exponentially rescaled form so that
evaluation stays finite and accurate at large Hartmann number, and grouped
so the defining identities (U'' = Ha^2 U + const, B'' = -U') and the wall
values hold to machine precision.  Below HA_FLOOR, where the exponential
forms cancel, the same closed forms are summed as Taylor series in Ha^2
divided through by their leading power, which hold every field to
rounding for all Ha > 0.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (ConsistencyError, ParameterError, instance, numbers,
                     positive_scalar)
from .spectral import SpectralOperator

FLOWS = ("couette", "hartmann")
HA_FLOOR = 1.0
HA_CEIL = 1e8
# Taylor coefficients in x^2 of (cosh x - 1)/x^2 and (sinh(x)/x - 1)/x^2,
# highest power first; the first omitted term is below 1e-18 for
# x <= HA_FLOOR
_SERIES_COEF = [(1.0 / math.factorial(2 * j + 2),
                 1.0 / math.factorial(2 * j + 3)) for j in reversed(range(9))]


def _check_ha(Ha):
    """Ha as a float if it is finite, > 0 and at most HA_CEIL."""
    Ha = positive_scalar(Ha, "Ha")
    if Ha > HA_CEIL:
        raise ParameterError(
            f"Ha = {Ha:g} exceeds the supported ceiling {HA_CEIL:g}; "
            "rescale the problem instead")
    return Ha


@dataclass(frozen=True)
class Params:
    """Physical parameter set: flow kind, Hartmann number, magnetic Prandtl
    number, and the derived interaction coefficient A = Ha^2 * Pm."""

    flow: str
    Ha: float
    Pm: float
    A: float = field(init=False)

    def __post_init__(self):
        if self.flow not in FLOWS:
            raise ParameterError(f"flow must be one of {FLOWS}, got {self.flow!r}")
        object.__setattr__(self, "Ha", _check_ha(self.Ha))
        object.__setattr__(self, "Pm", positive_scalar(self.Pm, "Pm"))
        object.__setattr__(self, "A", self.Ha * self.Ha * self.Pm)


@dataclass(frozen=True, eq=False)
class BaseFlowSample:
    """Nodal samples of a base state and its derivatives.

    U is the streamwise velocity, Bbar the induced streamwise magnetic
    component; primes denote d/dz.  flow and Ha record what was sampled so
    downstream consumers can detect mismatched bundles.
    """

    flow: str
    Ha: float
    z: np.ndarray
    U: np.ndarray
    Uprime: np.ndarray
    Usecond: np.ndarray
    Bbar: np.ndarray
    Bprime: np.ndarray
    Bsecond: np.ndarray


def _check_profile_args(Ha, z):
    Ha, z = _check_ha(Ha), numbers(z, "z")
    # NaN fails the comparison, so this also refuses non-finite nodes
    if not np.all(np.abs(z) <= 1.0):
        raise ParameterError("z nodes must be finite and lie in [-1, 1]")
    return Ha, z


def _series(t):
    """(cosh x - 1)/x^2 and (sinh(x)/x - 1)/x^2 at t = x^2 by Horner's
    rule, to rounding for t below HA_FLOOR^2."""
    c = s = 0.0
    for cj, sj in _SERIES_COEF:
        c, s = c * t + cj, s * t + sj
    return c, s


def couette_profile(Ha, z):
    """Wall-driven base state at Hartmann number Ha on nodes z.

    U is odd with U(+-1) = +-1 exactly; Bbar is even and vanishes at the
    walls exactly.  U'' equals Ha^2 * U as the same floating product, and
    B'' equals -U' as the same array, so the defining residuals are zero
    by construction.
    """
    Ha, z = _check_profile_args(Ha, z)
    if Ha < HA_FLOOR:
        # U = sinh(Ha z)/sinh(Ha), U' = Ha cosh(Ha z)/sinh(Ha) and
        # Bbar = (cosh Ha - cosh(Ha z))/(Ha sinh Ha) as series in Ha^2
        h = Ha * Ha
        t = h * z * z
        c, s = _series(t)
        ch, sh = _series(h)
        Sh = 1.0 + h * sh
        U = z * (1.0 + t * s) / Sh
        Uprime = (1.0 + t * c) / Sh
        Bbar = (ch - z * z * c) / Sh
    else:
        y = np.abs(z)
        s = np.sign(z)
        den = -np.expm1(-2.0 * Ha)           # 1 - exp(-2 Ha), no cancellation
        E1 = np.exp(Ha * (y - 1.0))
        U = s * E1 * (-np.expm1(-2.0 * Ha * y)) / den
        Uprime = Ha * E1 * (1.0 + np.exp(-2.0 * Ha * y)) / den
        # cosh Ha - cosh(Ha z) = e^Ha (1 - e^-Ha(1-y)) (1 - e^-Ha(1+y)) / 2
        Bbar = (np.expm1(-Ha * (1.0 - y)) / Ha) * (np.expm1(-Ha * (1.0 + y))
                                                   / den)
    Usecond = Ha * Ha * U
    Bprime = -U
    Bsecond = -Uprime
    return BaseFlowSample(flow="couette", Ha=Ha, z=z, U=U, Uprime=Uprime,
                          Usecond=Usecond, Bbar=Bbar, Bprime=Bprime,
                          Bsecond=Bsecond)


def hartmann_profile(Ha, z):
    """Pressure-driven base state at Hartmann number Ha on nodes z.

    U is even with U(+-1) = 0 exactly and U(0) = 1; Bbar is odd and
    vanishes at the walls exactly.  U'' - Ha^2 * U is constant across
    nodes and B'' equals -U' as the same array.
    """
    Ha, z = _check_profile_args(Ha, z)
    if Ha < HA_FLOOR:
        # U = (cosh Ha - cosh(Ha z))/(cosh Ha - 1), U'' - Ha^2 U = -K and
        # Bbar = (sinh(Ha z) - z sinh Ha)/(Ha (cosh Ha - 1)) as series in
        # Ha^2, each divided through by Ha^2 so nothing cancels
        h = Ha * Ha
        t = h * z * z
        c, s = _series(t)
        ch, sh = _series(h)
        U = (ch - z * z * c) / ch
        Uprime = -z * (1.0 + t * s) / ch
        Usecond = h * U - (1.0 + h * ch) / ch
        Bbar = z * (z * z * s - sh) / ch
        Bprime = (z * z * c - sh) / ch
    else:
        y = np.abs(z)
        s = np.sign(z)
        den = np.expm1(-Ha) ** 2             # (1 - exp(-Ha))^2
        E1 = np.exp(Ha * (y - 1.0))
        E2 = np.exp(-Ha * (y + 1.0))
        Em = np.exp(-2.0 * Ha)
        U = np.expm1(-Ha * (1.0 - y)) * np.expm1(-Ha * (1.0 + y)) / den
        Uprime = -s * Ha * (E1 - E2) / den
        Usecond = -Ha * Ha * (E1 + E2) / den
        Bbar = s * ((E1 - y) + (y * Em - E2)) / (Ha * den)
        Bprime = (Ha * (E1 + E2) - (1.0 - Em)) / (Ha * den)
    Bsecond = -Uprime
    return BaseFlowSample(flow="hartmann", Ha=Ha, z=z, U=U, Uprime=Uprime,
                          Usecond=Usecond, Bbar=Bbar, Bprime=Bprime,
                          Bsecond=Bsecond)


def profile_for(params, z):
    """Sample the base state selected by params on nodes z."""
    if instance(params, Params, "params").flow == "couette":
        return couette_profile(params.Ha, z)
    return hartmann_profile(params.Ha, z)


def check_sample(sample, params, op):
    """Raise ConsistencyError unless sample was built for params on the
    nodes of op, and ParameterError naming any of the three of another type.

    This is the one bundle check shared by the pencil assembly and the
    verification layer.
    """
    instance(op, SpectralOperator, "op")
    instance(sample, BaseFlowSample, "sample")
    instance(params, Params, "params")
    if sample.flow != params.flow or sample.Ha != params.Ha:
        raise ConsistencyError(
            f"sample is for flow={sample.flow!r}, Ha={sample.Ha:g}; params "
            f"specify flow={params.flow!r}, Ha={params.Ha:g}")
    # array_equal also compares the shapes
    if not np.array_equal(sample.z, op.nodes):
        raise ConsistencyError("sample nodes differ from operator nodes")


def baseflow_residual(sample, params):
    """Residuals of the base-state balance equations for a sample.

    The residuals are evaluated against params, not against what the
    sample was built from, so checking a sample with mismatched
    parameters produces a large r1 rather than an exception; this is the
    intended detector for mixed-up bundles.

    Returns (r1, r2) where r1 measures U'' - Ha^2 * U (its max deviation
    from the nodal mean for the pressure-driven state, where the exact
    value is a nonzero constant; its plain max magnitude for the
    wall-driven state) and r2 measures B'' + U'.  Both are normalized by
    the natural scale of the identity, max(1, Ha^2) and max(1, Ha), so
    the bound 1e-12 is meaningful at large Hartmann number where the raw
    terms reach Ha^2 in size.
    """
    instance(sample, BaseFlowSample, "sample")
    Ha = instance(params, Params, "params").Ha
    res1 = sample.Usecond - Ha * Ha * sample.U
    if params.flow == "hartmann":
        dev1 = np.max(np.abs(res1 - np.mean(res1)))
    else:
        dev1 = np.max(np.abs(res1))
    res2 = sample.Bsecond + sample.Uprime
    r1 = float(dev1) / max(1.0, Ha * Ha)
    r2 = float(np.max(np.abs(res2))) / max(1.0, Ha)
    return r1, r2
