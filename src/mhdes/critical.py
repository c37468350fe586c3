"""Critical threshold search over the spanwise wavenumber.

The monotone-stability bound for a parameter set is Re_E = min over a of
Re_a(a) = 1/m(a).  The minimizer is located by a logarithmically spaced
coarse scan followed by golden-section refinement of the bracketing
interval, keeping the best value ever seen so refinement can never report
a worse point than the scan.  A minimum that lands on the window edge is
returned with converged=False since the true minimizer may lie outside.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .baseflow import Params, profile_for
from .errors import NumericalError, ParameterError
from .orr_evp import assemble_pencil, solve_max_m
from .spectral import build_operator, clamped_restrict

log = logging.getLogger(__name__)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
A_TOL = 1e-4


@dataclass(frozen=True)
class NeutralPoint:
    """Location and value of the stability threshold for one parameter set."""

    flow: str
    Ha: float
    Pm: float
    a_crit: float
    Re_E: float
    N_used: int
    converged: bool


def minimize_over_a(params, a_min=0.2, a_max=4.0, N=60, coarse_points=40):
    """Minimize Re_a over wavenumbers in [a_min, a_max].

    Runs a coarse scan on coarse_points log-spaced wavenumbers, then
    golden-section refinement to an interval of width A_TOL around an
    interior scan minimum.  Curve points that fail to solve are skipped
    and counted in one warning per minimum; if every coarse point fails
    the error propagates.
    """
    if not (np.isfinite(a_min) and np.isfinite(a_max)) or not 0 < a_min < a_max:
        raise ParameterError(
            f"need 0 < a_min < a_max, got [{a_min}, {a_max}]")
    if coarse_points < 3:
        raise ParameterError("coarse_points must be at least 3")
    op = build_operator(N)
    sample = profile_for(params, op.nodes)
    maps = clamped_restrict(op)

    failures = []

    def re_at(a):
        try:
            return solve_max_m(assemble_pencil(params, a, op, sample, maps)).Re_a
        except NumericalError as exc:
            failures.append((a, exc))
            return math.inf

    def point(a_crit, Re_E, converged):
        if failures:
            a, exc = failures[0]
            log.warning("%s Ha=%g Pm=%g: %d threshold solves failed; "
                        "first at a=%g: %s", params.flow, params.Ha, params.Pm,
                        len(failures), a, exc)
        return NeutralPoint(flow=params.flow, Ha=params.Ha, Pm=params.Pm,
                            a_crit=a_crit, Re_E=Re_E, N_used=op.N,
                            converged=converged)

    grid = np.geomspace(a_min, a_max, coarse_points)
    vals = np.array([re_at(a) for a in grid])
    if not np.any(np.isfinite(vals)):
        raise NumericalError(
            f"all {coarse_points} coarse scan points failed for {params}; "
            f"first error: {failures[0][1]}")
    i = int(np.argmin(vals))
    best_a, best_re = float(grid[i]), float(vals[i])
    if i == 0 or i == coarse_points - 1:
        return point(best_a, best_re, converged=False)
    lo, hi = float(grid[i - 1]), float(grid[i + 1])
    x1 = hi - GOLDEN * (hi - lo)
    x2 = lo + GOLDEN * (hi - lo)
    f1 = re_at(x1)
    f2 = re_at(x2)
    for x, f in ((x1, f1), (x2, f2)):
        if f < best_re:
            best_a, best_re = x, f
    while hi - lo > A_TOL:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - GOLDEN * (hi - lo)
            f1 = re_at(x1)
            if f1 < best_re:
                best_a, best_re = x1, f1
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + GOLDEN * (hi - lo)
            f2 = re_at(x2)
            if f2 < best_re:
                best_a, best_re = x2, f2
    return point(best_a, best_re, converged=True)


def neutral_sweep(flow, Ha_list, Pm, a_window=(0.2, 4.0), N=60):
    """Threshold points for each Hartmann number in Ha_list, input order.

    A parameter point whose search fails numerically is logged once and
    yields a NaN point flagged converged=False so the remaining sweep still
    completes.
    """
    Ha_arr = np.atleast_1d(np.asarray(Ha_list, dtype=float))
    if Ha_arr.size == 0:
        raise ParameterError("Ha_list must be nonempty")
    if not np.all(np.isfinite(Ha_arr)) or np.any(Ha_arr <= 0):
        raise ParameterError("Ha_list entries must be finite and > 0")
    a_min, a_max = a_window
    out = []
    for Ha in Ha_arr:
        params = Params(flow=flow, Ha=float(Ha), Pm=Pm)
        try:
            out.append(minimize_over_a(params, a_min=a_min, a_max=a_max, N=N))
        except NumericalError as exc:
            log.warning("%s Ha=%g Pm=%g: threshold search failed: %s",
                        flow, Ha, Pm, exc)
            out.append(NeutralPoint(flow=flow, Ha=float(Ha), Pm=float(Pm),
                                    a_crit=float("nan"), Re_E=float("nan"),
                                    N_used=N, converged=False))
    return out
