"""Critical threshold search over the spanwise wavenumber.

The monotone-stability bound for a parameter set is Re_E = min over a of
Re_a(a) = 1/m(a).  The minimizer is located by a logarithmically spaced
coarse scan followed by a safeguarded secant search for the zero of the
slope dm/da, which every solve returns alongside m (Hellmann-Feynman), so
a refinement step costs one solve.  The best value ever seen is kept, so
refinement can never report a worse point than the scan.  A minimum that
lands on the window edge is returned with converged=False since the true
minimizer may lie outside.
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

    Runs a coarse scan on coarse_points log-spaced wavenumbers.  Around an
    interior scan minimum, the sign of the slope dm/da at the scan points
    brackets the maximum of m, and a safeguarded secant search on that
    slope (Illinois steps, with bisection when the bracket stops halving)
    refines it until a plain secant step moves less than A_TOL or the
    bracket is narrower than A_TOL after a step that cannot overshoot.  The
    best value ever solved is returned, so refinement never reports a worse
    point than the scan.  A minimum on the window edge, or a refinement cut
    short by a missing bracket or a failed solve, is returned with
    converged=False.  Curve points that fail to solve are skipped and
    counted in one warning per minimum; if every coarse point fails the
    error propagates.
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

    def solve_at(a):
        try:
            sol = solve_max_m(assemble_pencil(params, a, op, sample, maps))
        except NumericalError as exc:
            failures.append((a, exc))
            return math.inf, math.nan
        return sol.Re_a, sol.dm_da

    def point(a_crit, Re_E, converged):
        if failures:
            a, exc = failures[0]
            log.warning("%s Ha=%g Pm=%g: %d threshold solves failed; "
                        "first at a=%g: %s", params.flow, params.Ha, params.Pm,
                        len(failures), a, exc)
        return NeutralPoint(flow=params.flow, Ha=params.Ha, Pm=params.Pm,
                            a_crit=a_crit, Re_E=Re_E, N_used=op.N,
                            converged=converged)

    grid = np.geomspace(a_min, a_max, coarse_points).tolist()
    vals, slopes = zip(*(solve_at(a) for a in grid))
    if not np.any(np.isfinite(vals)):
        raise NumericalError(
            f"all {coarse_points} coarse scan points failed for {params}; "
            f"first error: {failures[0][1]}")
    i = int(np.argmin(vals))
    best_a, best_re = grid[i], vals[i]
    if i == 0 or i == coarse_points - 1:
        return point(best_a, best_re, converged=False)
    # m peaks where its slope changes sign, between the scan minimum and
    # the neighbour its slope points to
    j = i + 1 if slopes[i] > 0 else i - 1
    (lo, g_lo), (hi, g_hi) = sorted([(grid[i], slopes[i]),
                                     (grid[j], slopes[j])])
    if not g_lo > 0 > g_hi:
        return point(best_a, best_re, converged=False)
    x = best_a
    widths = [hi - lo]
    kept, halved, step = 0, False, None
    # an Illinois step (one taken with a halved end slope) overshoots the
    # peak on purpose, so the bracket it leaves is no place to stop
    while hi - lo > A_TOL or step == "illinois":
        x_prev = x
        x = hi - g_hi * (hi - lo) / (g_hi - g_lo)
        step = "illinois" if halved else "secant"
        # bisect if the secant point leaves the bracket or the bracket has
        # not halved over the last three steps
        if not lo < x < hi or (len(widths) > 3
                               and hi - lo > 0.5 * widths[-4]):
            x, step = 0.5 * (lo + hi), "bisect"
        f, g = solve_at(x)
        if f < best_re:
            best_a, best_re = x, f
        if not np.isfinite(g):
            return point(best_a, best_re, converged=False)
        # Illinois: halve the slope held at an end that survives twice
        if g > 0:
            halved = kept == 1
            if halved:
                g_hi *= 0.5
            lo, g_lo, kept = x, g, 1
        elif g < 0:
            halved = kept == -1
            if halved:
                g_lo *= 0.5
            hi, g_hi, kept = x, g, -1
        else:
            break
        widths.append(hi - lo)
        # a plain secant step converges superlinearly, so once it moves
        # less than A_TOL its point is far closer than that to the peak
        if step == "secant" and abs(x - x_prev) <= A_TOL:
            break
    return point(best_a, best_re, converged=True)


def neutral_sweep(flow, Ha_list, Pm, a_window=(0.2, 4.0), N=60,
                  coarse_points=40):
    """Threshold points for each Hartmann number in Ha_list, input order.

    Each point is a minimize_over_a search with coarse_points scan points.

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
            out.append(minimize_over_a(params, a_min=a_min, a_max=a_max, N=N,
                                       coarse_points=coarse_points))
        except NumericalError as exc:
            log.warning("%s Ha=%g Pm=%g: threshold search failed: %s",
                        flow, Ha, Pm, exc)
            out.append(NeutralPoint(flow=flow, Ha=float(Ha), Pm=float(Pm),
                                    a_crit=float("nan"), Re_E=float("nan"),
                                    N_used=N, converged=False))
    return out
