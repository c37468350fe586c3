"""Critical threshold search over the spanwise wavenumber.

The monotone-stability bound for a parameter set is Re_E = min over a of
Re_a(a) = 1/m(a).  Every solve returns the slope dm/da alongside m
(Hellmann-Feynman), so the maximum of m is located from the slope alone.
A walk from the window's geometric midpoint, by factors of two in the
direction the slope points, brackets the slope's sign change, and a
safeguarded secant search refines its zero at one solve per step.  The
best value ever seen is kept, so refinement never reports a worse point
than the walk.  A minimum that lands on the window edge is returned with
converged=False since the true minimizer may lie outside.  The operator and
clamped maps depend on N alone, so consecutive searches at one N, such as
the points of a Hartmann-number sweep, build them once.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np

from .baseflow import Params, profile_for
from .errors import NumericalError, ParameterError
from .orr_evp import _numbers, _setup, pencil_forms, solve_max_m

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


def minimize_over_a(params, a_min=0.2, a_max=4.0, N=60):
    """Minimize Re_a over wavenumbers in [a_min, a_max].

    The maximum of m lies where the slope dm/da changes sign.  A walk
    brackets it: from the window's geometric midpoint, steps by a factor of
    2 in the direction the slope points, clamped to the window, until the
    slope changes sign (about 10 solves per minimum at N = 60); this relies
    on Re_a having a single local minimum in the window.  The bracket is
    refined by a safeguarded secant search on the slope (Illinois steps,
    with bisection when the bracket stops halving) until a plain secant
    step moves less than A_TOL or the bracket is narrower than A_TOL after
    a step that cannot overshoot.  The best value ever solved is returned.
    A minimum on the window edge, where the slope points out of the
    window, or a search cut short by a failed solve or a missing bracket,
    is returned with converged=False.  Failed solves are counted in one
    warning per minimum; if the walk's first solve fails, a NumericalError
    naming its error is raised.
    """
    if not (np.isfinite(a_min) and np.isfinite(a_max)) or not 0 < a_min < a_max:
        raise ParameterError(
            f"need 0 < a_min < a_max, got [{a_min}, {a_max}]")
    op, maps = _setup(N)
    forms = pencil_forms(params, op, profile_for(params, op.nodes), maps)

    failures = []
    best_a, best_re = math.nan, math.inf

    def solve_at(a):
        nonlocal best_a, best_re
        try:
            sol = solve_max_m(forms.at(a))
        except NumericalError as exc:
            failures.append((a, exc))
            return math.inf, math.nan
        if sol.Re_a < best_re:
            best_a, best_re = a, sol.Re_a
        return sol.Re_a, sol.dm_da

    def point(converged):
        if failures:
            a, exc = failures[0]
            log.warning("%s Ha=%g Pm=%g: %d threshold solves failed; "
                        "first at a=%g: %s", params.flow, params.Ha, params.Pm,
                        len(failures), a, exc)
        return NeutralPoint(flow=params.flow, Ha=params.Ha, Pm=params.Pm,
                            a_crit=best_a, Re_E=best_re, N_used=op.N,
                            converged=converged)

    # walk by factors of two up the slope, clamped to the window; the last
    # two points bracket the slope's zero unless the walk ended at the
    # window edge or on a failed solve
    a = math.sqrt(a_min * a_max)
    cur = (a, solve_at(a)[1])
    if failures:
        raise NumericalError(
            f"first threshold solve failed for {params}: {failures[0][1]}")
    prev, up = cur, cur[1] > 0
    edge = a_max if up else a_min
    while (cur[1] > 0 if up else cur[1] < 0) and a != edge:
        a = min(2.0 * a, a_max) if up else max(0.5 * a, a_min)
        prev, cur = cur, (a, solve_at(a)[1])
    # m peaks where its slope changes sign from + to -
    (lo, g_lo), (hi, g_hi) = sorted((prev, cur))
    if not g_lo > 0 > g_hi:
        return point(converged=False)
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
        _, g = solve_at(x)
        if not np.isfinite(g):
            return point(converged=False)
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
    return point(converged=True)


def neutral_sweep(flow, Ha_list, Pm, a_window=(0.2, 4.0), N=60):
    """Threshold points for each Hartmann number in Ha_list, input order.

    Each point is a minimize_over_a search over a_window.  The walks are
    not seeded from the previous point, so a row does not depend on the
    other Hartmann numbers of the sweep.  Ha_list must be a nonempty 1-D
    sequence of numbers, and every parameter point is validated (as a
    Params) before the first search; the first search checks the window
    before anything is built, and the searches share one operator and one
    set of clamped maps.

    A parameter point whose search fails numerically is logged once and
    yields a NaN point flagged converged=False so the remaining sweep still
    completes.
    """
    points = [Params(flow=flow, Ha=float(Ha), Pm=Pm)
              for Ha in _numbers(Ha_list, "Ha_list")]
    a_min, a_max = a_window
    out = []
    for params in points:
        try:
            out.append(minimize_over_a(params, a_min=a_min, a_max=a_max, N=N))
        except NumericalError as exc:
            log.warning("%s Ha=%g Pm=%g: threshold search failed: %s",
                        flow, params.Ha, params.Pm, exc)
            out.append(NeutralPoint(flow=flow, Ha=params.Ha, Pm=params.Pm,
                                    a_crit=float("nan"), Re_E=float("nan"),
                                    N_used=N, converged=False))
    return out
