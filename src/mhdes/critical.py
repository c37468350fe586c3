"""Critical threshold search over the spanwise wavenumber.

The monotone-stability bound for a parameter set is Re_E = min over a of
Re_a(a) = 1/m(a).  K is linear in a and the energy form is
S = Q2 + 2 a^2 Q1 + a^4 Q0, so the eigenvector solved at a gives in closed
form the wavenumber T(a) that minimizes Re_a with that eigenvector held
fixed: T(a) = a exactly where dm/da = 0, and Re_a(T(a)) <= Re_a(a).  The
search takes secant steps on log T(a) - log a from the window's geometric
midpoint, with T itself as the fallback step, at one solve per step.  The
best value ever seen is kept.  A minimum that lands on the window edge is
returned with converged=False since the true minimizer may lie outside.
Consecutive searches at one N, such as the points of a Hartmann-number
sweep, share the one operator and set of clamped maps of spectral.setup.
"""

import logging
import math
from dataclasses import dataclass

from .baseflow import Params, profile_for
from .errors import NumericalError, ParameterError, numbers, wavenumber
from .orr_evp import pencil_forms, solve_max_m
from .spectral import setup

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


def geometric_mean(lo, hi):
    """sqrt(lo * hi) of two positive floats, with each first scaled by the
    same power of two so that the product neither underflows nor
    overflows.  The scaling is exact: where lo * hi is a normal float,
    the result is bit for bit math.sqrt(lo * hi)."""
    j = -(math.frexp(lo)[1] + math.frexp(hi)[1]) // 2
    return math.ldexp(math.sqrt(math.ldexp(lo, j) * math.ldexp(hi, j)), -j)


def minimize_over_a(params, a_min=0.2, a_max=4.0, N=60):
    """Minimize Re_a over wavenumbers in [a_min, a_max].

    From the window's geometric midpoint, each step goes to the secant zero
    of h(a) = log T(a) - log a in log a, or to T(a) (see
    PencilForms.frozen_argmin) where there is no earlier point or the secant
    point leaves the window, clamped to the window; about 6 solves per
    minimum at N = 60.  T never ascends, so no bracket is needed; if Re_a
    had several local minima in the window, the search would settle on one
    of them, not necessarily the lowest.  The search stops once a step has
    moved a by at most A_TOL and returns the best value ever solved.  A
    minimum on the window edge, where T points out of the window, or a
    search cut short by a failed solve, is returned with converged=False.
    The search stops at its first failed solve, logging one warning that
    names its a; if the first solve fails, a NumericalError is raised.
    """
    a_min = wavenumber(a_min, "a_min")
    a_max = wavenumber(a_max, "a_max")
    if not a_min < a_max:
        raise ParameterError(f"need a_min < a_max, got [{a_min}, {a_max}]")
    op, maps = setup(N)
    forms = pencil_forms(params, op, profile_for(params, op.nodes), maps)

    best_a, best_re = math.nan, math.inf
    # secant steps on h(a) = log T(a) - log a in log a, or T itself where
    # there is no secant or its point leaves the window; clamped in a, so
    # a step onto an edge lands on it exactly
    a, last = geometric_mean(a_min, a_max), None
    while True:
        try:
            sol = solve_max_m(forms.at(a))
        except NumericalError as exc:
            if last is None:
                raise NumericalError(f"first threshold solve failed for "
                                     f"{params}: {exc}") from exc
            log.warning("%s Ha=%g Pm=%g: threshold solve failed at a=%g: %s",
                        params.flow, params.Ha, params.Pm, a, exc)
            converged = False
            break
        if sol.Re_a < best_re:
            best_a, best_re = a, sol.Re_a
        x = forms.frozen_argmin(sol.q)
        h = math.log(x / a)
        if last is not None and h != last[1]:
            secant = a * math.exp(h * math.log(last[0] / a) / (h - last[1]))
            if a_min <= secant <= a_max:
                x = secant
        x = min(max(x, a_min), a_max)
        # stop where the clamped step stays put, which it does only on an
        # edge that T points out of (unconverged) or where h is exactly
        # zero, or once a step has moved a by at most A_TOL
        if x == a or last is not None and abs(a - last[0]) <= A_TOL:
            converged = x != a or a_min < a < a_max
            break
        last, a = (a, h), x
    return NeutralPoint(flow=params.flow, Ha=params.Ha, Pm=params.Pm,
                        a_crit=best_a, Re_E=best_re, N_used=op.N,
                        converged=converged)


def neutral_sweep(flow, Ha_list, Pm, a_window=(0.2, 4.0), N=60):
    """Threshold points for each Hartmann number in Ha_list, input order.

    Each point is a minimize_over_a search over a_window.  The searches
    are not seeded from the previous point, so a row does not depend on the
    other Hartmann numbers of the sweep.  Ha_list must be a nonempty 1-D
    sequence of numbers, and every parameter point is validated (as a
    Params) before the first search; the first search checks the window
    before anything is built, and the searches share one operator and one
    set of clamped maps.

    A parameter point whose search fails numerically is logged once and
    yields a NaN point flagged converged=False so the remaining sweep still
    completes.
    """
    points = [Params(flow=flow, Ha=Ha, Pm=Pm)
              for Ha in numbers(Ha_list, "Ha_list")]
    try:
        a_min, a_max = a_window
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"a_window must be a pair (a_min, a_max), got "
                             f"{a_window!r}") from exc
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
