"""Threshold minimization over the wavenumber window and parameter sweeps."""

import logging

import numpy as np
import pytest

from mhdes import (clamped_restrict, critical, minimize_over_a, neutral_sweep,
                   orr_evp, reynolds_curve, solve_max_m, spectral)
from mhdes.critical import A_TOL
from mhdes.errors import NumericalError, ParameterError

# oracle values from a finite-difference Richardson scan minimized on a
# dense wavenumber grid (vanishing-coupling limit)
HYDRO_WALL = (1.8934, 44.3035)
HYDRO_PRESSURE = (2.0986, 87.5937)

# (a_crit, Re_E) of couette, Ha = 1, Pm = 0.1, N = 50 on [0.2, 30], frozen
# from the golden-section search that the slope-driven refinement replaced
GOLDEN_COUETTE_HA1 = (1.8962703547092798, 49.661215981990146)

SWEEP_HA = (0.1, 1.0, 10.0, 50.0)

# Re_E of the sweep points at Pm = 0.1, N = 60 on [0.2, 30], frozen from
# the 40-point coarse scan that the slope-driven search replaced (they
# agree to 3e-12)
SWEEP_RE_E = {
    "couette": (44.356716811251879, 49.661215987210063, 411.74097478590136,
                2076.4718236110789),
    "hartmann": (87.632625042653345, 91.502169188079051, 411.96937099957006,
                 2076.4718279184845),
}


@pytest.fixture(scope="module")
def sweep_cache(wb):
    out = {}
    for flow in ("couette", "hartmann"):
        out[flow] = neutral_sweep(flow, [0.1, 1.0, 10.0, 50.0], 0.1,
                                  a_window=(0.2, 30.0), N=50)
    return out


def test_wall_driven_vanishing_coupling_threshold(wb):
    pt = minimize_over_a(wb.params("couette", 1e-6), 0.2, 4.0, N=60)
    assert pt.converged
    a_ref, re_ref = HYDRO_WALL
    assert abs(pt.a_crit - a_ref) <= 0.01 * a_ref
    assert abs(pt.Re_E - re_ref) <= 0.01 * re_ref


def test_pressure_driven_vanishing_coupling_threshold(wb):
    pt = minimize_over_a(wb.params("hartmann", 1e-6), 0.5, 5.0, N=60)
    assert pt.converged
    a_ref, re_ref = HYDRO_PRESSURE
    assert abs(pt.a_crit - a_ref) <= 0.01 * a_ref
    assert abs(pt.Re_E - re_ref) <= 0.01 * re_ref


def test_window_perturbation_leaves_threshold_unchanged(wb):
    # interior minimum, so a 10% window change must not move the result
    params = wb.params("couette", 1.0)
    base = minimize_over_a(params, 0.2, 4.0, N=50)
    lo = minimize_over_a(params, 0.18, 3.6, N=50)
    hi = minimize_over_a(params, 0.22, 4.4, N=50)
    for other in (lo, hi):
        assert other.converged
        assert abs(other.Re_E - base.Re_E) <= 1e-4 * base.Re_E


def test_edge_minimum_flagged_not_converged(wb):
    # the wall-driven minimizer near a = 1.89 lies beyond this window
    pt = minimize_over_a(wb.params("couette", 1.0), 0.2, 1.0, N=50)
    assert not pt.converged
    assert pt.a_crit == 1.0


@pytest.mark.parametrize("window,edge", [
    ((0.2, 1.0), 1.0),
    ((3.0, 10.0), 3.0),
])
def test_edge_rule_at_both_window_ends(wb, window, edge):
    # the minimizer near a = 1.89 lies above [0.2, 1] and below [3, 10], so
    # the slope points out of the window at the edge named
    pt = minimize_over_a(wb.params("couette", 1.0), *window, N=50)
    assert not pt.converged
    assert pt.a_crit == edge
    sol = wb.solution("couette", 1.0, edge, N=50)
    assert pt.Re_E == sol.Re_a


def count_solves(monkeypatch):
    calls = []

    def counted(pencil):
        calls.append(pencil.a)
        return solve_max_m(pencil)

    monkeypatch.setattr(critical, "solve_max_m", counted)
    return calls


def test_walk_costs_few_solves_on_sweep_points(wb, monkeypatch):
    calls = count_solves(monkeypatch)
    for flow in ("couette", "hartmann"):
        for Ha, re_ref in zip(SWEEP_HA, SWEEP_RE_E[flow]):
            calls.clear()
            walk = minimize_over_a(wb.params(flow, Ha), 0.2, 30.0, N=60)
            assert walk.converged
            assert len(calls) <= 8
            assert abs(walk.Re_E - re_ref) <= 1e-9 * re_ref


def test_scan_edge_minimum_with_inward_slope_is_refined(wb):
    # a 40-point scan's smallest value sits on a_max = 5, but the slope
    # there points into the window: the peak of m lies between the last
    # two grid points (4.713 and 5), where the search finds it
    grid = np.geomspace(0.5, 5.0, 40)
    sols = [wb.solution("hartmann", 20.0, float(a), N=48, Pm=1.0)
            for a in grid]
    assert int(np.argmin([s.Re_a for s in sols])) == grid.size - 1
    assert wb.slope("hartmann", 20.0, float(grid[-1]), N=48, Pm=1.0) < 0
    walk = minimize_over_a(wb.params("hartmann", 20.0, Pm=1.0), 0.5, 5.0,
                           N=48)
    assert walk.converged
    assert 4.713 < walk.a_crit < 5.0
    assert abs(walk.a_crit - 4.9089) <= 1e-3
    assert walk.Re_E < 297.6
    assert walk.Re_E <= sols[-1].Re_a


def test_failed_first_solve_raises_and_later_failure_stops(wb, monkeypatch):
    params = wb.params("couette", 1.0)
    calls = []

    def failing(after):
        def solve(pencil):
            calls.append(pencil.a)
            if len(calls) > after:
                raise NumericalError("injected failure")
            return solve_max_m(pencil)
        return solve

    monkeypatch.setattr(critical, "solve_max_m", failing(0))
    with pytest.raises(NumericalError, match="injected failure"):
        minimize_over_a(params, 0.2, 30.0, N=50)
    assert len(calls) == 1
    calls.clear()
    monkeypatch.setattr(critical, "solve_max_m", failing(1))
    pt = minimize_over_a(params, 0.2, 30.0, N=50)
    first = calls[0]
    assert first == np.sqrt(0.2 * 30.0) and len(calls) == 2
    assert not pt.converged
    assert pt.a_crit == first
    assert pt.Re_E == wb.solution("couette", 1.0, first, N=50).Re_a


def test_slope_refinement_costs_few_solves(wb, monkeypatch):
    calls = count_solves(monkeypatch)
    pt = minimize_over_a(wb.params("couette", 1.0), 0.2, 30.0, N=50)
    assert pt.converged
    assert len(calls) <= 8
    a_ref, re_ref = GOLDEN_COUETTE_HA1
    assert abs(pt.Re_E - re_ref) <= 1e-9 * re_ref
    assert abs(pt.a_crit - a_ref) <= 2 * A_TOL


def test_refined_value_never_worse_than_coarse_scan(wb):
    params = wb.params("hartmann", 1.0)
    pt = minimize_over_a(params, 0.5, 5.0, N=50)
    grid = np.geomspace(0.5, 5.0, 12)
    coarse = [wb.solution("hartmann", 1.0, float(a), N=50).Re_a for a in grid]
    assert pt.Re_E <= min(coarse) + 1e-12


def test_sweep_converges_and_is_monotone(sweep_cache):
    for flow in ("couette", "hartmann"):
        pts = sweep_cache[flow]
        assert len(pts) == 4
        assert all(p.converged for p in pts)
        assert all(np.isfinite(p.Re_E) and p.Re_E > 0 for p in pts)
        # stronger fields stabilize: the threshold grows with Ha
        assert pts[3].Re_E > pts[0].Re_E


def test_sweep_preserves_input_order_and_parameters(sweep_cache):
    pts = sweep_cache["couette"]
    assert [p.Ha for p in pts] == [0.1, 1.0, 10.0, 50.0]
    assert all(p.flow == "couette" and p.Pm == 0.1 for p in pts)
    assert all(p.N_used == 50 for p in pts)


def test_singleton_sweep_matches_direct_minimization(wb):
    (pt,) = neutral_sweep("couette", [1.0], 0.1, a_window=(0.2, 4.0), N=50)
    direct = minimize_over_a(wb.params("couette", 1.0), 0.2, 4.0, N=50)
    assert pt == direct


def test_sweep_rows_match_searches_run_alone(wb, sweep_cache):
    # the search is not seeded from the previous Ha, so each row is the
    # search for that Ha alone
    for flow in ("couette", "hartmann"):
        alone = [minimize_over_a(wb.params(flow, Ha), 0.2, 30.0, N=50)
                 for Ha in reversed(SWEEP_HA)]
        assert sweep_cache[flow] == alone[::-1]


def test_sweep_builds_operator_and_maps_once(monkeypatch):
    built = []

    def counted(op):
        built.append(op.N)
        return clamped_restrict(op)

    monkeypatch.setattr(spectral, "clamped_restrict", counted)
    spectral._cached_setup.cache_clear()
    with pytest.raises(ParameterError):
        neutral_sweep("couette", [1.0], 0.1, a_window=(4.0, 0.2), N=36)
    with pytest.raises(ParameterError):
        neutral_sweep("couette", [1.0], 0.1, a_window=(0.0, 4.0), N=36)
    assert built == []
    pts = neutral_sweep("couette", [0.5, 1.0, 2.0], 0.1, N=36)
    assert built == [36]
    assert all(p.converged and p.N_used == 36 for p in pts)
    spectral._cached_setup.cache_clear()


def test_searches_build_forms_once_and_share_the_setup(wb, monkeypatch):
    # the wavenumber-free forms are built once per search, not per solve,
    # and the curve and the minimum share one operator and one set of maps
    calls = []

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)

    for module in (critical, orr_evp):
        counted(module, "profile_for")
        counted(module, "pencil_forms")
    counted(spectral, "build_operator")
    counted(spectral, "clamped_restrict")
    spectral._cached_setup.cache_clear()
    params = wb.params("hartmann", 3.0)
    pt = minimize_over_a(params, 0.2, 4.0, N=36)
    assert pt.converged
    assert calls == ["build_operator", "clamped_restrict", "profile_for",
                     "pencil_forms"]
    curve = reynolds_curve(params, np.geomspace(0.2, 4.0, 9), N=36)
    assert all(np.isfinite(re_a) for _, re_a in curve)
    assert calls[4:] == ["profile_for", "pencil_forms"]
    spectral._cached_setup.cache_clear()


@pytest.mark.parametrize("N", [[60], 60.0, True, "60"])
def test_searches_reject_a_non_integer_N_before_the_cache(wb, N):
    # the cache hashes N, so a list would escape as a TypeError
    params = wb.params("couette", 1.0)
    with pytest.raises(ParameterError, match="N must be an integer"):
        minimize_over_a(params, 0.2, 4.0, N=N)
    with pytest.raises(ParameterError, match="N must be an integer"):
        reynolds_curve(params, [1.0], N=N)


def test_threshold_is_attained_by_a_solvable_point(wb):
    pt = minimize_over_a(wb.params("couette", 1.0), 0.2, 4.0, N=50)
    sol = wb.solution("couette", 1.0, pt.a_crit, N=50)
    assert abs(sol.Re_a - pt.Re_E) <= 1e-12 * pt.Re_E


def test_window_validation(wb):
    params = wb.params("couette", 1.0)
    for bad in ((0.0, 4.0), (-1.0, 4.0), (2.0, 1.0), (np.nan, 4.0),
                ("x", 4.0), (0.2, np.array([4.0, 5.0]))):
        with pytest.raises(ParameterError):
            minimize_over_a(params, bad[0], bad[1], N=50)
    with pytest.raises(ParameterError, match="^params must be of type"):
        minimize_over_a(None, N=50)


def test_window_refuses_an_overflowing_fourth_power(wb):
    # a^4 of either edge must be finite, so no step can overflow the form
    params = wb.params("couette", 1.0)
    for a_min, a_max, name in ((0.2, 1e300, "a_max"), (0.2, 1.2e77, "a_max"),
                               (1e90, 1e91, "a_min")):
        with pytest.raises(ParameterError, match=f"{name} must have a finite "
                           "fourth power"):
            minimize_over_a(params, a_min, a_max, N=50)


@pytest.mark.parametrize("flow,Ha,window", [("couette", 1.0, (1e39, 1e40)),
                                            ("hartmann", 10.0, (1e19, 1e20)),
                                            ("hartmann", 10.0, (1e29, 1e30)),
                                            ("couette", 1.0, (1e60, 1e61)),
                                            ("couette", 1.0, (1e-170, 1e-160)),
                                            ("couette", 1.0, (1e76, 1.1e77))])
def test_search_at_huge_wavenumbers_stays_finite(wb, caplog, flow, Ha, window):
    # the whitened block, whose entries scale as a^-3 at large a and as a
    # at small a, is scaled by LAPACK's SVD itself and divided by m before
    # its Gram matrix is formed, and the search starts from a midpoint
    # whose product lo * hi cannot underflow: no solve fails, no norm
    # overflows (a RuntimeWarning fails the suite) and no step lands
    # on a = 0 or nan, so the search ends on a window edge
    caplog.set_level(logging.WARNING, logger="mhdes")
    pt = minimize_over_a(wb.params(flow, Ha), *window)
    assert not caplog.records
    assert not pt.converged and pt.a_crit in window
    assert np.isfinite(pt.Re_E) and pt.Re_E > 0


def test_sweep_validation(monkeypatch):
    # every point is checked before the first search: none may start
    def never(*args, **kwargs):
        raise AssertionError("minimize_over_a called before validation")

    monkeypatch.setattr(critical, "minimize_over_a", never)
    for bad in ([], [1.0, -2.0], [np.inf], [1.0, 1e9]):
        with pytest.raises(ParameterError):
            neutral_sweep("couette", bad, 0.1)
    for window in ((0.2,), 3.0):
        with pytest.raises(ParameterError, match="a_window"):
            neutral_sweep("couette", [1.0], 0.1, a_window=window)


@pytest.mark.parametrize("bad", [["x"], "abc", [[1.0, 2.0]], [True]],
                         ids=["text-entry", "text", "2-D", "bool-entry"])
def test_sweep_rejects_malformed_hartmann_lists(monkeypatch, bad):
    def never(*args, **kwargs):
        raise AssertionError("minimize_over_a called before validation")

    monkeypatch.setattr(critical, "minimize_over_a", never)
    with pytest.raises(ParameterError, match="Ha_list"):
        neutral_sweep("couette", bad, 0.1)


@pytest.mark.parametrize("flow", ["couette", "hartmann"])
def test_walk_meets_single_grid_minimum(wb, flow):
    # the README describes Re_a(a) as having one local minimum in the
    # window, which the search meets: pin both on a log grid over the
    # window for Ha 1e-3 to 50 and Pm 0.01 to 10
    grid = np.geomspace(0.2, 30.0, 40)
    for Ha in (1e-3, 0.1, 1.0, 10.0, 50.0):
        for Pm in (0.01, 0.1, 1.0, 10.0):
            vals = np.array([wb.solution(flow, Ha, float(a), N=40, Pm=Pm).Re_a
                             for a in grid])
            falls = np.diff(vals) < 0
            assert np.count_nonzero(falls[:-1] & ~falls[1:]) == 1
            i = int(np.argmin(vals))
            assert 0 < i < grid.size - 1
            pt = minimize_over_a(wb.params(flow, Ha, Pm), 0.2, 30.0, N=40)
            assert pt.converged
            assert pt.Re_E <= vals[i] * (1.0 + 1e-12)
            assert grid[i - 1] < pt.a_crit < grid[i + 1]
