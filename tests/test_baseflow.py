"""Base states: profiles, wall/centerline values, balance residuals."""

import numpy as np
import pytest

from mhdes import Params, baseflow_residual, profile_for
from mhdes.baseflow import (HA_CEIL, HA_FLOOR, couette_profile,
                            hartmann_profile)
from mhdes.errors import ParameterError


def test_params_derived_coupling():
    p = Params(flow="couette", Ha=3.0, Pm=0.2)
    assert p.A == 3.0 * 3.0 * 0.2


def test_params_rejects_zero_hartmann_number():
    # every profile needs Ha > 0, and so does restoring the magnetic field
    # from its rescaled form Ha l, so the parameter set refuses Ha = 0
    # with the message the profile evaluators give
    with pytest.raises(ParameterError, match="Ha must be finite and > 0"):
        Params(flow="couette", Ha=0.0, Pm=0.1)


@pytest.mark.parametrize("kwargs", [
    dict(flow="poiseuille", Ha=1.0, Pm=0.1),
    dict(flow="couette", Ha=-1.0, Pm=0.1),
    dict(flow="couette", Ha=np.nan, Pm=0.1),
    dict(flow="couette", Ha=2.0 * HA_CEIL, Pm=0.1),
    dict(flow="couette", Ha=1.0, Pm=0.0),
    dict(flow="hartmann", Ha=1.0, Pm=-0.5),
    dict(flow="couette", Ha="x", Pm=0.1),
    dict(flow="couette", Ha=None, Pm=0.1),
    dict(flow="couette", Ha=1.0, Pm="x"),
    dict(flow="couette", Ha=[1.0], Pm=0.1),
])
def test_params_validation(kwargs):
    with pytest.raises(ParameterError):
        Params(**kwargs)


@pytest.mark.parametrize("z", [
    np.array([[0.0, 0.5]]),
    np.array([0.0, 1.5]),
    np.array([0.0, np.nan]),
])
def test_profile_rejects_bad_nodes(z):
    with pytest.raises(ParameterError):
        couette_profile(1.0, z)


def test_profile_rejects_bad_hartmann_number():
    z = np.linspace(-1.0, 1.0, 5)
    for profile in (couette_profile, hartmann_profile):
        for Ha in (0.0, -2.0, np.inf, np.nan, 2.0 * HA_CEIL, "x", None, True):
            with pytest.raises(ParameterError, match="Ha"):
                profile(Ha, z)


def test_wall_driven_walls_and_centerline(wb):
    s = wb.sample("couette", 1.0, 50)
    mid = 25
    assert s.U[mid] == 0.0
    assert s.U[0] == 1.0 and s.U[-1] == -1.0
    assert s.Bbar[0] == 0.0 and s.Bbar[-1] == 0.0
    assert abs(s.Bbar[mid] - np.tanh(0.5)) <= 1e-15


def test_pressure_driven_walls_and_centerline(wb):
    s = wb.sample("hartmann", 2.0, 50)
    mid = 25
    assert abs(s.U[mid] - 1.0) <= 1e-14
    assert s.Bbar[mid] == 0.0
    assert s.U[0] == 0.0 and s.U[-1] == 0.0
    assert s.Bbar[0] == 0.0 and s.Bbar[-1] == 0.0


def test_profile_parity(wb):
    sc = wb.sample("couette", 1.0, 50)
    assert np.array_equal(sc.U, -sc.U[::-1])
    assert np.array_equal(sc.Bbar, sc.Bbar[::-1])
    sh = wb.sample("hartmann", 2.0, 50)
    assert np.array_equal(sh.U, sh.U[::-1])
    assert np.array_equal(sh.Bbar, -sh.Bbar[::-1])


@pytest.mark.parametrize("flow,Ha", [
    ("couette", 1.0), ("hartmann", 5.0),
    ("couette", 0.1), ("hartmann", 0.1),
    ("couette", 50.0), ("hartmann", 50.0),
    ("couette", 300.0), ("hartmann", 300.0),
])
def test_balance_residuals(wb, flow, Ha):
    p = wb.params(flow, Ha)
    r1, r2 = baseflow_residual(wb.sample(flow, Ha, 50), p)
    assert r1 <= 1e-12
    assert r2 <= 1e-12


def test_residual_detects_mismatched_parameters(wb):
    sample = wb.sample("couette", 1.0, 50)
    r1, _ = baseflow_residual(sample, wb.params("couette", 2.0))
    assert r1 > 0.1


def test_residual_rejects_non_sample(wb):
    with pytest.raises(ParameterError):
        baseflow_residual(np.zeros(5), wb.params("couette", 1.0))
    with pytest.raises(ParameterError, match="^params must be of type"):
        baseflow_residual(wb.sample("couette", 1.0, 50), None)


def test_large_hartmann_number_is_stable(wb):
    for flow in ("couette", "hartmann"):
        s = wb.sample(flow, 300.0, 50)
        for f in (s.U, s.Uprime, s.Usecond, s.Bbar, s.Bprime, s.Bsecond):
            assert np.all(np.isfinite(f))
        assert np.max(np.abs(s.U)) <= 1.0 + 1e-12


def test_small_hartmann_number_limits(wb):
    op = wb.op(50)
    sc = wb.sample("couette", 1e-6, 50)
    assert np.max(np.abs(sc.U - op.nodes)) <= 1e-6
    assert np.max(np.abs(sc.Bbar - 0.5 * (1.0 - op.nodes**2))) <= 1e-6
    sh = wb.sample("hartmann", 1e-6, 50)
    assert np.max(np.abs(sh.U - (1.0 - op.nodes**2))) <= 1e-6
    for flow in ("couette", "hartmann"):
        p = wb.params(flow, 1e-6)
        r1, r2 = baseflow_residual(wb.sample(flow, 1e-6, 50), p)
        assert r1 <= 1e-12 and r2 <= 1e-12


@pytest.mark.parametrize("flow", ["couette", "hartmann"])
@pytest.mark.parametrize("Ha", [2e-4, 1e-3, 0.1, 1.0, 10.0, 50.0])
def test_stored_derivatives_match_spectral_differentiation(wb, flow, Ha):
    op = wb.op(50)
    s = wb.sample(flow, Ha, 50)
    for f, fp in ((s.U, s.Uprime), (s.Bbar, s.Bprime)):
        err = np.max(np.abs(op.D1 @ f - fp))
        assert err <= 1e-8 * np.max(np.abs(fp))


@pytest.mark.parametrize("flow", ["couette", "hartmann"])
def test_fields_are_continuous_across_the_series_switch(wb, flow):
    # the Taylor series just below HA_FLOOR and the exponential forms at it
    # describe the same state, so every field agrees to rounding
    z = wb.op(50).nodes
    below = profile_for(wb.params(flow, np.nextafter(HA_FLOOR, 0.0)), z)
    at = profile_for(wb.params(flow, HA_FLOOR), z)
    for name in ("U", "Uprime", "Usecond", "Bbar", "Bprime", "Bsecond"):
        f, g = getattr(below, name), getattr(at, name)
        assert np.max(np.abs(f - g)) <= 1e-14 * np.max(np.abs(g)), name


def test_dispatcher_copies_parameters(wb):
    s = profile_for(wb.params("hartmann", 7.0), wb.op(16).nodes)
    assert s.flow == "hartmann" and s.Ha == 7.0
    assert s.z.shape == (17,)
