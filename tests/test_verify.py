"""Independent energy functionals, decay certificates, and the FD oracle."""

import ast
import dataclasses
import gc
import json
import os
import tracemalloc

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import mhdes
from mhdes import cli, spectral, verify
from mhdes.errors import (ConsistencyError, NumericalError, ParameterError,
                          VerificationError)
from mhdes.verify import (POINCARE_BOUND, TRIAL_RTOL, _fd_max_m,
                          _random_coefficients, _trial_forms)

# closed-form functional values for polynomial trial fields (exact integrals
# of the envelope (1-z^2)^2 against the wall-driven base state at Ha = 1),
# frozen from a computer-algebra evaluation
ENVELOPE_D1_A1 = 1408.0 / 45.0
MODULATED_I = 115968.0 - 88320.0 / np.tanh(1.0)
MODULATED_D1 = 177664.0 / 3465.0
# a string, a missing value, a bool and NaN: each scalar argument refuses
# all four with ParameterError
BAD_NUMBERS = ("x", None, True, np.nan)


def envelope_field(wb, N=60, a=1.0, modulated=False):
    op = wb.op(N)
    z = op.nodes
    wf = (1.0 - z * z) ** 2
    if modulated:
        wf = wf * (1.0 + 1j * z)
    return mhdes.make_trial_field(a, wf, np.zeros_like(wf), op)


def test_field_completion_and_validation(wb):
    op = wb.op(20)
    wf = (1.0 - op.nodes**2) ** 2
    fld = mhdes.make_trial_field(2.0, wf, np.zeros_like(wf), op)
    assert np.allclose(fld.u_hat, (1j / 2.0) * (op.D1 @ wf))
    assert not np.any(fld.h_hat)
    with pytest.raises(ParameterError):
        mhdes.make_trial_field(0.0, wf, wf, op)
    with pytest.raises(ConsistencyError):
        mhdes.make_trial_field(1.0, wf[:-1], wf[:-1], op)


def test_real_envelope_functionals(wb):
    # a purely real wall-normal profile produces nothing against the shear
    fld = envelope_field(wb)
    br = mhdes.energy_ratio(fld, wb.params("couette", 1.0),
                            wb.sample("couette", 1.0, 60), wb.op(60))
    assert br.I == 0.0 and br.ratio == 0.0
    assert abs(br.D1 - ENVELOPE_D1_A1) <= 1e-12 * ENVELOPE_D1_A1
    assert br.D == br.D1
    assert br.E > 0
    assert br.dEdt is None


def test_modulated_envelope_functionals(wb):
    fld = envelope_field(wb, modulated=True)
    br = mhdes.energy_ratio(fld, wb.params("couette", 1.0),
                            wb.sample("couette", 1.0, 60), wb.op(60))
    assert abs(br.I - MODULATED_I) <= 1e-9 * abs(MODULATED_I)
    assert abs(br.D1 - MODULATED_D1) <= 1e-12 * MODULATED_D1
    assert abs(br.ratio - MODULATED_I / MODULATED_D1) <= 1e-9 * br.ratio


def test_energy_derivative_definition(wb):
    fld = envelope_field(wb, modulated=True)
    br = mhdes.energy_ratio(fld, wb.params("couette", 1.0),
                            wb.sample("couette", 1.0, 60), wb.op(60), Re=7.0)
    assert br.dEdt == br.I - br.D / 7.0
    with pytest.raises(ParameterError):
        mhdes.energy_ratio(fld, wb.params("couette", 1.0),
                           wb.sample("couette", 1.0, 60), wb.op(60), Re=-1.0)


def test_zero_field_is_rejected(wb):
    op = wb.op(20)
    zero = np.zeros(op.N + 1, dtype=complex)
    fld = mhdes.make_trial_field(1.0, zero, zero, op)
    with pytest.raises(ParameterError):
        mhdes.energy_ratio(fld, wb.params("couette", 1.0),
                           wb.sample("couette", 1.0, 20), op)


def test_bundle_consistency_checks(wb):
    fld = envelope_field(wb, N=50)
    with pytest.raises(ConsistencyError):
        mhdes.energy_ratio(fld, wb.params("couette", 1.0),
                           wb.sample("couette", 2.0, 50), wb.op(50))
    with pytest.raises(ConsistencyError):
        mhdes.energy_ratio(fld, wb.params("couette", 1.0),
                           wb.sample("couette", 1.0, 60), wb.op(60))
    with pytest.raises(ConsistencyError):
        mhdes.poincare_check(fld, wb.op(60))
    # every part of the wrong type is named; both field arrays must lie on
    # the operator's nodes
    params, sample, op = (wb.params("couette", 1.0),
                          wb.sample("couette", 1.0, 50), wb.op(50))
    with pytest.raises(ParameterError, match="^op must be of type"):
        mhdes.make_trial_field(1.0, fld.w_hat, fld.l_hat, "x")
    with pytest.raises(ParameterError, match="^op must be of type"):
        mhdes.poincare_check(fld, op.nodes)
    short = verify.TrialField(a=fld.a, w_hat=fld.w_hat, l_hat=fld.l_hat[:5],
                              u_hat=fld.u_hat, h_hat=fld.h_hat)
    with pytest.raises(ConsistencyError, match="field arrays"):
        mhdes.energy_ratio(short, params, sample, op)
    with pytest.raises(ParameterError, match="^field must be of type"):
        mhdes.energy_ratio("x", params, sample, op)
    with pytest.raises(ParameterError, match="^field must be of type"):
        mhdes.decay_check("x", params, 10.0, 20.0, sample, op)
    # each of the four arrays is checked against the nodes, and the
    # wavenumber as one, by every functional that takes a field
    checks = (lambda f: mhdes.energy_ratio(f, params, sample, op),
              lambda f: mhdes.decay_check(f, params, 10.0, 20.0, sample, op),
              lambda f: mhdes.poincare_check(f, op))
    for name in ("w_hat", "l_hat", "u_hat", "h_hat"):
        off = dataclasses.replace(fld, **{name: getattr(fld, name)[:5]})
        for check in checks:
            with pytest.raises(ConsistencyError, match="field arrays"):
                check(off)
    for a in ("x", None, -1.0, np.nan):
        for check in checks:
            with pytest.raises(ParameterError, match="field.a"):
                check(dataclasses.replace(fld, a=a))
    # an injected field at another wavenumber does not bear on the claim
    # at a, though its own ratio exceeds it
    m = wb.solution("couette", 1.0, 1.2).m
    with pytest.raises(ConsistencyError):
        mhdes.random_trial_bound(wb.params("couette", 1.0), 1.2, m, trials=10,
                                 inject=(wb.eig_field("couette", 1.0, 1.9),))


def test_eigenvector_ratio_matches_eigenvalue(wb):
    sol = wb.solution("couette", 1.0, 1.2)
    fld = wb.eig_field("couette", 1.0, 1.2)
    br = mhdes.energy_ratio(fld, wb.params("couette", 1.0),
                            wb.sample("couette", 1.0, 60), wb.op(60))
    assert abs(br.ratio - sol.m) <= 1e-8 * sol.m


def test_ratio_invariant_under_complex_rescaling(wb, rng):
    params = wb.params("hartmann", 10.0)
    sample = wb.sample("hartmann", 10.0, 60)
    op = wb.op(60)
    fld = wb.eig_field("hartmann", 10.0, 1.2)
    base = mhdes.energy_ratio(fld, params, sample, op).ratio
    c = 3.0 - 4.0j
    scaled = mhdes.make_trial_field(fld.a, c * fld.w_hat, c * fld.l_hat, op)
    got = mhdes.energy_ratio(scaled, params, sample, op).ratio
    assert abs(got - base) <= 1e-13 * abs(base)
    for _ in range(10):
        c = (10.0 ** rng.uniform(-3, 3)) * np.exp(2j * np.pi * rng.uniform())
        scaled = mhdes.make_trial_field(fld.a, c * fld.w_hat, c * fld.l_hat, op)
        got = mhdes.energy_ratio(scaled, params, sample, op).ratio
        assert abs(got - base) <= 1e-12 * abs(base)


def test_random_trials_stay_below_solved_maximum(wb):
    sol = wb.solution("couette", 1.0, 1.2)
    report = mhdes.random_trial_bound(wb.params("couette", 1.0), 1.2, sol.m,
                                      trials=1000, seed=42)
    assert report["max_ratio"] <= sol.m * (1.0 + 1e-6)
    assert report["gap"] > 0
    assert report["trials"] == 1000 and report["seed"] == 42


def test_injected_eigenvector_attains_claim(wb):
    sol = wb.solution("couette", 1.0, 1.2)
    fld = wb.eig_field("couette", 1.0, 1.2)
    report = mhdes.random_trial_bound(wb.params("couette", 1.0), 1.2, sol.m,
                                      trials=1, seed=0, inject=(fld,))
    assert abs(report["gap"]) <= 1e-8 * sol.m


def test_understated_claim_is_falsified(wb):
    sol = wb.solution("couette", 1.0, 1.2)
    fld = wb.eig_field("couette", 1.0, 1.2)
    with pytest.raises(VerificationError) as excinfo:
        mhdes.random_trial_bound(wb.params("couette", 1.0), 1.2, 0.5 * sol.m,
                                 trials=1, seed=0, inject=(fld,))
    report = excinfo.value.report
    assert report["trial_index"] == -1
    assert report["ratio"] > report["m_claimed"]
    assert report["params"]["flow"] == "couette"
    assert set(report["field_coefficients"]) == {"w", "l"}
    json.dumps(report)  # must be serializable as shipped


def test_magnetic_sector_field_stays_below_small_hartmann_claim(wb):
    # as Ha -> 0 a field with l alone produces Pm times what the same shape
    # produces as w, so the conjugate of the Pm = 0.1 velocity eigenfield,
    # injected as l, reaches 10 times the hydro ratio at Pm = 10; the claim
    # must be that larger value, and the FD oracle must agree with it
    a = 1.8934
    hydro = wb.solution("couette", 1e-5, a, Pm=0.1)
    fld = mhdes.make_trial_field(a, np.zeros_like(hydro.w_hat),
                                 np.conj(hydro.w_hat), wb.op(60))
    params = wb.params("couette", 1e-5, Pm=10.0)
    sol = wb.solution("couette", 1e-5, a, Pm=10.0)
    report = mhdes.random_trial_bound(params, a, sol.m, trials=100, seed=0,
                                      inject=(fld,))
    assert abs(report["max_ratio"] - sol.m) <= 1e-6 * sol.m
    assert abs(sol.m - 10.0 * hydro.m) <= 1e-6 * sol.m
    assert abs(mhdes.fd_oracle(params, a, M=300) - sol.m) <= 5e-3 * sol.m


def clamped_field(a, coeffs, op):
    """The nodal trial field of one (4, N - 3) coefficient block, summed by
    Clenshaw's recurrence."""
    env = (1.0 - op.nodes**2) ** 2
    return mhdes.make_trial_field(
        a, env * ncheb.chebval(op.nodes, coeffs[0] + 1j * coeffs[1]),
        env * ncheb.chebval(op.nodes, coeffs[2] + 1j * coeffs[3]), op)


def form_ratios(params, a, sample, op, z):
    prod, diss1 = _trial_forms(params, a, sample, op)(z)
    return prod / diss1


@pytest.mark.parametrize("flow, Ha", [("couette", 1.0), ("hartmann", 10.0)])
def test_batched_trials_match_per_field_loop(wb, flow, Ha):
    # the block draws the per-field stream bit for bit, and the quadratic
    # forms give the ratios of energy_ratio on each field's nodal values
    params, op = wb.params(flow, Ha), wb.op(60)
    sample = wb.sample(flow, Ha, 60)
    z = _random_coefficients(np.random.default_rng(7), 50, op)
    ratios = form_ratios(params, 1.2, sample, op, z)
    # a ratio near zero is a cancellation in I, whose rounding scales with
    # the block's larger ratios, not with its own size
    scale = np.max(np.abs(ratios))
    rng = np.random.default_rng(7)
    for t in range(50):
        assert all(np.array_equal(z[t, k], rng.standard_normal(57))
                   for k in range(4))
        one = mhdes.energy_ratio(clamped_field(1.2, z[t], op), params,
                                 sample, op)
        assert abs(ratios[t] - one.ratio) <= 1e-14 * scale


def test_falsification_names_first_random_offender(wb, monkeypatch):
    # a claim below some random ratios is falsified by the first of them,
    # and the reported coefficients rebuild that very field; at each block
    # size the offender lies in a later block than the first, so its index
    # is global, and at (first, first + 1) it is a one-field remainder,
    # evaluated alone with the bits it has in a block
    params, op = wb.params("couette", 1.0), wb.op(60)
    sample = wb.sample("couette", 1.0, 60)
    ratios = form_ratios(params, 1.2, sample, op, _random_coefficients(
        np.random.default_rng(3), 200, op))
    claim = float(np.quantile(ratios, 0.9))
    first = int(np.flatnonzero(ratios > claim * (1.0 + TRIAL_RTOL))[0])
    assert 16 <= first < verify.TRIAL_BLOCK
    for block, trials in ((4, 200), (7, 200), (16, 200), (first, first + 1),
                          (verify.TRIAL_BLOCK, 200)):
        monkeypatch.setattr(verify, "TRIAL_BLOCK", block)
        with pytest.raises(VerificationError) as excinfo:
            mhdes.random_trial_bound(params, 1.2, claim, trials=trials,
                                     seed=3)
        report = excinfo.value.report
        assert report["trial_index"] == first
        assert report["ratio"] == ratios[first]
        w, l = (np.array([complex(re, im) for re, im in
                          report["field_coefficients"][k]]) for k in "wl")
        coeffs = np.array([w.real, w.imag, l.real, l.imag])
        ratio = mhdes.energy_ratio(clamped_field(1.2, coeffs, op), params,
                                   sample, op).ratio
        assert abs(ratio - report["ratio"]) <= 1e-14 * abs(ratio)
        json.dumps(report)


@pytest.mark.parametrize("flow, Ha", [("couette", 1.0), ("hartmann", 10.0)])
def test_trial_block_size_changes_no_report(wb, monkeypatch, flow, Ha):
    # blocks are drawn from one generator and each field takes the same
    # arithmetic in any block, a block of one field included, so every
    # block size gives the bits of one batch
    params, op = wb.params(flow, Ha), wb.op(60)
    sample = wb.sample(flow, Ha, 60)
    m = wb.solution(flow, Ha, 1.2).m
    for trials in (1, 201, 1000):
        batch = float(np.max(form_ratios(params, 1.2, sample, op,
                                         _random_coefficients(
                                             np.random.default_rng(11),
                                             trials, op))))
        for block in (1, 4, 7, trials + 1):
            monkeypatch.setattr(verify, "TRIAL_BLOCK", block)
            report = mhdes.random_trial_bound(params, 1.2, m, trials=trials,
                                              seed=11)
            assert report == {"max_ratio": batch, "gap": m - batch,
                              "m_claimed": m, "trials": trials, "seed": 11}


@pytest.mark.parametrize("N", [40, 60, 80])
def test_trial_forms_match_energy_ratio_of_nodal_fields(wb, N):
    # the forms are the quadrature and collocation derivative of
    # energy_ratio regrouped: over both flows, vanishing to large Ha, both
    # Pm and a from 1e-3 to 60, their ratios agree with energy_ratio on
    # the nodal fields to rounding of the block's largest ratio, and their
    # dissipations to rounding of each field's own
    op = wb.op(N)
    z = _random_coefficients(np.random.default_rng(N), 50, op)
    fields = {a: [clamped_field(a, c, op) for c in z]
              for a in (1e-3, 1.2, 60.0)}
    for flow in ("couette", "hartmann"):
        for Ha in (1e-6, 1.0, 50.0, 300.0):
            for Pm in (0.1, 1.0):
                params = wb.params(flow, Ha, Pm)
                sample = mhdes.profile_for(params, op.nodes)
                for a, flds in fields.items():
                    prod, diss1 = _trial_forms(params, a, sample, op)(z)
                    ref = [mhdes.energy_ratio(f, params, sample, op)
                           for f in flds]
                    ratio = np.array([br.ratio for br in ref])
                    d1 = np.array([br.D1 for br in ref])
                    scale = np.max(np.abs(ratio))
                    assert np.max(np.abs(prod / diss1 - ratio)) <= \
                        1e-12 * scale, (flow, Ha, Pm, a)
                    assert np.max(np.abs(diss1 - d1) / d1) <= 1e-14, \
                        (flow, Ha, Pm, a)


def test_claim_checks_form_no_nodal_random_field(monkeypatch):
    # the random trials and decay fields are evaluated by their forms: no
    # derivative of a block of nodal fields is taken
    ddz = verify._ddz

    def single(f, op):
        if np.ndim(f) != 1:
            raise AssertionError(f"derivative of a {np.shape(f)} block")
        return ddz(f, op)

    monkeypatch.setattr(verify, "_ddz", single)
    field, params, m, sample, op = solved_claim("hartmann", 10.0)
    checks = mhdes.check_claim(field, params, m, m, 42, sample, op)
    assert all(c["passed"] for c in checks.values())
    report = mhdes.random_trial_bound(params, 1.2, m, seed=3, N=40)
    assert report["max_ratio"] <= m * (1.0 + TRIAL_RTOL)


def test_trial_memory_does_not_grow_with_trials(wb):
    # the trials are evaluated one block at a time, so 5000 of them need
    # no more memory than one block does
    params = wb.params("couette", 1.0)

    def peak(trials):
        tracemalloc.start()
        try:
            mhdes.random_trial_bound(params, 1.2, 1.0, trials=trials, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    mhdes.random_trial_bound(params, 1.2, 1.0, trials=2, seed=0)
    assert peak(5000) <= 2 * peak(verify.TRIAL_BLOCK)


def test_verify_and_trial_bound_share_one_setup(wb, monkeypatch):
    # mhdes verify builds the grid once for all its points and checks, and
    # random_trial_bound reads it from the same cache
    built = []

    def counted(name):
        original = getattr(spectral, name)

        def wrapper(*args, **kwargs):
            built.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(spectral, name, wrapper)

    counted("build_operator")
    counted("clamped_restrict")
    spectral._cached_setup.cache_clear()
    assert cli.main(["verify", "--ha", "1", "10", "--n", "40",
                     "--out", os.devnull]) == 0
    assert built == ["build_operator", "clamped_restrict"]
    params = wb.params("hartmann", 10.0)
    m = wb.solution("hartmann", 10.0, 1.2, N=40).m
    report = mhdes.random_trial_bound(params, 1.2, m, trials=10, seed=5, N=40)
    assert report["max_ratio"] <= m * (1.0 + TRIAL_RTOL)
    assert built == ["build_operator", "clamped_restrict"]
    with pytest.raises(TypeError):
        mhdes.random_trial_bound(params, 1.2, m, trials=10, seed=5, N=40,
                                 op=wb.op(40))
    spectral._cached_setup.cache_clear()


def test_trial_bound_validation(wb):
    params = wb.params("couette", 1.0)
    with pytest.raises(ParameterError):
        mhdes.random_trial_bound(params, 1.2, 0.0, trials=10, seed=0)
    with pytest.raises(ParameterError):
        mhdes.random_trial_bound(params, 1.2, 1.0, trials=0, seed=0)
    # NaN ratios never exceed the claim, so a bad wavenumber would pass;
    # so would a = 1e160, whose a^2 overflows to a max_ratio of -inf, and
    # the solver refuses a negative a
    for a in (np.nan, np.inf, 0.0, 1e160, -1.2):
        with pytest.raises(ParameterError, match="wavenumber"):
            mhdes.random_trial_bound(params, a, 1.0, trials=10, seed=0)
    for trials, seed in ((2.5, 0), (True, 0), (10, -1), (10, 1.5)):
        with pytest.raises(ParameterError):
            mhdes.random_trial_bound(params, 1.2, 1.0, trials=trials,
                                     seed=seed)
    for bad in BAD_NUMBERS:
        with pytest.raises(ParameterError, match="wavenumber"):
            mhdes.random_trial_bound(params, bad, 1.0, trials=10, seed=0)
        with pytest.raises(ParameterError, match="m_claimed"):
            mhdes.random_trial_bound(params, 1.2, bad, trials=10, seed=0)
    with pytest.raises(ParameterError, match="^params must be of type"):
        mhdes.random_trial_bound(None, 1.2, 0.1)
    # an injected entry must be a TrialField, not its raw arrays
    fld = wb.eig_field("couette", 1.0, 1.2)
    with pytest.raises(ParameterError, match="^field must be of type"):
        mhdes.random_trial_bound(params, 1.2, 1.0, trials=10,
                                 inject=[(fld.w_hat, fld.l_hat)])


def test_decay_certificate_below_threshold(wb, rng):
    params = wb.params("couette", 1.0)
    sample = wb.sample("couette", 1.0, 60)
    op = wb.op(60)
    re_a = wb.solution("couette", 1.0, 1.2).Re_a
    env = (1.0 - op.nodes**2) ** 2
    for _ in range(5):
        cw = rng.standard_normal(57) + 1j * rng.standard_normal(57)
        cl = rng.standard_normal(57) + 1j * rng.standard_normal(57)
        fld = mhdes.make_trial_field(1.2, env * ncheb.chebval(op.nodes, cw),
                                     env * ncheb.chebval(op.nodes, cl), op)
        rep = mhdes.decay_check(fld, params, 0.5 * re_a, re_a, sample, op)
        assert rep.satisfied
        assert rep.dEdt < 0
        assert rep.margin >= 0


def test_nonpositive_production_decays_at_any_reynolds(wb, rng):
    params = wb.params("hartmann", 10.0)
    sample = wb.sample("hartmann", 10.0, 60)
    op = wb.op(60)
    env = (1.0 - op.nodes**2) ** 2
    cw = rng.standard_normal(57) + 1j * rng.standard_normal(57)
    cl = rng.standard_normal(57) + 1j * rng.standard_normal(57)
    wf = env * ncheb.chebval(op.nodes, cw)
    lf = env * ncheb.chebval(op.nodes, cl)
    fld = mhdes.make_trial_field(1.2, wf, lf, op)
    if mhdes.energy_ratio(fld, params, sample, op).I > 0:
        # conjugating both profiles flips the production integral exactly
        fld = mhdes.make_trial_field(1.2, np.conj(wf), np.conj(lf), op)
    br = mhdes.energy_ratio(fld, params, sample, op)
    assert br.I <= 0
    for Re in (1e-3, 1.0, 1e6):
        out = mhdes.energy_ratio(fld, params, sample, op, Re=Re)
        assert out.dEdt < 0


def test_threshold_eigenvector_is_marginal(wb):
    pt = mhdes.minimize_over_a(wb.params("couette", 1.0), 0.2, 4.0, N=60)
    fld = wb.eig_field("couette", 1.0, pt.a_crit)
    br = mhdes.energy_ratio(fld, wb.params("couette", 1.0),
                            wb.sample("couette", 1.0, 60), wb.op(60),
                            Re=pt.Re_E)
    assert abs(br.dEdt) <= 1e-8 * br.D
    rep = mhdes.decay_check(fld, wb.params("couette", 1.0), pt.Re_E, pt.Re_E,
                            wb.sample("couette", 1.0, 60), wb.op(60))
    assert rep.satisfied


def test_decay_check_validation(wb):
    fld = envelope_field(wb)
    with pytest.raises(ParameterError):
        mhdes.decay_check(fld, wb.params("couette", 1.0), 10.0, -1.0,
                          wb.sample("couette", 1.0, 60), wb.op(60))


@pytest.mark.parametrize("bad", BAD_NUMBERS)
def test_field_functionals_reject_bad_scalars(wb, bad):
    op, fld = wb.op(60), envelope_field(wb)
    params, sample = wb.params("couette", 1.0), wb.sample("couette", 1.0, 60)
    for a in (bad, 1e160, -1.2):
        with pytest.raises(ParameterError, match="wavenumber"):
            mhdes.make_trial_field(a, fld.w_hat, fld.l_hat, op)
    if bad is not None:  # Re=None asks for no dEdt
        with pytest.raises(ParameterError, match="Re must"):
            mhdes.energy_ratio(fld, params, sample, op, Re=bad)
    with pytest.raises(ParameterError, match="Re must"):
        mhdes.decay_check(fld, params, bad, 10.0, sample, op)
    with pytest.raises(ParameterError, match="Re_E"):
        mhdes.decay_check(fld, params, 10.0, bad, sample, op)


def test_poincare_envelope_and_taper(wb):
    op = wb.op(60)
    fld = envelope_field(wb)
    rep = mhdes.poincare_check(fld, op)
    assert rep.satisfied
    assert rep.bound == POINCARE_BOUND
    assert all(v["ratio"] > POINCARE_BOUND for v in rep.ratios.values()
               if np.isfinite(v["ratio"]))
    # a clamped taper of the half-period cosine approaches the constant
    z = op.nodes
    taper = np.cos(np.pi * z / 2.0) * (1.0 - z**16)
    tight = mhdes.make_trial_field(1e-4, taper, np.zeros_like(taper), op)
    trep = mhdes.poincare_check(tight, op)
    assert trep.satisfied
    rw = trep.ratios["w_hat"]["ratio"]
    assert POINCARE_BOUND < rw <= 1.05 * POINCARE_BOUND
    assert trep.ratios["l_hat"]["satisfied"]  # zero component, vacuous


def test_poincare_scale_invariance(wb):
    op = wb.op(60)
    fld = wb.eig_field("couette", 1.0, 1.2)
    scaled = mhdes.make_trial_field(fld.a, 5.0 * fld.w_hat, 5.0 * fld.l_hat, op)
    r1 = mhdes.poincare_check(fld, op).ratios
    r2 = mhdes.poincare_check(scaled, op).ratios
    for name in r1:
        a, b = r1[name]["ratio"], r2[name]["ratio"]
        if np.isfinite(a):
            assert abs(a - b) <= 1e-12 * a


def test_fd_oracle_validation(wb):
    params = wb.params("couette", 1.0)
    with pytest.raises(ParameterError):
        mhdes.fd_oracle(params, -1.0, M=300)
    with pytest.raises(ParameterError):
        mhdes.fd_oracle(params, 1.2, M=100)
    with pytest.raises(ParameterError):
        mhdes.fd_oracle(params, 1.2, M=250.5)
    for bad in BAD_NUMBERS:
        with pytest.raises(ParameterError, match="wavenumber"):
            mhdes.fd_oracle(params, bad, M=300)
    with pytest.raises(ParameterError, match="^params must be of type"):
        mhdes.fd_oracle(None, 1.2)


def test_fd_oracle_refuses_an_overflowing_fourth_power(wb):
    params = wb.params("couette", 1.0)
    for bad in (1.2e77, 1e100, 1e300):
        with pytest.raises(ParameterError, match="wavenumber a must have a "
                           "finite fourth power"):
            mhdes.fd_oracle(params, bad, M=300)


def test_fd_oracle_overflow_below_the_fourth_power_limit_is_numerical(wb):
    # a^4 is finite at 1e77 but overflows the mass product of the Lanczos
    # run; warnings are errors in this suite, so none may be raised either
    with pytest.raises(NumericalError, match="M=300"):
        mhdes.fd_oracle(wb.params("couette", 1.0), 1e77)


def test_trial_field_overflow_at_tiny_wavenumbers_is_numerical(wb):
    # u = (i/a) w' and h = (i/a) l~' grow as 1/a: at a = 1e-160 the
    # functionals overflow, near 1e-308 the completion itself (max |w'| is
    # 1.54 here); each raises NumericalError naming a, with no warning
    # (warnings are errors in this suite)
    op = wb.op(60)
    params, sample = wb.params("couette", 1.0), wb.sample("couette", 1.0, 60)
    wf = (1.0 - op.nodes**2) ** 2
    with pytest.raises(NumericalError, match="a=1e-308"):
        mhdes.make_trial_field(1e-308, 2.0 * wf, wf, op)
    fld = mhdes.make_trial_field(1e-160, wf, wf, op)
    for check in (lambda: mhdes.energy_ratio(fld, params, sample, op),
                  lambda: mhdes.decay_check(fld, params, 1.0, 2.0, sample, op),
                  lambda: mhdes.poincare_check(fld, op),
                  lambda: mhdes.random_trial_bound(params, 1e-160, 1.0,
                                                   trials=4)):
        with pytest.raises(NumericalError, match="a=1e-160"):
            check()
    # the random trials' forms overflow at the window of mhdes verify that
    # exits 3, with no injected field to raise first
    with pytest.raises(NumericalError, match="a=1e-150"):
        mhdes.random_trial_bound(params, 1e-150, 1.0)
    fld = mhdes.make_trial_field(1e-145, wf, wf, op)
    assert np.isfinite(mhdes.energy_ratio(fld, params, sample, op).ratio)
    assert mhdes.poincare_check(fld, op).satisfied


def test_fd_oracle_agrees_with_spectral_solver(wb):
    m_fd = mhdes.fd_oracle(wb.params("couette", 1.0), 1.2, M=300)
    m_sp = wb.solution("couette", 1.0, 1.2).m
    assert abs(m_fd - m_sp) <= 5e-3 * m_sp


def test_fd_oracle_grid_refinement_consistency(wb):
    params = wb.params("couette", 1.0)
    m200 = mhdes.fd_oracle(params, 1.2, M=200)
    m400 = mhdes.fd_oracle(params, 1.2, M=400)
    assert abs(m200 - m400) <= 1e-3 * abs(m400)


def test_fd_oracle_classical_threshold(wb):
    # vanishing-coupling wall-driven state on a fine grid
    m_fd = mhdes.fd_oracle(wb.params("couette", 1e-6), 1.21 * np.pi / 2.0,
                           M=2000)
    assert abs(1.0 / m_fd - 44.3) <= 0.01 * 44.3


def test_fd_lanczos_path_is_deterministic(wb):
    params = wb.params("couette", 1e-6)
    v1 = _fd_max_m(params, 1.5, 1200)
    v2 = _fd_max_m(params, 1.5, 1200)
    assert v1 == v2


def test_fd_oracle_builds_exactly_the_grids_m_and_2m(wb, monkeypatch):
    # one solve per grid and no other; the value is frozen from the
    # shift-invert solves, which the regular-mode solves match to 1e-8
    calls = []
    fd_matrices = verify._fd_matrices

    def counted(params, a, M):
        calls.append(M)
        return fd_matrices(params, a, M)

    monkeypatch.setattr(verify, "_fd_matrices", counted)
    m_fd = mhdes.fd_oracle(wb.params("couette", 1.0), 1.2, M=300)
    assert calls == [300, 600]
    assert abs(m_fd - 0.01746192513264199) <= 1e-7 * 0.01746192513264199


def test_fd_value_without_a_certificate_factor_is_rejected(wb, monkeypatch):
    # a value with no Cholesky factor FD_SHIFT m above it may be an
    # interior eigenvalue, so it is never returned
    monkeypatch.setattr(verify, "_fd_factor", lambda Lb, Sb, sigma: None)
    with pytest.raises(NumericalError, match="no Cholesky factor"):
        _fd_max_m(wb.params("couette", 1.0), 1.2, 300)


def test_fd_lanczos_without_convergence_is_a_numerical_error(wb, monkeypatch):
    monkeypatch.setattr(verify, "FD_LANCZOS_STEPS", 1)
    with pytest.raises(NumericalError, match="did not converge"):
        _fd_max_m(wb.params("couette", 1.0), 1.2, 300)


def test_fd_solve_frees_its_solver_state_at_once(wb):
    # no reference cycle may keep a solve's matrices, factors and Lanczos
    # basis alive until the cyclic collector runs
    params = wb.params("couette", 1.0)
    _fd_max_m(params, 1.2, 600)
    gc.collect()
    _fd_max_m(params, 1.2, 600)
    assert gc.collect() == 0


FD_BAND_CASES = [("couette", 1.0), ("hartmann", 10.0)]
# both grids leave the last block of the block Cholesky kernel part-filled,
# padded with identity, in S and in the interleaved pencil
FD_BAND_GRIDS = (200, 201)


def _sparse_fd_matrices(params, a, M):
    """Reference FD pencil (-L/2, Mm) as interleaved sparse matrices, built
    by Kronecker products of the field blocks; _fd_matrices must reproduce
    every entry of it bit for bit."""
    h = 2.0 / (M + 1)
    z = -1.0 + h * np.arange(1, M + 1)
    smp = mhdes.profile_for(params, z)
    e = np.ones(M)
    D1 = sp.diags([-e[:-1], e[:-1]], [-1, 1]) / (2.0 * h)
    D2 = sp.diags([e[:-1], -2.0 * e, e[:-1]], [-1, 0, 1]) / h**2
    main4 = 6.0 * e.copy()
    main4[0] += 1.0
    main4[-1] += 1.0
    D4 = sp.diags([e[:-2], -4.0 * e[:-1], main4, -4.0 * e[:-1], e[:-2]],
                  [-2, -1, 0, 1, 2]) / h**4
    S = D4 - 2.0 * a * a * D2 + a**4 * sp.eye(M)
    dU = sp.diags(smp.Uprime)
    T = 1j * a * (dU @ D1 + D1 @ dU)
    C = 1j * a * params.Ha * params.Pm * sp.diags(smp.Bsecond)
    L = (sp.kron(T, np.diag([1.0, -params.Pm]))
         + sp.kron(C, np.array([[0.0, -1.0], [1.0, 0.0]])))
    return (-0.5 * L).tocsr(), sp.kron(S, np.eye(2)).tocsr()


def _hermitian_from_bands(ab):
    kd, n = ab.shape[0] - 1, ab.shape[1]
    A = np.zeros((n, n), dtype=ab.dtype)
    for k in range(kd + 1):
        i = np.arange(n - k)
        A[i, i + k] = ab[kd - k, k:]
        A[i + k, i] = ab[kd - k, k:].conj()
    return A


@pytest.mark.parametrize("flow,Ha", FD_BAND_CASES)
def test_fd_band_storage_rebuilds_interleaved_pencil(wb, flow, Ha):
    params = wb.params(flow, Ha)
    for M in FD_BAND_GRIDS:
        Lh, Mm = _sparse_fd_matrices(params, 1.2, M)
        Lb, Sb = verify._fd_matrices(params, 1.2, M)
        assert Lb.shape == (verify.FD_KD + 1, 2 * M)
        assert np.array_equal(_hermitian_from_bands(Lb), Lh.toarray())
        assert np.array_equal(np.kron(_hermitian_from_bands(Sb), np.eye(2)),
                              Mm.toarray())


@pytest.mark.parametrize("M", FD_BAND_GRIDS + (224,))
def test_block_cholesky_solves_the_energy_form(wb, M):
    # 224 nodes fill every block of S exactly
    _, Sb = verify._fd_matrices(wb.params("hartmann", 10.0), 1.2, M)
    S = _hermitian_from_bands(Sb)
    b = np.random.default_rng(3).standard_normal((M, 4))
    x = verify._block_solver(*verify._block_cholesky(
        *verify._band_blocks(Sb, verify.FD_BLOCK)))(b)
    ref = sla.solve(S, b, assume_a="pos")
    assert np.max(np.abs(x - ref)) <= 1e-9 * np.max(np.abs(ref))


def _dense_fd_top(params, a, M):
    Lh, Mm = _sparse_fd_matrices(params, a, M)
    n = Lh.shape[0]
    return sla.eigh(Lh.toarray(), Mm.toarray(), eigvals_only=True,
                    subset_by_index=[n - 1, n - 1])[0]


@pytest.mark.parametrize("flow,Ha", FD_BAND_CASES)
def test_fd_banded_top_eigenvalue_matches_dense_solve(wb, flow, Ha):
    params = wb.params(flow, Ha)
    for M in FD_BAND_GRIDS:
        m_dense = _dense_fd_top(params, 1.2, M)
        assert abs(_fd_max_m(params, 1.2, M) - m_dense) <= 1e-9 * m_dense


@pytest.mark.parametrize("flow,Ha", FD_BAND_CASES)
def test_fd_cholesky_certifies_shift_above_top_eigenvalue(wb, flow, Ha):
    params = wb.params(flow, Ha)
    m = _dense_fd_top(params, 1.2, 200)
    Lb, Sb = verify._fd_matrices(params, 1.2, 200)
    assert verify._fd_factor(Lb, Sb, 1.001 * m) is not None
    assert verify._fd_factor(Lb, Sb, 0.999 * m) is None


CLAIM_KEYS = ["ratio_identity", "random_trial_bound", "decay_below_threshold",
              "poincare", "fd_oracle"]


def solved_claim(flow, Ha, a=1.2, N=40):
    """The eigenfield and m of one solve, on the operator of setup, as
    mhdes verify forms them."""
    params = mhdes.Params(flow=flow, Ha=Ha, Pm=0.1)
    op, maps = spectral.setup(N)
    sample = mhdes.profile_for(params, op.nodes)
    sol = mhdes.solve_max_m(mhdes.assemble_pencil(params, a, op, sample,
                                                  maps))
    field = mhdes.make_trial_field(a, sol.w_hat, sol.l_hat, op)
    return field, params, sol.m, sample, op


@pytest.mark.parametrize("flow,Ha", [("couette", 1.0), ("hartmann", 10.0)])
def test_check_claim_is_the_report_of_mhdes_verify(flow, Ha, capsys):
    field, params, m, sample, op = solved_claim(flow, Ha)
    checks = mhdes.check_claim(field, params, m, m, 42, sample, op)
    assert list(checks) == CLAIM_KEYS
    assert all(c["passed"] for c in checks.values())
    assert cli.main(["verify", "--flow", flow, "--ha", str(Ha), "--n", "40",
                     "--seed", "42"]) == 0
    point, = json.loads(capsys.readouterr().out)["points"]
    assert point["a"] == 1.2 and point["m"] == m
    assert checks == point["checks"]


@pytest.mark.parametrize("flow,Ha", [("couette", 1.0), ("hartmann", 10.0)])
def test_check_claim_catches_an_understated_claim(flow, Ha):
    field, params, m, sample, op = solved_claim(flow, Ha)
    checks = mhdes.check_claim(field, params, m, m * (1.0 - 1e-3), 42, sample,
                               op)
    assert list(checks) == CLAIM_KEYS
    assert [k for k, c in checks.items() if not c["passed"]] == [
        "ratio_identity", "random_trial_bound"]
    assert checks["random_trial_bound"]["report"]["trial_index"] == -1


@pytest.mark.parametrize("name,m_claimed,seed", [
    ("m_claimed", 0.0, 42), ("m_claimed", np.nan, 42), ("seed", 1.0, -1)])
def test_check_claim_refuses_a_bad_claim_or_seed(name, m_claimed, seed):
    field, params, m, sample, op = solved_claim("couette", 1.0)
    with pytest.raises(ParameterError, match=name):
        mhdes.check_claim(field, params, m, m_claimed, seed, sample, op)


def test_no_module_imports_another_modules_private_names():
    # verify is the independent route: it shares the grid and the base
    # flow with the solver, never the solver itself
    src = os.path.dirname(os.path.abspath(mhdes.__file__))
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                private = [a.name for a in node.names
                           if a.name.startswith("_")]
                assert not private, (name, node.module, private)
                if name == "verify.py":
                    assert node.module not in ("orr_evp", "critical", "cli")
