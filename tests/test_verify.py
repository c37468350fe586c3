"""Independent energy functionals, decay certificates, and the FD oracle."""

import gc
import json

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

import mhdes
from mhdes import verify
from mhdes.errors import (ConsistencyError, NumericalError, ParameterError,
                          VerificationError)
from mhdes.verify import (POINCARE_BOUND, TRIAL_RTOL, _fd_max_m, _functionals,
                          _random_clamped_fields)

# closed-form functional values for polynomial trial fields (exact integrals
# of the envelope (1-z^2)^2 against the wall-driven base state at Ha = 1),
# frozen from a computer-algebra evaluation
ENVELOPE_D1_A1 = 1408.0 / 45.0
MODULATED_I = 115968.0 - 88320.0 / np.tanh(1.0)
MODULATED_D1 = 177664.0 / 3465.0


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


@pytest.mark.parametrize("flow, Ha", [("couette", 1.0), ("hartmann", 10.0)])
def test_batched_trials_match_per_field_loop(wb, flow, Ha):
    # the batch draws the per-field stream bit for bit, evaluates the same
    # fields, and its ratios are those of energy_ratio field by field
    params, op = wb.params(flow, Ha), wb.op(60)
    sample = wb.sample(flow, Ha, 60)
    cw, cl, fields = _random_clamped_fields(np.random.default_rng(7), 50,
                                            1.2, op)
    prod, diss1, _ = _functionals(fields, params, sample, op)
    ratios = prod / diss1
    # a ratio near zero is a cancellation in I, whose rounding scales with
    # the batch's larger ratios, not with its own size
    scale = np.max(np.abs(ratios))
    rng = np.random.default_rng(7)
    env = (1.0 - op.nodes**2) ** 2
    for t in range(50):
        w_coef = rng.standard_normal(57) + 1j * rng.standard_normal(57)
        l_coef = rng.standard_normal(57) + 1j * rng.standard_normal(57)
        assert np.array_equal(cw[t], w_coef) and np.array_equal(cl[t], l_coef)
        wf = env * ncheb.chebval(op.nodes, w_coef)
        lf = env * ncheb.chebval(op.nodes, l_coef)
        assert np.array_equal(fields.w_hat[t], wf)
        assert np.array_equal(fields.l_hat[t], lf)
        one = mhdes.energy_ratio(mhdes.make_trial_field(1.2, wf, lf, op),
                                 params, sample, op)
        assert abs(ratios[t] - one.ratio) <= 1e-14 * scale


def test_falsification_names_first_random_offender(wb):
    # a claim below some random ratios is falsified by the first of them,
    # and the reported coefficients rebuild that very field
    params, op = wb.params("couette", 1.0), wb.op(60)
    sample = wb.sample("couette", 1.0, 60)
    _, _, fields = _random_clamped_fields(np.random.default_rng(3), 200,
                                          1.2, op)
    prod, diss1, _ = _functionals(fields, params, sample, op)
    ratios = prod / diss1
    claim = float(np.quantile(ratios, 0.9))
    first = int(np.flatnonzero(ratios > claim * (1.0 + TRIAL_RTOL))[0])
    assert first > 0
    with pytest.raises(VerificationError) as excinfo:
        mhdes.random_trial_bound(params, 1.2, claim, trials=200, seed=3)
    report = excinfo.value.report
    assert report["trial_index"] == first
    coeffs = {k: np.array([complex(re, im) for re, im in v])
              for k, v in report["field_coefficients"].items()}
    env = (1.0 - op.nodes**2) ** 2
    fld = mhdes.make_trial_field(1.2, env * ncheb.chebval(op.nodes, coeffs["w"]),
                                 env * ncheb.chebval(op.nodes, coeffs["l"]), op)
    ratio = mhdes.energy_ratio(fld, params, sample, op).ratio
    assert abs(ratio - report["ratio"]) <= 1e-14 * abs(ratio)
    json.dumps(report)


def test_trial_bound_validation(wb):
    params = wb.params("couette", 1.0)
    with pytest.raises(ParameterError):
        mhdes.random_trial_bound(params, 1.2, 0.0, trials=10, seed=0)
    with pytest.raises(ParameterError):
        mhdes.random_trial_bound(params, 1.2, 1.0, trials=0, seed=0)
    for trials, seed in ((2.5, 0), (True, 0), (10, -1), (10, 1.5)):
        with pytest.raises(ParameterError):
            mhdes.random_trial_bound(params, 1.2, 1.0, trials=trials,
                                     seed=seed)


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


def test_fd_shift_invert_path_is_deterministic(wb):
    params = wb.params("couette", 1e-6)
    v1 = _fd_max_m(params, 1.5, 1200)
    v2 = _fd_max_m(params, 1.5, 1200)
    assert v1 == v2


def test_fd_oracle_seeds_fine_grid_with_coarse_value(wb, monkeypatch):
    # grid M's value places the shift for grid 2M, so no third solve runs;
    # the value is the one of the separate coarse-estimate solve it replaced
    calls = []
    fd_matrices = verify._fd_matrices

    def counted(params, a, M):
        calls.append(M)
        return fd_matrices(params, a, M)

    monkeypatch.setattr(verify, "_fd_matrices", counted)
    m_fd = mhdes.fd_oracle(wb.params("couette", 1.0), 1.2, M=300)
    assert calls == [300, 600]
    assert abs(m_fd - 0.01746192513264199) <= 1e-7 * 0.01746192513264199


def test_fd_shift_below_top_eigenvalue_is_rejected(wb):
    params = wb.params("couette", 1.0)
    m = _fd_max_m(params, 1.2, 600, m_near=0.0174622)
    assert abs(m - 0.0174622) <= 1e-4 * m
    # a shift just below the top eigenvalue, and one far below it, where
    # shift-invert would land on an interior eigenvalue
    for frac in (0.9, 0.5):
        with pytest.raises(NumericalError, match="shift"):
            _fd_max_m(params, 1.2, 600, m_near=frac * m / 1.05)


def test_fd_solve_frees_its_solver_state_at_once(wb):
    # eigsh's ARPACK state is a reference cycle; left to the cyclic
    # collector, each solve's matrices and Lanczos basis would linger
    params = wb.params("couette", 1.0)
    _fd_max_m(params, 1.2, 600, m_near=0.0174622)
    gc.collect()
    _fd_max_m(params, 1.2, 600, m_near=0.0174622)
    assert gc.collect() == 0


FD_BAND_CASES = [("couette", 1.0), ("hartmann", 10.0)]


@pytest.mark.parametrize("flow,Ha", FD_BAND_CASES)
def test_fd_band_storage_rebuilds_interleaved_pencil(wb, flow, Ha):
    for A in verify._fd_matrices(wb.params(flow, Ha), 1.2, 200):
        ab = verify._fd_bands(A)
        upper = sum(sp.diags(ab[verify.FD_KD - k, k:], k)
                    for k in range(verify.FD_KD + 1))
        rebuilt = upper + sp.triu(upper, 1).conj().T
        assert np.array_equal(rebuilt.toarray(), A.toarray())


def _dense_fd_top(params, a, M):
    Lh, Mm = verify._fd_matrices(params, a, M)
    n = Lh.shape[0]
    return sla.eigh(Lh.toarray(), Mm.toarray(), eigvals_only=True,
                    subset_by_index=[n - 1, n - 1])[0]


@pytest.mark.parametrize("flow,Ha", FD_BAND_CASES)
def test_fd_banded_top_eigenvalue_matches_dense_solve(wb, flow, Ha):
    params = wb.params(flow, Ha)
    m_dense = _dense_fd_top(params, 1.2, 200)
    assert abs(_fd_max_m(params, 1.2, 200) - m_dense) <= 1e-9 * m_dense


@pytest.mark.parametrize("flow,Ha", FD_BAND_CASES)
def test_fd_cholesky_certifies_shift_above_top_eigenvalue(wb, flow, Ha):
    params = wb.params(flow, Ha)
    m = _dense_fd_top(params, 1.2, 200)
    Lb, Mb = (verify._fd_bands(A)
              for A in verify._fd_matrices(params, 1.2, 200))
    assert verify._fd_factor(Lb, Mb, 1.001 * m) is not None
    assert verify._fd_factor(Lb, Mb, 0.999 * m) is None


def test_fd_shift_bracket_gives_up_without_a_factor(monkeypatch):
    # a pencil with no factor at any shift (not finite, say) raises
    # instead of stepping the shift forever
    monkeypatch.setattr(verify, "_fd_factor", lambda Lb, Mb, sigma: None)
    with pytest.raises(NumericalError, match="bracket"):
        verify._fd_bracket_shift(None, None, 300)
