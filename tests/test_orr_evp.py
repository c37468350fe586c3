"""Clamped eigenvalue pencil: structure, solves, thresholds, symmetries."""

import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

import mhdes
from mhdes.errors import ConsistencyError, NumericalError, ParameterError
from mhdes.orr_evp import EvpPencil, _assemble

# growth-ratio anchors frozen from an independent dense-assembly prototype
# (N = 60, Pm = 0.1, a = 1.2)
M_ANCHORS = {
    ("couette", 0.1): 1.956249300772e-02,
    ("couette", 1.0): 1.746192336588e-02,
    ("couette", 50.0): 8.687129524944e-05,
    ("hartmann", 0.1): 9.367331767963e-03,
    ("hartmann", 10.0): 1.567877380780e-03,
    ("hartmann", 50.0): 8.631781157519e-05,
}

# thresholds of the vanishing-coupling limit, frozen from a finite-difference
# Richardson oracle; the half-gap wavenumbers 1.8934 and 2.0986 correspond to
# 1.2055 and 1.3361 in gap/pi units
HYDRO_ANCHORS = {
    ("couette", 1.21): 50.820150,
    ("couette", 1.8934): 44.303547,
    ("hartmann", 2.0986): 87.593685,
}


def test_mass_matrix_symmetric_positive_definite(wb):
    pen = wb.pencil("couette", 1.0, 1.0, N=50)
    M = pen.S
    assert np.isrealobj(M)
    assert np.array_equal(M, M.T)
    assert np.linalg.eigvalsh(M).min() > 0


def test_pencil_matrix_hermitian(wb):
    # i K is Hermitian exactly when the real K is antisymmetric
    for flow, Ha in (("couette", 1.0), ("hartmann", 10.0)):
        K = wb.pencil(flow, Ha, 1.2, N=40).K
        assert np.isrealobj(K)
        assert np.array_equal(K, -K.T)


def test_reassembly_is_deterministic(wb):
    p1 = wb.pencil("hartmann", 10.0, 1.7, N=40)
    p2 = wb.pencil("hartmann", 10.0, 1.7, N=40)
    assert np.array_equal(p1.K, p2.K)
    assert np.array_equal(p1.S, p2.S)


def test_wavenumber_enters_only_through_stated_factors(wb):
    # the circulation side is linear in a, so doubling a doubles it exactly;
    # the energy side changes only through the two a-weighted form terms
    a = 0.8125
    p1 = wb.pencil("couette", 1.0, a, N=40)
    p2 = wb.pencil("couette", 1.0, 2 * a, N=40)
    assert np.array_equal(p2.K, 2.0 * p1.K)
    mp = wb.maps(40)
    qw = wb.op(40).qweights
    Q1 = mp.basis_d1.T @ (qw[:, None] * mp.basis_d1)
    Q0 = mp.inject.T @ (qw[:, None] * mp.inject)
    want = (6.0 * a * a * 0.5 * (Q1 + Q1.T)
            + 15.0 * a**4 * 0.5 * (Q0 + Q0.T))
    got = p2.S - p1.S
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_zero_coupling_strength_decouples_magnetic_field(wb):
    # zero coupling blocks leave two sectors; with Pm < 1 the top mode
    # stays in the velocity sector
    pen = wb.pencil("couette", 1.0, 1.2, N=40)
    nm = pen.S.shape[0]
    K = pen.K.copy()
    K[:nm, nm:] = 0.0
    K[nm:, :nm] = 0.0
    sol = mhdes.solve_max_m(dataclasses.replace(pen, K=K))
    assert np.max(np.abs(sol.l_hat)) <= 1e-10 * np.max(np.abs(sol.w_hat))


def test_solve_properties(wb):
    for flow, Ha in (("couette", 1.0), ("hartmann", 50.0)):
        sol = wb.solution(flow, Ha, 1.2)
        assert sol.m > 0
        assert sol.Re_a == 1.0 / sol.m
        assert sol.residual <= 1e-8
        assert sol.w_hat[0] == 0.0 and sol.w_hat[-1] == 0.0


@pytest.mark.parametrize("flow", ["couette", "hartmann"])
@pytest.mark.parametrize(
    "Ha,Pm", [(1e-6, 0.1), (10.0, 0.1), (300.0, 0.1), (1e-6, 1.0), (1e-6, 10.0)],
    ids=["1e-06", "10.0", "300.0", "1e-06-Pm1", "1e-06-Pm10"])
def test_slope_matches_central_difference(wb, flow, Ha, Pm):
    # the Hellmann-Feynman slope the minimizer follows, against a central
    # difference of m; at Ha = 1e-6 the top mode is the velocity sector's
    # for Pm < 1 and the magnetic sector's for Pm > 1, and at Pm = 1 the
    # two sectors' top eigenvalues coincide up to the coupling
    for a in (0.5, 1.2, 5.0, 20.0):
        sol = wb.solution(flow, Ha, a, Pm=Pm)
        h = 1e-4 * a
        fd = (wb.solution(flow, Ha, a + h, Pm=Pm).m
              - wb.solution(flow, Ha, a - h, Pm=Pm).m) / (2.0 * h)
        assert abs(sol.dm_da - fd) <= 1e-6 * abs(fd)


@pytest.mark.parametrize("flow,Ha", sorted(M_ANCHORS))
def test_growth_ratio_anchor_values(wb, flow, Ha):
    sol = wb.solution(flow, Ha, 1.2)
    ref = M_ANCHORS[(flow, Ha)]
    assert abs(sol.m - ref) <= 1e-8 * ref


@pytest.mark.parametrize("flow,a", sorted(HYDRO_ANCHORS))
def test_vanishing_coupling_thresholds(wb, flow, a):
    sol = wb.solution(flow, 1e-6, a)
    ref = HYDRO_ANCHORS[(flow, a)]
    assert abs(sol.Re_a - ref) <= 1e-6 * ref


def test_classical_wall_driven_threshold_in_gap_units(wb):
    # half-gap wavenumber 1.21 * pi / 2 sits within 1% of the classical
    # threshold 44.3 quoted at wavenumber 1.21 in gap/pi units
    sol = wb.solution("couette", 1e-6, 1.21 * np.pi / 2.0)
    assert abs(sol.Re_a - 44.3) <= 0.01 * 44.3


@pytest.mark.parametrize("flow,a", sorted(HYDRO_ANCHORS))
@pytest.mark.parametrize("Pm", [0.1, 2.0, 10.0])
def test_vanishing_coupling_limit_is_the_larger_sector(wb, flow, a, Pm):
    # as Ha -> 0 the magnetic sector keeps its own production, Pm times the
    # velocity sector's, so m tends to max(1, Pm) times the hydro value
    sol = wb.solution(flow, 1e-8, a, Pm=Pm)
    ref = HYDRO_ANCHORS[(flow, a)] / max(1.0, Pm)
    assert abs(sol.Re_a - ref) <= 1e-6 * ref


@pytest.mark.parametrize("Pm", [0.1, 2.0, 10.0])
def test_threshold_is_continuous_at_small_hartmann_number(wb, Pm):
    # one pencil at every Ha: no jump across the base-flow series switch
    below = mhdes.minimize_over_a(wb.params("couette", 1e-5, Pm), 0.2, 4.0,
                                  N=60)
    above = mhdes.minimize_over_a(wb.params("couette", 2e-4, Pm), 0.2, 4.0,
                                  N=60)
    assert below.converged and above.converged
    assert abs(below.Re_E - above.Re_E) <= 1e-6 * above.Re_E
    ref = HYDRO_ANCHORS[("couette", 1.8934)] / max(1.0, Pm)
    assert abs(above.Re_E - ref) <= 1e-4


def test_wavenumber_sign_symmetry(wb):
    rng = np.random.default_rng(90)
    for _ in range(3):
        flow = rng.choice(["couette", "hartmann"])
        Ha = 10.0 ** rng.uniform(-1, 1.5)
        a = 10.0 ** rng.uniform(-0.3, 0.4)
        op = wb.op(50)
        params = mhdes.Params(flow=flow, Ha=float(Ha), Pm=0.1)
        sample = mhdes.profile_for(params, op.nodes)
        mp = wb.maps(50)
        mpos = mhdes.solve_max_m(_assemble(params, a, op, sample, mp)).m
        mneg = mhdes.solve_max_m(_assemble(params, -a, op, sample, mp)).m
        assert abs(mpos - mneg) <= 1e-10 * mpos


def test_threshold_curve_basic(wb):
    params = wb.params("couette", 0.1)
    curve = mhdes.reynolds_curve(params, [0.5, 1.0, 1.5, 2.0], N=50)
    assert len(curve) == 4
    for a, re_a in curve:
        assert np.isfinite(re_a) and re_a > 0


def test_threshold_curve_singleton_matches_direct_solve(wb):
    params = wb.params("couette", 0.1)
    ((a, re_a),) = mhdes.reynolds_curve(params, [1.21], N=60)
    direct = wb.solution("couette", 0.1, 1.21).Re_a
    assert a == 1.21
    assert abs(re_a - direct) <= 1e-13 * direct


@pytest.mark.parametrize("flow,Ha", [("couette", 1.0), ("hartmann", 50.0)])
def test_threshold_curve_resolution_consistency(wb, flow, Ha):
    grid = [0.5, 1.0, 1.5, 2.0]
    params = wb.params(flow, Ha)
    c50 = mhdes.reynolds_curve(params, grid, N=50)
    c70 = mhdes.reynolds_curve(params, grid, N=70)
    for (_, r50), (_, r70) in zip(c50, c70):
        assert abs(r50 - r70) <= 1e-3 * r70


def test_threshold_curve_validation(wb):
    params = wb.params("couette", 1.0)
    with pytest.raises(ParameterError):
        mhdes.reynolds_curve(params, [], N=50)
    with pytest.raises(ParameterError):
        mhdes.reynolds_curve(params, [0.5, -1.0], N=50)
    for bad in ([[0.5, 1.0], [1.5, 2.0]], ["x"], "abc"):
        with pytest.raises(ParameterError, match="a_grid"):
            mhdes.reynolds_curve(params, bad, N=50)


def test_assembly_validation(wb):
    op = wb.op(50)
    mp = wb.maps(50)
    params = wb.params("couette", 1.0)
    sample = wb.sample("couette", 1.0, 50)
    with pytest.raises(ParameterError):
        mhdes.assemble_pencil(params, 0.0, op, sample, mp)
    with pytest.raises(ParameterError):
        mhdes.assemble_pencil(params, -1.2, op, sample, mp)
    with pytest.raises(ConsistencyError):
        mhdes.assemble_pencil(wb.params("couette", 2.0), 1.2, op, sample, mp)
    with pytest.raises(ConsistencyError):
        mhdes.assemble_pencil(wb.params("hartmann", 1.0), 1.2, op, sample, mp)
    with pytest.raises(ConsistencyError):
        mhdes.assemble_pencil(params, 1.2, op, wb.sample("couette", 1.0, 60), mp)
    with pytest.raises(ConsistencyError):
        mhdes.assemble_pencil(params, 1.2, op, sample, wb.maps(60))
    with pytest.raises(ParameterError):
        mhdes.solve_max_m(np.eye(4))


def test_solve_rejects_non_hermitian_or_indefinite_pencil(wb):
    # the real Cholesky-whitened solve must refuse a pencil without the
    # real-antisymmetric-over-SPD structure instead of returning a wrong
    # eigenvalue; the cases reach each of the three guards
    rng = np.random.default_rng(3)
    n = 10
    X = rng.standard_normal((2 * n, 2 * n))
    A = X - X.T
    B = X[:n, :n]

    def pencil(K, S):
        return EvpPencil(a=1.0, K=K, S=S, dS=np.zeros((n, n)),
                         params=wb.params("couette", 1.0), maps=wb.maps(13))

    with pytest.raises(NumericalError, match="complex"):
        mhdes.solve_max_m(pencil(A + 0j, np.eye(n)))
    with pytest.raises(NumericalError, match="complex"):
        mhdes.solve_max_m(pencil(A, np.eye(n) + 0j))
    with pytest.raises(NumericalError, match="not antisymmetric"):
        mhdes.solve_max_m(pencil(X, np.eye(n)))
    with pytest.raises(NumericalError, match="not symmetric"):
        mhdes.solve_max_m(pencil(A, np.eye(n) + 0.1 * B))
    with pytest.raises(NumericalError, match="positive definite"):
        mhdes.solve_max_m(pencil(A, -np.eye(n)))


@pytest.mark.parametrize("flow", ["couette", "hartmann"])
@pytest.mark.parametrize("N", [40, 80])
def test_real_solve_matches_hermitian_reference(wb, flow, N):
    # a generalized Hermitian eigh on the complex pencil is the reference
    # route for the real Cholesky-whitened solve
    for Ha in (1e-6, 0.1, 10.0, 300.0):
        for a in (0.3, 1.2, 20.0):
            pen = wb.pencil(flow, Ha, a, N=N)
            n = pen.K.shape[0]
            ref = sla.eigh(1j * pen.K, np.kron(np.eye(2), pen.S),
                           subset_by_index=[n - 1, n - 1],
                           eigvals_only=True)[0]
            sol = mhdes.solve_max_m(pen)
            assert abs(sol.m - ref) <= 1e-9 * ref
            assert sol.residual <= 1e-8


def test_threshold_search_runs_without_scipy_linalg(wb, monkeypatch):
    # the solver's hot path must stay on NumPy's BLAS alone; a SciPy call
    # there would wake a second BLAS thread pool on every wavenumber
    def refuse(*args, **kwargs):
        raise AssertionError("scipy.linalg called in the solver hot path")

    for name in ("eigh", "cholesky", "solve_triangular"):
        monkeypatch.setattr(sla, name, refuse)
    params = wb.params("couette", 1.0)
    curve = mhdes.reynolds_curve(params, [0.5, 1.2, 3.0], N=40)
    assert all(np.isfinite(re_a) and re_a > 0 for _, re_a in curve)
    point = mhdes.minimize_over_a(params, 0.2, 4.0, N=40)
    assert point.converged and np.isfinite(point.Re_E)
