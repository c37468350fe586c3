"""Clamped eigenvalue pencil: structure, solves, thresholds, symmetries."""

import dataclasses
import itertools

import numpy as np
import pytest
import scipy.linalg as sla

import mhdes
from mhdes import spectral
from mhdes.errors import (ConsistencyError, NumericalError, ParameterError,
                          wavenumber)
from mhdes.orr_evp import EvpPencil, _assemble, pencil_forms

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


def parity_halves(n):
    """Indices of P1 = {w even, l~ odd} and P2 = {w odd, l~ even} in
    q = (w, l~) of n modal coefficients per field."""
    ev, od = np.arange(0, n, 2), np.arange(1, n, 2)
    return np.r_[ev, n + od], np.r_[od, n + ev]


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
    # in the last case the velocity and magnetic sectors coincide up to
    # the coupling Ha Pm, so the top singular value of B is near-double
    for flow, Ha, Pm, a, tol in (("couette", 1.0, 0.1, 1.2, 1e-8),
                                 ("hartmann", 50.0, 0.1, 1.2, 1e-8),
                                 ("couette", 1e-6, 1.0, 20.0, 1e-11)):
        sol = wb.solution(flow, Ha, a, Pm=Pm)
        assert sol.m > 0
        assert sol.Re_a == 1.0 / sol.m
        assert sol.residual <= tol
        assert sol.w_hat[0] == 0.0 and sol.w_hat[-1] == 0.0


@pytest.mark.parametrize("flow", ["couette", "hartmann"])
@pytest.mark.parametrize(
    "Ha,Pm", [(1e-6, 0.1), (10.0, 0.1), (300.0, 0.1), (1e-6, 1.0), (1e-6, 10.0)],
    ids=["1e-06", "10.0", "300.0", "1e-06-Pm1", "1e-06-Pm10"])
def test_slope_matches_central_difference(wb, flow, Ha, Pm):
    # the Hellmann-Feynman slope of the solved eigenvector against a
    # central difference of m checks the eigenvector; at Ha = 1e-6 the top
    # mode is the velocity sector's for Pm < 1 and the magnetic sector's
    # for Pm > 1, and at Pm = 1 the two sectors' top eigenvalues coincide
    # up to the coupling
    for a in (0.5, 1.2, 5.0, 20.0):
        h = 1e-4 * a
        fd = (wb.solution(flow, Ha, a + h, Pm=Pm).m
              - wb.solution(flow, Ha, a - h, Pm=Pm).m) / (2.0 * h)
        assert abs(wb.slope(flow, Ha, a, Pm=Pm) - fd) <= 1e-6 * abs(fd)


@pytest.mark.parametrize("flow", ["couette", "hartmann"])
def test_frozen_eigenvector_step_descends_along_the_slope(wb, flow):
    # T(a) minimizes Re_a with the eigenvector solved at a held fixed, and
    # m(T) is at least that eigenvector's Rayleigh quotient there, so the
    # step never raises Re_a and moves the way the slope points, far from
    # the minimum and beside it, with no single-minimum assumption
    for Ha, Pm in ((1e-3, 0.1), (1.0, 0.01), (10.0, 1.0), (50.0, 10.0)):
        params = wb.params(flow, Ha, Pm)
        forms = pencil_forms(params, wb.op(60), wb.sample(flow, Ha, 60),
                             wb.maps(60))
        a_crit = mhdes.minimize_over_a(params, 0.2, 30.0, N=60).a_crit
        for a in (0.3, 25.0, a_crit * (1 - 1e-3), a_crit, a_crit * (1 + 1e-3)):
            sol = wb.solution(flow, Ha, a, Pm=Pm)
            t = forms.frozen_argmin(sol.q)
            stepped = mhdes.solve_max_m(forms.at(t))
            assert stepped.Re_a <= sol.Re_a * (1.0 + 1e-12)
            slope = wb.slope(flow, Ha, a, Pm=Pm)
            if abs(slope) > 1e-8 * sol.m / a:
                assert np.sign(t - a) == np.sign(slope)


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
    for bad in ([[0.5, 1.0], [1.5, 2.0]], ["x"], "abc", [True]):
        with pytest.raises(ParameterError, match="a_grid"):
            mhdes.reynolds_curve(params, bad, N=50)
    with pytest.raises(ParameterError, match="^params must be of type"):
        mhdes.reynolds_curve(None, [1.0], N=50)


def test_assembly_validation(wb):
    op = wb.op(50)
    mp = wb.maps(50)
    params = wb.params("couette", 1.0)
    sample = wb.sample("couette", 1.0, 50)
    with pytest.raises(ParameterError):
        mhdes.assemble_pencil(params, 0.0, op, sample, mp)
    with pytest.raises(ParameterError):
        mhdes.assemble_pencil(params, -1.2, op, sample, mp)
    for bad in ("x", None, True, np.nan):
        with pytest.raises(ParameterError, match="wavenumber"):
            mhdes.assemble_pencil(params, bad, op, sample, mp)
    with pytest.raises(ConsistencyError):
        mhdes.assemble_pencil(wb.params("couette", 2.0), 1.2, op, sample, mp)
    with pytest.raises(ConsistencyError):
        mhdes.assemble_pencil(wb.params("hartmann", 1.0), 1.2, op, sample, mp)
    with pytest.raises(ConsistencyError):
        mhdes.assemble_pencil(params, 1.2, op, wb.sample("couette", 1.0, 60), mp)
    with pytest.raises(ConsistencyError):
        mhdes.assemble_pencil(params, 1.2, op, sample, wb.maps(60))
    with pytest.raises(ParameterError, match="^maps must be of type"):
        pencil_forms(params, op, sample, "x")
    with pytest.raises(ParameterError):
        mhdes.solve_max_m(np.eye(4))


# a^4 overflows from a = 1.16e77 on, and a Python float's a**4 raises there
OVERFLOWING_WAVENUMBERS = (1.2e77, 1e100, 1e300)


def test_wavenumber_check_needs_a_finite_fourth_power():
    assert wavenumber(1e77, "a") == 1e77
    for bad in OVERFLOWING_WAVENUMBERS:
        with pytest.raises(ParameterError, match="a must have a finite "
                           "fourth power"):
            wavenumber(bad, "a")


def test_assembly_refuses_an_overflowing_fourth_power(wb):
    params = wb.params("couette", 1.0)
    for bad in OVERFLOWING_WAVENUMBERS:
        with pytest.raises(ParameterError, match="wavenumber a"):
            mhdes.assemble_pencil(params, bad, wb.op(50),
                                  wb.sample("couette", 1.0, 50), wb.maps(50))


def test_curve_refuses_an_overflowing_fourth_power(wb):
    params = wb.params("couette", 1.0)
    for bad in OVERFLOWING_WAVENUMBERS:
        with pytest.raises(ParameterError, match="a_grid entries"):
            mhdes.reynolds_curve(params, [1.0, bad], N=50)


# m tends to c a as a -> 0, where S tends to Q2 and K is linear in a, and
# to c a^-3 as a -> inf, where S tends to a^4 Q0
SMALL_WAVENUMBERS = [10.0**k for k in range(-300, -99)]
LARGE_WAVENUMBERS = [10.0**k for k in range(39, 77)] + [1.15e77]


@pytest.mark.parametrize("N", [40, 60])
@pytest.mark.parametrize("flow", ["couette", "hartmann"])
def test_solve_spans_the_whole_wavenumber_range(wb, flow, N):
    # LAPACK's SVD scales the whitened block itself and B / m has unit
    # norm, so m keeps its power law and the eigenvector stays finite (a
    # RuntimeWarning fails the suite) at both ends, down to the last a
    # whose threshold 1/m is a float
    forms = pencil_forms(wb.params(flow, 1.0), wb.op(N),
                         wb.sample(flow, 1.0, N), wb.maps(N))
    for grid, power, rtol in ((SMALL_WAVENUMBERS, -1, 1e-12),
                              (LARGE_WAVENUMBERS, 3, 1e-5)):
        scaled = []
        for a in grid:
            sol = mhdes.solve_max_m(forms.at(a))
            assert np.all(np.isfinite(sol.q)), a
            scaled.append(sol.m * a**power)
        np.testing.assert_allclose(scaled, scaled[0], rtol=rtol)
    with pytest.raises(NumericalError, match="no finite positive threshold"):
        mhdes.solve_max_m(forms.at(1e-307))


@pytest.mark.parametrize("flow", ["couette", "hartmann"])
def test_solution_carries_the_rescaled_field_at_vanishing_ha(wb, flow):
    # l_hat is l~ = Ha l, the injected magnetic row of q: at Ha = 1e-300 l
    # itself reaches 1e279, and its energy Ha^2 Pm |l|^2 would overflow
    pen = wb.pencil(flow, 1e-300, 1.2)
    sol = mhdes.solve_max_m(pen)
    assert np.array_equal(sol.l_hat, pen.maps.inject @ sol.q[1])
    assert np.all(np.isfinite(sol.l_hat))
    ratio = mhdes.energy_ratio(wb.eig_field(flow, 1e-300, 1.2),
                               wb.params(flow, 1e-300),
                               wb.sample(flow, 1e-300, 60), wb.op(60)).ratio
    assert abs(ratio - sol.m) <= 1e-8 * sol.m


def test_solve_rejects_non_hermitian_or_indefinite_pencil(wb):
    # the real Cholesky-whitened solve must refuse a pencil without the
    # real-antisymmetric-over-SPD structure, split by the flow's parity,
    # instead of returning a wrong eigenvalue; the cases reach each of the
    # four guards
    rng = np.random.default_rng(3)
    n = 10
    X = rng.standard_normal((2 * n, 2 * n))
    A = X - X.T
    B = X[:n, :n]

    def pencil(K, S):
        return EvpPencil(a=1.0, K=K, S=S, params=wb.params("couette", 1.0),
                         maps=wb.maps(13))

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
    # one tiny entry, kept antisymmetric or symmetric, in a block that the
    # flow's parity says vanishes: couette's K does not couple w_0 with
    # w_2, hartmann's K not w_0 with w_1, and S never couples j = 0 and 1
    for flow, which, (i, j) in (("couette", "K", (0, 2)),
                                ("hartmann", "K", (0, 1)),
                                ("couette", "S", (0, 1))):
        pen = wb.pencil(flow, 10.0, 1.2, N=40)
        M = getattr(pen, which).copy()
        M[i, j], M[j, i] = 1e-300, 1e-300 if which == "S" else -1e-300
        with pytest.raises(NumericalError, match="parity"):
            mhdes.solve_max_m(dataclasses.replace(pen, **{which: M}))


@pytest.mark.parametrize("flow", ["couette", "hartmann"])
@pytest.mark.parametrize("N", [40, 41])
@pytest.mark.parametrize("Pm", [0.1, 10.0])
@pytest.mark.parametrize("Ha", [1e-6, 10.0, 300.0])
def test_vanishing_parity_blocks_are_exact_zeros(wb, flow, N, Pm, Ha):
    # S couples equal parities only; couette's K couples P1 with P2 alone
    # and hartmann's K each half with itself, so the rest is never filled
    pen = wb.pencil(flow, Ha, 1.2, N=N, Pm=Pm)
    n = pen.S.shape[0]
    P1, P2 = parity_halves(n)
    vanish = [(P1, P1), (P2, P2)] if flow == "couette" else [(P1, P2)]
    for r, c in vanish:
        assert np.count_nonzero(pen.K[np.ix_(r, c)]) == 0
    ev, od = np.arange(0, n, 2), np.arange(1, n, 2)
    assert np.count_nonzero(pen.S[np.ix_(ev, od)]) == 0


@pytest.mark.parametrize("flow", ["couette", "hartmann"])
@pytest.mark.parametrize("N", [40, 41, 80])
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


def test_hartmann_eigenvector_lies_in_one_parity_half(wb):
    # at Pm = 1 and vanishing Ha the velocity and magnetic sectors nearly
    # coincide; each parity half holds one of them, and the solve returns
    # q exactly zero on the half it did not pick.  With an identity
    # injection the returned fields are the modal coefficients themselves
    for a in (0.5, 1.2, 5.0):
        pen = wb.pencil("hartmann", 1e-6, a, N=40, Pm=1.0)
        n = pen.S.shape[0]
        eye = dataclasses.replace(pen.maps, inject=np.eye(n))
        sol = mhdes.solve_max_m(dataclasses.replace(pen, maps=eye))
        assert sol.m == mhdes.solve_max_m(pen).m
        q = np.concatenate((sol.w_hat, sol.l_hat))
        halves = [np.count_nonzero(q[P]) for P in parity_halves(n)]
        assert min(halves) == 0 < max(halves), halves


def test_hartmann_tie_keeps_the_first_parity_half(wb):
    # identical antisymmetric blocks on P1 and P2, each listed with its
    # even-parity field first, nothing between them, and S = I: both
    # halves whiten to the same block bit for bit, and the solve keeps P1,
    # so q is exactly zero on P2
    n = 10
    X = np.random.default_rng(5).standard_normal((n, n))
    ev, od = np.arange(0, n, 2), np.arange(1, n, 2)
    P1, P2 = np.r_[ev, n + od], np.r_[n + ev, od]
    K = np.zeros((2 * n, 2 * n))
    K[np.ix_(P1, P1)] = K[np.ix_(P2, P2)] = X - X.T
    pen = EvpPencil(a=1.0, K=K, S=np.eye(n),
                    params=wb.params("hartmann", 1.0), maps=wb.maps(13))
    q = mhdes.solve_max_m(pen).q.ravel()
    assert np.count_nonzero(q[P2]) == 0
    assert np.count_nonzero(q[P1]) > 0


EIGENVECTOR_READS = ("q", "w_hat", "l_hat", "residual")


def eager_solve(pen):
    """(m, q, w_hat, l_hat, residual) of a pencil, every part formed at
    once in the solver's arithmetic, without its checks: the eager
    reference of the lazy eigenvector stage."""
    K, S = pen.K, pen.S
    n = S.shape[0]
    ev, od = np.arange(0, n, 2), np.arange(1, n, 2)
    k, C = len(ev), np.zeros((n, n))
    C[:k, :k], C[k:, k:] = (np.linalg.cholesky(S[np.ix_(p, p)])
                            for p in (ev, od))
    P1, P2 = np.r_[ev, n + od], np.r_[n + ev, od]
    Ci = np.linalg.inv(C)
    blocks = []
    halves = ((P1, P2),) if pen.params.flow == "couette" else ((P1, P1),
                                                               (P2, P2))
    for rows, cols in halves:
        B = Ci @ K[np.ix_(rows, cols)] @ Ci.T
        if rows is cols:
            B = 0.5 * (B - B.T)
        blocks.append((float(np.linalg.svd(B, compute_uv=False)[0]),
                       B, rows, cols))
    m, B, rows, cols = max(blocks, key=lambda b: b[0])
    B = B / m
    shifted = B.T @ B - (1.0 + 2.0**-40) * np.eye(n)
    w = np.ones(n)
    for _ in range(2):
        w = np.linalg.solve(shifted, w)
        w /= np.linalg.norm(w)
    x = np.linalg.solve(C.T, np.column_stack((w, B @ w)))
    q = np.zeros(2 * n, dtype=complex)
    q[cols] = x[:, 0]
    q[rows] += 1j * x[:, 1]
    q /= np.linalg.norm(q)
    qb = q.reshape(2, n)
    residual = float(np.linalg.norm(1j * (K @ q) - m * (qb @ S).ravel()))
    return m, qb, pen.maps.inject @ qb[0], pen.maps.inject @ qb[1], residual


def forbid_eigensolvers(monkeypatch):
    """Make the symmetric eigensolvers and an SVD with vectors raise."""
    svd = np.linalg.svd

    def no_eigh(*args, **kwargs):
        raise AssertionError("called a symmetric eigensolver")

    def values_only_svd(a, full_matrices=True, compute_uv=True, **kwargs):
        if compute_uv:
            raise AssertionError("called an SVD with vectors")
        return svd(a, full_matrices, compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigh)
    monkeypatch.setattr(np.linalg, "svd", values_only_svd)


@pytest.mark.parametrize("flow,Ha", [("couette", 1.0), ("hartmann", 50.0)])
def test_threshold_curve_forms_no_eigenvector(wb, monkeypatch, flow, Ha):
    # the curve reads Re_a alone, so with every eigenvector read and every
    # symmetric eigensolver made to raise, it still returns the values of
    # the full solve: its m comes from the singular values alone
    def unread(self):
        raise AssertionError("reynolds_curve formed an eigenvector")

    for name in EIGENVECTOR_READS:
        monkeypatch.setattr(mhdes.EvpSolution, name, property(unread))
    forbid_eigensolvers(monkeypatch)
    params, grid = wb.params(flow, Ha), [0.5, 1.2, 4.2, 20.0]
    curve = mhdes.reynolds_curve(params, grid, N=60)
    op, maps = spectral.setup(60)
    forms = pencil_forms(params, op, wb.sample(flow, Ha, 60), maps)
    assert curve == [(a, mhdes.solve_max_m(forms.at(a)).Re_a) for a in grid]


@pytest.mark.parametrize("flow,Ha", [("couette", 1.0), ("hartmann", 50.0)])
def test_threshold_search_calls_no_eigensolver(wb, monkeypatch, flow, Ha):
    # the search reads q at every step, and q comes from two LU solves at
    # the known m, so neither the search nor any eigenvector read calls a
    # symmetric eigensolver or an SVD with vectors
    forbid_eigensolvers(monkeypatch)
    point = mhdes.minimize_over_a(wb.params(flow, Ha), 0.2, 30.0)
    assert point.converged
    sol = mhdes.solve_max_m(wb.pencil(flow, Ha, point.a_crit))
    for name in EIGENVECTOR_READS:
        assert np.all(np.isfinite(getattr(sol, name))), name


@pytest.mark.parametrize("flow", ["couette", "hartmann"])
def test_eigenvector_is_accurate_across_the_pencils(wb, flow):
    # two shifted inverse-iteration steps give the eigenvector to the
    # residual of a symmetric eigensolver, also at Ha = 1e-6, Pm = 1,
    # where the top singular value of couette's B is near-double
    for Ha, Pm, N in itertools.product((1e-6, 50.0, 300.0), (0.1, 1.0),
                                       (40, 80)):
        forms = pencil_forms(wb.params(flow, Ha, Pm), wb.op(N),
                             wb.sample(flow, Ha, N), wb.maps(N))
        for a in np.geomspace(0.2, 60.0, 4):
            assert mhdes.solve_max_m(forms.at(a)).residual <= 2e-11, (
                Ha, Pm, N, a)


def test_eigenvector_reads_are_kept(wb):
    sol = mhdes.solve_max_m(wb.pencil("hartmann", 10.0, 1.2))
    for name in EIGENVECTOR_READS:
        assert getattr(sol, name) is getattr(sol, name)


@pytest.mark.parametrize("flow,Ha", sorted(M_ANCHORS))
def test_eigenvector_is_the_eager_one_in_any_read_order(wb, flow, Ha):
    # m and each eigenvector part are the eager solve's bits, whichever
    # part is read first
    pen = wb.pencil(flow, Ha, 1.2)
    m, *eager = eager_solve(pen)
    for order in itertools.permutations(range(len(EIGENVECTOR_READS))):
        sol = mhdes.solve_max_m(pen)
        got = [None] * len(order)
        for k in order:
            got[k] = getattr(sol, EIGENVECTOR_READS[k])
        assert sol.m == m
        for name, lazy, ref in zip(EIGENVECTOR_READS, got, eager):
            assert np.array_equal(lazy, ref), name
