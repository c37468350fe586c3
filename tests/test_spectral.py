"""Collocation operators: nodes, derivatives, quadrature, clamped maps."""

import numpy as np
import numpy.polynomial.chebyshev as ncheb
import pytest

from mhdes.errors import ParameterError
from mhdes.spectral import (_chebdif, _clencurt, build_operator,
                            clamped_restrict)


def test_small_grid_nodes_are_exact():
    x, _ = _chebdif(2)
    assert np.array_equal(x, np.array([1.0, 0.0, -1.0]))


@pytest.mark.parametrize("bad", [7, 513, 0, -8, 50.0, "16"])
def test_operator_order_domain(bad):
    with pytest.raises(ParameterError):
        build_operator(bad)


def test_grid_endpoints_and_antisymmetry(wb):
    for N in (16, 33, 50):
        x = wb.op(N).nodes
        assert x[0] == 1.0 and x[-1] == -1.0
        assert np.all(np.diff(x) < 0)
        assert np.array_equal(x, -x[::-1])
    assert wb.op(50).nodes[25] == 0.0


def test_first_derivative_of_cubic(wb):
    op = wb.op(16)
    err = op.D1 @ op.nodes**3 - 3.0 * op.nodes**2
    assert np.max(np.abs(err)) <= 1e-10


def test_quadrature_of_quartic(wb):
    op = wb.op(16)
    assert abs(op.qweights @ op.nodes**4 - 2.0 / 5.0) <= 1e-12


def test_weights_positive_and_sum_to_two(wb):
    for N in (16, 33, 80):
        w = wb.op(N).qweights
        assert np.all(w > 0)
        assert abs(np.sum(w) - 2.0) <= 1e-12


def _clencurt_by_loop(N):
    # the weights summed one cosine term at a time
    theta = np.pi * np.arange(N + 1) / N
    w = np.zeros(N + 1)
    ii = np.arange(1, N)
    v = np.ones(N - 1)
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N**2 - 1)
        for kk in range(1, N // 2):
            v -= 2.0 * np.cos(2 * kk * theta[ii]) / (4 * kk**2 - 1)
        v -= np.cos(N * theta[ii]) / (N**2 - 1)
    else:
        w[0] = w[N] = 1.0 / N**2
        for kk in range(1, (N - 1) // 2 + 1):
            v -= 2.0 * np.cos(2 * kk * theta[ii]) / (4 * kk**2 - 1)
    w[ii] = 2.0 * v / N
    return w


def test_quadrature_weights_are_the_term_by_term_sum_bit_for_bit():
    for N in range(8, 513):
        assert np.array_equal(_clencurt(N).view(np.uint64),
                              _clencurt_by_loop(N).view(np.uint64)), N


def test_quadrature_exact_through_degree(wb):
    # polynomial exactness holds at least through degree N - 1
    for N in (16, 25):
        op = wb.op(N)
        for j in range(N):
            exact = 0.0 if j % 2 else 2.0 / (j + 1)
            assert abs(op.qweights @ op.nodes**j - exact) <= 1e-10


def test_derivative_matrices_kill_constants(wb):
    op = wb.op(60)
    ones = np.ones(op.N + 1)
    assert np.max(np.abs(op.D1 @ ones)) <= 1e-10


def test_monomial_derivatives_all_orders(wb):
    # absolute 1e-8 where the operator norm permits it, floored by the
    # row-sum scale of the matrix
    eps = np.finfo(float).eps
    for N in (16, 40, 80):
        op = wb.op(N)
        x = op.nodes
        D1 = op.D1
        tol = max(1e-8, 50 * eps * np.max(np.sum(np.abs(D1), axis=1)))
        for j in range(7):
            exact = j * x ** (j - 1) if j else np.zeros_like(x)
            assert np.max(np.abs(D1 @ x**j - exact)) <= tol


def test_spectral_convergence_on_smooth_function(wb):
    errs = {}
    for N in (16, 32):
        op = wb.op(N)
        f = np.sinh(3.0 * op.nodes)
        errs[N] = np.max(np.abs(op.D1 @ f - 3.0 * np.cosh(3.0 * op.nodes)))
    assert errs[32] <= errs[16] / 10.0


def test_clamped_second_derivative_example(wb):
    # (1 - z^2)^2 z is the basis function of T_1, column 1
    z = wb.op(20).nodes
    want = -12.0 * z + 20.0 * z**3
    assert np.max(np.abs(wb.maps(20).basis_d2[:, 1] - want)) <= 1e-8


def test_injection_satisfies_clamped_conditions_exactly(wb):
    mp = wb.maps(24)
    rng = np.random.default_rng(7)
    vals = rng.standard_normal(mp.inject.shape[1])
    full = mp.inject @ vals
    slope = mp.basis_d1 @ vals
    assert full[0] == 0.0 and full[-1] == 0.0
    assert slope[0] == 0.0 and slope[-1] == 0.0


def test_clamped_maps_reproduce_polynomial_derivatives(wb):
    # p = (1-z^2)^2 q with random q of admissible degree; the tables act on
    # the Chebyshev coefficients of q
    N = 30
    op = wb.op(N)
    mp = wb.maps(N)
    rng = np.random.default_rng(11)
    q = rng.standard_normal(N - 3)  # degree N-4 coefficients
    phi = np.array([3 / 8, 0.0, -1 / 2, 0.0, 1 / 8])
    pc = ncheb.chebmul(phi, q)
    for order, tab in ((0, mp.inject), (1, mp.basis_d1), (2, mp.basis_d2)):
        want = ncheb.chebval(op.nodes, ncheb.chebder(pc, order))
        scale = np.max(np.abs(want)) + 1.0
        assert np.max(np.abs(tab @ q - want)) <= 1e-9 * scale


@pytest.mark.parametrize("N", [20, 61])
def test_clamped_columns_have_the_parity_of_their_index(wb, N):
    # column j is even or odd with j; its first derivative the opposite
    mp = wb.maps(N)
    sign = (-1.0) ** np.arange(N - 3)
    for tab, s in ((mp.inject, 1.0), (mp.basis_d1, -1.0), (mp.basis_d2, 1.0)):
        tol = 1e-14 * np.max(np.abs(tab), axis=0)
        assert np.all(np.abs(tab[::-1] - s * sign * tab) <= tol)


def test_clamped_restrict_rejects_other_inputs():
    with pytest.raises(ParameterError):
        clamped_restrict(np.eye(5))
