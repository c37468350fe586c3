"""Variational eigenproblem for the optimal energy growth ratio.

For a single spanwise Fourier mode with wavenumber a, the largest value m
of (production) / (primary dissipation) over clamped fields solves a
self-adjoint generalized eigenproblem.  The two matrices are realized as
Galerkin quadratic forms on the clamped recombined basis: Mmat collects
the weak biharmonic-minus-Laplacian energy (D^2 - a^2)^2 for each field
with the magnetic block weighted by Ha^2, and Lmat collects the shear and
magnetic-coupling production forms.  A strong-form collocation of the same
blocks loses the Hermitian positive-definite structure that the Hermitian
solve and the ratio identity rely on, which is why the weak realization is
used.

The velocity block of Lmat equals the Hermitian part of the weak advective
operator exactly; the off-diagonal coupling blocks agree with the weak
second-derivative coupling up to discrete integration-by-parts aliasing
that vanishes with resolution and does not perturb the eigenvalues beyond
the documented residual bound.

Below HA_FLOOR the magnetic sector decouples and a single-field pencil is
assembled; force_coupled=True keeps the two-field structure for
diagnostics such as reduction tests.
"""

import logging
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .baseflow import (HA_FLOOR, BaseFlowSample, Params, check_sample,
                       profile_for)
from .errors import ConsistencyError, NumericalError, ParameterError
from .spectral import ClampedMaps, SpectralOperator, build_operator, clamped_restrict

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class EvpPencil:
    """Assembled generalized eigenproblem Lmat q + 2 m Mmat q = 0.

    Lmat is Hermitian; Mmat is real symmetric positive definite (the
    magnetic block carries the Ha^2 weight).  hydro marks the single-field
    reduction used below HA_FLOOR; maps is kept so solutions can be
    injected back onto the full grid.
    """

    a: float
    Lmat: np.ndarray
    Mmat: np.ndarray
    params: Params
    N: int
    hydro: bool
    maps: ClampedMaps


@dataclass(frozen=True, eq=False)
class EvpSolution:
    """Largest eigenvalue m, the threshold Re_a = 1/m, the full-grid
    eigenfields, and the pencil residual of the returned pair with the
    eigenvector at unit 2-norm."""

    m: float
    Re_a: float
    w_hat: np.ndarray
    l_hat: np.ndarray
    residual: float


def _production_forms(sample, qw, maps):
    """Real cross matrices K_U, K_B of the weighted first-derivative forms."""
    R = maps.inject
    G1 = maps.basis_d1
    K_U = G1.T @ ((qw * sample.Uprime)[:, None] * R)
    K_B = G1.T @ ((qw * sample.Bprime)[:, None] * R)
    return K_U, K_B


def _energy_form(a, qw, maps):
    """Weak (D^2 - a^2)^2 form on the clamped basis, symmetrized."""
    R = maps.inject
    G1 = maps.basis_d1
    G2 = maps.basis_d2
    S = (G2.T @ (qw[:, None] * G2)
         + 2.0 * a * a * (G1.T @ (qw[:, None] * G1))
         + a**4 * (R.T @ (qw[:, None] * R)))
    return 0.5 * (S + S.T)


def _blocks(sample, a, qw, maps, A, Ha, coupled):
    """Assemble (Lmat, Mmat) from the quadratic forms; A may be overridden
    (e.g. set to zero) to probe the decoupling structure."""
    K_U, K_B = _production_forms(sample, qw, maps)
    S = _energy_form(a, qw, maps)
    T = -1j * a * (K_U - K_U.T)
    nm = S.shape[0]
    if not coupled:
        return T, S
    L = np.zeros((2 * nm, 2 * nm), dtype=complex)
    L[:nm, :nm] = T
    L[nm:, nm:] = -A * T
    C = 1j * a * A * (K_B + K_B.T)
    L[:nm, nm:] = C
    L[nm:, :nm] = -C
    M = np.zeros((2 * nm, 2 * nm))
    M[:nm, :nm] = S
    M[nm:, nm:] = Ha * Ha * S
    return L, M


def _assemble(params, a, op, sample, maps, force_coupled=False):
    """Signed-wavenumber assembly without the a > 0 domain check."""
    coupled = force_coupled or params.Ha >= HA_FLOOR
    Lmat, Mmat = _blocks(sample, a, op.qweights, maps, params.A, params.Ha,
                         coupled)
    return EvpPencil(a=float(a), Lmat=Lmat, Mmat=Mmat, params=params,
                     N=op.N, hydro=not coupled, maps=maps)


def assemble_pencil(params, a, op, sample, maps=None, force_coupled=False):
    """Assemble the clamped pencil for wavenumber a > 0.

    op, sample, and maps must describe the same grid and parameters;
    mismatches raise ConsistencyError.  maps is recomputed from op when
    not supplied, so callers assembling many wavenumbers should pass it in.
    """
    if not isinstance(op, SpectralOperator):
        raise ParameterError("assemble_pencil expects a SpectralOperator")
    if not isinstance(sample, BaseFlowSample):
        raise ParameterError("assemble_pencil expects a BaseFlowSample")
    if not np.isfinite(a) or a <= 0:
        raise ParameterError(f"wavenumber a must be finite and > 0, got {a}")
    check_sample(sample, params, op.nodes)
    if maps is None:
        maps = clamped_restrict(op)
    elif maps.inject.shape != (op.N + 1, op.N - 3):
        raise ConsistencyError("clamped maps do not match the operator order")
    return _assemble(params, float(a), op, sample, maps,
                     force_coupled=force_coupled)


def solve_max_m(pencil):
    """Largest eigenvalue of the assembled pencil.

    The pencil is self-adjoint, so only the top eigenpair of the Hermitian
    problem (-Lmat/2) q = m Mmat q is computed, and its eigenvector is
    scaled to unit 2-norm before it is injected back onto the full grid.
    A pencil whose Lmat is not exactly Hermitian, whose Mmat is not exactly
    symmetric, or whose Mmat has no Cholesky factor raises NumericalError
    instead of being solved.
    """
    if not isinstance(pencil, EvpPencil):
        raise ParameterError("solve_max_m expects an EvpPencil")
    L, M = pencil.Lmat, pencil.Mmat
    if not np.array_equal(L, L.conj().T) or not np.array_equal(M, M.conj().T):
        raise NumericalError("pencil is not Hermitian; the self-adjoint "
                             "solve does not apply")
    n = L.shape[0]
    try:
        mv, V = sla.eigh(-0.5 * L, M, subset_by_index=[n - 1, n - 1])
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"mass matrix is not positive definite: {exc}") from exc
    m = float(mv[0])
    if m <= 0:
        raise NumericalError(
            f"largest eigenvalue is non-positive ({m:g}); the growth "
            "ratio must be positive for the supported base states")
    q = V[:, 0] / np.linalg.norm(V[:, 0])
    residual = float(np.linalg.norm(L @ q + 2.0 * m * (M @ q)))
    nm = pencil.maps.inject.shape[1]
    w_hat = pencil.maps.inject @ q[:nm]
    if pencil.hydro:
        l_hat = np.zeros_like(w_hat)
    else:
        l_hat = pencil.maps.inject @ q[nm:]
    return EvpSolution(m=m, Re_a=1.0 / m, w_hat=w_hat, l_hat=l_hat,
                       residual=residual)


def reynolds_curve(params, a_grid, N=60):
    """Threshold curve Re_a = 1/m over a grid of wavenumbers.

    Returns a list of (a, Re_a) pairs in grid order.  Individual solver
    failures are logged and reported as NaN so a sweep survives isolated
    bad points; if every point fails, the last error propagates.
    """
    a_grid = np.atleast_1d(np.asarray(a_grid, dtype=float))
    if a_grid.size == 0:
        raise ParameterError("a_grid must be nonempty")
    if not np.all(np.isfinite(a_grid)) or np.any(a_grid <= 0):
        raise ParameterError("a_grid entries must be finite and > 0")
    op = build_operator(N)
    sample = profile_for(params, op.nodes)
    maps = clamped_restrict(op)
    out = []
    n_fail = 0
    last_err = None
    for a in a_grid:
        try:
            sol = solve_max_m(assemble_pencil(params, a, op, sample, maps))
            out.append((float(a), sol.Re_a))
        except NumericalError as exc:
            n_fail += 1
            last_err = exc
            log.warning("curve point a=%g failed: %s", a, exc)
            out.append((float(a), float("nan")))
    if n_fail == a_grid.size:
        raise NumericalError(
            f"all {n_fail} curve points failed; last error: {last_err}")
    return out
