"""Variational eigenproblem for the optimal energy growth ratio.

For a single spanwise Fourier mode with wavenumber a, the largest value m
of (production) / (primary dissipation) over clamped fields solves a
self-adjoint generalized eigenproblem.  The two sides are realized as
Galerkin quadratic forms on the clamped modal basis (1 - z^2)^2 T_j: S is
the weak biharmonic-minus-Laplacian energy form (D^2 - a^2)^2 of one
field, and the real antisymmetric K collects the shear and
magnetic-coupling production forms.  A strong-form collocation of the same
blocks loses the self-adjoint positive-definite structure that the solve
and the ratio identity rely on, which is why the weak realization is used.

The magnetic unknown is the rescaled field l~ = Ha l.  In it the energy
of both fields is the same form S at every Ha, the magnetic block of K is
-Pm times the velocity block, and the coupling carries the factor Ha Pm,
so the pencil stays well scaled and continuous as Ha -> 0, where the
magnetic sector keeps its own production; l = l~/Ha is restored when a
solution is injected back onto the full grid.

The velocity block of K is the antisymmetric part of the weak advective
form a K_U exactly; the coupling blocks agree with the weak
second-derivative coupling up to discrete integration-by-parts aliasing
that vanishes with resolution and does not perturb the eigenvalues beyond
the documented residual bound.  No form depends on a: pencil_forms builds
them once per parameter set and grid, and the pencil at a sums them with
powers of a as factors.

K and S are real, so the top eigenpair is found in real arithmetic: S is
Cholesky-factored once, each block of the whitened real antisymmetric
matrix Y is formed with that factor, m is the largest singular value of
Y, and the complex eigenvector is rebuilt from a real one.  The solve uses
NumPy alone; mixing in SciPy's LAPACK would alternate between two bundled
OpenBLAS thread pools on every wavenumber, and the workers of one pool
keep spinning for a while after its last call, holding the cores the
other pool needs.
"""

import functools
import logging
from dataclasses import dataclass

import numpy as np

from .baseflow import BaseFlowSample, Params, check_sample, profile_for
from .errors import ConsistencyError, NumericalError, ParameterError
from .spectral import ClampedMaps, SpectralOperator, build_operator, clamped_restrict

log = logging.getLogger(__name__)

# relative shift above the top eigenvalue of Y^T Y for inverse iteration:
# far above its rounding error (see solve_max_m for the gap below it)
INVERSE_SHIFT = 1e-10


@dataclass(frozen=True, eq=False)
class EvpPencil:
    """Assembled generalized eigenproblem i K q = m blockdiag(S, S) q
    for q = (w, l~) with the rescaled magnetic field l~ = Ha l.

    K is real antisymmetric; S is the real symmetric positive definite
    energy form of one field, shared by both, and dS is its derivative
    with respect to a.  maps is kept so solutions can be injected back
    onto the full grid.
    """

    a: float
    K: np.ndarray
    S: np.ndarray
    dS: np.ndarray
    params: Params
    maps: ClampedMaps


@dataclass(frozen=True, eq=False)
class EvpSolution:
    """Largest eigenvalue m, its slope dm/da, the threshold Re_a = 1/m,
    the full-grid eigenfields, and the pencil residual of the returned
    pair with the eigenvector at unit 2-norm.  The eigenvector and the
    residual are in modal coordinates: the coefficients of the clamped
    basis functions (1 - z^2)^2 T_j, not nodal values."""

    m: float
    dm_da: float
    Re_a: float
    w_hat: np.ndarray
    l_hat: np.ndarray
    residual: float


# typed, so N = 60.0 reaches build_operator's check instead of the entry for 60
@functools.lru_cache(maxsize=1, typed=True)
def _setup(N):
    """Operator and clamped maps at N, kept for the next search at that N."""
    op = build_operator(N)
    return op, clamped_restrict(op)


@dataclass(frozen=True, eq=False)
class PencilForms:
    """Wavenumber-free Galerkin forms of one parameter set on one grid:
    shear = K_U - K_U^T and coupling = K_B + K_B^T of the weighted cross
    forms K_U = G1^T W U' R and K_B = G1^T W B' R, and the weighted Gram
    forms Q0, Q1, Q2 of the basis and of its first two derivatives."""

    shear: np.ndarray
    coupling: np.ndarray
    Q0: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray
    params: Params
    maps: ClampedMaps

    def at(self, a):
        """The pencil at wavenumber a of either sign, with K linear in a
        and S = Q2 + 2 a^2 Q1 + a^4 Q0."""
        a, Pm = float(a), self.params.Pm
        V = 0.5 * (a * self.shear)
        C = a * self.params.Ha * Pm * self.coupling
        S = self.Q2 + 2.0 * a * a * self.Q1 + a**4 * self.Q0
        dS = 4.0 * a * self.Q1 + 4.0 * a**3 * self.Q0
        return EvpPencil(a=a, K=np.block([[V, -0.5 * C], [0.5 * C, -Pm * V]]),
                         S=0.5 * (S + S.T), dS=0.5 * (dS + dS.T),
                         params=self.params, maps=self.maps)


def pencil_forms(params, op, sample, maps):
    """Build the wavenumber-free forms of the clamped pencil.  op, sample,
    and maps must describe the same grid and parameters; mismatches raise
    ConsistencyError."""
    if not isinstance(op, SpectralOperator):
        raise ParameterError("the pencil forms need a SpectralOperator")
    if not isinstance(sample, BaseFlowSample):
        raise ParameterError("the pencil forms need a BaseFlowSample")
    check_sample(sample, params, op.nodes)
    if maps.inject.shape != (op.N + 1, op.N - 3):
        raise ConsistencyError("clamped maps do not match the operator order")
    qw, R, G1, G2 = op.qweights, maps.inject, maps.basis_d1, maps.basis_d2
    K_U = G1.T @ ((qw * sample.Uprime)[:, None] * R)
    K_B = G1.T @ ((qw * sample.Bprime)[:, None] * R)
    return PencilForms(shear=K_U - K_U.T, coupling=K_B + K_B.T,
                       Q0=R.T @ (qw[:, None] * R),
                       Q1=G1.T @ (qw[:, None] * G1),
                       Q2=G2.T @ (qw[:, None] * G2),
                       params=params, maps=maps)


def _assemble(params, a, op, sample, maps):
    """Signed-wavenumber assembly without the a > 0 domain check."""
    return pencil_forms(params, op, sample, maps).at(a)


def assemble_pencil(params, a, op, sample, maps):
    """Assemble the clamped pencil for wavenumber a > 0 (see pencil_forms)."""
    if not np.isfinite(a) or a <= 0:
        raise ParameterError(f"wavenumber a must be finite and > 0, got {a}")
    return _assemble(params, a, op, sample, maps)


def solve_max_m(pencil):
    """Largest eigenvalue of the assembled pencil and its slope in a.

    The pencil i K q = m blockdiag(S, S) q is self-adjoint: K is real
    antisymmetric and S is real symmetric positive definite.  With
    S = c c^T, factored once for both fields, it becomes i Y v = m v for
    the real antisymmetric Y whose blocks are c^-1 K_ij c^-T, and
    q = blockdiag(c, c)^-T v.  The top eigenvalue m is the largest
    singular value of Y, the square root of the top eigenvalue of Y^T Y.
    That eigenvalue is double, and every unit vector w of its eigenspace
    gives the same q up to a phase through v = w + i Y w / m; one such w
    comes from two steps of inverse iteration shifted just above it, so
    only eigenvalues are ever decomposed.  At large Ha the two wall modes
    may lie closer than the shift (8.3e-9 relative at couette Ha = 50,
    N = 160); m and dm/da are unaffected, but the eigenvector may then
    mix the two modes.

    K is linear in a, so the Hellmann-Feynman slope reduces to
    dm/da = m/a - m q^H blockdiag(dS, dS) q / q^H blockdiag(S, S) q.

    The eigenvector is scaled to unit 2-norm before it is injected back
    onto the full grid, its magnetic half divided by Ha, and the residual
    is |i K q - m blockdiag(S, S) q|.  A pencil whose K or S is complex,
    whose K is not exactly antisymmetric or S not exactly symmetric, or
    whose S has no Cholesky factor raises NumericalError instead of
    being solved.
    """
    if not isinstance(pencil, EvpPencil):
        raise ParameterError("solve_max_m expects an EvpPencil")
    K, S = pencil.K, pencil.S
    if np.iscomplexobj(K) or np.iscomplexobj(S):
        raise NumericalError("pencil is complex; the real solve does not apply")
    if not np.array_equal(K, -K.T) or not np.array_equal(S, S.T):
        raise NumericalError("K is not antisymmetric or S is not symmetric; "
                             "the self-adjoint solve does not apply")
    n = S.shape[0]
    try:
        c = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"energy form is not positive definite: {exc}") from exc
    ci = np.linalg.inv(c)
    # c^-1 applied to each row block of K, then to each row block of the
    # transpose, gives W = Y^T; the two fields share the one factor
    Z = (ci @ K.reshape(2, n, 2 * n)).reshape(2 * n, 2 * n)
    W = (ci @ Z.T.reshape(2, n, 2 * n)).reshape(2 * n, 2 * n)
    Y = 0.5 * (W.T - W)
    YtY = Y.T @ Y
    top = np.linalg.eigvalsh(YtY)[-1]
    m = float(np.sqrt(max(top, 0.0)))
    if not m > 0:
        raise NumericalError(
            f"largest eigenvalue is non-positive ({m:g}); the growth "
            "ratio must be positive for the supported base states")
    shifted = YtY - (1.0 + INVERSE_SHIFT) * top * np.eye(YtY.shape[0])
    # a fixed start vector, free of the grid's reflection symmetry
    w = np.cos(np.arange(YtY.shape[0]))
    for _ in range(2):
        w = np.linalg.solve(shifted, w)
        w /= np.linalg.norm(w)
    # solving with c.T keeps the residual at the level of a generalized
    # Hermitian solve; multiplying by ci.T raises it to 1e-8 at N = 101
    v = np.column_stack((w, (Y @ w) / m)).reshape(2, n, 2)
    qr, qi = np.linalg.solve(c.T, v).reshape(2 * n, 2).T
    q = qr + 1j * qi
    q /= np.linalg.norm(q)
    # rows are the two fields; S and dS are symmetric, so qb @ S is S
    # applied to each field
    qb = q.reshape(2, n)
    Sq = qb @ S
    residual = float(np.linalg.norm(1j * (K @ q) - m * Sq.ravel()))
    dm_da = m / pencil.a - m * (np.vdot(qb, qb @ pencil.dS).real
                                / np.vdot(qb, Sq).real)
    w_hat = pencil.maps.inject @ qb[0]
    l_hat = pencil.maps.inject @ qb[1] / pencil.params.Ha
    return EvpSolution(m=m, dm_da=float(dm_da), Re_a=1.0 / m, w_hat=w_hat,
                       l_hat=l_hat, residual=residual)


def _numbers(values, name):
    """values as a nonempty 1-D float array, else a ParameterError."""
    try:
        arr = np.atleast_1d(np.asarray(values, dtype=float))
    except (TypeError, ValueError) as exc:
        raise ParameterError(f"{name} must hold numbers: {exc}") from exc
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{name} must be a nonempty 1-D sequence, got "
                             f"shape {arr.shape}")
    return arr


def reynolds_curve(params, a_grid, N=60):
    """Threshold curve Re_a = 1/m over a nonempty 1-D grid of wavenumbers
    a > 0, on the operator and maps shared with minimize_over_a at N.

    Returns a list of (a, Re_a) pairs in grid order.  Individual solver
    failures are reported as NaN, and counted in one warning per curve, so
    a sweep survives isolated bad points; if every point fails, a
    NumericalError naming the first error is raised.
    """
    a_grid = _numbers(a_grid, "a_grid")
    if not np.all(np.isfinite(a_grid)) or np.any(a_grid <= 0):
        raise ParameterError("a_grid entries must be finite and > 0")
    op, maps = _setup(N)
    forms = pencil_forms(params, op, profile_for(params, op.nodes), maps)
    out = []
    failures = []
    for a in a_grid:
        try:
            sol = solve_max_m(forms.at(a))
            out.append((float(a), sol.Re_a))
        except NumericalError as exc:
            failures.append((a, exc))
            out.append((float(a), float("nan")))
    if failures:
        a, exc = failures[0]
        if len(failures) == a_grid.size:
            raise NumericalError(
                f"all {a_grid.size} curve points failed for {params}; "
                f"first error: {exc}")
        log.warning("%s Ha=%g Pm=%g: %d of %d curve points failed; "
                    "first at a=%g: %s", params.flow, params.Ha, params.Pm,
                    len(failures), a_grid.size, a, exc)
    return out
