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
magnetic sector keeps its own production.  Solutions carry l~ as well, as
do the independent functionals and the FD oracle of the verify module.

The velocity block of K is the antisymmetric part of the weak advective
form a K_U exactly; the coupling blocks agree with the weak
second-derivative coupling up to discrete integration-by-parts aliasing
that vanishes with resolution and does not perturb the eigenvalues beyond
the documented residual bound.  No form depends on a: pencil_forms builds
them once per parameter set and grid, and the pencil at a sums them with
powers of a as factors.

K and S are real and split over the parity halves P1 = {w even, l~ odd}
and P2 = {w odd, l~ even} (Orszag 1971): K couples P1 with P2 for couette
and each half with itself for hartmann, so only nonvanishing parity
blocks are assembled, and the top eigenpair comes from n x n halves in
real arithmetic.  The solve, like the whole package, uses NumPy alone,
so every wavenumber runs on one bundled OpenBLAS and its one worker pool.
"""

import logging
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .baseflow import Params, check_sample, profile_for
from .errors import (ConsistencyError, NumericalError, instance, numbers,
                     wavenumber)
from .spectral import ClampedMaps, setup

log = logging.getLogger(__name__)

# inverse-iteration shift above the top eigenvalue 1 of B^T B / m^2
_SHIFT = 1.0 + 2.0**-40
# whether the base shear U' is even in z; B' has the other parity
_EVEN_SHEAR = {"couette": True, "hartmann": False}


@dataclass(frozen=True, eq=False)
class EvpPencil:
    """Assembled generalized eigenproblem i K q = m blockdiag(S, S) q
    for q = (w, l~) with the rescaled magnetic field l~ = Ha l.

    K is real antisymmetric; S is the real symmetric positive definite
    energy form of one field, shared by both.  maps is kept so solutions
    can be injected back onto the full grid.
    """

    a: float
    K: np.ndarray
    S: np.ndarray
    params: Params
    maps: ClampedMaps


@dataclass(frozen=True, eq=False)
class EvpSolution:
    """Largest eigenvalue m and the threshold Re_a = 1/m of a solved
    pencil, with its eigenvector formed on first read by two shifted LU
    solves on the Gram matrix of B / m: the modal eigenvector q, the
    full-grid eigenfields w and l~ = Ha l, and the pencil residual of the
    returned pair with q at unit 2-norm.  q and the residual are in modal
    coordinates: the coefficients of the clamped basis functions
    (1 - z^2)^2 T_j, not nodal values; q has shape (2, n), its rows w and
    l~.  Each is computed the first time it is read and kept, so a caller
    that reads only m or Re_a, as reynolds_curve does, never pays for it.
    A solution holds its pencil and the factors that the eigenvector is
    formed from for as long as it is kept."""

    m: float
    Re_a: float
    # what the eigenvector stage reads: the pencil, the block Cholesky
    # factor C, the chosen whitened block B, and the parity halves of B's
    # rows and columns
    _stage: tuple = field(repr=False)

    @cached_property
    def q(self):
        """The unit modal eigenvector of m, from the Gram matrix of B / m."""
        _, C, B, rows, cols = self._stage
        n = B.shape[0]
        B = B / self.m
        shifted = B.T @ B - _SHIFT * np.eye(n)
        w = np.ones(n)  # a fixed start vector
        for _ in range(2):
            w = np.linalg.solve(shifted, w)
            w /= np.linalg.norm(w)
        # solving with C^T keeps the residual at the level of a generalized
        # Hermitian solve; multiplying by C^-T raises it to 1.5e-9 at N = 101
        x = np.linalg.solve(C.T, np.column_stack((w, B @ w)))
        q = np.zeros(2 * n, dtype=complex)
        q[cols] = x[:, 0]
        q[rows] += 1j * x[:, 1]
        q /= np.linalg.norm(q)
        # rows are the two fields
        return q.reshape(2, n)

    @cached_property
    def residual(self):
        """|i K q - m blockdiag(S, S) q| of the unit eigenvector q."""
        pencil = self._stage[0]
        # S is symmetric, so q @ S is S applied to each field
        return float(np.linalg.norm(1j * (pencil.K @ self.q.ravel())
                                    - self.m * (self.q @ pencil.S).ravel()))

    @cached_property
    def w_hat(self):
        """The velocity row of q injected onto the full grid."""
        return self._stage[0].maps.inject @ self.q[0]

    @cached_property
    def l_hat(self):
        """The l~ row of q injected onto the full grid."""
        return self._stage[0].maps.inject @ self.q[1]


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
        S = 0.5 * S + 0.5 * S.T  # S + S^T overflows from a = 1.03e77
        return EvpPencil(a=a, K=np.block([[V, -0.5 * C], [0.5 * C, -Pm * V]]),
                         S=S, params=self.params, maps=self.maps)

    def frozen_argmin(self, q):
        """The wavenumber T > 0 that minimizes Re_a with the modal
        eigenvector q of shape (2, n) held fixed.  Its Rayleigh quotient
        is a k / (s2 + 2 a^2 s1 + a^4 s0), k constant, with
        s_k = q^H blockdiag(Q_k, Q_k) q, so T^2 is the positive root
        (sqrt(s1^2 + 3 s0 s2) - s1) / (3 s0) = s2 / (s1 + sqrt(...)).
        For the eigenvector solved at a, T = a exactly where dm/da = 0,
        and Re_a(T) <= Re_a(a), since m(T) is at least the quotient."""
        s0, s1, s2 = (np.vdot(q, q @ Q).real
                      for Q in (self.Q0, self.Q1, self.Q2))
        return float(np.sqrt(s2 / (s1 + np.sqrt(s1 * s1 + 3.0 * s0 * s2))))


def _parity_form(A, B, weights, same):
    """A^T diag(weights) B on the column-parity blocks it can fill, equal
    parities if same, else opposite ones; the rest are exact zeros."""
    out = np.zeros((A.shape[1], B.shape[1]))
    ev, od = slice(0, None, 2), slice(1, None, 2)
    for r, c in ((ev, ev), (od, od)) if same else ((ev, od), (od, ev)):
        out[r, c] = A[:, r].T @ (weights[:, None] * B[:, c])
    return out


def pencil_forms(params, op, sample, maps):
    """Build the wavenumber-free forms of the clamped pencil on their
    nonvanishing parity blocks.  op, sample, and maps must describe the
    same grid and parameters; mismatches raise ConsistencyError."""
    check_sample(sample, params, op)
    if instance(maps, ClampedMaps, "maps").inject.shape != (op.N + 1, op.N - 3):
        raise ConsistencyError("clamped maps do not match the operator order")
    qw, R, G1, G2 = op.qweights, maps.inject, maps.basis_d1, maps.basis_d2
    # a derivative flips a column's parity, and B' has the other parity
    even = _EVEN_SHEAR[params.flow]
    K_U = _parity_form(G1, R, qw * sample.Uprime, same=not even)
    K_B = _parity_form(G1, R, qw * sample.Bprime, same=even)
    return PencilForms(shear=K_U - K_U.T, coupling=K_B + K_B.T,
                       Q0=_parity_form(R, R, qw, True),
                       Q1=_parity_form(G1, G1, qw, True),
                       Q2=_parity_form(G2, G2, qw, True),
                       params=params, maps=maps)


def _assemble(params, a, op, sample, maps):
    """Signed-wavenumber assembly without the a > 0 domain check."""
    return pencil_forms(params, op, sample, maps).at(a)


def assemble_pencil(params, a, op, sample, maps):
    """Assemble the clamped pencil for wavenumber a > 0 (see pencil_forms)."""
    return _assemble(params, wavenumber(a, "wavenumber a"), op, sample, maps)


def solve_max_m(pencil):
    """Largest eigenvalue of the assembled pencil, with its eigenvector
    formed on first read.

    The pencil i K q = m blockdiag(S, S) q is self-adjoint: K is real
    antisymmetric and S is real symmetric positive definite.  The even
    and odd blocks of S are factored once, so with its even-parity field
    first, P1 = (w even, l~ odd) or P2 = (l~ even, w odd), either half
    has the energy C C^T, C = blockdiag(c_e, c_o).  m is the largest
    singular value of the whitened cross block B = C^-1 K[P1, P2] C^-T
    for couette, and of the larger whitened half B = C^-1 K[Pi, Pi] C^-T
    for hartmann (P1 on a tie), where q is exactly zero on the other
    half, so the nearly degenerate wall modes of large Ha are not mixed.

    Only m is solved here, with every check below.  The eigenvector is
    formed the first time the solution's q, w_hat, l_hat or residual is
    read, and kept; reynolds_curve reads none of them, so its solves stop
    at the singular values.  w, a unit vector of the top eigenspace of
    B^T B, comes from two LU solves with G - (1 + 2^-40) I, G the Gram
    matrix of B / m with top eigenvalue 1, each then normalized, from a
    fixed start vector; C^-T brings w + i B w / m back.  A shift of exactly
    1 can meet a singular pivot, and one step or a shift of 2^-30 leaves
    residuals near 1e-8.  The eigenvector is scaled to unit 2-norm before
    its rows w and l~ are injected back onto the full grid, and the
    residual is |i K q - m blockdiag(S, S) q|, at most 1.5e-11 over both
    flows, Ha 1e-6 to 300, Pm 0.1 and 1, N 40 to 80 and a in [0.2, 60].

    B scales as a at small a and as a^-3 at large a; LAPACK's SVD scales
    a matrix whose largest entry lies outside its safe range itself, and
    B / m has unit 2-norm, so m and q stay accurate at both ends.

    A pencil whose K or S is complex, whose K is not exactly
    antisymmetric or S not exactly symmetric, whose S has no Cholesky
    factor, whose K or S is nonzero in a block that the flow's parity says
    vanishes, or whose m has no finite threshold 1/m (a below about
    3e-307) raises NumericalError instead of being solved.
    """
    instance(pencil, EvpPencil, "pencil")
    K, S = pencil.K, pencil.S
    if np.iscomplexobj(K) or np.iscomplexobj(S):
        raise NumericalError("pencil is complex; the real solve does not apply")
    if not np.array_equal(K, -K.T) or not np.array_equal(S, S.T):
        raise NumericalError("K is not antisymmetric or S is not symmetric; "
                             "the self-adjoint solve does not apply")
    n = S.shape[0]
    ev, od = np.arange(0, n, 2), np.arange(1, n, 2)
    k, C = len(ev), np.zeros((n, n))
    try:
        C[:k, :k], C[k:, k:] = (np.linalg.cholesky(S[np.ix_(p, p)])
                                for p in (ev, od))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"energy form is not positive definite: {exc}") from exc
    P1, P2 = np.r_[ev, n + od], np.r_[n + ev, od]
    cross = _EVEN_SHEAR[pencil.params.flow]
    vanish = ((P1, P1), (P2, P2)) if cross else ((P1, P2),)
    if np.any(S[np.ix_(ev, od)]) or any(np.any(K[np.ix_(r, c)])
                                        for r, c in vanish):
        raise NumericalError("K or S couples the parity halves against the "
                             "flow's parity; the split solve does not apply")
    Ci = np.linalg.inv(C)
    blocks = []
    for rows, cols in ((P1, P2),) if cross else ((P1, P1), (P2, P2)):
        B = Ci @ K[np.ix_(rows, cols)] @ Ci.T
        B = 0.5 * (B - B.T) if rows is cols else B
        blocks.append((np.linalg.svd(B, compute_uv=False)[0], B, rows, cols))
    top, B, rows, cols = max(blocks, key=lambda b: b[0])  # P1 on a tie
    m = float(top)
    if not (m > 0 and np.isfinite(1.0 / m)):
        raise NumericalError(f"largest eigenvalue {m:g} has no finite "
                             "positive threshold 1/m")
    return EvpSolution(m=m, Re_a=1.0 / m, _stage=(pencil, C, B, rows, cols))


def reynolds_curve(params, a_grid, N=60):
    """Threshold curve Re_a = 1/m over a nonempty 1-D grid of wavenumbers
    a > 0, on the operator and maps of spectral.setup(N).

    Returns a list of (a, Re_a) pairs in grid order.  Individual solver
    failures are reported as NaN, and counted in one warning per curve, so
    a sweep survives isolated bad points; if every point fails, a
    NumericalError naming the first error is raised.
    """
    a_grid = numbers(a_grid, "a_grid")
    for a in a_grid:
        wavenumber(a, "a_grid entries")
    op, maps = setup(N)
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
