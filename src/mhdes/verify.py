"""Independent checks of the variational threshold computation.

Everything here deliberately avoids the clamped Galerkin machinery used by
the pencil assembly: energy functionals are evaluated by raw collocation
derivatives and quadrature on full nodal fields, and fd_oracle rebuilds
the whole eigenproblem on a uniform grid with second-order central finite
differences and finds its top eigenvalue by one Lanczos run per grid.
Agreement between these routes and the spectral solver is what the
acceptance tests certify, so the two implementations must never be
collapsed into one.
"""

import gc
import logging
import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as ncheb

from .baseflow import check_sample, profile_for
from .errors import (ConsistencyError, NumericalError, ParameterError,
                     VerificationError, integer_in, positive_scalar,
                     real_scalar)
from .spectral import N_MAX, N_MIN, SpectralOperator, build_operator

log = logging.getLogger(__name__)

TRIAL_RTOL = 1e-6
DECAY_SLACK = 1e-10
POINCARE_SLACK = 1e-8
POINCARE_BOUND = math.pi * math.pi / 4.0
FD_KD = 4
FD_SHIFT = 1.05
_FD_SEED = 12345


@dataclass(frozen=True, eq=False)
class TrialField:
    """One spanwise Fourier mode of a kinematically admissible disturbance:
    wall-normal velocity w_hat and magnetic l_hat with their in-plane
    companions u_hat = (i/a) w_hat' and h_hat = (i/a) l_hat'.  The batched
    random trials hold one such field per row of each array."""

    a: float
    w_hat: np.ndarray
    l_hat: np.ndarray
    u_hat: np.ndarray
    h_hat: np.ndarray


@dataclass(frozen=True)
class EnergyBreakdown:
    """Production I, primary dissipation D1, full dissipation D, their
    ratio, the disturbance energy E, and (when a Reynolds number was
    supplied) the energy derivative dEdt = I - D/Re."""

    I: float
    D1: float
    D: float
    ratio: float
    E: float
    dEdt: float | None = None


@dataclass(frozen=True)
class DecayReport:
    """Outcome of one decay-certificate evaluation."""

    dEdt: float
    bound: float
    margin: float
    satisfied: bool


@dataclass(frozen=True)
class PoincareReport:
    """Per-component gradient-to-norm ratios against the clamped-channel
    constant pi^2/4; components with zero norm are vacuously satisfied."""

    bound: float
    ratios: dict
    satisfied: bool


def make_trial_field(a, w_hat, l_hat, op):
    """Complete a trial field from its wall-normal components.

    The in-plane components follow from incompressibility and the
    corresponding magnetic constraint for a single mode of wavenumber a.
    """
    a = _check_wavenumber(a)
    w_hat = np.asarray(w_hat, dtype=complex)
    l_hat = np.asarray(l_hat, dtype=complex)
    if w_hat.shape != op.nodes.shape or l_hat.shape != op.nodes.shape:
        raise ConsistencyError("field arrays must match the operator nodes")
    return _complete(a, w_hat, l_hat, op)


def _check_wavenumber(a):
    """a as a float if it is one finite nonzero real number, of either sign."""
    a = real_scalar(a, "wavenumber a")
    if not math.isfinite(a) or a == 0:
        raise ParameterError(f"wavenumber a must be finite and nonzero, got {a}")
    return a


def _ddz(f, op):
    """Collocation derivative of one field or of each row of a batch; a
    single field keeps the arithmetic of the matrix-vector product."""
    return (op.D1 @ f.T).T


def _gradsq(f, a, op):
    """Quadrature of |f'|^2 + a^2 |f|^2 for one field or each row of a
    batch, with the raw collocation derivative."""
    return np.sum(op.qweights * (np.abs(_ddz(f, op)) ** 2
                                 + a * a * np.abs(f) ** 2), axis=-1)


def _complete(a, w_hat, l_hat, op):
    """TrialField of one field, or of a batch with one field per row."""
    return TrialField(a=float(a), w_hat=w_hat, l_hat=l_hat,
                      u_hat=(1j / a) * _ddz(w_hat, op),
                      h_hat=(1j / a) * _ddz(l_hat, op))


def _random_clamped_fields(rng, count, a, op):
    """count seeded random clamped fields as one batched TrialField.

    Each field is (1 - z^2)^2 times Chebyshev series of degree op.N - 4
    with standard complex Gaussian coefficients for w and l.  The draws are
    one (count, 4, N - 3) block, the same stream as drawing Re w, Im w,
    Re l, Im l field after field.  One real matrix product of the block
    with the nodal values of (1 - z^2)^2 T_k gives Re w, Im w, Re l and
    Im l of every field.  Returns the w and l coefficients (one row per
    field) and the field batch.
    """
    x = op.nodes
    z = rng.standard_normal((count, 4, op.N - 3))
    cw = z[:, 0] + 1j * z[:, 1]
    cl = z[:, 2] + 1j * z[:, 3]
    basis = ((1.0 - x * x) ** 2)[:, None] * ncheb.chebvander(x, op.N - 4)
    # stacked, one small product per field: flattened into one large GEMM
    # it saves 0.4 ms but wakes NumPy's OpenBLAS worker pool, whose
    # buffers then stay resident (+1.7 MB peak in mhdes verify)
    f = z @ basis.T
    field = _complete(a, f[:, 0] + 1j * f[:, 1], f[:, 2] + 1j * f[:, 3], op)
    return cw, cl, field


def _check_bundle(field, params, sample, op):
    check_sample(sample, params, op)
    if field.w_hat.shape != op.nodes.shape:
        raise ConsistencyError("field arrays do not match the operator nodes")


def _functionals(field, params, sample, op):
    """Production I, primary dissipation D1 and energy E of a field, or of
    a batch of fields with one per row (then each is an array over rows).

    Clenshaw-Curtis quadratures of nodal values with raw collocation
    derivatives; raises ParameterError for a field with zero dissipation.
    """
    a = field.a
    w = op.qweights

    def ip(f, g):
        return np.real(np.sum(w * f * np.conj(g), axis=-1))

    u, wf, h, lf = field.u_hat, field.w_hat, field.h_hat, field.l_hat
    A = params.A
    prod = -ip(sample.Uprime * wf, u) + A * (
        ip(sample.Bprime * lf, u) - ip(sample.Bprime * wf, h)
        + ip(sample.Uprime * lf, h))
    Ha = params.Ha
    diss1 = (_gradsq(u, a, op) + _gradsq(wf, a, op)
             + Ha * Ha * (_gradsq(h, a, op) + _gradsq(lf, a, op)))
    if np.any(diss1 <= 0.0):
        raise ParameterError("trial field has zero dissipation; the ratio "
                             "is undefined for the zero field")
    energy = 0.5 * (np.sum(w * (np.abs(u) ** 2 + np.abs(wf) ** 2), axis=-1)
                    + A * np.sum(w * (np.abs(h) ** 2 + np.abs(lf) ** 2),
                                 axis=-1))
    return prod, diss1, energy


def energy_ratio(field, params, sample, op, Re=None):
    """Energy production, dissipation, and their ratio for a trial field.

    All inner products are Clenshaw-Curtis quadratures of nodal values
    using raw collocation derivatives, independent of the clamped pencil
    machinery.  For single-mode fields of this kind the full dissipation D
    coincides with the primary functional D1.  Re, when given, also
    evaluates dEdt = I - D/Re.
    """
    _check_bundle(field, params, sample, op)
    prod, diss1, energy = (float(v) for v in
                           _functionals(field, params, sample, op))
    dEdt = None
    if Re is not None:
        dEdt = prod - diss1 / positive_scalar(Re, "Re")
    return EnergyBreakdown(I=prod, D1=diss1, D=diss1, ratio=prod / diss1,
                           E=energy, dEdt=dEdt)


def _serialize_pair(cw, cl):
    return {"w": [[float(c.real), float(c.imag)] for c in cw],
            "l": [[float(c.real), float(c.imag)] for c in cl]}


def random_trial_bound(params, a, m_claimed, trials=1000, seed=0, N=60,
                       inject=(), *, op=None, sample=None):
    """Stress the claimed maximum ratio with seeded random clamped fields.

    Fields are (1 - z^2)^2 times Chebyshev series of degree at most N - 4
    with standard complex Gaussian coefficients, for both the velocity and
    magnetic components.  Fields passed in inject (TrialField instances,
    e.g. a solved eigenvector) are evaluated before the random trials and
    reported with negative 1-based indices.  The first trial whose ratio
    exceeds m_claimed by more than a factor (1 + 1e-6) raises
    VerificationError carrying a falsification report with the offending
    field; otherwise the maximum ratio and its gap to the claim are
    returned.  The random trials are drawn and evaluated as one batch (see
    _random_clamped_fields).

    op and sample, keyword-only, are the operator of order N and the base
    flow sampled on its nodes, as energy_ratio takes them; a caller that
    holds both skips rebuilding them.  Either one left out is built here.
    A sample for other params or nodes, or an operator of another order
    than N, raises ConsistencyError; an op of another type raises
    ParameterError.
    """
    a = _check_wavenumber(a)
    m_claimed = positive_scalar(m_claimed, "m_claimed")
    trials = integer_in(trials, "trials", 1)
    seed = integer_in(seed, "seed", 0)
    N = integer_in(N, "N", N_MIN, N_MAX)
    if op is None:
        op = build_operator(N)
    elif not isinstance(op, SpectralOperator):
        raise ParameterError("expected a SpectralOperator")
    elif op.N != N:
        raise ConsistencyError(f"operator is of order {op.N}, not N={N}")
    if sample is None:
        sample = profile_for(params, op.nodes)
    check_sample(sample, params, op)
    limit = m_claimed * (1.0 + TRIAL_RTOL)

    def falsified(index, ratio, cw, cl):
        report = {
            "params": {"flow": params.flow, "Ha": params.Ha,
                       "Pm": params.Pm, "A": params.A},
            "a": a,
            "seed": seed,
            "trial_index": int(index),
            "ratio": float(ratio),
            "m_claimed": m_claimed,
            "field_coefficients": _serialize_pair(cw, cl),
        }
        return VerificationError(
            f"trial {index} reached ratio {ratio:.6e} above the claimed "
            f"maximum {m_claimed:.6e}", report)

    max_ratio = -math.inf
    for k, field in enumerate(inject):
        ratio = energy_ratio(field, params, sample, op).ratio
        max_ratio = max(max_ratio, ratio)
        if ratio > limit:
            raise falsified(-(k + 1), ratio, field.w_hat, field.l_hat)
    cw, cl, fields = _random_clamped_fields(np.random.default_rng(seed),
                                            trials, a, op)
    prod, diss1, _ = _functionals(fields, params, sample, op)
    ratios = prod / diss1
    over = np.flatnonzero(ratios > limit)
    if over.size:
        t = int(over[0])
        raise falsified(t, ratios[t], cw[t], cl[t])
    max_ratio = max(max_ratio, float(np.max(ratios)))
    return {"max_ratio": max_ratio,
            "gap": m_claimed - max_ratio,
            "m_claimed": m_claimed,
            "trials": trials,
            "seed": seed}


def _decay_terms(field, params, Re, Re_E, sample, op):
    """dEdt and the decay bound (1/Re_E - 1/Re) D + 1e-10 |D| of a field,
    or of a batch of fields (then arrays over rows)."""
    Re_E = positive_scalar(Re_E, "Re_E")
    Re = positive_scalar(Re, "Re")
    prod, diss, _ = _functionals(field, params, sample, op)
    dEdt = prod - diss / Re
    bound = (1.0 / Re_E - 1.0 / Re) * diss + DECAY_SLACK * np.abs(diss)
    return dEdt, bound


def decay_check(field, params, Re, Re_E, sample, op):
    """Evaluate the decay certificate dEdt <= (1/Re_E - 1/Re) D for one
    field, with a relative slack of 1e-10 |D| absorbing quadrature
    rounding.  Returns the signed margin (bound - dEdt, >= 0 when the
    certificate holds)."""
    _check_bundle(field, params, sample, op)
    dEdt, bound = (float(v) for v in
                   _decay_terms(field, params, Re, Re_E, sample, op))
    return DecayReport(dEdt=dEdt, bound=bound, margin=bound - dEdt,
                       satisfied=dEdt <= bound)


def poincare_check(field, op):
    """Check pi^2/4 * ||f||^2 <= ||grad f||^2 (1 + 1e-8) for each field
    component; the gradient includes the a^2 in-plane contribution."""
    ratios = {}
    ok = True
    for name in ("u_hat", "w_hat", "h_hat", "l_hat"):
        f = getattr(field, name)
        n2 = float(np.sum(op.qweights * np.abs(f) ** 2))
        g2 = float(_gradsq(f, field.a, op))
        if n2 == 0.0:
            ratios[name] = {"ratio": math.inf, "satisfied": True}
            continue
        satisfied = POINCARE_BOUND * n2 <= g2 * (1.0 + POINCARE_SLACK)
        ratios[name] = {"ratio": g2 / n2, "satisfied": bool(satisfied)}
        ok = ok and satisfied
    return PoincareReport(bound=POINCARE_BOUND, ratios=ratios, satisfied=ok)


# ---------------------------------------------------------------------------
# Finite-difference oracle
# ---------------------------------------------------------------------------
# SciPy is imported inside the FD helpers, its only users, so importing
# mhdes or running the spectral solver never loads it.

def _fd_matrices(params, a, M):
    """Uniform-grid FD pencil (-L/2, M) with clamped walls via ghost points.

    The advective block is assembled in the symmetrized form
    i a (U' D + D U'), which is the same operator after integration by
    parts and keeps the discrete matrix exactly Hermitian.  The magnetic
    unknown is Ha l, in which both fields carry the same energy block at
    every Ha > 0 and the coupling carries the factor Ha Pm, so the pencil
    has the same top eigenvalue as in l and stays well scaled as Ha -> 0.
    The unknowns are interleaved node by node, (w_1, Ha l_1, w_2, ...), so
    both matrices are Hermitian banded with FD_KD superdiagonals: the
    five-point energy stencil reaches two nodes, four rows, away.
    """
    import scipy.sparse as sp

    h = 2.0 / (M + 1)
    z = -1.0 + h * np.arange(1, M + 1)
    smp = profile_for(params, z)
    e = np.ones(M)
    D1 = sp.diags([-e[:-1], e[:-1]], [-1, 1]) / (2.0 * h)
    D2 = sp.diags([e[:-1], -2.0 * e, e[:-1]], [-1, 0, 1]) / h**2
    main4 = 6.0 * e.copy()
    main4[0] += 1.0    # ghost-node fold-in for the clamped first derivative
    main4[-1] += 1.0
    D4 = sp.diags([e[:-2], -4.0 * e[:-1], main4, -4.0 * e[:-1], e[:-2]],
                  [-2, -1, 0, 1, 2]) / h**4
    S = D4 - 2.0 * a * a * D2 + a**4 * sp.eye(M)
    dU = sp.diags(smp.Uprime)
    T = 1j * a * (dU @ D1 + D1 @ dU)
    C = 1j * a * params.Ha * params.Pm * sp.diags(smp.Bsecond)
    # node-major Kronecker products interleave the 2 x 2 field blocks
    # [[T, -C], [C, -Pm T]] and [[S, 0], [0, S]]
    L = (sp.kron(T, np.diag([1.0, -params.Pm]))
         + sp.kron(C, np.array([[0.0, -1.0], [1.0, 0.0]])))
    return (-0.5 * L).tocsr(), sp.kron(S, np.eye(2)).tocsr()


def _fd_bands(A):
    """LAPACK upper band storage of an interleaved FD pencil matrix: row
    FD_KD - k holds the k-th superdiagonal, right-aligned."""
    ab = np.zeros((FD_KD + 1, A.shape[0]), dtype=A.dtype)
    for k in range(FD_KD + 1):
        ab[FD_KD - k, k:] = A.diagonal(k)
    return ab


def _fd_factor(Lb, Mb, sigma):
    """Banded Cholesky factor of sigma Mm - Lh, or None if it has none.

    Mm is positive definite, so by Sylvester's law of inertia the factor
    exists exactly when sigma lies above every eigenvalue of the pencil.
    """
    from scipy.linalg import LinAlgError, cholesky_banded

    try:
        return cholesky_banded(sigma * Mb - Lb, check_finite=False)
    except LinAlgError:
        return None


def _fd_max_m(params, a, M):
    """Largest eigenvalue of the FD pencil at one grid size.

    One Lanczos run in ARPACK's regular mode for the largest algebraic
    eigenvalue of (Lh, Mm), from a fixed start vector, with Mm^-1 applied
    through its banded Cholesky factor.  The eigenvector is polished by
    the exact Rayleigh quotient of the sparse matrices, since the Lanczos
    value alone degrades as the mass matrix norm grows like h^-4.  The
    value m is certified by one factorization: FD_SHIFT m Mm - Lh must
    have a Cholesky factor (_fd_factor), so no eigenvalue lies above
    FD_SHIFT m.  A missing factor, or a Lanczos run that does not
    converge, raises NumericalError.
    """
    import scipy.sparse.linalg as spla
    from scipy.linalg import cho_solve_banded, cholesky_banded

    Lh, Mm = _fd_matrices(params, a, M)
    Lb, Mb = _fd_bands(Lh), _fd_bands(Mm)
    c = cholesky_banded(Mb, check_finite=False)
    n = Lh.shape[0]
    minv = spla.LinearOperator(
        (n, n), dtype=complex,
        matvec=lambda x: cho_solve_banded((c, False), x, check_finite=False))
    rng = np.random.default_rng(_FD_SEED)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    try:
        _, vecs = spla.eigsh(Lh, k=1, M=Mm, Minv=minv, which="LA", v0=v0,
                             maxiter=5000)
    except spla.ArpackNoConvergence as exc:
        raise NumericalError(f"FD Lanczos at M={M} did not converge: "
                             f"{exc}") from exc
    # eigsh's ARPACK state holds a closure over itself; the cycle keeps the
    # matrices, the factor and the Lanczos basis alive until the cyclic
    # collector runs, and successive oracles would stack them in the peak
    # resident size.  The young generations still hold it: free it now.
    gc.collect(1)
    q = vecs[:, 0]
    m = float(np.vdot(q, Lh @ q).real) / float(np.vdot(q, Mm @ q).real)
    if _fd_factor(Lb, Mb, FD_SHIFT * m) is None:
        raise NumericalError(
            f"FD value {m:.6e} at M={M} is not the top eigenvalue: "
            f"{FD_SHIFT} m Mm - Lh has no Cholesky factor")
    return m


def fd_oracle(params, a, M=300):
    """Richardson-extrapolated maximum ratio from grids of M and 2M cells.

    An independent check of solve_max_m: second-order central differences
    on a uniform interior grid, clamped boundaries via ghost points, the
    same maximum-real-eigenvalue semantics, and h^2 extrapolation.  The
    two grids are independent solves of _fd_max_m, each certified by one
    Cholesky factorization.  In float64 the h^-4 stencil scale puts a ~1e-4
    relative accuracy floor on grids of several thousand cells, far inside
    the tolerance this oracle is used to certify.
    """
    a = positive_scalar(a, "wavenumber a")
    M = integer_in(M, "M", 200)
    m1 = _fd_max_m(params, a, M)
    m2 = _fd_max_m(params, a, 2 * M)
    return m2 + (m2 - m1) / 3.0
