"""Independent checks of the variational threshold computation.

Everything here deliberately avoids the clamped Galerkin machinery used by
the pencil assembly: energy functionals are evaluated by raw collocation
derivatives and Clenshaw-Curtis quadrature, on full nodal fields for a given
field and, for the seeded random fields, as the same quadrature regrouped
into real quadratic forms on their Gaussian coefficients, so no random field
is ever formed on the nodes.  fd_oracle rebuilds the whole eigenproblem on a
uniform grid with second-order central finite differences, finds its top
eigenvalue by one Lanczos run per grid and certifies it by one
block-tridiagonal Cholesky factorization.  No solver module is imported, no
clamped map is read, and NumPy alone is used.  check_claim runs every check of
one claimed maximum, as mhdes verify reports it.  Agreement between these
routes and the spectral solver is what the acceptance tests certify, so the
two implementations must never be collapsed into one.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as ncheb

from .baseflow import check_sample, profile_for
from .errors import (ConsistencyError, NumericalError, ParameterError,
                     VerificationError, instance, integer_in, positive_scalar,
                     wavenumber)
from .spectral import SpectralOperator, setup

log = logging.getLogger(__name__)

TRIAL_RTOL = 1e-6
RATIO_IDENT_RTOL = 1e-8
VERIFY_DECAY_FIELDS = 10
VERIFY_FD_RTOL = 5e-3
TRIAL_BLOCK = 200
DECAY_SLACK = 1e-10
POINCARE_SLACK = 1e-8
POINCARE_BOUND = math.pi * math.pi / 4.0
FD_KD = 4
FD_SHIFT = 1.05
FD_BLOCK = 32
FD_LANCZOS_STEPS = 100
FD_LANCZOS_TOL = 1e-10
_FD_SEED = 12345


@dataclass(frozen=True, eq=False)
class TrialField:
    """One spanwise Fourier mode of a kinematically admissible disturbance:
    wall-normal velocity w_hat and rescaled magnetic field l_hat = Ha l,
    as solve_max_m returns them, with their in-plane companions
    u_hat = (i/a) w_hat' and h_hat = (i/a) l_hat'."""

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
    a = wavenumber(a, "wavenumber a")
    w_hat = np.asarray(w_hat, dtype=complex)
    l_hat = np.asarray(l_hat, dtype=complex)
    _check_nodes(op, w_hat, l_hat)
    return _complete(a, w_hat, l_hat, op)


def _ddz(f, op):
    """Collocation derivative of one nodal field."""
    return op.D1 @ f


def _gradsq(f, a, op):
    """Quadrature of |f'|^2 + a^2 |f|^2 with the raw collocation
    derivative."""
    return np.sum(op.qweights * (np.abs(_ddz(f, op)) ** 2
                                 + a * a * np.abs(f) ** 2))


def _finite(a, *values):
    """Raise NumericalError naming a unless every entry of values is
    finite: the in-plane components scale as 1/a, so at a tiny wavenumber
    a field or its functionals overflow."""
    if not all(np.all(np.isfinite(v)) for v in values):
        raise NumericalError(f"trial field at a={a:g} overflows: its "
                             "in-plane components scale as 1/a")


def _complete(a, w_hat, l_hat, op):
    """TrialField of one field from its wall-normal components."""
    with np.errstate(over="ignore", invalid="ignore"):
        u_hat, h_hat = ((1j / a) * _ddz(f, op) for f in (w_hat, l_hat))
    _finite(a, u_hat, h_hat)
    return TrialField(a=float(a), w_hat=w_hat, l_hat=l_hat, u_hat=u_hat,
                      h_hat=h_hat)


def _random_coefficients(rng, count, op):
    """count seeded random clamped fields by their coefficients.

    Each field is (1 - z^2)^2 times Chebyshev series of degree op.N - 4
    with standard complex Gaussian coefficients for w and l~ = Ha l.  The
    draws are one (count, 4, N - 3) block z whose rows are the coefficients
    of Re w, Im w, Re l~ and Im l~, the same stream as drawing them field
    after field, so consecutive calls on one generator draw the fields of
    one larger call.
    """
    return rng.standard_normal((count, 4, op.N - 3))


def _trial_forms(params, a, sample, op):
    """Production I and primary dissipation D1 of the random clamped fields
    at wavenumber a as real quadratic forms on their coefficients z (see
    _random_coefficients).

    With Phi the nodal values of (1 - z^2)^2 T_k, k <= N - 4, Phi1 =
    D1 Phi, Phi2 = D1 Phi1 and G(f, g, v) = f^T diag(q v) g for the
    Clenshaw-Curtis weights q, the dissipation is the sum over the four
    rows z_r of z_r^T D z_r, with D = G(Phi2, Phi2, 1) / a^2
    + 2 G(Phi1, Phi1, 1) + a^2 G(Phi, Phi, 1), and the production is
    I = (1/a) (-x_w^T A y_w + Pm x_l^T A y_l + Ha Pm (x_w^T S y_l
    - y_w^T S x_l)), with x and y the real and imaginary rows, A =
    G(Phi1, Phi, U') - its transpose and S = G(Phi1, Phi, B') + its
    transpose: the quadrature and derivative of _functionals on
    u = (i/a) w' and h = (i/a) l~', regrouped.  Returns the evaluation of
    (I, D1) over the fields of a block z, which raises NumericalError if
    one overflows.  Every product of the evaluation is stacked, one
    (4, N - 3) row block per field, or elementwise, so each field takes the
    same arithmetic in any block, and no block is one product large enough
    to wake a BLAS worker thread.
    """
    x, q, n = op.nodes, op.qweights, op.N - 3
    phi = ((1.0 - x * x) ** 2)[:, None] * ncheb.chebvander(x, op.N - 4)
    phi1 = op.D1 @ phi
    phi2 = op.D1 @ phi1

    def gram(f, g, v):
        return (f * v[:, None]).T @ g

    with np.errstate(over="ignore", invalid="ignore"):
        diss = (gram(phi2, phi2, q) / (a * a) + 2.0 * gram(phi1, phi1, q)
                + (a * a) * gram(phi, phi, q))
        cu = gram(phi1, phi, q * sample.Uprime)
        cb = gram(phi1, phi, q * sample.Bprime)
        forms = np.hstack([diss, (cu - cu.T) / a,
                           (params.Ha * params.Pm / a) * (cb + cb.T)])

    def evaluate(z):
        with np.errstate(over="ignore", invalid="ignore"):
            p = z @ forms
            diss1 = np.sum(np.sum(p[..., :n] * z, axis=-1), axis=-1)
            zu, zb = p[..., n:2 * n], p[..., 2 * n:]
            prod = (np.sum(params.Pm * zu[:, 2] * z[:, 3]
                           - zu[:, 0] * z[:, 1], axis=-1)
                    + np.sum(zb[:, 0] * z[:, 3] - zb[:, 1] * z[:, 2],
                             axis=-1))
        _finite(a, prod, diss1)
        return prod, diss1

    return evaluate


def _check_nodes(op, *arrays):
    shape = instance(op, SpectralOperator, "op").nodes.shape
    if any(np.shape(f) != shape for f in arrays):
        raise ConsistencyError("field arrays do not match the operator nodes")


def _check_field(field, op):
    instance(field, TrialField, "field")
    wavenumber(field.a, "field.a")
    _check_nodes(op, field.w_hat, field.l_hat, field.u_hat, field.h_hat)


def _functionals(field, params, sample, op):
    """Production I, primary dissipation D1 and energy E of one field.

    Clenshaw-Curtis quadratures of nodal values with raw collocation
    derivatives; raises NumericalError if one overflows and ParameterError
    for a field with zero dissipation.
    In (l~, h~) = Ha (l, h) no weight carries Ha^-1: Ha Pm on the B' cross
    terms, Pm on the U' magnetic term and the magnetic energy.
    """
    a = field.a
    w = op.qweights

    def ip(f, g):
        return np.real(np.sum(w * f * np.conj(g)))

    u, wf, h, lf = field.u_hat, field.w_hat, field.h_hat, field.l_hat
    Ha, Pm = params.Ha, params.Pm
    with np.errstate(over="ignore", invalid="ignore"):
        prod = (-ip(sample.Uprime * wf, u)
                + Ha * Pm * (ip(sample.Bprime * lf, u)
                             - ip(sample.Bprime * wf, h))
                + Pm * ip(sample.Uprime * lf, h))
        diss1 = (_gradsq(u, a, op) + _gradsq(wf, a, op) + _gradsq(h, a, op)
                 + _gradsq(lf, a, op))
        energy = 0.5 * (np.sum(w * (np.abs(u) ** 2 + np.abs(wf) ** 2))
                        + Pm * np.sum(w * (np.abs(h) ** 2 + np.abs(lf) ** 2)))
    _finite(a, prod, diss1, energy)
    if diss1 <= 0.0:
        raise ParameterError("trial field has zero dissipation; the ratio "
                             "is undefined for the zero field")
    return prod, diss1, energy


def energy_ratio(field, params, sample, op, Re=None):
    """Energy production, dissipation, and their ratio for a trial field.

    All inner products are Clenshaw-Curtis quadratures of nodal values
    using raw collocation derivatives, independent of the clamped pencil
    machinery.  For single-mode fields of this kind the full dissipation D
    coincides with the primary functional D1.  Re, when given, also
    evaluates dEdt = I - D/Re.
    """
    check_sample(sample, params, op)
    _check_field(field, op)
    prod, diss1, energy = (float(v) for v in
                           _functionals(field, params, sample, op))
    dEdt = None
    if Re is not None:
        dEdt = prod - diss1 / positive_scalar(Re, "Re")
    return EnergyBreakdown(I=prod, D1=diss1, D=diss1, ratio=prod / diss1,
                           E=energy, dEdt=dEdt)


def random_trial_bound(params, a, m_claimed, trials=1000, seed=0, N=60,
                       inject=()):
    """Stress the claimed maximum ratio with seeded random clamped fields.

    Fields are (1 - z^2)^2 times Chebyshev series of degree at most N - 4
    with standard complex Gaussian coefficients, for both the velocity and
    the rescaled magnetic field l~ = Ha l (the falsification report's "l"
    coefficients are l~'s), on the operator of order N that spectral.setup
    shares with the searches and the base flow sampled on its nodes.
    Fields passed in inject (TrialField instances at wavenumber a on those
    nodes, e.g. a solved eigenvector) are evaluated before the random
    trials and reported with negative 1-based indices; one at another
    wavenumber or order raises ConsistencyError.  The first trial whose
    ratio exceeds m_claimed by more than a factor (1 + 1e-6) raises
    VerificationError carrying a falsification report with the offending
    field; otherwise the maximum ratio and its gap to the claim are
    returned.  The random trials are drawn from one generator and evaluated
    by the quadratic forms of _trial_forms in blocks of TRIAL_BLOCK fields,
    each released once the next is evaluated, so memory does not grow with
    trials; a falsified claim stops at the block of its first offender,
    which is reported by its index among all trials.  Each field takes the
    same arithmetic in any block, so the report has the bits of one batch
    of all trials.
    """
    a = wavenumber(a, "wavenumber a")
    m_claimed = positive_scalar(m_claimed, "m_claimed")
    trials = integer_in(trials, "trials", 1)
    seed = integer_in(seed, "seed", 0)
    op, _ = setup(N)
    sample = profile_for(params, op.nodes)
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
            "field_coefficients": {
                "w": [[float(c.real), float(c.imag)] for c in cw],
                "l": [[float(c.real), float(c.imag)] for c in cl]},
        }
        return VerificationError(
            f"trial {index} reached ratio {ratio:.6e} above the claimed "
            f"maximum {m_claimed:.6e}", report)

    max_ratio = -math.inf
    for k, field in enumerate(inject):
        # energy_ratio checks the field before its wavenumber is read
        ratio = energy_ratio(field, params, sample, op).ratio
        if field.a != a:
            raise ConsistencyError(f"injected field at a={field.a:g}, not {a:g}")
        max_ratio = max(max_ratio, ratio)
        if ratio > limit:
            raise falsified(-(k + 1), ratio, field.w_hat, field.l_hat)
    evaluate = _trial_forms(params, a, sample, op)
    rng = np.random.default_rng(seed)
    start = 0
    while start < trials:
        size = min(TRIAL_BLOCK, trials - start)
        z = _random_coefficients(rng, size, op)
        prod, diss1 = evaluate(z)
        ratios = prod / diss1
        over = np.flatnonzero(ratios > limit)
        if over.size:
            t = int(over[0])
            raise falsified(start + t, ratios[t], z[t, 0] + 1j * z[t, 1],
                            z[t, 2] + 1j * z[t, 3])
        max_ratio = max(max_ratio, float(np.max(ratios)))
        start += size
    return {"max_ratio": max_ratio,
            "gap": m_claimed - max_ratio,
            "m_claimed": m_claimed,
            "trials": trials,
            "seed": seed}


def _decay_terms(prod, diss, Re, Re_E):
    """dEdt and the decay bound (1/Re_E - 1/Re) D + 1e-10 |D| of the
    production and dissipation of one field, or of arrays of them."""
    dEdt = prod - diss / Re
    bound = (1.0 / Re_E - 1.0 / Re) * diss + DECAY_SLACK * np.abs(diss)
    return dEdt, bound


def decay_check(field, params, Re, Re_E, sample, op):
    """Evaluate the decay certificate dEdt <= (1/Re_E - 1/Re) D for one
    field, with a relative slack of 1e-10 |D| absorbing quadrature
    rounding.  Returns the signed margin (bound - dEdt, >= 0 when the
    certificate holds)."""
    check_sample(sample, params, op)
    _check_field(field, op)
    Re_E = positive_scalar(Re_E, "Re_E")
    Re = positive_scalar(Re, "Re")
    prod, diss, _ = _functionals(field, params, sample, op)
    dEdt, bound = (float(v) for v in _decay_terms(prod, diss, Re, Re_E))
    return DecayReport(dEdt=dEdt, bound=bound, margin=bound - dEdt,
                       satisfied=dEdt <= bound)


def poincare_check(field, op):
    """Check pi^2/4 * ||f||^2 <= ||grad f||^2 (1 + 1e-8) for each field
    component; the gradient includes the a^2 in-plane contribution.  A
    field off the operator's nodes raises ConsistencyError, and one whose
    norms overflow NumericalError."""
    _check_field(field, op)
    ratios = {}
    ok = True
    for name in ("u_hat", "w_hat", "h_hat", "l_hat"):
        f = getattr(field, name)
        with np.errstate(over="ignore", invalid="ignore"):
            n2 = float(np.sum(op.qweights * np.abs(f) ** 2))
            g2 = float(_gradsq(f, field.a, op))
        _finite(field.a, n2, g2)
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

def _fd_matrices(params, a, M):
    """Uniform-grid FD pencil (-L/2, Mm) with clamped walls via ghost points,
    in LAPACK upper band storage: row kd - k holds the k-th superdiagonal,
    right-aligned.

    The advective block is assembled in the symmetrized form
    i a (U' D + D U'), which is the same operator after integration by
    parts and keeps the discrete matrix exactly Hermitian.  The magnetic
    unknown is Ha l, in which both fields carry the same energy block at
    every Ha > 0 and the coupling carries the factor Ha Pm, so the pencil
    has the same top eigenvalue as in l and stays well scaled as Ha -> 0.
    The unknowns are interleaved node by node, (w_1, Ha l_1, w_2, ...), so
    both matrices are Hermitian banded with FD_KD superdiagonals: the
    five-point energy stencil reaches two nodes, four rows, away.

    Returns Lb, the (FD_KD + 1, 2M) bands of -L/2, and Sb, the (3, M)
    bands of the real energy form S = D4 - 2 a^2 D2 + a^4, of which
    Mm = S (x) I_2 in the interleaved unknowns.  Each stencil is scaled by
    the reciprocal of 2h, h^2 or h^4 and each entry is rounded as in a
    sparse Kronecker-product build of the same pencil, which the tests
    keep as the reference: at M >= 1200 a last-bit change in S or L moves
    m by about 1e-6.
    """
    h = 2.0 / (M + 1)
    z = -1.0 + h * np.arange(1, M + 1)
    smp = profile_for(params, z)
    r1, r2, r4 = 1.0 / (2.0 * h), 1.0 / h**2, 1.0 / h**4
    c = 2.0 * a * a
    main4 = np.full(M, 6.0)
    main4[[0, -1]] = 7.0    # ghost-node fold-in for the clamped derivative
    Sb = np.empty((3, M))
    Sb[0] = r4
    Sb[1] = -4.0 * r4 - c * r2
    Sb[2] = (main4 * r4 - c * (-2.0 * r2)) + a**4
    # the superdiagonal of i a (U' D1 + D1 U') and the diagonal of
    # C = i a Ha Pm B''; the 2 x 2 node blocks of L are [[T, -C], [C, -Pm T]]
    t = (smp.Uprime[:-1] * r1 + r1 * smp.Uprime[1:]) * a
    cb = smp.Bsecond * (a * params.Ha * params.Pm)
    Lb = np.zeros((FD_KD + 1, 2 * M), dtype=complex)
    Lb.imag[FD_KD - 1, 1::2] = -0.5 * -cb
    Lb.imag[FD_KD - 2, 2::2] = -0.5 * t
    Lb.imag[FD_KD - 2, 3::2] = -0.5 * (t * -params.Pm)
    return Lb, Sb


def _band_matvec(ab, x):
    """Product of the Hermitian matrix with upper bands ab and x, which
    holds one vector per column when it is two-dimensional."""
    kd = ab.shape[0] - 1
    ab = ab.reshape(ab.shape + (1,) * (x.ndim - 1))
    y = ab[kd] * x
    for k in range(1, kd + 1):
        d = ab[kd - k, k:]
        y[:-k] += d * x[k:]
        y[k:] += d.conj() * x[:-k]
    return y


def _band_blocks(ab, s):
    """Block-tridiagonal form of the Hermitian matrix with upper bands ab,
    in blocks of s rows.

    Returns the diagonal blocks, the last one padded with identity past
    the matrix, and for each block the kd x kd corner that couples its
    last kd rows to the first kd rows of the next block, where kd <= s is
    the bandwidth; the rest of every off-diagonal block is zero.
    """
    kd, n = ab.shape[0] - 1, ab.shape[1]
    nb = -(-n // s)
    diag = np.zeros((nb, s, s), dtype=ab.dtype)
    corner = np.zeros((nb - 1, kd, kd), dtype=ab.dtype)
    pad = np.arange(n - (nb - 1) * s, s)
    diag[-1, pad, pad] = 1.0
    for k in range(kd + 1):
        b, r = np.divmod(np.arange(n - k), s)
        c = r + k
        v = ab[kd - k, k:]
        inside = c < s
        diag[b[inside], r[inside], c[inside]] = v[inside]
        diag[b[inside], c[inside], r[inside]] = v[inside].conj()
        out = ~inside
        corner[b[out], r[out] - (s - kd), c[out] - s] = v[out]
    return diag, corner


def _block_cholesky(diag, corner):
    """Cholesky factor L L^H of a Hermitian block-tridiagonal matrix in the
    form of _band_blocks, or None if it has none.

    Returns the diagonal blocks of L and, for each block but the last, the
    corner of the block of L below it: that block is U^H L_k^-H, where U
    is the matrix's block right of block k, so it is zero but for its
    top-right kd x kd corner, and it changes only the top-left corner of
    the next pivot block.  A pivot block without a
    Cholesky factor means that the matrix is not positive definite.
    """
    kd = corner.shape[-1]
    low = np.empty_like(diag)
    below = np.empty_like(corner)
    pivot = diag[0]
    for k in range(len(diag)):
        try:
            low[k] = np.linalg.cholesky(pivot)
        except np.linalg.LinAlgError:
            return None
        if k < len(corner):
            below[k] = np.linalg.solve(low[k, -kd:, -kd:],
                                       corner[k]).conj().T
            pivot = diag[k + 1].copy()
            pivot[:kd, :kd] -= below[k] @ below[k].conj().T
    return low, below


def _block_solver(low, below):
    """The solve x = (L L^H)^-1 b for a factor of _block_cholesky, where b
    holds one right-hand side per column.

    Each substitution is one batched product with the inverses of the
    diagonal blocks of L, a recurrence that carries the kd rows at the
    edge of each block to the next, and one batched correction of the
    rest of the block by the rows carried into it.
    """
    nb, s = low.shape[:2]
    kd = below.shape[-1]
    linv = np.linalg.inv(low)
    linvh = linv.conj().transpose(0, 2, 1)
    fwd = linv[1:, :, :kd] @ below
    bwd = linvh[:-1, :, -kd:] @ below.conj().transpose(0, 2, 1)

    def solve(b):
        y = np.zeros((nb * s, b.shape[1]), dtype=np.result_type(low, b))
        y[:len(b)] = b
        y = linv @ y.reshape(nb, s, -1)
        for k in range(1, nb):
            y[k, -kd:] -= fwd[k - 1, -kd:] @ y[k - 1, -kd:]
        y[1:, :-kd] -= fwd[:, :-kd] @ y[:-1, -kd:]
        y = linvh @ y
        for k in range(nb - 2, -1, -1):
            y[k, :kd] -= bwd[k, :kd] @ y[k + 1, :kd]
        y[:-1, kd:] -= bwd[:, kd:] @ y[1:, :kd]
        return y.reshape(nb * s, -1)[:len(b)]

    return solve


def _fd_factor(Lb, Sb, sigma):
    """Block Cholesky factor of sigma Mm - Lh, or None if it has none.

    Mm is positive definite, so by Sylvester's law of inertia the factor
    exists exactly when sigma lies above every eigenvalue of the pencil.
    """
    Mb = np.zeros(Lb.shape)
    for k in range(3):
        Mb[FD_KD - 2 * k, 2 * k:] = np.repeat(Sb[2 - k, k:], 2)
    return _block_cholesky(*_band_blocks(sigma * Mb - Lb, FD_BLOCK))


def _fd_max_m(params, a, M):
    """Largest eigenvalue of the FD pencil at one grid size.

    One Lanczos run in regular mode for the largest algebraic eigenvalue
    of (Lh, Mm), from a fixed start vector, fully reorthogonalized in the
    Mm inner product, with Mm^-1 applied through one block Cholesky
    factor of S, shared by w and Ha l.  The run stops when the residual
    bound of the top Ritz pair falls to FD_LANCZOS_TOL of its value; the
    Ritz vector is polished by the exact Rayleigh quotient of the banded
    matrices, since the Lanczos value alone degrades as the mass matrix
    norm grows like h^-4.  The value m is certified by one factorization:
    FD_SHIFT m Mm - Lh must have a Cholesky factor (_fd_factor), so no
    eigenvalue lies above FD_SHIFT m.  A missing factor, a non-finite norm
    (a^4 near 1e308 overflows Mm), or a run that does not converge within
    FD_LANCZOS_STEPS steps, raises NumericalError.
    """
    Lb, Sb = _fd_matrices(params, a, M)
    mass_solve_real = _block_solver(*_block_cholesky(
        *_band_blocks(Sb, FD_BLOCK)))
    n = Lb.shape[1]

    def mass(x):
        return _band_matvec(Sb, x.reshape(M, 2)).ravel()

    def mass_solve(x):
        real = mass_solve_real(x.reshape(M, 2).view(float))
        return np.ascontiguousarray(real).view(complex).ravel()

    rng = np.random.default_rng(_FD_SEED)
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    steps = FD_LANCZOS_STEPS
    V = np.empty((steps, n), dtype=complex)
    MV = np.empty((steps, n), dtype=complex)
    T = np.zeros((steps, steps))
    with np.errstate(over="ignore", invalid="ignore"):
        mw = mass(w)
        norm = math.sqrt(np.vdot(w, mw).real)
        for j in range(steps):
            if not math.isfinite(norm):
                raise NumericalError(f"FD Lanczos at M={M} overflowed: {norm}")
            if j:
                T[j - 1, j] = T[j, j - 1] = norm
            V[j], MV[j] = w / norm, mw / norm
            lv = _band_matvec(Lb, V[j])
            T[j, j] = np.vdot(V[j], lv).real
            w = mass_solve(lv)
            # classical Gram-Schmidt twice against the whole basis, by
            # elementwise products and sums: as matrix-vector products they
            # are too small to gain from a second thread, yet wake NumPy's
            # BLAS worker pool
            for _ in range(2):
                c = np.einsum("ij,j->i", MV[:j + 1], w.conj()).conj()
                w -= np.einsum("i,ij->j", c, V[:j + 1])
            mw = mass(w)
            norm = math.sqrt(np.vdot(w, mw).real)
            theta, s = np.linalg.eigh(T[:j + 1, :j + 1])
            if norm * abs(s[-1, -1]) <= FD_LANCZOS_TOL * abs(theta[-1]):
                break
        else:
            raise NumericalError(f"FD Lanczos at M={M} did not converge in "
                                 f"{steps} steps")
    q = np.einsum("i,ij->j", s[:, -1], V[:j + 1])
    m = (float(np.vdot(q, _band_matvec(Lb, q)).real)
         / float(np.vdot(q, mass(q)).real))
    if _fd_factor(Lb, Sb, FD_SHIFT * m) is None:
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
    a = wavenumber(a, "wavenumber a")
    M = integer_in(M, "M", 200)
    m1 = _fd_max_m(params, a, M)
    m2 = _fd_max_m(params, a, 2 * M)
    return m2 + (m2 - m1) / 3.0


def check_claim(field, params, m, m_claimed, seed, sample, op):
    """mhdes verify's checks of the claim m_claimed for the eigenfield field
    of ratio m, solved on op of spectral.setup with sample on its nodes, by
    name in report order, each with a "passed" flag.  The trials draw from
    seed, the decay fields from seed + 1.  Failed checks are not raised."""
    m = positive_scalar(m, "m")
    m_claimed = positive_scalar(m_claimed, "m_claimed")
    seed = integer_in(seed, "seed", 0)

    # energy_ratio checks the field before its wavenumber is read
    br = energy_ratio(field, params, sample, op)
    a = field.a
    dev = abs(br.ratio - m_claimed) / m_claimed
    checks = {"ratio_identity": {"passed": bool(dev <= RATIO_IDENT_RTOL),
                                 "rel_dev": dev}}

    # the solved eigenvector rides along as trial -1, so an understated
    # claim is falsified by the maximizer itself
    try:
        rep = random_trial_bound(params, a, m_claimed, seed=seed, N=op.N,
                                 inject=(field,))
        checks["random_trial_bound"] = {"passed": True, **rep}
    except VerificationError as exc:
        checks["random_trial_bound"] = {"passed": False, "report": exc.report}

    Re_E_a = 1.0 / m
    dc = decay_check(field, params, 0.5 * Re_E_a, Re_E_a, sample, op)
    z = _random_coefficients(np.random.default_rng(seed + 1),
                             VERIFY_DECAY_FIELDS, op)
    dEdt, bound = _decay_terms(*_trial_forms(params, a, sample, op)(z),
                               0.5 * Re_E_a, Re_E_a)
    ok_decay = (dc.satisfied and dc.dEdt < 0
                and bool(np.all((dEdt <= bound) & (dEdt < 0))))
    checks["decay_below_threshold"] = {"passed": bool(ok_decay),
                                       "eig_margin": dc.margin}

    pc = poincare_check(field, op)
    checks["poincare"] = {"passed": bool(pc.satisfied),
                          "ratios": {k: v["ratio"] for k, v in pc.ratios.items()}}

    m_fd = fd_oracle(params, a)
    rel = abs(m_fd - m) / m
    checks["fd_oracle"] = {"passed": bool(rel <= VERIFY_FD_RTOL),
                           "m_fd": m_fd, "m_spectral": m, "rel_dev": rel}
    return checks
