"""Independent checks of the variational threshold computation.

Everything here deliberately avoids the clamped Galerkin machinery used by
the pencil assembly: energy functionals are evaluated by raw collocation
derivatives and quadrature on full nodal fields, and fd_oracle rebuilds
the whole eigenproblem on a uniform grid with second-order central finite
differences.  Agreement between these routes and the spectral solver is
what the acceptance tests certify, so the two implementations must never
be collapsed into one.
"""

import logging
import math
import mmap
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as ncheb

from .baseflow import BaseFlowSample, check_sample, profile_for
from .errors import (ConsistencyError, NumericalError, ParameterError,
                     VerificationError)
from .spectral import SpectralOperator, build_operator

log = logging.getLogger(__name__)

TRIAL_RTOL = 1e-6
DECAY_SLACK = 1e-10
POINCARE_SLACK = 1e-8
POINCARE_BOUND = math.pi * math.pi / 4.0
FD_DENSE_LIMIT = 1000
FD_COARSE_M = 400
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
    if not np.isfinite(a) or a == 0:
        raise ParameterError(f"wavenumber a must be finite and nonzero, got {a}")
    w_hat = np.asarray(w_hat, dtype=complex)
    l_hat = np.asarray(l_hat, dtype=complex)
    if w_hat.shape != op.nodes.shape or l_hat.shape != op.nodes.shape:
        raise ConsistencyError("field arrays must match the operator nodes")
    return _complete(a, w_hat, l_hat, op)


def _ddz(f, op):
    """Collocation derivative of one field or of each row of a batch; a
    single field keeps the arithmetic of the matrix-vector product."""
    return (op.D1 @ f.T).T


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
    Re l, Im l field after field.  Returns the w and l coefficients (one
    row per field) and the field batch.
    """
    x = op.nodes
    z = rng.standard_normal((count, 4, op.N - 3))
    cw = z[:, 0] + 1j * z[:, 1]
    cl = z[:, 2] + 1j * z[:, 3]
    env = (1.0 - x * x) ** 2
    field = _complete(a, env * ncheb.chebval(x, cw.T),
                      env * ncheb.chebval(x, cl.T), op)
    return cw, cl, field


def _check_bundle(field, params, sample, op):
    if not isinstance(op, SpectralOperator):
        raise ParameterError("expected a SpectralOperator")
    if not isinstance(sample, BaseFlowSample):
        raise ParameterError("expected a BaseFlowSample")
    check_sample(sample, params, op.nodes)
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

    def gradsq(f):
        return np.sum(w * (np.abs(_ddz(f, op)) ** 2 + a * a * np.abs(f) ** 2),
                      axis=-1)

    u, wf, h, lf = field.u_hat, field.w_hat, field.h_hat, field.l_hat
    A = params.A
    prod = -ip(sample.Uprime * wf, u)
    if A != 0.0:
        prod += A * (ip(sample.Bprime * lf, u) - ip(sample.Bprime * wf, h)
                     + ip(sample.Uprime * lf, h))
    Ha = params.Ha
    diss1 = gradsq(u) + gradsq(wf) + Ha * Ha * (gradsq(h) + gradsq(lf))
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
        _check_reynolds(Re)
        dEdt = prod - diss1 / Re
    return EnergyBreakdown(I=prod, D1=diss1, D=diss1, ratio=prod / diss1,
                           E=energy, dEdt=dEdt)


def _check_reynolds(Re):
    if not np.isfinite(Re) or Re <= 0:
        raise ParameterError(f"Re must be finite and > 0, got {Re}")


def _serialize_pair(cw, cl):
    return {"w": [[float(c.real), float(c.imag)] for c in cw],
            "l": [[float(c.real), float(c.imag)] for c in cl]}


def random_trial_bound(params, a, m_claimed, trials=1000, seed=0, N=60,
                       inject=()):
    """Stress the claimed maximum ratio with seeded random clamped fields.

    Fields are (1 - z^2)^2 times Chebyshev series of degree at most N - 4
    with standard complex Gaussian coefficients, for both the velocity and
    magnetic components.  Fields passed in inject (TrialField instances,
    e.g. a solved eigenvector) are evaluated before the random trials and
    reported with negative 1-based indices.  The first trial whose ratio
    exceeds m_claimed by more than a factor (1 + 1e-6) raises
    VerificationError carrying a falsification report with the offending
    field; otherwise the maximum ratio and its gap to the claim are
    returned.  The random trials are drawn and evaluated as one batch.
    """
    if not np.isfinite(m_claimed) or m_claimed <= 0:
        raise ParameterError(f"m_claimed must be finite and > 0, got {m_claimed}")
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    op = build_operator(N)
    sample = profile_for(params, op.nodes)
    limit = m_claimed * (1.0 + TRIAL_RTOL)

    def falsified(index, ratio, cw, cl):
        report = {
            "params": {"flow": params.flow, "Ha": params.Ha,
                       "Pm": params.Pm, "A": params.A},
            "a": float(a),
            "seed": int(seed),
            "trial_index": int(index),
            "ratio": float(ratio),
            "m_claimed": float(m_claimed),
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
                                            int(trials), a, op)
    prod, diss1, _ = _functionals(fields, params, sample, op)
    ratios = prod / diss1
    over = np.flatnonzero(ratios > limit)
    if over.size:
        t = int(over[0])
        raise falsified(t, ratios[t], cw[t], cl[t])
    max_ratio = max(max_ratio, float(np.max(ratios)))
    return {"max_ratio": float(max_ratio),
            "gap": float(m_claimed - max_ratio),
            "m_claimed": float(m_claimed),
            "trials": int(trials),
            "seed": int(seed)}


def _decay_terms(field, params, Re, Re_E, sample, op):
    """dEdt and the decay bound (1/Re_E - 1/Re) D + 1e-10 |D| of a field,
    or of a batch of fields (then arrays over rows)."""
    if not np.isfinite(Re_E) or Re_E <= 0:
        raise ParameterError(f"Re_E must be finite and > 0, got {Re_E}")
    _check_reynolds(Re)
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
    a = field.a
    w = op.qweights
    ratios = {}
    ok = True
    for name in ("u_hat", "w_hat", "h_hat", "l_hat"):
        f = getattr(field, name)
        n2 = float(np.sum(w * np.abs(f) ** 2))
        df = op.D1 @ f
        g2 = float(np.sum(w * (np.abs(df) ** 2 + a * a * np.abs(f) ** 2)))
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
# SciPy is imported inside the two FD helpers, its only users, so importing
# mhdes or running the spectral solver never loads it.

def _fd_matrices(params, a, M):
    """Uniform-grid FD pencil (-L/2, M) with clamped walls via ghost points.

    The advective block is assembled in the symmetrized form
    i a (U' D + D U'), which is the same operator after integration by
    parts and keeps the discrete matrix exactly Hermitian.  The magnetic
    unknown is Ha l, in which both fields carry the same energy block at
    every Ha > 0 and the coupling carries the factor Ha Pm, so the pencil
    has the same top eigenvalue as in l and stays well scaled as Ha -> 0.
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
    S = (D4 - 2.0 * a * a * D2 + a**4 * sp.eye(M)).tocsr()
    dU = sp.diags(smp.Uprime)
    T = 1j * a * (dU @ D1 + D1 @ dU)
    C = 1j * a * params.Ha * params.Pm * sp.diags(smp.Bsecond)
    L = sp.bmat([[T, -C], [C, -params.Pm * T]])
    Mm = sp.bmat([[S, None], [None, S]])
    return (-0.5 * L).tocsc(), Mm.tocsc()


def _dense_work(S):
    """Dense Fortran-ordered copy of a sparse matrix for LAPACK to overwrite.

    The buffer is a private anonymous mapping rather than a NumPy
    allocation: it is unmapped when the array is freed, so the
    several-megabyte buffers of successive oracles are never left in the
    heap, and NumPy does not mark them for huge pages; with heap buffers the
    peak resident size of a verify run varied by about one buffer from run
    to run.  toarray clears the buffer, so every page of it is written and
    the resident size does not depend on which pages the sparse entries
    touch.
    """
    buf = mmap.mmap(-1, S.shape[0] * S.shape[1] * np.dtype(S.dtype).itemsize)
    out = np.frombuffer(buf, dtype=S.dtype).reshape(S.shape, order="F")
    return S.toarray(out=out)


def _fd_max_m(params, a, M, m_near=None):
    """Largest eigenvalue of the FD pencil at one grid size.

    Small problems go through the dense symmetric solver, which computes
    the top eigenvalue only.  Larger ones use shift-invert Lanczos seeded
    deterministically, with the shift placed a safe 5% above m_near, an
    estimate of that eigenvalue (without one, a dense solve at
    FD_COARSE_M), and the returned eigenpair is polished by an exact
    Rayleigh quotient of the sparse matrices (the factorization alone
    degrades as the mass matrix norm grows like h^-4).  A quotient not
    below the shift raises NumericalError: with the shift at or below the
    top eigenvalue, shift-invert returns the eigenvalue nearest the shift,
    which can be an interior one.  The guard catches a shift just below
    the top eigenvalue; one far below it can land on an interior
    eigenvalue below the shift unnoticed, so m_near must estimate the top
    eigenvalue itself.
    """
    import scipy.linalg as sla
    import scipy.sparse.linalg as spla

    Lh, Mm = _fd_matrices(params, a, M)
    n = Lh.shape[0]
    if n <= FD_DENSE_LIMIT:
        vals = sla.eigh(_dense_work(Lh), _dense_work(Mm.astype(complex)),
                        eigvals_only=True, subset_by_index=[n - 1, n - 1],
                        overwrite_a=True, overwrite_b=True)
        return float(vals[-1])
    if m_near is None:
        m_near = _fd_max_m(params, a, FD_COARSE_M)
    sigma = 1.05 * m_near
    rng = np.random.default_rng(_FD_SEED)
    v0 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    vals, vecs = spla.eigsh(Lh, k=3, M=Mm, sigma=sigma, which="LM", v0=v0,
                            maxiter=5000)
    q = vecs[:, int(np.argmax(vals))]
    num = float(np.vdot(q, Lh @ q).real)
    den = float(np.vdot(q, Mm @ q).real)
    m = num / den
    if not m < sigma:
        raise NumericalError(
            f"FD shift {sigma:.6e} at M={M} is not above the eigenvalue "
            f"{m:.6e} it found; shift-invert may have missed the top one")
    return m


def fd_oracle(params, a, M=300):
    """Richardson-extrapolated maximum ratio from grids of M and 2M cells.

    An independent check of solve_max_m: second-order central differences
    on a uniform interior grid, clamped boundaries via ghost points, the
    same maximum-real-eigenvalue semantics, and h^2 extrapolation.  In
    float64 the h^-4 stencil scale puts a ~1e-4 relative accuracy floor on
    grids of several thousand cells, far inside the tolerance this oracle
    is used to certify.
    """
    if not np.isfinite(a) or a <= 0:
        raise ParameterError(f"wavenumber a must be finite and > 0, got {a}")
    if not isinstance(M, (int, np.integer)) or M < 200:
        raise ParameterError(f"M must be an integer >= 200, got {M!r}")
    m1 = _fd_max_m(params, a, int(M))
    # m1 is within O(h^2) of the fine grid's top eigenvalue, far inside
    # the 5% margin of the shift placed above it
    m2 = _fd_max_m(params, a, 2 * int(M), m_near=m1)
    return m2 + (m2 - m1) / 3.0
