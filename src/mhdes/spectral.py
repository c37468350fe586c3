"""Chebyshev collocation machinery on [-1, 1].

Provides dense differentiation matrices on Chebyshev-Gauss-Lobatto nodes,
Clenshaw-Curtis quadrature weights on the same nodes, and a clamped-boundary
restriction built by basis recombination: the columns of the injection map
are the modal functions (1 - z^2)^2 * T_j(z), so the degrees of freedom are
their coefficients and column j has the parity of j.  The basis and its
derivatives are evaluated from exact Chebyshev coefficients through one
Chebyshev-Vandermonde matrix rather than as products of collocation
matrices, which would add rounding.  setup(N) keeps the operator and maps
of the last N asked for: the one grid that every layer at that N reads.
"""

import functools
from dataclasses import dataclass

import numpy as np
import numpy.polynomial.chebyshev as ncheb

from .errors import instance, integer_in

N_MIN = 8
N_MAX = 512


@dataclass(frozen=True, eq=False)
class SpectralOperator:
    """Collocation operator bundle of polynomial order N.

    nodes are ordered from +1 down to -1 (standard Gauss-Lobatto order),
    the endpoints are exact and the grid is exactly antisymmetric.
    D1 is the first-derivative matrix, qweights the Clenshaw-Curtis weights
    on the same nodes (sum = 2).
    """

    N: int
    nodes: np.ndarray
    D1: np.ndarray
    qweights: np.ndarray


@dataclass(frozen=True, eq=False)
class ClampedMaps:
    """Restriction of the collocation operators to the clamped subspace.

    inject maps N-3 modal coefficients to full nodal vectors satisfying
    f = f' = 0 at both walls: column j holds (1 - z^2)^2 * T_j(z) on the
    nodes.  basis_d1/basis_d2 hold the first and second derivative values
    of the same basis on the full grid.
    """

    inject: np.ndarray
    basis_d1: np.ndarray
    basis_d2: np.ndarray


def _chebdif(N):
    """Nodes and first-derivative matrix on N+1 CGL nodes.

    Trigonometric-identity construction with the negative-sum diagonal
    correction; the node vector is symmetrized so z = 0 is exact on even
    grids and the set is exactly antisymmetric.
    """
    n = N + 1
    k = np.arange(n)
    theta = np.pi * k / N
    x = np.cos(theta)
    x = 0.5 * (x - x[::-1])
    T = np.tile(theta / 2, (n, 1))
    DX = 2 * np.sin(T.T + T) * np.sin(T - T.T)
    m = (n + 1) // 2
    DX[m:, :] = -np.flipud(np.fliplr(DX[: n - m, :]))
    np.fill_diagonal(DX, 1.0)
    c = np.ones(n)
    c[0] = 2.0
    c[-1] = 2.0
    c = c * (-1.0) ** k
    C = np.outer(c, 1.0 / c)
    Z = 1.0 / DX
    np.fill_diagonal(Z, 0.0)
    D = Z * (C - np.eye(n))
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, -np.sum(D, axis=1))
    return x, D


def _clencurt(N):
    """Clenshaw-Curtis quadrature weights on the N+1 CGL nodes.

    The interior weights are 1 minus the cosine terms, summed in order of
    k by one cumulative sum down the stacked terms.
    """
    theta = np.pi * np.arange(1, N) / N
    kk = np.arange(1, (N - 1) // 2 + 1)[:, None]
    terms = [np.ones((1, N - 1)),
             -(2.0 * np.cos(2 * kk * theta) / (4 * kk**2 - 1))]
    w = np.zeros(N + 1)
    if N % 2 == 0:
        w[0] = w[N] = 1.0 / (N**2 - 1)
        terms.append(-(np.cos(N * theta) / (N**2 - 1))[None])
    else:
        w[0] = w[N] = 1.0 / N**2
    w[1:N] = 2.0 * np.cumsum(np.concatenate(terms), axis=0)[-1] / N
    return w


def build_operator(N):
    """Build the collocation bundle of order N (8 <= N <= 512)."""
    N = integer_in(N, "N", N_MIN, N_MAX)
    x, D1 = _chebdif(N)
    w = _clencurt(N)
    return SpectralOperator(N=N, nodes=x, D1=D1, qweights=w)


def clamped_restrict(op):
    """Clamped-boundary restriction maps for the given operator bundle.

    The N-3 basis functions are (1 - z^2)^2 * T_j, j = 0..N-4.  Their
    Chebyshev coefficients follow from T_j T_k = (T_{j+k} + T_{|j-k|})/2,
    and each table is the Chebyshev-Vandermonde matrix on the nodes times
    the coefficients (differentiated for basis_d1/basis_d2).  Wall rows of
    the value and first-derivative tables are set to their exact zeros.
    """
    N = instance(op, SpectralOperator, "op").N
    j = np.arange(N - 3)
    P = np.zeros((N + 1, N - 3))
    # (1-z^2)^2 = 3/8 T_0 - 1/2 T_2 + 1/8 T_4
    for k, c in ((0, 3 / 8), (2, -1 / 2), (4, 1 / 8)):
        P[j + k, j] += c / 2
        P[np.abs(j - k), j] += c / 2
    T = ncheb.chebvander(op.nodes, N)
    R = T @ P
    dP = ncheb.chebder(P)
    G1 = T[:, :N] @ dP
    G2 = T[:, :N - 1] @ ncheb.chebder(dP)
    for tab in (R, G1):
        tab[0, :] = 0.0
        tab[N, :] = 0.0
    return ClampedMaps(inject=R, basis_d1=G1, basis_d2=G2)


def setup(N):
    """Operator of order N and its clamped maps, kept for the next caller;
    N is checked first, since the cache hashes it."""
    return _cached_setup(integer_in(N, "N", N_MIN, N_MAX))


@functools.lru_cache(maxsize=1)
def _cached_setup(N):
    op = build_operator(N)
    return op, clamped_restrict(op)
