"""Tridiagonal matrix realizations of the two generators and their checks.

Two gauges are supported.  In the ``theta_star_basis`` gauge the second
generator is diagonal and the first acts tridiagonally; in the
``theta_basis`` gauge the roles are exchanged.  One loop writes the
tridiagonal action of ``Astar``, the second generator; that of ``A`` is the
loop's output for the dual pair (starred and unstarred couplings exchanged,
twist inverted).  Matrix entries follow the column convention: entry (row,
col) multiplies basis vector ``row`` in the image of basis vector ``col``.

Eigenvectors are read off a twisted factorization of each shifted matrix at
the analytically known eigenvalues, with a pinned component, not taken from
a general-purpose eigensolver, so agreement between the extracted family and
the closed-form spectrum is itself a check.  The input must be tridiagonal:
one forward and one backward pivot sweep serve every eigenvalue, and the
right and left vectors alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (GenericityError, ModelParams, Spectrum, _dual, _eye, spectrum,
                    structure_constants)

__all__ = [
    "GAUGE_THETA_STAR",
    "GAUGE_THETA",
    "COEFF_KINDS",
    "TridiagonalRealization",
    "EigenFamily",
    "coeff",
    "build",
    "verify_aw",
    "verify_cayley_hamilton",
    "eigen_family",
]

GAUGE_THETA_STAR = "theta_star_basis"
GAUGE_THETA = "theta_basis"
COEFF_KINDS = ("Astar", "A")

_DEN_TOL = 1e-12
# largest scaled residual of an eigen family vector
_FAMILY_TOL = 1e-6


@dataclass(frozen=True)
class TridiagonalRealization:
    """Matrix pair for one gauge and its spectrum."""

    A_mat: np.ndarray
    Astar_mat: np.ndarray
    params: ModelParams
    spectrum: Spectrum


@dataclass(frozen=True)
class EigenFamily:
    """Right eigenvectors (columns), left covectors (rows), and residuals."""

    right: np.ndarray
    left: np.ndarray
    residuals: np.ndarray


def coeff(kind: str, row: int, col: int, p: ModelParams) -> complex:
    """Tridiagonal action coefficient of the requested kind at (row, col).

    ``Astar`` gives the action of the second generator on the first
    eigenbasis, ``A`` the action of the first generator on the second
    eigenbasis.  ``A`` of a pair is ``Astar`` of its dual, the pair with
    starred and unstarred couplings exchanged and the twist inverted.
    """
    n = p.two_s
    if not (0 <= row <= n and 0 <= col <= n):
        raise ValueError(f"coeff: indices ({row}, {col}) outside 0..{n}")
    if abs(row - col) > 1:
        raise ValueError(f"coeff: ({row}, {col}) is not a tridiagonal position")
    if kind not in COEFF_KINDS:
        raise ValueError(f"coeff: unknown kind {kind!r}; choose one of {COEFF_KINDS}")
    sub, diag, sup = _diagonals(_dual(p) if kind == "A" else p)
    if row == col + 1:
        return sub[row]
    return diag[row] if row == col else sup[col]


def _diagonals(p: ModelParams) -> tuple[list, list, list]:
    """The tridiagonal action of ``Astar`` of ``p`` for M = 0..two_s: sub[M]
    is entry (M, M-1), diag[M] entry (M, M) and sup[M] entry (M-1, M), with
    sub[0] = sup[0] = 0.  That of ``A`` is this action for ``_dual(p)``."""
    q, n, b, c, bs, cs, z2 = p.base.q, p.two_s, p.b, p.c, p.b_star, p.c_star, p.zeta**2
    # q**e for each exponent e the entries use, formed once per call
    pw = {e: q**e for e in (*range(-2 * n, 4 * n + 1, 2), *range(n - 1, 3 * n, 2))}
    # rung k is c - b*q^(2k); entry M of sup divides by rungs 2M-2 and 2M-1,
    # that of sub by rungs 2M-1 and 2M, each as the product 1*r*r' (which
    # fixes the sign of a zero part), so the rungs are refused in order, each on
    # its terms' scale as in the screen, which no rung above 2*_DEN_TOL*|c| meets
    bq = [b * pw[2 * k] for k in range(2 * n + 1)]
    rungs, near = [c - y for y in bq], 2 * _DEN_TOL * abs(c)
    for f, y in zip(rungs, bq):
        if abs(f) <= near and abs(f) <= _DEN_TOL * max(abs(c), abs(y)):
            raise GenericityError(f"coeff: tridiagonal denominator factor vanishes (|{f:.3e}|)")
    bs_tw, c_tw, bs_z, b_z = bs * pw[n - 1] / z2, c * pw[n - 1] * z2, bs / z2, b * z2
    sub, sup = [0j], [0j]
    for M in range(1, n + 1):
        up = pw[2 * M + n - 1]
        sup.append((1.0 - pw[2 * M - 2 * n - 2]) * rungs[M - 1] * (c + bs_z * up) * (cs + b_z * up)
                   / ((1.0 + 0j) * rungs[2 * M - 2] * rungs[2 * M - 1]))
        sub.append(pw[2 - 2 * n] * (1.0 - pw[2 * M]) * rungs[M + n] * (bs_tw + bq[M - 1])
                   * (c_tw + cs * pw[2 * M - 2]) / ((1.0 + 0j) * rungs[2 * M - 1] * rungs[2 * M]))
    # diagonal: fixed by the constant row-sum against the top eigenvalue
    top = p.b_star + p.c_star
    diag = [top - s - d for s, d in zip(sup[1:] + [0j], sub)]
    return sub, diag, sup


def build(p: ModelParams, gauge: str = GAUGE_THETA_STAR) -> TridiagonalRealization:
    """Matrix realization of the generator pair in the requested gauge."""
    return _realize(gauge, p, spectrum(p))


def _realize(gauge: str, p: ModelParams, sp: Spectrum) -> TridiagonalRealization:
    """:func:`build` with the spectrum ``sp`` of ``p`` given."""
    if gauge not in (GAUGE_THETA_STAR, GAUGE_THETA):
        raise ValueError(f"build: unknown gauge {gauge!r}")
    sub, diag, sup = _diagonals(_dual(p) if gauge == GAUGE_THETA_STAR else p)
    tri, i = np.diag(np.array(diag, dtype=complex)), np.arange(1, p.dim)
    tri[i, i - 1], tri[i - 1, i] = sub[1:], sup[1:]
    if gauge == GAUGE_THETA_STAR:
        A_mat, Astar_mat = tri, np.diag(sp.theta_star)
    else:
        A_mat, Astar_mat = np.diag(sp.theta), tri
    return TridiagonalRealization(A_mat, Astar_mat, p, sp)


def _maxabs(m: np.ndarray) -> float:
    return float(np.abs(m).max())


def verify_aw(real: TridiagonalRealization, sc=None) -> tuple[float, float]:
    """Relative residuals of the two quadratic algebra relations.

    Each relation compares the nested q-commutator, expanded as
    X X Y - (q^2 + q^-2) X Y X + Y X X, against rho*Y + omega*X + (eta)*I.
    Residuals are normalized by the largest monomial entering the left side.
    """
    if sc is None:
        sc = structure_constants(real.params)
    q = real.params.base.q
    kappa = q**2 + q**-2
    eye = _eye(real.params.dim)
    out = []
    for X, Y, eta in (
        (real.A_mat, real.Astar_mat, sc.eta),
        (real.Astar_mat, real.A_mat, sc.eta_star),
    ):
        m1 = X @ X @ Y
        m2 = X @ Y @ X
        m3 = Y @ X @ X
        lhs = m1 - kappa * m2 + m3
        rhs = sc.rho * Y + sc.omega * X + eta * eye
        scale = max(_maxabs(m1), abs(kappa) * _maxabs(m2), _maxabs(m3))
        out.append(_maxabs(lhs - rhs) / scale)
    return out[0], out[1]


def verify_cayley_hamilton(real: TridiagonalRealization) -> tuple[float, float]:
    """Relative residuals of the annihilating products over both spectra;
    each factor mat - lam*I is divided by max|mat| + |lam| as it is formed,
    so that the product stays in binary64's range."""
    sp = real.spectrum
    D = real.params.dim
    out = []
    for mat, vals in ((real.A_mat, sp.theta), (real.Astar_mat, sp.theta_star)):
        prod = _eye(D, complex)
        size = _maxabs(mat)
        for lam in vals:
            inv = 1.0 / (size + abs(lam))
            shifted = mat * inv
            shifted.ravel()[:: D + 1] -= lam * inv  # on the diagonal alone
            prod = prod @ shifted
        out.append(_maxabs(prod))
    return out[0], out[1]


def eigen_family(matrix: np.ndarray, values: np.ndarray) -> EigenFamily:
    """Right and left eigenvector families of a tridiagonal matrix for the
    given eigenvalue list, by one twisted factorization of B = T - lambda_k I
    per value, all values at once (Parlett & Dhillon, Linear Algebra Appl.
    267 (1997)).

    The forward pivots d+ and backward pivots d- of every B take one sweep
    each way; B and its transpose share them, since only sub*sup enters.  The
    twist r of each value is the index k of the smallest finite
    |d+_k + d-_k - B_kk|.  The right vector is 1 at r and, away from it, the
    running product of -sup/d+ above r and of -sub/d- below r; the left
    vector exchanges sub and sup.  Each vector is pinned so its
    largest-magnitude component is exactly 1 (ties broken by lowest index).

    Raises ValueError on an entry outside the band, on a non-finite vector,
    or when a shifted system is not rank-deficient within ``_FAMILY_TOL``
    (the value is not an eigenvalue).
    """
    matrix = np.asarray(matrix, dtype=complex)
    values = np.asarray(values, dtype=complex)
    D = matrix.shape[0]
    i, j = np.divmod(matrix.ravel().nonzero()[0], D)
    out = (np.abs(i - j) > 1).nonzero()[0]
    if out.size:
        raise ValueError(f"eigen_family: entry ({i[out[0]]}, {j[out[0]]}) lies outside the "
                         "tridiagonal band")
    scale = max(_maxabs(matrix), _maxabs(values), 1e-300)
    # sub[k] = T[k + 1, k], sup[k] = T[k, k + 1]; column j of dg is the diagonal
    # of B for value j.  sub*sup is summed both ways round: a fused complex
    # product is not commutative, and T and its transpose must share pivots.
    sub, sup = matrix.diagonal(-1), matrix.diagonal(1)
    dg = matrix.diagonal()[:, None] - values
    # row m of piv holds the forward pivot m and the backward pivot D-1-m,
    # and row m of ss the products that enter each
    piv, ss = np.empty((D, 2, D), dtype=complex), np.empty((D - 1, 2, 1), dtype=complex)
    piv[:, 0], piv[:, 1] = dg, dg[::-1]
    k, cols = np.arange(D)[:, None], np.arange(D)
    vectors = []
    with np.errstate(all="ignore"):
        ss[:, 0, 0] = 0.5 * (sub * sup + sup * sub)
        ss[:, 1] = ss[::-1, 0]
        for m in range(1, D):
            piv[m] -= ss[m - 1] / piv[m - 1]
        fwd, bwd = piv[:, 0], piv[::-1, 1]
        gamma = np.abs(fwd + bwd - dg)
        twist = np.where(np.isfinite(gamma), gamma, np.inf).argmin(0)
        above, below = k[:-1] < twist, k[1:] > twist
        for up, down in ((sup, sub), (sub, sup)):  # right vectors, then left ones
            x = np.empty((D, D), dtype=complex)
            x[-1] = 1.0
            x[:-1] = np.where(above, -up[:, None] / fwd[:-1], 1.0)[::-1].cumprod(0)[::-1]
            x[1:] *= np.where(below, -down[:, None] / bwd[1:], 1.0).cumprod(0)
            if not np.isfinite(x).all():
                raise ValueError("eigen_family: shifted solve failed to produce a vector")
            pin = np.abs(x).argmax(0)
            x = x / x[pin, cols]
            x[pin, cols] = 1.0
            vectors.append(x)
        right, left = vectors[0], vectors[1].T
        r_right = np.abs(matrix @ right - right * values).max(0) / scale
        r_left = np.abs(left @ matrix - values[:, None] * left).max(1) / scale
    residuals = np.maximum(r_right, r_left)
    bad = (~(residuals <= _FAMILY_TOL)).nonzero()[0]
    if bad.size:
        raise ValueError(f"eigen_family: shifted system at value index {bad[0]} is not "
                         f"rank-deficient within tolerance (residual {residuals[bad[0]]:.3e})")
    return EigenFamily(right=right, left=left, residuals=residuals)
