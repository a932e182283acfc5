"""Tridiagonal matrix realizations of the two generators and their checks.

Two gauges are supported.  In the ``theta_star_basis`` gauge the second
generator is diagonal and the first acts tridiagonally; in the
``theta_basis`` gauge the roles are exchanged.  Matrix entries follow the
column convention: entry (row, col) multiplies basis vector ``row`` in the
image of basis vector ``col``.

Eigenvectors are recovered by shifted solves against the analytically known
eigenvalues (regularized inverse iteration with a pinned component), not by
a general-purpose eigensolver, so agreement between the extracted family and
the closed-form spectrum is itself a check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import GenericityError, ModelParams, spectrum, structure_constants

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


@dataclass(frozen=True)
class TridiagonalRealization:
    """Matrix pair for one gauge."""

    gauge: str
    A_mat: np.ndarray
    Astar_mat: np.ndarray
    params: ModelParams


@dataclass(frozen=True)
class EigenFamily:
    """Right eigenvectors (columns), left covectors (rows), and residuals."""

    values: np.ndarray
    right: np.ndarray
    left: np.ndarray
    residuals: np.ndarray


def _check_den(factors, scale) -> complex:
    den = 1.0 + 0j
    for f in factors:
        if abs(f) <= _DEN_TOL * scale:
            raise GenericityError(
                f"coeff: tridiagonal denominator factor vanishes (|{f:.3e}|)"
            )
        den *= f
    return den


def _sub_entry(M: int, q: complex, n: int, b, c, bs, cs, zeta) -> complex:
    """Entry (M, M-1): coupling down the index, defined for 1 <= M <= n."""
    if M < 1 or M > n:
        return 0j
    num = (
        q ** (2 - 2 * n)
        * (1.0 - q ** (2 * M))
        * (c - b * q ** (2 * M + 2 * n))
        * (bs * q ** (n - 1) / zeta**2 + b * q ** (2 * M - 2))
        * (c * q ** (n - 1) * zeta**2 + cs * q ** (2 * M - 2))
    )
    scale = max(abs(c), abs(b))
    den = _check_den((c - b * q ** (4 * M - 2), c - b * q ** (4 * M)), scale)
    return num / den


def _sup_entry(M: int, q: complex, n: int, b, c, bs, cs, zeta) -> complex:
    """Entry (M-1, M): coupling up the index, defined for 1 <= M <= n."""
    if M < 1 or M > n:
        return 0j
    num = (
        (1.0 - q ** (2 * M - 2 * n - 2))
        * (c - b * q ** (2 * M - 2))
        * (c + bs / zeta**2 * q ** (2 * M + n - 1))
        * (cs + b * zeta**2 * q ** (2 * M + n - 1))
    )
    scale = max(abs(c), abs(b))
    den = _check_den((c - b * q ** (4 * M - 4), c - b * q ** (4 * M - 2)), scale)
    return num / den


def _tri_entry(row: int, col: int, q, n, b, c, bs, cs, zeta) -> complex:
    if row == col + 1:
        return _sub_entry(row, q, n, b, c, bs, cs, zeta)
    if row == col - 1:
        return _sup_entry(col, q, n, b, c, bs, cs, zeta)
    # diagonal: fixed by the constant row-sum against the top eigenvalue
    top = bs + cs
    return (
        top
        - _sup_entry(row + 1, q, n, b, c, bs, cs, zeta)
        - _sub_entry(row, q, n, b, c, bs, cs, zeta)
    )


def coeff(kind: str, row: int, col: int, p: ModelParams) -> complex:
    """Tridiagonal action coefficient of the requested kind at (row, col).

    ``Astar`` gives the action of the second generator on the first
    eigenbasis, ``A`` the action of the first generator on the second
    eigenbasis (related by swapping starred and unstarred couplings and
    inverting the twist).
    """
    n = p.two_s
    if not (0 <= row <= n and 0 <= col <= n):
        raise ValueError(f"coeff: indices ({row}, {col}) outside 0..{n}")
    if abs(row - col) > 1:
        raise ValueError(f"coeff: ({row}, {col}) is not a tridiagonal position")
    q = p.base.q
    if kind == "Astar":
        return _tri_entry(row, col, q, n, p.b, p.c, p.b_star, p.c_star, p.zeta)
    if kind == "A":
        return _tri_entry(row, col, q, n, p.b_star, p.c_star, p.b, p.c, 1.0 / p.zeta)
    raise ValueError(f"coeff: unknown kind {kind!r}; choose one of {COEFF_KINDS}")


def build(p: ModelParams, gauge: str = GAUGE_THETA_STAR) -> TridiagonalRealization:
    """Matrix realization of the generator pair in the requested gauge."""
    sp = spectrum(p)
    D = p.dim
    tri = np.zeros((D, D), dtype=complex)
    if gauge == GAUGE_THETA_STAR:
        kind = "A"
    elif gauge == GAUGE_THETA:
        kind = "Astar"
    else:
        raise ValueError(f"build: unknown gauge {gauge!r}")
    for col in range(D):
        for row in range(max(0, col - 1), min(D, col + 2)):
            tri[row, col] = coeff(kind, row, col, p)
    if gauge == GAUGE_THETA_STAR:
        A_mat, Astar_mat = tri, np.diag(sp.theta_star)
    else:
        A_mat, Astar_mat = np.diag(sp.theta), tri
    return TridiagonalRealization(gauge=gauge, A_mat=A_mat, Astar_mat=Astar_mat, params=p)


def _maxabs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m)))


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
    eye = np.eye(real.params.dim)
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
    """Relative residuals of the annihilating products over both spectra."""
    sp = spectrum(real.params)
    D = real.params.dim
    eye = np.eye(D)
    out = []
    for mat, vals in ((real.A_mat, sp.theta), (real.Astar_mat, sp.theta_star)):
        prod = eye.astype(complex)
        scale = 1.0
        for lam in vals:
            prod = prod @ (mat - lam * eye)
            scale *= _maxabs(mat) + abs(lam)
        out.append(_maxabs(prod) / scale)
    return out[0], out[1]


def _null_vector(B: np.ndarray, scale: float) -> tuple[np.ndarray, float]:
    """Approximate null vector of a nominally rank-deficient matrix.

    Regularized inverse iteration from a fixed start; the returned vector is
    pinned so its largest-magnitude component is exactly 1 (ties broken by
    lowest index).  Also returns the relative residual max|B x| / scale.
    """
    D = B.shape[0]
    eye = np.eye(D)
    best_x = None
    best_r = np.inf
    for delta in (1e-13 * scale, 1e-10 * scale, 1e-7 * scale):
        x = np.ones(D, dtype=complex)
        Breg = B + delta * eye
        for _ in range(3):
            try:
                y = np.linalg.solve(Breg, x)
            except np.linalg.LinAlgError:
                break
            ny = np.max(np.abs(y))
            if not np.isfinite(ny) or ny == 0.0:
                break
            x = y / ny
            r = float(np.max(np.abs(B @ x)) / scale)
            if r < best_r:
                best_r = r
                best_x = x.copy()
            if r <= 1e-13:
                break
        if best_r <= 1e-13:
            break
    if best_x is None:
        raise ValueError("eigen_family: shifted solve failed to produce a vector")
    pin = int(np.argmax(np.abs(best_x)))
    return best_x / best_x[pin], best_r


def eigen_family(matrix: np.ndarray, values: np.ndarray, tol: float = 1e-6) -> EigenFamily:
    """Right and left eigenvector families for the given eigenvalue list.

    Raises ValueError when a shifted system is not rank-deficient within
    ``tol`` (the supplied value is not an eigenvalue of the matrix).
    """
    matrix = np.asarray(matrix, dtype=complex)
    values = np.asarray(values, dtype=complex)
    D = matrix.shape[0]
    scale = max(_maxabs(matrix), float(np.max(np.abs(values))), 1e-300)
    right = np.zeros((D, D), dtype=complex)
    left = np.zeros((D, D), dtype=complex)
    residuals = np.zeros(D)
    eye = np.eye(D)
    for k, lam in enumerate(values):
        B = matrix - lam * eye
        v, _ = _null_vector(B, scale)
        w, _ = _null_vector(B.T, scale)
        r_right = np.max(np.abs(matrix @ v - lam * v)) / scale
        r_left = np.max(np.abs(w @ matrix - lam * w)) / scale
        res = float(max(r_right, r_left))
        if res > tol:
            raise ValueError(
                f"eigen_family: shifted system at value index {k} is not "
                f"rank-deficient within tolerance (residual {res:.3e})"
            )
        right[:, k] = v
        left[k, :] = w
        residuals[k] = res
    return EigenFamily(values=values, right=right, left=left, residuals=residuals)
