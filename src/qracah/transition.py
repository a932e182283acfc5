"""Transition matrices between the two eigenbases and the polynomial family
that fills them.

The entries are values of a terminating q-hypergeometric polynomial family
R_M evaluated on the second eigenvalue sequence.  Three evaluation routes
are provided: the defining series; the recurrence route, whose columns are
eigenvectors of A* in the theta gauge; and gauge-invariant double ratios of
scalar products of eigenvectors of A in the theta_star gauge.  The last two
share the kernel :func:`eigen_family` but not its matrix, and the series
shares neither.  Cross-route agreement is a primary correctness check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .leonard import GAUGE_THETA, EigenFamily, TridiagonalRealization, build, eigen_family
from .model import GenericityError, ModelParams, _dual, _q2_params
from .qnum import phi43, qpoch

__all__ = [
    "TransitionData",
    "racah_matrix",
    "racah_by_recurrence",
    "normalizers",
    "build_transition",
    "verify_recurrences",
    "orthogonality_residuals",
    "racah_from_scalar_products",
]

_DEN_TOL = 1e-12


@dataclass(frozen=True)
class TransitionData:
    """Series-route polynomial table R[M, N], the two normalization
    sequences, the overall scale nu0, and the transition pair P, Pinv."""

    R: np.ndarray
    k_seq: np.ndarray
    k_seq_dual: np.ndarray
    nu0: complex
    P: np.ndarray
    Pinv: np.ndarray


def _racah_params(p: ModelParams, M, N) -> tuple[list, list]:
    """Numerator and denominator parameters of the series at indices M, N,
    which may be integer arrays that broadcast against each other."""
    q = p.base.q
    plus, minus, *_ = _q2_params(p)
    numer = [
        q ** (-2 * M),
        (p.b / p.c) * q ** (2 * M),
        q ** (-2 * N),
        (p.b_star / p.c_star) * q ** (2 * N),
    ]
    return numer, [plus, minus, q ** (-2 * p.two_s)]


def racah_matrix(p: ModelParams) -> np.ndarray:
    """Full series-route table, R[M, N] for 0 <= M, N <= two_s, summed as one
    broadcast series over the rows (M) and columns (N); entry M, N terminates
    at order min(M, N), through its parameters q**(-2M) and q**(-2N)."""
    idx = np.arange(p.dim)
    numer, denom = _racah_params(p, idx[:, None], idx[None, :])
    return phi43(numer, denom, p.base.q2, p.base.q2, np.minimum(idx[:, None], idx[None, :]))


def racah_by_recurrence(p: ModelParams) -> np.ndarray:
    """Table whose column N is the minimal solution of the three-term
    recurrence in M at theta_star[N]: the eigenvector of the theta-basis
    tridiagonal generator, read off :func:`eigen_family` and scaled so that
    row 0 is all ones."""
    return _recurrence_table(build(p, GAUGE_THETA))


def _recurrence_table(theta_basis: TridiagonalRealization) -> np.ndarray:
    """:func:`racah_by_recurrence` from the theta-basis realization; a zero
    in row 0 is a ``ValueError``."""
    right = eigen_family(theta_basis.Astar_mat, theta_basis.spectrum.theta_star).right
    zero = (right[0] == 0).nonzero()[0]
    if zero.size:
        raise ValueError(f"racah_by_recurrence: vanishing row-0 entry at N = {zero[0]}")
    R = right / right[0]
    R[0] = 1.0
    return R


def _k_sequence(p: ModelParams) -> np.ndarray:
    """The normalization sequence of one side, entry N holding q-shifted
    factorials of order N; ``k_seq_dual`` is that of ``_dual(p)``.  It is
    built as one running product of the per-order ratios, orders
    0..two_s-1, so no factorial is formed on its own: at two_s = 32 the
    numerator and denominator factorials can each overflow while their
    quotient is finite."""
    q, q2, n = p.base.q, p.base.q2, p.two_s
    plus, minus, k_minus, k_plus, ratio = _q2_params(p)
    r = p.b_star / p.c_star
    pref_den = 1.0 - r
    if abs(pref_den) <= _DEN_TOL:
        raise GenericityError("normalizers: coupling ratio bs/cs is numerically 1")
    powers = q2 ** np.arange(n)
    den = np.array([1.0 - a * powers for a in (q2, k_minus, k_plus, ratio)])
    if (np.abs(den) <= _DEN_TOL).any():
        raise GenericityError("normalizers: vanishing denominator factor")
    num = np.array([1.0 - a * powers for a in (minus, plus, r, q ** (-2 * n))]).prod(axis=0)
    steps = num / (den.prod(axis=0) * (p.b / p.c))
    N = np.arange(n + 1)
    running = np.concatenate(([1.0 + 0j], steps.cumprod()))
    return running * (1.0 - r * q ** (4 * N)) / pref_den


def normalizers(p: ModelParams) -> tuple[np.ndarray, np.ndarray, complex]:
    """Normalization sequences k_seq, k_seq_dual and the overall scale nu0."""
    q, q2, n = p.base.q, p.base.q2, p.two_s
    k_seq, k_seq_dual = _k_sequence(p), _k_sequence(_dual(p))
    _, minus, _, k_plus, _ = _q2_params(p)
    num = qpoch((p.b / p.c) * q2, q2, n) * qpoch((p.b_star / p.c_star) * q2, q2, n)
    # the middle factor is the dual side's k_seq minus twist in its own form:
    # _q2_params(_dual(p)) divides by (1/zeta)**2, which moves nu0 by up to
    # 1e-14 relative, and with it the last digits of the P/Pinv residuals.
    # The screen keeps every factor of den clear of 0 relative to its size:
    # its k_seq (twist, plus branch) row covers factor j of the k_plus
    # factorial, its (twist, minus branch) row at order two_s-1-j factor j of
    # the middle one, and minus is a nonzero product.  So den is 0 only when
    # the product underflows; an overflowed den reaches nu0 as it is.
    den = (
        minus**n
        * qpoch(-(p.b / p.b_star) * q ** (1 - n) * p.zeta**2, q2, n)
        * qpoch(k_plus, q2, n)
    )
    if den == 0:
        raise ValueError("normalizers: nu0 denominator underflows binary64's range to 0")
    return k_seq, k_seq_dual, num / den


def build_transition(p: ModelParams) -> TransitionData:
    """Transition pair P, Pinv from the series table and the normalizers."""
    R = racah_matrix(p)
    k_seq, k_seq_dual, nu0 = normalizers(p)
    P = R * k_seq[None, :]
    Pinv = (R.T * k_seq_dual[None, :]) / nu0
    return TransitionData(R=R, k_seq=k_seq, k_seq_dual=k_seq_dual, nu0=nu0, P=P, Pinv=Pinv)


def verify_recurrences(td: TransitionData, p: ModelParams) -> tuple[float, float]:
    """Residuals of the three-term recurrence in M and the q-difference
    relation in N over the whole table, each relative to the largest
    eigenvalue-weighted table entry on its own side.  The coefficients are
    the tridiagonal generators of the two gauges of :func:`build`."""
    return _recurrence_residuals(td.R, build(p, GAUGE_THETA), build(p))


def _recurrence_residuals(R: np.ndarray, theta_basis, theta_star_basis) -> tuple[float, float]:
    """:func:`verify_recurrences` from the realization of each gauge."""
    sp = theta_basis.spectrum
    lhs_rec = R * sp.theta_star[None, :]
    rec = np.abs(lhs_rec - theta_basis.Astar_mat @ R).max() / np.abs(lhs_rec).max()
    lhs_qd = sp.theta[:, None] * R
    qd = np.abs(lhs_qd - R @ theta_star_basis.A_mat.T).max() / np.abs(lhs_qd).max()
    return float(rec), float(qd)


def orthogonality_residuals(td: TransitionData) -> tuple[float, float]:
    """Worst-case residuals of the two discrete orthogonality sums, each
    entry normalized by the larger of the two diagonal terms it involves."""
    out = []
    for R, w, other in (
        (td.R, td.k_seq, td.k_seq_dual),
        (td.R.T, td.k_seq_dual, td.k_seq),
    ):
        gram = R @ (w[:, None] * R.T)  # sum over the weighted index
        diag = td.nu0 / other
        expect = np.diag(diag)
        denom = np.maximum(np.abs(diag)[:, None], np.abs(diag)[None, :])
        out.append(float((np.abs(gram - expect) / denom).max()))
    return out[0], out[1]


def racah_from_scalar_products(fam: EigenFamily, M, N, form: str = "rac1") -> complex | np.ndarray:
    """Double-ratio route through eigenvector scalar products.

    ``M`` and ``N`` may be integer arrays that broadcast together; one
    vanishing denominator refuses the whole call, naming the first such
    (M, N) in row-major order and its |den|.

    ``fam`` is the eigen family of the tridiagonal generator in the gauge
    where the second generator is diagonal, so standard basis vectors play
    the second eigenbasis.  Both forms are invariant under rescaling any
    eigenvector or covector, which is verified in tests.
    """
    if form == "rac1":
        w = fam.left
        num = w[M, N] * w[0, 0]
        den = w[0, N] * w[M, 0]
    elif form == "rac2":
        v = fam.right
        num = v[N, M] * v[0, 0]
        den = v[0, M] * v[N, 0]
    else:
        raise ValueError(f"racah_from_scalar_products: unknown form {form!r}")
    # |den| <= 1e-14 * max(1, |num|, |den|); the |den| term can never decide
    size = abs(den)
    bad = (size <= 1e-14) | (size <= 1e-14 * abs(num))
    if np.count_nonzero(bad):
        m, n, s = next(t for t, b in zip(np.broadcast(M, N, size), bad.flat) if b)
        raise ValueError("racah_from_scalar_products: vanishing scalar product in denominator "
                         f"at (M, N) = ({m}, {n}), |den| = {s:.3e}")
    return num / den
