"""Model parameters, algebra structure constants, eigenvalue sequences, and
genericity screening.

A parameter set consists of a deformation base q, a nonnegative half-integer
spin encoded as the integer two_s = 2s, four finite nonzero couplings b, c,
b_star, c_star constrained by b*c = b_star*c_star, and a finite nonzero twist
zeta.
"""

from __future__ import annotations

import cmath
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .qnum import QBase

__all__ = [
    "GenericityError",
    "ModelParams",
    "StructureConstants",
    "Spectrum",
    "structure_constants",
    "spectrum",
    "validate_genericity",
]


class GenericityError(ValueError):
    """Parameters sit on (or numerically too close to) a degenerate locus."""


_COUPLING_REL_TOL = 1e-10
# the screen refuses a q or zeta with a power it forms past 1e300 either way
_LOG_RANGE = math.log(1e300)
# relative gap below which two eigenvalues of a sequence count as coinciding
_DEGENERACY_TOL = 1e-8


# The Bethe system kinds and the solver's tolerances: every command's parser
# and config need them, so they live here, and ``bethe``, which re-exports
# them in its ``__all__``, is loaded only by the commands that solve.
KINDS = (
    "hom_minus",
    "hom_plus",
    "inhom_plus",
    "inhom_minus",
    "dual_inhom_plus",
    "dual_inhom_minus",
)


@dataclass(frozen=True)
class SolverConfig:
    """Solver tolerances.

    Residual convergence is measured relative to the largest magnitude term
    entering each equation, so ``tol`` is scale-free across parameter draws.
    ``dedup_tol`` is the separation below which roots count as coinciding.
    """

    tol: float = 1e-10
    dedup_tol: float = 1e-6
    match_tol: float = 1e-6

    @property
    def starts(self) -> int:
        """Attempts per ``solve`` call: always one, since each spectrum entry
        takes one deterministic linear solve.  Kept so that per-attempt
        rates, such as the benchmark's matched-per-start count, still have a
        denominator."""
        return 1


@dataclass(frozen=True)
class ModelParams:
    """Validated parameter set; immutable once constructed."""

    base: QBase
    two_s: int
    b: complex
    c: complex
    b_star: complex
    c_star: complex
    zeta: complex

    def __post_init__(self):
        if isinstance(self.two_s, bool) or not isinstance(self.two_s, int) or self.two_s < 1:
            raise ValueError("ModelParams: two_s must be an integer >= 1")
        for name in ("b", "c", "b_star", "c_star", "zeta"):
            val = complex(getattr(self, name))
            object.__setattr__(self, name, val)
            if not cmath.isfinite(val):
                raise ValueError(f"ModelParams: {name} must be finite")
            if math.hypot(val.real, val.imag) > sys.float_info.max:  # abs(val) would overflow
                raise ValueError(f"ModelParams: {name} must be at most "
                                 f"{sys.float_info.max:.4g} in modulus")
            if val == 0:
                raise ValueError(f"ModelParams: {name} must be nonzero")
        lhs = self.b * self.c
        rhs = self.b_star * self.c_star
        if not (cmath.isfinite(lhs) and cmath.isfinite(rhs)):  # inf > 1e-10 * inf is False
            raise ValueError("ModelParams: coupling constraint b*c = b_star*c_star "
                             "cannot be checked: a product is not finite")
        # compared at a quarter scale, where no modulus passes binary64's range
        gap, size = abs(lhs / 4 - rhs / 4), max(abs(lhs / 4), abs(rhs / 4))
        if gap > _COUPLING_REL_TOL * size:
            raise ValueError(
                "ModelParams: coupling constraint b*c = b_star*c_star violated: "
                f"|b*c - b_star*c_star| = {4 * gap:.3e}"
            )

    @property
    def dim(self) -> int:
        """Dimension of the module, two_s + 1."""
        return self.two_s + 1


@dataclass(frozen=True)
class StructureConstants:
    """Coefficients of the quadratic algebra relations."""

    rho: complex
    omega: complex
    eta: complex
    eta_star: complex


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalue sequences of the two generators."""

    theta: np.ndarray
    theta_star: np.ndarray


def structure_constants(p: ModelParams) -> StructureConstants:
    """Structure constants determined by the couplings and the twist."""
    q = p.base.q
    n = p.two_s
    z2 = p.zeta**2
    zsum = z2 + 1.0 / z2
    qq = q * q
    d2 = (qq - 1.0 / qq) ** 2  # (q^2 - q^-2)^2
    d1sq = (q - 1.0 / q) ** 2  # (q - q^-1)^2
    ths = p.b * q**n + p.c * q**-n          # theta at the midpoint shift
    ths_star = p.b_star * q**n + p.c_star * q**-n
    qs = q ** (n + 1) + q ** (-n - 1)        # q^(2s+1) + q^-(2s+1)
    bc = p.b * p.c
    rho = -bc * d2
    omega = d1sq * (bc * zsum * qs - ths * ths_star)
    pref = -d2 / (q + 1.0 / q)
    eta = pref * bc * (ths * zsum - ths_star * qs)
    eta_star = pref * p.b_star * p.c_star * (ths_star * zsum - ths * qs)
    return StructureConstants(rho=rho, omega=omega, eta=eta, eta_star=eta_star)


def spectrum(p: ModelParams) -> Spectrum:
    """Eigenvalue sequences; raises GenericityError on numerical degeneracy."""
    q = p.base.q
    idx = np.arange(p.dim)
    qq = q ** (2 * idx)
    theta = p.b * qq + p.c / qq
    theta_star = p.b_star * qq + p.c_star / qq
    for name, vals in (("theta", theta), ("theta_star", theta_star)):
        diff = np.abs(vals[:, None] - vals[None, :])
        diff.ravel()[:: p.dim + 1] = np.inf
        if diff.min() <= _DEGENERACY_TOL * np.abs(vals).max():
            i, j = np.unravel_index(diff.argmin(), diff.shape)
            raise GenericityError(
                f"spectrum: {name}[{i}] and {name}[{j}] numerically coincide "
                f"(gap {diff[i, j]:.3e})"
            )
    return Spectrum(theta=theta, theta_star=theta_star)


@functools.cache
def _eye(n: int, dtype=float) -> np.ndarray:
    """The n x n identity of ``dtype``, built once per size and read-only."""
    eye = np.eye(n, dtype=dtype)
    eye.flags.writeable = False
    return eye


def _dual(p: ModelParams) -> ModelParams:
    """The dual pair: starred and unstarred couplings exchanged, twist
    inverted.  Its ``Astar`` side is the ``A`` side of ``p``."""
    return ModelParams(base=p.base, two_s=p.two_s, b=p.b_star, c=p.c_star, b_star=p.b, c_star=p.c,
                       zeta=1.0 / p.zeta)


def _q2_params(p: ModelParams) -> tuple[complex, complex, complex, complex, complex]:
    """The base-q^2 parameters of one side whose q-shifted factorials of order
    below two_s the transition layer divides by: the series twists (plus,
    minus branch), the k_seq twists (minus, plus branch) and the ratio.  In
    the q-Racah notation of Koekoek, Lesky and Swarttouw (section 14.2, base
    q^2) they are alpha*q, beta*delta*q, gamma*delta*q/alpha, gamma*q/beta
    and delta*q.  The other side's are those of ``_dual(p)``."""
    q, n, z2 = p.base.q, p.two_s, p.zeta**2
    return (
        -(p.b / p.c_star) * q ** (n + 1) * z2,
        -(p.b_star / p.c) * q ** (n + 1) / z2,
        -(p.b_star / p.b) * q ** (1 - n) / z2,
        -(p.c / p.c_star) * q ** (1 - n) * z2,
        (p.b_star / p.c_star) * q ** (2 * n + 2),
    )


def validate_genericity(p: ModelParams, tol: float = 1e-8) -> list[str]:
    """Diagnostics for every non-generic condition found; empty means generic.

    Checked conditions: q**(2k) = 1 for 1 <= k <= 2*two_s + 2, coincident
    eigenvalues, vanishing tridiagonal denominators c - b*q^(2k) and
    c_star - b_star*q^(2k) for 0 <= k <= 2*two_s (k = 0 covers b = c and
    b_star = c_star), and a vanishing factor of the q-shifted factorials of
    the twists of :func:`_q2_params`, which the series and the normalizers
    divide by.  The other side's twists are these inverted, at the mirrored
    order, and the ratios' factors are the ladder rungs above two_s, so
    neither needs a row of its own.  Each row compares a gap with the size of
    what it separates, so one factor on b, c, b_star and c_star changes no
    verdict, and no kernel refusal (1e-12 of the same terms) follows an empty
    screen.  A q or zeta with a power the screen forms above 1e300 or below
    1e-300, or a b or b_star with a ladder rung above 1e300, gets one line
    that names it, and nothing else is evaluated."""
    q, n = p.base.q, p.two_s
    # q^(2k) up to k = 2*two_s + 2 and zeta^2 are the largest powers formed
    for name, x, order in (("q", q, 4 * n + 4), ("zeta", p.zeta, 2)):
        if abs(cmath.log(x).real) * order > _LOG_RANGE:
            return [f"{name} out of range: |{name}|^{order} or its inverse exceeds 1e300"]
    # and b*q^(2k), b_star*q^(2k) up to k = 2*two_s are the largest couplings formed
    for name, y in (("b", p.b), ("b_star", p.b_star)):
        if math.log(abs(y)) + max(0.0, math.log(abs(q)) * 4 * n) > _LOG_RANGE:
            return [f"{name} out of range: |{name}*q^(2k)| exceeds 1e300 for some k <= {2 * n}"]

    issues: list[str] = []
    qk = 1.0 + 0j
    for k in range(1, 2 * n + 3):
        qk *= p.base.q2
        if abs(qk - 1.0) <= tol:
            issues.append(f"q^(2k) = 1 at k = {k}")

    try:
        spectrum(p)
    except GenericityError as exc:
        issues.append(str(exc))

    rungs = [q ** (2 * k) for k in range(2 * n + 1)]
    for label, x, y in (("c - b*q^(2k)", p.c, p.b), ("c_star - b_star*q^(2k)", p.c_star, p.b_star)):
        for k, yq in enumerate([y * r for r in rungs]):
            if abs(x - yq) <= tol * max(abs(x), abs(yq)):
                issues.append(f"{label} vanishes at k = {k}")

    plus, minus, k_minus, k_plus, _ = _q2_params(p)
    orders = [p.base.q2**j for j in range(n)]
    for label, a in (("k_seq denominator (twist, minus branch)", k_minus),
                     ("k_seq denominator (twist, plus branch)", k_plus),
                     ("series denominator (twist, plus branch)", plus),
                     ("series denominator (twist, minus branch)", minus)):
        # orders 0..two_s-1 occur inside (a; q^2)_N factors with N <= two_s
        for j, aq in enumerate([a * r for r in orders]):
            if abs(1.0 - aq) <= tol * max(1.0, abs(aq)):
                issues.append(f"{label} parameter hits 1 at order {j}")

    return issues
