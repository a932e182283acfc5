"""Model parameters, algebra structure constants, eigenvalue sequences, and
genericity screening.

A parameter set consists of a deformation base q, a nonnegative half-integer
spin encoded as the integer two_s = 2s, four nonzero couplings b, c, b_star,
c_star constrained by b*c = b_star*c_star, and a nonzero twist zeta.
"""

from __future__ import annotations

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
        if not isinstance(self.two_s, int) or self.two_s < 1:
            raise ValueError("ModelParams: two_s must be an integer >= 1")
        for name in ("b", "c", "b_star", "c_star", "zeta"):
            val = complex(getattr(self, name))
            object.__setattr__(self, name, val)
            if val == 0:
                raise ValueError(f"ModelParams: {name} must be nonzero")
        lhs = self.b * self.c
        rhs = self.b_star * self.c_star
        if abs(lhs - rhs) > _COUPLING_REL_TOL * max(abs(lhs), abs(rhs)):
            raise ValueError(
                "ModelParams: coupling constraint b*c = b_star*c_star violated: "
                f"|b*c - b_star*c_star| = {abs(lhs - rhs):.3e}"
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
        scale = np.max(np.abs(vals))
        diff = np.abs(vals[:, None] - vals[None, :])
        diff[np.diag_indices(p.dim)] = np.inf
        i, j = np.unravel_index(np.argmin(diff), diff.shape)
        if diff[i, j] <= _DEGENERACY_TOL * max(1.0, scale):
            raise GenericityError(
                f"spectrum: {name}[{i}] and {name}[{j}] numerically coincide "
                f"(gap {diff[i, j]:.3e})"
            )
    return Spectrum(theta=theta, theta_star=theta_star)


def _series_denominator_params(p: ModelParams) -> list[tuple[str, complex]]:
    """Base-q^2 parameters whose shifted factorials appear in denominators."""
    q = p.base.q
    n = p.two_s
    z2 = p.zeta**2
    return [
        ("k_seq denominator (twist, minus branch)", -(p.b_star / p.b) * q ** (1 - n) / z2),
        ("k_seq denominator (twist, plus branch)", -(p.c / p.c_star) * q ** (1 - n) * z2),
        ("k_seq denominator (ratio)", (p.b_star / p.c_star) * q ** (2 * n + 2)),
        ("k_seq_dual denominator (twist, minus branch)", -(p.b / p.b_star) * q ** (1 - n) * z2),
        ("k_seq_dual denominator (twist, plus branch)", -(p.c_star / p.c) * q ** (1 - n) / z2),
        ("k_seq_dual denominator (ratio)", (p.b / p.c) * q ** (2 * n + 2)),
        ("series denominator (twist, plus branch)", -(p.b / p.c_star) * q ** (n + 1) * z2),
        ("series denominator (twist, minus branch)", -(p.b_star / p.c) * q ** (n + 1) / z2),
    ]


def validate_genericity(p: ModelParams, tol: float = 1e-8) -> list[str]:
    """Diagnostics for every non-generic condition found; empty means generic.

    Checked conditions: q**(2k) = 1 within the working range, coincident
    eigenvalues, vanishing tridiagonal denominators c - b*q^(2k) and
    c_star - b_star*q^(2k) (k = 0 covers b = c and b_star = c_star), and
    vanishing normalization and series denominator parameters.
    """
    issues: list[str] = []
    q = p.base.q
    n = p.two_s

    for k in p.base.unit_power_violations(2 * n + 2, tol):
        issues.append(f"q^(2k) = 1 at k = {k}")

    try:
        spectrum(p)
    except GenericityError as exc:
        issues.append(str(exc))

    for label, x, y in (("c - b*q^(2k)", p.c, p.b), ("c_star - b_star*q^(2k)", p.c_star, p.b_star)):
        for k in range(2 * n + 1):
            d = x - y * q ** (2 * k)
            if abs(d) <= tol * max(abs(x), abs(y * q ** (2 * k))):
                issues.append(f"{label} vanishes at k = {k}")

    for label, a in _series_denominator_params(p):
        # orders 0..two_s-1 occur inside (a; q^2)_N factors with N <= two_s
        for j in range(n):
            d = 1.0 - a * p.base.q2**j
            if abs(d) <= tol * max(1.0, abs(a * p.base.q2**j)):
                issues.append(f"{label} parameter hits 1 at order {j}")

    # deduplicate while preserving order
    seen: set[str] = set()
    out = []
    for msg in issues:
        if msg not in seen:
            seen.add(msg)
            out.append(msg)
    return out
