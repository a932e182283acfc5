"""Bethe equation systems attached to the generator pair, a linear TQ
solver, and eigenvalue reconstruction from roots.

Six system kinds are supported.  The two homogeneous kinds carry one
equation per root at any level 0..two_s; the four inhomogeneous kinds (two
direct, two dual) always carry two_s roots and an extra inhomogeneity term.
On-shell root sets reproduce entries of the eigenvalue sequences: the
homogeneous kinds through a probe-point evaluation of an eigenvalue
functional whose on-shell value is probe-independent, the inhomogeneous
kinds through closed-form symmetric functions of the roots.

The solver uses Baxter's TQ relation, which is linear in the coefficients
of the polynomial Q whose zeros are the roots.  For each target spectrum
entry (entry L of a homogeneous level-L system, every entry of an
inhomogeneous one) it fits Q by one least-squares solve at that eigenvalue,
takes the zeros of Q, inverts them to Bethe roots, and polishes them with a
few Newton steps.  A root set passes only when it satisfies the Bethe
equations to tolerance and its reconstructed eigenvalue matches the
closed-form spectrum; neither check uses the fit.  Every step is
deterministic, so repeated runs return byte-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import ModelParams, StructureConstants, spectrum, structure_constants
from .qnum import qnumber

__all__ = [
    "KINDS",
    "HOM_KINDS",
    "INHOM_KINDS",
    "PoleError",
    "SolverConfig",
    "BetheSystem",
    "BetheSolution",
    "CoverageEntry",
    "CoverageReport",
    "lambda12",
    "exchange_fh",
    "gamma_eps",
    "etabar",
    "residual",
    "solve",
    "eigenvalue_from_roots",
    "hom_eigenvalue_functional",
    "dual_eigenvalue_functional",
    "symmetrize_roots",
    "coverage",
]

KINDS = (
    "hom_minus",
    "hom_plus",
    "inhom_plus",
    "inhom_minus",
    "dual_inhom_plus",
    "dual_inhom_minus",
)
HOM_KINDS = KINDS[:2]
INHOM_KINDS = KINDS[2:]

# sign epsilon entering the vacuum eigenvalue pair for each kind
_KIND_EPS = {
    "hom_minus": -1,
    "hom_plus": 1,
    "inhom_plus": 1,
    "inhom_minus": -1,
    "dual_inhom_plus": 1,
    "dual_inhom_minus": -1,
}

# which eigenvalue sequence an on-shell root set reproduces
TARGET_SPECTRUM = {
    "hom_minus": "theta",
    "hom_plus": "theta_star",
    "inhom_plus": "theta",
    "inhom_minus": "theta_star",
    "dual_inhom_plus": "theta",
    "dual_inhom_minus": "theta_star",
}


class PoleError(ValueError):
    """Evaluation requested too close to a pole of the coupling functions."""


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
    probe_tol: float = 1e-8

    @property
    def starts(self) -> int:
        """Attempts per ``solve`` call: always one, since each spectrum entry
        takes one deterministic linear solve.  Kept so that per-attempt
        rates, such as the benchmark's matched-per-start count, still have a
        denominator."""
        return 1


@dataclass(frozen=True)
class BetheSystem:
    """One system instance: kind, root count, and the parameter set."""

    kind: str
    level: int
    params: ModelParams

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"BetheSystem: unknown kind {self.kind!r}; choose one of {KINDS}")
        n = self.params.two_s
        if self.kind in HOM_KINDS:
            if not 0 <= self.level <= n:
                raise ValueError(f"BetheSystem: homogeneous level must lie in 0..{n}")
        elif self.level != n:
            raise ValueError(f"BetheSystem: inhomogeneous kinds need level == two_s == {n}")


@dataclass
class BetheSolution:
    """One on-shell root set with its diagnostics."""

    roots: np.ndarray
    residual_max: float
    symmetrized: np.ndarray
    admissible: bool
    reconstructed_eigenvalue: complex | None
    matched_index: int | None
    match_error: float


@dataclass
class CoverageEntry:
    index: int
    hit: bool
    match_error: float
    solution: BetheSolution | None


@dataclass
class CoverageReport:
    kind: str
    entries: list[CoverageEntry]

    @property
    def all_hit(self) -> bool:
        return all(e.hit for e in self.entries)


# ---------------------------------------------------------------------------
# elementary kernels; they accept scalars or numpy arrays interchangeably


def _b(x):
    return x - 1.0 / x


def _lam1(eps: int, u, p: ModelParams):
    q = p.base.q
    n = p.two_s
    pref = q ** (-(n + 1)) * u ** (-eps)
    f1 = q ** (n + 1) * u / p.zeta - p.zeta / u
    f2 = q ** (n + 1) * u * p.zeta - 1.0 / (p.zeta * u)
    f3 = u * p.c_star * q ** (-n) + p.b * q**n / u
    if eps == 1:
        f4 = u + (p.b_star / p.b) / u
    else:
        f4 = u * (p.c / p.c_star) + 1.0 / u
    return pref * f1 * f2 * f3 * f4


def _lam2(eps: int, u, p: ModelParams):
    q = p.base.q
    n = p.two_s
    u2 = u * u
    pref = _b(u2) * q ** (-(n + 1)) / (u**eps * _b(q * u2))
    f1 = q ** (n - 1) * p.zeta / u - u / p.zeta
    f2 = q ** (n - 1) / (p.zeta * u) - u * p.zeta
    f3 = q * q * u * p.b * q**n + p.c_star * q ** (-n) / u
    if eps == 1:
        f4 = q * q * u * (p.b_star / p.b) + 1.0 / u
    else:
        f4 = q * q * u + (p.c / p.c_star) / u
    return pref * f1 * f2 * f3 * f4


def _f(u, v, q):
    return _b(q * v / u) * _b(u * v) / (_b(v / u) * _b(q * u * v))


def _h(u, v, q):
    return _b(q * q * u * v) * _b(q * u / v) / (_b(q * u * v) * _b(u / v))


def _inh_product(u, p: ModelParams):
    """Product over the inhomogeneity ladder; branch-independent because the
    factor count is even."""
    q = p.base.q
    n = p.two_s
    x = complex(q) ** ((1.0 - n) / 2.0)
    out = np.ones_like(u) if isinstance(u, np.ndarray) else 1.0 + 0j
    for _ in range(n + 1):
        out = out * _b(x * p.zeta * u) * _b(x * u / p.zeta)
        x *= q
    return out


def _etabar(u, sc: StructureConstants, q):
    return (q + 1.0 / q) / sc.rho * (sc.eta * u + sc.eta_star / u)


# ---------------------------------------------------------------------------
# public scalar wrappers


def lambda12(eps: int, u: complex, p: ModelParams) -> tuple[complex, complex]:
    """Vacuum eigenvalue pair at spectral point u for branch eps = +-1."""
    if eps not in (-1, 1):
        raise ValueError("lambda12: eps must be +1 or -1")
    if abs(u) < 1e-150:
        raise PoleError("lambda12: u too close to 0")
    if abs(_b(p.base.q * u * u)) < 1e-12 * max(1.0, abs(u) ** 2):
        raise PoleError("lambda12: second member evaluated at its pole")
    return complex(_lam1(eps, u, p)), complex(_lam2(eps, u, p))


def exchange_fh(u: complex, v: complex, p: ModelParams) -> tuple[complex, complex]:
    """Coupling pair (f, h) between spectral points u and v."""
    q = p.base.q
    scale = max(1.0, abs(u), abs(v))
    for den in (_b(v / u), _b(q * u * v), _b(u / v)):
        if abs(den) < 1e-12 * scale:
            raise PoleError("exchange_fh: coupling pole between u and v")
    return complex(_f(u, v, q)), complex(_h(u, v, q))


def gamma_eps(eps: int, u: complex, m: int, p: ModelParams) -> complex:
    """Off-diagonal gauge weight combination for branch eps = +-1."""
    if eps not in (-1, 1):
        raise ValueError("gamma_eps: eps must be +1 or -1")
    q = p.base.q
    if eps == 1:
        lead, trail = p.beta, p.alpha
    else:
        lead, trail = p.alpha, p.beta
    return lead * q ** (-m) * u - trail * q**m / u


def etabar(u: complex, sc: StructureConstants, p: ModelParams) -> complex:
    """Degree-one combination of the inhomogeneous structure constants."""
    if abs(u) < 1e-150:
        raise PoleError("etabar: u too close to 0")
    return complex(_etabar(u, sc, p.base.q))


# ---------------------------------------------------------------------------
# batched residual evaluation; rows are independent candidate root sets


def _pair_products(U: np.ndarray, q):
    S, L = U.shape
    F = np.ones((S, L), dtype=complex)
    H = np.ones((S, L), dtype=complex)
    for i in range(L):
        ui = U[:, i]
        for j in range(L):
            if j == i:
                continue
            uj = U[:, j]
            F[:, i] *= _f(ui, uj, q)
            H[:, i] *= _h(ui, uj, q)
    return F, H


def _coupling_denominator(U: np.ndarray, q):
    S, L = U.shape
    D = np.ones((S, L), dtype=complex)
    for i in range(L):
        ui = U[:, i]
        for j in range(L):
            if j == i:
                continue
            uj = U[:, j]
            D[:, i] *= _b(ui / uj) * _b(q * ui * uj)
    return D


def _nu(kind: str, p: ModelParams) -> complex:
    """Weight of the inhomogeneity term of an inhomogeneous kind."""
    q = p.base.q
    n = p.two_s
    return {
        "inhom_plus": q ** (-1 - 2 * n) * p.c_star,
        "inhom_minus": q ** (1 + 2 * n) * p.b,
        "dual_inhom_plus": q ** (1 + 2 * n) * p.b_star,
        "dual_inhom_minus": q ** (-1 - 2 * n) * p.c,
    }[kind]


def _residual_terms(kind: str, U: np.ndarray, p: ModelParams) -> list[np.ndarray]:
    q = p.base.q
    eps = _KIND_EPS[kind]
    F, H = _pair_products(U, q)
    bU = _b(U * U)
    ratio = bU / _b(q * U * U)
    if kind in HOM_KINDS:
        return [-ratio * F * _lam1(eps, U, p), H * _lam2(eps, U, p)]
    inh = _inh_product(U, p) / _coupling_denominator(U, q)
    nu = _nu(kind, p)
    if kind in ("inhom_plus", "inhom_minus"):
        t1 = ratio * U**eps * F * _lam1(eps, U, p)
        t2 = -((q * q * U**3) ** (-eps)) * H * _lam2(eps, U, p)
        t3 = nu * U ** (-2 * eps) * bU / _b(q) * inh
        return [t1, t2, t3]
    t1 = ratio * U ** (-eps) * F * _lam1(eps, U, p)
    t2 = -((q * q * U**3) ** eps) * H * _lam2(eps, U, p)
    t3 = nu * bU / _b(q) * inh
    return [t1, t2, t3]


def _residual_batch(kind: str, U: np.ndarray, p: ModelParams):
    with np.errstate(all="ignore"):
        terms = _residual_terms(kind, U, p)
        E = terms[0]
        scale = np.abs(terms[0])
        for t in terms[1:]:
            E = E + t
            scale = np.maximum(scale, np.abs(t))
    return E, scale


def _scaled_norm(E: np.ndarray, scale: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        r = np.abs(E) / scale
    r = np.where(np.isfinite(r), r, np.inf)
    return r.max(axis=1)


def residual(sys: BetheSystem, roots, i: int) -> complex:
    """Value of equation i of the system at the given candidate roots.

    Raises PoleError when the evaluation point sits on a coupling or vacuum
    pole, and ValueError on index or length mismatches.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.shape != (sys.level,):
        raise ValueError(f"residual: expected {sys.level} roots, got {roots.shape}")
    if not 0 <= i < sys.level:
        raise ValueError(f"residual: equation index {i} outside 0..{sys.level - 1}")
    p = sys.params
    q = p.base.q
    scale = max(1.0, float(np.max(np.abs(roots))))
    if np.min(np.abs(roots)) < 1e-150:
        raise PoleError("residual: root too close to 0")
    if abs(_b(q * roots[i] ** 2)) < 1e-12 * scale:
        raise PoleError("residual: vacuum pole at root")
    for j in range(sys.level):
        if j == i:
            continue
        for den in (_b(roots[i] / roots[j]), _b(q * roots[i] * roots[j])):
            if abs(den) < 1e-12 * scale:
                raise PoleError("residual: coupling pole between roots")
    if sys.kind in INHOM_KINDS and abs(_b(roots[i] ** 2)) < 1e-150:
        raise PoleError("residual: inhomogeneity pole at root")
    E, _ = _residual_batch(sys.kind, roots[None, :], p)
    return complex(E[0, i])


# ---------------------------------------------------------------------------
# eigenvalue reconstruction


def _w(x, q):
    return q * x * x + 1.0 / (q * x * x)


def symmetrize_roots(roots: np.ndarray, p: ModelParams) -> np.ndarray:
    """Sign-invariant per-root combination: W(u) = q*u**2 + 1/(q*u**2)
    divided by q + 1/q, the variable of the solver's polynomial Q."""
    q = p.base.q
    return _w(np.asarray(roots, dtype=complex), q) / (q + 1.0 / q)


def hom_eigenvalue_functional(eps: int, u: complex, roots, p: ModelParams,
                              sc: StructureConstants | None = None) -> complex:
    """Probe-point eigenvalue functional for the homogeneous kinds.

    On-shell (roots solving the level-L homogeneous system of branch eps)
    the value is independent of the probe u and equals the L-th entry of
    the matching eigenvalue sequence; off-shell it varies with u.
    """
    if sc is None:
        sc = structure_constants(p)
    q = p.base.q
    pf = 1.0 + 0j
    ph = 1.0 + 0j
    for v in np.asarray(roots, dtype=complex):
        pf *= _f(u, v, q)
        ph *= _h(u, v, q)
    b2 = _b(u * u)
    core = u**eps * (
        _lam1(eps, u, p) * pf / (b2 * _b(q * u * u))
        + _lam2(eps, u, p) * ph / (b2 * _b(q * q * u * u))
    )
    if eps == -1:
        tail = q * u * _etabar(u, sc, q) + _etabar(1.0 / u, sc, q) / (q * u)
    else:
        tail = q * u * _etabar(1.0 / u, sc, q) + _etabar(u, sc, q) / (q * u)
    return complex(core + tail / (b2 * _b(q * q * u * u)))


def dual_eigenvalue_functional(u: complex, roots, p: ModelParams,
                               sc: StructureConstants | None = None) -> complex:
    """Probe-point eigenvalue functional for dual_inhom_plus root sets.

    Independent route to the same eigenvalue as the closed-form
    reconstruction; on-shell the two agree and the value is probe-free.
    """
    if sc is None:
        sc = structure_constants(p)
    q = p.base.q
    n = p.two_s
    delta = p.b_star * q ** (2 * n)
    pf = 1.0 + 0j
    ph = 1.0 + 0j
    den = 1.0 + 0j
    for v in np.asarray(roots, dtype=complex):
        pf *= _f(u, v, q)
        ph *= _h(u, v, q)
        den *= _b(u / v) * _b(q * u * v)
    b2 = _b(u * u)
    t1 = (1.0 / u) * _lam1(1, u, p) * pf / (b2 * _b(q * u * u))
    t2 = q * q * u**3 * _lam2(1, u, p) * ph / (b2 * _b(q * q * u * u))
    t3 = -q * delta * _inh_product(u, p) / den
    t4 = (q * u * _etabar(u, sc, q) + _etabar(1.0 / u, sc, q) / (q * u)) / (b2 * _b(q * q * u * u))
    return complex(t1 + t2 + t3 + t4)


def _closed_form_eigenvalue(kind: str, roots: np.ndarray, p: ModelParams) -> complex:
    q = p.base.q
    n = p.two_s
    z = p.zeta**2 + 1.0 / p.zeta**2
    qn = qnumber(n, p.base)
    r2 = roots**2
    S = complex(np.sum(q * r2 + 1.0 / (q * r2)))
    if kind == "inhom_plus":
        return q ** (-2 * n) * (p.c_star * z * qn + q**n * (p.b * q**n + p.c * q**-n) - q * p.c_star * S)
    if kind == "inhom_minus":
        return q ** (2 * n) * (p.b * z * qn + q**-n * (p.b_star * q**n + p.c_star * q**-n) - p.b * S / q)
    if kind == "dual_inhom_plus":
        return q ** (2 * n) * (p.b_star * z * qn + q**-n * (p.b * q**n + p.c * q**-n) - p.b_star * S / q)
    return q ** (-2 * n) * (p.c * z * qn + q**n * (p.b_star * q**n + p.c_star * q**-n) - q * p.c * S)


def _probe_points(roots: np.ndarray, p: ModelParams, count: int = 3) -> list[complex]:
    """Deterministic pole-avoiding probe points in the sampling annulus."""
    q = p.base.q
    rng = np.random.default_rng(716213)
    out: list[complex] = []
    for _ in range(500):
        if len(out) == count:
            break
        r = float(np.exp(rng.uniform(np.log(0.6), np.log(1.7))))
        a = float(rng.uniform(0.0, 2.0 * np.pi))
        u = complex(r * np.cos(a), r * np.sin(a))
        ok = all(abs(_b(x)) > 1e-3 for x in (u * u, q * u * u, q * q * u * u))
        for v in roots:
            if not ok:
                break
            ok = abs(_b(u / v)) > 1e-3 and abs(_b(q * u * v)) > 1e-3
        if ok:
            out.append(u)
    if len(out) < count:
        raise ValueError("eigenvalue_from_roots: could not place probe points")
    return out


def eigenvalue_from_roots(sys: BetheSystem, roots, probe_tol: float = 1e-8) -> complex:
    """Eigenvalue reconstructed from an on-shell root set.

    Homogeneous kinds evaluate the probe functional at three points and
    insist on probe-independence within ``probe_tol``; inhomogeneous kinds
    use the closed-form symmetric function of the roots.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.shape != (sys.level,):
        raise ValueError(f"eigenvalue_from_roots: expected {sys.level} roots")
    p = sys.params
    if sys.kind in INHOM_KINDS:
        return _closed_form_eigenvalue(sys.kind, roots, p)
    sc = structure_constants(p)
    eps = _KIND_EPS[sys.kind]
    vals = [hom_eigenvalue_functional(eps, u, roots, p, sc) for u in _probe_points(roots, p)]
    spread = max(abs(a - b) for a in vals for b in vals)
    if spread > probe_tol * max(1.0, abs(vals[0])):
        raise ValueError(
            "eigenvalue_from_roots: probe dependence above tolerance "
            f"({spread:.3e}); roots are off shell"
        )
    return vals[0]


# ---------------------------------------------------------------------------
# linear TQ solver
#
# With W(x) = q*x**2 + 1/(q*x**2) and Q(u) = prod_i (W(u) - W(v_i)), on-shell
# roots v_i of every kind satisfy, identically in u,
#     Lambda*Q(u) = A(u)*Q(u/q) + D(u)*Q(q*u) + C(u) + T(u)*Q(u)
# where Lambda is the reproduced spectrum entry; the Bethe equations are the
# cancellation of its poles at u = v_i.  For a given Lambda the relation is
# linear in the L free coefficients of the monic Q(W).

_POLISH_STEPS = 3  # Newton steps allowed after the linear solve
_FD_STEP = 1e-7  # relative step of the finite-difference Jacobian
_GOLDEN_ANGLE = np.pi * (3.0 - np.sqrt(5.0))


def _sample_points(count: int) -> np.ndarray:
    """Golden-angle spiral with |u| log-spaced over [0.3, 4]."""
    k = np.arange(count)
    radius = 0.3 * (4.0 / 0.3) ** ((k + 0.5) / count)
    return radius * np.exp(1j * _GOLDEN_ANGLE * k)


def _tq_coefficients(kind: str, u: np.ndarray, p: ModelParams, sc: StructureConstants):
    """(A, D, C, T) of the kind's TQ relation at the points u."""
    q = p.base.q
    eps = _KIND_EPS[kind]
    b2 = _b(u * u)
    l1 = _lam1(eps, u, p) / (b2 * _b(q * u * u))
    d2 = b2 * _b(q * q * u * u)
    l2 = _lam2(eps, u, p) / d2
    if kind in HOM_KINDS:
        A, D = u**eps * l1, u**eps * l2
    elif kind in ("inhom_plus", "inhom_minus"):
        A, D = u ** (3 * eps) * l1, q ** (-2 * eps) * u ** (-eps) * l2
    else:
        A, D = u ** (-eps) * l1, q ** (2 * eps) * u ** (3 * eps) * l2
    C = 0.0 if kind in HOM_KINDS else -_nu(kind, p) * _inh_product(u, p)
    if TARGET_SPECTRUM[kind] == "theta":
        tail = q * u * _etabar(u, sc, q) + _etabar(1.0 / u, sc, q) / (q * u)
    else:
        tail = q * u * _etabar(1.0 / u, sc, q) + _etabar(u, sc, q) / (q * u)
    return A, D, C, tail / d2


def _tq_roots(kind: str, lam: complex, L: int, p: ModelParams,
              sc: StructureConstants) -> np.ndarray:
    """Roots of the monic Q(W) fitted to the TQ relation at eigenvalue lam.

    One least-squares solve over 4L+8 sample points with rows and columns
    scaled; each W root is inverted to one of its four u representatives
    (u, -u, 1/(q*u), -1/(q*u)), all of which solve the Bethe equations.
    """
    if L == 0:
        return np.empty(0, dtype=complex)
    q = p.base.q
    u = _sample_points(4 * L + 8)
    powers = np.arange(L + 1)
    with np.errstate(all="ignore"):
        A, D, C, T = _tq_coefficients(kind, u, p, sc)
        basis = (A[:, None] * _w(u / q, q)[:, None] ** powers
                 + D[:, None] * _w(q * u, q)[:, None] ** powers
                 + (T - lam)[:, None] * _w(u, q)[:, None] ** powers)
        M, rhs = basis[:, :L], -(basis[:, L] + C)
        row = np.maximum(np.abs(M).max(axis=1), np.abs(rhs))
        ok = np.isfinite(row) & (row > 0)  # drops a sample point on a pole
        M, rhs = M[ok] / row[ok, None], rhs[ok] / row[ok]
        col = np.linalg.norm(M, axis=0)
        coef = np.linalg.lstsq(M / col, rhs, rcond=None)[0] / col
    w = np.roots(np.concatenate(([1.0], coef[::-1])))
    # y + 1/y = w with y = q*u**2; take the root with |y| >= 1, free of
    # cancellation (the other root is 1/y, the representative 1/(q*u))
    r = np.sqrt(0.25 * w * w - 1.0)
    y = np.where(np.abs(0.5 * w + r) >= np.abs(0.5 * w - r), 0.5 * w + r, 0.5 * w - r)
    return np.sqrt(y / q)


def _jacobian(kind: str, U: np.ndarray, p: ModelParams, fd: float) -> np.ndarray:
    S, L = U.shape
    J = np.empty((S, L, L), dtype=complex)
    for k in range(L):
        h = fd * np.maximum(1.0, np.abs(U[:, k]))
        Up = U.copy()
        Um = U.copy()
        Up[:, k] += h
        Um[:, k] -= h
        Ep, _ = _residual_batch(kind, Up, p)
        Em, _ = _residual_batch(kind, Um, p)
        J[:, :, k] = (Ep - Em) / (2.0 * h[:, None])
    return J


def _newton_step(J: np.ndarray, E: np.ndarray) -> np.ndarray:
    ok = np.isfinite(J).all(axis=(1, 2)) & np.isfinite(E).all(axis=1)
    delta = np.zeros_like(E)
    if ok.any():
        Jok = J[ok]
        Eok = E[ok]
        try:
            delta[ok] = np.linalg.solve(Jok, -Eok[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            out = np.zeros_like(Eok)
            for s in range(Jok.shape[0]):
                try:
                    out[s] = np.linalg.solve(Jok[s], -Eok[s])
                except np.linalg.LinAlgError:
                    out[s] = np.linalg.lstsq(Jok[s], -Eok[s], rcond=None)[0]
            delta[ok] = out
    return delta


def _canonical_roots(u: np.ndarray) -> np.ndarray:
    flip = (u.real < 0) | ((u.real == 0) & (u.imag < 0))
    v = np.where(flip, -u, u)
    order = np.lexsort((v.imag, v.real))
    return v[order]


def _scaled_residual(kind: str, roots: np.ndarray, p: ModelParams) -> float:
    if roots.size == 0:
        return 0.0
    E, scale = _residual_batch(kind, roots[None, :], p)
    return float(_scaled_norm(E, scale)[0])


def _polish(kind: str, roots: np.ndarray, p: ModelParams, tol: float):
    """Canonical roots and their scaled residual after at most _POLISH_STEPS
    Newton steps; a step is kept only when it lowers the residual."""
    res = _scaled_residual(kind, roots, p)
    for _ in range(_POLISH_STEPS):
        if res <= tol:
            break
        U = roots[None, :]
        E, _ = _residual_batch(kind, U, p)
        trial = (U + _newton_step(_jacobian(kind, U, p, _FD_STEP), E))[0]
        r = _scaled_residual(kind, trial, p)
        if not r < res:
            break
        roots, res = trial, r
    roots = _canonical_roots(roots)
    return roots, _scaled_residual(kind, roots, p)


def _match(lam: complex, targets: np.ndarray) -> tuple[int, float]:
    d = np.abs(targets - lam) / np.maximum(1.0, np.abs(targets))
    idx = int(np.argmin(d))
    return idx, float(d[idx])


def _solution(sys: BetheSystem, roots: np.ndarray, res: float, targets: np.ndarray,
              cfg: SolverConfig) -> BetheSolution:
    """Admissibility and eigenvalue match of one on-shell root set."""
    L = sys.level
    sym = symmetrize_roots(roots, sys.params)
    sym = sym[np.lexsort((sym.imag, sym.real))]
    adm = L == 0 or bool(
        np.min(np.abs(roots)) > cfg.dedup_tol
        and np.min(np.abs(_b(roots**2))) > cfg.dedup_tol
    )
    if adm and L > 1:
        gaps = np.abs(sym[:, None] - sym[None, :])[np.triu_indices(L, 1)]
        adm = bool(np.min(gaps) > cfg.dedup_tol * max(1.0, float(np.max(np.abs(sym)))))
    lam = None
    idx = None
    err = np.inf
    if adm:
        try:
            lam = eigenvalue_from_roots(sys, roots, cfg.probe_tol)
        except ValueError:
            adm = False
        else:
            idx, err = _match(lam, targets)
            if err > cfg.match_tol:
                idx = None
    return BetheSolution(
        roots=roots,
        residual_max=res,
        symmetrized=sym,
        admissible=adm,
        reconstructed_eigenvalue=lam,
        matched_index=idx,
        match_error=err,
    )


def solve(sys: BetheSystem, cfg: SolverConfig = SolverConfig()) -> list[BetheSolution]:
    """On-shell root sets, one linear TQ solve per target spectrum entry.

    A homogeneous system at level L targets entry L; an inhomogeneous one
    targets every entry.  Each solve fits Q to the TQ relation at the target
    eigenvalue, then polishes the roots.  Only root sets whose Bethe residual
    is within ``cfg.tol`` are returned, in target order, each with its
    admissibility and the spectrum entry its roots reproduce through
    ``eigenvalue_from_roots``.  The result is deterministic.
    """
    p = sys.params
    L = sys.level
    targets = getattr(spectrum(p), TARGET_SPECTRUM[sys.kind])
    sc = structure_constants(p)
    out = []
    for index in ([L] if sys.kind in HOM_KINDS else range(p.dim)):
        roots = _tq_roots(sys.kind, targets[index], L, p, sc)
        if not np.isfinite(roots).all():
            continue
        roots, res = _polish(sys.kind, roots, p, cfg.tol)
        if res <= cfg.tol:
            out.append(_solution(sys, roots, res, targets, cfg))
    return out


def coverage(kind: str, p: ModelParams, cfg: SolverConfig = SolverConfig()) -> CoverageReport:
    """Spectrum coverage sweep for one system kind.

    Homogeneous kinds solve every level and ask the level-L solution to
    reproduce the L-th eigenvalue; inhomogeneous kinds solve once at full
    size and ask the solution set to cover every index.  Misses are
    reported, not raised.
    """
    if kind not in KINDS:
        raise ValueError(f"coverage: unknown kind {kind!r}")
    if kind in HOM_KINDS:
        found = [(L, solve(BetheSystem(kind, L, p), cfg)) for L in range(p.two_s + 1)]
    else:
        sols = solve(BetheSystem(kind, p.two_s, p), cfg)
        found = [(index, sols) for index in range(p.dim)]
    entries: list[CoverageEntry] = []
    for index, sols in found:
        hits = [s for s in sols if s.admissible and s.matched_index == index]
        best = min(hits, key=lambda s: s.match_error, default=None)
        entries.append(
            CoverageEntry(index, best is not None, best.match_error if best else np.inf, best)
        )
    return CoverageReport(kind=kind, entries=entries)
