"""Bethe equation systems attached to the generator pair, a linear TQ
solver, and eigenvalue reconstruction from roots.

Six system kinds are supported.  The two homogeneous kinds carry one
equation per root at any level 0..two_s; the four inhomogeneous kinds (two
direct, two dual) always carry two_s roots and an extra inhomogeneity term.
On-shell root sets reproduce entries of the eigenvalue sequences: the
homogeneous kinds through the TQ relation below solved for the eigenvalue
at probe points, whose on-shell value is probe-independent, the
inhomogeneous kinds through closed-form symmetric functions of the roots.
The public eigenvalue functionals are that same relation at one probe
point.  Its coefficients are written once, in ``_tq_table``, and the
functional that uses them once, in ``_tq_values``: every probe value is an
array evaluation of the two.

The solver uses Baxter's TQ relation, which is linear in the coefficients
of the polynomial Q whose zeros are the roots.  Each system targets spectrum
entries: entry L at homogeneous level L, every entry for an inhomogeneous
kind.  All targets with the same root count L form one batch, across kinds:
at L = two_s that is both homogeneous kinds and all four inhomogeneous ones.
A solve evaluates the TQ coefficients of every kind once, at the sample
points of all its batches and at the leading probe candidates.  The fit
runs per root count: a batch shares one set of sample points, fits Q to
every target by one stacked SVD, takes the zeros of every Q at once and
inverts them to Bethe roots.  The root sets of every batch are then stacked,
padded with inf to the largest root count, and go through one
polish/reconstruct/match pass: a pad is a factor 1 in every product over
roots, wins no max or min and sorts last.  Newton steps, which only root
sets above tolerance take, run per root count on unpadded rows.  The
homogeneous eigenvalues are read at the tabulated probe points; the rare
root set whose probe points lie past them evaluates the table at its own
points.  The kind of a row only selects its factors, each computed as for
that kind alone, and each least-squares matrix is factored alone, so a
row's result does not depend on the batch it is in.  A root set passes
only when it satisfies the Bethe equations to tolerance and its
reconstructed eigenvalue matches the closed-form spectrum; neither check
uses the fit.  Every step is deterministic, so repeated runs return
byte-identical results.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .model import (KINDS, ModelParams, SolverConfig, Spectrum, StructureConstants, spectrum,
                    structure_constants)
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
    "residual",
    "solve",
    "eigenvalue_from_roots",
    "hom_eigenvalue_functional",
    "dual_eigenvalue_functional",
    "symmetrize_roots",
    "coverage",
    "sweep",
]

HOM_KINDS = KINDS[:2]
INHOM_KINDS = KINDS[2:]

# per kind, indexed like KINDS: the sign eps entering its vacuum eigenvalue
# pair, and its family (0 homogeneous, 1 direct and 2 dual inhomogeneous)
_EPS = (-1, 1, 1, -1, 1, -1)
_FAMILY = (0, 0, 1, 1, 2, 2)

# which eigenvalue sequence an on-shell root set reproduces
TARGET_SPECTRUM = {
    "hom_minus": "theta",
    "hom_plus": "theta_star",
    "inhom_plus": "theta",
    "inhom_minus": "theta_star",
    "dual_inhom_plus": "theta",
    "dual_inhom_minus": "theta_star",
}
_THETA = tuple(TARGET_SPECTRUM[kind] == "theta" for kind in KINDS)


class PoleError(ValueError):
    """Evaluation requested too close to a pole of the coupling functions."""


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
    """One on-shell root set of a system, with its diagnostics."""

    system: BetheSystem
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


# ---------------------------------------------------------------------------
# elementary kernels; they accept scalars or numpy arrays interchangeably


def _b(x):
    return x - 1.0 / x


def _sel(eps, plus, minus):
    """The eps = +1 value or the eps = -1 one, per element of the signs eps.
    Callers compute both with literal powers, never with an array of
    exponents, so each element keeps the bits of its kind alone."""
    return np.where(eps == 1, plus, minus)


def _lam1(eps, u, p: ModelParams):
    q = p.base.q
    n = p.two_s
    pref = q ** (-(n + 1)) * _sel(eps, u ** -1, u ** 1)
    f1 = q ** (n + 1) * u / p.zeta - p.zeta / u
    f2 = q ** (n + 1) * u * p.zeta - 1.0 / (p.zeta * u)
    f3 = u * p.c_star * q ** (-n) + p.b * q**n / u
    f4 = _sel(eps, u + (p.b_star / p.b) / u, u * (p.c / p.c_star) + 1.0 / u)
    return pref * f1 * f2 * f3 * f4


def _lam2(eps, u, p: ModelParams):
    q = p.base.q
    n = p.two_s
    u2 = u * u
    pref = _b(u2) * q ** (-(n + 1)) / (_sel(eps, u ** 1, u ** -1) * _b(q * u2))
    f1 = q ** (n - 1) * p.zeta / u - u / p.zeta
    f2 = q ** (n - 1) / (p.zeta * u) - u * p.zeta
    f3 = q * q * u * p.b * q**n + p.c_star * q ** (-n) / u
    f4 = _sel(eps, q * q * u * (p.b_star / p.b) + 1.0 / u, q * q * u + (p.c / p.c_star) / u)
    return pref * f1 * f2 * f3 * f4


def _f(u, v, q):
    return _b(q * v / u) * _b(u * v) / (_b(v / u) * _b(q * u * v))


def _h(u, v, q):
    return _b(q * q * u * v) * _b(q * u / v) / (_b(q * u * v) * _b(u / v))


def _inh_product(u, p: ModelParams) -> np.ndarray:
    """Product over the inhomogeneity ladder x = q**((1 - two_s)/2) * q**j,
    j = 0..two_s, of b(x*zeta*u)*b(x*u/zeta); branch-independent because the
    factor count is even.  The ladder is a running product of Python complex
    numbers; every factor is evaluated at once along a leading ladder axis,
    then multiplied in ladder order."""
    q = p.base.q
    n = p.two_s
    x = complex(q) ** ((1.0 - n) / 2.0)
    ladder = []
    for _ in range(n + 1):
        ladder.append(x)
        x *= q
    u = np.asarray(u, dtype=complex)
    shape = (n + 1,) + (1,) * u.ndim
    xz = np.array([x * p.zeta for x in ladder]).reshape(shape)
    factors = np.stack([_b(xz * u), _b(np.array(ladder).reshape(shape) * u / p.zeta)], axis=1)
    # one elementwise product per factor, not np.multiply.reduce: numpy
    # rounds the reduction of a single point without fused multiply-adds, so
    # that point alone would differ in its last bit from itself in an array
    out = np.ones(u.shape, dtype=complex)
    for f in factors.reshape((-1,) + u.shape):
        out = out * f
    return out


def _etabar(u, sc: StructureConstants, q):
    return (q + 1.0 / q) / sc.rho * (sc.eta * u + sc.eta_star / u)


# ---------------------------------------------------------------------------
# batched residual evaluation; rows are independent candidate root sets.  A
# row shorter than the stack is padded at its end with non-finite entries,
# which enter no product, max or min, and sort last.


def _pair_products(U: np.ndarray, q) -> np.ndarray:
    """Per-root products over the other roots of each row, stacked as
    (f(u_i, u_j), h(u_i, u_j), b(u_i/u_j)*b(q*u_i*u_j)); unpacks as F, H and
    the coupling denominator.  Callers hold the numpy error state: the
    diagonal's poles and the pads are evaluated, then replaced by 1."""
    ui, uj = U[:, :, None], U[:, None, :]
    skip = np.eye(U.shape[1], dtype=bool) | ~np.isfinite(uj)
    pairs = np.stack([_f(ui, uj, q), _h(ui, uj, q), _b(ui / uj) * _b(q * ui * uj)])
    return np.where(skip, 1.0, pairs).prod(axis=-1)


def _nu(p: ModelParams) -> np.ndarray:
    """Weight of the inhomogeneity term of each kind, indexed like KINDS."""
    q = p.base.q
    n = p.two_s
    return np.array([0.0, 0.0, q ** (-1 - 2 * n) * p.c_star, q ** (1 + 2 * n) * p.b,
                     q ** (1 + 2 * n) * p.b_star, q ** (-1 - 2 * n) * p.c])


def _residual_batch(kind, U: np.ndarray, p: ModelParams):
    """Bethe residual of each row of U, with the largest term magnitude of
    each equation; a pad's equation reads 0 at scale 1.  kind names the kind
    of every row, or is an array of per-row indices into KINDS."""
    k = np.full(len(U), KINDS.index(kind)) if isinstance(kind, str) else kind
    q = p.base.q
    eps, fam = np.array(_EPS)[k][:, None], np.array(_FAMILY)[k][:, None]
    hom = fam == 0
    # U**eps in a direct kind's first term, U**-eps in a dual one's; the
    # second term carries the opposite power of q*q*U**3
    up = (eps == 1) != (fam == 2)
    with np.errstate(all="ignore"):
        F, H, den = _pair_products(U, q)
        bU = _b(U * U)
        ratio = bU / _b(q * U * U)
        l1, l2 = _lam1(eps, U, p), _lam2(eps, U, p)
        t1 = np.where(hom, -ratio, ratio * np.where(up, U ** 1, U ** -1)) * F * l1
        P = q * q * U**3
        t2 = np.where(hom, H * l2, -np.where(up, P ** -1, P ** 1) * H * l2)
        E, scale = t1 + t2, np.maximum(np.abs(t1), np.abs(t2))
        if not hom.all():
            inh = _inh_product(U, p) / den
            nu = _nu(p)[k][:, None]
            t3 = np.where(fam == 2, nu, nu * _sel(eps, U ** -2, U ** 2)) * bU / _b(q) * inh
            E, scale = np.where(hom, E, E + t3), np.where(hom, scale, np.maximum(scale, np.abs(t3)))
    pad = ~np.isfinite(U)
    return np.where(pad, 0.0, E), np.where(pad, 1.0, scale)


def _scaled_norm(E: np.ndarray, scale: np.ndarray) -> np.ndarray:
    with np.errstate(all="ignore"):
        r = np.abs(E) / scale
    r = np.where(np.isfinite(r), r, np.inf)
    return r.max(axis=1, initial=0.0)


def residual(sys: BetheSystem, roots, i: int) -> complex:
    """Value of equation i of the system at the given candidate roots.

    Raises PoleError when the evaluation point sits on a coupling or vacuum
    pole, and ValueError on index or length mismatches or non-finite roots.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.shape != (sys.level,):
        raise ValueError(f"residual: expected {sys.level} roots, got {roots.shape}")
    if not np.isfinite(roots).all():
        raise ValueError("residual: roots must be finite")
    if not 0 <= i < sys.level:
        raise ValueError(f"residual: equation index {i} outside 0..{sys.level - 1}")
    p = sys.params
    q = p.base.q
    scale = max(1.0, float(np.max(np.abs(roots))))
    if np.min(np.abs(roots)) < 1e-150:
        raise PoleError("residual: root too close to 0")
    if abs(_b(q * roots[i] ** 2)) < 1e-12 * scale:
        raise PoleError("residual: vacuum pole at root")
    others = np.delete(roots, i)
    if (np.abs([_b(roots[i] / others), _b(q * roots[i] * others)]) < 1e-12 * scale).any():
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


def _tq_values(coeffs: np.ndarray, u: np.ndarray, U: np.ndarray, q) -> np.ndarray:
    """The TQ relation solved for the eigenvalue of each root set, row s of
    U, at its points u[s]: T + A*prod f + D*prod h + C/prod den over the
    roots v, with (A, D, C, T) = coeffs of shape (4,) + u.shape.

    Since W(x) - W(y) = b(x/y)*b(q*x*y), the product of f(u, v) is
    Q(u/q)/Q(u), that of h(u, v) is Q(q*u)/Q(u), and that of
    b(u/v)*b(q*u*v) is Q(u) itself, formed only when some C is nonzero:
    the homogeneous kinds' C is exactly 0, and the reconstruction in solve
    evaluates only them.  Pads of U enter no product.  Callers hold the
    numpy error state: the pads are evaluated, then replaced by 1.
    """
    A, D, C, T = coeffs
    u, v = u[:, :, None], U[:, None, :]
    pad = ~np.isfinite(v)
    pf, ph = (np.where(pad, 1.0, x).prod(axis=2) for x in (_f(u, v, q), _h(u, v, q)))
    if C.any():
        C = C / np.where(pad, 1.0, _b(u / v) * _b(q * u * v)).prod(axis=2)
    return T + A * pf + D * ph + C


def _functional(kind: str, u: complex, roots, p: ModelParams, sc: StructureConstants) -> complex:
    """The kind's TQ relation solved for its eigenvalue at one probe point u."""
    u = np.array([[u]], dtype=complex)
    coeffs = _tq_table([KINDS.index(kind)], u[0], p, sc)
    U = np.asarray(roots, dtype=complex)[None]
    return complex(_tq_values(coeffs, u, U, p.base.q)[0, 0])


def hom_eigenvalue_functional(eps: int, u: complex, roots, p: ModelParams,
                              sc: StructureConstants | None = None) -> complex:
    """Probe-point eigenvalue functional for the homogeneous kinds.

    On-shell (roots solving the level-L homogeneous system of branch eps)
    the value is independent of the probe u and equals the L-th entry of
    the matching eigenvalue sequence; off-shell it varies with u.
    """
    if eps not in (-1, 1):
        raise ValueError("hom_eigenvalue_functional: eps must be +1 or -1")
    kind = "hom_plus" if eps == 1 else "hom_minus"
    return _functional(kind, u, roots, p, sc or structure_constants(p))


def dual_eigenvalue_functional(u: complex, roots, p: ModelParams,
                               sc: StructureConstants | None = None) -> complex:
    """Probe-point eigenvalue functional for dual_inhom_plus root sets.

    Independent route to the same eigenvalue as the closed-form
    reconstruction; on-shell the two agree and the value is probe-free.
    """
    return _functional("dual_inhom_plus", u, roots, p, sc or structure_constants(p))


def _closed_form_eigenvalues(k: np.ndarray, U: np.ndarray, p: ModelParams) -> np.ndarray:
    """Closed-form eigenvalue of each row of U, a root set of the
    inhomogeneous kind KINDS[k[s]]: pre*(const - coef*S), with S the sum of
    W(u) = q*u**2 + 1/(q*u**2) over the roots and (pre, const, coef) fixed
    by the kind and the parameters."""
    q = p.base.q
    n = p.two_s
    z = p.zeta**2 + 1.0 / p.zeta**2
    qn = qnumber(n, p.base)
    # rows indexed like INHOM_KINDS
    forms = np.array([
        (q ** (-2 * n), p.c_star * z * qn + q**n * (p.b * q**n + p.c * q**-n), q * p.c_star),
        (q ** (2 * n), p.b * z * qn + q**-n * (p.b_star * q**n + p.c_star * q**-n), p.b / q),
        (q ** (2 * n), p.b_star * z * qn + q**-n * (p.b * q**n + p.c * q**-n), p.b_star / q),
        (q ** (-2 * n), p.c * z * qn + q**n * (p.b_star * q**n + p.c_star * q**-n), q * p.c),
    ])
    pre, const, coef = forms[k - len(HOM_KINDS)].T
    r2 = U**2
    return pre * (const - coef * (q * r2 + 1.0 / (q * r2)).sum(axis=1))


# relative spread allowed between the probe-point values of an on-shell set
_PROBE_TOL = 1e-8
_PROBE_COUNT = 3
# leading probe candidates whose TQ coefficients solve tabulates
_PROBE_PREFIX = 16


@functools.cache
def _probe_candidates() -> np.ndarray:
    """Fixed, seeded sequence of 500 candidate probe points with |u| in
    [0.6, 1.7]; drawn once, on first use, and read-only."""
    rng = np.random.default_rng(716213)
    log_r, a = rng.uniform([np.log(0.6), 0.0], [np.log(1.7), 2.0 * np.pi], size=(500, 2)).T
    r = np.exp(log_r)
    cand = r * np.cos(a) + 1j * (r * np.sin(a))
    cand.flags.writeable = False
    return cand


def _probe_points(U: np.ndarray, p: ModelParams) -> np.ndarray:
    """Indices into _probe_candidates of the first _PROBE_COUNT candidates
    that keep clear of the poles of each root set, row s of U, shape
    (len(U), _PROBE_COUNT), -1 where a row has too few.  Every row screens
    the first _PROBE_PREFIX candidates; only the rows they cannot serve
    screen the rest.  Pads block no candidate."""
    q = p.base.q
    cand = _probe_candidates()
    free = np.zeros((len(U), len(cand)), dtype=bool)
    left = np.arange(len(U))
    for lo, hi in ((0, _PROBE_PREFIX), (_PROBE_PREFIX, len(cand))):
        u, v = cand[lo:hi], U[left, None, :]
        w = u[:, None]
        with np.errstate(all="ignore"):
            clear = ((np.abs(_b(w / v)) > 1e-3) & (np.abs(_b(q * w * v)) > 1e-3)) | ~np.isfinite(v)
        free[left, lo:hi] = clear.all(axis=2) & (
            np.abs([_b(u * u), _b(q * u * u), _b(q * q * u * u)]) > 1e-3).all(axis=0)
        count = free[:, :hi].sum(axis=1)
        left = np.flatnonzero(count < _PROBE_COUNT)
        if left.size == 0:
            break
    first = np.argsort(~free[:, :hi], axis=1, kind="stable")[:, :_PROBE_COUNT]
    return np.where(np.arange(_PROBE_COUNT) < count[:, None], first, -1)


def eigenvalue_from_roots(sys: BetheSystem, roots) -> complex:
    """Eigenvalue reconstructed from an on-shell root set.

    Homogeneous kinds evaluate the probe functional at three points and
    insist on probe-independence within ``_PROBE_TOL``; inhomogeneous kinds
    use the closed-form symmetric function of the roots.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.shape != (sys.level,) or not np.isfinite(roots).all():
        raise ValueError(f"eigenvalue_from_roots: expected {sys.level} finite roots")
    p = sys.params
    sc = structure_constants(p)
    k = np.array([KINDS.index(sys.kind)])
    probe = _tq_table(k, _probe_candidates()[:_PROBE_PREFIX], p, sc)
    (lam,), (spread,) = _eigenvalues(k, roots[None, :], p, sc, probe)
    if not spread <= _PROBE_TOL:
        raise ValueError(
            "eigenvalue_from_roots: probe dependence above tolerance "
            f"(relative spread {spread:.3e}); roots are off shell"
        )
    return complex(lam)


def _probe_values(k: np.ndarray, U: np.ndarray, p: ModelParams, sc: StructureConstants,
                  probe: np.ndarray) -> np.ndarray:
    """The TQ functional of each homogeneous root set, row s of U of the kind
    KINDS[k[s]], at its _PROBE_COUNT probe points (those of _probe_points),
    shape (len(U), _PROBE_COUNT), NaN where no probe points can be placed.

    probe holds each row's (A, D, C, T) at the first _PROBE_PREFIX
    candidates, shape (4, len(U), _PROBE_PREFIX); a row whose probe points
    reach past them takes its coefficients from _tq_table at its points."""
    at = _probe_points(U, p)
    u = _probe_candidates()[at]
    coeffs = probe[:, np.arange(len(U))[:, None], np.minimum(at, _PROBE_PREFIX - 1)]
    with np.errstate(all="ignore"):
        for s in np.flatnonzero((at >= _PROBE_PREFIX).any(axis=1)):
            coeffs[:, s] = _tq_table(k[s:s + 1], u[s], p, sc)[:, 0]
        vals = _tq_values(coeffs, u, U, p.base.q)
    return np.where((at >= 0).all(axis=1)[:, None], vals, np.nan)


def _eigenvalues(k: np.ndarray, U: np.ndarray, p: ModelParams, sc: StructureConstants,
                 probe: np.ndarray):
    """Eigenvalue reconstructed from each root set, row s of U of the kind
    KINDS[k[s]], and the relative spread of its probe-point values: the
    first value for a homogeneous kind, the closed form (spread 0) for an
    inhomogeneous one.  probe is as in _probe_values."""
    lam = np.empty(len(U), dtype=complex)
    spread = np.zeros(len(U))
    inh = np.array(_FAMILY)[k] > 0
    lam[inh] = _closed_form_eigenvalues(k[inh], U[inh], p)
    hom = np.flatnonzero(~inh)
    vals = _probe_values(k[hom], U[hom], p, sc, probe[:, hom])
    lam[hom] = vals[:, 0]
    with np.errstate(invalid="ignore"):
        spread[hom] = (np.abs(vals[:, :, None] - vals[:, None, :]).max(axis=(1, 2))
                       / np.maximum(1.0, np.abs(vals[:, 0])))
    return lam, spread


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


def _tq_table(kinds, u, p: ModelParams, sc: StructureConstants) -> np.ndarray:
    """(A, D, C, T) of the TQ relation of each kind in kinds (indices into
    KINDS) at the points u, stacked with shape (4, len(kinds)) + u.shape.

    This is the one statement of the six kinds' TQ relation.  Each kind's
    branch takes its literal powers through _sel, so every row has the bits
    of its kind evaluated alone, and every point those of its point alone."""
    q = p.base.q
    k = np.asarray(kinds)
    u = np.asarray(u, dtype=complex)
    shape = (len(k),) + (1,) * u.ndim
    eps = np.array(_EPS)[k].reshape(shape)
    fam = np.array(_FAMILY)[k].reshape(shape)
    hom, dual = fam == 0, fam == 2
    b2 = _b(u * u)
    l1 = _lam1(eps, u, p) / (b2 * _b(q * u * u))
    d2 = b2 * _b(q * q * u * u)
    l2 = _lam2(eps, u, p) / d2
    # homogeneous: u**eps on both terms; direct: u**(3*eps) and
    # q**(-2*eps)*u**(-eps); dual: u**(-eps) and q**(2*eps)*u**(3*eps)
    A = np.where(hom, _sel(eps, u**1, u**-1),
                 np.where(dual, _sel(eps, u**-1, u**1), _sel(eps, u**3, u**-3))) * l1
    D = np.where(hom, _sel(eps, u**1, u**-1),
                 np.where(dual, _sel(eps, q**2 * u**3, q**-2 * u**-3),
                          _sel(eps, q**-2 * u**-1, q**2 * u**1))) * l2
    C = np.where(hom, 0.0, -_nu(p)[k].reshape(shape) * _inh_product(u, p))
    tail = np.where(np.array(_THETA)[k].reshape(shape),
                    q * u * _etabar(u, sc, q) + _etabar(1.0 / u, sc, q) / (q * u),
                    q * u * _etabar(1.0 / u, sc, q) + _etabar(u, sc, q) / (q * u))
    return np.stack(np.broadcast_arrays(A, D, C, tail / d2))


def _lstsq(M: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Minimum-norm least-squares solution x = V @ pinv(S) @ U^H @ rhs[s] of
    M[s] @ x = rhs[s] for each s, from one stacked SVD.  Singular values at
    or below np.linalg.lstsq's own cutoff, eps*max(m, n)*s_max, count as
    zero.  Each matrix is factored and multiplied alone, so a row's
    solution does not depend on the rest of the stack."""
    Us, s, Vh = np.linalg.svd(M, full_matrices=False)
    keep = s > np.finfo(float).eps * max(M.shape[1:]) * s[:, :1]
    z = (Us.conj().transpose(0, 2, 1) @ rhs[:, :, None])[:, :, 0] / np.where(keep, s, np.inf)
    return (Vh.conj().transpose(0, 2, 1) @ z[:, :, None])[:, :, 0]


def _tq_roots(k: np.ndarray, lams: np.ndarray, L: int, p: ModelParams,
              coeffs: np.ndarray) -> np.ndarray:
    """Roots of the monic Q(W) fitted to the TQ relation at each eigenvalue
    in lams, one row of L >= 1 roots per eigenvalue; row s belongs to the
    kind KINDS[k[s]].  coeffs is the TQ table of every kind at the points of
    _sample_points, shape (4, len(KINDS), count); solve samples 4L+8.

    The sample points and powers of W are shared by all rows, and the TQ
    coefficients by the rows of a kind; the least-squares problems of all
    eigenvalues, with rows and columns scaled, are solved by one stacked
    SVD.  Each W root is inverted to one of its four u representatives
    (u, -u, 1/(q*u), -1/(q*u)), all of which solve the Bethe equations.
    """
    S = len(lams)
    q = p.base.q
    u = _sample_points(coeffs.shape[-1])
    powers = np.arange(L + 1)
    kinds, of_row = np.unique(k, return_inverse=True)
    with np.errstate(all="ignore"):
        Wk = _w(u, q)[:, None] ** powers
        Wm, Wp = _w(u / q, q)[:, None] ** powers, _w(q * u, q)[:, None] ** powers
        A, D, C, T = coeffs[:, kinds]
        base = (A[:, :, None] * Wm + D[:, :, None] * Wp)[of_row]
        basis = base + (T[of_row] - lams[:, None])[:, :, None] * Wk
        M, rhs = basis[:, :, :L], -(basis[:, :, L] + C[of_row])
        row = np.maximum(np.abs(M).max(axis=2), np.abs(rhs))
        ok = np.isfinite(row) & (row > 0)  # zeroes the rows of a sample point on a pole
        M = np.where(ok[:, :, None], M / row[:, :, None], 0.0)
        rhs = np.where(ok, rhs / row, 0.0)
        col = np.linalg.norm(M, axis=1)
        coef = _lstsq(M / col[:, None, :], rhs) / col
    companion = np.zeros((S, L, L), dtype=complex)
    companion[:, 0, :] = -coef[:, ::-1]
    companion[:, np.arange(1, L), np.arange(L - 1)] = 1.0
    w = np.linalg.eigvals(companion)
    # y + 1/y = w with y = q*u**2; take the root with |y| >= 1, free of
    # cancellation (the other root is 1/y, the representative 1/(q*u))
    r = np.sqrt(0.25 * w * w - 1.0)
    y = np.where(np.abs(0.5 * w + r) >= np.abs(0.5 * w - r), 0.5 * w + r, 0.5 * w - r)
    return np.sqrt(y / q)


def _jacobian(kind, U: np.ndarray, p: ModelParams, fd: float) -> np.ndarray:
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


def _canonical_roots(U: np.ndarray) -> np.ndarray:
    """Each row with every root moved to the right half plane, then sorted."""
    flip = (U.real < 0) | ((U.real == 0) & (U.imag < 0))
    V = np.where(flip, -U, U)
    return np.take_along_axis(V, np.lexsort((V.imag, V.real)), axis=-1)


def _scaled_residual(kind, U: np.ndarray, p: ModelParams) -> np.ndarray:
    """Scaled Bethe residual of each row of U; kind as in _residual_batch."""
    return _scaled_norm(*_residual_batch(kind, U, p))


def _polish(k: np.ndarray, U: np.ndarray, p: ModelParams, tol: float):
    """Canonical roots of each row of U and their scaled residuals after at
    most _POLISH_STEPS Newton steps; row s belongs to the kind KINDS[k[s]]
    and may be padded.  A row takes steps while its residual is above tol,
    keeps a step only when it lowers that residual, and stops at the first
    step that does not; the rows of each root count step together, unpadded.
    The residual is evaluated on the canonical roots, and again only for the
    rows that moved; the steps start from the fitted roots."""
    C = _canonical_roots(U)
    res = _scaled_residual(k, C, p)
    moved = np.zeros(len(U), dtype=bool)
    U = U.copy()
    count = np.isfinite(U).sum(axis=1)
    # not np.unique, whose first call imports numpy.ma
    for L in sorted(set(count[res > tol].tolist())):
        live = (count == L) & (res > tol)
        for _ in range(_POLISH_STEPS):
            rows = np.flatnonzero(live)
            if rows.size == 0:
                break
            V = U[rows, :L]
            E, _ = _residual_batch(k[rows], V, p)
            trial = V + _newton_step(_jacobian(k[rows], V, p, _FD_STEP), E)
            r = _scaled_residual(k[rows], trial, p)
            # a non-finite trial root would read as a pad
            better = (r < res[rows]) & np.isfinite(trial).all(axis=1)
            U[rows[better], :L] = trial[better]
            res[rows[better]] = r[better]
            moved[rows[better]] = True
            live[rows] = better & (r > tol)
    if moved.any():
        C[moved] = _canonical_roots(U[moved])
        res[moved] = _scaled_residual(k[moved], C[moved], p)
    return C, res


def _solutions(systems: list[BetheSystem], U: np.ndarray, res: np.ndarray, p: ModelParams,
               sp: Spectrum, sc: StructureConstants, cfg: SolverConfig,
               probe: np.ndarray) -> list[BetheSolution]:
    """Admissibility and eigenvalue match of each on-shell root set, one per
    row of U; row s solves systems[s], and a row of fewer roots than U has
    columns ends in pads.  probe is the TQ table of every kind at the first
    _PROBE_PREFIX probe candidates; the eigenvalues of all rows are
    reconstructed at once and matched in one broadcast.  Only homogeneous
    rows may be padded: the closed form's sum is not exact under pads."""
    S, L = U.shape
    k = np.array([KINDS.index(s.kind) for s in systems], dtype=int)
    pad = ~np.isfinite(U)
    count = L - pad.sum(axis=1)
    with np.errstate(all="ignore"):
        sym = np.where(pad, np.inf, symmetrize_roots(U, p))
        sym = np.take_along_axis(sym, np.lexsort((sym.imag, sym.real)), axis=-1)
        skip = np.eye(L, dtype=bool) | pad[:, :, None] | pad[:, None, :]
        gaps = np.where(skip, np.inf, np.abs(sym[:, :, None] - sym[:, None, :]))
        vacuum = np.where(pad, np.inf, np.abs(_b(U**2)))
    size = np.where(pad, 0.0, np.abs(sym)).max(axis=1, initial=0.0)
    adm = (
        (np.abs(U).min(axis=1, initial=np.inf) > cfg.dedup_tol)
        & (vacuum.min(axis=1, initial=np.inf) > cfg.dedup_tol)
        & (gaps.min(axis=(1, 2), initial=np.inf) > cfg.dedup_tol * np.maximum(1.0, size))
    )
    rows = np.flatnonzero(adm)
    lam = np.full(S, np.nan, dtype=complex)
    lam[rows], spread = _eigenvalues(k[rows], U[rows], p, sc, probe[:, k[rows]])
    adm[rows] = spread <= _PROBE_TOL
    targets = np.where(np.array(_THETA)[k][:, None], sp.theta, sp.theta_star)
    d = np.abs(targets - lam[:, None]) / np.maximum(1.0, np.abs(targets))
    idx = np.argmin(d, axis=1)
    err = np.where(adm, d[np.arange(S), idx], np.inf)
    hit = err <= cfg.match_tol
    return [BetheSolution(
        system=sys,
        roots=U[s, :count[s]],
        residual_max=float(res[s]),
        symmetrized=sym[s, :count[s]],
        admissible=bool(adm[s]),
        reconstructed_eigenvalue=complex(lam[s]) if adm[s] else None,
        matched_index=int(idx[s]) if hit[s] else None,
        match_error=float(err[s]),
    ) for s, sys in enumerate(systems)]


def solve(sys, cfg: SolverConfig = SolverConfig()) -> list[BetheSolution]:
    """On-shell root sets, one linear TQ fit per target spectrum entry.

    ``sys`` is one BetheSystem or a sequence of systems with one parameter
    set.  A homogeneous system at level L targets entry L; an inhomogeneous
    one targets every entry.  The targets of all systems with the same root
    count form one batch, and Q is fitted per root count to the TQ relation
    at each target eigenvalue.  The fitted root sets of every root count are
    then stacked, padded with inf to the largest, and go through one
    polish/reconstruct/match pass; Newton steps alone run per root count.
    The TQ coefficients of every kind are evaluated once, at the sample
    points of every batch and the leading probe candidates.  Only root sets
    whose Bethe residual is within ``cfg.tol`` are returned, by level, then in
    system and target order, each with its system, its admissibility and
    the spectrum entry its roots reproduce through ``eigenvalue_from_roots``.
    The result is deterministic, and a root set does not depend on the
    other systems solved with it.
    """
    systems = [sys] if isinstance(sys, BetheSystem) else list(sys)
    p = systems[0].params
    if any(s.params != p for s in systems):
        raise ValueError("solve: the systems must share one parameter set")
    sp, sc = spectrum(p), structure_constants(p)
    levels = sorted({s.level for s in systems})
    widths = [4 * L + 8 if L else 0 for L in levels]
    points = [_sample_points(w) for w in widths] + [_probe_candidates()[:_PROBE_PREFIX]]
    with np.errstate(all="ignore"):
        table = _tq_table(range(len(KINDS)), np.concatenate(points), p, sc)
    probe = table[:, :, -_PROBE_PREFIX:]
    rows, lams = [], []
    for L in levels:
        for s in systems:
            if s.level == L:
                targets = getattr(sp, TARGET_SPECTRUM[s.kind])
                lams.append(targets[[L]] if s.kind in HOM_KINDS else targets)
                rows += [s] * len(lams[-1])
    k = np.array([KINDS.index(s.kind) for s in rows])
    lams, count = np.concatenate(lams), np.array([s.level for s in rows])
    U = np.full((len(rows), levels[-1]), np.inf, dtype=complex)
    for L, start, width in zip(levels, np.cumsum([0] + widths), widths):
        if L:
            at = count == L
            U[at, :L] = _tq_roots(k[at], lams[at], L, p, table[:, :, start:start + width])
    fit = np.flatnonzero(np.isfinite(U).sum(axis=1) == count)
    U, res = _polish(k[fit], U[fit], p, cfg.tol)
    on_shell = res <= cfg.tol
    return _solutions([rows[i] for i in fit[on_shell]], U[on_shell], res[on_shell],
                      p, sp, sc, cfg, probe)


def coverage(kind: str, p: ModelParams, cfg: SolverConfig = SolverConfig()) -> CoverageReport:
    """Spectrum coverage sweep for one system kind; see ``sweep``."""
    return sweep(p, cfg, (kind,))[0]


def sweep(p: ModelParams, cfg: SolverConfig = SolverConfig(),
          kinds: tuple[str, ...] = KINDS) -> list[CoverageReport]:
    """Spectrum coverage of each kind in ``kinds``, from one ``solve`` call.

    Homogeneous kinds solve every level and ask the level-L solution to
    reproduce the L-th eigenvalue; inhomogeneous kinds solve once at full
    size and ask the solution set to cover every index.  Each report equals
    the kind's sweep alone.  Misses are reported, not raised.
    """
    n = p.two_s
    sols = solve([BetheSystem(kind, L, p) for kind in kinds
                  for L in (range(n + 1) if kind in HOM_KINDS else (n,))], cfg)
    best: dict[tuple[str, int], BetheSolution] = {}
    for s in sols:  # the first lowest match error in solve order wins
        kind, at = s.system.kind, s.matched_index
        if (s.admissible and at is not None and (kind in INHOM_KINDS or s.system.level == at)
                and ((kind, at) not in best or s.match_error < best[kind, at].match_error)):
            best[kind, at] = s
    return [CoverageReport(kind, [
        CoverageEntry(i, s is not None, np.inf if s is None else s.match_error, s)
        for i, s in enumerate(best.get((kind, i)) for i in range(p.dim))]) for kind in kinds]
