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
points of all its batches and at the probe candidates.  Both point sets are
one golden-angle spiral, ``_sample_points``, at different counts: 4L + 8 for
a batch of root count L, ``_PROBE_POOL`` for the probes.  The fit runs per
root count: a batch shares one set of sample points, fits Q to every target
by one stacked SVD, takes the zeros of every Q at once and inverts them to
Bethe roots.  The root sets of every batch are then stacked, padded with inf
to the largest root count, and go through one polish/reconstruct/match pass:
a pad is a factor 1 in every product over roots, wins no max or min and
sorts last.  Newton steps, which only root sets above tolerance take, run
per root count on unpadded rows.  The homogeneous eigenvalues are read off
the table at the probe candidates.  A row's kind, which the private kernels
take as its index into KINDS, only selects its factors, each computed as for
that kind alone, and each least-squares matrix is factored alone, so a row's
result does not depend on the batch it is in.  A root set passes only when
it satisfies the Bethe equations to tolerance and its reconstructed
eigenvalue matches the closed-form spectrum; neither check uses the fit.
Every step is deterministic, so repeated runs return byte-identical results.

The private kernels leave the numpy error state to their caller.  ``solve``
holds one state that ignores floating-point errors around its table, fit,
polish and match, where a non-finite value ends as a row that fails its
fit, its polish or its match; each public entry point (``residual``,
``eigenvalue_from_roots`` and the two eigenvalue functionals) holds its own.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .model import (KINDS, ModelParams, SolverConfig, Spectrum, StructureConstants, _eye, spectrum,
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


def _frozen(values) -> np.ndarray:
    a = np.array(values)
    a.flags.writeable = False
    return a


# per kind, indexed like KINDS: the sign eps entering its vacuum eigenvalue
# pair, and its family (0 homogeneous, 1 direct and 2 dual inhomogeneous)
_EPS = _frozen((-1, 1, 1, -1, 1, -1))
_FAMILY = _frozen((0, 0, 1, 1, 2, 2))

# which eigenvalue sequence an on-shell root set reproduces
TARGET_SPECTRUM = {
    "hom_minus": "theta",
    "hom_plus": "theta_star",
    "inhom_plus": "theta",
    "inhom_minus": "theta_star",
    "dual_inhom_plus": "theta",
    "dual_inhom_minus": "theta_star",
}
_THETA = _frozen([TARGET_SPECTRUM[kind] == "theta" for kind in KINDS])


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
    fz, fu = _b(xz * u), _b(np.array(ladder).reshape(shape) * u / p.zeta)
    # one elementwise product per factor, not np.multiply.reduce: numpy
    # rounds the reduction of a single point without fused multiply-adds, so
    # that point alone would differ in its last bit from itself in an array
    out = np.empty(u.shape, dtype=complex)
    out.fill(1.0)
    for a, b in zip(fz, fu):
        out = out * a * b
    return out


def _etabar(u, sc: StructureConstants, q):
    return (q + 1.0 / q) / sc.rho * (sc.eta * u + sc.eta_star / u)


# ---------------------------------------------------------------------------
# batched residual evaluation; rows are independent candidate root sets.  A
# row shorter than the stack is padded at its end with non-finite entries,
# which enter no product, max or min, and sort last.


def _root_products(u: np.ndarray, U: np.ndarray, q, skip_self: bool) -> np.ndarray:
    """Products over the roots v of each row s of U at that row's points
    u[s], stacked as (f(u, v), h(u, v), b(u/v)*b(q*u*v)), shape (3,) +
    u.shape; unpacks as F, H and the coupling denominator.  With skip_self,
    u is U and each root's products skip the root itself.  Pads of U enter
    no product; the skipped pairs are evaluated, then replaced by 1."""
    w, v = u[:, :, None], U[:, None, :]
    skip = ~np.isfinite(v)
    if skip_self:
        skip = skip | _eye(U.shape[1], bool)
    # f, h and the denominator written out, each shared factor formed once
    qw = q * w
    b_qwv, b_wv = _b(qw * v), _b(w / v)
    f = _b(q * v / w) * _b(w * v) / (_b(v / w) * b_qwv)
    h = _b(q * q * w * v) * _b(qw / v) / (b_qwv * b_wv)
    return np.where(skip, 1.0, np.array([f, h, b_wv * b_qwv])).prod(axis=-1)


def _nu(p: ModelParams) -> np.ndarray:
    """Weight of the inhomogeneity term of each kind, indexed like KINDS."""
    q = p.base.q
    n = p.two_s
    return np.array([0.0, 0.0, q ** (-1 - 2 * n) * p.c_star, q ** (1 + 2 * n) * p.b,
                     q ** (1 + 2 * n) * p.b_star, q ** (-1 - 2 * n) * p.c])


def _residual_batch(k, U: np.ndarray, p: ModelParams):
    """Bethe residual of each row of U, row s of the kind KINDS[k[s]], with
    the largest term magnitude of each equation; a pad's equation reads 0 at
    scale 1."""
    q = p.base.q
    eps, fam = _EPS[k][:, None], _FAMILY[k][:, None]
    hom = fam == 0
    # U**eps in a direct kind's first term, U**-eps in a dual one's; the
    # second term carries the opposite power of q*q*U**3
    up = (eps == 1) != (fam == 2)
    F, H, den = _root_products(U, U, q, True)
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
    scale = max(1.0, float(np.abs(roots).max()))
    if np.abs(roots).min() < 1e-150:
        raise PoleError("residual: root too close to 0")
    if abs(_b(q * roots[i] ** 2)) < 1e-12 * scale:
        raise PoleError("residual: vacuum pole at root")
    others = np.delete(roots, i)
    if (np.abs([_b(roots[i] / others), _b(q * roots[i] * others)]) < 1e-12 * scale).any():
        raise PoleError("residual: coupling pole between roots")
    if sys.kind in INHOM_KINDS and abs(_b(roots[i] ** 2)) < 1e-150:
        raise PoleError("residual: inhomogeneity pole at root")
    with np.errstate(all="ignore"):
        E, _ = _residual_batch([KINDS.index(sys.kind)], roots[None, :], p)
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
    b(u/v)*b(q*u*v) is Q(u) itself; all three are those of
    _root_products, which the Bethe residual takes at the roots.  The
    homogeneous kinds' C is exactly 0.
    """
    A, D, C, T = coeffs
    pf, ph, den = _root_products(u, U, q, False)
    return T + A * pf + D * ph + C / den


def _functional(kind: str, u: complex, roots, p: ModelParams, sc: StructureConstants) -> complex:
    """The kind's TQ relation solved for its eigenvalue at one probe point u."""
    u = np.array([[u]], dtype=complex)
    U = np.asarray(roots, dtype=complex)[None]
    with np.errstate(all="ignore"):
        coeffs = _tq_table([KINDS.index(kind)], u[0], p, sc)
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
# probe candidates, the points _sample_points(_PROBE_POOL), at each of which
# solve tabulates the TQ coefficients; no fit batch has this count, since
# every fit width 4L + 8 is a multiple of 4
_PROBE_POOL = 18


def _probe_points(U: np.ndarray, p: ModelParams) -> np.ndarray:
    """Indices into the probe candidates of the first _PROBE_COUNT that keep
    clear of the poles of each root set, row s of U, shape (len(U),
    _PROBE_COUNT), -1 where a row has too few.  Pads block no candidate."""
    q = p.base.q
    u = _sample_points(_PROBE_POOL)
    w, v = u[:, None], U[:, None, :]
    clear = ((np.abs(_b(w / v)) > 1e-3) & (np.abs(_b(q * w * v)) > 1e-3)) | ~np.isfinite(v)
    free = clear.all(axis=2) & (
        np.abs([_b(u * u), _b(q * u * u), _b(q * q * u * u)]) > 1e-3).all(axis=0)
    first = (~free).argsort(axis=1, kind="stable")[:, :_PROBE_COUNT]
    return np.where(np.arange(_PROBE_COUNT) < free.sum(axis=1)[:, None], first, -1)


def eigenvalue_from_roots(sys: BetheSystem, roots) -> complex:
    """Eigenvalue reconstructed from an on-shell root set.

    Homogeneous kinds evaluate the probe functional at three points and
    insist on probe-independence within ``_PROBE_TOL``; they refuse roots
    that leave fewer than three probe candidates clear of their poles.
    Inhomogeneous kinds use the closed-form symmetric function of the roots.
    """
    roots = np.asarray(roots, dtype=complex)
    if roots.shape != (sys.level,) or not np.isfinite(roots).all():
        raise ValueError(f"eigenvalue_from_roots: expected {sys.level} finite roots")
    p = sys.params
    with np.errstate(all="ignore"):
        if sys.kind in HOM_KINDS and (_probe_points(roots[None, :], p) < 0).any():
            raise ValueError(
                f"eigenvalue_from_roots: fewer than {_PROBE_COUNT} of the {_PROBE_POOL} "
                "probe candidates keep clear of the poles of these roots"
            )
        k = np.array([KINDS.index(sys.kind)])
        probe = _tq_table(k, _sample_points(_PROBE_POOL), p, structure_constants(p))
        (lam,), (spread,) = _eigenvalues(k, roots[None, :], p, probe)
    if not spread <= _PROBE_TOL:
        raise ValueError(
            "eigenvalue_from_roots: probe dependence above tolerance "
            f"(relative spread {spread:.3e}); roots are off shell"
        )
    return complex(lam)


def _probe_values(U: np.ndarray, p: ModelParams, probe: np.ndarray) -> np.ndarray:
    """The TQ functional of each homogeneous root set, row s of U, at its
    _PROBE_COUNT probe points (those of _probe_points), shape
    (len(U), _PROBE_COUNT), NaN where no probe points can be placed.  probe
    holds each row's (A, D, C, T) at the probe candidates, shape
    (4, len(U), _PROBE_POOL)."""
    at = _probe_points(U, p)
    coeffs = probe[:, np.arange(len(U))[:, None], at]
    vals = _tq_values(coeffs, _sample_points(_PROBE_POOL)[at], U, p.base.q)
    return np.where((at >= 0).all(axis=1)[:, None], vals, np.nan)


def _eigenvalues(k: np.ndarray, U: np.ndarray, p: ModelParams, probe: np.ndarray):
    """Eigenvalue reconstructed from each root set, row s of U of the kind
    KINDS[k[s]], and the relative spread of its probe-point values: the
    first value for a homogeneous kind, the closed form (spread 0) for an
    inhomogeneous one.  probe is as in _probe_values."""
    lam = np.empty(len(U), dtype=complex)
    spread = np.zeros(len(U))
    inh = _FAMILY[k] > 0
    lam[inh] = _closed_form_eigenvalues(k[inh], U[inh], p)
    hom = (~inh).nonzero()[0]
    vals = _probe_values(U[hom], p, probe[:, hom])
    lam[hom] = vals[:, 0]
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


@functools.cache
def _sample_points(count: int) -> np.ndarray:
    """Golden-angle spiral with |u| log-spaced over [0.3, 4]; built once per
    count, and read-only."""
    k = np.arange(count)
    radius = 0.3 * (4.0 / 0.3) ** ((k + 0.5) / count)
    points = radius * np.exp(1j * _GOLDEN_ANGLE * k)
    points.flags.writeable = False
    return points


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
    eps = _EPS[k].reshape(shape)
    fam = _FAMILY[k].reshape(shape)
    hom, dual = fam == 0, fam == 2
    b2 = _b(u * u)
    l1 = _lam1(eps, u, p) / (b2 * _b(q * u * u))
    d2 = b2 * _b(q * q * u * u)
    l2 = _lam2(eps, u, p) / d2
    # homogeneous: u**eps on both terms; direct: u**(3*eps) and
    # q**(-2*eps)*u**(-eps); dual: u**(-eps) and q**(2*eps)*u**(3*eps)
    u1, um1, u3, um3 = u**1, u**-1, u**3, u**-3
    u_eps = _sel(eps, u1, um1)
    A = np.where(hom, u_eps, np.where(dual, _sel(eps, um1, u1), _sel(eps, u3, um3))) * l1
    D = np.where(hom, u_eps, np.where(dual, _sel(eps, q**2 * u3, q**-2 * um3),
                                  _sel(eps, q**-2 * um1, q**2 * u1))) * l2
    C = np.where(hom, 0.0, -_nu(p)[k].reshape(shape) * _inh_product(u, p))
    tail = np.where(_THETA[k].reshape(shape),
                    q * u * _etabar(u, sc, q) + _etabar(1.0 / u, sc, q) / (q * u),
                    q * u * _etabar(1.0 / u, sc, q) + _etabar(u, sc, q) / (q * u))
    return np.array([A, D, C, tail / d2])


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

    The sample points and powers of W are shared by all rows, and each row
    reads its kind's TQ coefficients; the least-squares problems of all
    eigenvalues, with rows and columns scaled, are solved by one stacked
    SVD.  Each W root is inverted to one of its four u representatives
    (u, -u, 1/(q*u), -1/(q*u)), all of which solve the Bethe equations.
    A row whose scaled matrix or fitted coefficients are not finite gets
    NaN roots; the other rows do not depend on it.
    """
    S = len(lams)
    q = p.base.q
    u = _sample_points(coeffs.shape[-1])
    powers = np.arange(L + 1)
    Wk = _w(u, q)[:, None] ** powers
    Wm, Wp = _w(u / q, q)[:, None] ** powers, _w(q * u, q)[:, None] ** powers
    A, D, C, T = coeffs[:, k]
    basis = A[:, :, None] * Wm + D[:, :, None] * Wp + (T - lams[:, None])[:, :, None] * Wk
    M, rhs = basis[:, :, :L], -(basis[:, :, L] + C)
    row = np.maximum(np.abs(M).max(axis=2), np.abs(rhs))
    ok = np.isfinite(row) & (row > 0)  # zeroes the rows of a sample point on a pole
    M = np.where(ok[:, :, None], M / row[:, :, None], 0.0)
    rhs = np.where(ok, rhs / row, 0.0)
    col = np.linalg.norm(M, axis=1)
    M = M / col[:, None, :]
    fit = np.isfinite(M).all(axis=(1, 2))  # rhs is finite: |rhs| <= row
    coef = np.empty((S, L), dtype=complex)
    coef.fill(np.nan)
    if fit.any():
        coef[fit] = _lstsq(M[fit], rhs[fit]) / col[fit]
    fit &= np.isfinite(coef).all(axis=1)
    companion = np.zeros((S, L, L), dtype=complex)
    companion[:, 0, :] = -coef[:, ::-1]
    companion[:, np.arange(1, L), np.arange(L - 1)] = 1.0
    w = np.empty((S, L), dtype=complex)
    w.fill(np.nan)
    if fit.any():
        w[fit] = np.linalg.eigvals(companion[fit])
    # y + 1/y = w with y = q*u**2; take the root with |y| >= 1, free of
    # cancellation (the other root is 1/y, the representative 1/(q*u))
    r = np.sqrt(0.25 * w * w - 1.0)
    y = np.where(np.abs(0.5 * w + r) >= np.abs(0.5 * w - r), 0.5 * w + r, 0.5 * w - r)
    return np.sqrt(y / q)


def _jacobian(k: np.ndarray, U: np.ndarray, p: ModelParams) -> np.ndarray:
    S, L = U.shape
    J = np.empty((S, L, L), dtype=complex)
    for j in range(L):
        h = _FD_STEP * np.maximum(1.0, np.abs(U[:, j]))
        Up = U.copy()
        Um = U.copy()
        Up[:, j] += h
        Um[:, j] -= h
        Ep, _ = _residual_batch(k, Up, p)
        Em, _ = _residual_batch(k, Um, p)
        J[:, :, j] = (Ep - Em) / (2.0 * h[:, None])
    return J


def _newton_step(J: np.ndarray, E: np.ndarray) -> np.ndarray:
    """Minimum-norm Newton step of each row, zero where J or E is not finite."""
    ok = np.isfinite(J).all(axis=(1, 2)) & np.isfinite(E).all(axis=1)
    delta = np.zeros_like(E)
    if ok.any():
        delta[ok] = _lstsq(J[ok], -E[ok])
    return delta


def _canonical_roots(U: np.ndarray) -> np.ndarray:
    """Each row with every root moved to the right half plane, then sorted."""
    flip = (U.real < 0) | ((U.real == 0) & (U.imag < 0))
    V = np.where(flip, -U, U)
    return V[np.arange(len(V))[:, None], np.lexsort((V.imag, V.real))]


def _scaled_residual(k: np.ndarray, U: np.ndarray, p: ModelParams) -> np.ndarray:
    """Largest |E|/scale over the equations of each row of U, row s of the
    kind KINDS[k[s]]; inf where that ratio is not finite."""
    E, scale = _residual_batch(k, U, p)
    r = np.abs(E) / scale
    return np.where(np.isfinite(r), r, np.inf).max(axis=1, initial=0.0)


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
    # not np.unique: on numpy 2.4 a call for the values alone reads np.ma, so
    # the first such call imports numpy.ma
    for L in sorted(set(count[res > tol].tolist())):
        live = (count == L) & (res > tol)
        for _ in range(_POLISH_STEPS):
            rows = live.nonzero()[0]
            if rows.size == 0:
                break
            V = U[rows, :L]
            E, _ = _residual_batch(k[rows], V, p)
            trial = V + _newton_step(_jacobian(k[rows], V, p), E)
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


def _solutions(systems: list[BetheSystem], k: np.ndarray, U: np.ndarray, res: np.ndarray,
               p: ModelParams, sp: Spectrum, cfg: SolverConfig,
               probe: np.ndarray) -> list[BetheSolution]:
    """Admissibility and eigenvalue match of each on-shell root set, one per
    row of U; row s solves systems[s], whose kind index is k[s], and a row of
    fewer roots than U has columns ends in pads.  probe is the TQ table of
    every kind at the probe candidates; the eigenvalues of all rows are
    reconstructed at once and matched in one broadcast.  Only homogeneous
    rows may be padded: the closed form's sum is not exact under pads.  An
    inadmissible row's match error is inf, and it matches no index."""
    S, L = U.shape
    pad = ~np.isfinite(U)
    count = L - pad.sum(axis=1)
    sym = np.where(pad, np.inf, symmetrize_roots(U, p))
    sym = sym[np.arange(S)[:, None], np.lexsort((sym.imag, sym.real))]
    skip = _eye(L, bool) | pad[:, :, None] | pad[:, None, :]
    gaps = np.where(skip, np.inf, np.abs(sym[:, :, None] - sym[:, None, :]))
    vacuum = np.where(pad, np.inf, np.abs(_b(U**2)))
    size = np.where(pad, 0.0, np.abs(sym)).max(axis=1, initial=0.0)
    adm = (
        (np.abs(U).min(axis=1, initial=np.inf) > cfg.dedup_tol)
        & (vacuum.min(axis=1, initial=np.inf) > cfg.dedup_tol)
        & (gaps.min(axis=(1, 2), initial=np.inf) > cfg.dedup_tol * np.maximum(1.0, size))
    )
    rows = adm.nonzero()[0]
    lam = np.empty(S, dtype=complex)
    lam.fill(np.nan)
    lam[rows], spread = _eigenvalues(k[rows], U[rows], p, probe[:, k[rows]])
    adm[rows] = spread <= _PROBE_TOL
    targets = np.where(_THETA[k][:, None], sp.theta, sp.theta_star)
    d = np.abs(targets - lam[:, None]) / np.maximum(1.0, np.abs(targets))
    idx = d.argmin(1)
    err = np.where(adm, d[np.arange(S), idx], np.inf)
    hit = adm & (err <= cfg.match_tol)
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
    points of every batch and the probe candidates.  Only root sets whose
    Bethe residual is within ``cfg.tol`` are returned, by level, then in
    system and target order, each with its system, its admissibility and
    the spectrum entry its roots reproduce through ``eigenvalue_from_roots``.
    The result is deterministic, and a root set does not depend on the
    other systems solved with it.
    """
    systems = [sys] if isinstance(sys, BetheSystem) else list(sys)
    if not systems:
        return []
    p = systems[0].params
    if any(s.params != p for s in systems):
        raise ValueError("solve: the systems must share one parameter set")
    sp, sc = spectrum(p), structure_constants(p)
    levels = sorted({s.level for s in systems})
    widths = [4 * L + 8 if L else 0 for L in levels]
    points = [_sample_points(w) for w in widths] + [_sample_points(_PROBE_POOL)]
    rows, lams = [], []
    for L in levels:
        for s in systems:
            if s.level == L:
                targets = getattr(sp, TARGET_SPECTRUM[s.kind])
                lams.append(targets[[L]] if s.kind in HOM_KINDS else targets)
                rows += [s] * len(lams[-1])
    k = np.array([KINDS.index(s.kind) for s in rows])
    lams, count = np.concatenate(lams), np.array([s.level for s in rows])
    U = np.empty((len(rows), levels[-1]), dtype=complex)
    U.fill(np.inf)
    with np.errstate(all="ignore"):
        table = _tq_table(range(len(KINDS)), np.concatenate(points), p, sc)
        for L, start, width in zip(levels, itertools.accumulate(widths, initial=0), widths):
            if L:
                at = count == L
                U[at, :L] = _tq_roots(k[at], lams[at], L, p, table[:, :, start:start + width])
        fit = (np.isfinite(U).sum(axis=1) == count).nonzero()[0]
        U, res = _polish(k[fit], U[fit], p, cfg.tol)
        on_shell = res <= cfg.tol
        return _solutions([rows[i] for i in fit[on_shell]], k[fit[on_shell]], U[on_shell],
                          res[on_shell], p, sp, cfg, table[:, :, -_PROBE_POOL:])


def coverage(kind: str, p: ModelParams,
             cfg: SolverConfig = SolverConfig()) -> list[BetheSolution | None]:
    """Spectrum coverage sweep for one system kind; see ``sweep``."""
    return sweep(p, cfg, (kind,))[kind]


def sweep(p: ModelParams, cfg: SolverConfig = SolverConfig(),
          kinds: tuple[str, ...] = KINDS) -> dict[str, list[BetheSolution | None]]:
    """Spectrum coverage of each kind in ``kinds``, from one ``solve`` call.

    Homogeneous kinds solve every level and ask the level-L solution to
    reproduce the L-th eigenvalue; inhomogeneous kinds solve once at full
    size and ask the solution set to cover every index.  Returns, per kind
    in ``kinds`` order, one entry per spectrum index: the admissible root
    set that reproduces it with the lowest match error (the first in solve
    order on a tie), or None for a miss.  Each kind's list equals the
    kind's sweep alone.  Misses are reported, not raised.
    """
    n = p.two_s
    sols = solve([BetheSystem(kind, L, p) for kind in kinds
                  for L in (range(n + 1) if kind in HOM_KINDS else (n,))], cfg)
    best = {kind: [None] * p.dim for kind in kinds}
    for s in sols:
        kind, at = s.system.kind, s.matched_index
        if (at is not None and (kind in INHOM_KINDS or s.system.level == at)
                and (best[kind][at] is None or s.match_error < best[kind][at].match_error)):
            best[kind][at] = s
    return best
