"""Bethe system tests.

Independent oracles used here:
  * the level-1 residual factors into a difference of two explicit products
    of linear-in-u factors; its roots in x = u**2 come from a companion
    matrix (np.roots), giving root sets the TQ solver must reproduce
  * level-0 systems have an empty root set whose reconstructed eigenvalue
    must equal the first entry of the matching closed-form spectrum, for
    every probe point
  * the generator pair's symmetries (twist inversion, exchange of the two
    generators, q inversion) map the six independently coded kinds onto one
    another, off shell as well as on
  * full coverage sweeps check every root set against the Bethe residual
    and match its reconstructed eigenvalue against the closed-form
    spectrum; the solver takes the target entry as input, but neither check
    uses the solve, and a fit at a wrong entry gives roots off shell
"""

import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from qracah.model import spectrum, structure_constants
from qracah.qnum import QBase
from qracah import bethe
from qracah.bethe import (
    BetheSystem,
    PoleError,
    SolverConfig,
    coverage,
    dual_eigenvalue_functional,
    eigenvalue_from_roots,
    hom_eigenvalue_functional,
    residual,
    solve,
    symmetrize_roots,
)

from conftest import draw_many, draw_params, fuzz_params


def _bf(x):
    return x - 1.0 / x


# the pair couplings f and h, each written out alone: the reference that
# ``_root_products``, which forms each shared factor once, is held to
_b = bethe._b


def _f(u, v, q):
    return _b(q * v / u) * _b(u * v) / (_b(v / u) * _b(q * u * v))


def _h(u, v, q):
    return _b(q * q * u * v) * _b(q * u / v) / (_b(q * u * v) * _b(u / v))


def _rand_point(rng, lo=0.55, hi=1.8):
    r = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    a = float(rng.uniform(0, 2 * np.pi))
    return complex(r * np.cos(a), r * np.sin(a))


# ---------------------------------------------------------------------------
# vacuum pair (the kernels _lam1, _lam2)


def test_lambda1_zero_at_twist_locus():
    # first factor of the eps branch vanishes at u**2 = zeta**2 * q**(-two_s-1)
    rng = np.random.default_rng(0)
    p = draw_params(2, rng)
    u0 = p.zeta * complex(p.base.q) ** (-(p.two_s + 1) / 2.0)
    for eps in (-1, 1):
        l1 = bethe._lam1(eps, u0, p)
        assert abs(l1) < 1e-10 * max(1.0, abs(p.b), abs(p.c_star))


def test_lambda2_zero_at_unit_points():
    rng = np.random.default_rng(1)
    p = draw_params(1, rng)
    for u in (1.0 + 0j, 1j):
        for eps in (-1, 1):
            l2 = bethe._lam2(eps, u, p)
            assert abs(l2) < 1e-12


def test_lambda_parity_odd():
    rng = np.random.default_rng(2)
    p = draw_params(2, rng)
    for _ in range(5):
        u = _rand_point(rng)
        for eps in (-1, 1):
            a1, a2 = bethe._lam1(eps, u, p), bethe._lam2(eps, u, p)
            b1, b2 = bethe._lam1(eps, -u, p), bethe._lam2(eps, -u, p)
            assert abs(a1 + b1) < 1e-12 * max(1, abs(a1))
            assert abs(a2 + b2) < 1e-12 * max(1, abs(a2))


# ---------------------------------------------------------------------------
# couplings (the kernels _f, _h)


def test_exchange_fh_even_in_each_argument():
    rng = np.random.default_rng(4)
    p = draw_params(1, rng)
    for _ in range(5):
        u, v = _rand_point(rng), _rand_point(rng)
        f0, h0 = _f(u, v, p.base.q), _h(u, v, p.base.q)
        for uu, vv in ((-u, v), (u, -v), (-u, -v)):
            f1, h1 = _f(uu, vv, p.base.q), _h(uu, vv, p.base.q)
            assert abs(f1 - f0) < 1e-12 * max(1, abs(f0))
            assert abs(h1 - h0) < 1e-12 * max(1, abs(h0))


def test_exchange_fh_value_against_direct_product():
    # independent transcription through the building block b(x) = x - 1/x
    rng = np.random.default_rng(6)
    p = draw_params(2, rng)
    q = p.base.q
    u, v = _rand_point(rng), _rand_point(rng)
    f, h = _f(u, v, q), _h(u, v, q)
    f_ref = _bf(q * v / u) * _bf(u * v) / (_bf(v / u) * _bf(q * u * v))
    h_ref = _bf(q * q * u * v) * _bf(q * u / v) / (_bf(q * u * v) * _bf(u / v))
    assert abs(f - f_ref) < 1e-14 * max(1, abs(f_ref))
    assert abs(h - h_ref) < 1e-14 * max(1, abs(h_ref))


@pytest.mark.parametrize("L", [1, 2, 5])
def test_pair_products_match_scalar_exchange_loop(L):
    # the batched per-root products over the other roots of a row against a
    # plain loop over the pair couplings, several rows at once
    rng = np.random.default_rng(100 + L)
    p = draw_params(2, rng)
    q = p.base.q
    U = np.array([[_rand_point(rng) for _ in range(L)] for _ in range(4)])
    with np.errstate(all="ignore"):
        F, H, den = bethe._root_products(U, U, q, True)
    assert F.shape == H.shape == den.shape == U.shape
    for s, row in enumerate(U):
        for i, u in enumerate(row):
            f_ref = h_ref = den_ref = 1.0 + 0j
            for j, v in enumerate(row):
                if j != i:
                    f_ref *= _f(u, v, q)
                    h_ref *= _h(u, v, q)
                    den_ref *= _bf(u / v) * _bf(q * u * v)
            for got, want in ((F[s, i], f_ref), (H[s, i], h_ref), (den[s, i], den_ref)):
                assert abs(got - want) <= 1e-13 * abs(want)


def test_etabar_parity_and_coefficients():
    rng = np.random.default_rng(8)
    p = draw_params(2, rng)
    sc = structure_constants(p)
    q = p.base.q
    u = _rand_point(rng)
    v0 = bethe._etabar(u, sc, q)
    assert abs(v0 + bethe._etabar(-u, sc, q)) < 1e-12 * max(1, abs(v0))
    # two evaluations recover the two structure constants
    v1, v2 = v0, bethe._etabar(2 * u, sc, q)
    pref = (q + 1 / q) / sc.rho
    # v = pref*(eta*u + eta_star/u); solve the 2x2 system
    A = np.array([[u, 1 / u], [2 * u, 1 / (2 * u)]], dtype=complex) * pref
    sol = np.linalg.solve(A, np.array([v1, v2]))
    assert abs(sol[0] - sc.eta) < 1e-9 * max(1, abs(sc.eta))
    assert abs(sol[1] - sc.eta_star) < 1e-9 * max(1, abs(sc.eta_star))


# ---------------------------------------------------------------------------
# residual structure


def _level1_linear_factors(p):
    """Coefficient pairs (A, B) of the linear factors A*u + B/u whose product
    difference gives the level-1 minus-branch residual."""
    q, n, z = p.base.q, p.two_s, p.zeta
    first = [
        (q ** (n + 1) / z, -z),
        (q ** (n + 1) * z, -1 / z),
        (p.c_star * q ** (-n), p.b * q**n),
        (p.c / p.c_star, 1 + 0j),
    ]
    second = [
        (-1 / z, q ** (n - 1) * z),
        (-z, q ** (n - 1) / z),
        (q ** (n + 2) * p.b, p.c_star * q ** (-n)),
        (q**2, p.c / p.c_star),
    ]
    return first, second


def test_level1_minus_residual_factorization():
    rng = np.random.default_rng(9)
    p = draw_params(2, rng)
    q, n = p.base.q, p.two_s
    first, second = _level1_linear_factors(p)
    sysm = BetheSystem("hom_minus", 1, p)
    for _ in range(6):
        u = _rand_point(rng)
        p1 = np.prod([A * u + B / u for A, B in first])
        p2 = np.prod([A * u + B / u for A, B in second])
        lhs = residual(sysm, [u], 0)
        rhs = q ** (-n - 1) * u * (_bf(u * u) / _bf(q * u * u)) * (p2 - p1)
        assert abs(lhs - rhs) < 1e-12 * max(1, abs(rhs))


def test_level1_companion_matrix_oracle():
    # roots of the level-1 system from an eigenvalue problem: in x = u**2 the
    # cleared equation is a quartic whose companion matrix np.roots solves.
    # the quartic always carries a spurious pair x = +-1/q sitting on the
    # residual's own pole, and its two remaining roots satisfy x1*x2 = q**-2,
    # i.e. they are the two representatives u**2 and 1/(q*u)**2 of a single
    # root class of the symmetrized variable.  The solver must find exactly
    # that class and match it to the level-1 eigenvalue.
    rng = np.random.default_rng(10)
    p = draw_params(2, rng)
    q = p.base.q
    first, second = _level1_linear_factors(p)
    poly1 = np.array([1.0 + 0j])
    poly2 = np.array([1.0 + 0j])
    for A, B in first:
        poly1 = np.polymul(poly1, np.array([A, B]))
    for A, B in second:
        poly2 = np.polymul(poly2, np.array([A, B]))
    xs = np.roots(poly2 - poly1)
    genuine = [x for x in xs if min(abs(q * x - 1), abs(q * x + 1)) > 1e-6]
    assert len(genuine) == 2
    assert abs(q * q * genuine[0] * genuine[1] - 1) < 1e-10

    oracle_sym = [complex((q * x + 1 / (q * x)) / (q + 1 / q)) for x in genuine]
    # both representatives collapse to one symmetrized value
    assert abs(oracle_sym[0] - oracle_sym[1]) < 1e-10 * max(1.0, abs(oracle_sym[0]))

    sysm = BetheSystem("hom_minus", 1, p)
    sols = solve(sysm, SolverConfig())
    assert len(sols) == 1
    s = sols[0]
    assert abs(complex(s.symmetrized[0]) - oracle_sym[0]) < 1e-8 * max(1.0, abs(oracle_sym[0]))
    assert s.admissible
    assert s.matched_index == 1


def test_residual_parity():
    # homogeneous equations are odd under u_i -> -u_i, inhomogeneous ones
    # even; all are even under sign flips of the spectator roots
    rng = np.random.default_rng(11)
    p = draw_params(2, rng)
    for kind, sign in (("hom_minus", -1), ("hom_plus", -1),
                       ("inhom_plus", 1), ("inhom_minus", 1),
                       ("dual_inhom_plus", 1), ("dual_inhom_minus", 1)):
        lev = 2
        sysk = BetheSystem(kind, lev, p)
        for _ in range(4):
            roots = np.array([_rand_point(rng), _rand_point(rng)])
            e0 = residual(sysk, roots, 0)
            flipped = roots.copy()
            flipped[0] = -flipped[0]
            e1 = residual(sysk, flipped, 0)
            assert abs(e1 - sign * e0) < 1e-10 * max(1, abs(e0))
            spect = roots.copy()
            spect[1] = -spect[1]
            e2 = residual(sysk, spect, 0)
            assert abs(e2 - e0) < 1e-10 * max(1, abs(e0))


def test_residual_validation_and_poles():
    rng = np.random.default_rng(12)
    p = draw_params(1, rng)
    sysk = BetheSystem("inhom_plus", 1, p)
    with pytest.raises(ValueError):
        residual(sysk, [1.1 + 0j, 0.9 + 0j], 0)
    with pytest.raises(ValueError):
        residual(sysk, [1.1 + 0j], 1)
    sys2 = BetheSystem("hom_minus", 2, p) if p.two_s >= 2 else None
    u = _rand_point(rng)
    psys = BetheSystem("hom_minus", 1, p)
    with pytest.raises(PoleError):
        residual(psys, [complex(1.0 / np.sqrt(complex(p.base.q)))], 0)
    with pytest.raises(PoleError, match="root too close to 0"):
        residual(psys, [0j], 0)
    # u = 1 zeroes b(u^2), which an inhomogeneous equation divides by
    with pytest.raises(PoleError, match="inhomogeneity pole at root"):
        residual(sysk, [1 + 0j], 0)
    # coinciding roots, and a pair on b(q*u*v) = 0, from either equation
    p2 = draw_params(2, rng)
    v = 1.1 + 0.3j
    for roots in ([v, v], [v, 1.0 / (p2.base.q * v)]):
        for i in (0, 1):
            with pytest.raises(PoleError, match="coupling pole"):
                residual(BetheSystem("hom_minus", 2, p2), roots, i)


def test_bethe_system_level_validation():
    rng = np.random.default_rng(13)
    p = draw_params(2, rng)
    with pytest.raises(ValueError):
        BetheSystem("hom_minus", 3, p)
    with pytest.raises(ValueError):
        BetheSystem("inhom_plus", 1, p)
    with pytest.raises(ValueError):
        BetheSystem("no_such_kind", 2, p)
    with pytest.raises(ValueError, match="share one parameter set"):
        solve([BetheSystem("hom_minus", 1, p), BetheSystem("hom_minus", 1, draw_params(2, rng))])


def test_symmetrize_roots_sign_invariant():
    rng = np.random.default_rng(14)
    p = draw_params(1, rng)
    roots = np.array([_rand_point(rng), _rand_point(rng)])
    s0 = symmetrize_roots(roots, p)
    s1 = symmetrize_roots(-roots, p)
    assert np.allclose(s0, s1, rtol=0, atol=1e-14 * float(np.max(np.abs(s0))))


# ---------------------------------------------------------------------------
# eigenvalue functionals


def test_level0_functional_is_probe_independent_constant():
    rng = np.random.default_rng(15)
    for two_s in (1, 2, 3):
        p = draw_params(two_s, rng)
        sp = spectrum(p)
        sc = structure_constants(p)
        for _ in range(4):
            u = _rand_point(rng)
            lm = hom_eigenvalue_functional(-1, u, [], p, sc)
            lp = hom_eigenvalue_functional(1, u, [], p, sc)
            assert abs(lm - sp.theta[0]) < 1e-10 * max(1, abs(sp.theta[0]))
            assert abs(lp - sp.theta_star[0]) < 1e-10 * max(1, abs(sp.theta_star[0]))


def test_level0_solve_returns_empty_matched_solution():
    rng = np.random.default_rng(16)
    p = draw_params(2, rng)
    for kind, seq in (("hom_minus", "theta"), ("hom_plus", "theta_star")):
        sols = solve(BetheSystem(kind, 0, p), SolverConfig())
        assert len(sols) == 1
        s = sols[0]
        assert s.roots.size == 0
        assert s.admissible
        assert s.matched_index == 0
        assert s.match_error < 1e-10
    # a returned set with a matched index is admissible, which sweep relies
    # on, whatever match_tol is; at fuzz E = 20, draw 0 (two_s 1) both
    # hom_minus sets are not
    p = fuzz_params()[40]
    for cfg in (SolverConfig(), SolverConfig(match_tol=np.inf)):
        sols = solve([BetheSystem(kind, L, p) for kind in bethe.HOM_KINDS for L in range(p.dim)],
                     cfg)
        assert [s.admissible for s in sols if s.system.kind == "hom_minus"] == [False, False]
        assert all(s.admissible for s in sols if s.matched_index is not None)
    # no system gives no solution, and a sweep of no kind no entry
    assert solve([]) == []
    assert bethe.sweep(p, SolverConfig(), ()) == {}


def test_off_shell_roots_rejected_by_probe_dependence():
    rng = np.random.default_rng(17)
    p = draw_params(2, rng)
    sysk = BetheSystem("hom_minus", 2, p)
    roots = np.array([0.9 + 0.3j, 1.2 - 0.4j])
    with pytest.raises(ValueError, match="off shell"):
        eigenvalue_from_roots(sysk, roots)
    # roots on all but two of the probe candidates leave too few to probe at
    pool = bethe._PROBE_POOL
    blocking = bethe._sample_points(pool)[:pool - 2]
    with pytest.raises(ValueError, match=f"fewer than 3 of the {pool} probe candidates"):
        eigenvalue_from_roots(BetheSystem("hom_plus", pool - 2, draw_params(pool - 2, rng)),
                              blocking)


def test_closed_form_matches_solver_spectrum_two_s_1():
    rng = np.random.default_rng(18)
    p = draw_params(1, rng)
    sp = spectrum(p)
    cfg = SolverConfig()
    for kind in bethe.INHOM_KINDS:
        target = sp.theta if bethe.TARGET_SPECTRUM[kind] == "theta" else sp.theta_star
        sols = solve(BetheSystem(kind, 1, p), cfg)
        hit = {s.matched_index for s in sols if s.admissible and s.matched_index is not None}
        assert hit == {0, 1}, f"{kind}: covered {sorted(hit)}"
        for s in sols:
            if s.matched_index is not None:
                lam = eigenvalue_from_roots(BetheSystem(kind, 1, p), s.roots)
                ref = target[s.matched_index]
                assert abs(lam - ref) < 1e-8 * max(1, abs(ref))


def test_hom_coverage_two_s_2():
    rng = np.random.default_rng(19)
    p = draw_params(2, rng)
    cfg = SolverConfig()
    for kind in bethe.HOM_KINDS:
        found = coverage(kind, p, cfg)
        assert len(found) == 3
        assert all(s is not None for s in found), [s is not None for s in found]
        for index, s in enumerate(found):
            assert (s.system.kind, s.matched_index) == (kind, index)
            assert s.match_error < 1e-6
            if index > 0:
                assert s.roots.shape == (index,)
                assert s.residual_max < 1e-9
    assert list(bethe.sweep(p, cfg, bethe.HOM_KINDS[::-1])) == list(bethe.HOM_KINDS[::-1])


def test_inhom_coverage_two_s_2():
    rng = np.random.default_rng(20)
    p = draw_params(2, rng)
    cfg = SolverConfig()
    for kind in bethe.INHOM_KINDS:
        found = coverage(kind, p, cfg)
        assert len(found) == 3
        assert all(s is not None for s in found), [s is not None for s in found]
        for index, s in enumerate(found):
            assert (s.system.kind, s.matched_index) == (kind, index)
            assert s.roots.shape == (2,)
            assert s.residual_max < 1e-9
            assert s.match_error < 1e-6


def test_dual_functional_agrees_with_closed_form():
    rng = np.random.default_rng(21)
    p = draw_params(2, rng)
    sc = structure_constants(p)
    cfg = SolverConfig()
    sols = solve(BetheSystem("dual_inhom_plus", 2, p), cfg)
    matched = [s for s in sols if s.admissible and s.matched_index is not None]
    assert matched
    for s in matched:
        for u in (0.83 + 0.41j, 1.27 - 0.65j, 0.6 + 0.9j):
            lam = dual_eigenvalue_functional(u, s.roots, p, sc)
            ref = s.reconstructed_eigenvalue
            assert abs(lam - ref) < 1e-8 * max(1, abs(ref))


def test_hom_on_shell_probe_independence():
    rng = np.random.default_rng(22)
    p = draw_params(2, rng)
    sc = structure_constants(p)
    cfg = SolverConfig()
    sols = solve(BetheSystem("hom_minus", 2, p), cfg)
    s = next(x for x in sols if x.admissible and x.matched_index == 2)
    vals = []
    for _ in range(6):
        u = _rand_point(rng)
        if min(abs(_bf(x)) for x in (u * u, p.base.q * u * u, p.base.q**2 * u * u)) < 1e-2:
            continue
        if any(abs(_bf(u / v)) < 1e-2 or abs(_bf(p.base.q * u * v)) < 1e-2 for v in s.roots):
            continue
        vals.append(hom_eigenvalue_functional(-1, u, s.roots, p, sc))
    assert len(vals) >= 3
    spread = max(abs(a - b) for a in vals for b in vals)
    assert spread < 1e-8 * max(1, abs(vals[0]))


def _screened_probes(roots, p, rng):
    q = p.base.q
    out = []
    while len(out) < 3:
        u = _rand_point(rng, 0.6, 1.7)
        if min(abs(_bf(x)) for x in (u * u, q * u * u, q * q * u * u)) < 1e-2:
            continue
        if any(abs(_bf(u / v)) < 1e-2 or abs(_bf(q * u * v)) < 1e-2 for v in roots):
            continue
        out.append(u)
    return out


@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 6])
def test_every_kind_functional_matches_an_independent_eigenvalue(two_s):
    # each kind's TQ relation solved for its eigenvalue, on the solver's
    # matched roots, against the closed-form symmetric function of the roots
    # (inhomogeneous kinds) or the level's spectrum entry (homogeneous kinds)
    p, = draw_many(two_s, 1, 5100 + two_s)
    sp, sc = spectrum(p), structure_constants(p)
    rng = np.random.default_rng(5200 + two_s)
    for kind, found in bethe.sweep(p).items():
        for index, s in enumerate(found):
            assert s is not None, f"{kind}: index {index} not covered"
            roots = s.roots
            if kind in bethe.INHOM_KINDS:
                k = np.array([bethe.KINDS.index(kind)])
                ref = bethe._closed_form_eigenvalues(k, roots[None, :], p)[0]
            else:
                ref = getattr(sp, bethe.TARGET_SPECTRUM[kind])[index]
            for u in _screened_probes(roots, p, rng):
                lam = bethe._functional(kind, u, roots, p, sc)
                assert abs(lam - ref) <= 1e-8 * abs(ref), (kind, index, u)


def test_hom_functional_refuses_an_invalid_eps():
    p = draw_params(2, np.random.default_rng(3))
    for eps in (2, 0):
        with pytest.raises(ValueError, match="eps must be"):
            hom_eigenvalue_functional(eps, 1.1 + 0.3j, [], p)


# ---------------------------------------------------------------------------
# solver behaviour


def _tables(L, p, sc):
    # the TQ table of every kind at the fit's sample points for root count L
    # and at the probe candidates, as solve slices them
    kinds = range(len(bethe.KINDS))
    with np.errstate(all="ignore"):
        fit = bethe._tq_table(kinds, bethe._sample_points(4 * L + 8), p, sc)
        probe = bethe._tq_table(kinds, bethe._sample_points(bethe._PROBE_POOL), p, sc)
    return fit, probe


def test_solver_determinism_bitwise():
    rng = np.random.default_rng(23)
    p = draw_params(1, rng)
    cfg = SolverConfig()
    a = solve(BetheSystem("inhom_plus", 1, p), cfg)
    b = solve(BetheSystem("inhom_plus", 1, p), cfg)
    assert len(a) == len(b)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.roots, sb.roots)
        assert sa.residual_max == sb.residual_max
        assert sa.matched_index == sb.matched_index


def test_solutions_are_canonical_and_deduplicated():
    rng = np.random.default_rng(24)
    p = draw_params(1, rng)
    cfg = SolverConfig()
    sols = solve(BetheSystem("inhom_minus", 1, p), cfg)
    syms = [s.symmetrized for s in sols]
    for i, s in enumerate(sols):
        for u in s.roots:
            assert u.real > 0 or (u.real == 0 and u.imag >= 0)
        for j in range(i + 1, len(sols)):
            assert np.max(np.abs(syms[i] - syms[j])) > cfg.dedup_tol


@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 6])
def test_default_solver_covers_every_index_of_every_kind(two_s):
    misses = []
    for d, p in enumerate(draw_many(two_s, 3, seed=1000 + two_s)):
        for kind in bethe.KINDS:
            for index, s in enumerate(coverage(kind, p, SolverConfig())):
                if not (s is not None and s.residual_max < 1e-9 and s.match_error < 1e-6):
                    misses.append((d, kind, index))
    assert not misses


def test_tq_fit_at_a_wrong_eigenvalue_is_off_shell():
    # a homogeneous level-L system reproduces only entry L: fitting Q at any
    # other entry of the spectrum must not give Bethe roots.  Every entry of
    # both homogeneous kinds is fitted in one batch, one row of roots per
    # entry.
    rng = np.random.default_rng(26)
    p = draw_params(3, rng)
    sc = structure_constants(p)
    k = np.repeat([bethe.KINDS.index(kind) for kind in bethe.HOM_KINDS], p.dim)
    targets = np.concatenate([getattr(spectrum(p), bethe.TARGET_SPECTRUM[kind])
                              for kind in bethe.HOM_KINDS])
    for level in (1, 2, 3):
        with np.errstate(all="ignore"):  # the helpers leave the error state to their caller
            roots = bethe._tq_roots(k, targets, level, p, _tables(level, p, sc)[0])
            scaled = bethe._scaled_residual(k, roots, p)
        assert roots.shape == (2 * p.dim, level)
        for row, res in enumerate(scaled):
            kind, index = bethe.KINDS[k[row]], row % p.dim
            if index == level:
                assert res < 1e-9
            else:
                assert res > 1e-3, (kind, level, index, res)


def test_tq_fit_rows_do_not_depend_on_a_non_finite_row():
    # a NaN target makes its row's scaled fit non-finite: that row gets NaN
    # roots, and every finite row keeps its roots bit for bit
    p = draw_params(3, np.random.default_rng(26))
    sc = structure_constants(p)
    k = np.repeat([bethe.KINDS.index(kind) for kind in bethe.HOM_KINDS], p.dim)
    targets = np.concatenate([getattr(spectrum(p), bethe.TARGET_SPECTRUM[kind])
                              for kind in bethe.HOM_KINDS])
    for level in (1, 2, 3):
        fit = _tables(level, p, sc)[0]
        clean = bethe._tq_roots(k, targets, level, p, fit)
        for at in (0, 5, len(targets)):
            with np.errstate(all="ignore"):  # the helper leaves the error state to its caller
                roots = bethe._tq_roots(np.insert(k, at, k[at % len(k)]),
                                        np.insert(targets, at, np.nan), level, p, fit)
            assert np.isnan(roots[at]).all()
            assert np.delete(roots, at, axis=0).tobytes() == clean.tobytes()


def test_coverage_rejects_unknown_kind():
    rng = np.random.default_rng(25)
    p = draw_params(1, rng)
    with pytest.raises(ValueError):
        coverage("sideways", p, SolverConfig())


def _reference_probe_points(roots, p, count=3):
    # the candidate loop over the probe spiral written out point by point:
    # point j of the pool at the golden angle j*pi*(3 - sqrt(5)), with |u|
    # log-spaced over [0.3, 4]
    q = p.base.q
    pool = bethe._PROBE_POOL
    golden = math.pi * (3.0 - math.sqrt(5.0))
    seen, out = [], []
    for j in range(pool):
        r = 0.3 * (4.0 / 0.3) ** ((j + 0.5) / pool)
        u = complex(r * math.cos(golden * j), r * math.sin(golden * j))
        seen.append(u)
        ok = all(abs(_bf(x)) > 1e-3 for x in (u * u, q * u * u, q * q * u * u))
        ok = ok and all(abs(_bf(u / v)) > 1e-3 and abs(_bf(q * u * v)) > 1e-3 for v in roots)
        if ok and len(out) < count:
            out.append(u)
    return seen, out


def _probe_rows(p):
    # root sets whose probe points are the first candidates, follow two
    # rejections, are the last three (all others blocked), or are too few
    # (all but two blocked), with each reference's points
    seen, _ = _reference_probe_points([], p)
    q = p.base.q
    rows = {"none": np.empty(0, dtype=complex),
            "on_shell": solve(BetheSystem("hom_minus", 2, p))[0].roots,
            "two": np.array([seen[0], 1.0 / (q * seen[1])]),
            "last_three": np.array(seen[:-3]),
            "too_few": np.array(seen[:-2])}
    return seen, rows, {name: _reference_probe_points(r, p)[1] for name, r in rows.items()}


def test_probe_points_are_the_spiral_sequence():
    rng = np.random.default_rng(27)
    p = draw_params(2, rng)
    seen, rows, ref = _probe_rows(p)
    # to the last bit or two: numpy's array power may round the radius
    # differently from the C library's scalar pow
    cand = bethe._sample_points(bethe._PROBE_POOL)
    assert (np.abs(cand - np.array(seen)) <= 4e-16 * np.abs(cand)).all()
    assert ref["two"][0] not in seen[:2]
    assert ref["last_three"] == seen[-3:]
    assert len(ref["too_few"]) < bethe._PROBE_COUNT
    U = _padded(list(rows.values()), len(rows["too_few"]))
    with np.errstate(all="ignore"):  # the helper leaves the error state to its caller
        at = bethe._probe_points(U, p)
        alone = [bethe._probe_points(roots[None, :], p)[0] for roots in rows.values()]
    for row, mine, (name, roots) in zip(at, alone, rows.items()):
        points = row[row >= 0]
        assert np.all(row[len(points):] == -1), name
        assert [seen[i] for i in points] == ref[name], name
        # a row's points do not depend on the rest of the stack
        assert np.array_equal(mine, row), name


@pytest.mark.parametrize("two_s", [2, 4])
def test_batching_does_not_change_any_target(two_s):
    # solve's pipeline on a batch holding target i alone against row i of
    # the batch holding every target; with the fitted roots moved off shell
    # by a relative 1e-7, every row also goes through the Newton polish
    cfg = SolverConfig()

    def batch(system, index, shift):
        p = system.params
        sp, sc = spectrum(p), structure_constants(p)
        targets = getattr(sp, bethe.TARGET_SPECTRUM[system.kind])[index]
        k = np.full(len(targets), bethe.KINDS.index(system.kind))
        fit, probe = _tables(system.level, p, sc)
        with np.errstate(all="ignore"):  # the helpers leave the error state to their caller
            U = bethe._tq_roots(k, targets, system.level, p, fit)
            U = U * (1.0 + shift * np.exp(1j * np.arange(system.level)))
            U, res = bethe._polish(k, U, p, cfg.tol)
            return bethe._solutions([system] * len(U), k, U, res, p, sp, cfg, probe)

    for p in draw_many(two_s, 3, seed=2000 + two_s):
        for kind in bethe.INHOM_KINDS:
            system = BetheSystem(kind, two_s, p)
            for shift in (0.0, 1e-7):
                full = batch(system, np.arange(p.dim), shift)
                for i, row in enumerate(full):
                    (alone,) = batch(system, [i], shift)
                    assert alone.admissible == row.admissible
                    assert alone.matched_index == row.matched_index
                    scale = np.max(np.abs(row.symmetrized))
                    assert np.max(np.abs(alone.symmetrized - row.symmetrized)) <= 1e-10 * scale
                    assert (alone.residual_max <= cfg.tol) == (row.residual_max <= cfg.tol)


def _reference_residual(kind, U, p):
    # the per-kind branches that the batched residual replaces, with each
    # kind's literal powers
    q = p.base.q
    eps = 1 if kind in ("hom_plus", "inhom_plus", "dual_inhom_plus") else -1
    F, H, den = bethe._root_products(U, U, q, True)
    bU = _bf(U * U)
    ratio = bU / _bf(q * U * U)
    l1, l2 = bethe._lam1(eps, U, p), bethe._lam2(eps, U, p)
    if kind in bethe.HOM_KINDS:
        terms = [-ratio * F * l1, H * l2]
    else:
        nu = bethe._nu(p)[bethe.KINDS.index(kind)]
        inh = bethe._inh_product(U, p) / den
        if kind.startswith("inhom"):
            terms = [ratio * U**eps * F * l1, -((q * q * U**3) ** (-eps)) * H * l2,
                     nu * U ** (-2 * eps) * bU / _bf(q) * inh]
        else:
            terms = [ratio * U ** (-eps) * F * l1, -((q * q * U**3) ** eps) * H * l2,
                     nu * bU / _bf(q) * inh]
    E, scale = terms[0], np.abs(terms[0])
    for t in terms[1:]:
        E, scale = E + t, np.maximum(scale, np.abs(t))
    return E, scale


@pytest.mark.parametrize("two_s", range(1, 13))
def test_mixed_kind_residual_matches_each_kind_alone(two_s):
    # rows of all six kinds, shuffled into one batch, against each kind's
    # residual alone: equal bit for bit, and so is the term scale
    rng = np.random.default_rng(29)
    p = draw_params(two_s, rng)
    k = rng.permutation(np.repeat(np.arange(len(bethe.KINDS)), 5))
    U = np.exp(rng.uniform(np.log(0.6), np.log(1.6), (len(k), two_s))
               + 1j * rng.uniform(0, 2 * np.pi, (len(k), two_s)))
    with np.errstate(all="ignore"):  # the helpers leave the error state to their caller
        E, scale = bethe._residual_batch(k, U, p)
        for i, kind in enumerate(bethe.KINDS):
            E_ref, scale_ref = _reference_residual(kind, U[k == i], p)
            assert E[k == i].tobytes() == E_ref.tobytes(), kind
            assert scale[k == i].tobytes() == scale_ref.tobytes(), kind
        # the residual is the TQ relation's residue at each root: row s's
        # own coefficients from _tq_table at its roots, against its pair
        # products, with sign -1 for the homogeneous kinds and a power of the
        # root per kind
        q = p.base.q
        rows = np.arange(len(k))
        A, D, C, _ = bethe._tq_table(k, U, p, structure_constants(p))[:, rows, rows]
        F, H, den = bethe._root_products(U, U, q, True)
    sign = np.where(k < len(bethe.HOM_KINDS), -1.0, 1.0)[:, None]
    gamma = np.array([1, -1, -2, 2, 0, 0])[k][:, None]
    U2 = U * U
    residue = sign * _bf(U2) * U**gamma * (A * _bf(U2) * F - D * _bf(q * q * U2) * H
                                           - C / (_bf(q) * den))
    assert (np.abs(E - residue) <= 1e-12 * scale).all()


def _assert_kind_maps(i, U, u, p, j, V, v, image, factor, tol=1e-12):
    # kind i at roots U, points u and parameters p against kind j at V, v
    # and image: the same TQ table and closed form, and residuals and term
    # scales that differ by factor
    with np.errstate(all="ignore"):
        for a, b in zip(bethe._tq_table([i], u, p, structure_constants(p)),
                        bethe._tq_table([j], v, image, structure_constants(image))):
            assert np.abs(a - b).max() <= tol * np.abs(a).max(), (i, j)
        E, scale = bethe._residual_batch(np.full(len(U), i), U, p)
        E_img, scale_img = bethe._residual_batch(np.full(len(V), j), V, image)
    assert (np.abs(E - factor * E_img) <= tol * scale).all(), (i, j)
    assert (np.abs(scale - np.abs(factor) * scale_img) <= tol * scale).all(), (i, j)
    if i >= len(bethe.HOM_KINDS):
        lam = bethe._closed_form_eigenvalues(np.full(len(U), i), U, p)
        lam_img = bethe._closed_form_eigenvalues(np.full(len(V), j), V, image)
        assert np.abs(lam - lam_img).max() <= tol * np.abs(lam).max(), (i, j)


@pytest.mark.parametrize("two_s", range(1, 13))
def test_kinds_obey_the_generator_pair_symmetries(two_s):
    # The six kinds are coded independently; Leonard-pair duality
    # (Terwilliger, Linear Algebra Appl. 330 (2001)) maps them onto one
    # another, on and off shell:
    #   (a) zeta -> 1/zeta fixes every kind;
    #   (b) exchanging (b, c) with (b*, c*) maps each eps = -1 kind onto an
    #       eps = +1 twin, with residual factor u_i**2;
    #   (c) q -> 1/q with b <-> c, b* <-> c* and u -> 1/u fixes both
    #       homogeneous kinds and exchanges each direct inhomogeneous kind
    #       with its dual, with residual factor u_i**(-2*eps).
    rng = np.random.default_rng(6200 + two_s)
    for p in draw_many(two_s, 4, 6100 + two_s):
        U = np.exp(rng.uniform(np.log(0.6), np.log(1.6), (6, two_s))
                   + 1j * rng.uniform(0, 2 * np.pi, (6, two_s)))
        u = np.exp(rng.uniform(np.log(0.6), np.log(1.6), 20) + 1j * rng.uniform(0, 2 * np.pi, 20))
        twist = replace(p, zeta=1 / p.zeta)
        for i in range(len(bethe.KINDS)):
            _assert_kind_maps(i, U, u, p, i, U, u, twist, 1.0)
        dual = replace(p, b=p.b_star, c=p.c_star, b_star=p.b, c_star=p.c)
        for minus, plus in (("hom_minus", "hom_plus"), ("inhom_minus", "dual_inhom_plus"),
                            ("dual_inhom_minus", "inhom_plus")):
            _assert_kind_maps(bethe.KINDS.index(minus), U, u, p,
                              bethe.KINDS.index(plus), U, u, dual, U**2)
        inverse = replace(p, base=QBase(1 / p.base.q), b=p.c, c=p.b, b_star=p.c_star,
                          c_star=p.b_star)
        for i, j in enumerate((0, 1, 4, 5, 2, 3)):
            _assert_kind_maps(i, U, u, p, j, 1 / U, 1 / u, inverse, U ** (-2 * bethe._EPS[i]))


def test_newton_step_rows_are_independent():
    # a singular row and a non-finite row in the stack: every row gets the
    # step it gets alone, bit for bit; a finite row gets the minimum-norm
    # least-squares step, the non-finite one none
    rng = np.random.default_rng(28)
    J = rng.normal(size=(4, 3, 3)) + 1j * rng.normal(size=(4, 3, 3))
    J[2, :, 0] = 0.0
    E = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    E[3, 1] = np.nan
    delta = bethe._newton_step(J, E)
    for s in range(4):
        alone = bethe._newton_step(J[s:s + 1], E[s:s + 1])[0]
        assert delta[s].tobytes() == alone.tobytes()
    for s in range(3):
        ref = np.linalg.lstsq(J[s], -E[s], rcond=None)[0]
        assert np.max(np.abs(delta[s] - ref)) <= 1e-13 * np.max(np.abs(ref))
    assert not delta[3].any()


def test_coverage_floor_two_s_8():
    # near-tolerance indices sit at two_s 8; a faster solver must lose none
    hits = total = 0
    for p in draw_many(8, 12, seed=1008):
        for kind in bethe.KINDS:
            found = coverage(kind, p, SolverConfig())
            total += len(found)
            hits += sum(s is not None for s in found)
    assert total == 648
    assert hits >= 619


@pytest.mark.parametrize("two_s, seed", [(10, 3010), (12, 3012)])
def test_coverage_floor_past_two_s_8(two_s, seed):
    # counts measured at the first batched solver; a change may only raise them
    floor, total = {10: (309, 396), 12: (294, 468)}[two_s]
    hits = count = 0
    for p in draw_many(two_s, 6, seed=seed):
        for found in bethe.sweep(p, SolverConfig()).values():
            count += len(found)
            hits += sum(s is not None for s in found)
    assert count == total
    assert hits >= floor


def _bits(x):
    return None if x is None else np.asarray(x).tobytes()


def _assert_same_solution(a, b):
    assert (a is None) == (b is None)
    if a is not None:
        assert a.system == b.system
        for field in ("roots", "symmetrized", "residual_max", "reconstructed_eigenvalue",
                      "match_error"):
            assert _bits(getattr(a, field)) == _bits(getattr(b, field)), field
        assert (a.admissible, a.matched_index) == (b.admissible, b.matched_index)


@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 6, 8])
def test_sweep_rows_do_not_depend_on_their_batch(two_s):
    # one solve over every system of every kind against each system solved
    # alone, and the all-kinds sweep against each kind's coverage alone: every
    # root set and every index's verdict must agree bit for bit
    for p in draw_many(two_s, 2, seed=4000 + two_s):
        n = p.two_s
        systems = [BetheSystem(kind, L, p) for kind in bethe.KINDS
                   for L in (range(n + 1) if kind in bethe.HOM_KINDS else (n,))]
        together = solve(systems)
        for system in systems:
            alone = solve(system)
            mine = [s for s in together if s.system == system]
            assert len(mine) == len(alone), system
            for a, b in zip(mine, alone):
                _assert_same_solution(a, b)
        together = bethe.sweep(p)
        assert list(together) == list(bethe.KINDS)
        for kind, found in together.items():
            alone = coverage(kind, p)
            assert len(found) == len(alone) == p.dim
            for a, b in zip(found, alone):
                _assert_same_solution(a, b)


# ---------------------------------------------------------------------------
# one TQ table per solve, the stacked fit and the tabulated reconstruction


def _reference_inh_product(u, p):
    # the ladder loop that the product over a ladder axis replaces
    q = p.base.q
    x = complex(q) ** ((1.0 - p.two_s) / 2.0)
    out = np.ones_like(u)
    for _ in range(p.two_s + 1):
        out = out * _bf(x * p.zeta * u) * _bf(x * u / p.zeta)
        x *= q
    return out


@pytest.mark.parametrize("two_s", [1, 2, 4, 8, 12])
def test_inh_product_matches_the_ladder_loop(two_s):
    # bit for bit on sample points, probe candidates and stacks of root
    # sets, down to a single root set of one root
    rng = np.random.default_rng(7000 + two_s)
    p = draw_params(two_s, rng)
    for shape in ((1,), (1, 1), (2,), (24,), (16,), (3, 1), (5, two_s), (40, 12)):
        u = np.exp(rng.uniform(-1.2, 1.4, shape) + 1j * rng.uniform(0, 2 * np.pi, shape))
        assert bethe._inh_product(u, p).tobytes() == _reference_inh_product(u, p).tobytes()


def _reference_tq_coefficients(kind, u, p, sc):
    # the per-kind branches that the table replaces, with each kind's
    # literal powers
    q = p.base.q
    eps = 1 if kind in ("hom_plus", "inhom_plus", "dual_inhom_plus") else -1
    b2 = _bf(u * u)
    l1 = bethe._lam1(eps, u, p) / (b2 * _bf(q * u * u))
    d2 = b2 * _bf(q * q * u * u)
    l2 = bethe._lam2(eps, u, p) / d2
    if kind in bethe.HOM_KINDS:
        A, D = u**eps * l1, u**eps * l2
        C = np.zeros_like(u)
    else:
        if kind.startswith("inhom"):
            A, D = u ** (3 * eps) * l1, q ** (-2 * eps) * u ** (-eps) * l2
        else:
            A, D = u ** (-eps) * l1, q ** (2 * eps) * u ** (3 * eps) * l2
        C = -bethe._nu(p)[bethe.KINDS.index(kind)] * bethe._inh_product(u, p)
    if bethe.TARGET_SPECTRUM[kind] == "theta":
        tail = q * u * bethe._etabar(u, sc, q) + bethe._etabar(1.0 / u, sc, q) / (q * u)
    else:
        tail = q * u * bethe._etabar(1.0 / u, sc, q) + bethe._etabar(u, sc, q) / (q * u)
    return A, D, C, tail / d2


@pytest.mark.parametrize("two_s", [1, 4, 8, 12])
def test_tq_table_rows_are_each_kind_alone(two_s):
    # every row of the table over the union of a sweep's sample points and
    # the probe candidates against each kind evaluated alone, and every slice
    # of it against its points evaluated alone: equal bit for bit
    p, = draw_many(two_s, 1, 7100 + two_s)
    sc = structure_constants(p)
    points = [bethe._sample_points(4 * L + 8) for L in range(1, two_s + 1)]
    points.append(bethe._sample_points(bethe._PROBE_POOL))
    union = np.concatenate(points)
    kinds = range(len(bethe.KINDS))
    with np.errstate(all="ignore"):
        table = bethe._tq_table(kinds, union, p, sc)
        assert table.shape == (4, len(bethe.KINDS), len(union))
        for i, kind in enumerate(bethe.KINDS):
            for got, want in zip(table[:, i], _reference_tq_coefficients(kind, union, p, sc)):
                assert got.tobytes() == want.tobytes(), kind
        some = bethe._tq_table([5, 0, 3], union, p, sc)
        assert some.tobytes() == table[:, [5, 0, 3]].tobytes()
        start = 0
        for u in points:
            alone = bethe._tq_table(kinds, u, p, sc)
            assert table[:, :, start:start + len(u)].tobytes() == alone.tobytes()
            start += len(u)


def test_lstsq_is_numpys_minimum_norm_solution():
    # a stack with a rank-deficient member: each solution agrees with
    # np.linalg.lstsq(rcond=None), and equals its own solve alone bit for bit
    rng = np.random.default_rng(31)
    M = rng.normal(size=(5, 20, 4)) + 1j * rng.normal(size=(5, 20, 4))
    M[2, :, 3] = M[2, :, 0]
    rhs = rng.normal(size=(5, 20)) + 1j * rng.normal(size=(5, 20))
    x = bethe._lstsq(M, rhs)
    for s in range(5):
        ref = np.linalg.lstsq(M[s], rhs[s], rcond=None)[0]
        assert np.max(np.abs(x[s] - ref)) <= 1e-13 * np.max(np.abs(ref))
        assert bethe._lstsq(M[s:s + 1], rhs[s:s + 1])[0].tobytes() == x[s].tobytes()


def _per_target_lstsq(M, rhs):
    return np.array([np.linalg.lstsq(m, r, rcond=None)[0] for m, r in zip(M, rhs)])


def _max_root_gap(a, b, p):
    # largest distance from a symmetrized root of a row to the nearest one of
    # the same row of b, relative to the row's largest
    wa, wb = symmetrize_roots(a, p), symmetrize_roots(b, p)
    gap = np.abs(wa[:, :, None] - wb[:, None, :]).min(axis=2).max(axis=1)
    return np.max(gap / np.abs(wb).max(axis=1))


@pytest.mark.parametrize("two_s", [1, 2, 3, 4, 6])
def test_stacked_fit_matches_per_target_lstsq(two_s, monkeypatch):
    # every batch of a sweep fitted by the stacked SVD against the same fit
    # with one np.linalg.lstsq per target
    p, = draw_many(two_s, 1, 7200 + two_s)
    sp, sc = spectrum(p), structure_constants(p)
    worst = 0.0
    for L in range(1, two_s + 1):
        kinds = bethe.HOM_KINDS + (bethe.INHOM_KINDS if L == two_s else ())
        k = np.repeat([bethe.KINDS.index(kind) for kind in kinds],
                      [1 if kind in bethe.HOM_KINDS else p.dim for kind in kinds])
        lams = np.concatenate([getattr(sp, bethe.TARGET_SPECTRUM[kind])[[L] if kind in
                               bethe.HOM_KINDS else slice(None)] for kind in kinds])
        fit = _tables(L, p, sc)[0]
        with np.errstate(all="ignore"), monkeypatch.context() as m:
            stacked = bethe._tq_roots(k, lams, L, p, fit)
            m.setattr(bethe, "_lstsq", _per_target_lstsq)
            ref = bethe._tq_roots(k, lams, L, p, fit)
        worst = max(worst, _max_root_gap(stacked, ref, p))
    assert worst <= 1e-10


def test_tabulated_probe_values_match_the_scalar_functional():
    # the probe values of the tabulated reconstruction against _functional at
    # the reference's probe points: on shell, off shell, for roots that push
    # the probe points to the last candidates, and NaN for roots that leave
    # too few
    rng = np.random.default_rng(27)
    p = draw_params(2, rng)
    sc = structure_constants(p)
    _, rows, ref = _probe_rows(p)
    probe = _tables(0, p, sc)[1]
    groups = [rows["none"][None, :], np.array([rows["on_shell"], [0.9 + 0.3j, 1.2 - 0.4j]])]
    groups += [rows[name][None, :] for name in ("two", "last_three")]
    for kind in bethe.HOM_KINDS:
        for U in groups:
            k = np.full(len(U), bethe.KINDS.index(kind))
            with np.errstate(all="ignore"):  # the helper leaves the error state to its caller
                vals = bethe._probe_values(U, p, probe[:, k])
            for row, roots in zip(vals, U):
                points = _reference_probe_points(roots, p)[1]
                want = [bethe._functional(kind, u, roots, p, sc) for u in points]
                assert np.max(np.abs(row - want)) <= 1e-13 * np.max(np.abs(want)), (kind, roots)
        k = np.array([bethe.KINDS.index(kind)])
        with np.errstate(all="ignore"):
            scarce = bethe._probe_values(rows["too_few"][None, :], p, probe[:, k])
        assert len(ref["too_few"]) < bethe._PROBE_COUNT and np.isnan(scarce).all()


# ---------------------------------------------------------------------------
# one polish/reconstruct/match pass over every root count of a solve


def _counting(monkeypatch, *names):
    # wrap bethe functions so that each call records its arguments
    calls = {name: [] for name in names}
    for name in names:
        def wrapped(*args, _name=name, _orig=getattr(bethe, name)):
            calls[_name].append(args)
            return _orig(*args)
        monkeypatch.setattr(bethe, name, wrapped)
    return calls


def test_a_sweep_fits_per_root_count_and_polishes_once(monkeypatch):
    p, = draw_many(4, 1, 4300)
    calls = _counting(monkeypatch, "_tq_roots", "_polish", "_solutions")
    found = bethe.sweep(p)
    assert all(s is not None for row in found.values() for s in row)
    assert sorted(args[2] for args in calls["_tq_roots"]) == [1, 2, 3, 4]
    assert len(calls["_polish"]) == len(calls["_solutions"]) == 1
    # every level's fitted rows, padded to width two_s, in one stack
    U = calls["_polish"][0][1]
    assert U.shape == (2 * 5 + 4 * 5, 4)
    assert sorted(np.isfinite(U).sum(axis=1).tolist()) == [0, 0, 1, 1, 2, 2, 3, 3] + [4] * 22


def test_sweep_keeps_the_first_lowest_match_error(monkeypatch):
    # the solutions of a sweep, with later copies that tie (the first must
    # win), undercut (the copy must win), or undercut at another level (it may
    # not win), and inadmissible copies, which as solve returns them match no
    # index, against the scan over every solution for every (kind, index)
    # with min's tie rule
    p, = draw_many(3, 1, 4600)
    systems = [BetheSystem(kind, L, p) for kind in bethe.KINDS
               for L in (range(p.dim) if kind in bethe.HOM_KINDS else (p.two_s,))]
    sols = solve(systems)
    matched = [s for s in sols if s.matched_index is not None]
    extra = []
    for k, s in enumerate(matched):
        lower = s.match_error / 2
        elsewhere = s.system
        if s.system.kind in bethe.HOM_KINDS:
            elsewhere = replace(s.system, level=(s.system.level + 1) % p.dim)
        extra.append([replace(s), replace(s, match_error=lower),
                      replace(s, admissible=False, reconstructed_eigenvalue=None,
                              matched_index=None, match_error=np.inf),
                      replace(s, match_error=lower / 2, system=elsewhere)][k % 4])
    stacked = sols + extra
    monkeypatch.setattr(bethe, "solve", lambda systems, cfg: stacked)
    won = set()
    for kind, found in bethe.sweep(p).items():
        for index, chosen in enumerate(found):
            hits = [s for s in stacked if s.system.kind == kind and s.admissible
                    and s.matched_index == index
                    and (kind in bethe.INHOM_KINDS or s.system.level == index)]
            best = min(hits, key=lambda s: s.match_error, default=None)
            assert chosen is best
            won.add(id(chosen))
    assert won & {id(s) for s in extra[1::4]}


def test_a_solve_enters_the_error_state_once(monkeypatch):
    # the table, the fit, the polish (here with Newton steps) and the match
    # run under solve's one error state; no kernel enters its own.  Only
    # entries from qracah count: numpy may enter its own inside a call.
    entered = []
    errstate = np.errstate

    def counting(**kwargs):
        module = sys._getframe(1).f_globals.get("__name__", "")
        if module.startswith("qracah"):
            entered.append((module, kwargs))
        return errstate(**kwargs)

    p, = draw_many(8, 1, seed=4008)
    stepped = _counting(monkeypatch, "_jacobian")["_jacobian"]
    monkeypatch.setattr(np, "errstate", counting)
    found = bethe.sweep(p)
    assert stepped and any(s is not None for row in found.values() for s in row)
    assert entered == [("qracah.bethe", {"all": "ignore"})]


def test_verify_polishes_once(monkeypatch, capsys):
    from qracah import cli
    config = Path(__file__).resolve().parent.parent / "configs" / "generic_two_s2.json"
    calls = _counting(monkeypatch, "_polish")
    assert cli.main(["verify", str(config)]) == 0
    assert len(calls["_polish"]) == 1


def _padded(rows, width):
    out = np.full((len(rows), width), np.inf, dtype=complex)
    for s, row in enumerate(rows):
        out[s, :len(row)] = row
    return out


def test_padded_residual_and_probe_values_equal_each_level_alone():
    # rows of every kind and root count, padded with inf to one width,
    # against each root count evaluated alone: equal byte for byte, with
    # pads reading 0 at scale 1 and never winning the scaled norm
    p, = draw_many(4, 1, 4400)
    sc = structure_constants(p)
    rng = np.random.default_rng(4401)
    seen, _ = _reference_probe_points([], p)
    on_shell = solve(BetheSystem("hom_minus", 2, p))[0].roots
    blocking = np.array(seen[:-2])  # too few clear probe candidates
    hom = [(bethe.KINDS.index(kind), np.exp(rng.uniform(-0.5, 0.5, L)
                                           + 1j * rng.uniform(0, 2 * np.pi, L)))
           for kind in bethe.HOM_KINDS for L in range(p.two_s + 1) for _ in range(2)]
    hom += [(0, on_shell), (1, blocking)]
    inh = [(i, np.exp(rng.uniform(-0.5, 0.5, p.two_s) + 1j * rng.uniform(0, 2 * np.pi, p.two_s)))
           for i in range(2, 6)]
    width = len(blocking)
    k = np.array([i for i, _ in hom + inh])
    U = _padded([row for _, row in hom + inh], width)
    with np.errstate(all="ignore"):  # the helpers leave the error state to their caller
        E, scale = bethe._residual_batch(k, U, p)
        norm = bethe._scaled_residual(k, U, p)
    pad = ~np.isfinite(U)
    assert np.all(E[pad] == 0) and np.all(scale[pad] == 1)
    _, probe = _tables(0, p, sc)
    nh = len(hom)
    with np.errstate(all="ignore"):
        vals = bethe._probe_values(U[:nh], p, probe[:, k[:nh]])
    for L in sorted({len(row) for _, row in hom + inh}):
        at = np.flatnonzero([len(row) == L for _, row in hom + inh])
        with np.errstate(all="ignore"):
            E_L, scale_L = bethe._residual_batch(k[at], U[at, :L], p)
            norm_L = bethe._scaled_residual(k[at], U[at, :L], p)
        assert E[at, :L].tobytes() == E_L.tobytes(), L
        assert scale[at, :L].tobytes() == scale_L.tobytes(), L
        assert norm[at].tobytes() == norm_L.tobytes(), L
        h = at[at < nh]
        with np.errstate(all="ignore"):
            alone = bethe._probe_values(U[h, :L], p, probe[:, k[h]])
        assert vals[h].tobytes() == alone.tobytes(), L


@pytest.mark.parametrize("two_s", [8, 9, 10])
def test_newton_steps_in_the_merged_pass_match_each_system_alone(two_s, monkeypatch):
    # draws on which a row shorter than the stack takes a Newton step: the
    # merged pass steps it on its unpadded slice, so every root set of the
    # solve over all systems equals the system's own solve bit for bit
    stepped = _counting(monkeypatch, "_jacobian")["_jacobian"]
    for p in draw_many(two_s, 3, seed=4000 + two_s):
        systems = [BetheSystem(kind, L, p) for kind in bethe.KINDS
                   for L in (range(two_s + 1) if kind in bethe.HOM_KINDS else (two_s,))]
        stepped.clear()
        together = solve(systems)
        padded_steps = [args[1].shape[1] for args in stepped if args[1].shape[1] < two_s]
        for system in systems:
            alone = solve(system)
            mine = [s for s in together if s.system == system]
            assert len(mine) == len(alone), system
            for a, b in zip(mine, alone):
                _assert_same_solution(a, b)
        if padded_steps:
            break
    assert padded_steps, "no padded row took a Newton step"


def test_public_entry_points_refuse_non_finite_roots():
    # the solver's kernels read a non-finite root as a pad
    p = draw_params(2, np.random.default_rng(4500))
    system = BetheSystem("hom_minus", 2, p)
    roots = np.array([0.9 + 0.3j, np.inf])
    with pytest.raises(ValueError, match="finite"):
        residual(system, roots, 0)
    with pytest.raises(ValueError, match="finite"):
        eigenvalue_from_roots(system, roots)


# ---------------------------------------------------------------------------
# reference copies: the pair products and the TQ table as they were written
# before each shared factor was formed once, the ladder product before its
# factors were multiplied in place of one stacked array, and the kind tables
# before they became read-only module arrays


def _ref_root_products(u, U, q, skip_self):
    w, v = u[:, :, None], U[:, None, :]
    skip = ~np.isfinite(v)
    if skip_self:
        skip = skip | np.eye(U.shape[1], dtype=bool)
    pairs = np.stack([_f(w, v, q), _h(w, v, q), _bf(w / v) * _bf(q * w * v)])
    return np.where(skip, 1.0, pairs).prod(axis=-1)


def _ref_inh_product(u, p):
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
    factors = np.stack([_bf(xz * u), _bf(np.array(ladder).reshape(shape) * u / p.zeta)], axis=1)
    out = np.ones(u.shape, dtype=complex)
    for f in factors.reshape((-1,) + u.shape):
        out = out * f
    return out


def _ref_tq_table(kinds, u, p, sc):
    sel, etabar = bethe._sel, bethe._etabar
    q = p.base.q
    k = np.asarray(kinds)
    u = np.asarray(u, dtype=complex)
    shape = (len(k),) + (1,) * u.ndim
    eps = np.array((-1, 1, 1, -1, 1, -1))[k].reshape(shape)
    fam = np.array((0, 0, 1, 1, 2, 2))[k].reshape(shape)
    hom, dual = fam == 0, fam == 2
    b2 = _bf(u * u)
    l1 = bethe._lam1(eps, u, p) / (b2 * _bf(q * u * u))
    d2 = b2 * _bf(q * q * u * u)
    l2 = bethe._lam2(eps, u, p) / d2
    A = np.where(hom, sel(eps, u**1, u**-1),
                 np.where(dual, sel(eps, u**-1, u**1), sel(eps, u**3, u**-3))) * l1
    D = np.where(hom, sel(eps, u**1, u**-1),
                 np.where(dual, sel(eps, q**2 * u**3, q**-2 * u**-3),
                          sel(eps, q**-2 * u**-1, q**2 * u**1))) * l2
    C = np.where(hom, 0.0, -bethe._nu(p)[k].reshape(shape) * _ref_inh_product(u, p))
    theta = np.array(tuple(bethe.TARGET_SPECTRUM[kind] == "theta" for kind in bethe.KINDS))
    tail = np.where(theta[k].reshape(shape),
                    q * u * etabar(u, sc, q) + etabar(1.0 / u, sc, q) / (q * u),
                    q * u * etabar(1.0 / u, sc, q) + etabar(u, sc, q) / (q * u))
    return np.stack(np.broadcast_arrays(A, D, C, tail / d2))


def _reference_copy_params():
    return [p for n in range(1, 13) for p in draw_many(n, 2, 8800 + n)] + fuzz_params()


def test_root_products_and_tq_table_equal_their_reference_copies():
    # bit for bit, on root stacks padded with inf to a common width, at the
    # stack's own roots (each skipping itself) and at the sample points and
    # probe candidates; and the TQ table of every kind, and of a shuffled
    # kind list, at those points and at the roots
    rng = np.random.default_rng(8800)
    points = np.concatenate([bethe._sample_points(4 * 3 + 8),
                             bethe._sample_points(bethe._PROBE_POOL)])
    for p in _reference_copy_params():
        n, q = p.two_s, p.base.q
        rows = [np.exp(rng.uniform(-0.5, 0.5, L) + 1j * rng.uniform(0, 2 * np.pi, L))
                for L in (n, max(n - 1, 0), min(n, 3), 0)]
        U = _padded(rows, n)
        kinds = rng.permutation(np.repeat(np.arange(len(bethe.KINDS)), 2))
        with np.errstate(all="ignore"):
            sc = structure_constants(p)
            u = np.broadcast_to(points, (len(U), len(points)))
            for args in ((U, U, q, True), (u, U, q, False)):
                assert bethe._root_products(*args).tobytes() == _ref_root_products(*args).tobytes()
            for k in (range(len(bethe.KINDS)), kinds):
                for at in (points, U[0]):
                    got, want = bethe._tq_table(k, at, p, sc), _ref_tq_table(k, at, p, sc)
                    assert got.shape == want.shape and got.tobytes() == want.tobytes(), p


def _ref_tq_roots(k, lams, L, p, coeffs):
    # the fit before each row read its own kind's coefficients: the basis
    # built once per kind present, then gathered to the rows
    S = len(lams)
    q = p.base.q
    u = bethe._sample_points(coeffs.shape[-1])
    powers = np.arange(L + 1)
    present = np.zeros(len(bethe.KINDS), dtype=bool)
    present[k] = True
    kinds, of_row = present.nonzero()[0], present.cumsum()[k] - 1
    Wk = bethe._w(u, q)[:, None] ** powers
    Wm, Wp = bethe._w(u / q, q)[:, None] ** powers, bethe._w(q * u, q)[:, None] ** powers
    A, D, C, T = coeffs[:, kinds]
    base = (A[:, :, None] * Wm + D[:, :, None] * Wp)[of_row]
    basis = base + (T[of_row] - lams[:, None])[:, :, None] * Wk
    M, rhs = basis[:, :, :L], -(basis[:, :, L] + C[of_row])
    row = np.maximum(np.abs(M).max(axis=2), np.abs(rhs))
    ok = np.isfinite(row) & (row > 0)
    M = np.where(ok[:, :, None], M / row[:, :, None], 0.0)
    rhs = np.where(ok, rhs / row, 0.0)
    col = np.linalg.norm(M, axis=1)
    M = M / col[:, None, :]
    fit = np.isfinite(M).all(axis=(1, 2))
    coef = np.full((S, L), np.nan, dtype=complex)
    if fit.any():
        coef[fit] = bethe._lstsq(M[fit], rhs[fit]) / col[fit]
    fit &= np.isfinite(coef).all(axis=1)
    companion = np.zeros((S, L, L), dtype=complex)
    companion[:, 0, :] = -coef[:, ::-1]
    companion[:, np.arange(1, L), np.arange(L - 1)] = 1.0
    w = np.full((S, L), np.nan, dtype=complex)
    if fit.any():
        w[fit] = np.linalg.eigvals(companion[fit])
    r = np.sqrt(0.25 * w * w - 1.0)
    y = np.where(np.abs(0.5 * w + r) >= np.abs(0.5 * w - r), 0.5 * w + r, 0.5 * w - r)
    return np.sqrt(y / q)


@pytest.mark.parametrize("two_s", range(1, 13))
def test_tq_roots_equals_its_reference_copy(two_s):
    # bit for bit at every root count, on the rows of every kind at every
    # target, and on a shuffled subset of them that may leave kinds out
    p, = draw_many(two_s, 1, 8900 + two_s)
    sp, sc = spectrum(p), structure_constants(p)
    rng = np.random.default_rng(8900 + two_s)
    k = np.repeat(np.arange(len(bethe.KINDS)), p.dim)
    lams = np.concatenate([getattr(sp, bethe.TARGET_SPECTRUM[kind]) for kind in bethe.KINDS])
    some = rng.permutation(len(k))[:len(k) // 2 + 1]
    for L in range(1, two_s + 1):
        fit = _tables(L, p, sc)[0]
        with np.errstate(all="ignore"):
            for rows in (np.arange(len(k)), some):
                got = bethe._tq_roots(k[rows], lams[rows], L, p, fit)
                want = _ref_tq_roots(k[rows], lams[rows], L, p, fit)
                assert got.tobytes() == want.tobytes(), (L, rows)
