"""Bethe system tests.

Independent oracles used here:
  * the level-1 residual factors into a difference of two explicit products
    of linear-in-u factors; its roots in x = u**2 come from a companion
    matrix (np.roots), giving root sets the TQ solver must reproduce
  * level-0 systems have an empty root set whose reconstructed eigenvalue
    must equal the first entry of the matching closed-form spectrum, for
    every probe point
  * full coverage sweeps check every root set against the Bethe residual
    and match its reconstructed eigenvalue against the closed-form
    spectrum; the solver takes the target entry as input, but neither check
    uses the solve, and a fit at a wrong entry gives roots off shell
"""

import numpy as np
import pytest

from qracah.model import spectrum, structure_constants
from qracah import bethe
from qracah.bethe import (
    BetheSystem,
    PoleError,
    SolverConfig,
    coverage,
    dual_eigenvalue_functional,
    eigenvalue_from_roots,
    exchange_fh,
    gamma_eps,
    etabar,
    hom_eigenvalue_functional,
    lambda12,
    residual,
    solve,
    symmetrize_roots,
)

from conftest import draw_many, draw_params


def _bf(x):
    return x - 1.0 / x


def _rand_point(rng, lo=0.55, hi=1.8):
    r = float(np.exp(rng.uniform(np.log(lo), np.log(hi))))
    a = float(rng.uniform(0, 2 * np.pi))
    return complex(r * np.cos(a), r * np.sin(a))


# ---------------------------------------------------------------------------
# vacuum pair


def test_lambda1_zero_at_twist_locus():
    # first factor of the eps branch vanishes at u**2 = zeta**2 * q**(-two_s-1)
    rng = np.random.default_rng(0)
    p = draw_params(2, rng)
    u0 = p.zeta * complex(p.base.q) ** (-(p.two_s + 1) / 2.0)
    for eps in (-1, 1):
        l1, _ = lambda12(eps, u0, p)
        assert abs(l1) < 1e-10 * max(1.0, abs(p.b), abs(p.c_star))


def test_lambda2_zero_at_unit_points():
    rng = np.random.default_rng(1)
    p = draw_params(1, rng)
    for u in (1.0 + 0j, 1j):
        for eps in (-1, 1):
            _, l2 = lambda12(eps, u, p)
            assert abs(l2) < 1e-12


def test_lambda_parity_odd():
    rng = np.random.default_rng(2)
    p = draw_params(2, rng)
    for _ in range(5):
        u = _rand_point(rng)
        for eps in (-1, 1):
            a1, a2 = lambda12(eps, u, p)
            b1, b2 = lambda12(eps, -u, p)
            assert abs(a1 + b1) < 1e-12 * max(1, abs(a1))
            assert abs(a2 + b2) < 1e-12 * max(1, abs(a2))


def test_lambda12_pole_and_validation():
    rng = np.random.default_rng(3)
    p = draw_params(1, rng)
    with pytest.raises(ValueError):
        lambda12(2, 1.1 + 0j, p)
    upole = 1.0 / np.sqrt(complex(p.base.q))  # q*u**2 = 1
    with pytest.raises(PoleError):
        lambda12(-1, complex(upole), p)


# ---------------------------------------------------------------------------
# couplings


def test_exchange_fh_even_in_each_argument():
    rng = np.random.default_rng(4)
    p = draw_params(1, rng)
    for _ in range(5):
        u, v = _rand_point(rng), _rand_point(rng)
        f0, h0 = exchange_fh(u, v, p)
        for uu, vv in ((-u, v), (u, -v), (-u, -v)):
            f1, h1 = exchange_fh(uu, vv, p)
            assert abs(f1 - f0) < 1e-12 * max(1, abs(f0))
            assert abs(h1 - h0) < 1e-12 * max(1, abs(h0))


def test_exchange_fh_pole_at_coincidence():
    rng = np.random.default_rng(5)
    p = draw_params(1, rng)
    u = _rand_point(rng)
    with pytest.raises(PoleError):
        exchange_fh(u, u, p)
    with pytest.raises(PoleError):
        exchange_fh(u, 1.0 / (p.base.q * u), p)


def test_exchange_fh_value_against_direct_product():
    # independent transcription through the building block b(x) = x - 1/x
    rng = np.random.default_rng(6)
    p = draw_params(2, rng)
    q = p.base.q
    u, v = _rand_point(rng), _rand_point(rng)
    f, h = exchange_fh(u, v, p)
    f_ref = _bf(q * v / u) * _bf(u * v) / (_bf(v / u) * _bf(q * u * v))
    h_ref = _bf(q * q * u * v) * _bf(q * u / v) / (_bf(q * u * v) * _bf(u / v))
    assert abs(f - f_ref) < 1e-14 * max(1, abs(f_ref))
    assert abs(h - h_ref) < 1e-14 * max(1, abs(h_ref))


def test_gamma_eps_zero_and_branch_swap():
    rng = np.random.default_rng(7)
    base_p = draw_params(1, rng)
    from dataclasses import replace

    a = 0.37 - 0.21j
    p = replace(base_p, alpha=a, beta=a)
    m = 2
    u0 = complex(base_p.base.q) ** m
    assert abs(gamma_eps(1, u0, m, p)) < 1e-12
    assert abs(gamma_eps(-1, u0, m, p)) < 1e-12
    p2 = replace(base_p, alpha=0.5 + 0.1j, beta=-0.2 + 0.9j)
    p2_swapped = replace(base_p, alpha=p2.beta, beta=p2.alpha)
    u = _rand_point(rng)
    assert abs(gamma_eps(1, u, 3, p2) - gamma_eps(-1, u, 3, p2_swapped)) < 1e-13


def test_etabar_parity_and_coefficients():
    rng = np.random.default_rng(8)
    p = draw_params(2, rng)
    sc = structure_constants(p)
    q = p.base.q
    u = _rand_point(rng)
    assert abs(etabar(u, sc, p) + etabar(-u, sc, p)) < 1e-12 * max(1, abs(etabar(u, sc, p)))
    # two evaluations recover the two structure constants
    v1, v2 = etabar(u, sc, p), etabar(2 * u, sc, p)
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


def test_bethe_system_level_validation():
    rng = np.random.default_rng(13)
    p = draw_params(2, rng)
    with pytest.raises(ValueError):
        BetheSystem("hom_minus", 3, p)
    with pytest.raises(ValueError):
        BetheSystem("inhom_plus", 1, p)
    with pytest.raises(ValueError):
        BetheSystem("no_such_kind", 2, p)


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


def test_off_shell_roots_rejected_by_probe_dependence():
    rng = np.random.default_rng(17)
    p = draw_params(2, rng)
    sysk = BetheSystem("hom_minus", 2, p)
    roots = np.array([0.9 + 0.3j, 1.2 - 0.4j])
    with pytest.raises(ValueError, match="off shell"):
        eigenvalue_from_roots(sysk, roots)


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
        rep = coverage(kind, p, cfg)
        assert rep.kind == kind
        assert len(rep.entries) == 3
        assert rep.all_hit, [(e.index, e.hit) for e in rep.entries]
        for e in rep.entries:
            assert e.match_error < 1e-6
            if e.index > 0:
                assert e.solution.roots.shape == (e.index,)
                assert e.solution.residual_max < 1e-9


def test_inhom_coverage_two_s_2():
    rng = np.random.default_rng(20)
    p = draw_params(2, rng)
    cfg = SolverConfig()
    for kind in bethe.INHOM_KINDS:
        rep = coverage(kind, p, cfg)
        assert len(rep.entries) == 3
        assert rep.all_hit, [(e.index, e.hit) for e in rep.entries]
        for e in rep.entries:
            assert e.solution.roots.shape == (2,)
            assert e.solution.residual_max < 1e-9
            assert e.match_error < 1e-6


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


# ---------------------------------------------------------------------------
# solver behaviour


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
            for e in coverage(kind, p, SolverConfig()).entries:
                if not (e.hit and e.solution.residual_max < 1e-9 and e.match_error < 1e-6):
                    misses.append((d, kind, e.index))
    assert not misses


def test_tq_fit_at_a_wrong_eigenvalue_is_off_shell():
    # a homogeneous level-L system reproduces only entry L: fitting Q at any
    # other entry of the spectrum must not give Bethe roots
    rng = np.random.default_rng(26)
    p = draw_params(3, rng)
    sc = structure_constants(p)
    for kind in bethe.HOM_KINDS:
        targets = getattr(spectrum(p), bethe.TARGET_SPECTRUM[kind])
        for level in (1, 2, 3):
            for index in range(p.dim):
                roots = bethe._tq_roots(kind, targets[index], level, p, sc)
                res = bethe._scaled_residual(kind, roots, p)
                if index == level:
                    assert res < 1e-9
                else:
                    assert res > 1e-3, (kind, level, index, res)


def test_coverage_rejects_unknown_kind():
    rng = np.random.default_rng(25)
    p = draw_params(1, rng)
    with pytest.raises(ValueError):
        coverage("sideways", p, SolverConfig())
