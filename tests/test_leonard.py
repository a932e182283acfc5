"""Tests for tridiagonal realizations, algebra relation checks, eigen families."""

import numpy as np
import pytest

from conftest import draw_params
from qracah.leonard import (
    GAUGE_THETA,
    GAUGE_THETA_STAR,
    EigenFamily,
    TridiagonalRealization,
    build,
    coeff,
    eigen_family,
    verify_aw,
    verify_cayley_hamilton,
)
from qracah.model import ModelParams, spectrum, structure_constants
from qracah.qnum import QBase

RNG = np.random.default_rng(2)
AW_TOL = 1e-10
CH_TOL = 1e-8


def _params(two_s=2, seed=None):
    return draw_params(two_s, np.random.default_rng(seed) if seed is not None else RNG)


def _sub_oracle(M, p):
    """Independent re-evaluation of the down-coupling entry, factored through
    the cached power w = q^(2M) instead of per-factor exponents."""
    q, n = p.base.q, p.two_s
    w = q ** (2 * M)
    num = (q**2 * q ** (-2 * n) * (1 - w) * (p.c - p.b * w * q ** (2 * n))
           * (p.b_star * q ** (n - 1) / p.zeta**2 + p.b * w / q**2)
           * (p.c * q ** (n - 1) * p.zeta**2 + p.c_star * w / q**2))
    den = (p.c - p.b * w * w / q**2) * (p.c - p.b * w * w)
    return num / den


class TestCoeff:
    def test_down_coupling_against_refactored_oracle(self):
        for two_s in (1, 2, 3):
            p = _params(two_s)
            for M in range(1, two_s + 1):
                got = coeff("Astar", M, M - 1, p)
                want = _sub_oracle(M, p)
                assert abs(got - want) <= 1e-12 * abs(want)

    def test_row_sum_is_top_eigenvalue(self):
        # each row of the second generator's tridiagonal action sums to
        # theta_star_0 by construction of the diagonal
        p = _params(3)
        sp = spectrum(p)
        n = p.two_s
        for M in range(n + 1):
            total = sum(
                coeff("Astar", M, col, p)
                for col in range(max(0, M - 1), min(n + 1, M + 2))
            )
            assert abs(total - sp.theta_star[0]) <= 1e-10 * abs(sp.theta_star[0])

    def test_swap_rule(self):
        # the first generator's coefficients are the second's with couplings
        # swapped and the twist inverted
        p = _params(2)
        swapped = ModelParams(base=p.base, two_s=p.two_s, b=p.b_star, c=p.c_star,
                              b_star=p.b, c_star=p.c, zeta=1.0 / p.zeta)
        for row, col in ((1, 0), (0, 1), (1, 1), (2, 1)):
            assert coeff("A", row, col, p) == coeff("Astar", row, col, swapped)

    def test_out_of_band_rejected(self):
        p = _params(2)
        with pytest.raises(ValueError, match="tridiagonal position"):
            coeff("Astar", 0, 2, p)
        with pytest.raises(ValueError, match="outside"):
            coeff("Astar", 3, 2, p)
        with pytest.raises(ValueError, match="unknown kind"):
            coeff("nope", 0, 0, p)


class TestBuild:
    def test_theta_star_gauge_shapes(self):
        p = _params(3)
        sp = spectrum(p)
        real = build(p, GAUGE_THETA_STAR)
        assert np.array_equal(real.Astar_mat, np.diag(sp.theta_star))
        off = np.abs(real.A_mat.copy())
        for d in (-1, 0, 1):
            np.fill_diagonal(off[max(0, -d):, max(0, d):], 0.0)
        assert np.max(off) == 0.0

    def test_theta_gauge_shapes(self):
        p = _params(2)
        sp = spectrum(p)
        real = build(p, GAUGE_THETA)
        assert np.array_equal(real.A_mat, np.diag(sp.theta))

    def test_trace_identity_both_gauges(self):
        # the tridiagonal generator's trace must reproduce its spectrum sum
        for two_s in (1, 2, 4):
            p = _params(two_s)
            sp = spectrum(p)
            tA = np.trace(build(p, GAUGE_THETA_STAR).A_mat)
            assert abs(tA - sp.theta.sum()) <= 1e-10 * abs(sp.theta.sum())
            tAs = np.trace(build(p, GAUGE_THETA).Astar_mat)
            assert abs(tAs - sp.theta_star.sum()) <= 1e-10 * abs(sp.theta_star.sum())

    def test_unknown_gauge(self):
        with pytest.raises(ValueError, match="gauge"):
            build(_params(1), "diagonal")


class TestVerifyAw:
    def test_generic_draws(self):
        for two_s in (1, 2, 3):
            p = _params(two_s)
            for gauge in (GAUGE_THETA_STAR, GAUGE_THETA):
                r1, r2 = verify_aw(build(p, gauge))
                assert r1 < AW_TOL and r2 < AW_TOL

    def test_smallest_module_tight(self):
        p = _params(1)
        r1, r2 = verify_aw(build(p))
        assert r1 < 1e-12 and r2 < 1e-12

    def test_perturbed_rho_detected(self):
        p = _params(2)
        real = build(p)
        sc = structure_constants(p)
        bad = type(sc)(rho=sc.rho * (1 + 1e-3), omega=sc.omega, eta=sc.eta,
                       eta_star=sc.eta_star)
        r1, _ = verify_aw(real, bad)
        assert r1 > 1e-6


class TestCayleyHamilton:
    def test_two_dimensional_tight(self):
        p = _params(1)
        r1, r2 = verify_cayley_hamilton(build(p))
        assert r1 < 1e-12 and r2 < 1e-12

    def test_generic(self):
        for two_s in (2, 4):
            p = _params(two_s)
            r1, r2 = verify_cayley_hamilton(build(p, GAUGE_THETA))
            assert r1 < CH_TOL and r2 < CH_TOL

    def test_diagonal_factor_exact_zero(self):
        # in the theta gauge the M-th factor has an exactly zero (M, M) entry
        p = _params(2)
        real = build(p, GAUGE_THETA)
        sp = spectrum(p)
        for M in range(p.dim):
            factor = real.A_mat - sp.theta[M] * np.eye(p.dim)
            assert factor[M, M] == 0.0


class TestEigenFamily:
    def test_diagonal_matrix_standard_basis(self):
        vals = np.array([1.0 + 0j, 2.5 - 1j, -0.7 + 0.2j])
        fam = eigen_family(np.diag(vals), vals)
        assert np.allclose(fam.right, np.eye(3), atol=1e-12)
        assert np.allclose(fam.left, np.eye(3), atol=1e-12)

    def test_tridiagonal_known_spectrum(self):
        for two_s in (1, 3, 4):
            p = _params(two_s)
            real = build(p, GAUGE_THETA_STAR)
            sp = spectrum(p)
            fam = eigen_family(real.A_mat, sp.theta)
            assert np.max(fam.residuals) < 1e-9

    def test_biorthogonality(self):
        p = _params(3)
        real = build(p, GAUGE_THETA_STAR)
        fam = eigen_family(real.A_mat, spectrum(p).theta)
        G = fam.left @ fam.right
        diag = np.abs(np.diag(G))
        off = np.abs(G - np.diag(np.diag(G)))
        assert np.max(off) <= 1e-8 * np.min(diag)

    def test_pinned_component(self):
        p = _params(2)
        real = build(p, GAUGE_THETA_STAR)
        fam = eigen_family(real.A_mat, spectrum(p).theta)
        for k in range(p.dim):
            assert np.max(np.abs(fam.right[:, k])) == pytest.approx(1.0)
            assert fam.right[np.argmax(np.abs(fam.right[:, k])), k] == 1.0

    def test_wrong_value_rejected(self):
        p = _params(2)
        real = build(p, GAUGE_THETA_STAR)
        vals = spectrum(p).theta.copy()
        vals[1] += 0.37  # not an eigenvalue anymore
        with pytest.raises(ValueError, match="rank-deficient"):
            eigen_family(real.A_mat, vals)
