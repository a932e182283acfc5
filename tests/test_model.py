"""Tests for parameter validation, structure constants, spectra, and genericity."""

import cmath

import numpy as np
import pytest

from conftest import draw_params
from qracah.model import (
    GenericityError,
    ModelParams,
    spectrum,
    structure_constants,
    validate_genericity,
)
from qracah.qnum import QBase
from qracah.transition import normalizers

RNG = np.random.default_rng(1)
ATOL = 1e-12


def _simple_params(**kw):
    args = dict(
        base=QBase(1.13 + 0.21j),
        two_s=2,
        b=0.9 + 0.4j,
        c=1.3 - 0.5j,
        b_star=1.1 - 0.3j,
        zeta=0.8 + 0.55j,
    )
    args["c_star"] = args["b"] * args["c"] / args["b_star"]
    args.update(kw)
    return ModelParams(**args)


class TestModelParams:
    def test_coupling_constraint_enforced(self):
        with pytest.raises(ValueError, match="b\\*c = b_star\\*c_star"):
            _simple_params(c_star=2.0 + 0j)

    def test_zero_coupling_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            _simple_params(b=0.0, c_star=0.0)
        # a non-finite coupling or twist is refused by name, never screened
        # as generic
        for name in ("b", "c", "b_star", "c_star", "zeta"):
            for bad in (float("nan"), float("inf"), complex(1.0, float("nan")), -float("inf")):
                with pytest.raises(ValueError, match=f"ModelParams: {name} must be finite"):
                    _simple_params(**{name: bad})
            # finite parts, modulus past binary64: refused by name, never
            # passed to the screen, whose abs() would overflow
            with pytest.raises(ValueError, match=f"ModelParams: {name} must be at most "
                               "1.798e\\+308 in modulus"):
                _simple_params(**{name: complex(1.7e308, 1.7e308)})
        # a set whose product b*c is finite, so only the modulus refuses it
        with pytest.raises(ValueError, match="ModelParams: b must be at most"):
            ModelParams(base=QBase(1.18), two_s=2, b=complex(1.7e308, 1.7e308), c=1e-308,
                        b_star=1.0, c_star=1.7 + 1.7j, zeta=1.1)

    def test_dim(self):
        assert _simple_params().dim == 3

    def test_two_s_positive(self):
        with pytest.raises(ValueError):
            _simple_params(two_s=0)
        # bool is an int subclass; True must not read as two_s 1
        for bad in (True, False, 2.0):
            with pytest.raises(ValueError, match="two_s must be an integer"):
                _simple_params(two_s=bad)


class TestStructureConstants:
    def test_rho_fixed_value(self):
        # b = c = b_star = c_star = 1, q = 2: rho = -(4 - 1/4)^2 = -225/16
        p = ModelParams(base=QBase(2.0), two_s=1, b=1.0, c=1.0, b_star=1.0,
                        c_star=1.0, zeta=0.7 + 0.3j)
        sc = structure_constants(p)
        assert abs(sc.rho + 225.0 / 16.0) <= ATOL * 225.0 / 16.0

    def test_rho_symmetric_under_star_swap(self):
        # the coupling constraint makes both expressions for rho coincide
        for _ in range(10):
            p = draw_params(int(RNG.integers(1, 5)), RNG)
            d2 = (p.base.q2 - 1.0 / p.base.q2) ** 2
            r1 = -p.b * p.c * d2
            r2 = -p.b_star * p.c_star * d2
            assert abs(r1 - r2) <= 1e-10 * abs(r1)
            assert abs(structure_constants(p).rho - r1) <= 1e-12 * abs(r1)

    def test_omega_vanishing_twist(self):
        # solving omega = 0 for zeta^2 + zeta^-2 and refitting the twist
        # must send omega to zero while rho stays put
        for _ in range(5):
            p = draw_params(int(RNG.integers(1, 4)), RNG)
            q, n = p.base.q, p.two_s
            ths = p.b * q**n + p.c * q**-n
            ths_star = p.b_star * q**n + p.c_star * q**-n
            target = ths * ths_star / (p.b * p.c * (q ** (n + 1) + q ** (-n - 1)))
            # zeta^2 solves z + 1/z = target
            z2 = (target + cmath.sqrt(target**2 - 4.0)) / 2.0
            p0 = ModelParams(base=p.base, two_s=p.two_s, b=p.b, c=p.c,
                             b_star=p.b_star, c_star=p.c_star, zeta=cmath.sqrt(z2))
            sc = structure_constants(p0)
            scale = max(abs(sc.rho), abs(sc.eta), abs(sc.eta_star), 1.0)
            assert abs(sc.omega) <= 1e-10 * scale


class TestSpectrum:
    def test_first_entries(self):
        p = _simple_params()
        sp = spectrum(p)
        assert abs(sp.theta[0] - (p.b + p.c)) <= ATOL
        assert abs(sp.theta_star[0] - (p.b_star + p.c_star)) <= ATOL
        q2 = p.base.q2
        assert abs(sp.theta[1] - (p.b * q2 + p.c / q2)) <= ATOL * abs(sp.theta[1])

    def test_real_symmetric_profile(self):
        # b = c = 1, real q: theta_M = 2*cosh(2M log q)
        p = ModelParams(base=QBase(1.7), two_s=3, b=1.0, c=1.0, b_star=0.5,
                        c_star=2.0, zeta=0.9 + 0.1j)
        sp = spectrum(p)
        M = np.arange(4)
        want = 2.0 * np.cosh(2.0 * M * np.log(1.7))
        assert np.max(np.abs(sp.theta - want)) <= 1e-12 * np.max(want)

    def test_degenerate_rejected(self):
        # q^4 = 1 makes theta_0 = theta_2... use q = i*eps-free: q^2 = -1
        p = _simple_params(base=QBase(1j + 1e-12))
        with pytest.raises(GenericityError, match="coincide"):
            spectrum(p)


class TestValidateGenericity:
    def test_clean_draw_is_generic(self):
        for _ in range(5):
            p = draw_params(int(RNG.integers(1, 5)), RNG)
            assert validate_genericity(p) == []

    def test_flags_equal_couplings(self):
        p = _simple_params(b=1.0 + 0.5j, c=1.0 + 0.5j, b_star=1.0 + 0.5j,
                           c_star=1.0 + 0.5j)
        msgs = validate_genericity(p)
        assert any("k = 0" in m for m in msgs)
        # b_star = c_star: the normalizers divide by 1 - b_star/c_star
        with pytest.raises(GenericityError, match="coupling ratio bs/cs is numerically 1"):
            normalizers(p)

    def test_flags_root_of_unity(self):
        p = _simple_params(base=QBase(cmath.exp(1j * cmath.pi / 5)))
        msgs = validate_genericity(p)
        assert any("q^(2k) = 1" in m for m in msgs)

    def test_flags_each_unit_power(self):
        # q = exp(i*pi/3): q^6 = 1, so q^(2k) = 1 at k = 3 and 6, both within
        # 1 <= k <= 2*two_s + 2 at two_s 2; q = 1.2 has no unit power
        def unit_lines(p):
            return [m for m in validate_genericity(p) if m.startswith("q^(2k)")]
        p = _simple_params(base=QBase(cmath.exp(1j * cmath.pi / 3)))
        assert unit_lines(p) == ["q^(2k) = 1 at k = 3", "q^(2k) = 1 at k = 6"]
        assert unit_lines(_simple_params(base=QBase(1.2), two_s=4)) == []

    def test_flags_tridiagonal_denominator(self):
        p = _simple_params()
        c = p.b * p.base.q ** 4  # c - b*q^(2k) = 0 at k = 2
        p2 = ModelParams(base=p.base, two_s=2, b=p.b, c=c, b_star=p.b_star,
                         c_star=p.b * c / p.b_star, zeta=p.zeta)
        msgs = validate_genericity(p2)
        assert any("c - b*q^(2k) vanishes at k = 2" in m for m in msgs)
