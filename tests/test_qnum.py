"""Tests for q-arithmetic primitives."""

import cmath
import warnings

import mpmath as mp
import numpy as np
import pytest

from qracah.qnum import QBase, phi43, qnumber, qpoch

RNG = np.random.default_rng(0)
RTOL = 1e-12


def _rand_c(lo=0.3, hi=2.0):
    r = np.exp(RNG.uniform(np.log(lo), np.log(hi)))
    phi = RNG.uniform(0.0, 2.0 * np.pi)
    return complex(r * np.cos(phi), r * np.sin(phi))


class TestQBase:
    def test_rejects_unit_q(self):
        with pytest.raises(ValueError):
            QBase(1.0)
        with pytest.raises(ValueError):
            QBase(-1.0)
        with pytest.raises(ValueError):
            QBase(0.0)
        nan, inf = float("nan"), float("inf")
        for bad in (nan, inf, complex(1.1, nan), complex(-inf, 1.0)):
            with pytest.raises(ValueError, match="q must be finite"):
                QBase(bad)
        # finite parts, modulus past binary64: abs(q) would overflow
        with pytest.raises(ValueError, match="q must be at most 1.798e\\+308 in modulus"):
            QBase(complex(1.7e308, 1.7e308))

    def test_caches_square(self):
        base = QBase(2.0 + 1.0j)
        assert base.q2 == (2.0 + 1.0j) ** 2

    def test_square_is_not_an_argument(self):
        with pytest.raises(TypeError):
            QBase(1.1, 5.0)


class TestQNumber:
    def test_small_orders(self):
        base = QBase(1.7 + 0.3j)
        q = base.q
        assert qnumber(0, base) == 0.0
        assert qnumber(1, base) == pytest.approx(1.0)
        assert abs(qnumber(2, base) - (q + 1.0 / q)) <= RTOL * abs(q + 1.0 / q)

    def test_negation_antisymmetry(self):
        base = QBase(0.8 + 0.4j)
        for n in range(1, 7):
            assert abs(qnumber(-n, base) + qnumber(n, base)) <= RTOL * abs(qnumber(n, base))


class TestQPoch:
    def test_empty_product(self):
        assert qpoch(_rand_c(), _rand_c(), 0) == 1.0

    def test_low_orders(self):
        a, qq = 0.3 + 0.2j, 0.7 - 0.1j
        assert qpoch(a, qq, 1) == pytest.approx(1 - a)
        assert qpoch(a, qq, 2) == pytest.approx((1 - a) * (1 - a * qq))

    def test_splitting(self):
        # (a; qq)_{m+n} = (a; qq)_m * (a*qq^m; qq)_n
        for _ in range(25):
            a, qq = _rand_c(), _rand_c(0.4, 1.6)
            m = int(RNG.integers(0, 8))
            n = int(RNG.integers(0, 8))
            whole = qpoch(a, qq, m + n)
            split = qpoch(a, qq, m) * qpoch(a * qq**m, qq, n)
            assert abs(whole - split) <= 1e-11 * max(1.0, abs(whole))

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            qpoch(0.5, 0.5, -1)

def _phi43_oracle(numer, denom, qq, z, n):
    """Independent term-by-term evaluation at 40 significant digits."""
    mp.mp.dps = 40

    def poch(a, k):
        out = mp.mpc(1)
        for j in range(k):
            out *= 1 - mp.mpc(a) * mp.mpc(qq) ** j
        return out

    total = mp.mpc(0)
    for k in range(n + 1):
        num = mp.mpc(1)
        for a in numer:
            num *= poch(a, k)
        den = poch(qq, k)
        for b in denom:
            den *= poch(b, k)
        total += num / den * mp.mpc(z) ** k
    return complex(total)


class TestPhi43:
    def test_order_zero_is_exactly_one(self):
        # a numerator parameter equal to 1 kills every term past k = 0
        for z in (0.0, 0.37 - 0.8j, 5.0):
            val = phi43([1.0, 0.3 + 0.2j, 1.7, 0.9j], [0.4, 0.6, 0.8], 0.5 + 0.1j, z, 4)
            assert val == 1.0

    def test_order_one_closed_form(self):
        qq = 0.63 + 0.18j
        a2, a3, a4 = 0.9 + 0.4j, 1.7 - 0.3j, 0.35 + 0.15j
        b1, b2, b3 = 1.4 + 0.9j, -0.6 + 0.35j, 2.1 - 0.5j
        z = 0.3 - 0.45j
        val = phi43([1.0 / qq, a2, a3, a4], [b1, b2, b3], qq, z, 4)
        want = 1.0 + ((1 - 1 / qq) * (1 - a2) * (1 - a3) * (1 - a4) * z
                      / ((1 - qq) * (1 - b1) * (1 - b2) * (1 - b3)))
        assert abs(val - want) <= RTOL * abs(want)

    def test_generic_order_three_frozen_oracle(self):
        # frozen from a 40-digit independent summation of the same series
        qq = 0.58 + 0.21j
        numer = [qq**-3, 0.9 + 0.4j, 1.7 - 0.3j, 0.35 + 0.15j]
        denom = [1.4 + 0.9j, -0.6 + 0.35j, 2.1 - 0.5j]
        z = 0.35 - 0.6j
        want = 0.8579006919095131 + 0.31862054804140005j
        val = phi43(numer, denom, qq, z, 4)
        assert abs(val - want) <= 1e-12 * abs(want)

    def test_random_draws_against_live_oracle(self):
        for _ in range(10):
            qq = _rand_c(0.45, 0.85)
            n = int(RNG.integers(1, 5))
            numer = [qq**-n, _rand_c(), _rand_c(), _rand_c()]
            denom = [_rand_c(1.2, 2.2), _rand_c(1.2, 2.2), _rand_c(1.2, 2.2)]
            z = _rand_c(0.3, 0.9)
            val = phi43(numer, denom, qq, z, n + 1)
            want = _phi43_oracle(numer, denom, qq, z, n)
            assert abs(val - want) <= 1e-10 * max(1.0, abs(want))

    def test_non_terminating_rejected(self):
        with pytest.raises(ValueError, match="terminat"):
            phi43([0.3, 0.4, 0.5, 0.6], [0.7, 0.8, 0.9], 0.5, 0.2, 8)
        with pytest.raises(ValueError, match="expected 4 numerator and 3 denominator"):
            phi43([0.3, 0.4, 0.5], [0.7, 0.8, 0.9], 0.5, 0.2, 8)

    def test_vanishing_denominator_rejected(self):
        # b1 = qq**-2 makes the k = 3 denominator factor vanish
        qq = 0.6 + 0.1j
        with pytest.raises(ValueError, match="denominator"):
            phi43([qq**-3, 0.4, 0.5, 0.6], [qq**-2, 0.8, 0.9], qq, 0.2, 4)
        # qq^2 = 1 to 8e-14, and a first parameter just outside the termination
        # tolerance at k = 0 and just inside it at k = 2: the order is 2, so
        # the (qq; qq) factor 1 - qq^2 is reached and vanishes
        qq = -(1 + 4e-14)
        with pytest.raises(ValueError, match="base q-shifted factorial factor vanishes"):
            phi43([1 - 1.000004e-8, 0.4, 0.5, 0.6], [0.7, 0.8, 0.9], qq, 0.2, 4)
        # qq^2 past binary64 is no vanishing factor: it is refused by name,
        # before numpy meets it, under either warning filter
        for action in ("ignore", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                with pytest.raises(ValueError, match=r"^phi43: qq\*\*2 is past binary64's range$"):
                    phi43([1e-300, 0.4, 0.5, 0.6], [0.7, 0.8, 0.9], 1e200, 0.2, 4)


class TestPhi43Broadcast:
    """Array parameters: one sum per broadcast entry, with the scalar
    kernel's value, order and refusals."""

    @staticmethod
    def _draw(shapes):
        # numerator 0 and 2 carry per-entry termination orders 0..4, off by
        # 1e-10 relative so that no factor vanishes exactly at an entry's order
        qq = _rand_c(0.45, 0.85)
        orders = [RNG.integers(0, 5, size=shapes[0]), RNG.integers(0, 5, size=shapes[2])]
        rand = [np.vectorize(lambda _: _rand_c(), otypes=[complex])(np.empty(s))
                for s in (shapes[1], shapes[3])]
        near = 1.0 + 1e-10
        numer = [near * qq ** -orders[0], rand[0], near * qq ** -orders[1], rand[1]]
        denom = [_rand_c(1.2, 2.2) for _ in range(3)]
        return numer, denom, qq, _rand_c(0.3, 0.9)

    @pytest.mark.parametrize("shapes", [
        ((4, 1), (4, 1), (1, 3), (1, 3)),
        ((5,), (), (), (5,)),
        ((2, 1, 3), (1, 4, 1), (4, 3), ()),
    ])
    def test_entries_equal_scalar_calls(self, shapes):
        for _ in range(4):
            numer, denom, qq, z = self._draw(shapes)
            got = phi43(numer, denom, qq, z, 6)
            assert isinstance(got, np.ndarray)
            assert got.shape == np.broadcast_shapes(*(np.shape(a) for a in numer))
            parts = np.broadcast_arrays(*numer)
            for idx in np.ndindex(got.shape):
                one = phi43([a[idx] for a in parts], denom, qq, z, 6)
                assert isinstance(one, complex)
                assert abs(got[idx] - one) <= 1e-14 * abs(one)
                n = min(round(-cmath.log(a[idx]).real / cmath.log(qq).real)
                        for a in (parts[0], parts[2]))
                want = _phi43_oracle([a[idx] for a in parts], denom, qq, z, n)
                assert abs(one - want) <= 1e-10 * max(1.0, abs(want))

    def test_vanishing_denominator_raises_only_past_an_entry_order(self):
        # b1 = qq**-2 makes the factor at order 2 vanish: it enters every
        # term past k = 2, so it refuses exactly when some entry's order is 3
        qq = 0.6 + 0.1j
        denom = [qq**-2, 0.8, 0.9]
        low = [qq ** -np.array([0, 1, 2, 2]), 0.4, 0.5, 0.6]
        got = phi43(low, denom, qq, 0.2, 4)
        for i, a in enumerate(low[0]):
            one = phi43([a, 0.4, 0.5, 0.6], denom, qq, 0.2, 4)
            assert abs(got[i] - one) <= 1e-14 * abs(one)
        high = [qq ** -np.array([0, 1, 3, 2]), 0.4, 0.5, 0.6]
        with pytest.raises(ValueError, match="denominator"):
            phi43(high, denom, qq, 0.2, 4)

    def test_one_non_terminating_entry_raises(self):
        qq = 0.55 - 0.2j
        numer = [np.array([qq**-2, 0.3, qq**-1]), 0.4, 0.5, 0.6]
        with pytest.raises(ValueError, match="terminat"):
            phi43(numer, [0.7, 0.8, 0.9], qq, 0.2, 4)
        # the same entry terminates once another parameter does
        numer[3] = np.array([0.6, qq**-3, 0.6])
        assert phi43(numer, [0.7, 0.8, 0.9], qq, 0.2, 4).shape == (3,)

    def test_no_scan_steps_is_non_terminating(self):
        with pytest.raises(ValueError, match="terminat"):
            phi43([np.ones(2), 0.4, 0.5, 0.6], [0.7, 0.8, 0.9], 0.5, 0.2, 0)
