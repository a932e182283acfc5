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
        # order 0 sums the k = 0 term alone, whatever the parameters
        for z in (0.0, 0.37 - 0.8j, 5.0):
            for a1 in (1.0, 0.3 - 0.1j):
                val = phi43([a1, 0.3 + 0.2j, 1.7, 0.9j], [0.4, 0.6, 0.8], 0.5 + 0.1j, z, 0)
                assert val == 1.0
        got = phi43([np.full(2, 0.3), 0.4, 0.5, 0.6], [0.7, 0.8, 0.9], 0.5, 0.2, np.zeros(2, int))
        assert isinstance(got, np.ndarray) and (got == 1.0).all()

    def test_order_one_closed_form(self):
        qq = 0.63 + 0.18j
        a2, a3, a4 = 0.9 + 0.4j, 1.7 - 0.3j, 0.35 + 0.15j
        b1, b2, b3 = 1.4 + 0.9j, -0.6 + 0.35j, 2.1 - 0.5j
        z = 0.3 - 0.45j
        val = phi43([1.0 / qq, a2, a3, a4], [b1, b2, b3], qq, z, 1)
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
        val = phi43(numer, denom, qq, z, 3)
        assert abs(val - want) <= 1e-12 * abs(want)

    def test_random_draws_against_live_oracle(self):
        for _ in range(10):
            qq = _rand_c(0.45, 0.85)
            n = int(RNG.integers(1, 5))
            numer = [qq**-n, _rand_c(), _rand_c(), _rand_c()]
            denom = [_rand_c(1.2, 2.2), _rand_c(1.2, 2.2), _rand_c(1.2, 2.2)]
            z = _rand_c(0.3, 0.9)
            val = phi43(numer, denom, qq, z, n)
            want = _phi43_oracle(numer, denom, qq, z, n)
            assert abs(val - want) <= 1e-10 * max(1.0, abs(want))
            # the order is the caller's: with no parameter of the form
            # qq**-n, the sum stops where it is told to
            numer[0] = _rand_c()
            val = phi43(numer, denom, qq, z, n)
            want = _phi43_oracle(numer, denom, qq, z, n)
            assert abs(val - want) <= 1e-10 * max(1.0, abs(want))

    def test_non_terminating_rejected(self):
        with pytest.raises(ValueError, match="expected 4 numerator and 3 denominator"):
            phi43([0.3, 0.4, 0.5], [0.7, 0.8, 0.9], 0.5, 0.2, 8)
        # an order below 0 names no last term
        with pytest.raises(ValueError, match=r"^phi43: order must be >= 0$"):
            phi43([0.3, 0.4, 0.5, 0.6], [0.7, 0.8, 0.9], 0.5, 0.2, -1)
        with pytest.raises(ValueError, match=r"^phi43: order must be >= 0$"):
            phi43([0.3, 0.4, 0.5, 0.6], [0.7, 0.8, 0.9], 0.5, 0.2, np.array([2, -1]))

    def test_vanishing_denominator_rejected(self):
        # b1 = qq**-2 makes the k = 2 denominator factor vanish: it enters
        # every term past k = 2
        qq = 0.6 + 0.1j
        with pytest.raises(ValueError, match="denominator"):
            phi43([qq**-3, 0.4, 0.5, 0.6], [qq**-2, 0.8, 0.9], qq, 0.2, 3)
        assert cmath.isfinite(phi43([qq**-3, 0.4, 0.5, 0.6], [qq**-2, 0.8, 0.9], qq, 0.2, 2))
        # qq^2 = 1 to 8e-14: the (qq; qq) factor 1 - qq^2 enters the terms
        # from k = 2 on, so it refuses order 2 and not order 1
        qq = -(1 + 4e-14)
        with pytest.raises(ValueError, match="base q-shifted factorial factor vanishes"):
            phi43([0.3, 0.4, 0.5, 0.6], [0.7, 0.8, 0.9], qq, 0.2, 2)
        assert cmath.isfinite(phi43([0.3, 0.4, 0.5, 0.6], [0.7, 0.8, 0.9], qq, 0.2, 1))
        # qq^2 past binary64 is no vanishing factor: it is refused by name,
        # before numpy meets it, under either warning filter; order 1 forms
        # no power past qq**1
        for action in ("ignore", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                with pytest.raises(ValueError, match=r"^phi43: qq\*\*2 is past binary64's range$"):
                    phi43([1e-300, 0.4, 0.5, 0.6], [0.7, 0.8, 0.9], 1e200, 0.2, 3)
                assert cmath.isfinite(phi43([1e-300, 0.4, 0.5, 0.6], [0.7, 0.8, 0.9], 1e200,
                                            0.2, 1))

    def test_an_overflowed_factor_is_summed_as_it_is(self):
        # every power of qq up to the order is finite, but a*qq**k is not:
        # the sum goes on to its order and gives the same non-finite value
        # under either warning filter (the error state is phi43's own)
        got = []
        for action in ("ignore", "error"):
            with warnings.catch_warnings():
                warnings.simplefilter(action)
                got.append(phi43([1e300, 0.4, 0.5, 0.6], [0.7, 0.8, 0.9], 1e100, 0.2, 3))
        assert not cmath.isfinite(got[0])
        assert np.array(got[0]).tobytes() == np.array(got[1]).tobytes()


class TestPhi43Broadcast:
    """Array parameters and orders: one sum per broadcast entry, with the
    scalar kernel's value, order and refusals."""

    @staticmethod
    def _draw(shapes):
        # numerator 0 and 2 are of the terminating form qq**-n at per-entry
        # orders 0..4, off by 1e-10 relative so that no factor vanishes
        # exactly at an entry's order; the order passed is the lower of the two
        qq = _rand_c(0.45, 0.85)
        orders = [RNG.integers(0, 5, size=shapes[0]), RNG.integers(0, 5, size=shapes[2])]
        rand = [np.vectorize(lambda _: _rand_c(), otypes=[complex])(np.empty(s))
                for s in (shapes[1], shapes[3])]
        near = 1.0 + 1e-10
        numer = [near * qq ** -orders[0], rand[0], near * qq ** -orders[1], rand[1]]
        denom = [_rand_c(1.2, 2.2) for _ in range(3)]
        return numer, denom, qq, _rand_c(0.3, 0.9), np.minimum(*orders)

    @pytest.mark.parametrize("shapes", [
        ((4, 1), (4, 1), (1, 3), (1, 3)),
        ((5,), (), (), (5,)),
        ((2, 1, 3), (1, 4, 1), (4, 3), ()),
    ])
    def test_entries_equal_scalar_calls(self, shapes):
        for _ in range(4):
            numer, denom, qq, z, order = self._draw(shapes)
            got = phi43(numer, denom, qq, z, order)
            assert isinstance(got, np.ndarray)
            assert got.shape == np.broadcast_shapes(*(np.shape(a) for a in numer))
            parts = np.broadcast_arrays(*numer, order)
            for idx in np.ndindex(got.shape):
                n = int(parts[4][idx])
                one = phi43([a[idx] for a in parts[:4]], denom, qq, z, n)
                assert isinstance(one, complex)
                assert abs(got[idx] - one) <= 1e-14 * abs(one)
                want = _phi43_oracle([a[idx] for a in parts[:4]], denom, qq, z, n)
                assert abs(one - want) <= 1e-10 * max(1.0, abs(want))

    def test_order_broadcasts_with_the_parameters(self):
        # scalar parameters with an order array, and a row of parameters
        # with a column of orders: one sum per broadcast entry
        qq, denom = 0.55 - 0.2j, [0.7, 0.8, 0.9]
        order = np.arange(3)[:, None]
        got = phi43([0.3, 0.4, 0.5, 0.6], denom, qq, 0.2, order)
        assert got.shape == (3, 1)
        for n in range(3):
            assert got[n, 0] == phi43([0.3, 0.4, 0.5, 0.6], denom, qq, 0.2, n)
        row = np.array([0.3, 0.35, 0.4, 0.45])[None, :]
        got = phi43([row, 0.4, 0.5, 0.6], denom, qq, 0.2, order)
        assert got.shape == (3, 4)
        for n in range(3):
            for j in range(4):
                one = phi43([row[0, j], 0.4, 0.5, 0.6], denom, qq, 0.2, n)
                assert abs(got[n, j] - one) <= 1e-14 * abs(one)

    def test_vanishing_denominator_raises_only_past_an_entry_order(self):
        # b1 = qq**-2 makes the factor at order 2 vanish: it enters every
        # term past k = 2, so it refuses exactly when some entry's order is 3
        qq = 0.6 + 0.1j
        denom = [qq**-2, 0.8, 0.9]
        low = np.array([0, 1, 2, 2])
        numer = [qq ** -low, 0.4, 0.5, 0.6]
        got = phi43(numer, denom, qq, 0.2, low)
        for i, a in enumerate(numer[0]):
            one = phi43([a, 0.4, 0.5, 0.6], denom, qq, 0.2, int(low[i]))
            assert abs(got[i] - one) <= 1e-14 * abs(one)
        high = np.array([0, 1, 3, 2])
        with pytest.raises(ValueError, match="denominator"):
            phi43([qq ** -high, 0.4, 0.5, 0.6], denom, qq, 0.2, high)
