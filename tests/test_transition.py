"""Tests for the polynomial table, transition pair, and normalizers."""

import cmath
import math
import re
import warnings
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from conftest import bench_reference, draw_many, draw_params, fuzz_config, fuzz_params
from qracah.cli import parse_config
from qracah.leonard import GAUGE_THETA, GAUGE_THETA_STAR, build, coeff, eigen_family
from qracah.model import (_LOG_RANGE, GenericityError, ModelParams, _q2_params, spectrum,
                          validate_genericity)
from qracah.qnum import QBase, phi43
from qracah.transition import (
    _racah_params,
    build_transition,
    normalizers,
    orthogonality_residuals,
    racah_by_recurrence,
    racah_from_scalar_products,
    racah_matrix,
    verify_recurrences,
)

RNG = np.random.default_rng(3)
IDENT_TOL = 1e-9
CROSS_TOL = 1e-8


def _params(two_s=2):
    return draw_params(two_s, RNG)


class TestRacahSeries:
    def test_first_row_and_column_are_one(self):
        p = _params(3)
        R = racah_matrix(p)
        assert np.max(np.abs(R[0, :] - 1.0)) <= 1e-12
        assert np.max(np.abs(R[:, 0] - 1.0)) <= 1e-12

    def test_one_one_against_recurrence_inversion(self):
        # the recurrence at M = 0 forces R_1 = (theta_star_N - a00) / a01
        for two_s in (1, 2, 3):
            p = _params(two_s)
            sp = spectrum(p)
            want = (sp.theta_star[1] - coeff("Astar", 0, 0, p)) / coeff("Astar", 0, 1, p)
            got = racah_matrix(p)[1, 1]
            assert abs(got - want) <= 1e-10 * max(1.0, abs(want))

    def test_entry_equals_table(self):
        # each entry summed alone, from one-entry index arrays, to its order
        # min(M, N); on the fuzz configs a non-finite entry is non-finite
        # alone too, and no term past an entry's order reaches it
        fuzz = [p for p in fuzz_params() if p.two_s <= 16]
        for p in [draw_many(two_s, 1, 4100 + two_s)[0] for two_s in (1, 2, 3, 4)] + fuzz:
            R = racah_matrix(p)
            for M in range(p.dim):
                for N in range(p.dim):
                    numer, denom = _racah_params(p, np.array([M]), np.array([N]))
                    alone = phi43(numer, denom, p.base.q2, p.base.q2, min(M, N))[0]
                    if np.isfinite(R[M, N]):
                        assert abs(alone - R[M, N]) <= 1e-14 * abs(R[M, N]), (p, M, N)
                    else:
                        assert not np.isfinite(alone), (p, M, N)


class TestSeriesOracle:
    """Every series entry against the benchmark's mpmath reference."""

    @pytest.mark.parametrize("two_s", [1, 2, 3, 4])
    def test_every_entry_keeps_ten_digits(self, two_s):
        ref = bench_reference()
        for p in draw_many(two_s, 6, 4000 + two_s):
            digits = ref.entry_digits(racah_matrix(p), ref.racah_reference(p))
            assert digits.min() >= 10.0

    def test_median_entry_keeps_fourteen_digits_at_two_s_8(self):
        ref = bench_reference()
        for p in draw_many(8, 6, 4008):
            digits = ref.entry_digits(racah_matrix(p), ref.racah_reference(p))
            assert np.median(digits) >= 14.0


class TestDoubleRatioOracle:
    """Every double-ratio entry, both forms, against the benchmark's mpmath
    reference: the entrywise cross-route check of the eigen family."""

    @staticmethod
    def _tables(p):
        fam = eigen_family(build(p).A_mat, spectrum(p).theta)
        idx = np.arange(p.dim)
        return [racah_from_scalar_products(fam, idx[:, None], idx[None, :], form)
                for form in ("rac1", "rac2")]

    @pytest.mark.parametrize("two_s", [1, 2, 3, 4])
    def test_every_entry_keeps_ten_digits(self, two_s):
        ref = bench_reference()
        for p in draw_many(two_s, 6, 4000 + two_s):
            want = ref.racah_reference(p)
            for table in self._tables(p):
                assert ref.entry_digits(table, want).min() >= 10.0

    def test_median_entry_keeps_nine_and_a_half_digits_at_two_s_8(self):
        ref = bench_reference()
        for p in draw_many(8, 6, 4008):
            want = ref.racah_reference(p)
            for table in self._tables(p):
                assert np.median(ref.entry_digits(table, want)) >= 9.5

    @pytest.mark.parametrize("two_s", [1, 2, 3, 4])
    def test_every_entry_keeps_thirteen_digits(self, two_s):
        ref = bench_reference()
        for p in draw_many(two_s, 6, 4000 + two_s):
            want = ref.racah_reference(p)
            for table in self._tables(p):
                assert ref.entry_digits(table, want).min() >= 13.0

    @pytest.mark.parametrize("two_s", [8, 12, 16])
    def test_every_computed_entry_keeps_twelve_digits(self, two_s):
        # a form that meets a vanishing scalar product refuses its table
        # (1 of 12 at two_s 12, 3 of 12 at 16); every table it computes
        # keeps 12 digits in its worst entry
        ref = bench_reference()
        computed = 0
        for p in draw_many(two_s, 6, 4000 + two_s):
            want = ref.racah_reference(p)
            fam = eigen_family(build(p).A_mat, spectrum(p).theta)
            idx = np.arange(p.dim)
            for form in ("rac1", "rac2"):
                try:
                    table = racah_from_scalar_products(fam, idx[:, None], idx[None, :], form)
                except ValueError:
                    continue
                computed += 1
                assert ref.entry_digits(table, want).min() >= 12.0
        assert computed >= 9

    @pytest.mark.parametrize("two_s", range(1, 33))
    def test_family_residual_floor(self, two_s):
        # generic draws, the tridiagonal generator of each gauge
        for p in draw_many(two_s, 6, 5000 + two_s):
            sp = spectrum(p)
            for T, values in ((build(p).A_mat, sp.theta),
                              (build(p, GAUGE_THETA).Astar_mat, sp.theta_star)):
                assert np.max(eigen_family(T, values).residuals) <= 1e-14

    @pytest.mark.parametrize("two_s", [1, 2, 8, 32])
    def test_left_family_is_the_right_family_of_the_transpose(self, two_s):
        for p in draw_many(two_s, 3, 5100 + two_s):
            T, values = build(p).A_mat, spectrum(p).theta
            left = eigen_family(T, values).left
            assert left.tobytes() == eigen_family(T.T, values).right.T.tobytes()


def _on_the_locus(p, label, j):
    """p with c or b_star re-solved, and c_star = b*c/b_star, so that the
    screened parameter ``label`` equals q^(-2j)."""
    q, n, z2, a = p.base.q, p.two_s, p.zeta**2, p.base.q ** (-2 * j)
    b, c = p.b, p.c
    if label == "k_seq_dual denominator (ratio)":  # (b/c) q^(2n+2)
        c = b * q ** (2 * n + 2) / a
    bs = {
        # -(b_star/b) q^(1-n) / zeta^2 and -(c/c_star) q^(1-n) zeta^2
        "k_seq denominator (twist, minus branch)": -a * b * z2 * q ** (n - 1),
        "k_seq denominator (twist, plus branch)": -a * b / z2 * q ** (n - 1),
        # (b_star/c_star) q^(2n+2)
        "k_seq denominator (ratio)": cmath.sqrt(a * b * c) * q ** (-n - 1),
        # -(b/b_star) q^(1-n) zeta^2 and -(c_star/c) q^(1-n) / zeta^2
        "k_seq_dual denominator (twist, minus branch)": -b * z2 / a * q ** (1 - n),
        "k_seq_dual denominator (twist, plus branch)": -b / (a * z2) * q ** (1 - n),
        # -(b/c_star) q^(n+1) zeta^2 and -(b_star/c) q^(n+1) / zeta^2
        "series denominator (twist, plus branch)": -a * c / z2 * q ** (-n - 1),
        "series denominator (twist, minus branch)": -a * c * z2 * q ** (-n - 1),
    }.get(label, p.b_star)
    return replace(p, c=c, b_star=bs, c_star=b * c / bs)


_LOCI = [
    f"{seq} denominator {what}" for seq in ("k_seq", "k_seq_dual")
    for what in ("(twist, minus branch)", "(twist, plus branch)", "(ratio)")
] + ["series denominator (twist, plus branch)", "series denominator (twist, minus branch)"]


def _screen_line(label, j, n):
    """The screen's line for the locus ``label`` at order j, at two_s n."""
    seq, what = label.split(" denominator ")
    if seq == "k_seq_dual" and what != "(ratio)":
        # the two sides' twists of a branch multiply to q^(2-2n)
        return f"k_seq denominator {what} parameter hits 1 at order {n - 1 - j}"
    if what == "(ratio)":
        # a rung above two_s of the coupling ladder of the other side
        ladder = "c - b*q^(2k)" if seq == "k_seq_dual" else "c_star - b_star*q^(2k)"
        return f"{ladder} vanishes at k = {n + 1 + j}"
    return f"{label} parameter hits 1 at order {j}"


def _loci(label):
    """(j, p) with p on the locus ``label`` at order j, at two_s 3."""
    return [(j, _on_the_locus(draw_params(3, np.random.default_rng(6100 + j)), label, j))
            for j in range(3)]


@pytest.mark.parametrize("label", _LOCI)
def test_screen_flags_what_the_kernels_refuse(label):
    # each screened parameter set to q^(-2j), j < two_s: the screen names the
    # locus and the transition pair, which divides by its q-shifted
    # factorials, is refused
    for j, p in _loci(label):
        assert _screen_line(label, j, p.two_s) in validate_genericity(p)
        with pytest.raises(ValueError):
            build_transition(p)


@pytest.mark.parametrize("label", _LOCI)
def test_screen_names_each_locus_once(label):
    for j, p in _loci(label):
        lines = [m for m in validate_genericity(p)
                 if "parameter hits 1" in m or "vanishes at k" in m]
        assert lines == [_screen_line(label, j, p.two_s)]


def _ref_screen(p, tol=1e-8):
    """validate_genericity as it was written before its rungs and orders were
    formed once per call: each power, and each product, formed where it is
    used, and the spectrum's closest pair located before it is tested."""
    q, n = p.base.q, p.two_s
    for name, x, order in (("q", q, 4 * n + 4), ("zeta", p.zeta, 2)):
        if abs(cmath.log(x).real) * order > _LOG_RANGE:
            return [f"{name} out of range: |{name}|^{order} or its inverse exceeds 1e300"]
    for name, y in (("b", p.b), ("b_star", p.b_star)):
        if math.log(abs(y)) + max(0.0, math.log(abs(q)) * 4 * n) > _LOG_RANGE:
            return [f"{name} out of range: |{name}*q^(2k)| exceeds 1e300 for some k <= {2 * n}"]
    issues = []
    qk = 1.0 + 0j
    for k in range(1, 2 * n + 3):
        qk *= p.base.q2
        if abs(qk - 1.0) <= tol:
            issues.append(f"q^(2k) = 1 at k = {k}")
    qq = q ** (2 * np.arange(p.dim))
    for name, vals in (("theta", p.b * qq + p.c / qq), ("theta_star", p.b_star * qq + p.c_star / qq)):
        diff = np.abs(vals[:, None] - vals[None, :])
        diff[np.diag_indices(p.dim)] = np.inf
        i, j = np.unravel_index(np.argmin(diff), diff.shape)
        if diff[i, j] <= 1e-8 * np.max(np.abs(vals)):
            issues.append(f"spectrum: {name}[{i}] and {name}[{j}] numerically coincide "
                          f"(gap {diff[i, j]:.3e})")
            break
    for label, x, y in (("c - b*q^(2k)", p.c, p.b), ("c_star - b_star*q^(2k)", p.c_star, p.b_star)):
        for k in range(2 * n + 1):
            d = x - y * q ** (2 * k)
            if abs(d) <= tol * max(abs(x), abs(y * q ** (2 * k))):
                issues.append(f"{label} vanishes at k = {k}")
    plus, minus, k_minus, k_plus, _ = _q2_params(p)
    for label, a in (("k_seq denominator (twist, minus branch)", k_minus),
                     ("k_seq denominator (twist, plus branch)", k_plus),
                     ("series denominator (twist, plus branch)", plus),
                     ("series denominator (twist, minus branch)", minus)):
        for j in range(n):
            d = 1.0 - a * p.base.q2**j
            if abs(d) <= tol * max(1.0, abs(a * p.base.q2**j)):
                issues.append(f"{label} parameter hits 1 at order {j}")
    return issues


def test_screen_equals_the_per_use_screen():
    # the 8 loci, a coincident spectrum (q^2 = -1 folds theta_0 onto theta_2),
    # seeded draws and the fuzz configs, whose screens hold every kind of line
    loci = [p for label in _LOCI for _, p in _loci(label)]
    p, = draw_many(2, 1, 5200)
    folded = replace(p, base=QBase(1j + 1e-12))
    draws = [p for n in (1, 2, 4, 8, 16, 32) for p in draw_many(n, 3, 5200 + n)]
    lines = set()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for p in loci + [folded] + draws + fuzz_params():
            want = _ref_screen(p)
            assert validate_genericity(p) == want, p
            lines.update(m.split(" ")[0] for m in want)
    assert {"q^(2k)", "spectrum:", "c", "c_star", "k_seq", "series"} <= lines


def _scaled(p, f):
    """p with b, c, b_star and c_star multiplied by f, which multiplies both
    spectra and both tridiagonal generators by f."""
    return replace(p, b=p.b * f, c=p.c * f, b_star=p.b_star * f, c_star=p.c_star * f)


def _scale_sets():
    """Each of 40 draws at two_s 1-32 and of the fuzz configs, with its
    couplings multiplied by 2^60 and by 2^-60."""
    base = [p for n in (1, 2, 3, 4, 6, 8, 16, 32) for p in draw_many(n, 5, 5300 + n)]
    return [(p, [_scaled(p, 2.0**e) for e in (60, -60)]) for p in base + fuzz_params()]


def _rung_params():
    """A |q| < 1 pair whose rung c - b*q^16 is 1.5e-8 of its terms, which the
    screen accepts; a rung scale of max(|c|, |b|) once refused it."""
    q, b, b_star = 0.5 + 0.05j, 1 + 0.2j, 1.3 - 0.4j
    c = b * q**16 * (1 + 1.5e-8)
    return ModelParams(base=QBase(q), two_s=4, b=b, c=c, b_star=b_star, c_star=b * c / b_star,
                       zeta=1.1 + 0.3j)


def test_screen_verdict_does_not_depend_on_the_coupling_scale():
    # every row compares a gap with the size of what it separates, so one
    # power-of-two factor on the couplings, exact in binary64, moves no row;
    # a coincidence's gap scales with the spectrum, so its value is left out
    def rows(p):
        return {re.sub(r" \(gap .*\)$", "", m) for m in validate_genericity(p)}

    compared = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for p, scaled in _scale_sets():
            want = rows(p)
            for s in scaled:
                got = rows(s)
                if not any("out of range" in m for m in want | got):
                    assert got == want, (p, s.b / p.b)
                    compared += 1
    assert compared >= 300


def test_a_config_the_screen_accepts_meets_no_kernel_genericity_refusal():
    # the kernels refuse at 1e-12 the gaps that the screen refuses at 1e-8,
    # each against the same terms, so after the screen no command meets one
    accepted = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for p in [_rung_params()] + [s for p, scaled in _scale_sets() for s in (p, *scaled)]:
            if validate_genericity(p):
                continue
            accepted += 1
            for call in (lambda: build(p, GAUGE_THETA_STAR), lambda: build(p, GAUGE_THETA),
                         lambda: normalizers(p), lambda: build_transition(p)):
                try:
                    call()
                except GenericityError as exc:
                    pytest.fail(f"{exc} on {p}")
                except (ArithmeticError, ValueError):  # a numerical refusal
                    pass
    assert accepted >= 400


def _fuzz_draw(E, i):
    """The parameters of the i-th seeded fuzz config at E."""
    rng = np.random.default_rng(2200 + E)
    for _ in range(i + 1):
        data = fuzz_config(rng, E)
    return parse_config(data).params


# fuzz configs that the screen accepts and whose nu0 denominator lies between
# 1e-190 and 1e-16, which an absolute 1e-12 test once refused
@pytest.mark.parametrize("E, i", [(6, 7), (6, 24), (6, 35), (20, 8), (20, 10), (20, 30),
                                  (20, 31), (100, 3), (100, 13), (100, 14), (100, 16)])
def test_a_tiny_nu0_denominator_gives_the_normalization(E, i):
    # nu0 is the Gram diagonal of the pair: R's row and column 0 are ones, so
    # it is the sum of either normalization sequence
    p = _fuzz_draw(E, i)
    assert validate_genericity(p) == []
    k_seq, k_seq_dual, nu0 = normalizers(p)
    for k in (k_seq, k_seq_dual):
        assert abs(nu0 - k.sum()) <= 1e-14 * abs(nu0)


@pytest.mark.parametrize("i", [1, 23, 27])
def test_an_underflowed_nu0_denominator_is_refused(i):
    # each factor is clear of 0, but their product underflows to 0
    p = _fuzz_draw(100, i)
    assert validate_genericity(p) == []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # one k_seq overflows as it is built
        with pytest.raises(ValueError, match="nu0 denominator underflows binary64's range to 0"):
            normalizers(p)


class TestRecurrenceRoute:
    def test_matches_series(self):
        for two_s in (1, 2, 4):
            p = _params(two_s)
            R1 = racah_matrix(p)
            R2 = racah_by_recurrence(p)
            assert np.all(R2[0] == 1.0)
            assert np.max(np.abs(R1 - R2) / np.maximum(1.0, np.abs(R1))) <= CROSS_TOL

    @pytest.mark.parametrize("two_s", [8, 12, 16, 24, 32])
    def test_every_entry_keeps_twelve_digits(self, two_s):
        # against the benchmark's mpmath reference, past the two_s at which
        # the series and a forward propagation of the recurrence lose them
        ref = bench_reference()
        for p in draw_many(two_s, 4, 900 + two_s):
            assert ref.entry_digits(racah_by_recurrence(p), ref.racah_reference(p)).min() >= 12.0

    # fuzz draws whose up-couplings are small (|sup| 1.8e-40 to 4.1e-13) but
    # not degenerate
    @pytest.mark.parametrize("E, i", [(20, 3), (20, 26), (100, 2), (100, 19), (100, 26),
                                      (100, 32)])
    def test_small_up_couplings_keep_twelve_digits(self, E, i):
        ref = bench_reference()
        p = _fuzz_draw(E, i)
        assert ref.entry_digits(racah_by_recurrence(p), ref.racah_reference(p)).min() >= 12.0


class TestNormalizers:
    def test_zeroth_entries_are_one(self):
        p = _params(3)
        k_seq, k_seq_dual, nu0 = normalizers(p)
        assert abs(k_seq[0] - 1.0) <= 1e-12
        assert abs(k_seq_dual[0] - 1.0) <= 1e-12
        assert nu0 != 0

    def test_weighted_column_sum_vanishes(self):
        # orthogonality of rows 1 and 0 under the k weights
        p = _params(2)
        td = build_transition(p)
        total = np.sum(td.k_seq * td.R[1, :] * td.R[0, :])
        scale = np.max(np.abs(td.k_seq * td.R[1, :]))
        assert abs(total) <= 1e-10 * scale

    @staticmethod
    def _reference(q, two_s, b, c, bs, cs, zeta):
        # each entry from its own q-shifted factorials, at 60 digits
        q, b, c, bs, cs, zeta = (mp.mpc(x) for x in (q, b, c, bs, cs, zeta))
        q2 = q * q
        num = (-(bs / c) * q ** (two_s + 1) / zeta**2, -(b / cs) * q ** (two_s + 1) * zeta**2,
               bs / cs, q ** (-2 * two_s))
        den = (q2, -(bs / b) * q ** (1 - two_s) / zeta**2, -(c / cs) * q ** (1 - two_s) * zeta**2,
               (bs / cs) * q ** (2 * two_s + 2))

        def poch(params, N):
            return mp.fprod(1 - a * q2**k for a in params for k in range(N))

        return np.array([complex(poch(num, N) / poch(den, N) * (1 - (bs / cs) * q ** (4 * N))
                                 / ((b / c) ** N * (1 - bs / cs))) for N in range(two_s + 1)])

    @pytest.mark.parametrize("two_s", [1, 2, 4, 8, 16, 32])
    def test_sequences_against_mpmath(self, two_s):
        with mp.workdps(60):
            for p in draw_many(two_s, 10, 5000 + two_s):
                k_seq, k_seq_dual, _ = normalizers(p)
                args = (p.base.q, two_s, p.b, p.c, p.b_star, p.c_star)
                want = self._reference(*args, p.zeta)
                want_dual = self._reference(*args[:2], *args[4:], *args[2:4], 1.0 / p.zeta)
                for got, ref in ((k_seq, want), (k_seq_dual, want_dual)):
                    assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-12

    def test_finite_where_each_factorial_overflows(self):
        # two_s = 32 draws whose numerator and denominator factorials each
        # overflow binary64
        rng = np.random.default_rng(951)
        draws = [draw_params(n, rng) for n in (8, 16, 32) for _ in range(8)]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for i in (17, 20, 21):
                td = build_transition(draws[i])
                assert np.isfinite(td.k_seq).all() and np.isfinite(td.k_seq_dual).all()
                assert np.isfinite(orthogonality_residuals(td)).all()


class TestTransitionPair:
    def test_inverse_both_sides(self):
        for two_s in (1, 2, 3):
            p = _params(two_s)
            td = build_transition(p)
            eye = np.eye(p.dim)
            assert np.max(np.abs(td.Pinv @ td.P - eye)) <= IDENT_TOL
            assert np.max(np.abs(td.P @ td.Pinv - eye)) <= IDENT_TOL

    def test_corner_entry(self):
        p = _params(2)
        td = build_transition(p)
        assert abs(td.P[0, 0] - td.k_seq[0]) <= 1e-14

    def test_pinv_columns_are_eigenvectors(self):
        p = _params(3)
        td = build_transition(p)
        real = build(p)
        sp = spectrum(p)
        scale = np.max(np.abs(real.A_mat))
        for M in range(p.dim):
            v = td.Pinv[:, M]
            res = np.max(np.abs(real.A_mat @ v - sp.theta[M] * v))
            assert res <= 1e-8 * scale * np.max(np.abs(v))

    def test_orthogonality_sums(self):
        for two_s in (1, 4):
            p = _params(two_s)
            r1, r2 = orthogonality_residuals(build_transition(p))
            assert r1 <= 1e-8 and r2 <= 1e-8


class TestVerifyRecurrences:
    def test_generic(self):
        for two_s in (1, 3):
            p = _params(two_s)
            rec, qd = verify_recurrences(build_transition(p), p)
            assert rec <= IDENT_TOL and qd <= IDENT_TOL

    def test_detects_corruption(self):
        p = _params(2)
        td = build_transition(p)
        R = td.R.copy()
        R[1, 1] *= 1.0 + 1e-4
        bad = type(td)(R=R, k_seq=td.k_seq, k_seq_dual=td.k_seq_dual, nu0=td.nu0,
                       P=td.P, Pinv=td.Pinv)
        rec, qd = verify_recurrences(bad, p)
        assert max(rec, qd) > 1e-7


class TestScalarProductRoute:
    def _family(self, p):
        real = build(p)
        return build_transition(p), eigen_family(real.A_mat, spectrum(p).theta)

    def test_trivial_indices_are_one(self):
        p = _params(2)
        _, fam = self._family(p)
        for form in ("rac1", "rac2"):
            assert racah_from_scalar_products(fam, 0, 0, form) == 1.0
            assert abs(racah_from_scalar_products(fam, 0, 2, form) - 1.0) <= 1e-12
            assert abs(racah_from_scalar_products(fam, 2, 0, form) - 1.0) <= 1e-12

    def test_matches_series_route(self):
        for two_s in (1, 2, 3):
            p = _params(two_s)
            td, fam = self._family(p)
            for M in range(p.dim):
                for N in range(p.dim):
                    for form in ("rac1", "rac2"):
                        got = racah_from_scalar_products(fam, M, N, form)
                        want = td.R[M, N]
                        assert abs(got - want) <= CROSS_TOL * max(1.0, abs(want))

    def test_gauge_invariance_under_rescaling(self):
        # double ratios are unchanged by arbitrary per-vector rescaling
        p = _params(2)
        _, fam = self._family(p)
        D = p.dim
        sr = RNG.standard_normal(D) + 1j * RNG.standard_normal(D)
        sl = RNG.standard_normal(D) + 1j * RNG.standard_normal(D)
        scaled = type(fam)(right=fam.right * sr[None, :], left=fam.left * sl[:, None],
                           residuals=fam.residuals)
        for M in range(D):
            for N in range(D):
                for form in ("rac1", "rac2"):
                    a = racah_from_scalar_products(fam, M, N, form)
                    b = racah_from_scalar_products(scaled, M, N, form)
                    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))

    def test_index_arrays_equal_scalar_calls(self):
        for two_s in (1, 2, 3, 4):
            p, = draw_many(two_s, 1, 4200 + two_s)
            _, fam = self._family(p)
            idx = np.arange(p.dim)
            for form in ("rac1", "rac2"):
                table = racah_from_scalar_products(fam, idx[:, None], idx[None, :], form)
                assert table.shape == (p.dim, p.dim)
                for M in range(p.dim):
                    for N in range(p.dim):
                        one = racah_from_scalar_products(fam, M, N, form)
                        assert abs(table[M, N] - one) <= 1e-14 * abs(one)

    def test_one_vanishing_entry_refuses_the_array_call(self):
        p, = draw_many(3, 1, 4303)
        _, fam = self._family(p)
        left = fam.left.copy()
        left[0, 2] = 0.0  # zeroes the rac1 denominator of every entry (M, 2)
        bad = type(fam)(right=fam.right, left=left, residuals=fam.residuals)
        idx = np.arange(p.dim)
        with pytest.raises(ValueError, match="vanishing scalar product"):
            racah_from_scalar_products(bad, 1, 2, "rac1")
        with pytest.raises(ValueError, match="vanishing scalar product"):
            racah_from_scalar_products(bad, idx[:, None], idx[None, :], "rac1")
        racah_from_scalar_products(bad, idx[:, None], idx[None, :2], "rac1")
        racah_from_scalar_products(bad, idx[:, None], idx[None, :], "rac2")

    def test_unknown_form(self):
        p = _params(1)
        _, fam = self._family(p)
        with pytest.raises(ValueError, match="unknown form"):
            racah_from_scalar_products(fam, 0, 0, "rac3")
