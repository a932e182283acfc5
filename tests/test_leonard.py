"""Tests for tridiagonal realizations, algebra relation checks, eigen families."""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import bench_reference, draw_many, draw_params, fuzz_params
from qracah.leonard import (
    GAUGE_THETA,
    GAUGE_THETA_STAR,
    EigenFamily,
    TridiagonalRealization,
    _diagonals,
    build,
    coeff,
    eigen_family,
    verify_aw,
    verify_cayley_hamilton,
)
from qracah.model import GenericityError, ModelParams, _dual, spectrum, structure_constants
from qracah.qnum import QBase
from qracah.transition import racah_from_scalar_products

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
        # the indices are refused before the kind
        with pytest.raises(ValueError, match="outside"):
            coeff("nope", 0, 5, p)
        with pytest.raises(ValueError, match="unknown kind"):
            coeff("nope", 0, 1, p)


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
        # the fuzz configs in both gauges: each factor is divided by its scale
        # as it is formed, so a product whose matrix and spectrum are finite
        # stays in range, and its residual is finite and within CH_TOL
        for p in fuzz_params():
            for gauge in (GAUGE_THETA_STAR, GAUGE_THETA):
                with warnings.catch_warnings():  # the fuzz couplings overflow as they are built
                    warnings.simplefilter("ignore")
                    real = build(p, gauge)
                    residuals = verify_cayley_hamilton(real)
                sp = real.spectrum
                pairs = ((real.A_mat, sp.theta), (real.Astar_mat, sp.theta_star))
                for (mat, vals), res in zip(pairs, residuals):
                    if np.isfinite(mat).all() and np.isfinite(vals).all():
                        assert res < CH_TOL, (p, gauge)

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

    def test_values_off_the_spectrum_refused(self):
        # every value off the spectrum; an infinite value gives a NaN
        # residual, which refuses too
        p = _params(3)
        real = build(p, GAUGE_THETA_STAR)
        theta = spectrum(p).theta
        with pytest.raises(ValueError, match="value index 0 is not rank-deficient"):
            eigen_family(real.A_mat, theta + 0.5)
        with pytest.raises(ValueError, match=r"index 2 is not rank-deficient .*\(residual nan\)"):
            eigen_family(real.A_mat, np.where(np.arange(p.dim) == 2, np.inf, theta))


def _dense_null_vector(B, scale):
    """Reference copy of the dense one-system-at-a-time inverse iteration
    that the banded kernel replaced."""
    D = B.shape[0]
    eye = np.eye(D)
    best_x, best_r = None, np.inf
    for delta in (1e-13 * scale, 1e-10 * scale, 1e-7 * scale):
        x = np.ones(D, dtype=complex)
        Breg = B + delta * eye
        for _ in range(3):
            try:
                y = np.linalg.solve(Breg, x)
            except np.linalg.LinAlgError:
                break
            ny = np.max(np.abs(y))
            if not np.isfinite(ny) or ny == 0.0:
                break
            x = y / ny
            r = float(np.max(np.abs(B @ x)) / scale)
            if r < best_r:
                best_r, best_x = r, x.copy()
            if r <= 1e-13:
                break
        if best_r <= 1e-13:
            break
    pin = int(np.argmax(np.abs(best_x)))
    return best_x / best_x[pin]


def _dense_family(matrix, values):
    scale = max(np.max(np.abs(matrix)), float(np.max(np.abs(values))), 1e-300)
    eye = np.eye(matrix.shape[0])
    right = np.stack([_dense_null_vector(matrix - lam * eye, scale) for lam in values], 1)
    left = np.stack([_dense_null_vector((matrix - lam * eye).T, scale) for lam in values])
    return EigenFamily(right=right, left=left, residuals=np.zeros(len(values)))


def _ratio_table(fam, dim, form):
    idx = np.arange(dim)
    try:
        return racah_from_scalar_products(fam, idx[:, None], idx[None, :], form)
    except ValueError:
        return None


class TestBandedKernel:
    @pytest.mark.parametrize("two_s", range(1, 13))
    def test_tables_match_the_dense_family(self, two_s):
        # the tables agree to 1e-10 normwise; where the two differ by more
        # (11 tables at two_s 8-12, up to 6.1e-7 at two_s 12, draw 0), the
        # eigen_family table must be the closer one to the mpmath reference
        for p in draw_many(two_s, 4, 4400 + two_s):
            A, theta = build(p).A_mat, spectrum(p).theta
            banded, dense = eigen_family(A, theta), _dense_family(A, theta)
            for form in ("rac1", "rac2"):
                got, want = _ratio_table(banded, p.dim, form), _ratio_table(dense, p.dim, form)
                assert (got is None) == (want is None)
                if want is None:
                    continue
                scale = np.max(np.abs(want))
                if np.max(np.abs(got - want)) > 1e-10 * scale:
                    exact = bench_reference().racah_reference(p)
                    assert np.max(np.abs(got - exact)) <= np.max(np.abs(want - exact))

    def test_entry_outside_the_band_rejected(self):
        p = _params(3)
        A = build(p).A_mat.copy()
        A[0, 2] = 1e-3
        with pytest.raises(ValueError, match=r"entry \(0, 2\) lies outside the tridiagonal band"):
            eigen_family(A, spectrum(p).theta)


class TestCouplingsOnePass:
    @pytest.mark.parametrize("two_s", range(1, 33))
    def test_build_and_recurrence_equal_coeff_bitwise(self, two_s):
        p, = draw_many(two_s, 1, 4500 + two_s)
        for gauge, kind in ((GAUGE_THETA_STAR, "A"), (GAUGE_THETA, "Astar")):
            real = build(p, gauge)
            tri = real.A_mat if gauge == GAUGE_THETA_STAR else real.Astar_mat
            want = np.zeros((p.dim, p.dim), dtype=complex)
            for row in range(p.dim):
                for col in range(max(0, row - 1), min(p.dim, row + 2)):
                    want[row, col] = coeff(kind, row, col, p)
            assert tri.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# the one-loop couplings and the diagonal-only shifts against the per-entry
# formulas they replaced, bit for bit


def _ref_check_den(c, terms):
    """The product of the rungs c - y over ``terms``, each refused against the
    larger of its own two terms."""
    den = 1.0 + 0j
    for y in terms:
        f = c - y
        if abs(f) <= 1e-12 * max(abs(c), abs(y)):
            raise GenericityError(
                f"coeff: tridiagonal denominator factor vanishes (|{f:.3e}|)"
            )
        den *= f
    return den


def _ref_sub_entry(M, p):
    q, n, b, c, bs, cs, zeta = p.base.q, p.two_s, p.b, p.c, p.b_star, p.c_star, p.zeta
    num = (
        q ** (2 - 2 * n)
        * (1.0 - q ** (2 * M))
        * (c - b * q ** (2 * M + 2 * n))
        * (bs * q ** (n - 1) / zeta**2 + b * q ** (2 * M - 2))
        * (c * q ** (n - 1) * zeta**2 + cs * q ** (2 * M - 2))
    )
    den = _ref_check_den(c, (b * q ** (4 * M - 2), b * q ** (4 * M)))
    return num / den


def _ref_sup_entry(M, p):
    q, n, b, c, bs, cs, zeta = p.base.q, p.two_s, p.b, p.c, p.b_star, p.c_star, p.zeta
    num = (
        (1.0 - q ** (2 * M - 2 * n - 2))
        * (c - b * q ** (2 * M - 2))
        * (c + bs / zeta**2 * q ** (2 * M + n - 1))
        * (cs + b * zeta**2 * q ** (2 * M + n - 1))
    )
    den = _ref_check_den(c, (b * q ** (4 * M - 4), b * q ** (4 * M - 2)))
    return num / den


def _ref_diagonals(kind, p):
    """The couplings entry by entry, each power formed where it is used."""
    if kind == "A":
        p = _dual(p)
    sub, sup = [0j], [0j]
    for M in range(1, p.two_s + 1):
        sup.append(_ref_sup_entry(M, p))
        sub.append(_ref_sub_entry(M, p))
    top = p.b_star + p.c_star
    diag = [top - s - d for s, d in zip(sup[1:] + [0j], sub)]
    return sub, diag, sup


def _diagonals_of(kind, p):
    """``_diagonals`` for the side ``kind``: A's couplings are A*'s of the dual pair."""
    return _diagonals(_dual(p) if kind == "A" else p)


def _outcome(fn, *args):
    """The bytes of each list ``fn`` returns, or the type and message of what it raises."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return [np.array(x, dtype=complex).tobytes() for x in fn(*args)]
    except (ArithmeticError, ValueError) as exc:
        return type(exc), str(exc)


def _ref_cayley_hamilton(real):
    """verify_cayley_hamilton with each factor formed as
    mat * inv - (lam * inv) * eye, inv = 1 / (max|mat| + |lam|)."""
    sp = real.spectrum
    eye = np.eye(real.params.dim)
    out = []
    for mat, vals in ((real.A_mat, sp.theta), (real.Astar_mat, sp.theta_star)):
        prod = eye.astype(complex)
        size = np.max(np.abs(mat))
        for lam in vals:
            inv = 1.0 / (size + abs(lam))
            prod = prod @ (mat * inv - (lam * inv) * eye)
        out.append(float(np.max(np.abs(prod))))
    return out[0], out[1]


class TestOneLoopCouplings:
    @pytest.mark.parametrize("two_s", range(1, 33))
    def test_diagonals_equal_the_entry_formulas(self, two_s):
        for p in draw_many(two_s, 2, 4700 + two_s):
            for kind in ("A", "Astar"):
                assert _outcome(_diagonals_of, kind, p) == _outcome(_ref_diagonals, kind, p)

    def test_diagonals_equal_the_entry_formulas_on_the_fuzz_configs(self):
        for p in fuzz_params():
            for kind in ("A", "Astar"):
                assert _outcome(_diagonals_of, kind, p) == _outcome(_ref_diagonals, kind, p), p

    @pytest.mark.parametrize("two_s", [1, 2, 5])
    def test_a_vanishing_rung_is_refused_with_the_same_message(self, two_s):
        # c = b*q^(2k) (c_star = b_star*q^(2k) for kind A) at every k <= 2*two_s
        p, = draw_many(two_s, 1, 4800 + two_s)
        for k in range(2 * two_s + 1):
            on_c = replace(p, c=p.b * p.base.q ** (2 * k), c_star=p.b * p.b * p.base.q ** (2 * k)
                           / p.b_star)
            on_c_star = replace(p, c_star=p.b_star * p.base.q ** (2 * k),
                                c=p.b_star * p.b_star * p.base.q ** (2 * k) / p.b)
            for kind, locus in (("Astar", on_c), ("A", on_c_star)):
                want = _outcome(_ref_diagonals, kind, locus)
                assert want[0] is GenericityError
                assert _outcome(_diagonals_of, kind, locus) == want

    @pytest.mark.parametrize("two_s", range(1, 33))
    def test_cayley_hamilton_equals_the_dense_shift(self, two_s):
        p, = draw_many(two_s, 1, 4900 + two_s)
        for gauge in (GAUGE_THETA_STAR, GAUGE_THETA):
            real = build(p, gauge)
            assert verify_cayley_hamilton(real) == _ref_cayley_hamilton(real)


def _ref_eigen_family(matrix, values):
    """eigen_family as it was written with numpy's function forms, stacked
    pivots, and the sub*sup products formed before the error state is set."""
    matrix = np.asarray(matrix, dtype=complex)
    values = np.asarray(values, dtype=complex)
    D = matrix.shape[0]
    i, j = np.divmod(np.flatnonzero(matrix), D)
    out = np.flatnonzero(np.abs(i - j) > 1)
    if out.size:
        raise ValueError(f"eigen_family: entry ({i[out[0]]}, {j[out[0]]}) lies outside the "
                         "tridiagonal band")
    scale = max(float(np.max(np.abs(matrix))), float(np.max(np.abs(values))), 1e-300)
    sub, sup = np.diagonal(matrix, -1), np.diagonal(matrix, 1)
    ss = 0.5 * (sub * sup + sup * sub)
    dg = np.diagonal(matrix)[:, None] - values
    piv, ss = np.stack((dg, dg[::-1]), 1), np.stack((ss, ss[::-1]), 1)[:, :, None]
    k, cols = np.arange(D)[:, None], np.arange(D)
    vectors = []
    with np.errstate(all="ignore"):
        for m in range(1, D):
            piv[m] -= ss[m - 1] / piv[m - 1]
        fwd, bwd = piv[:, 0], piv[::-1, 1]
        gamma = np.abs(fwd + bwd - dg)
        twist = np.argmin(np.where(np.isfinite(gamma), gamma, np.inf), axis=0)
        above, below = k[:-1] < twist, k[1:] > twist
        for up, down in ((sup, sub), (sub, sup)):
            x = np.ones((D, D), dtype=complex)
            x[:-1] = np.where(above, -up[:, None] / fwd[:-1], 1.0)[::-1].cumprod(0)[::-1]
            x[1:] *= np.where(below, -down[:, None] / bwd[1:], 1.0).cumprod(0)
            if not np.isfinite(x).all():
                raise ValueError("eigen_family: shifted solve failed to produce a vector")
            pin = np.argmax(np.abs(x), axis=0)
            x = x / x[pin, cols]
            x[pin, cols] = 1.0
            vectors.append(x)
        right, left = vectors[0], vectors[1].T
        r_right = np.max(np.abs(matrix @ right - right * values), axis=0) / scale
        r_left = np.max(np.abs(left @ matrix - values[:, None] * left), axis=1) / scale
    residuals = np.maximum(r_right, r_left)
    bad = np.flatnonzero(~(residuals <= 1e-6))
    if bad.size:
        raise ValueError(f"eigen_family: shifted system at value index {bad[0]} is not "
                         f"rank-deficient within tolerance (residual {residuals[bad[0]]:.3e})")
    return EigenFamily(right=right, left=left, residuals=residuals)


def _family_or_refusal(route, matrix, values):
    try:
        fam = route(matrix, values)
    except ValueError as exc:
        return type(exc), str(exc)
    return tuple(a.tobytes() for a in (fam.right, fam.left, fam.residuals))


def test_eigen_family_equals_its_reference_copy():
    # bit for bit, or the same refusal, for the family of each gauge's
    # tridiagonal generator at two_s 1-12 and on the fuzz configs (12 of
    # whose families fail to produce a vector), for a value list shifted off
    # the spectrum (not rank-deficient) and for a matrix outside the band
    draws = [p for n in range(1, 13) for p in draw_many(n, 2, 8900 + n)]
    full = np.ones((3, 3), dtype=complex), np.arange(3.0)
    assert _family_or_refusal(eigen_family, *full) == _family_or_refusal(_ref_eigen_family, *full)
    refused = 0
    with warnings.catch_warnings():  # the fuzz couplings overflow as they are built
        warnings.simplefilter("ignore")
        for p in draws + fuzz_params():
            try:
                sp = spectrum(p)
                pairs = [(build(p).A_mat, sp.theta),
                         (build(p, GAUGE_THETA).Astar_mat, sp.theta_star)]
            except GenericityError:
                continue
            pairs.append((pairs[0][0], pairs[0][1] * (1.0 + 1e-3)))
            for matrix, values in pairs:
                got = _family_or_refusal(eigen_family, matrix, values)
                assert got == _family_or_refusal(_ref_eigen_family, matrix, values), p
                refused += got[0] is ValueError
    assert refused >= len(draws) + 12  # every shifted list, and the refused fuzz families
