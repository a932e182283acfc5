"""Acceptance gate: eleven go/no-go criteria.

Each test prints one `[criterion N] PASS/FAIL` line (bypassing capture) and
asserts the same condition, so the printed transcript and the pytest result
always agree.  Tolerances and draw counts are part of the gate and must not
be loosened.
"""

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from qracah.model import spectrum, structure_constants
from qracah.leonard import EigenFamily, build, eigen_family, verify_aw, verify_cayley_hamilton
from qracah.transition import (
    build_transition,
    orthogonality_residuals,
    racah_by_recurrence,
    racah_from_scalar_products,
    racah_matrix,
    verify_recurrences,
)
from qracah import bethe
from qracah.bethe import (
    BetheSystem,
    SolverConfig,
    coverage,
    dual_eigenvalue_functional,
    hom_eigenvalue_functional,
    solve,
)

from conftest import cli_env, draw_params

ACCEPT_SIZES = (1, 2, 3, 4)
DRAWS_PER_SIZE = 20


def _report(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def core_draws():
    """The seeded draws shared by criteria 1-3: 20 per size, sizes 1..4."""
    out = []
    for two_s in ACCEPT_SIZES:
        rng = np.random.default_rng(900 + two_s)
        for _ in range(DRAWS_PER_SIZE):
            out.append(draw_params(two_s, rng))
    return out


def _bf(x):
    return x - 1.0 / x


def test_criterion_01_aw_residuals(core_draws, capsys):
    t0 = time.perf_counter()
    worst = 0.0
    for p in core_draws:
        real = build(p)
        r1, r2 = verify_aw(real)
        worst = max(worst, r1, r2)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 5.0
    _report(capsys, 1, ok,
            f"aw residuals max {worst:.3e} (< 1e-10) over {len(core_draws)} draws, "
            f"{elapsed:.2f}s (< 5s)")
    assert ok


def test_criterion_02_cayley_hamilton(core_draws, capsys):
    worst = 0.0
    for p in core_draws:
        real = build(p)
        cA, cAstar = verify_cayley_hamilton(real)
        worst = max(worst, cA, cAstar)
    ok = worst < 1e-8
    _report(capsys, 2, ok, f"characteristic-polynomial residual max {worst:.3e} (< 1e-8)")
    assert ok


def test_criterion_03_transition_suite(core_draws, capsys):
    worst_inv = worst_vec = worst_rec = worst_orth = 0.0
    for p in core_draws:
        td = build_transition(p)
        real = build(p)
        sp = spectrum(p)
        dim = p.dim
        worst_inv = max(worst_inv, float(np.max(np.abs(td.Pinv @ td.P - np.eye(dim)))))
        amax = float(np.max(np.abs(real.A_mat)))
        for M in range(dim):
            v = td.Pinv[:, M]
            res = float(np.max(np.abs(real.A_mat @ v - sp.theta[M] * v)))
            worst_vec = max(worst_vec, res / (amax * float(np.max(np.abs(v)))))
        rec, qd = verify_recurrences(td, p)
        worst_rec = max(worst_rec, rec, qd)
        o1, o2 = orthogonality_residuals(td)
        worst_orth = max(worst_orth, o1, o2)
    ok = worst_inv < 1e-9 and worst_vec < 1e-8 and worst_rec < 1e-9 and worst_orth < 1e-8
    _report(capsys, 3, ok,
            f"inverse {worst_inv:.2e} (< 1e-9), eigvec {worst_vec:.2e} (< 1e-8), "
            f"recurrences {worst_rec:.2e} (< 1e-9), orthogonality {worst_orth:.2e} (< 1e-8)")
    assert ok


@pytest.fixture(scope="module")
def route_draws():
    """Ten seeded draws cycling two_s through 1..4 for criteria 4-5."""
    rng = np.random.default_rng(1300)
    out = []
    for k in range(10):
        out.append(draw_params(ACCEPT_SIZES[k % 4], rng))
    return out


def _all_routes(p):
    R = racah_matrix(p)
    Rrec = racah_by_recurrence(p)
    real = build(p)
    fam = eigen_family(real.A_mat, spectrum(p).theta)
    dim = p.dim
    R1 = np.empty((dim, dim), dtype=complex)
    R2 = np.empty((dim, dim), dtype=complex)
    for M in range(dim):
        for N in range(dim):
            R1[M, N] = racah_from_scalar_products(fam, M, N, "rac1")
            R2[M, N] = racah_from_scalar_products(fam, M, N, "rac2")
    return R, Rrec, R1, R2, fam


def test_criterion_04_cross_route_agreement(route_draws, capsys):
    worst = 0.0
    worst_edge = 0.0
    for p in route_draws:
        R, Rrec, R1, R2, _ = _all_routes(p)
        mats = [R, Rrec, R1, R2]
        scale = max(1.0, float(np.max(np.abs(R))))
        for i in range(4):
            for j in range(i + 1, 4):
                worst = max(worst, float(np.max(np.abs(mats[i] - mats[j]))) / scale)
        for m in mats:
            worst_edge = max(worst_edge,
                             float(np.max(np.abs(m[0, :] - 1.0))),
                             float(np.max(np.abs(m[:, 0] - 1.0))))
    ok = worst < 1e-8 and worst_edge < 1e-12
    _report(capsys, 4, ok,
            f"pairwise route disagreement max {worst:.3e} (< 1e-8), "
            f"first row/col deviation {worst_edge:.1e} (< 1e-12)")
    assert ok


def test_criterion_05_gauge_invariance(route_draws, capsys):
    rng = np.random.default_rng(77)
    worst = 0.0
    for p in route_draws[:4]:
        real = build(p)
        fam = eigen_family(real.A_mat, spectrum(p).theta)
        dim = p.dim
        dr = np.exp(rng.uniform(-1.0, 1.0, dim)) * np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
        dl = np.exp(rng.uniform(-1.0, 1.0, dim)) * np.exp(1j * rng.uniform(0, 2 * np.pi, dim))
        scaled = EigenFamily(
            values=fam.values,
            right=fam.right * dr[None, :],
            left=fam.left * dl[:, None],
            residuals=fam.residuals,
        )
        for M in range(dim):
            for N in range(dim):
                for form in ("rac1", "rac2"):
                    a = racah_from_scalar_products(fam, M, N, form)
                    b = racah_from_scalar_products(scaled, M, N, form)
                    worst = max(worst, abs(a - b) / max(1.0, abs(a)))
    ok = worst < 1e-12
    _report(capsys, 5, ok, f"double-ratio change under rescaling max {worst:.3e} (< 1e-12)")
    assert ok


def _probe_points_for(roots, p, rng, count=3):
    q = p.base.q
    out = []
    while len(out) < count:
        u = complex(np.exp(rng.uniform(np.log(0.6), np.log(1.7)))) * np.exp(
            1j * rng.uniform(0, 2 * np.pi))
        if min(abs(_bf(x)) for x in (u * u, q * u * u, q * q * u * u)) < 1e-2:
            continue
        if any(abs(_bf(u / v)) < 1e-2 or abs(_bf(q * u * v)) < 1e-2 for v in roots):
            continue
        out.append(u)
    return out


def test_criterion_06_homogeneous_coverage(capsys):
    rng = np.random.default_rng(60)
    probe_rng = np.random.default_rng(61)
    cfg = SolverConfig()
    ok = True
    detail = []
    worst_time = 0.0
    for d in range(5):
        p = draw_params(2, rng)
        sp = spectrum(p)
        sc = structure_constants(p)
        t0 = time.perf_counter()
        for kind, seq in (("hom_minus", sp.theta), ("hom_plus", sp.theta_star)):
            eps = -1 if kind == "hom_minus" else 1
            for level in range(3):
                sols = solve(BetheSystem(kind, level, p), cfg)
                good = [s for s in sols
                        if s.admissible and s.matched_index == level
                        and s.residual_max < 1e-9
                        and s.match_error < 1e-6]
                if not good:
                    ok = False
                    detail.append(f"draw {d} {kind} level {level}: no admissible match")
                    continue
                s = good[0]
                probes = _probe_points_for(s.roots, p, probe_rng)
                vals = [hom_eigenvalue_functional(eps, u, s.roots, p, sc) for u in probes]
                spread = max(abs(a - b) for a in vals for b in vals)
                if spread > 1e-8 * max(1.0, abs(vals[0])):
                    ok = False
                    detail.append(f"draw {d} {kind} level {level}: probe spread {spread:.2e}")
        worst_time = max(worst_time, time.perf_counter() - t0)
    if worst_time >= 60.0:
        ok = False
        detail.append(f"slowest draw {worst_time:.1f}s")
    _report(capsys, 6, ok,
            "all levels covered at 5 draws, residual < 1e-9, probe-independent to 1e-8, "
            f"slowest draw {worst_time:.2f}s (< 60s)" + ("; ".join([""] + detail)))
    assert ok


def _inhom_gate(kinds, crit_num, capsys, extra_dual_check=False):
    rng = np.random.default_rng(600 + crit_num)
    cfg = SolverConfig()
    ok = True
    details = []
    worst_match = 0.0
    worst_dual = 0.0
    for two_s in (1, 2):
        for d in range(3):
            p = draw_params(two_s, rng)
            sc = structure_constants(p)
            for kind in kinds:
                sols = solve(BetheSystem(kind, two_s, p), cfg)
                hit = {}
                for s in sols:
                    if s.admissible and s.matched_index is not None and s.residual_max < 1e-9:
                        if s.match_error < 1e-6:
                            hit[s.matched_index] = s
                            worst_match = max(worst_match, s.match_error)
                if set(hit) != set(range(p.dim)):
                    ok = False
                    details.append(f"two_s={two_s} draw={d} {kind} covered {sorted(hit)}")
                    continue
                if extra_dual_check and kind == "dual_inhom_plus":
                    probe_rng = np.random.default_rng(8000 + 10 * two_s + d)
                    for s in hit.values():
                        u = _probe_points_for(s.roots, p, probe_rng, count=1)[0]
                        lam = dual_eigenvalue_functional(u, s.roots, p, sc)
                        ref = s.reconstructed_eigenvalue
                        err = abs(lam - ref) / max(1.0, abs(ref))
                        worst_dual = max(worst_dual, err)
                        if err > 1e-8:
                            ok = False
                            details.append(f"functional mismatch {err:.2e}")
    msg = f"full spectrum coverage at two_s in (1, 2), match error max {worst_match:.2e} (< 1e-6)"
    if extra_dual_check:
        msg += f", functional vs closed form max {worst_dual:.2e} (< 1e-8)"
    if details:
        msg += "; " + "; ".join(details)
    _report(capsys, crit_num, ok, msg)
    assert ok


def test_criterion_07_inhomogeneous_coverage(capsys):
    _inhom_gate(("inhom_plus", "inhom_minus"), 7, capsys)


def test_criterion_08_dual_inhomogeneous_coverage(capsys):
    _inhom_gate(("dual_inhom_plus", "dual_inhom_minus"), 8, capsys, extra_dual_check=True)


def test_criterion_09_one_root_companion_oracle(capsys):
    rng = np.random.default_rng(90)
    q_worst = 0.0
    ok = True
    for _ in range(3):
        p = draw_params(2, rng)
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
        poly1 = np.array([1.0 + 0j])
        poly2 = np.array([1.0 + 0j])
        for A, B in first:
            poly1 = np.polymul(poly1, np.array([A, B]))
        for A, B in second:
            poly2 = np.polymul(poly2, np.array([A, B]))
        xs = np.roots(poly2 - poly1)
        genuine = [x for x in xs if min(abs(q * x - 1), abs(q * x + 1)) > 1e-6]
        sym_oracle = {complex((q * x + 1 / (q * x)) / (q + 1 / q)) for x in genuine}
        sols = solve(BetheSystem("hom_minus", 1, p), SolverConfig())
        for s in sols:
            err = min(abs(complex(s.symmetrized[0]) - o) / max(1.0, abs(o))
                      for o in sym_oracle)
            q_worst = max(q_worst, err)
            if err > 1e-8:
                ok = False
        if not sols:
            ok = False
    _report(capsys, 9, ok,
            f"solver symmetrized roots vs companion-matrix roots: max gap {q_worst:.3e} (< 1e-8)")
    assert ok


def test_criterion_10_residual_parity(capsys):
    rng = np.random.default_rng(100)
    p = draw_params(2, rng)
    npts = 100
    worst = 0.0
    for kind in bethe.KINDS:
        L = 2
        sign = -1.0 if kind in bethe.HOM_KINDS else 1.0
        rad = np.exp(rng.uniform(np.log(0.6), np.log(1.6), (npts, L)))
        ang = rng.uniform(0, 2 * np.pi, (npts, L))
        U = rad * np.exp(1j * ang)
        E0, sc0 = bethe._residual_batch(kind, U, p)
        Uf = U.copy()
        Uf[:, 0] = -Uf[:, 0]
        E1, _ = bethe._residual_batch(kind, Uf, p)
        dev = np.abs(E1[:, 0] - sign * E0[:, 0]) / np.maximum(sc0[:, 0], 1e-300)
        worst = max(worst, float(np.max(dev)))
    ok = worst < 1e-10
    _report(capsys, 10, ok,
            f"parity deviation max {worst:.3e} (< 1e-10) at {npts} points per kind")
    assert ok


def test_criterion_11_verify_determinism(tmp_path, capsys):
    b = 0.9 + 0.4j
    c = 1.2 - 0.3j
    b_star = 0.8 + 0.25j
    c_star = b * c / b_star
    config = {
        "q": [1.18, 0.0],
        "two_s": 2,
        "b": [b.real, b.imag],
        "c": [c.real, c.imag],
        "b_star": [b_star.real, b_star.imag],
        "c_star": [c_star.real, c_star.imag],
        "zeta": [1.1, 0.2],
    }
    cfgfile = tmp_path / "cfg.json"
    cfgfile.write_text(json.dumps(config))
    runs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "qracah", "verify", str(cfgfile)],
            capture_output=True, env=cli_env(), timeout=600,
        )
        runs.append(proc)
    identical = runs[0].stdout == runs[1].stdout
    passed = runs[0].returncode == 0
    ok = identical and passed and len(runs[0].stdout) > 1000
    _report(capsys, 11, ok,
            f"two verify runs byte-identical: {identical}, exit codes "
            f"{runs[0].returncode}/{runs[1].returncode}")
    assert ok, b"".join(r.stderr for r in runs).decode()
