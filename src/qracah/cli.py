"""Command line interface: config ingestion, dispatch, and reports.

Subcommands
    verify    run the full verification suite and emit a JSON report
    racah     emit the polynomial value table by a chosen route
    bethe     solve one Bethe system and emit the root sets that reproduce
              a spectrum entry
    spectrum  emit both eigenvalue sequences

Exit codes: 0 on success (for verify: overall pass), 2 on config parse
errors or genericity refusal, 1 on internal numerical failure.  Complex
numbers serialize as two-element [re, im] arrays.  Output is deterministic:
identical configs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .bethe import KINDS, SolverConfig, BetheSystem, coverage, solve
from .leonard import build, eigen_family, verify_aw, verify_cayley_hamilton
from .model import (
    GenericityError,
    ModelParams,
    spectrum,
    structure_constants,
    validate_genericity,
)
from .qnum import QBase
from .transition import (
    build_transition,
    orthogonality_residuals,
    racah_by_recurrence,
    racah_from_scalar_products,
    racah_matrix,
    verify_recurrences,
)

__all__ = ["ConfigError", "RunConfig", "load_config", "run_verify",
           "run_racah_table", "run_bethe", "run_spectrum", "main"]

_SCHEMA_VERSION = "2.0"

_TOL_DEFAULTS = {
    "identity_tol": 1e-8,
    "bethe_tol": 1e-10,
    "match_tol": 1e-6,
    "dedup_tol": 1e-6,
}


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration; message names the path."""


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    identity_tol: float
    bethe_tol: float
    match_tol: float
    dedup_tol: float
    solver: SolverConfig
    output_format: str
    output_path: str | None


def _require_map(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a JSON object")
    return obj


def _complex_field(obj, key, path, default=None):
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"{path} is required")
    v = obj[key]
    ok = (
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    )
    if not ok:
        raise ConfigError(f"{path} must be a two-element [re, im] array of numbers")
    return complex(float(v[0]), float(v[1]))


def _int_field(obj, key, path, default=None, minimum=None):
    if key not in obj:
        if default is not None:
            return default
        raise ConfigError(f"{path} is required")
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigError(f"{path} must be an integer")
    if minimum is not None and v < minimum:
        raise ConfigError(f"{path} must be >= {minimum}")
    return v


def _pos_float_field(obj, key, path, default):
    if key not in obj:
        return default
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not v > 0:
        raise ConfigError(f"{path} must be positive")
    return float(v)


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from decoded JSON, naming offending paths."""
    _require_map(data, "config")
    known = {"q", "two_s", "b", "c", "b_star", "c_star", "zeta", "m0", "chi",
             "tolerances", "output"}
    for key in data:
        if key not in known:
            raise ConfigError(f"unknown config key {key!r}")

    q = _complex_field(data, "q", "q")
    two_s = _int_field(data, "two_s", "two_s", minimum=1)
    b = _complex_field(data, "b", "b")
    c = _complex_field(data, "c", "c")
    b_star = _complex_field(data, "b_star", "b_star")
    c_star = _complex_field(data, "c_star", "c_star")
    zeta = _complex_field(data, "zeta", "zeta")
    m0 = _int_field(data, "m0", "m0", default=0)
    chi = _complex_field(data, "chi", "chi", default=1.0 + 0j)

    tols = dict(_TOL_DEFAULTS)
    if "tolerances" in data:
        block = _require_map(data["tolerances"], "tolerances")
        for key in block:
            if key not in _TOL_DEFAULTS:
                raise ConfigError(f"unknown config key tolerances.{key}")
        for key in _TOL_DEFAULTS:
            tols[key] = _pos_float_field(block, key, f"tolerances.{key}", _TOL_DEFAULTS[key])

    out_format = "json"
    out_path = None
    if "output" in data:
        block = _require_map(data["output"], "output")
        for key in block:
            if key not in ("format", "path"):
                raise ConfigError(f"unknown config key output.{key}")
        out_format = block.get("format", "json")
        if out_format not in ("json", "csv"):
            raise ConfigError('output.format must be "json" or "csv"')
        out_path = block.get("path")
        if out_path is not None and not isinstance(out_path, str):
            raise ConfigError("output.path must be a string")

    try:
        params = ModelParams(
            base=QBase(q), two_s=two_s, b=b, c=c, b_star=b_star,
            c_star=c_star, zeta=zeta, m0=m0, chi=chi,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    solver = SolverConfig(
        tol=tols["bethe_tol"], dedup_tol=tols["dedup_tol"], match_tol=tols["match_tol"],
    )
    return RunConfig(
        params=params,
        identity_tol=tols["identity_tol"],
        bethe_tol=tols["bethe_tol"],
        match_tol=tols["match_tol"],
        dedup_tol=tols["dedup_tol"],
        solver=solver,
        output_format=out_format,
        output_path=out_path,
    )


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# serialization helpers


def _ser(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _ser_vec(v) -> list[list[float]]:
    return [_ser(z) for z in np.asarray(v, dtype=complex)]


def _instance_block(cfg: RunConfig) -> dict:
    p = cfg.params
    return {
        "q": _ser(p.base.q),
        "two_s": p.two_s,
        "b": _ser(p.b),
        "c": _ser(p.c),
        "b_star": _ser(p.b_star),
        "c_star": _ser(p.c_star),
        "zeta": _ser(p.zeta),
        "m0": p.m0,
        "chi": _ser(p.chi),
        "tolerances": {
            "identity_tol": cfg.identity_tol,
            "bethe_tol": cfg.bethe_tol,
            "match_tol": cfg.match_tol,
            "dedup_tol": cfg.dedup_tol,
        },
    }


def _check(name: str, residual: float, threshold: float) -> dict:
    residual = float(residual)
    finite = np.isfinite(residual)
    return {
        "name": name,
        "residual": residual if finite else None,
        "threshold": threshold,
        "pass": bool(finite and residual < threshold),
    }


def _refuse_if_nongeneric(params: ModelParams) -> None:
    conditions = validate_genericity(params)
    if conditions:
        raise GenericityError(
            "genericity refusal:\n" + "\n".join(f"  - {c}" for c in conditions)
        )


def _double_ratio_table(fam, dim: int, form: str) -> np.ndarray:
    """The polynomial table from eigenvector double ratios of one form."""
    R = np.empty((dim, dim), dtype=complex)
    for M in range(dim):
        for N in range(dim):
            R[M, N] = racah_from_scalar_products(fam, M, N, form)
    return R


# ---------------------------------------------------------------------------
# subcommand bodies


def run_verify(cfg: RunConfig) -> dict:
    """Full verification pipeline; returns the report as a plain dict."""
    p = cfg.params
    _refuse_if_nongeneric(p)
    tol = cfg.identity_tol
    checks: list[dict] = []

    real = build(p)
    sc = structure_constants(p)
    sp = spectrum(p)

    r1, r2 = verify_aw(real, sc)
    checks.append(_check("aw1", r1, tol))
    checks.append(_check("aw2", r2, tol))
    chA, chAstar = verify_cayley_hamilton(real)
    checks.append(_check("cayley_hamilton_A", chA, tol))
    checks.append(_check("cayley_hamilton_Astar", chAstar, tol))

    fam = eigen_family(real.A_mat, sp.theta)
    checks.append(_check("eigenvector_residual_A", float(np.max(fam.residuals)), tol))

    td = build_transition(p)
    dim = p.dim
    ident = np.eye(dim)
    checks.append(_check("pinv_p_identity",
                         float(np.max(np.abs(td.Pinv @ td.P - ident))), tol))
    checks.append(_check("p_pinv_identity",
                         float(np.max(np.abs(td.P @ td.Pinv - ident))), tol))
    col_res = 0.0
    for M in range(dim):
        v = td.Pinv[:, M]
        num = float(np.max(np.abs(real.A_mat @ v - sp.theta[M] * v)))
        den = float(np.max(np.abs(real.A_mat)) * np.max(np.abs(v)))
        col_res = max(col_res, num / den)
    checks.append(_check("pinv_columns_eigenvectors", col_res, tol))

    rec, qd = verify_recurrences(td, p)
    checks.append(_check("recurrence", rec, tol))
    checks.append(_check("q_difference", qd, tol))
    o1, o2 = orthogonality_residuals(td)
    checks.append(_check("orthogonality_rows", o1, tol))
    checks.append(_check("orthogonality_columns", o2, tol))

    R = td.R
    edge = max(float(np.max(np.abs(R[0, :] - 1.0))), float(np.max(np.abs(R[:, 0] - 1.0))))
    checks.append(_check("racah_first_row_col", edge, 1e-12))
    Rrec = racah_by_recurrence(p)
    scale = float(np.max(np.abs(R)))
    checks.append(_check("racah_series_vs_recurrence",
                         float(np.max(np.abs(R - Rrec))) / scale, tol))
    rr1 = _double_ratio_table(fam, dim, "rac1")
    rr2 = _double_ratio_table(fam, dim, "rac2")
    checks.append(_check("racah_series_vs_rac1",
                         float(np.max(np.abs(R - rr1))) / scale, tol))
    checks.append(_check("racah_series_vs_rac2",
                         float(np.max(np.abs(R - rr2))) / scale, tol))

    racah_rows = []
    for M in range(dim):
        for N in range(dim):
            racah_rows.append({
                "M": M,
                "N": N,
                "series": _ser(R[M, N]),
                "double_ratio": _ser(rr1[M, N]),
                "recurrence_residual": float(abs(R[M, N] - Rrec[M, N]) / scale),
            })

    bethe_rows = []
    for kind in KINDS:
        rep = coverage(kind, p, cfg.solver)
        worst = 0.0
        for e in rep.entries:
            worst = max(worst, e.match_error if e.hit else np.inf)
            s = e.solution
            bethe_rows.append({
                "kind": kind,
                "index": e.index,
                "hit": bool(e.hit),
                "roots": _ser_vec(s.roots) if s is not None else None,
                "symmetrized": _ser_vec(s.symmetrized) if s is not None else None,
                "eigenvalue": _ser(s.reconstructed_eigenvalue) if s is not None else None,
                "matched_index": s.matched_index if s is not None else None,
                "residual": float(s.residual_max) if s is not None else None,
                "match_error": float(e.match_error) if e.hit else None,
            })
        checks.append(_check(f"bethe_coverage_{kind}", worst, cfg.match_tol))

    report = {
        "instance": _instance_block(cfg),
        "checks": checks,
        "bethe": bethe_rows,
        "racah": racah_rows,
        "pass": all(c["pass"] for c in checks),
        "versions": {"spec": _SCHEMA_VERSION},
    }
    return report


def run_racah_table(cfg: RunConfig, route: str) -> list[dict]:
    p = cfg.params
    _refuse_if_nongeneric(p)
    route = route.replace("-", "_")
    if route == "series":
        R = racah_matrix(p)
    elif route == "recurrence":
        R = racah_by_recurrence(p)
    elif route == "double_ratio":
        fam = eigen_family(build(p).A_mat, spectrum(p).theta)
        R = _double_ratio_table(fam, p.dim, "rac1")
    else:
        raise ConfigError(f"unknown route {route!r}; choose series, recurrence, double-ratio")
    rows = []
    for M in range(p.dim):
        for N in range(p.dim):
            rows.append({"M": M, "N": N, "value": _ser(R[M, N])})
    return rows


def run_bethe(cfg: RunConfig, kind: str, level: int) -> list[dict]:
    p = cfg.params
    _refuse_if_nongeneric(p)
    if kind not in KINDS:
        raise ConfigError(f"unknown kind {kind!r}; choose one of: " + ", ".join(KINDS))
    try:
        system = BetheSystem(kind, level, p)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = []
    for s in solve(system, cfg.solver):
        if s.matched_index is None:
            continue
        rows.append({
            "kind": kind,
            "level": level,
            "roots": _ser_vec(s.roots),
            "symmetrized": _ser_vec(s.symmetrized),
            "residual": float(s.residual_max),
            "eigenvalue": _ser(s.reconstructed_eigenvalue),
            "matched_index": s.matched_index,
            "match_error": float(s.match_error),
        })
    return rows


def run_spectrum(cfg: RunConfig) -> dict:
    p = cfg.params
    _refuse_if_nongeneric(p)
    sp = spectrum(p)
    return {"theta": _ser_vec(sp.theta), "theta_star": _ser_vec(sp.theta_star)}


# ---------------------------------------------------------------------------
# dispatch


def _emit(payload: str, cfg: RunConfig) -> None:
    if cfg.output_path:
        with open(cfg.output_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    else:
        sys.stdout.write(payload)


def _json_payload(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _racah_csv(rows: list[dict]) -> str:
    lines = ["M,N,re,im"]
    for r in rows:
        re_, im_ = r["value"]
        lines.append(f"{r['M']},{r['N']},{re_!r},{im_!r}")
    return "\n".join(lines) + "\n"


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qracah",
        description="Numerical realization and Bethe-root verification "
                    "for tridiagonal generator pairs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(sp_):
        sp_.add_argument("config", help="path to JSON config file")

    sp_v = sub.add_parser("verify", help="run the full verification suite")
    add_common(sp_v)
    sp_r = sub.add_parser("racah", help="emit the polynomial value table")
    add_common(sp_r)
    sp_r.add_argument("--route", required=True,
                      choices=["series", "recurrence", "double-ratio"])
    sp_b = sub.add_parser("bethe", help="solve one Bethe system")
    add_common(sp_b)
    sp_b.add_argument("--kind", required=True, choices=list(KINDS))
    sp_b.add_argument("--level", required=True, type=int)
    sp_s = sub.add_parser("spectrum", help="emit both eigenvalue sequences")
    add_common(sp_s)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "verify":
            report = run_verify(cfg)
            _emit(_json_payload(report), cfg)
            return 0 if report["pass"] else 1
        if args.command == "racah":
            rows = run_racah_table(cfg, args.route)
            if cfg.output_format == "csv":
                _emit(_racah_csv(rows), cfg)
            else:
                _emit(_json_payload(rows), cfg)
            return 0
        if args.command == "bethe":
            rows = run_bethe(cfg, args.kind, args.level)
            _emit(_json_payload(rows), cfg)
            return 0
        if args.command == "spectrum":
            _emit(_json_payload(run_spectrum(cfg)), cfg)
            return 0
        raise AssertionError("unreachable")
    except GenericityError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - boundary: report and signal failure
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
