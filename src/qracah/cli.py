"""Command line interface: config ingestion, dispatch, and reports.

Subcommands
    verify    run the full verification suite and emit a JSON report
    racah     emit the polynomial value table by a chosen route
    bethe     solve one Bethe system and emit the root sets that reproduce
              a spectrum entry
    spectrum  emit both eigenvalue sequences

Exit codes: 0 on success (for verify: overall pass), 2 on config parse
errors, an unwritable output path or genericity refusal, 1 on internal
numerical failure.  Complex numbers serialize as two-element [re, im]
arrays.  Output is deterministic: identical configs produce byte-identical
reports.

Each subcommand body imports the library modules it runs (``leonard``,
``transition``, ``bethe``), so a launch compiles only those: ``spectrum``
loads ``model`` and ``qnum`` alone, ``racah`` adds ``leonard`` and
``transition``, ``bethe`` adds ``bethe`` and ``verify`` loads all of them.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .model import KINDS, GenericityError, ModelParams, SolverConfig, spectrum, validate_genericity
from .qnum import QBase

__all__ = ["ConfigError", "RunConfig", "load_config", "run_verify",
           "run_racah_table", "run_bethe", "run_spectrum", "main"]

_SCHEMA_VERSION = "3.0"

_TOL_DEFAULTS = {
    "identity_tol": 1e-8,
    "bethe_tol": SolverConfig.tol,
    "match_tol": SolverConfig.match_tol,
    "dedup_tol": SolverConfig.dedup_tol,
}


class ConfigError(ValueError):
    """Malformed or inconsistent run configuration; message names the path."""


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    identity_tol: float
    solver: SolverConfig
    output_format: str
    output_path: str | None


def _require_map(obj, path):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a JSON object")
    return obj


def _complex_field(obj, key, path):
    if key not in obj:
        raise ConfigError(f"{path} is required")
    v = obj[key]
    ok = (
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    )
    if not ok:
        raise ConfigError(f"{path} must be a two-element [re, im] array of numbers")
    if not all(abs(x) <= sys.float_info.max for x in v):  # NaN, Infinity, or past binary64
        raise ConfigError(f"{path} must be finite")
    return complex(float(v[0]), float(v[1]))


def _int_field(obj, key, path, minimum=None):
    if key not in obj:
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
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v <= sys.float_info.max:
        raise ConfigError(f"{path} must be positive and finite")
    return float(v)


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from decoded JSON, naming offending paths."""
    _require_map(data, "config")
    known = {"q", "two_s", "b", "c", "b_star", "c_star", "zeta", "tolerances", "output"}
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
            c_star=c_star, zeta=zeta,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    solver = SolverConfig(
        tol=tols["bethe_tol"], dedup_tol=tols["dedup_tol"], match_tol=tols["match_tol"],
    )
    return RunConfig(
        params=params,
        identity_tol=tols["identity_tol"],
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
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# serialization helpers


def _ser(z: complex) -> list[float]:
    z = complex(z)
    return [float(z.real), float(z.imag)]


def _ser_vec(v) -> list[list[float]]:
    """[_ser(z) for z in v], from one ``tolist`` per part."""
    v = np.asarray(v, dtype=complex)
    return [list(z) for z in zip(v.real.tolist(), v.imag.tolist())]


def _ser_table(R: np.ndarray) -> list[list[list[float]]]:
    """table[M][N] == _ser(R[M, N]), from one ``tolist`` per part."""
    return [[list(z) for z in zip(*parts)] for parts in zip(R.real.tolist(), R.imag.tolist())]


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
        "tolerances": {
            "identity_tol": cfg.identity_tol,
            "bethe_tol": cfg.solver.tol,
            "match_tol": cfg.solver.match_tol,
            "dedup_tol": cfg.solver.dedup_tol,
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
    from .transition import racah_from_scalar_products

    idx = np.arange(dim)
    return racah_from_scalar_products(fam, idx[:, None], idx[None, :], form)


# ---------------------------------------------------------------------------
# subcommand bodies


def run_verify(cfg: RunConfig) -> dict:
    """Full verification pipeline; returns the report as a plain dict."""
    from .bethe import sweep
    from .leonard import _setup, eigen_family, verify_aw, verify_cayley_hamilton
    from .transition import (_recurrence_residuals, _recurrence_table, build_transition,
                             orthogonality_residuals)

    p = cfg.params
    _refuse_if_nongeneric(p)
    tol = cfg.identity_tol
    checks: list[dict] = []

    setup = _setup(p)
    real, sp = setup.theta_star_basis, setup.theta_star_basis.spectrum

    r1, r2 = verify_aw(real, setup.constants)
    checks.append(_check("aw1", r1, tol))
    checks.append(_check("aw2", r2, tol))
    chA, chAstar = verify_cayley_hamilton(real)
    checks.append(_check("cayley_hamilton_A", chA, tol))
    checks.append(_check("cayley_hamilton_Astar", chAstar, tol))

    try:
        fam = eigen_family(real.A_mat, sp.theta)
    except ValueError:  # the iteration refused: failed checks, not a crash
        fam, eig_res = None, np.nan
    else:
        eig_res = float(np.max(fam.residuals))
    checks.append(_check("eigenvector_residual_A", eig_res, tol))

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

    rec, qd = _recurrence_residuals(td.R, setup.theta_basis, real)
    checks.append(_check("recurrence", rec, tol))
    checks.append(_check("q_difference", qd, tol))
    o1, o2 = orthogonality_residuals(td)
    checks.append(_check("orthogonality_rows", o1, tol))
    checks.append(_check("orthogonality_columns", o2, tol))

    R = td.R
    edge = max(float(np.max(np.abs(R[0, :] - 1.0))), float(np.max(np.abs(R[:, 0] - 1.0))))
    checks.append(_check("racah_first_row_col", edge, 1e-12))
    Rrec = _recurrence_table(sp.theta_star, setup.theta_basis.diagonals)
    scale = float(np.max(np.abs(R)))
    checks.append(_check("racah_series_vs_recurrence",
                         float(np.max(np.abs(R - Rrec))) / scale, tol))
    ratio_tables = {}
    for form in ("rac1", "rac2"):
        gap = np.nan  # no family, or the route refused: a failed check
        if fam is not None:
            try:
                ratio_tables[form] = _double_ratio_table(fam, dim, form)
            except ValueError:
                pass
            else:
                gap = float(np.max(np.abs(R - ratio_tables[form]))) / scale
        checks.append(_check(f"racah_series_vs_{form}", gap, tol))
    rr1 = ratio_tables.get("rac1")

    series = _ser_table(R)
    ratio = None if rr1 is None else _ser_table(rr1)
    racah_rows = [{"M": M, "N": N, "series": series[M][N],
                   "double_ratio": None if ratio is None else ratio[M][N],
                   "recurrence_residual": float(abs(R[M, N] - Rrec[M, N]) / scale)}
                  for M in range(dim) for N in range(dim)]

    bethe_rows = []
    for rep in sweep(p, cfg.solver):
        kind = rep.kind
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
        checks.append(_check(f"bethe_coverage_{kind}", worst, cfg.solver.match_tol))

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
    from .leonard import build, eigen_family
    from .transition import racah_by_recurrence, racah_matrix

    p = cfg.params
    _refuse_if_nongeneric(p)
    route = route.replace("-", "_")
    if route == "series":
        R = racah_matrix(p)
    elif route == "recurrence":
        R = racah_by_recurrence(p)
    elif route == "double_ratio":
        real = build(p)
        fam = eigen_family(real.A_mat, real.spectrum.theta)
        R = _double_ratio_table(fam, p.dim, "rac1")
    else:
        raise ConfigError(f"unknown route {route!r}; choose series, recurrence, double-ratio")
    table = _ser_table(R)
    return [{"M": M, "N": N, "value": table[M][N]}
            for M in range(p.dim) for N in range(p.dim)]


def run_bethe(cfg: RunConfig, kind: str, level: int) -> list[dict]:
    from .bethe import BetheSystem, solve

    p = cfg.params
    _refuse_if_nongeneric(p)
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
        try:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write output.path: {exc}") from exc
    else:
        sys.stdout.write(payload)


def _json_payload(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


# With ``indent`` set, ``json`` encodes in pure Python, one generator step per
# row, key and number.  Here the numbers are rendered by one C-level ``repr``
# of their list: a table's by column, its rows filling one template, and a
# verify report's all at once; the bytes equal ``json.dumps(obj, indent=2)``.

# ``json``'s words for the reprs ``nan``, ``inf`` (so ``-inf`` too) and ``None``;
# no digit string holds these letters
_JSON_WORDS = (("nan", "NaN"), ("inf", "Infinity"), ("None", "null"))


def _columns(rows: list[dict]) -> list[tuple[str, list[list]]]:
    """Each field of records that share their keys, with its columns: one for
    an int or float field, the real and imaginary parts for an ``[re, im]``
    field, none for a field that is null in every row."""
    fields = []
    for key, first in rows[0].items():
        col = [r[key] for r in rows]
        if isinstance(first, list):
            fields.append((key, [[v[0] for v in col], [v[1] for v in col]]))
        elif first is None and all(v is None for v in col):
            fields.append((key, []))
        else:
            fields.append((key, [col]))
    return fields


def _reprs(column: list, words=()) -> list[str]:
    """``repr`` of each int, Python float or None in ``column``, from one
    ``repr`` of the list, with each ``(old, new)`` of ``words`` replaced.

    A numpy scalar, which numpy 2 prints as ``np.float64(...)``, or a nested
    value raises ``ValueError``."""
    text = repr(column)[1:-1]
    for old, new in words:
        text = text.replace(old, new)
    cells = text.split(", ")
    if "(" in text or len(cells) != len(column):
        raise ValueError("table column holds a value that is not a Python number")
    return cells


def _racah_json(rows: list[dict]) -> str:
    """``_json_payload(rows)`` of non-empty records that share their keys and
    field shapes."""
    fields = _columns(rows)
    lines = []
    for key, cols in fields:
        if len(cols) == 2:
            value = "[\n      %s,\n      %s\n    ]"
        else:
            value = "%s" if cols else "null"
        lines.append(f'    "{key}": {value}')
    template = "  {\n" + ",\n".join(lines) + "\n  }"
    cells = [_reprs(col, _JSON_WORDS) for _, cols in fields for col in cols]
    return "[\n" + ",\n".join(template % row for row in zip(*cells)) + "\n]\n"


def _json_text(value, pad: str, put) -> str:
    """``json.dumps(value, indent=2)`` nested at ``pad``, with ``%s`` for each
    number, which is passed to ``put``; a numpy scalar raises ``ValueError``."""
    t = type(value)
    if t is float or t is int:
        put(value)
        return "%s"
    if t is list or t is dict:
        ends, inner = "[]" if t is list else "{}", pad + "  "
        if not value:
            return ends
        items = ([_json_text(v, inner, put) for v in value] if t is list else
                 [f"{_json_str(k)}: {_json_text(v, inner, put)}" for k, v in value.items()])
        return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"
    if t is str:
        return _json_str(value).replace("%", "%%")
    if value is None or t is bool:
        return "null" if value is None else "true" if value else "false"
    raise ValueError(f"report holds a value that is not a Python number: {value!r}")


def _verify_json(report: dict) -> str:
    """``_json_payload(report)``, with one ``repr`` of all its numbers."""
    numbers: list = []
    template = _json_text(report, "", numbers.append)
    return template % tuple(_reprs(numbers, _JSON_WORDS)) + "\n"


def _racah_csv(rows: list[dict]) -> str:
    cells = [_reprs(col) for _, cols in _columns(rows) for col in cols]
    return "M,N,re,im\n" + "".join("%s,%s,%s,%s\n" % row for row in zip(*cells))


@functools.cache
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
            _emit(_verify_json(report), cfg)
            return 0 if report["pass"] else 1
        if args.command == "racah":
            rows = run_racah_table(cfg, args.route)
            if cfg.output_format == "csv":
                _emit(_racah_csv(rows), cfg)
            else:
                _emit(_racah_json(rows), cfg)
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
