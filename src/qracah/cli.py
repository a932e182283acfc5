"""Command line interface: config ingestion, dispatch, and reports.

Subcommands
    verify    run the full verification suite and emit a JSON report
    racah     emit the polynomial value table by a chosen route
    bethe     solve one Bethe system and emit the root sets that reproduce
              a spectrum entry
    spectrum  emit both eigenvalue sequences

Exit codes: 0 on success (for verify: overall pass), 2 on config parse errors,
an empty or unwritable output path or genericity refusal, 1 on internal
numerical failure.  Complex numbers serialize as two-element [re, im] arrays.
Output is deterministic: identical configs produce byte-identical reports.
Every command screens genericity first, then runs in one numpy error state,
so Python's warning filter changes no stdout, stderr or exit code; in
``verify`` a product past binary64's range is a null, failed check.

``verify``'s table rule: the eigen family, the recurrence table and each
double-ratio form are refused when their route raises a numerical
``ValueError`` or takes a refused table, and they or the series table when
past binary64's range, by the test with which ``racah`` exits 1.  The
recurrence and double-ratio routes both read ``eigen_family``, of A* in the
theta gauge and of A in the theta_star gauge; the series reads neither.  A
check that reads a refused table (the series one: each check against another
route) fails with a null residual, and a report column that reads it is null.

Each subcommand body imports the library modules it runs (``leonard``,
``transition``, ``bethe``), so a launch compiles only those: ``spectrum``
loads ``model`` and ``qnum`` alone, ``racah`` adds ``leonard`` and
``transition``, ``bethe`` adds ``bethe`` and ``verify`` loads all of them.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, is_dataclass
from json.encoder import encode_basestring_ascii as _json_str

import numpy as np

from .model import (KINDS, GenericityError, ModelParams, SolverConfig, _eye, spectrum,
                    validate_genericity)
from .qnum import QBase

__all__ = ["ConfigError", "RunConfig", "load_config", "run_verify",
           "run_racah_table", "run_bethe", "run_spectrum", "main"]

_SCHEMA_VERSION = "4.0"

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


def _block(obj, path: str, keys) -> dict:
    """``obj``, which must be a JSON object with no key outside ``keys``;
    ``path`` names it in messages, and is ``"config"`` for the top level."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path} must be a JSON object")
    for key in obj:
        if key not in keys:
            raise ConfigError(f"unknown config key {key!r}" if path == "config" else
                              f"unknown config key {path}.{key}")
    return obj


def _complex_field(obj, key):
    if key not in obj:
        raise ConfigError(f"{key} is required")
    v = obj[key]
    ok = (
        isinstance(v, (list, tuple))
        and len(v) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in v)
    )
    if not ok:
        raise ConfigError(f"{key} must be a two-element [re, im] array of numbers")
    if not all(abs(x) <= sys.float_info.max for x in v):  # NaN, Infinity, or past binary64
        raise ConfigError(f"{key} must be finite")
    if math.hypot(*v) > sys.float_info.max:  # finite parts, modulus past binary64
        raise ConfigError(f"{key} must be at most {sys.float_info.max:.4g} in modulus")
    return complex(float(v[0]), float(v[1]))


def _tolerance(block: dict, key: str) -> float:
    v = block.get(key, _TOL_DEFAULTS[key])
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v <= sys.float_info.max:
        raise ConfigError(f"tolerances.{key} must be positive and finite")
    return float(v)


def parse_config(data: dict) -> RunConfig:
    """Build a RunConfig from decoded JSON, naming offending paths."""
    _block(data, "config", ("q", "two_s", "b", "c", "b_star", "c_star", "zeta",
                            "tolerances", "output"))
    q = _complex_field(data, "q")
    if "two_s" not in data:
        raise ConfigError("two_s is required")
    two_s = data["two_s"]
    if isinstance(two_s, bool) or not isinstance(two_s, int):
        raise ConfigError("two_s must be an integer")
    if two_s < 1:
        raise ConfigError("two_s must be >= 1")
    b, c, b_star, c_star, zeta = (_complex_field(data, key)
                                  for key in ("b", "c", "b_star", "c_star", "zeta"))

    block = _block(data.get("tolerances", {}), "tolerances", _TOL_DEFAULTS)
    tols = {key: _tolerance(block, key) for key in _TOL_DEFAULTS}

    block = _block(data.get("output", {}), "output", ("format", "path"))
    out_format = block.get("format", "json")
    if out_format not in ("json", "csv"):
        raise ConfigError('output.format must be "json" or "csv"')
    out_path = block.get("path")
    if out_path is not None and not (isinstance(out_path, str) and out_path):
        raise ConfigError("output.path must be a non-empty string")

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
    except RecursionError as exc:
        raise ConfigError(f"config is nested too deeply to parse: {exc}") from exc
    return parse_config(data)


# ---------------------------------------------------------------------------
# serialization helpers


def _ser(z) -> list:
    """A complex number or array as nested lists, each entry an [re, im]
    pair of Python floats: one ``tolist`` of its float view."""
    return np.asarray(z, dtype=complex)[..., None].view(float).tolist()


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


def _check(name: str, residual, threshold: float) -> dict:
    """One check's record; ``residual``, folded by ``ndarray.max`` (which
    keeps a NaN), is null and fails when not finite or None (a refused
    table)."""
    residual = math.nan if residual is None else float(residual)
    finite = math.isfinite(residual)
    return {
        "name": name,
        "residual": residual if finite else None,
        "threshold": threshold,
        "pass": bool(finite and residual < threshold),
    }


def _refuse_past_binary64(table, route: str):
    """``table``, or a ``ValueError`` naming ``route`` and the first entry in
    row-major order past binary64's range: NaN or infinite."""
    finite = np.isfinite(table)
    if not finite.all():
        bad = tuple(map(int, np.argwhere(~finite)[0]))
        raise ValueError(f"{route}: non-finite table entry at (M, N) = {bad}")
    return table


def _table(route, *args):
    """``route(*args)`` under ``verify``'s table rule (module docstring), for
    a value that is a table or a dataclass of tables."""
    if any(a is None for a in args):
        return None
    try:
        value = route(*args)
        for table in vars(value).values() if is_dataclass(value) else (value,):
            _refuse_past_binary64(table, "verify")
    except ValueError:
        return None
    return value


def _entry(params: ModelParams) -> np.errstate:
    """Every command's entry rule: refuse a non-generic ``params`` before
    anything is evaluated, then return the one numpy error state the command
    runs in, so Python's warning filter is no input."""
    conditions = validate_genericity(params)
    if conditions:
        raise GenericityError(
            "genericity refusal:\n" + "\n".join(f"  - {c}" for c in conditions)
        )
    return np.errstate(all="ignore")


# ---------------------------------------------------------------------------
# subcommand bodies


def run_verify(cfg: RunConfig) -> dict:
    """Full verification pipeline; returns the report as a plain dict."""
    from .bethe import sweep
    from .leonard import GAUGE_THETA, GAUGE_THETA_STAR, _realize, eigen_family, verify_aw
    from .transition import (_recurrence_residuals, _recurrence_table, build_transition,
                             orthogonality_residuals, racah_from_scalar_products)

    p = cfg.params
    tol = cfg.identity_tol
    with _entry(p):
        sp = spectrum(p)
        real, theta_basis = _realize(GAUGE_THETA_STAR, p, sp), _realize(GAUGE_THETA, p, sp)
        checks = [_check(name, res, tol) for name, res in zip(("aw1", "aw2"), verify_aw(real))]

        fam = _table(eigen_family, real.A_mat, sp.theta)
        checks.append(_check("eigenvector_residual_A",
                             None if fam is None else fam.residuals.max(), tol))

        td = build_transition(p)
        dim = p.dim
        eye = _eye(dim)
        checks.append(_check("pinv_p_identity", np.abs(td.Pinv @ td.P - eye).max(), tol))
        checks.append(_check("p_pinv_identity", np.abs(td.P @ td.Pinv - eye).max(), tol))
        a_max = np.abs(real.A_mat).max()
        col_res = [float(np.abs(real.A_mat @ v - theta * v).max()) / float(a_max * np.abs(v).max())
                   for theta, v in zip(sp.theta, td.Pinv.T)]
        checks.append(_check("pinv_columns_eigenvectors", np.array(col_res).max(), tol))

        R = td.R
        checks += [_check(name, res, tol) for name, res in zip(
            ("recurrence", "q_difference", "orthogonality_rows", "orthogonality_columns"),
            (*_recurrence_residuals(R, theta_basis, real), *orthogonality_residuals(td)))]
        checks.append(_check("racah_first_row_col",
                             np.abs(np.concatenate((R[0, :], R[:, 0])) - 1.0).max(), 1e-12))
        series = _table(lambda: R)  # the series table, refused past binary64 by the same test
        idx = np.arange(dim)
        rec_table = _table(_recurrence_table, theta_basis)
        rac1, rac2 = (_table(racah_from_scalar_products, fam, idx[:, None], idx, form)
                      for form in ("rac1", "rac2"))
        scale = float(np.abs(R).max())
        gaps = [_table(lambda S, T: np.abs(S - T) / scale, series, T)
                for T in (rec_table, rac1, rac2)]
        checks += [_check(f"racah_series_vs_{name}", None if gap is None else gap.max(), tol)
                   for name, gap in zip(("recurrence", "rac1", "rac2"), gaps)]
        # row-major cells; each residual by Python's abs, whose last bit np.abs may round apart
        none = [None] * dim**2
        series_col, ratio_col = (none if T is None else _ser(T.ravel()) for T in (series, rac1))
        res_col = none if gaps[0] is None else [float(abs(d) / scale) for d in (R - rec_table).flat]
        racah_rows = [{"M": M, "N": N, "series": s, "double_ratio": d, "recurrence_residual": r}
                      for (M, N), s, d, r in zip(itertools.product(range(dim), repeat=2),
                                                 series_col, ratio_col, res_col)]

        bethe_rows = []
        for kind, found in sweep(p, cfg.solver).items():
            for index, s in enumerate(found):
                hit = s is not None
                z = s.reconstructed_eigenvalue if hit else None
                bethe_rows.append({
                    "kind": kind,
                    "index": index,
                    "hit": hit,
                    "roots": _ser(s.roots) if hit else None,
                    "symmetrized": _ser(s.symmetrized) if hit else None,
                    "eigenvalue": [z.real, z.imag] if hit else None,
                    "matched_index": s.matched_index if hit else None,
                    "residual": float(s.residual_max) if hit else None,
                    "match_error": float(s.match_error) if hit else None,
                })
            worst = np.array([np.inf if s is None else s.match_error for s in found]).max()
            checks.append(_check(f"bethe_coverage_{kind}", worst, cfg.solver.match_tol))

        return {
            "instance": _instance_block(cfg),
            "checks": checks,
            "bethe": bethe_rows,
            "racah": racah_rows,
            "pass": all(c["pass"] for c in checks),
            "versions": {"spec": _SCHEMA_VERSION},
        }


def run_racah_table(cfg: RunConfig, route: str) -> np.ndarray:
    """The D x D polynomial table ``R[M, N]`` by one route."""
    from .leonard import build, eigen_family
    from .transition import racah_by_recurrence, racah_from_scalar_products, racah_matrix

    p = cfg.params
    with _entry(p):
        if route == "series":
            R = racah_matrix(p)
        elif route == "recurrence":
            R = racah_by_recurrence(p)
        elif route == "double-ratio":
            real = build(p)
            fam = eigen_family(real.A_mat, real.spectrum.theta)
            idx = np.arange(p.dim)
            R = racah_from_scalar_products(fam, idx[:, None], idx, "rac1")
        else:
            raise ConfigError(f"unknown route {route!r}; choose series, recurrence, double-ratio")
        return _refuse_past_binary64(R, f"racah {route}")


def run_bethe(cfg: RunConfig, kind: str, level: int) -> list[dict]:
    from .bethe import BetheSystem, solve

    p = cfg.params
    with _entry(p):
        try:
            system = BetheSystem(kind, level, p)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        rows = []
        for s in solve(system, cfg.solver):
            if s.matched_index is None:
                continue
            z = s.reconstructed_eigenvalue
            rows.append({
                "kind": kind,
                "level": level,
                "roots": _ser(s.roots),
                "symmetrized": _ser(s.symmetrized),
                "residual": float(s.residual_max),
                "eigenvalue": [z.real, z.imag],
                "matched_index": s.matched_index,
                "match_error": float(s.match_error),
            })
        return rows


def run_spectrum(cfg: RunConfig) -> dict:
    p = cfg.params
    with _entry(p):
        sp = spectrum(p)
        return {"theta": _ser(sp.theta), "theta_star": _ser(sp.theta_star)}


# ---------------------------------------------------------------------------
# dispatch


def _emit(payload: str, cfg: RunConfig) -> None:
    if cfg.output_path is not None:
        try:
            with open(cfg.output_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        except OSError as exc:
            raise ConfigError(f"cannot write output.path: {exc}") from exc
    else:
        sys.stdout.write(payload)


# With ``indent`` set, ``json`` encodes in pure Python, one generator step per
# row, key and number.  Here ``_json_text`` lays out a report with a
# placeholder for each number, and the numbers are rendered by one C-level
# ``repr`` of their list: a table's by column, its columns slice-assigned
# between the fragments of one sample row's layout, and any other report's all
# at once; the bytes equal ``json.dumps(obj, indent=2)``.


def _reprs(column: list) -> list[str]:
    """``repr`` of each int or Python float in ``column``, from one ``repr``
    of the list; strict JSON has no NaN or infinity, so these raise ``ValueError``."""
    text = repr(column)[1:-1]
    if "n" in text:  # only ``nan``, ``inf`` and ``-inf``: no digit string holds an n
        raise ValueError("report holds a non-finite number")
    return text.split(", ") if column else []


@functools.cache
def _key_text(key: str) -> str:
    """The JSON text of object key ``key`` and its colon, ``%`` escaped."""
    return _json_str(key).replace("%", "%%") + ": "


def _json_text(value, pad: str, put) -> str:
    """``json.dumps(value, indent=2)`` nested at ``pad``, with ``%s`` for each
    number, which is passed to ``put``; a number is laid out by the loop that
    holds it, and a numpy scalar raises ``ValueError``."""
    t = type(value)
    if t is list or t is dict:
        ends, inner = "[]" if t is list else "{}", pad + "  "
        if not value:
            return ends
        # a number or an [re, im] pair of floats is laid out here, not by a call
        pair, items = f"[\n{inner}  %s,\n{inner}  %s\n{inner}]", []
        for v in value if t is list else value.values():
            tv = type(v)
            if tv is float or tv is int:
                put(v)
                items.append("%s")
            elif tv is list and len(v) == 2 and type(v[0]) is float and type(v[1]) is float:
                put(v[0])
                put(v[1])
                items.append(pair)
            else:
                items.append(_json_text(v, inner, put))
        if t is dict:
            items = [_key_text(k) + item for k, item in zip(value, items)]
        return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{pad}{ends[1]}"
    if t is str:
        return _json_str(value).replace("%", "%%")
    if value is None or t is bool:
        return "null" if value is None else "true" if value else "false"
    raise ValueError(f"report holds a value that is not a Python number: {value!r}")


def _verify_json(obj) -> str:
    """``json.dumps(obj, indent=2)`` and a newline, with one ``repr`` of all
    its numbers."""
    numbers: list = []
    template = _json_text(obj, "", numbers.append)
    return template % tuple(_reprs(numbers)) + "\n"


def _table_text(R: np.ndarray, layout: str, sep: str) -> str:
    """The rows of table ``R`` in row-major order joined by ``sep``, each
    ``layout`` with its four ``%s`` filled by M, N, re and im: one list holds
    the layout's fragments and, slice-assigned between them, the columns."""
    (rows, cols), size = R.shape, R.size
    *head, tail = layout.split("%s")
    parts = [tail + sep] * (9 * size)
    columns = ([str(M) for M in range(rows) for _ in range(cols)], [str(N) for N in range(cols)] * rows,
               _reprs(R.real.ravel().tolist()), _reprs(R.imag.ravel().tolist()))
    for i, column in enumerate(columns):
        parts[2 * i::9], parts[2 * i + 1::9] = [head[i]] * size, column
    parts[-1] = tail
    return "".join(parts)


def _racah_json(R: np.ndarray) -> str:
    """``json.dumps(rows, indent=2)`` and a newline, for the rows
    ``{"M": M, "N": N, "value": [re, im]}`` of table ``R`` in row-major order."""
    row = _json_text({"M": 0, "N": 0, "value": [0.0, 0.0]}, "  ", lambda _: None)
    return "[\n  " + _table_text(R, row, ",\n  ") + "\n]\n"


def _racah_csv(R: np.ndarray) -> str:
    return "M,N,re,im\n" + _table_text(R, "%s,%s,%s,%s\n", "")


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
        if args.command == "verify":
            report = run_verify(cfg)
            _emit(_verify_json(report), cfg)
            return 0 if report["pass"] else 1
        if args.command == "racah":
            R = run_racah_table(cfg, args.route)
            _emit(_racah_csv(R) if cfg.output_format == "csv" else _racah_json(R), cfg)
            return 0
        if args.command == "bethe":
            rows = run_bethe(cfg, args.kind, args.level)
            _emit(_verify_json(rows), cfg)
            return 0
        if args.command == "spectrum":
            _emit(_verify_json(run_spectrum(cfg)), cfg)
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
