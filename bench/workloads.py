"""The benchmark's workloads: seeded inputs, timed operations, output checks.

A workload is a fixed list of operations built from the seed.  Parameter
draws come from the test suite's own rejection sampler
(``tests/conftest.py::draw_params``).  Every operation calls qracah through
module attributes (``qracah.cli.main``, ``qracah.leonard.build``, ...) so that
the per-layer tracer sees every call.

Operations return their raw output; nothing is checked inside the timed
region.  Each operation's check then re-checks its output independently:

* a ``verify`` report must be self-consistent, and each hit Bethe row must be
  on shell (public ``residual``) and reproduce its spectrum entry (public
  ``eigenvalue_from_roots`` against ``spectrum()``);
* ``bethe`` rows that claim a match get the same re-check;
* every emitted polynomial table is compared entrywise with a
  high-precision reference, and must keep the accuracy that binary64 gives
  at its size (``ENTRY_FLOOR_DIGITS``, ``MEDIAN_FLOOR_DIGITS``).

A check that fails marks the operation as a wrong answer.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import qracah.bethe as bethe
import qracah.cli as cli
import qracah.leonard as leonard
import qracah.model as model
import qracah.transition as transition

ROOT = Path(__file__).resolve().parent.parent
SHIPPED_CONFIG = ROOT / "configs" / "generic_two_s2.json"

IDENTITY_TOL = 1e-8  # the CLI default tolerances.identity_tol
EDGE_TOL = 1e-12  # verify's threshold for the unit first row and column
MATCH_TOL = 1e-6  # the CLI default tolerances.match_tol
ENTRY_OK_DIGITS = 8  # a table entry counts as right with this many digits

# A table is a wrong answer when it falls below the accuracy binary64 keeps at
# baseline.  Up to two_s 4 every series and double-ratio entry has >= 7.7
# correct digits (1500 seeded tables per size), so every entry must keep
# ENTRY_FLOOR_DIGITS.  At any size the median entry must keep the
# MEDIAN_FLOOR_DIGITS of its route: series and recurrence medians stay >= 13
# digits up to two_s 32, and double-ratio medians >= 6 at two_s 8 to 32.
# Small entries lose most digits from two_s 8 at baseline, so the worst entry
# is not gated there.
ALL_ENTRIES_MAX_TWO_S = 4
ENTRY_FLOOR_DIGITS = 6
MEDIAN_FLOOR_DIGITS = {"series": 8, "recurrence": 8, "double_ratio": 4}

# Re-check of a Bethe root set: the residual at the roots must stay below
# RECHECK_RATIO times the residual after moving every root by RECHECK_SHIFT
# (relative).  A set off shell by more than ~1e-7 relative fails.
RECHECK_SHIFT = 1e-5
RECHECK_RATIO = 1e-2


@dataclass(frozen=True)
class Plan:
    """What one workload runs: the command, the two_s grid, draws per size."""

    command: str
    sizes: tuple[int, ...]
    draws: int
    shipped: bool = False


PLANS = {
    "verify_grid": Plan("verify", sizes=(1, 2, 3, 4), draws=6, shipped=True),
    "table_scale": Plan("table", sizes=(8, 16, 32), draws=8),
    "bethe_deep": Plan("bethe", sizes=(6, 8), draws=1),
}


class OpFailed(RuntimeError):
    """The CLI refused the input or reported a numerical failure."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object, "Tally"], None]


def load_draw_params():
    """``draw_params`` from the test suite, imported by path."""
    path = ROOT / "tests" / "conftest.py"
    spec = importlib.util.spec_from_file_location("qracah_suite_draws", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.draw_params


def _pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def config_dict(p) -> dict:
    """A CLI config for the draw; tolerances and solver keep CLI defaults."""
    return {
        "q": _pair(p.base.q),
        "two_s": p.two_s,
        "b": _pair(p.b),
        "c": _pair(p.c),
        "b_star": _pair(p.b_star),
        "c_star": _pair(p.c_star),
        "zeta": _pair(p.zeta),
    }


def cli_call(argv: list[str]) -> str:
    """Run one CLI command in process and return what it wrote to stdout.

    ``verify`` exits 1 with a full report when a check fails; that is a
    completed operation.  Exit 2 (refusal) or a failure without output
    raises ``OpFailed``.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    text = out.getvalue()
    if rc == 2 or (rc != 0 and not text):
        msg = err.getvalue().strip().splitlines()
        raise OpFailed(msg[0] if msg else f"exit code {rc}")
    return text


# ---------------------------------------------------------------------------
# output checks


@dataclass
class Tally:
    """Outcome counts of one pass's outputs, filled outside the timed region."""

    coverage_hit: int = 0
    coverage_all: int = 0
    checks_pass: int = 0
    checks_all: int = 0
    entries_ok: dict[int, int] = field(default_factory=dict)  # by two_s
    entries_all: dict[int, int] = field(default_factory=dict)
    rows_rechecked: int = 0
    wrong: list[str] = field(default_factory=list)
    digits_min: dict[str, float] = field(default_factory=dict)
    _refs: dict = field(default_factory=dict)

    def counts(self) -> dict[str, int]:
        return {
            "coverage_hit": self.coverage_hit,
            "coverage_all": self.coverage_all,
            "checks_pass": self.checks_pass,
            "checks_all": self.checks_all,
            "entries_ok": {f"two_s={n}": k for n, k in sorted(self.entries_ok.items())},
            "entries_all": {f"two_s={n}": k for n, k in sorted(self.entries_all.items())},
            "rows_rechecked": self.rows_rechecked,
            "wrong": len(self.wrong),
        }

    def racah_ok_ratio(self) -> float:
        """Share of table entries with ENTRY_OK_DIGITS, averaged over sizes so
        that the largest tables do not swamp the smaller ones; 1 without
        tables."""
        shares = [self.entries_ok[n] / self.entries_all[n] for n in self.entries_all]
        return sum(shares) / len(shares) if shares else 1.0

    def add_checks(self, records: list[dict]) -> None:
        self.checks_all += len(records)
        self.checks_pass += sum(bool(r["pass"]) for r in records)

    def add_table(self, p, source: str, route: str, values: np.ndarray) -> str | None:
        """Count a table's entries; returns why it is wrong, or None.

        ``source`` is the command that emitted it, ``route`` one of
        ``MEDIAN_FLOOR_DIGITS``."""
        from reference import entry_digits, racah_reference

        if p not in self._refs:
            self._refs[p] = racah_reference(p)
        digits = entry_digits(values, self._refs[p])
        n = p.two_s
        self.entries_all[n] = self.entries_all.get(n, 0) + digits.size
        self.entries_ok[n] = self.entries_ok.get(n, 0) + int(np.sum(digits >= ENTRY_OK_DIGITS))
        name = f"two_s={n}/{source} {route}"
        self.digits_min[name] = min(self.digits_min.get(name, 17.0), float(digits.min()))
        if n <= ALL_ENTRIES_MAX_TWO_S and digits.min() < ENTRY_FLOOR_DIGITS:
            return f"{name}: an entry has {digits.min():.1f} correct digits"
        if np.median(digits) < MEDIAN_FLOOR_DIGITS[route]:
            return f"{name}: the median entry has {np.median(digits):.1f} correct digits"
        return None

    def recheck_roots(self, p, kind: str, level: int, roots, eigenvalue, index) -> str | None:
        """None when the root set is on shell and reproduces spectrum entry
        ``index``; otherwise the reason it is wrong."""
        self.rows_rechecked += 1
        try:
            system = bethe.BetheSystem(kind, level, p)
            roots = np.array([complex(*z) for z in roots], dtype=complex)
            lam = bethe.eigenvalue_from_roots(system, roots)
            if level:
                phase = np.exp(1j * np.arange(level))
                moved = roots * (1.0 + RECHECK_SHIFT * phase)
                r0 = max(abs(bethe.residual(system, roots, i)) for i in range(level))
                r1 = max(abs(bethe.residual(system, moved, i)) for i in range(level))
                if not r0 <= RECHECK_RATIO * r1:
                    return f"{kind} L={level}: roots off shell ({r0:.2e} vs {r1:.2e})"
        except ValueError as exc:  # bad root count, PoleError, probe dependence
            return f"{kind} L={level}: {exc}"
        target = getattr(model.spectrum(p), bethe.TARGET_SPECTRUM[kind])[index]
        if abs(lam - target) > MATCH_TOL * max(1.0, abs(target)):
            return f"{kind} L={level}: eigenvalue misses index {index}"
        if abs(lam - complex(*eigenvalue)) > 1e-9 * max(1.0, abs(lam)):
            return f"{kind} L={level}: reported eigenvalue differs from its roots"
        return None


def _table_from_rows(rows: list[dict], dim: int, key: str) -> np.ndarray | None:
    table = np.full((dim, dim), np.nan + 0j)
    seen = set()
    for r in rows:
        table[r["M"], r["N"]] = complex(*r[key])
        seen.add((r["M"], r["N"]))
    return table if len(seen) == dim * dim == len(rows) else None


def check_verify(p, text: str, t: Tally) -> None:
    rep = json.loads(text)
    checks = rep["checks"]
    t.add_checks(checks)
    if rep["pass"] != all(c["pass"] for c in checks):
        t.wrong.append("verify: overall pass disagrees with its checks")
    by_name = {c["name"]: c for c in checks}
    for kind in bethe.KINDS:
        rows = [r for r in rep["bethe"] if r["kind"] == kind]
        expected = list(range(p.two_s + 1 if kind in bethe.HOM_KINDS else p.dim))
        if [r["index"] for r in rows] != expected:
            t.wrong.append(f"verify: {kind} rows do not cover every index once")
            continue
        t.coverage_all += len(rows)
        t.coverage_hit += sum(bool(r["hit"]) for r in rows)
        if by_name[f"bethe_coverage_{kind}"]["pass"] != all(r["hit"] for r in rows):
            t.wrong.append(f"verify: {kind} coverage check disagrees with its rows")
        for r in rows:
            if not r["hit"]:
                continue
            level = r["index"] if kind in bethe.HOM_KINDS else p.two_s
            why = t.recheck_roots(p, kind, level, r["roots"], r["eigenvalue"], r["index"])
            if why:
                t.wrong.append("verify: " + why)
    for route in ("series", "double_ratio"):
        table = _table_from_rows(rep["racah"], p.dim, route)
        if table is None:
            t.wrong.append("verify: racah rows do not cover the table")
            return
        why = t.add_table(p, "verify", route, table)
        if why:
            t.wrong.append(why)


def check_racah(p, route: str, text: str, t: Tally) -> None:
    table = _table_from_rows(json.loads(text), p.dim, "value")
    if table is None:
        t.wrong.append(f"racah {route}: rows do not cover the table")
        return
    why = t.add_table(p, "racah", route.replace("-", "_"), table)
    if why:
        t.wrong.append(why)


def check_bethe(p, kind: str, text: str, t: Tally) -> None:
    for r in json.loads(text):
        if r["matched_index"] is None:
            continue
        why = t.recheck_roots(p, kind, r["level"], r["roots"], r["eigenvalue"], r["matched_index"])
        if why:
            t.wrong.append("bethe: " + why)


# ---------------------------------------------------------------------------
# the non-Bethe verify checks of table_scale
#
# These are the checks ``cli.run_verify`` makes before its Bethe sweeps, which
# it cannot run without them.  The split into groups is the benchmark's own,
# so that one refusal does not skip the rest.  One "prepare" operation per
# draw builds the inputs that run_verify builds once; each group then times
# only its own checks.  Call counts on table_scale therefore follow
# run_verify's use of the layers, but the grouping is not program traffic.


def prepare(p) -> dict:
    """The inputs of run_verify's non-Bethe checks, built as it builds them."""
    real = leonard.build(p)
    sc = model.structure_constants(p)
    sp = model.spectrum(p)
    fam = leonard.eigen_family(real.A_mat, sp.theta)
    return {"real": real, "sc": sc, "theta": sp.theta, "fam": fam,
            "td": transition.build_transition(p)}


def _check(name: str, residual: float, threshold: float = IDENTITY_TOL) -> dict:
    return cli._check(name, residual, threshold)


def _maxabs(m) -> float:
    return float(np.max(np.abs(m)))


def group_relations(p, s) -> list[dict]:
    aw1, aw2 = leonard.verify_aw(s["real"], s["sc"])
    ch_a, ch_astar = leonard.verify_cayley_hamilton(s["real"])
    return [_check("aw1", aw1), _check("aw2", aw2),
            _check("cayley_hamilton_A", ch_a), _check("cayley_hamilton_Astar", ch_astar)]


def group_eigen(p, s) -> list[dict]:
    return [_check("eigenvector_residual_A", np.max(s["fam"].residuals))]


def group_transition(p, s) -> list[dict]:
    A, td = s["real"].A_mat, s["td"]
    ident = np.eye(p.dim)
    col_res = max(
        _maxabs(A @ v - lam * v) / (_maxabs(A) * _maxabs(v))
        for v, lam in zip(td.Pinv.T, s["theta"])
    )
    rec, qd = transition.verify_recurrences(td, p)
    o1, o2 = transition.orthogonality_residuals(td)
    edge = max(_maxabs(td.R[0, :] - 1.0), _maxabs(td.R[:, 0] - 1.0))
    return [
        _check("pinv_p_identity", _maxabs(td.Pinv @ td.P - ident)),
        _check("p_pinv_identity", _maxabs(td.P @ td.Pinv - ident)),
        _check("pinv_columns_eigenvectors", col_res),
        _check("recurrence", rec),
        _check("q_difference", qd),
        _check("orthogonality_rows", o1),
        _check("orthogonality_columns", o2),
        _check("racah_first_row_col", edge, EDGE_TOL),
    ]


def group_series_vs_recurrence(p, s) -> list[dict]:
    R = s["td"].R
    gap = _maxabs(R - transition.racah_by_recurrence(p)) / _maxabs(R)
    return [_check("racah_series_vs_recurrence", gap)]


def group_series_vs_double_ratio(p, s) -> list[dict]:
    R = s["td"].R
    out = []
    for form in ("rac1", "rac2"):
        rr = np.array([[transition.racah_from_scalar_products(s["fam"], M, N, form)
                        for N in range(p.dim)] for M in range(p.dim)])
        out.append(_check(f"racah_series_vs_{form}", _maxabs(R - rr) / _maxabs(R)))
    return out


CHECK_GROUPS = {
    "relations": group_relations,
    "eigen": group_eigen,
    "transition": group_transition,
    "series_vs_recurrence": group_series_vs_recurrence,
    "series_vs_double_ratio": group_series_vs_double_ratio,
}


# ---------------------------------------------------------------------------
# operation lists


def build_ops(plan: Plan, seed: int, workdir: Path) -> list[Op]:
    """The workload's fixed operation list; config files go to ``workdir``."""
    draw_params = load_draw_params()
    rng = np.random.default_rng(seed)
    draws = [draw_params(n, rng) for n in plan.sizes for _ in range(plan.draws)]
    ops: list[Op] = []
    if plan.shipped:
        shipped = cli.load_config(str(SHIPPED_CONFIG)).params
        ops.append(_verify_op("verify/shipped", shipped, str(SHIPPED_CONFIG)))
    for i, p in enumerate(draws):
        path = workdir / f"draw{i}.json"
        path.write_text(json.dumps(config_dict(p)), encoding="utf-8")
        tag = f"two_s={p.two_s}/{i}"
        if plan.command == "verify":
            ops.append(_verify_op(f"verify/{tag}", p, str(path)))
        elif plan.command == "table":
            for route in ("series", "recurrence", "double-ratio"):
                ops.append(_racah_op(f"racah {route}/{tag}", p, str(path), route))
            ops += _check_ops(tag, p)
        else:
            for kind in bethe.KINDS:
                ops.append(_bethe_op(f"bethe {kind}/{tag}", p, str(path), kind))
    return ops


def _verify_op(label, p, path):
    return Op(label, lambda: cli_call(["verify", path]),
              lambda out, t: check_verify(p, out, t))


def _racah_op(label, p, path, route):
    return Op(label, lambda: cli_call(["racah", path, "--route", route]),
              lambda out, t: check_racah(p, route, out, t))


def _bethe_op(label, p, path, kind):
    argv = ["bethe", path, "--kind", kind, "--level", str(p.two_s)]
    return Op(label, lambda: cli_call(argv), lambda out, t: check_bethe(p, kind, out, t))


def _check_ops(tag, p):
    """The prepare operation and one operation per check group; a group
    fails when its pass's prepare did."""
    inputs = {}

    def run_prepare():
        inputs.clear()
        inputs.update(prepare(p))

    def group_op(name, group):
        def run():
            if not inputs:
                raise OpFailed("prepare failed")
            return group(p, inputs)
        return Op(f"checks {name}/{tag}", run, lambda out, t: t.add_checks(out))

    return ([Op(f"checks prepare/{tag}", run_prepare, lambda out, t: None)]
            + [group_op(name, group) for name, group in CHECK_GROUPS.items()])
