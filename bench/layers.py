"""Per-layer tracing of the six qracah modules from outside the package.

``Tracer.install`` replaces each traced public function by a timing wrapper in
every qracah module namespace that holds it, so calls through ``from .x import
f`` bindings are caught as well as calls through the defining module.
``uninstall`` puts the originals back.  No qracah source is touched.

Each wrapper records calls, inclusive time and self time (inclusive time
minus the time of traced calls made inside it).  A few wrappers also record
layer-specific counts: time per Bethe kind for ``coverage``, and the returned,
admissible and matched solutions and the starts spent for ``solve``.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

LAYERS = ("cli", "model", "qnum", "leonard", "transition", "bethe")

TRACED = {
    "cli": ("main", "load_config", "run_verify", "run_racah_table", "run_bethe"),
    "model": ("spectrum", "structure_constants", "validate_genericity"),
    "qnum": ("phi43", "qpoch"),
    "leonard": ("build", "verify_aw", "verify_cayley_hamilton", "eigen_family", "coeff"),
    "transition": (
        "build_transition",
        "racah_matrix",
        "racah_by_recurrence",
        "normalizers",
        "racah_from_scalar_products",
        "verify_recurrences",
        "orthogonality_residuals",
    ),
    "bethe": ("coverage", "solve", "eigenvalue_from_roots"),
}

SOLVE_COUNTS = ("returned", "admissible", "matched")


def _observe_coverage(stats, args, kwargs, result, dt):
    kind = args[0] if args else kwargs["kind"]
    stats[f"bethe.coverage.{kind}.s"] += dt


def _observe_solve(stats, args, kwargs, result, dt):
    from qracah.bethe import SolverConfig

    cfg = args[1] if len(args) > 1 else kwargs.get("cfg") or SolverConfig()
    stats["bethe.solve.starts"] += cfg.starts
    stats["bethe.solve.returned"] += len(result)
    stats["bethe.solve.admissible"] += sum(s.admissible for s in result)
    stats["bethe.solve.matched"] += sum(s.matched_index is not None for s in result)


_OBSERVERS = {"bethe.coverage": _observe_coverage, "bethe.solve": _observe_solve}


class Tracer:
    """Collects per-function counters for one pass; ``reset`` starts anew."""

    def __init__(self):
        self.stats: defaultdict[str, float] = defaultdict(float)
        self._children: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.stats = defaultdict(float)

    def _wrap(self, key: str, fn):
        observe = _OBSERVERS.get(key)

        def traced(*args, **kwargs):
            self._children.append(0.0)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = time.perf_counter() - t0
                inner = self._children.pop()
                if self._children:
                    self._children[-1] += dt
                st = self.stats
                st[key + ".calls"] += 1
                st[key + ".s"] += dt
                st[key + ".self_s"] += dt - inner
                if observe is not None and result is not None:
                    observe(st, args, kwargs, result, dt)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        import qracah  # noqa: F401  (loads every layer module)

        namespaces = [sys.modules["qracah"]] + [sys.modules[f"qracah.{m}"] for m in LAYERS]
        for layer, names in TRACED.items():
            home = sys.modules[f"qracah.{layer}"]
            for name in names:
                orig = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", orig)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is orig:
                            self._patches.append((ns, attr, orig))
                            setattr(ns, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            ns, attr, orig = self._patches.pop()
            setattr(ns, attr, orig)


def layer_metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) for every per-layer metric, in output order."""
    from qracah.bethe import KINDS

    out = []
    for layer, names in TRACED.items():
        for name in names:
            out.append((f"{layer}.{name}.calls", "count", "lower"))
            out.append((f"{layer}.{name}.s", "s", "lower"))
            out.append((f"{layer}.{name}.self_s", "s", "lower"))
        out.append((f"{layer}.self_s", "s", "lower"))
    out += [(f"bethe.coverage.{k}.s", "s", "lower") for k in KINDS]
    out += [(f"bethe.solve.{c}", "count", "higher") for c in SOLVE_COUNTS]
    out.append(("bethe.matched_per_start", "1", "higher"))
    out.append(("cli.report_bytes", "bytes", "lower"))
    out.append(("trace_overhead_s", "s", "lower"))
    return out


def layer_values(stats: dict) -> dict[str, float]:
    """Per-layer values of one pass from its raw counters; the benchmark
    fills in ``cli.report_bytes`` and ``trace_overhead_s`` itself."""
    out = {name: float(stats.get(name, 0.0)) for name, _, _ in layer_metric_names()}
    for layer, names in TRACED.items():
        out[f"{layer}.self_s"] = sum(out[f"{layer}.{n}.self_s"] for n in names)
    starts = stats.get("bethe.solve.starts", 0.0)
    out["bethe.matched_per_start"] = out["bethe.solve.matched"] / starts if starts else 0.0
    return out
