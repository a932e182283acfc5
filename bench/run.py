"""qracah benchmark: one command for every workload, metric and output check.

Usage (from the repository root):

    python3 bench/run.py --workload verify_grid --seed 1 --seconds 15 --trace 0

Workloads are defined in ``workloads.py`` and described in ``README.md``.
A run builds the workload's fixed operation list from ``--seed`` and repeats
it for about ``--seconds`` seconds, always finishing whole passes (at least
one).  Times are corrected for the speed of the shared host; see
``HostClock``.  Outputs are checked after the timed region.  With ``--trace 0`` the last line of
stdout carries the end-to-end metrics; with ``--trace 1`` passes alternate
between untraced and traced and the last line carries the per-layer metrics.
The line before it is a JSON block with the host, the sample counts behind
every statistic, the bases of every ratio and the failures seen.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads: single-process runs on a 2-core box.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NEEDED = (SRC / "qracah" / "cli.py", ROOT / "tests" / "conftest.py",
          ROOT / "configs" / "generic_two_s2.json")

END_TO_END = ("wall_s", "op_s_gmean", "setup_s", "peak_rss_mb",
              "coverage_ratio", "checks_pass_ratio", "racah_ok_ratio")
UNITS = {"wall_s": "s", "op_s_gmean": "s", "setup_s": "s", "peak_rss_mb": "MiB",
         "coverage_ratio": "1", "checks_pass_ratio": "1", "racah_ok_ratio": "1"}
SETUP_REPS = 9
P90_MIN_SAMPLES = 100  # p90 is reported only with >= 10 samples above it

# Host-speed correction.  The box is shared, and the same work can take twice
# as long from one second to the next.  A fixed calibration loop runs between
# pieces of work, at least every CAL_INTERVAL_S seconds of work.  A piece's
# time is rescaled by CAL_REF_S over the mean of the calibration times just
# before and just after it.  CAL_REF_S is the loop's typical time on the
# reference host (2-core x86 VM, python 3.11, numpy 2.4).  Only ratios
# between runs matter.
CAL_INTERVAL_S = 0.25
CAL_REF_S = 0.030
# The set-up launches are corrected the same way by a fresh interpreter that
# only imports numpy; SETUP_REF_S is its typical time on the reference host.
SETUP_REF_S = 0.18


def calibration_loop() -> complex:
    """Fixed work that touches no qracah code: small complex numpy updates
    driven from Python loops, the same mix as the solver and the tables."""
    import numpy as np

    x = np.linspace(0.5, 1.5, 400) * (1 + 0.3j)
    acc = 0j
    for i in range(1500):
        y = x * x - 1.0 / x
        x = x + 1e-3 * y / (1.0 + np.abs(y))
        z = complex(x[i % 400])
        for _ in range(20):
            z = z * (0.999 + 1e-3j) - 1.0 / (z + 3.0)
        acc += z
    return acc


class HostClock:
    """Times pieces of work and corrects them for the host's speed.

    ``probe`` is fixed work that qracah cannot change.  It runs before the
    first piece and again after every ``interval`` seconds of work.  A piece's
    corrected time is its time x ``ref_s`` / the mean probe time around it.
    """

    def __init__(self, probe=calibration_loop, ref_s: float = CAL_REF_S,
                 interval: float = CAL_INTERVAL_S):
        self.probe = probe
        self.ref_s = ref_s
        self.interval = interval
        self.cal: list[float] = []
        self._since = 0.0
        probe()  # warm-up, not recorded

    def calibrate(self) -> None:
        t0 = time.perf_counter()
        self.probe()
        self.cal.append(time.perf_counter() - t0)
        self._since = 0.0

    def run(self, fn):
        """Run ``fn``; returns its value, its raw seconds and its slot."""
        if not self.cal:
            self.calibrate()
        slot = len(self.cal)
        t0 = time.perf_counter()
        value = fn()
        dt = time.perf_counter() - t0
        self._since += dt
        if self._since >= self.interval:
            self.calibrate()
        return value, dt, slot

    def finish(self) -> None:
        """Calibrate once more, so the last piece has a sample after it."""
        self.calibrate()

    def corrected(self, dt: float, slot: int) -> float:
        return dt * self.ref_s / (0.5 * (self.cal[slot - 1] + self.cal[slot]))


def setup_seconds(reps: int) -> tuple[list[float], list[float], list[float]]:
    """Corrected and raw wall times of fresh ``python -m qracah spectrum
    <shipped config>`` runs, and the probe times used to correct them.

    Each launch is corrected by the launches of a fresh ``python -c "import
    numpy"`` just before and after it: process start-up and numpy's import
    slow down with the host in ways the in-process calibration loop does not
    see.  The child gets an absolute ``src`` on PYTHONPATH so that it does not
    depend on its working directory.
    """
    from workloads import SHIPPED_CONFIG

    env = dict(os.environ, PYTHONPATH=str(SRC))

    def launch(argv):
        return subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=False)

    def numpy_launch():
        if launch([sys.executable, "-c", "import numpy"]).returncode != 0:
            raise RuntimeError("setup: python -c 'import numpy' failed")

    argv = [sys.executable, "-m", "qracah", "spectrum", str(SHIPPED_CONFIG)]
    clock = HostClock(numpy_launch, SETUP_REF_S, interval=0.0)
    runs = []
    for _ in range(reps):
        proc, dt, slot = clock.run(lambda: launch(argv))
        if proc.returncode != 0 or "theta_star" not in json.loads(proc.stdout):
            raise RuntimeError(f"setup run failed: {proc.stderr.strip()}")
        runs.append((dt, slot))
    return ([clock.corrected(dt, slot) for dt, slot in runs], [dt for dt, _ in runs],
            clock.cal)


def host_block() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def _attempt(op):
    try:
        return op.run(), None
    except Exception as exc:  # noqa: BLE001 - a failed operation is counted, not fatal
        return None, f"{type(exc).__name__}: {exc}"


def run_pass(ops, clock, first=None, tracer=None):
    """One pass over the operation list: per-op times and errors.

    The first pass keeps its outputs.  A later pass keeps only whether each
    output repeats the first pass's, so memory does not grow with passes.
    """
    from layers import layer_values

    if tracer is not None:
        tracer.reset()
        tracer.install()
    times, slots, outs, errors, same = [], [], [], [], []
    report_bytes = 0
    try:
        for i, op in enumerate(ops):
            (out, err), dt, slot = clock.run(lambda: _attempt(op))
            times.append(dt)
            slots.append(slot)
            errors.append(err)
            if isinstance(out, str):
                report_bytes += len(out.encode())
            if first is None:
                outs.append(out)
            else:
                # json.dumps makes NaN residuals compare equal to themselves
                same.append(err == first["errors"][i]
                            and json.dumps(out) == json.dumps(first["outs"][i]))
    finally:
        if tracer is not None:
            tracer.uninstall()
    layer = None
    if tracer is not None:
        layer = layer_values(tracer.stats)
        layer["cli.report_bytes"] = float(report_bytes)
    return {"times": times, "slots": slots, "outs": outs, "errors": errors, "same": same,
            "layer": layer}


def measure(ops, seconds: float, trace: bool):
    """Whole rounds for about ``seconds``: another round starts only while
    less than half a round's time is left to fill.  A round is one untraced
    pass, plus one traced pass when tracing; there is at least one.

    Adds each pass's corrected op times (``ref``) and corrected wall time."""
    from layers import Tracer

    tracer = Tracer() if trace else None
    clock = HostClock()
    plain, traced = [], []
    t0 = time.perf_counter()
    while True:
        plain.append(run_pass(ops, clock, plain[0] if plain else None))
        if tracer is not None:
            traced.append(run_pass(ops, clock, plain[0], tracer))
        elapsed = time.perf_counter() - t0
        if elapsed + 0.5 * elapsed / len(plain) >= seconds:
            break
    clock.finish()
    for ps in plain + traced:
        ps["ref"] = [clock.corrected(dt, slot) for dt, slot in zip(ps["times"], ps["slots"])]
        ps["wall"] = math.fsum(ps["ref"])
    return plain, traced, clock.cal


def check_outputs(ops, passes, tally) -> set[int]:
    """Check the first pass's outputs into ``tally``; later passes must repeat
    them exactly.  Returns the indices of operations with a wrong answer."""
    first = passes[0]
    wrong_ops = set()
    for i, (op, out, err) in enumerate(zip(ops, first["outs"], first["errors"])):
        if err is not None:
            continue
        before = len(tally.wrong)
        try:
            op.check(out, tally)
        except (KeyError, TypeError, ValueError) as exc:
            tally.wrong.append(f"{op.label}: malformed output ({type(exc).__name__}: {exc})")
        if len(tally.wrong) > before:
            wrong_ops.add(i)
    for ps in passes[1:]:
        for i, op in enumerate(ops):
            if not ps["same"][i]:
                tally.wrong.append(f"{op.label}: output differs between passes")
                wrong_ops.add(i)
    return wrong_ops


def layer_metrics(plain, traced, tally) -> dict:
    """Per-layer metrics: medians over traced passes; counts must repeat."""
    from layers import layer_metric_names

    out = {}
    for key, unit, _ in layer_metric_names():
        if key == "trace_overhead_s":
            value = (statistics.median(ps["wall"] for ps in traced)
                     - statistics.median(ps["wall"] for ps in plain))
        else:
            values = [ps["layer"][key] for ps in traced]
            if unit == "count" and len(set(values)) > 1:
                tally.wrong.append(f"{key}: count differs between traced passes")
            value = statistics.median(values)
        out[key] = {"value": float(value), "unit": unit}
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, plan=None,
                 setup_reps: int = SETUP_REPS) -> tuple[dict, dict]:
    """Run one workload; returns (result line, details block)."""
    import workloads

    plan = plan or workloads.PLANS[name]
    # setup_s is an end-to-end metric: a traced run does not measure it.
    setup, setup_raw, setup_probe = setup_seconds(setup_reps) if not trace else ([], [], [])
    # The draws' config files stay inside the checkout, like every file the
    # benchmark writes.
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        ops = workloads.build_ops(plan, seed, Path(tmp))
        workloads.cli_call(["spectrum", str(workloads.SHIPPED_CONFIG)])  # warm-up, untimed
        plain, traced, cal_times = measure(ops, seconds, trace)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    passes = plain + traced
    tally = workloads.Tally()
    wrong_ops = check_outputs(ops, passes, tally)
    if trace:
        metrics = layer_metrics(plain, traced, tally)

    # attempted and failed count operations of the list, not repeats: how many
    # passes fit into --seconds depends on the host, and the counts must not.
    # A later pass that raises where the first did not is in wrong_ops.
    failures: dict[str, int] = {}
    for err in plain[0]["errors"]:
        if err is not None:
            failures[err] = failures.get(err, 0) + 1
    failed_ops = {i for i, err in enumerate(plain[0]["errors"]) if err is not None}
    failed = len(failed_ops | wrong_ops)
    attempted = len(ops)

    op_times = [t for ps in plain for t in ps["ref"]]
    walls = [ps["wall"] for ps in plain]
    gmeans = [math.exp(statistics.fmean(math.log(t) for t in ps["ref"])) for ps in plain]

    def ratio(hit, total):
        # A workload that makes no attempt of a kind loses nothing: 1.
        return hit / total if total else 1.0

    if not trace:
        values = {
            "wall_s": statistics.median(walls),
            "op_s_gmean": statistics.median(gmeans),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": rss_mb,
            "coverage_ratio": ratio(tally.coverage_hit, tally.coverage_all),
            "checks_pass_ratio": ratio(tally.checks_pass, tally.checks_all),
            "racah_ok_ratio": tally.racah_ok_ratio(),
        }
        metrics = {k: {"value": float(values[k]), "unit": UNITS[k]} for k in END_TO_END}

    details = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": host_block(),
        "ops_per_pass": len(ops),
        "passes": {"untraced": len(plain), "traced": len(traced)},
        "samples": {"wall_s": len(walls), "op_s_gmean": len(gmeans),
                    "op_s_p50": len(op_times), "op_s_p90": len(op_times),
                    "setup_s": len(setup)},
        "counts_per_pass": {**tally.counts(),
                            "failed_ops": sum(e is not None for e in plain[0]["errors"])},
        "time_basis": f"reference-host seconds: measured x {CAL_REF_S} s / calibration loop",
        "calibration_s": {"median": statistics.median(cal_times), "samples": len(cal_times)},
        "wall_s_measured": [math.fsum(ps["times"]) for ps in plain],
        "setup_s_measured": setup_raw,
        "setup_probe_s": {"median": statistics.median(setup_probe) if setup_probe else None,
                          "samples": len(setup_probe)},
        "op_s_p50": statistics.median(op_times),
        "op_s_p90": (statistics.quantiles(op_times, n=10)[-1]
                     if len(op_times) >= P90_MIN_SAMPLES else None),
        "op_s_median_by_op": {op.label: statistics.median(ps["ref"][i] for ps in plain)
                              for i, op in enumerate(ops)},
        "failed_ratio": failed / attempted,
        "racah_digits_min": tally.digits_min,
        "failures": failures,
        "wrong": tally.wrong[:20],
    }
    result = {
        "correct": not tally.wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, details


def main(argv=None) -> int:
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.PLANS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result, details = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    missing = [str(p.relative_to(ROOT)) for p in NEEDED if not p.is_file()]
    if missing:
        print("bench: run from a qracah checkout; missing " + ", ".join(missing),
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC)]
    sys.exit(main())
