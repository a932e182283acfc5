"""A/B comparison of the benchmark between a parent revision and the working tree.

Usage (from the repository root):

    python3 tools/ab_compare.py --parent HEAD --run verify_grid:2801 --run table_scale:2901 \
        --pairs 10 --seconds 15 --trace verify_grid:2811 --out BENCH_<n>.json

The parent revision is checked out into a ``git worktree`` under ``.bench-*``
(ignored by git, and removed at the end, also on SIGINT or SIGTERM); the
change is the working tree as it stands.  Each ``--run WORKLOAD:SEED`` runs ``--pairs`` pairs on seeds SEED,
SEED+1, ...: in each pair ``bench/run.py`` runs unchanged in both checkouts on
the same seed, each from its own checkout, and the side that runs first
alternates (the parent first in pairs 0, 2, 4, ...).  ``--trace
WORKLOAD:SEED`` adds four traced runs on that seed, in the order parent,
change, change, parent, so that a steady drift of the host's speed, which the
per-layer times are not corrected for, falls on both sides alike.

The output is a ``BENCH_<n>.json`` body: the runs of every pair, and per
workload and end-to-end metric of ``BENCHMARK.json`` the parent's and the
change's quartiles over the pairs (``parent_q1_median_q3``,
``change_q1_median_q3``), the pairs in which the change reads better or worse
(its direction in ``BENCHMARK.json``; ties count for neither), the relative
change of the medians, whether the gap between the medians exceeds the
parent's interquartile range, whether the claim rule is met
(``claim_rule_met``): the change wins at least ceil(0.9 * pairs) pairs, and
its median beats the parent's by more than the parent's q3 - q1, whether
the no-regression rule is broken (``worse_than_bound``): the change's median
is worse than the parent's by more than the metric's ``bound`` in
``BENCHMARK.json``, relative to the parent's median, and whether the runs
spread too widely to tell (``unresolved``): the parent's spread, (q3 - q1) /
|median|, is wider than the metric's ``bound``, unless every change run reads
better than every parent run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> list[float]:
    """[q1, median, q3], linearly interpolated as numpy.percentile does."""
    xs = sorted(values)

    def at(frac):
        pos = frac * (len(xs) - 1)
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)

    return [at(0.25), at(0.5), at(0.75)]


def summarize(parent: list[dict], change: list[dict], better: dict[str, str],
              bounds: dict[str, float]) -> dict:
    """The per-metric summary of one workload's pairs; ``better`` maps each
    end-to-end metric to ``"lower"`` or ``"higher"``, and ``bounds`` to its
    relative bound."""
    out = {}
    for name, direction in better.items():
        p = [r["metrics"][name]["value"] for r in parent]
        c = [r["metrics"][name]["value"] for r in change]
        sign = 1.0 if direction == "lower" else -1.0
        wins = sum(sign * (b - a) < 0 for a, b in zip(p, c))
        losses = sum(sign * (b - a) > 0 for a, b in zip(p, c))
        qp, qc = quartiles(p), quartiles(c)
        iqr = qp[2] - qp[0]
        out[name] = {
            "parent_q1_median_q3": [round(v, 6) for v in qp],
            "change_q1_median_q3": [round(v, 6) for v in qc],
            "change_wins": wins,
            "change_losses": losses,
            "pairs": len(p),
            "median_change_rel": round((qc[1] - qp[1]) / qp[1], 4) if qp[1] else 0.0,
            "median_gap_exceeds_parent_iqr": abs(qc[1] - qp[1]) > iqr,
            # wins >= ceil(0.9 * pairs), in integers
            "claim_rule_met": 10 * wins >= 9 * len(p) and sign * (qp[1] - qc[1]) > iqr,
            "worse_than_bound": sign * (qc[1] - qp[1]) > bounds[name] * abs(qp[1]),
            # the spread is wider than the bound, and some change run reads
            # no better than some parent run
            "unresolved": (iqr > bounds[name] * abs(qp[1])
                           and max(sign * v for v in c) >= min(sign * v for v in p)),
        }
    out["attempted_failed_correct_equal_in_every_pair"] = all(
        (a["attempted"], a["failed"], a["correct"]) == (b["attempted"], b["failed"], b["correct"])
        for a, b in zip(parent, change))
    return out


def bench_run(checkout: Path, workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One ``bench/run.py`` run in ``checkout``; returns its last stdout line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} in {checkout} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def parse_run(text: str) -> tuple[str, int]:
    workload, _, seed = text.partition(":")
    if not seed.isdigit():
        raise argparse.ArgumentTypeError(f"expected WORKLOAD:SEED, got {text!r}")
    return workload, int(seed)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def compare(parent_tree: Path, runs, pairs: int, seconds: float, trace) -> dict:
    """The runs and summaries of every workload, and the traced runs if asked."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    sides = {"parent": parent_tree, "change": ROOT}
    result = {"summary": {}, "runs": {}}
    for workload, seed0 in runs:
        done = {"parent": [], "change": []}
        for i in range(pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                line = bench_run(sides[side], workload, seed0 + i, seconds, False)
                done[side].append({"seed": seed0 + i, "first": order[0], **line})
                log(f"{workload} seed {seed0 + i} {side}: "
                    f"wall_s {line['metrics']['wall_s']['value']:.6f}")
        result["runs"][workload] = done
        result["summary"][workload] = summarize(done["parent"], done["change"], better, bounds)
    if trace:
        workload, seed = trace
        traced = {"parent": [], "change": []}
        for side in ("parent", "change", "change", "parent"):
            line = bench_run(sides[side], workload, seed, seconds, True)
            traced[side].append({k: v["value"] for k, v in line["metrics"].items()})
            log(f"{workload} seed {seed} {side}: traced")
        result["trace"] = {
            "command": f"python3 bench/run.py --workload {workload} --seed {seed} "
                       f"--seconds {seconds:g} --trace 1",
            "order": "four traced runs: parent, change, change, parent; each value is the "
                     "run's per-layer metric (calls are counts per pass)",
            "runs": traced,
        }
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="git revision of the parent side")
    ap.add_argument("--run", type=parse_run, action="append", required=True,
                    metavar="WORKLOAD:SEED", help="a workload and the seed of its first pair")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=parse_run, metavar="WORKLOAD:SEED",
                    help="also run one traced run on each side")
    ap.add_argument("--out", help="write the JSON here instead of stdout")
    args = ap.parse_args(argv)

    def git(*cmd):
        return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True, text=True,
                              check=True).stdout.strip()

    rev = git("rev-parse", "--verify", f"{args.parent}^{{commit}}")
    # a terminated comparison still removes its worktree
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    holder = Path(tempfile.mkdtemp(prefix=".bench-ab-", dir=ROOT))
    tree = holder / "parent"
    try:
        git("worktree", "add", "--detach", str(tree), rev)
        result = compare(tree, args.run, args.pairs, args.seconds, args.trace)
    finally:
        subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                       capture_output=True, check=False)
        shutil.rmtree(holder, ignore_errors=True)
        subprocess.run(["git", "-C", str(ROOT), "worktree", "prune"], capture_output=True,
                       check=False)
    body = {
        "parent": rev,
        "command": f"python3 bench/run.py --workload W --seed N --seconds {args.seconds:g} "
                   "--trace 0",
        "host": f"{os.cpu_count()}-core {platform.machine()}, python {platform.python_version()}",
        "order": "pairs alternate: the parent runs first in pairs 0, 2, 4, ... and the change "
                 "first in pairs 1, 3, 5, ... (field first of each run)",
        "summary_of": "quartiles as [q1, median, q3] (numpy percentile, linear) over the pairs; "
                      "a win is a pair where the change reads better (lower time, size or "
                      "memory; higher ratio), ties count for neither",
        **result,
    }
    text = json.dumps(body, indent=1) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
