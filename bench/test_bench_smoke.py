"""Smoke test of the benchmark on the smallest plan of each workload.

    python3 -m pytest -q bench/test_bench_smoke.py

It checks that every metric named in ``BENCHMARK.json`` is emitted with its
unit, that counts repeat exactly across two runs of the same seed, and that a
traced run sees the same outcomes as an untraced one.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RATIOS = ("coverage_ratio", "checks_pass_ratio", "racah_ok_ratio")

# The smallest plan of each workload.
TINY_PLANS = {
    "verify_grid": workloads.Plan("verify", sizes=(1,), draws=1),
    "table_scale": workloads.Plan("table", sizes=(2, 3), draws=1),
    "bethe_deep": workloads.Plan("bethe", sizes=(2,), draws=1),
}


@pytest.fixture(scope="module")
def runs():
    """Two untraced and two traced runs of every workload, seed 3."""
    return {
        (name, trace, rep): run.run_workload(name, 3, 0, trace,
                                             plan=TINY_PLANS[name], setup_reps=1)
        for name in workloads.PLANS
        for trace in (False, True)
        for rep in range(2)
    }


def test_spec_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.PLANS)


@pytest.mark.parametrize("trace, section", [(False, "end_to_end"), (True, "per_layer")])
def test_every_metric_emitted_with_unit(runs, trace, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in workloads.PLANS:
        result, _ = runs[name, trace, 0]
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == expected, name
        assert all(isinstance(v["value"], float) for v in result["metrics"].values())
        assert result["correct"] is True, (name, runs[name, trace, 0][1]["wrong"])


def test_counts_repeat_across_runs(runs):
    for name in workloads.PLANS:
        for trace in (False, True):
            (a, da), (b, db) = runs[name, trace, 0], runs[name, trace, 1]
            assert da["counts_per_pass"] == db["counts_per_pass"], name
            keys = [k for k, v in a["metrics"].items() if k in RATIOS or v["unit"] == "count"]
            assert keys
            for k in keys:
                assert a["metrics"][k]["value"] == b["metrics"][k]["value"], (name, k)


def test_traced_run_sees_untraced_counts(runs):
    for name in workloads.PLANS:
        _, plain = runs[name, False, 0]
        _, traced = runs[name, True, 0]
        assert plain["counts_per_pass"] == traced["counts_per_pass"], name


def test_layer_split(runs):
    verify_calls = runs["verify_grid", True, 0][0]["metrics"]
    table_calls = runs["table_scale", True, 0][0]["metrics"]
    assert verify_calls["bethe.solve.calls"]["value"] > 0
    assert verify_calls["qnum.phi43.calls"]["value"] > 0
    bethe_keys = [k for k, v in table_calls.items()
                  if k.startswith("bethe.") and v["unit"] == "count"]
    assert all(table_calls[k]["value"] == 0 for k in bethe_keys)
