"""Tests of the A/B comparison: the claim rule of ``summarize`` on synthetic
runs, and a smoke test of a checkout compared with itself.

    python3 -m pytest -q tools/test_ab_compare.py

For the smoke test the files the benchmark reads are copied into a fresh git
repository, so the worktree that the comparison adds and removes is that
repository's, not this checkout's.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))

from ab_compare import summarize  # noqa: E402

COPIED = ("src/qracah", "bench", "configs", "tests/conftest.py", "BENCHMARK.json",
          "tools/ab_compare.py")


def _runs(values, name="wall_s"):
    """Synthetic runs of one metric, as ``summarize`` reads them."""
    return [{"metrics": {name: {"value": v}}, "attempted": 1, "failed": 0, "correct": 1}
            for v in values]


# the parent's ten runs, in ms: quartiles 10.25, 12.5 and 14.75, so q3 - q1 =
# 4.5; every value here is exact in binary64, so no gap sits on a rounding
PARENT = [8.0, 9.0, 10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0]
BOUND = {"wall_s": 0.25}


@pytest.mark.parametrize("change, met", [
    # 9 of 10 pairs won, median 12.5 -> 7.5, a gap of 5 > 4.5
    ([v - 5.0 for v in PARENT[:9]] + [18.0], True),
    # 8 of 10 pairs won, with a gap well above the IQR
    ([v - 10.0 for v in PARENT[:8]] + [17.0, 18.0], False),
    # every pair won, a gap equal to the IQR
    ([v - 4.5 for v in PARENT], False),
    # every pair won, a gap below the IQR
    ([v - 1.0 for v in PARENT], False),
])
def test_claim_rule_lower_is_better(change, met):
    got = summarize(_runs(PARENT), _runs(change), {"wall_s": "lower"}, BOUND)["wall_s"]
    assert got["parent_q1_median_q3"] == [10.25, 12.5, 14.75]
    assert got["claim_rule_met"] is met


def test_claim_rule_higher_is_better_ratio():
    parent = [0.60, 0.61, 0.62, 0.63, 0.64, 0.65, 0.66, 0.67, 0.68, 0.69]
    up = [v + 0.2 for v in parent[:9]] + [0.5]
    better, bound = {"coverage_ratio": "higher"}, {"coverage_ratio": 0.15}
    got = summarize(_runs(parent, "coverage_ratio"), _runs(up, "coverage_ratio"), better, bound)
    assert got["coverage_ratio"]["change_wins"] == 9
    assert got["coverage_ratio"]["claim_rule_met"] is True
    # the same runs the other way round lose every pair the ratio moved
    back = summarize(_runs(up, "coverage_ratio"), _runs(parent, "coverage_ratio"), better, bound)
    assert back["coverage_ratio"]["change_wins"] == 1
    assert back["coverage_ratio"]["claim_rule_met"] is False
    # ties count for neither side: an equal ratio in every pair claims nothing
    same = summarize(_runs(parent, "coverage_ratio"), _runs(parent, "coverage_ratio"), better,
                     bound)
    assert same["coverage_ratio"]["change_wins"] == same["coverage_ratio"]["change_losses"] == 0
    assert same["coverage_ratio"]["claim_rule_met"] is False


@pytest.mark.parametrize("better, shift, worse", [
    # the parent's median 12.5 with a bound of 0.25: worse past a gap of 3.125
    ("lower", 3.0, False),
    ("lower", 3.5, True),
    ("lower", -5.0, False),
    ("higher", -3.0, False),
    ("higher", -3.5, True),
    ("higher", 5.0, False),
])
def test_worse_than_bound(better, shift, worse):
    change = [v + shift for v in PARENT]
    got = summarize(_runs(PARENT), _runs(change), {"wall_s": better}, BOUND)
    assert got["wall_s"]["worse_than_bound"] is worse


# the parent's spread (q3 - q1) / |median| against the bound 0.25: PARENT's is
# 4.5 / 12.5 = 0.36, NARROW's 0.45 / 12.45, about 0.036
NARROW = [12.0 + 0.1 * i for i in range(10)]


@pytest.mark.parametrize("better", ["lower", "higher"])
@pytest.mark.parametrize("parent, shift, unresolved", [
    # a spread wider than the bound: the runs overlap, so nothing can be told
    (PARENT, 1.0, True),
    (PARENT, -1.0, True),
    # as wide, but every change run reads better than every parent run
    (PARENT, -10.0, False),
    # as wide, and the worst change run ties the best parent run
    (PARENT, -9.0, True),
    # a spread within the bound, whichever side the change moves
    (NARROW, 1.0, False),
    (NARROW, -1.0, False),
])
def test_unresolved(better, parent, shift, unresolved):
    # shift is toward the better side of the metric when negative
    step = shift if better == "lower" else -shift
    change = [v + step for v in parent]
    got = summarize(_runs(parent), _runs(change), {"wall_s": better}, BOUND)
    assert got["wall_s"]["unresolved"] is unresolved


@pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
def test_a_checkout_compared_with_itself(tmp_path):
    for name in COPIED:
        src, dst = ROOT / name, tmp_path / name
        if src.is_dir():
            shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", ".bench-*"))
        else:
            dst.parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dst)
    (tmp_path / ".gitignore").write_text("__pycache__/\n/.bench-*/\n")

    def git(*cmd):
        return subprocess.run(["git", "-c", "user.name=ab", "-c", "user.email=ab@example.invalid",
                               *cmd], cwd=tmp_path, capture_output=True, text=True, check=True)

    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "snapshot")
    out = tmp_path / "ab.json"
    proc = subprocess.run([sys.executable, "tools/ab_compare.py", "--parent", "HEAD",
                           "--run", "verify_grid:1", "--pairs", "1", "--seconds", "0.5",
                           "--out", str(out)], cwd=tmp_path, capture_output=True, text=True,
                          timeout=600, check=False)
    assert proc.returncode == 0, proc.stderr
    body = json.loads(out.read_text())
    runs = body["runs"]["verify_grid"]
    assert [r["first"] for r in runs["parent"]] == ["parent"]
    assert runs["parent"][0]["seed"] == runs["change"][0]["seed"] == 1
    summary = body["summary"]["verify_grid"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(summary) == {m["name"] for m in spec["end_to_end"]} | {
        "attempted_failed_correct_equal_in_every_pair"}
    assert summary["attempted_failed_correct_equal_in_every_pair"] is True
    for name in ("coverage_ratio", "checks_pass_ratio", "racah_ok_ratio"):
        assert summary[name]["parent_q1_median_q3"] == summary[name]["change_q1_median_q3"]
        assert summary[name]["worse_than_bound"] is False
        assert summary[name]["change_wins"] == summary[name]["change_losses"] == 0
    assert summary["wall_s"]["pairs"] == 1
    # the parent's worktree is gone again
    assert git("worktree", "list").stdout.count("\n") == 1
    assert not list(tmp_path.glob(".bench-*"))
