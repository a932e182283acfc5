"""Smoke test of the A/B comparison: a checkout compared with itself.

    python3 -m pytest -q tools/test_ab_compare.py

The files the benchmark reads are copied into a fresh git repository, so the
worktree that the comparison adds and removes is that repository's, not this
checkout's.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src/qracah", "bench", "configs", "tests/conftest.py", "BENCHMARK.json",
          "tools/ab_compare.py")


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
        assert summary[name]["change_wins"] == summary[name]["change_losses"] == 0
    assert summary["wall_s"]["pairs"] == 1
    # the parent's worktree is gone again
    assert git("worktree", "list").stdout.count("\n") == 1
    assert not list(tmp_path.glob(".bench-*"))
