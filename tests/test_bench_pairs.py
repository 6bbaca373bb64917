"""tools/bench_pairs.py on one tiny pair: HEAD against itself."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_one_tiny_pair_writes_a_bench_file(tmp_path):
    if subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True).returncode:
        pytest.skip("not a git checkout")
    out = tmp_path / "BENCH.json"
    cmd = [sys.executable, os.path.join(ROOT, "tools", "bench_pairs.py"), "HEAD", "HEAD", "--pairs", "1",
           "--first-seed", "1", "--workload", "parikh", "--seconds", "1", "--size", "tiny", "--out", str(out)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    report = json.loads(out.read_text(encoding="utf-8"))
    assert list(report) == ["command", "seeds", "nproc", "machine", "quartiles", "parent", "change",
                            "first_in_pair", "pairs", "final_json_lines", "raw_rows", "failed_ops", "in_process",
                            "claim"]
    assert report["parent"] == report["change"]
    assert report["first_in_pair"] == {"1": "parent"}
    assert set(report["pairs"]) == {"parikh/wall_s", "parikh/setup_s", "parikh/peak_rss_mib"}
    for side in ("parent", "change"):
        result = json.loads(report["final_json_lines"][side]["1"])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        raw = report["raw_rows"][side]["1"]
        assert sorted(raw) == ["parikh/host_slowdown", "parikh/jobs2_s", "parikh/setup_raw_s", "parikh/wall_best_raw_s"]
        assert all(value > 0 for value in raw.values())
    wall = report["pairs"]["parikh/wall_s"]
    assert wall["change_lower_in"] in ("0/1", "1/1") and wall["parent_q1_q3"][0] == wall["parent_median"]
