"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Smoke runs use the tiny input sizes and one-second runs.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run as bench  # noqa: E402
from tracing import HOME, PER_LAYER, missing_on_home  # noqa: E402
from workloads import PROBE_REF_S, REGISTRY, SIZES, WORKLOADS, random_words, run_pass  # noqa: E402


def _run(workload, trace, seed=3, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def _result(workload, trace, seed=3):
    proc = _run(workload, trace, seed)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_every_metric_named_with_unit(workload, trace):
    lines, result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = bench.END_TO_END if trace == 0 else PER_LAYER
    assert {name: m["unit"] for name, m in result["metrics"].items()} == dict(wanted)
    printed = {line.split()[1] for line in lines if line.startswith(workload)}
    spec = REGISTRY[workload]
    extra = set(spec.group_metrics) | {"fail_frac"}
    if spec.latency_group:
        extra |= {f"{spec.latency_group}_p50_ms", f"{spec.latency_group}_p99_ms"}
    assert printed >= set(dict(bench.END_TO_END)) | extra


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(bench.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    per_layer = dict(PER_LAYER)
    assert all(name in per_layer for names in HOME.values() for name in names)


def test_a_layer_reading_zero_on_its_home_workload_is_reported():
    assert missing_on_home("oracle", {}) == list(HOME["oracle"])
    assert missing_on_home("repro", {name: 1 for name in HOME["repro"]}) == []


@pytest.mark.parametrize("workload", ("parikh", "wordproblem"))
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        _, result = _result(workload, 1)
        counts.append({k: m["value"] for k, m in result["metrics"].items() if m["unit"] in ("count", "letters")})
    assert counts[0] == counts[1]
    assert counts[0]["rewrite.swap_lookups"] > 0


def test_wrong_reference_is_a_failed_op():
    spec, size = REGISTRY["wordproblem"], SIZES["tiny"]
    ops = spec.build_ops(spec.setup(size), 5, size)
    ops[0] = dataclasses.replace(ops[0], expected=not ops[0].expected)
    _, records, errors, _ = run_pass(ops)
    assert [r[0] for r in records if not r[3]] == [ops[0].name]
    assert errors == [f"{ops[0].name}: result differs from its reference"]


def test_wall_takes_per_op_minima_at_full_host_speed():
    def record(a, b, probe):
        return {"ops": [["a", None, a, True], ["b", None, b, True]], "probes": [probe * PROBE_REF_S] * 40}

    fast = [record(0.4, 0.2, 1.0), record(0.3, 0.5, 1.0)]
    assert bench._best(fast) == pytest.approx(0.5)
    assert bench._wall(fast) == pytest.approx(0.5)
    slow = [record(0.8, 0.4, 2.0), record(0.6, 1.0, 2.0)]
    assert bench._wall(slow) == pytest.approx(0.5)
    # one full-speed probe in twenty is enough to leave the time unscaled
    slow[0]["probes"][:4] = [PROBE_REF_S] * 4
    assert bench._wall(slow) == pytest.approx(1.0)


def test_same_seed_same_inputs():
    spec, size = REGISTRY["wordproblem"], SIZES["tiny"]
    context = spec.setup(size)
    words = [random_words(context, seed, size) for seed in (7, 7, 8)]
    assert words[0] == words[1] != words[2]
    assert [len(w) for _, w in words[0]] == [len(w) for _, w in words[2]]


def test_without_sources_exits_nonzero_and_prints_no_result():
    bare = os.path.join(ROOT, ".perfbench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        proc = _run("repro", 0, cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
