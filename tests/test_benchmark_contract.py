"""The benchmark's traced run patches the package from outside `src/`
(perfbench/tracing.py): it wraps `append_letter` at every binding and
reads the arriving letter's side and the parts' lengths, and it counts
calls into F_q, F_q[t] and the quaternion algebra (`FieldElem.__mul__`,
`Field.element`, `poly_gcd`, ...) on the oracle and repro workloads.
A change to what those entry points take or where callers look them up
breaks the traced run, so run it on tiny inputs here."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["parikh", "wordproblem", "oracle", "repro"])
def test_traced_tiny_run_is_clean(workload):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
           "--seed", "1", "--size", "tiny", "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["failed"] == 0 and result["correct"], done.stdout
    assert result["attempted"] > 0
