"""tools/layer_times.py on its small layers, one timed call each."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRIPT = os.path.join(ROOT, "tools", "layer_times.py")
SMALL = ("ff.mul", "quat.poly_gcd", "quat.ProjQuat", "quat.verify_power_lemma.q9", "lattice.oracle_check_table.q11",
         "rewrite.append_letter", "rewrite.push_through.L54", "rewrite.push_run.q5.L125", "rewrite.normal_form.L400")


def test_small_layers_print_one_json_line_each():
    done = subprocess.run([sys.executable, SCRIPT, "--repeat", "1", *SMALL], capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    assert [line["layer"] for line in lines] == list(SMALL)
    for line in lines:
        assert sorted(line) == ["best_s", "case", "layer", "runs"] and line["runs"] == 1
        assert line["case"] and line["best_s"] > 0


def test_every_layer_is_listed_and_an_unknown_one_is_refused():
    listed = subprocess.run([sys.executable, SCRIPT, "--list"], capture_output=True, text=True, timeout=60)
    assert listed.returncode == 0 and set(SMALL) < set(listed.stdout.split())
    assert "lattice.oracle_check_table.q81" in listed.stdout.split()
    done = subprocess.run([sys.executable, SCRIPT, "no.such.layer"], capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and "no.such.layer" in done.stderr and not done.stdout
