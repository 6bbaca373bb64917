"""The quatlat benchmark.

    python3 perfbench/run.py --workload parikh --seed 1 --seconds 30 --trace 0

Runs one workload (parikh, oracle, wordproblem, repro, or all of them in
turn) for about --seconds seconds.  Each pass is a fresh process started
by this script (perfbench/worker.py), so every pass pays the cold costs
a command-line user pays; passes run one after another, in a closed
loop.  Every op's output is checked against an independent reference.

Output: one line per metric (name, value, unit, how many samples), then
as the last line one JSON object {"correct", "attempted", "failed",
"metrics"}.  With --trace 0 the metrics are the end-to-end ones, over
the untraced passes and scaled to full host speed (see README.md).
With --trace 1 untraced and traced passes alternate; the metrics are the
per-layer ones, medians over the traced passes, plus
trace.overhead_frac, and the spans of every traced pass are written to
.perfbench_out/ when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracing import PER_LAYER, missing_on_home  # noqa: E402
from workloads import PROBE_REF_S, REGISTRY, SIZES, WORKLOADS  # noqa: E402

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))
MIN_PASSES = {"full": 5, "tiny": 1}  # untraced passes; a traced run needs one of each kind
PASS_TIMEOUT_S = 150
OUT_DIR = os.path.join(ROOT, ".perfbench_out")


class PassError(RuntimeError):
    pass


def run_pass(workload, seed, traced, size):
    """One worker process; returns its record.  The hash seed follows the
    benchmark seed so a seed fixes every input."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed), str(int(traced)), size]
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any pool it started
        proc.communicate()
        raise PassError(f"{workload} pass exceeded {PASS_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise PassError(f"{workload} pass exited with {proc.returncode}:\n{err.strip()}")
    return json.loads(out.splitlines()[-1])


def measure(workload, seed, seconds, trace, size):
    """Run passes until the next one would end after `seconds`, once the
    minimum number of passes is in.  Returns (untraced, traced) records."""
    passes = {False: [], True: []}
    need = {False: MIN_PASSES[size], True: 1 if trace else 0}
    start = time.perf_counter()
    longest = 0.0
    while True:
        traced = trace and len(passes[True]) < len(passes[False])
        t0 = time.perf_counter()
        passes[traced].append(run_pass(workload, seed, traced, size))
        longest = max(longest, time.perf_counter() - t0)
        done = all(len(passes[k]) >= need[k] for k in need)
        if done and time.perf_counter() - start + longest > seconds:
            return passes[False], passes[True]


def _median(records, key):
    return statistics.median(r[key] for r in records)


def _percentile(samples, pct):
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def _best(records, group=None):
    """Each op's fastest time over the passes, summed over the ops (of
    one group, if given).  Every pass runs the same ops on the same
    inputs, and noise from the shared host only ever adds time, so the
    per-op minimum is the steadiest estimate of what the code costs."""
    best = {}
    for r in records:
        for name, op_group, seconds, _ in r["ops"]:
            if group is None or op_group == group:
                best[name] = min(seconds, best.get(name, seconds))
    return sum(best.values())


def _slowdown(records):
    """How much slower than its full speed the host ran in these passes:
    the 5th percentile of their speed-probe times over PROBE_REF_S.  It
    is near 1 when the host ran at full speed for a twentieth of the run
    or more, and near 2 when it ran at half speed throughout."""
    probes = sorted(p for r in records for p in r["probes"])
    return probes[(len(probes) - 1) // 20] / PROBE_REF_S


def _wall(records, group=None):
    """_best, scaled to the host's full speed.  The per-op minimum alone
    stays high when the host is slow for the whole run; the probes, timed
    in the same passes, measure by how much."""
    return _best(records, group) / _slowdown(records)


def _setup(records):
    """The median set-up time, each pass's scaled to full host speed by
    the speed probes run just before and after its set-up."""
    return statistics.median(
        r["setup_s"] / (statistics.median(r["setup_probes"]) / PROBE_REF_S) for r in records)


def end_to_end(workload, records):
    """The gated metrics, then the workload's own printed metrics as
    (name, value, unit, note) rows."""
    spec = REGISTRY[workload]
    n = len(records)
    gated = {
        "wall_s": _wall(records),
        "setup_s": _setup(records),
        "peak_rss_mib": _median(records, "peak_rss_kib") / 1024,
    }
    best = f"sum of per-op minima over {n} passes, at full host speed"
    notes = {"wall_s": best, "setup_s": f"median of {n} passes, at full host speed"}
    rows = [(name, gated[name], unit, notes.get(name, f"median of {n} passes")) for name, unit in END_TO_END]
    probes = sum(len(r["probes"]) for r in records)
    rows += [
        ("wall_best_raw_s", _best(records), "s", f"sum of per-op minima over {n} passes, not scaled"),
        ("wall_median_s", _median(records, "wall_s"), "s", f"median of {n} passes, not scaled"),
        ("setup_raw_s", _median(records, "setup_s"), "s", f"median of {n} passes, not scaled"),
        ("host_slowdown", _slowdown(records), "x", f"5th percentile of {probes} speed probes / {PROBE_REF_S} s"),
    ]
    for name, group in spec.group_metrics.items():
        rows.append((name, _wall(records, group), "s", best))
    if spec.latency_group:
        samples = [op[2] * 1e3 for r in records for op in r["ops"] if op[1] == spec.latency_group]
        for pct in (50, 99):
            rows.append((f"{spec.latency_group}_p{pct}_ms", _percentile(samples, pct), "ms",
                         f"{len(samples)} op samples"))
    return gated, rows


def per_layer(workload, untraced, traced, size):
    layers = {name: statistics.median(r["layers"][name] for r in traced) for name in traced[0]["layers"]}
    layers["trace.overhead_frac"] = _wall(traced) / _wall(untraced) - 1
    problems = [f"{name} is zero on {workload}" for name in missing_on_home(workload, layers)]
    if workload == "oracle":
        tables = sum((p**e + 1) ** 2 for p, e in SIZES[size]["oracle_fields"])
        if layers["lattice.solve_square.calls"] != tables:
            problems.append(f"lattice.solve_square.calls = {layers['lattice.solve_square.calls']}, want {tables}")
    if problems:
        raise PassError("per-layer patches missed:\n  " + "\n  ".join(problems))
    return layers


def write_spans(workload, seed, traced):
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json")
    data = {
        "fields": ["id", "name", "start", "end", "parent", "op"],
        "passes": [{"workload_id": f"{workload}/seed{seed}/pass{i}", "spans": r["spans"]} for i, r in enumerate(traced)],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def run_workload(workload, seed, seconds, trace, size):
    """Measure one workload; print its metric rows and return
    (metrics, attempted, failed)."""
    untraced, traced = measure(workload, seed, seconds, trace, size)
    everything = untraced + traced
    attempted = sum(len(r["ops"]) for r in everything)
    failed = sum(1 for r in everything for op in r["ops"] if not op[3])
    gated, rows = end_to_end(workload, untraced)
    rows.append(("fail_frac", failed / attempted, "1", f"{failed} of {attempted} ops"))
    for r in everything:
        for error in r["errors"]:
            print(f"# failed op: {error}")
    units = dict(END_TO_END)
    metrics = {name: {"value": gated[name], "unit": units[name]} for name in gated}
    if trace:
        layers = per_layer(workload, untraced, traced, size)
        units = dict(PER_LAYER)
        rows += [(name, value, units[name], f"median of {len(traced)} traced passes") for name, value in layers.items()]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        print(f"# spans written to {os.path.relpath(write_spans(workload, seed, traced), ROOT)}")
    for name, value, unit, note in rows:
        print(f"{workload:<12} {name:<42} {value:>16.6f} {unit:<8} {note}")
    return metrics, attempted, failed


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="full", help="tiny: smoke-test inputs")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "quatlat", "__init__.py")):
        print(f"error: no quatlat sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    print(f"# quatlat benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} size={args.size}")
    print(f"# machine: nproc={os.cpu_count()} cpu={_cpu_model()!r} python={platform.python_version()}")
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics, attempted, failed = {}, 0, 0
    try:
        for name in names:
            got, n, bad = run_workload(name, args.seed, args.seconds, bool(args.trace), args.size)
            attempted, failed = attempted + n, failed + bad
            metrics.update(got if len(names) == 1 else {f"{name}/{k}": v for k, v in got.items()})
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
