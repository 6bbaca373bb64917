"""Compare two git revisions on the benchmark in alternating pairs.

    python3 tools/bench_pairs.py PARENT CHANGE --pairs 10 --first-seed 2501 \\
        --workload all --seconds 30 --out BENCH_25.json

Pair i runs `perfbench/run.py --seed first_seed + i` once on each
revision, the parent first in even pairs and the change first in odd
ones.  Every run starts from a fresh `git archive` export of its
revision, so it holds only tracked files and no `__pycache__`, and runs
with PYTHONDONTWRITEBYTECODE=1; the export is deleted when the run ends.
The output file names each side's commit and the hash of its `src`
tree, and holds every run's final JSON line and its unscaled rows
(`host_slowdown`, `wall_best_raw_s` and `setup_raw_s`, read from the
metric lines run.py prints), so that an outlying `wall_s` can be traced
to its speed probes, with the workloads' group rows (`long_word_s`,
`largest_table_s` and `jobs2_s`), and, per end-to-end metric, both
sides' medians and quartiles (`statistics.quantiles`, exclusive method)
and the number of pairs in which the change was lower.  --claim and --in-process fill the free-text fields of the same
name.  Standard library only; runs one benchmark process at a time.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RAW_ROWS = ("host_slowdown", "wall_best_raw_s", "setup_raw_s", "long_word_s", "largest_table_s", "jobs2_s")


def _git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True).stdout


def resolve(rev):
    """The full hash of the commit `rev` names."""
    return _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()


def src_tree(commit):
    """The hash of the commit's `src` tree, which names the measured code
    whatever commit later carries it."""
    return _git("rev-parse", f"{commit}:src").decode().strip()


def run_once(commit, bench_args):
    """One benchmark run on a fresh export of `commit`; returns its
    stdout lines."""
    scratch = tempfile.mkdtemp(prefix="bench_pairs-")
    try:
        with tarfile.open(fileobj=io.BytesIO(_git("archive", "--format=tar", commit))) as tar:
            # the data filter, where tarfile has one, refuses links and paths out of `scratch`;
            # 3.12+ warn (an error under -W error) when no filter is given
            tar.extractall(scratch, **({"filter": tarfile.data_filter} if hasattr(tarfile, "data_filter") else {}))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
        proc = subprocess.run([sys.executable, "perfbench/run.py", *bench_args], cwd=scratch, env=env,
                              capture_output=True, text=True)
    finally:
        shutil.rmtree(scratch)
    if proc.returncode != 0:
        raise RuntimeError(f"run.py {' '.join(bench_args)} on {commit[:12]} exited with "
                           f"{proc.returncode}:\n{proc.stderr.strip()}")
    return proc.stdout.splitlines()


def raw_rows(lines):
    """{workload/name: value} of one run's RAW_ROWS, from the metric
    lines `workload name value unit note` that run.py prints."""
    rows = {}
    for line in lines:
        parts = line.split()
        if len(parts) > 2 and parts[1] in RAW_ROWS:
            rows[f"{parts[0]}/{parts[1]}"] = float(parts[2])
    return rows


def _quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return [q1, q3]


def summarize(runs, workload):
    """Per metric, the two sides' medians and quartiles and how many pairs
    the change was lower in, from {side: {seed: final JSON}}."""
    seeds = sorted(runs["parent"])
    out = {}
    for name in runs["parent"][seeds[0]]["metrics"]:
        key = name if "/" in name else f"{workload}/{name}"
        values = {side: [runs[side][s]["metrics"][name]["value"] for s in seeds] for side in runs}
        parent, change = (statistics.median(values[side]) for side in ("parent", "change"))
        lower = sum(c < p for p, c in zip(values["parent"], values["change"]))
        out[key] = {
            "parent_median": round(parent, 4),
            "change_median": round(change, 4),
            "rel": round(change / parent - 1, 4) if parent else None,
            "change_lower_in": f"{lower}/{len(seeds)}",
            "parent_q1_q3": [round(x, 4) for x in _quartiles(values["parent"])],
            "change_q1_q3": [round(x, 4) for x in _quartiles(values["change"])],
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent", help="the revision compared against")
    parser.add_argument("change", help="the revision measured")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--size", default="full")
    parser.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    parser.add_argument("--claim", default="", help="the claim the figures support, as text")
    parser.add_argument("--in-process", default="", help="in-process timings made beside the runs, as text")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    commits = {"parent": resolve(args.parent), "change": resolve(args.change)}
    bench_args = ["--workload", args.workload, "--seconds", str(args.seconds), "--trace", "0"]
    if args.size != "full":
        bench_args += ["--size", args.size]
    seeds = [args.first_seed + i for i in range(args.pairs)]
    runs = {"parent": {}, "change": {}}
    lines = {"parent": {}, "change": {}}
    raw = {"parent": {}, "change": {}}
    first, machine = {}, None
    for i, seed in enumerate(seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        first[str(seed)] = order[0]
        for side in order:
            out = run_once(commits[side], ["--seed", str(seed), *bench_args])
            machine = machine or next(l.split(": ", 1)[1] for l in out if l.startswith("# machine: "))
            lines[side][str(seed)] = out[-1]
            raw[side][str(seed)] = raw_rows(out)
            runs[side][seed] = json.loads(out[-1])
            print(f"seed {seed} {side}: {out[-1]}", file=sys.stderr)

    failed = {side: sum(r["failed"] for r in runs[side].values()) for side in runs}
    correct = all(r["correct"] for side in runs for r in runs[side].values())
    report = {
        "command": f"python3 perfbench/run.py --seed S {' '.join(bench_args)}",
        "seeds": f"{args.pairs} pair(s), seeds {seeds[0]}-{seeds[-1]}, one pair per seed; the parent ran "
                 f"first in pairs 1, 3, ... and the change in pairs 2, 4, ...; every run made is reported",
        "nproc": os.cpu_count(),
        "machine": machine,
        "quartiles": "statistics.quantiles(n=4), exclusive method",
        **{side: {"commit": commits[side], "src_tree": src_tree(commits[side])} for side in ("parent", "change")},
        "first_in_pair": first,
        "pairs": summarize(runs, args.workload),
        "final_json_lines": lines,
        "raw_rows": raw,
        "failed_ops": f"{failed['parent']} on the parent side and {failed['change']} on the change side; "
                      + ("every run correct" if correct else "some runs not correct"),
        "in_process": args.in_process,
        "claim": args.claim,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
