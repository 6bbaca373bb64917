"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE SIZE

Times the set-up (importing quatlat and loading what the workload uses),
with speed probes just before and after it, and the workload body, checks every op against its reference, and prints
one JSON record on stdout.  run.py starts one of these per pass, so every
pass pays the cold costs a user of the command line pays.
"""

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv):
    workload, seed, traced, size_name = argv[0], int(argv[1]), argv[2] == "1", argv[3]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    from workloads import PROBE_SAMPLES, REGISTRY, SIZES, run_pass, speed_probe

    spec, size = REGISTRY[workload], SIZES[size_name]
    tracer = None
    speed_probe()  # the first call of a function is slower than the rest
    setup_probes = [speed_probe() for _ in range(PROBE_SAMPLES)]
    start = time.perf_counter()
    import quatlat  # noqa: F401
    import quatlat.acceptance  # noqa: F401
    import quatlat.cli  # noqa: F401

    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    context = spec.setup(size)
    setup_s = time.perf_counter() - start
    setup_probes += [speed_probe() for _ in range(PROBE_SAMPLES)]
    if not quatlat.__file__.startswith(os.path.join(ROOT, "src")):
        raise SystemExit(f"imported quatlat from {quatlat.__file__}, not from this checkout")

    ops = spec.build_ops(context, seed, size)
    wall_s, records, errors, probes = run_pass(ops, tracer)
    rss = [resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    record = {
        "setup_s": setup_s,
        "setup_probes": setup_probes,
        "wall_s": wall_s,
        "peak_rss_kib": sum(rss),
        "ops": records,
        "errors": errors,
        "probes": probes,
    }
    if tracer is not None:
        record["layers"] = tracer.metrics()
        record["spans"] = tracer.spans
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
