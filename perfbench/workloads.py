"""The four benchmark workloads.

Each workload has a set-up step (load the presets or fields it uses) and
a list of ops built from a seed.  Every op carries its own expected
result, computed from a reference that is independent of the code path
the op times: symbolic Parikh sets for enumerations, (q+1)^2 for square
tables, power-diagonal membership and AB/BA length agreement for normal
forms, and the documented verdicts for `quatlat repro`.

The package only ever receives the generated inputs; the seed stays
here.  Sizes come in two scales: "full" for measurement and "tiny" for
the benchmark's own smoke tests (same ops and metric names, smaller
bounds).
"""

from __future__ import annotations

import contextlib
import io
import random
import re
from dataclasses import dataclass, field
from typing import Any, Callable

WORKLOADS = ("parikh", "oracle", "wordproblem", "repro")

SIZES = {
    "full": {
        "parikh_bounds": {"g3": 50, "g3_signed": 22, "g4": 36, "g32": 30, "q5": 26, "jobs2": 50, "brute": 6},
        "oracle_fields": ((3, 2), (7, 1), (11, 1)),
        "lemma_field": (3, 2),
        "long_words": (81, 243, 729, 1458),
        "random_words": 60,
        "random_length": (200, 400),
    },
    "tiny": {
        "parikh_bounds": {"g3": 10, "g3_signed": 4, "g4": 6, "g32": 6, "q5": 6, "jobs2": 10, "brute": 3},
        "oracle_fields": ((3, 1), (5, 1), (3, 2)),
        "lemma_field": (3, 1),
        "long_words": (9, 27),
        "random_words": 6,
        "random_length": (20, 40),
    },
}

# The verdicts `quatlat repro` must print, in order.  7b is the known-red
# check: it compares the enumeration with the set stated in the source,
# which disagrees with the set the cube endomorphism transports.
REPRO_CHECKS = (
    "1-construction-fidelity",
    "2-oracle-equivalence",
    "3-orbits",
    "4-k-tau-sigma",
    "5-endomorphisms",
    "6-p-power-relations",
    "7a-parikh-gamma3-diagonal",
    "7b-parikh-gamma3-signed",
    "7c-parikh-gamma4",
    "7d-parikh-gamma32",
    "7e-parikh-q5-commuting",
    "8a-prune-oracle",
    "8b-normal-form-lengths",
    "8c-pi-preservation",
    "8d-free-reduction",
    "8e-field-axioms-fibers",
)
REPRO_RED = "7b-parikh-gamma3-signed"
_REPRO_LINE = re.compile(r"^(PASS|FAIL) (\S+) \(\d+\.\d\ds\): (.*)$")


@dataclass
class Op:
    """One timed call.  `check(result, expected)` decides correctness
    after the pass; `group` tags ops that feed a workload-specific
    metric."""

    name: str
    run: Callable[[], Any]
    expected: Any
    check: Callable[[Any, Any], bool] = lambda result, expected: result == expected
    group: str | None = None


@dataclass
class Workload:
    setup: Callable[[dict], Any]
    build_ops: Callable[[Any, int, dict], list]
    # printed metric name -> group: seconds of the ops in that group
    group_metrics: dict = field(default_factory=dict)
    # group whose per-op latencies are reported as percentiles
    latency_group: str | None = None


# ---------------------------------------------------------------------------
# parikh


def _parikh_setup(size):
    from quatlat import presets

    return {name: presets.get_presentation(name) for name in ("gamma3", "gamma4", "gamma32", "q5")}


def _same_points(result, expected):
    return frozenset(tuple(p) for p in result) == expected


def _parikh_ops(pres, seed, size):
    from quatlat import parikh, presets

    bounds = size["parikh_bounds"]
    ex = presets.EXAMPLES
    g3, g4, g32, q5 = pres["gamma3"], pres["gamma4"], pres["gamma32"], pres["q5"]
    diag = ex["gamma3/a;x;b^-1;x"]
    # the validated mixed-equation set, not the stated 7b set
    signed = ex["gamma3/a;x;b;x"]
    mixed = ex["gamma4/b;x;a;x^-1"]
    triple = ex["gamma32/b;x;a^-1;y^-1"]
    comm_spec, comm_set = presets.first_commuting_language(q5)

    def enum(p, spec, n, **kw):
        return lambda: parikh.enumerate_parikh(p, spec, n, **kw)

    def want(expected, n):
        return parikh.expected_points(expected, n)

    cases = [
        ("gamma3 a;x;b^-1;x", g3, diag.spec(g3), diag.expected, bounds["g3"], {}, None),
        ("gamma3 signed a;x;b;x", g3, signed.spec(g3), signed.expected, bounds["g3_signed"], {}, None),
        ("gamma4 b;x;a;x^-1", g4, mixed.spec(g4), mixed.expected, bounds["g4"], {}, None),
        ("gamma32 b;x;a^-1;y^-1", g32, triple.spec(g32), triple.expected, bounds["g32"], {}, None),
        ("q5 first commuting", q5, comm_spec, comm_set, bounds["q5"], {}, None),
        ("gamma3 a;x;b^-1;x jobs=2", g3, diag.spec(g3), diag.expected, bounds["jobs2"], {"jobs": 2}, "jobs2"),
    ]
    ops = [
        Op(f"{label} N={n}", enum(p, spec, n, **kw), want(expected, n), _same_points, group)
        for label, p, spec, expected, n, kw, group in cases
    ]
    # brute force, checked against the pruned search at the same bound
    n = bounds["brute"]
    pruned = frozenset(parikh.enumerate_parikh(g4, mixed.spec(g4), n))
    ops.append(Op(f"gamma4 b;x;a;x^-1 N={n} brute force", enum(g4, mixed.spec(g4), n, prune=False), pruned, _same_points))
    random.Random(seed).shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# oracle


def _oracle_setup(size):
    from quatlat import ff

    fields = {}
    for p, e in size["oracle_fields"] + (size["lemma_field"],):
        field_ = ff.Field(p, e)
        fields[field_.q] = ff.QuadExt(field_, ff.find_nonsquare(field_))
    return fields


def _table_ok(result, expected):
    pres, report = result
    return report["ok"] and report["checked"] == expected and len(pres.swap) == expected


def _oracle_ops(exts, seed, size):
    from quatlat import lattice, quat

    rng = random.Random(seed)
    largest = max(p**e for p, e in size["oracle_fields"])
    ops = []
    for p, e in size["oracle_fields"]:
        ext = exts[p**e]
        q = ext.field.q
        # any tau outside {0, 1}: indices 0 and 1 are the elements 0 and 1
        params = lattice.LatticeParams(ext, ext.field.from_index(rng.randrange(2, q)))

        def table(params=params):
            pres = lattice.build_square_table(params)
            return pres, lattice.oracle_check_table(pres)

        ops.append(Op(f"square table q={q} tau={params.tau!r}", table, (q + 1) ** 2, _table_ok,
                      "largest_table" if q == largest else None))
    p, e = size["lemma_field"]
    ext = exts[p**e]
    params = lattice.LatticeParams(ext, ext.field.from_index(rng.randrange(2, ext.field.q)))
    algebra = quat.QuatAlgebra(ext)
    fiber_a, fiber_b = lattice.build_generators(params)
    for k in (1, 2):
        for i, xi in enumerate(fiber_a + fiber_b):
            ops.append(Op(f"power lemma q={ext.field.q} k={k} #{i}",
                          lambda xi=xi, k=k: quat.verify_power_lemma(algebra, xi, None, k), True))
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# wordproblem


def _wordproblem_setup(size):
    from quatlat import presets

    return {name: presets.get_presentation(name) for name in ("gamma3", "q5", "gamma32")}


def _nf_lengths(nf):
    return len(nf.a_part), len(nf.b_part)


def _ab_ok(nf, expected):
    word_len, pair = expected
    pair["AB"] = _nf_lengths(nf)
    return len(nf) <= word_len


def _ba_ok(nf, pair):
    return pair.get("AB") == _nf_lengths(nf)


def random_words(pres, seed, size):
    """[(presentation name, word)].  The seed picks the letters; the
    lengths (spread evenly over the range) and the presentations
    (alternating) are fixed, so every seed asks for the same work."""
    rng = random.Random(seed)
    lo, hi = size["random_length"]
    count = size["random_words"]
    words = []
    for i in range(count):
        name = ("q5", "gamma32")[i % 2]
        letters = pres[name].alphabet_a + pres[name].alphabet_b
        length = lo + (hi - lo) * (i // 2) // max(1, (count + 1) // 2 - 1)
        words.append((name, tuple(rng.choice(letters) for _ in range(length))))
    return words


def _wordproblem_ops(pres, seed, size):
    from quatlat import parikh, rewrite

    g3 = pres["gamma3"]
    inverse = g3.inverse
    a, x, b = g3.label("a"), g3.label("x"), g3.label("b")
    diagonal = parikh.PowerDiagonal(9, 4)
    longest = max(size["long_words"])
    ops = []
    for n in size["long_words"]:
        word = (a,) * n + (x,) * n + (inverse[b],) * n + (x,) * n
        ops.append(Op(f"a^{n} x^{n} b^-{n} x^{n} over gamma3", lambda w=word: rewrite.is_identity(g3, w),
                      diagonal.contains((n,) * 4), group="long_word" if n == longest else None))
    for i, (name, word) in enumerate(random_words(pres, seed, size)):
        p = pres[name]
        inv_word = tuple(p.inverse[g] for g in reversed(word))
        pair: dict = {}
        tag = f"{name} word {i} len {len(word)}"
        ops += [
            Op(f"{tag} AB", lambda p=p, w=word: rewrite.normal_form(p, w, "AB"), (len(word), pair), _ab_ok, "nf"),
            Op(f"{tag} BA", lambda p=p, w=word: rewrite.normal_form(p, w, "BA"), pair, _ba_ok, "nf"),
            Op(f"{tag} w.w^-1", lambda p=p, w=word + inv_word: rewrite.is_identity(p, w), True, group="nf"),
        ]
    return ops


# ---------------------------------------------------------------------------
# repro


def _repro_setup(size):
    from quatlat import presets

    for name in ("gamma3", "gamma4", "gamma32", "q5"):
        presets.get_presentation(name)


def _red_detail():
    """The 7b failure detail, rebuilt from the two symbolic sets: the set
    stated in the source and the validated endomorphism-transport set."""
    from quatlat import presets

    n = 10
    stated = {(0, 0, 0, 0), (3, -3, 3, 3), (-3, 3, -3, -3), (9, 9, 9, 9), (-9, -9, -9, -9)}
    for k in range(1, n + 1):
        stated |= {(0, k, -k, 0), (0, -k, k, 0)}
    valid = presets._diag_orbit_set(n)
    return (f"N={n}: {len(valid)} points; missing from enumeration: {sorted(stated - valid)}; "
            f"not in stated set: {sorted(valid - stated)}")


def _repro_ok(result, expected):
    code, text = result
    want_code, red_detail = expected
    lines = [_REPRO_LINE.match(line) for line in text.splitlines()]
    if code != want_code or None in lines or [m[2] for m in lines] != list(REPRO_CHECKS):
        return False
    for m in lines:
        if m[2] == REPRO_RED:
            if m[1] != "FAIL" or m[3] != red_detail:
                return False
        elif m[1] != "PASS":
            return False
    return True


def _repro_ops(_, seed, size):
    from quatlat import cli

    def repro():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(["repro"])
        return code, out.getvalue()

    return [Op("quatlat repro", repro, (1, _red_detail()), _repro_ok)]


REGISTRY = {
    "parikh": Workload(_parikh_setup, _parikh_ops, {"jobs2_s": "jobs2"}),
    "oracle": Workload(_oracle_setup, _oracle_ops, {"largest_table_s": "largest_table"}),
    "wordproblem": Workload(_wordproblem_setup, _wordproblem_ops, {"long_word_s": "long_word"}, "nf"),
    "repro": Workload(_repro_setup, _repro_ops),
}


# The host this benchmark was written on is shared: for stretches of
# seconds to a minute it runs every process at about half speed.  A
# speed probe is a fixed piece of pure-Python work that uses nothing of
# the package, timed between ops, so a run can tell how fast the host was
# while it ran.  PROBE_REF_S is the probe's time at full speed on that
# host (2-vCPU "Intel(R) Xeon(R) Processor", Python 3.11.7).
PROBE_REF_S = 0.00082
PROBE_EVERY_S = 0.02
PROBE_SAMPLES = 3


def speed_probe():
    """Seconds taken by the fixed probe work (dict and tuple traffic of
    the kind the rewriting code does)."""
    from time import perf_counter

    start = perf_counter()
    counts: dict = {}
    window: tuple = ()
    for i in range(2000):
        key = (i % 97, i % 13)
        counts[key] = counts.get(key, 0) + 1
        window = window[-20:] + (key,)
        if len(window) > 3 and window[-1] == window[-3]:
            window = window[:-2]
    return perf_counter() - start


def run_pass(ops, tracer=None):
    """Run every op once, timing each; check results after the timed loop.

    Returns (wall seconds, per-op records [name, group, seconds, ok],
    error strings, speed-probe seconds).  The wall time is the sum of the
    op times; probes run between ops, at least PROBE_EVERY_S apart, and
    after the last.  An op that raises, or whose result differs from its
    reference, is recorded as failed."""
    from time import perf_counter

    results, probes = [], []
    last_probe = float("-inf")
    for op in ops:
        if perf_counter() - last_probe >= PROBE_EVERY_S:
            probes += [speed_probe() for _ in range(PROBE_SAMPLES)]
            last_probe = perf_counter()
        if tracer is not None:
            tracer.op = op.name
        t0 = perf_counter()
        try:
            value, error = op.run(), None
        except Exception as exc:  # an op that raises is a failed op, not a crashed pass
            value, error = None, f"{op.name}: {type(exc).__name__}: {exc}"
        results.append((value, error, perf_counter() - t0))
    probes += [speed_probe() for _ in range(PROBE_SAMPLES)]
    wall = sum(seconds for _, _, seconds in results)
    records, errors = [], []
    for op, (value, error, seconds) in zip(ops, results):
        try:
            ok = error is None and bool(op.check(value, op.expected))
        except (TypeError, ValueError, AttributeError, KeyError, IndexError):
            ok = False  # a result of the wrong shape differs from its reference
        if error is not None:
            errors.append(error)
        elif not ok:
            errors.append(f"{op.name}: result differs from its reference")
        records.append([op.name, op.group, seconds, ok])
    return wall, records, errors, probes
