"""Per-layer tracing for the benchmark, patched in from outside `src/`.

A Tracer wraps the package's public functions at every binding a caller
uses: for a module-level function, each `quatlat.*` module attribute that
refers to it is replaced (so `quatlat.parikh.append_letter` is wrapped as
well as `quatlat.rewrite.append_letter`); for a method, the class
attribute.  Three kinds of wrapper exist:

- spans: coarse calls (an enumeration, a square table, one acceptance
  check).  Each records (id, name, start, end, parent id, op) in memory.
- timed: hot calls (append_letter, ProjQuat construction, norm fibers)
  whose call count and total time are kept, without a span per call.
- counted: the hottest calls (field multiplication, polynomial
  division), whose calls are only counted.

Spans and timed calls share one stack, so each layer's self time is the
time inside its timed boundaries minus the time of the timed boundaries
nested in them.  Time in a counted call is charged to the innermost timed
boundary around it.  Tracing is only installed in a traced pass, which
runs in its own process; nothing is ever unpatched.
"""

from __future__ import annotations

import itertools
import sys
from collections import Counter, defaultdict
from time import perf_counter

from workloads import REPRO_CHECKS

# (module, attribute, metric stem, layer, record a span per call)
TIMED = (
    ("presets", "get_presentation", "presets.get_presentation", "presets", True),
    ("lattice", "named_presentation", "lattice.named_presentation", "lattice", True),
    ("lattice", "build_square_table", "lattice.build_square_table", "lattice", True),
    ("lattice", "oracle_check_table", "lattice.oracle_check_table", "lattice", True),
    ("lattice", "solve_square", "lattice.solve_square", "lattice", False),
    ("parikh", "enumerate_parikh", "parikh.enumerate_parikh", "parikh", True),
    ("rewrite", "normal_form", "rewrite.normal_form", "rewrite", True),
    ("rewrite", "is_identity", "rewrite.is_identity", "rewrite", True),
    ("quat", "verify_power_lemma", "quat.verify_power_lemma", "quat", True),
    ("quat", "ProjQuat.__init__", "quat.ProjQuat.new", "quat", False),
    ("quat", "Quat.__mul__", "quat.Quat.mul", "quat", False),
    ("ff", "norm_fiber", "ff.norm_fiber", "ff", False),
    ("ff", "QuadElem.__mul__", "ff.QuadElem.mul", "ff", False),
    ("acceptance", "run_all", "acceptance.run_all", "acceptance", True),
    ("acceptance", "run_check", None, "acceptance", True),  # named by its check
    ("cli", "main", "cli.main", "cli", True),
)

# (module, attribute, metric stem)
COUNTED = (
    ("ff", "FieldElem.__mul__", "ff.FieldElem.mul"),
    ("ff", "FieldElem.inverse", "ff.FieldElem.inverse"),
    ("ff", "FieldElem.__pow__", "ff.FieldElem.pow"),
    ("ff", "Field.element", "ff.Field.element"),
    ("quat", "poly_gcd", "quat.poly_gcd"),
    ("quat", "Poly.__divmod__", "quat.Poly.divmod"),
    ("quat", "RatFun.__init__", "quat.RatFun.new"),
)


# Every per-layer metric with its unit, in BENCHMARK.json order.
# `<stem>.s` is total seconds inside a boundary, `<stem>.calls` its call
# count, `<layer>.self_s` the layer's self time.
PER_LAYER = (
    ("parikh.enumerate_parikh.s", "s"),
    ("parikh.append_calls", "count"),
    ("parikh.self_s", "s"),
    ("rewrite.append_letter.s", "s"),
    ("rewrite.swap_lookups", "count"),
    ("rewrite.ns_per_swap", "ns"),
    ("rewrite.peak_nf_len", "letters"),
    ("rewrite.normal_form.calls", "count"),
    ("rewrite.normal_form.s", "s"),
    ("rewrite.is_identity.s", "s"),
    ("rewrite.self_s", "s"),
    ("lattice.build_square_table.s", "s"),
    ("lattice.solve_square.calls", "count"),
    ("lattice.oracle_check_table.s", "s"),
    ("lattice.named_presentation.s", "s"),
    ("lattice.self_s", "s"),
    ("presets.get_presentation.s", "s"),
    ("presets.self_s", "s"),
    ("quat.ProjQuat.new.calls", "count"),
    ("quat.ProjQuat.new.s", "s"),
    ("quat.poly_gcd.calls", "count"),
    ("quat.Poly.divmod.calls", "count"),
    ("quat.RatFun.new.calls", "count"),
    ("quat.verify_power_lemma.s", "s"),
    ("quat.self_s", "s"),
    ("ff.FieldElem.mul.calls", "count"),
    ("ff.FieldElem.inverse.calls", "count"),
    ("ff.FieldElem.pow.calls", "count"),
    ("ff.Field.element.calls", "count"),
    ("ff.norm_fiber.s", "s"),
    ("ff.self_s", "s"),
    *((f"acceptance.{check}.s", "s") for check in REPRO_CHECKS),
    ("acceptance.self_s", "s"),
    ("cli.overhead_s", "s"),
    ("trace.overhead_frac", "frac"),
)

_REWRITE = ("rewrite.append_letter.s", "rewrite.swap_lookups", "rewrite.ns_per_swap", "rewrite.peak_nf_len", "rewrite.self_s")
_SETUP = ("lattice.named_presentation.s", "presets.get_presentation.s", "presets.self_s")

# The workload on which each metric must be nonzero; a patch that misses
# its binding reads zero there and fails the traced run.
HOME = {
    "parikh": ("parikh.enumerate_parikh.s", "parikh.append_calls", "parikh.self_s", *_REWRITE, *_SETUP, "lattice.self_s"),
    "wordproblem": (*_REWRITE, "rewrite.normal_form.calls", "rewrite.normal_form.s", "rewrite.is_identity.s", *_SETUP),
    "oracle": tuple(name for name, _ in PER_LAYER if name.split(".")[0] in ("lattice", "quat", "ff") and name not in _SETUP),
    "repro": (*(f"acceptance.{check}.s" for check in REPRO_CHECKS), "acceptance.self_s", "cli.overhead_s",
              "quat.ProjQuat.new.calls", "quat.verify_power_lemma.s", *_SETUP),
}


def _rebind(original, wrapper):
    """Replace `original` by `wrapper` at every quatlat module binding;
    returns how many bindings were replaced."""
    hits = 0
    for modname, module in list(sys.modules.items()):
        if modname != "quatlat" and not modname.startswith("quatlat."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)
                hits += 1
    return hits


class Tracer:
    def __init__(self):
        self.op = None  # name of the op being run; spans of one op share it
        self.spans = []  # (id, name, start, end, parent id, op)
        self.calls = Counter()
        self.seconds = defaultdict(float)
        self.self_seconds = defaultdict(float)
        self.swap_lookups = 0
        self.peak_nf_len = 0
        self._stack = []  # [nearest span id, seconds spent in timed children]
        self._ids = itertools.count(1)

    def timed(self, fn, name, layer, record):
        calls, seconds, self_seconds = self.calls, self.seconds, self.self_seconds
        stack, spans, ids, tracer = self._stack, self.spans, self._ids, self

        def wrapper(*args, **kwargs):
            label = name or f"acceptance.{args[0]}"
            parent = stack[-1][0] if stack else None
            frame = [next(ids) if record else parent, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                took = end - start
                calls[label] += 1
                seconds[label] += took
                self_seconds[layer] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                if record:
                    spans.append((frame[0], label, start, end, parent, tracer.op))

        return wrapper

    def counted(self, fn, name):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _append_letter(self, fn, parikh_binding):
        """append_letter(pres, a_part, b_part, g, order): a letter on the
        wrong side is pushed through the other component, one swap-table
        lookup per letter of it."""
        tracer, calls = self, self.calls

        def wrapper(pres, a_part, b_part, g, order="AB"):
            if parikh_binding:
                calls["parikh.append_letter"] += 1
            if order == "AB":
                pushed = len(b_part) if g.side == "A" else 0
            else:
                pushed = len(a_part) if g.side == "B" else 0
            tracer.swap_lookups += pushed
            length = len(a_part) + len(b_part)
            if length > tracer.peak_nf_len:
                tracer.peak_nf_len = length
            return fn(pres, a_part, b_part, g, order)

        return wrapper

    def install(self):
        """Wrap every boundary; raises if one cannot be found."""
        import quatlat.acceptance
        import quatlat.cli  # noqa: F401  (loads every module to be patched)

        def resolve(module, attr):
            owner = sys.modules[f"quatlat.{module}"]
            cls, _, method = attr.rpartition(".")
            if cls:
                owner = getattr(owner, cls)
            return owner, method, getattr(owner, method)

        def patch(module, attr, wrapper):
            owner, method, original = resolve(module, attr)
            if isinstance(owner, type):
                setattr(owner, method, wrapper)
            elif _rebind(original, wrapper) == 0:
                raise RuntimeError(f"no binding of quatlat.{module}.{attr} found")

        # append_letter: the parikh binding also counts the search's calls
        rewrite, parikh = sys.modules["quatlat.rewrite"], sys.modules["quatlat.parikh"]
        timed_append = self.timed(rewrite.append_letter, "rewrite.append_letter", "rewrite", False)
        if parikh.append_letter is not rewrite.append_letter:
            raise RuntimeError("quatlat.parikh.append_letter is not quatlat.rewrite.append_letter")
        parikh.append_letter = self._append_letter(timed_append, True)
        patch("rewrite", "append_letter", self._append_letter(timed_append, False))
        for module, attr, name, layer, record in TIMED:
            patch(module, attr, self.timed(resolve(module, attr)[2], name, layer, record))
        for module, attr, name in COUNTED:
            patch(module, attr, self.counted(resolve(module, attr)[2], name))

    def metrics(self) -> dict:
        """Every per-layer metric but trace.overhead_frac, for one pass."""
        special = {
            "parikh.append_calls": self.calls["parikh.append_letter"],
            "rewrite.swap_lookups": self.swap_lookups,
            "rewrite.ns_per_swap": (
                1e9 * self.seconds["rewrite.append_letter"] / self.swap_lookups if self.swap_lookups else 0.0
            ),
            "rewrite.peak_nf_len": self.peak_nf_len,
            "cli.overhead_s": self.seconds["cli.main"] - self.seconds["acceptance.run_all"],
        }
        out = {}
        for name, _ in PER_LAYER:
            stem, _, kind = name.rpartition(".")
            if name in special:
                out[name] = special[name]
            elif kind == "s":
                out[name] = self.seconds[stem]
            elif kind == "calls":
                out[name] = self.calls[stem]
            elif kind == "self_s":
                out[name] = self.self_seconds[stem]
        return out


def missing_on_home(workload, metrics):
    """Names of the metrics that should be nonzero on this workload but
    are not."""
    return [name for name in HOME[workload] if not metrics.get(name)]
