"""Time each layer of quatlat on its own: best of N runs in one process.

    python3 tools/layer_times.py [--repeat 5] [LAYER ...]

Prints one JSON line per layer, in the order of LAYERS below:
{"layer", "case", "best_s", "runs"}, with `best_s` the fastest of `runs`
calls in seconds.  Each layer's inputs (fields, tables, words) are built
before its first timed call, so no call is charged for them.  With no
LAYER named every layer runs; `--list` prints their names.  Imports the
package from the `src` next to this script; standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from quatlat import rewrite  # noqa: E402
from quatlat.ff import Field, QuadExt, find_nonsquare, norm_fiber  # noqa: E402
from quatlat.lattice import (  # noqa: E402
    LatticeParams, build_generators, build_square_table, named_presentation, oracle_check_table)
from quatlat.presets import get_presentation  # noqa: E402
from quatlat.quat import Poly, ProjQuat, QuatAlgebra, poly_gcd, verify_power_lemma  # noqa: E402


def _params(p, e):
    field = Field(p, e)
    return LatticeParams(QuadExt(field, find_nonsquare(field)), field.from_index(2))


def _random_poly(rng, field, degree):
    return Poly(field, [field.from_index(rng.randrange(field.q)) for _ in range(degree)] + [field.one])


def field_mul():
    elems = Field(3, 4).elems
    return "F_81: all 6,561 products x*y of FieldElems", lambda: [x * y for x in elems for y in elems]


def poly_gcd_layer():
    rng, field = random.Random(1), Field(3, 4)
    pairs = []
    for _ in range(50):
        g = _random_poly(rng, field, 10)
        pairs.append((g * _random_poly(rng, field, 20), g * _random_poly(rng, field, 20)))
    return "F_81[t]: 50 gcds of degree-30 pairs with a common degree-10 factor", lambda: [
        poly_gcd(a, b) for a, b in pairs]


def projquat():
    params = _params(3, 4)
    algebra = QuatAlgebra(params.ext)
    powers = [algebra.generator_quat(xi) ** 9 for xi in norm_fiber(params.ext, params.a_norm_target)]
    return "q=81: the canonical forms of the 82 ninth powers a^9 of the A generators", lambda: [
        ProjQuat(x) for x in powers]


def power_lemma():
    field = Field(3, 2)
    params = LatticeParams(QuadExt(field, find_nonsquare(field)), field.from_index(random.Random(6).randrange(2, 9)))
    algebra = QuatAlgebra(params.ext)
    fiber_a, fiber_b = build_generators(params)

    def run():
        algebra._lemma_params.clear()  # one parameter build per k, as in a fresh process
        return [verify_power_lemma(algebra, xi, None, k) for k in (1, 2) for xi in fiber_a + fiber_b]
    return f"q=9: verify_power_lemma at k=1 and 2 on the {len(fiber_a + fiber_b)} generators", run


def oracle(p, e):
    def layer():
        pres = build_square_table(_params(p, e))
        return f"q={p**e}: oracle_check_table on {len(pres.swap):,} entries", lambda: oracle_check_table(pres)
    return layer


def square_table():
    params = _params(3, 5)
    return "q=243: build_square_table, 59,536 entries", lambda: build_square_table(params)


def _word(pres, rng, n):
    letters = pres.alphabet_a + pres.alphabet_b
    return tuple(rng.choice(letters) for _ in range(n))


def append_letter():
    pres = named_presentation("gamma3")
    word = _word(pres, random.Random(2), 1000)

    def run():
        a_part, b_part = [], []
        for g in word:
            rewrite.append_letter(pres, a_part, b_part, g)
    return "gamma3: 1,000 append_letter calls, a seeded random word letter by letter", run


def push_through():
    pres = build_square_table(_params(5, 1))
    rng = random.Random(4)
    rows = [pres._rows[pres._code[rng.choice(pres.alphabet_a)]] for _ in range(2000)]
    b_part = [pres._code[rng.choice(pres.alphabet_b)] for _ in range(54)]

    def run():
        part = list(b_part)
        for row in rows:
            rewrite._push_through(row, part)
    return "q=5: 2,000 seeded A letters, each pushed through a 54-letter B part", run


def push_run(name, n):
    def layer():
        pres = get_presentation(name)
        rng = random.Random(5)
        run = bytes(pres._code[rng.choice(pres.alphabet_a)] for _ in range(n))
        b_part = [pres._code[rng.choice(pres.alphabet_b)] for _ in range(n)]
        rewrite._push_run(pres, run, list(b_part))  # builds the band tables, once per presentation and side
        return f"{name}: a seeded {n:,}-letter A run pushed through a {n:,}-letter B part", lambda: rewrite._push_run(
            pres, run, list(b_part))
    return layer


def normal_form():
    pres = build_square_table(_params(5, 1))
    word = _word(pres, random.Random(3), 400)
    return "q=5: normal_form of a seeded random word of length 400", lambda: rewrite.normal_form(pres, word)


# name -> a function that builds the inputs and returns (case, timed call)
LAYERS = {
    "ff.mul": field_mul,
    "quat.poly_gcd": poly_gcd_layer,
    "quat.ProjQuat": projquat,
    "quat.verify_power_lemma.q9": power_lemma,
    "lattice.oracle_check_table.q11": oracle(11, 1),
    "lattice.oracle_check_table.q81": oracle(3, 4),
    "lattice.build_square_table.q243": square_table,
    "rewrite.append_letter": append_letter,
    "rewrite.push_through.L54": push_through,
    "rewrite.push_run.L1458": push_run("gamma3", 1458),
    "rewrite.push_run.q5.L125": push_run("q5", 125),
    "rewrite.normal_form.L400": normal_form,
}


def best_of(call, repeat):
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("layers", nargs="*", metavar="LAYER", help="layers to time (default: all)")
    parser.add_argument("--repeat", type=int, default=5, help="timed calls per layer; the best is reported")
    parser.add_argument("--list", action="store_true", help="print the layer names and exit")
    args = parser.parse_args(argv)
    if args.list:
        print("\n".join(LAYERS))
        return 0
    unknown = [name for name in args.layers if name not in LAYERS]
    if unknown:
        parser.error(f"unknown layer(s) {', '.join(unknown)}; --list names them")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    for name in LAYERS:
        if name in args.layers or not args.layers:
            case, call = LAYERS[name]()
            print(json.dumps({"layer": name, "case": case, "best_s": float(f"{best_of(call, args.repeat):.4g}"),
                              "runs": args.repeat}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
