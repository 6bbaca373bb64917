"""Command-line entry point.

Subcommands: construct, verify, parikh, compare, growth, repro.
Exit codes: 0 success, 1 verification or comparison failure, 2 bad
usage or parameters.  All output is UTF-8 JSON, newline-terminated,
byte-identical for identical configurations.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import acceptance, lattice, parikh, presets, quat, rewrite
from .lattice import LatticeParams, Presentation


def _dump(data, out: str | None) -> None:
    text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _load_lattice(arg: str) -> Presentation:
    if arg in presets.PRESET_NAMES:
        return presets.get_presentation(arg)
    if os.path.exists(arg):
        with open(arg, encoding="utf-8") as fh:
            return lattice.presentation_from_json(json.load(fh))
    if "=" in arg:
        return lattice.build_square_table(_lattice_params(arg))
    raise ValueError(
        f"--lattice {arg!r} is neither a preset {presets.PRESET_NAMES}, a file, "
        "nor a parameter list like p=5,e=1,c=2,tau=3"
    )


def _lattice_params(arg: str) -> LatticeParams:
    # format: "p=5,e=1,c=2,tau=3", e optional
    usage = f"--lattice {arg!r} is not a parameter list of the form p=..,e=..,c=..,tau=.. (e optional)"
    try:
        pairs = [part.split("=") for part in arg.split(",")]
        kv = {k: int(v) for k, v in pairs}
        if len(kv) != len(pairs):
            raise ValueError("repeated key")
        p, e, c, tau = kv.pop("p"), kv.pop("e", 1), kv.pop("c"), kv.pop("tau")
    except (ValueError, KeyError):
        raise ValueError(usage) from None
    if kv:
        raise ValueError(f"{usage}; unknown key {', '.join(sorted(kv))}")
    return LatticeParams.make(p, e, c, tau)


_REMAP_SIGNS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def _parse_remap(arg: str | None):
    # format: "0,+;1,+;3,+;2,-"
    if not arg:
        return None
    out = []
    for part in arg.split(";"):
        try:
            slot, sign = part.split(",")
            slot = int(slot)
        except ValueError:
            raise ValueError(
                f"--remap {arg!r} is not a list of slot,sign pairs like 0,+;1,+;3,+;2,-"
            ) from None
        try:
            out.append((slot, _REMAP_SIGNS[sign.strip()]))
        except KeyError:
            raise ValueError(f"--remap sign {sign!r} is not one of {', '.join(_REMAP_SIGNS)}") from None
    return tuple(out)


def _spec_from_args(pres, args) -> parikh.BoundedLanguageSpec:
    words = tuple(rewrite.parse_word(pres, w) for w in args.words.split(";"))
    return parikh.BoundedLanguageSpec(
        words, signed=args.signed, remap=_parse_remap(getattr(args, "remap", None))
    )


def _field_value(text: str):
    # bare integer for prime fields, comma-separated coefficients otherwise
    if "," in text:
        return [int(x) for x in text.split(",")]
    return int(text)


def _factor_prime_power(q: int):
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            while q % p == 0:
                q //= p
                e += 1
            if q != 1:
                raise ValueError("q must be a prime power")
            return p, e
    raise ValueError("q must be a prime power >= 3")


def cmd_construct(args) -> int:
    if args.q is not None:
        if args.p is not None:
            raise ValueError("give either --q or --p/--e, not both")
        p, e = _factor_prime_power(args.q)
    elif args.p is not None:
        p, e = args.p, args.e
    else:
        raise ValueError("one of --q or --p is required")
    params = LatticeParams.make(p, e, _field_value(args.c), _field_value(args.tau))
    pres = lattice.build_square_table(params)
    data = pres.to_json()
    data["table"] = [
        {"a": a.to_json(), "b": b.to_json(), "b2": b2.to_json(), "a2": a2.to_json()}
        for (a, b), (b2, a2) in sorted(
            pres.swap.items(), key=lambda kv: (kv[0][0].token(), kv[0][1].token())
        )
    ]
    _dump(data, args.out)
    return 0


def _suite_reports(pres: Presentation, suite: str, powers) -> dict:
    reports = {}
    applicable = False
    if suite in ("oracle", "all") and pres.kind == "parametric":
        applicable = True
        reports["oracle"] = lattice.oracle_check_table(pres)
    if suite in ("matrix", "all") and (
        pres.name == "gamma3" or (pres.params and pres.params.field.q == 3)
    ):
        applicable = True
        rels = quat.gamma3_matrix_relations()
        reports["matrix"] = {"ok": all(rels.values()), "relations": rels}
    if suite in ("lemmas", "all") and pres.kind == "parametric":
        applicable = True
        rep = lattice.check_finite_lemmas(pres, powers=powers)
        reports["lemmas"] = {
            "ok": rep["ok"],
            "failures": rep["failures"],
            "powers": {f"{a},{b},n={n}": v for (a, b, n), v in rep["powers"].items()},
        }
    if suite in ("endo", "all"):
        endo = {}
        if pres.kind == "parametric":
            endo["phi_k_tau"] = lattice.verify_homomorphism(
                pres, pres, lattice.phi_k_map(pres, pres, pres.k_tau)
            )["ok"]
        elif pres.name == "gamma3":
            cube = lattice.letter_map(
                pres, pres, {"a": ["a"] * 3, "b": ["b"] * 3, "x": ["x^-1"] * 3, "y": ["y^-1"] * 3}
            )
            endo["cube"] = lattice.verify_homomorphism(pres, pres, cube)["ok"]
        elif pres.name == "gamma4":
            m = lattice.letter_map(
                pres, pres, {"a": ["a"] * 4, "b": ["b"] * 4, "x": ["x"], "y": ["y"]}
            )
            endo["fourth_power"] = lattice.verify_homomorphism(pres, pres, m)["ok"]
        if endo:
            applicable = True
            reports["endo"] = {"ok": all(endo.values()), **endo}
    if suite in ("orbits", "all"):
        target = None
        if pres.name == "gamma3":
            target = pres
        elif pres.kind == "parametric" and pres.params.field.q == 3:
            target = presets.get_presentation("gamma3")
        if target is not None:
            applicable = True
            a = rewrite.parse_word(target, "a")
            x = rewrite.parse_word(target, "x")
            o1 = rewrite.orbit_size(target, a, rewrite.parse_word(target, "x,x"))
            o2 = rewrite.orbit_size(target, x, rewrite.parse_word(target, "a,a"))
            reports["orbits"] = {"ok": o1 == 12 and o2 == 12, "pi_a_x2": o1, "pi_x_a2": o2}
    if suite in ("dict", "all") and pres.kind == "parametric" and pres.params.field.q == 3:
        applicable = True
        ok = lattice.check_gamma3_dictionary(pres, presets.get_presentation("gamma3"))
        reports["dict"] = {"ok": ok}
    if not applicable:
        raise ValueError(f"suite {suite!r} is not applicable to this lattice")
    return reports


def cmd_verify(args) -> int:
    pres = _load_lattice(args.lattice)
    powers = tuple(int(x) for x in args.powers.split(",")) if args.powers else (1, 2)
    reports = _suite_reports(pres, args.suite, powers)
    ok = all(rep["ok"] for rep in reports.values())
    _dump({"ok": ok, "suites": reports}, args.out)
    return 0 if ok else 1


def cmd_parikh(args) -> int:
    pres = _load_lattice(args.lattice)
    spec = _spec_from_args(pres, args)
    points = parikh.enumerate_parikh(pres, spec, args.bound, jobs=args.jobs)
    _dump({"bound": args.bound, "points": [list(p) for p in points]}, args.out)
    return 0


def _power_diagonal(flag: str, descriptor: str) -> parikh.PowerDiagonal:
    # format: "power-diagonal:m=9,d=4", d optional
    usage = f"{flag} {descriptor!r} is not of the form power-diagonal:m=..,d=.."
    try:
        kv = dict(part.split("=") for part in descriptor.split(":", 1)[1].split(","))
        m, d = int(kv.pop("m")), int(kv.pop("d", 4))
    except (ValueError, KeyError):
        raise ValueError(usage) from None
    if kv:
        raise ValueError(usage)
    return parikh.PowerDiagonal(m, d)


def _registered_expected(args):
    if args.lattice is None or args.words is None:
        raise ValueError("a registry lookup needs both --lattice and --words")
    key = f"{args.lattice}/{args.words}"
    try:
        return presets.EXAMPLES[key].expected
    except KeyError:
        raise ValueError(f"no registered expected set for {key!r}") from None


def _expected_from_descriptor(descriptor, pres, args):
    if descriptor == "registry":
        return _registered_expected(args)
    if descriptor.startswith("power-diagonal"):
        if ":" in descriptor:
            return _power_diagonal("--expected", descriptor)
        tokens = [w for w in args.words.split(";")]
        return parikh.power_diagonal_prediction(pres, tokens)
    if os.path.exists(descriptor):
        with open(descriptor, encoding="utf-8") as fh:
            return [tuple(p) for p in json.load(fh)["points"]]
    raise ValueError(f"cannot interpret --expected {descriptor!r}")


def cmd_compare(args) -> int:
    pres = _load_lattice(args.lattice)
    key = f"{args.lattice}/{args.words}"
    example = presets.EXAMPLES.get(key)
    if example is not None and args.expected == "registry":
        spec = example.spec(pres)
        if args.bound is None:
            args.bound = example.bound
    else:
        spec = _spec_from_args(pres, args)
    if args.bound is None:
        raise ValueError("--bound is required without a registry entry")
    expected = _expected_from_descriptor(args.expected, pres, args)
    points = parikh.enumerate_parikh(pres, spec, args.bound, jobs=args.jobs)
    report = parikh.compare(points, expected, args.bound)
    _dump(
        {
            "ok": report.ok,
            "bound": args.bound,
            "points": [list(p) for p in points],
            "missing": [list(p) for p in report.missing],
            "extra": [list(p) for p in report.extra],
        },
        args.out,
    )
    return 0 if report.ok else 1


def cmd_growth(args) -> int:
    if args.set.startswith("power-diagonal:"):
        obj = _power_diagonal("--set", args.set)
    elif args.set == "registry":
        obj = _registered_expected(args)
        if callable(obj):
            obj = obj(args.n)
    elif os.path.exists(args.set):
        with open(args.set, encoding="utf-8") as fh:
            obj = [tuple(p) for p in json.load(fh)["points"]]
    else:
        raise ValueError(f"cannot interpret --set {args.set!r}")
    _dump({"n": args.n, "growth": parikh.growth(obj, args.n)}, args.out)
    return 0


def cmd_repro(args) -> int:
    results = acceptance.run_all(jobs=args.jobs, stream=sys.stdout)
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="quatlat", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a parametric presentation")
    p.add_argument("--q", type=int, help="prime power; alternative to --p/--e")
    p.add_argument("--p", type=int)
    p.add_argument("--e", type=int, default=1)
    p.add_argument("--c", required=True, help="int, or comma-separated coefficients for e > 1")
    p.add_argument("--tau", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--lattice", required=True)
    p.add_argument(
        "--suite",
        default="all",
        choices=["oracle", "matrix", "lemmas", "endo", "orbits", "dict", "all"],
    )
    p.add_argument("--powers", help="comma list of n for the p^n relation checks")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("parikh", help="enumerate a Parikh image")
    p.add_argument("--lattice", required=True)
    p.add_argument("--words", required=True, help="semicolon-separated block words")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--signed", action="store_true")
    p.add_argument("--remap", help="output remap like '0,+;1,+;3,+;2,-' (signs +, +1, 1, -, -1)")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_parikh)

    p = sub.add_parser("compare", help="enumerate and compare against a prediction")
    p.add_argument("--lattice", required=True)
    p.add_argument("--words", required=True)
    p.add_argument("--bound", type=int)
    p.add_argument("--signed", action="store_true")
    p.add_argument("--remap")
    p.add_argument("--expected", default="registry")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("growth", help="growth of a set inside [0, n]^d")
    p.add_argument("--set", required=True, help="power-diagonal:m=9,d=4 | registry | points file")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--lattice")
    p.add_argument("--words")
    p.add_argument("--out")
    p.set_defaults(func=cmd_growth)

    p = sub.add_parser("repro", help="run the full acceptance suite")
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=cmd_repro)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
