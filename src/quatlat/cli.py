"""Command-line entry point.

Subcommands: construct, verify, parikh, compare, growth, repro.
Exit codes: 0 success, 1 verification or comparison failure, 2 bad
usage or parameters.  Every command but repro prints UTF-8 JSON,
newline-terminated, byte-identical for identical configurations; repro
prints one text line per acceptance check.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from . import acceptance, lattice, parikh, presets, quat, rewrite
from .lattice import LatticeParams, Presentation


def _dump(data, out: str | None) -> None:
    text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ValueError(f"--out {out!r} cannot be written: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _load_lattice(arg: str) -> Presentation:
    if arg in presets.PRESET_NAMES:
        return presets.get_presentation(arg)
    if os.path.exists(arg):
        try:
            with open(arg, encoding="utf-8") as fh:
                return lattice.presentation_from_json(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, TypeError):
            raise ValueError(f"--lattice {arg!r} is not a presentation file as construct writes it") from None
        except ValueError as exc:  # ComplexError, FieldError, or bad field data
            raise ValueError(f"--lattice {arg!r}: {exc}") from None
    if "=" in arg:
        return lattice.build_square_table(_lattice_params(arg))
    raise ValueError(
        f"--lattice {arg!r} is neither a preset {presets.PRESET_NAMES}, a file, "
        "nor a parameter list like p=5,e=1,c=2,tau=3"
    )


@contextlib.contextmanager
def _too_large(flag: str, value):
    """Report the OverflowError that Python raises for a sequence longer
    than sys.maxsize, and the MemoryError it raises for one too long to
    allocate, as a ValueError naming the flag that asked for it."""
    try:
        yield
    except OverflowError:
        raise ValueError(f"{flag} {value!r} asks for a word or tuple longer than {sys.maxsize}") from None
    except MemoryError:
        raise ValueError(f"{flag} {value!r} asks for a word or tuple too long to hold in memory") from None


def _message(exc) -> str:
    """The text of a ValueError or KeyError; str() of a KeyError is the
    repr of its message, quotes and all."""
    return exc.args[0] if isinstance(exc, KeyError) and exc.args else str(exc)


@contextlib.contextmanager
def _naming(flag: str, value):
    """Prefix a ValueError or KeyError that the library raises for
    `value` with the flag that gave it."""
    try:
        yield
    except (ValueError, KeyError) as exc:
        raise ValueError(f"{flag} {value!r}: {_message(exc)}") from None


def _key_values(text: str, usage: str, keys: tuple, defaults: dict) -> dict:
    """The pairs of a "key=value,..." list as a dict of strings.  Each of
    `keys` must be given once, unless `defaults` has it, and no other key
    may appear; any fault raises ValueError with `usage`, which names the
    flag."""
    pairs = [part.split("=") for part in text.split(",")]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(usage)
    given = [key for key, _ in pairs]
    for fault, names in (
        ("repeated", sorted({key for key in given if given.count(key) > 1})),
        ("unknown", sorted(set(given) - set(keys))),
        ("missing", [key for key in keys if key not in given and key not in defaults]),
    ):
        if names:
            raise ValueError(f"{usage}; {fault} key {', '.join(names)}")
    return {**defaults, **dict(pairs)}


def _lattice_params(arg: str) -> LatticeParams:
    # format: "p=5,e=1,c=2,tau=3", e optional; for e > 1, c and tau are
    # little-endian coefficient vectors with ':' between coefficients,
    # as in "p=3,e=2,c=1:1,tau=0:1"
    usage = (f"--lattice {arg!r} is not a parameter list of the form p=..,e=..,c=..,tau=.. "
             "(e optional; c and tau may be coefficient vectors like 1:1)")
    kv = _key_values(arg, usage, ("p", "e", "c", "tau"), {"e": "1"})
    try:
        p, e = int(kv["p"]), int(kv["e"])
        c, tau = ([int(x) for x in kv[key].split(":")] for key in ("c", "tau"))
    except ValueError:
        raise ValueError(usage) from None
    with _naming("--lattice", arg):
        return LatticeParams.make(p, e, c, tau)


_REMAP_SIGNS = {"+": 1, "+1": 1, "1": 1, "-": -1, "-1": -1}


def _parse_remap(arg: str | None):
    # format: "0,+;1,+;3,+;2,-"
    if arg is None:
        return None
    out = []
    for part in arg.split(";"):
        try:
            slot, sign = part.split(",")
            slot = int(slot)
        except ValueError:
            raise ValueError(f"--remap {arg!r} is not a list of slot,sign pairs like 0,+;1,+;3,+;2,-") from None
        try:
            out.append((slot, _REMAP_SIGNS[sign.strip()]))
        except KeyError:
            raise ValueError(f"--remap sign {sign!r} is not one of {', '.join(_REMAP_SIGNS)}") from None
    return tuple(out)


def _spec_from_args(pres, args) -> parikh.BoundedLanguageSpec:
    with _too_large("--words", args.words), _naming("--words", args.words):
        words = tuple(rewrite.parse_word(pres, w) for w in args.words.split(";"))
        parikh.BoundedLanguageSpec(words)
    remap = _parse_remap(args.remap)
    with _naming("--remap", args.remap):
        return parikh.BoundedLanguageSpec(words, signed=args.signed, remap=remap)


def cmd_construct(args) -> int:
    _dump(_load_lattice(args.lattice).to_json(), args.out)
    return 0


def _suite_reports(pres: Presentation, args, powers: tuple) -> dict:
    suite = args.suite
    reports = {}
    applicable = False
    if suite in ("oracle", "all") and pres.kind == "parametric":
        applicable = True
        reports["oracle"] = lattice.oracle_check_table(pres)
    if suite in ("matrix", "all") and (pres.name == "gamma3" or (pres.params and pres.params.field.q == 3)):
        applicable = True
        rels = quat.gamma3_matrix_relations()
        reports["matrix"] = {"ok": all(rels.values()), "relations": rels}
    if suite in ("lemmas", "all") and pres.kind == "parametric":
        applicable = True
        with _too_large("--powers", args.powers):
            rep = lattice.check_finite_lemmas(pres, powers=powers)
        reports["lemmas"] = {
            "ok": rep["ok"],
            "failures": rep["failures"],
            "powers": {f"{a},{b},n={n}": v for (a, b, n), v in rep["powers"].items()},
        }
    if suite in ("endo", "all"):
        endo = {}
        if pres.kind == "parametric":
            phi = lattice.phi_k_map(pres, pres, pres.k_tau)
            endo["phi_k_tau"] = lattice.verify_homomorphism(pres, pres, phi)["ok"]
        elif pres.name in presets.ENDOMORPHISMS:
            label, images = presets.ENDOMORPHISMS[pres.name]
            endo[label] = lattice.verify_homomorphism(pres, pres, lattice.letter_map(pres, pres, images))["ok"]
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
            o1, o2 = presets.gamma3_orbits(target)
            reports["orbits"] = {"ok": o1 == 12 and o2 == 12, "pi_a_x2": o1, "pi_x_a2": o2}
    if suite in ("dict", "all") and pres.kind == "parametric" and pres.params.field.q == 3:
        applicable = True
        g3 = presets.get_presentation("gamma3")
        mapping = lattice.letter_map(g3, pres, presets.GAMMA3_DICTIONARY)
        reports["dict"] = {"ok": lattice.verify_homomorphism(g3, pres, mapping)["ok"]}
    if not applicable:
        raise ValueError(f"suite {suite!r} is not applicable to this lattice")
    return reports


def cmd_verify(args) -> int:
    pres = _load_lattice(args.lattice)
    try:
        powers = tuple(int(x) for x in args.powers.split(","))
    except ValueError:
        raise ValueError(f"--powers {args.powers!r} is not a comma list of integers like 1,2") from None
    if any(n < 0 for n in powers):  # checked here, since only the lemmas suite reads powers
        raise ValueError(f"--powers {args.powers!r}: powers must be >= 0, got {powers}")
    reports = _suite_reports(pres, args, powers)
    ok = all(rep["ok"] for rep in reports.values())
    _dump({"ok": ok, "suites": reports}, args.out)
    return 0 if ok else 1


def cmd_parikh(args) -> int:
    pres = _load_lattice(args.lattice)
    spec = _spec_from_args(pres, args)
    with _too_large("--bound", args.bound), _naming("--bound", args.bound):
        points = parikh.enumerate_parikh(pres, spec, args.bound)
    _dump({"bound": args.bound, "points": [list(p) for p in points]}, args.out)
    return 0


def _power_diagonal(flag: str, descriptor: str) -> parikh.PowerDiagonal:
    # format: "power-diagonal:m=9,d=4", d optional
    usage = f"{flag} {descriptor!r} is not of the form power-diagonal:m=..,d=.."
    kv = _key_values(descriptor.split(":", 1)[1], usage, ("m", "d"), {"d": "4"})
    try:
        m, d = int(kv["m"]), int(kv["d"])
    except ValueError:
        raise ValueError(usage) from None
    with _naming(flag, descriptor):
        return parikh.PowerDiagonal(m, d)


def _read_set(flag: str, descriptor: str, args, pres=None, spec=None):
    """The set a --expected or --set descriptor names: the registry entry
    of --lattice/--words, a power diagonal, a points file or, given the
    spec of the enumerated language, the prediction for its blocks."""
    if descriptor == "registry":
        if args.lattice is None or args.words is None:
            raise ValueError(f"{flag} registry needs both --lattice and --words")
        key = f"{args.lattice}/{args.words}"
        if key not in presets.EXAMPLES:
            raise ValueError(f"{flag} registry: no registered expected set for {key!r}")
        return presets.EXAMPLES[key].expected
    if descriptor.startswith("power-diagonal:"):
        return _power_diagonal(flag, descriptor)
    if descriptor == "power-diagonal" and spec is not None:
        if any(len(w) != 1 for w in spec.words):
            raise ValueError(f"{flag} {descriptor!r} needs --words blocks of one letter each")
        with _naming(flag, descriptor):
            return parikh.power_diagonal_prediction(pres, [w[0].token() for w in spec.words])
    if os.path.exists(descriptor):
        try:
            with open(descriptor, encoding="utf-8") as fh:
                points = json.load(fh)["points"]
        except (OSError, ValueError, KeyError, TypeError):
            raise ValueError(f"{flag} {descriptor!r} is not a JSON file with a points list") from None
        if not isinstance(points, list) or not all(
            isinstance(p, list) and p and all(type(x) is int for x in p) for p in points
        ):
            raise ValueError(f"{flag} {descriptor!r}: every point must be a non-empty list of integers")
        lengths = {len(p) for p in points}
        if len(lengths) > 1:
            raise ValueError(f"{flag} {descriptor!r}: points of different lengths {sorted(lengths)}")
        if spec is not None and lengths - {spec.arity}:
            raise ValueError(
                f"{flag} {descriptor!r}: points of length {lengths.pop()}, but --words has {spec.arity} blocks"
            )
        return [tuple(p) for p in points]
    raise ValueError(f"cannot interpret {flag} {descriptor!r}")


def cmd_compare(args) -> int:
    pres = _load_lattice(args.lattice)
    key = f"{args.lattice}/{args.words}"
    example = presets.EXAMPLES.get(key)
    if example is not None and args.expected == "registry":
        spec = example.spec(pres)
        if args.signed and not spec.signed:
            raise ValueError(f"--signed contradicts the registry entry {key!r}, which is unsigned")
        remap = _parse_remap(args.remap)
        if remap is not None and remap != spec.remap:
            raise ValueError(f"--remap {args.remap!r} contradicts the registry entry {key!r}")
        if args.bound is None:
            args.bound = example.bound
    else:
        spec = _spec_from_args(pres, args)
    if args.bound is None:
        raise ValueError("--bound is required without a registry entry")
    expected = _read_set("--expected", args.expected, args, pres, spec)
    with _too_large("--bound", args.bound), _naming("--bound", args.bound):
        points = parikh.enumerate_parikh(pres, spec, args.bound)
    report = parikh.compare(points, expected, args.bound)
    _dump({"ok": report.ok, "bound": args.bound, "points": [list(p) for p in points],
           "missing": [list(p) for p in report.missing], "extra": [list(p) for p in report.extra]}, args.out)
    return 0 if report.ok else 1


def cmd_growth(args) -> int:
    obj = _read_set("--set", args.set, args)
    with _too_large("--set", args.set), _naming("--n", args.n):
        count = parikh.growth(obj, args.n)
    _dump({"n": args.n, "growth": count}, args.out)
    return 0


def cmd_repro(args) -> int:
    results = acceptance.run_all(stream=sys.stdout)
    return 0 if all(r.ok for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="quatlat", description=__doc__)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="write a presentation with its swap table")
    p.add_argument("--lattice", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--lattice", required=True)
    p.add_argument("--suite", default="all", choices=["oracle", "matrix", "lemmas", "endo", "orbits", "dict", "all"])
    p.add_argument("--powers", default="1,2", help="comma list of n for the p^n relation checks")
    p.add_argument("--out")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("parikh", help="enumerate a Parikh image")
    p.add_argument("--lattice", required=True)
    p.add_argument("--words", required=True, help="semicolon-separated block words")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--signed", action="store_true")
    p.add_argument("--remap", help="output remap like '0,+;1,+;3,+;2,-' (signs +, +1, 1, -, -1)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_parikh)

    p = sub.add_parser("compare", help="enumerate and compare against a prediction")
    p.add_argument("--lattice", required=True)
    p.add_argument("--words", required=True)
    p.add_argument("--bound", type=int)
    p.add_argument("--signed", action="store_true")
    p.add_argument("--remap")
    p.add_argument("--expected", default="registry")
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
    p.set_defaults(func=cmd_repro)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError) as exc:
        print(f"error: {_message(exc)}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
