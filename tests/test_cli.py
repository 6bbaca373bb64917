import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

from quatlat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_q3(capsys, tmp_path):
    code, out = run(capsys, "construct", "--lattice", "p=3,c=-1,tau=-1")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "parametric"
    assert data["k_tau"] == 2
    assert len(data["squares"]) == 4
    assert len(data["table"]) == 16
    assert data["params"]["field"] == {"p": 3, "e": 1, "modulus": [0, 1]}


def test_construct_deterministic(capsys):
    _, out1 = run(capsys, "construct", "--lattice", "p=5,c=2,tau=3")
    _, out2 = run(capsys, "construct", "--lattice", "p=5,c=2,tau=3")
    assert out1 == out2
    assert out1.endswith("\n")


def test_construct_rejects_square_c(capsys):
    code, _ = run(capsys, "construct", "--lattice", "p=3,c=1,tau=-1")
    assert code == 2


def test_verify_suites(capsys):
    assert run(capsys, "verify", "--lattice", "gamma3", "--suite", "matrix")[0] == 0
    assert run(capsys, "verify", "--lattice", "gamma3", "--suite", "orbits")[0] == 0
    assert run(capsys, "verify", "--lattice", "q3", "--suite", "oracle")[0] == 0
    assert run(capsys, "verify", "--lattice", "q3", "--suite", "dict")[0] == 0
    assert run(capsys, "verify", "--lattice", "gamma4", "--suite", "endo")[0] == 0
    code, out = run(capsys, "verify", "--lattice", "q5", "--suite", "all")
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and data["suites"]["oracle"]["ok"]


def test_verify_rejects_negative_powers(capsys):
    code, out = run(capsys, "verify", "--lattice", "q3", "--suite", "lemmas", "--powers", "-1")
    assert code == 2 and out == ""


def test_verify_inapplicable_suite(capsys):
    code, _ = run(capsys, "verify", "--lattice", "gamma32", "--suite", "oracle")
    assert code == 2


def test_verify_param_lattice(capsys):
    code, out = run(capsys, "verify", "--lattice", "p=7,e=1,c=3,tau=2", "--suite", "oracle")
    assert code == 0
    assert json.loads(out)["ok"]


def test_verify_from_file(capsys, tmp_path):
    path = tmp_path / "lat.json"
    code, _ = run(capsys, "construct", "--lattice", "p=3,c=-1,tau=-1", "--out", str(path))
    assert code == 0
    code, out = run(capsys, "verify", "--lattice", str(path), "--suite", "oracle")
    assert code == 0


def test_parikh_command(capsys):
    code, out = run(
        capsys,
        "parikh",
        "--lattice",
        "gamma3",
        "--words",
        "a;x;b^-1;x",
        "--bound",
        "10",
    )
    assert code == 0
    data = json.loads(out)
    assert data["points"] == [[0, 0, 0, 0], [1, 1, 1, 1], [9, 9, 9, 9]]


def test_parikh_signed_remap(capsys):
    code, out = run(
        capsys,
        "parikh",
        "--lattice",
        "gamma3",
        "--words",
        "a;x;b;x",
        "--bound",
        "4",
        "--signed",
        "--remap",
        "0,+;1,+;3,+;2,-",
    )
    assert code == 0
    points = [tuple(p) for p in json.loads(out)["points"]]
    assert (3, -3, -3, 3) in points and (1, 1, 1, 1) in points


def test_parikh_remap_signs(capsys):
    argv = ("parikh", "--lattice", "gamma3", "--words", "a;x;b;x", "--bound", "2", "--signed", "--remap")
    code, short = run(capsys, *argv, "0,+;1,+;3,+;2,-")
    assert code == 0
    assert run(capsys, *argv, "0,+1;1,1;3,+;2,-1") == (0, short)
    code, out = run(capsys, *argv, "0,+;1,+;3,+;2,banana")
    assert code == 2 and out == ""


def test_compare_registry(capsys):
    code, out = run(
        capsys, "compare", "--lattice", "gamma3", "--words", "a;x;b^-1;x", "--bound", "12"
    )
    assert code == 0
    assert json.loads(out)["ok"]


def test_compare_all_registered_defaults(capsys):
    for key in (
        "gamma4/b;x;a;x^-1",
        "gamma32/b;x;a^-1;y^-1",
        "q5/A0;B2;A0^-1;B2^-1",
    ):
        lattice, words = key.split("/", 1)
        code, out = run(capsys, "compare", "--lattice", lattice, "--words", words)
        assert code == 0, key
        assert json.loads(out)["ok"], key


def test_compare_mismatch_exits_nonzero(capsys):
    code, out = run(
        capsys,
        "compare",
        "--lattice",
        "gamma3",
        "--words",
        "a;x;b^-1;x",
        "--bound",
        "10",
        "--expected",
        "power-diagonal:m=5,d=4",
    )
    assert code == 1
    data = json.loads(out)
    assert not data["ok"] and data["missing"]


def test_compare_power_diagonal_auto(capsys):
    # the words a;b;a2^-1;b2^-1 of the first non-commuting square ab = b2a2
    from quatlat.presets import get_presentation

    pres = get_presentation("q5")
    sq = [s for s in pres.squares if not s.commuting][0]
    words = ";".join(
        g.token() for g in (sq.a, sq.b, pres.inverse[sq.a2], pres.inverse[sq.b2])
    )
    code, out = run(
        capsys, "compare", "--lattice", "q5", "--words", words, "--bound", "8",
        "--expected", "power-diagonal",
    )
    assert code == 0
    assert json.loads(out)["ok"]


def test_growth_command(capsys):
    code, out = run(capsys, "growth", "--set", "power-diagonal:m=9,d=4", "--n", "100")
    assert code == 0
    assert json.loads(out)["growth"] == 4


def test_growth_registry(capsys):
    code, out = run(
        capsys,
        "growth",
        "--set",
        "registry",
        "--lattice",
        "gamma4",
        "--words",
        "a;x;b^-1;y^-1",
        "--n",
        "15",
    )
    assert code == 0
    # {0} plus (1+3n, 1, 1+3n, 1) for 1+3n <= 15
    assert json.loads(out)["growth"] == 6


def test_growth_rejects_negative_n(capsys):
    code = main(["growth", "--set", "power-diagonal:m=9,d=4", "--n", "-1"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "n >= 0" in captured.err


def test_malformed_power_diagonal_names_the_flag(capsys):
    for argv, flag in (
        (["growth", "--set", "power-diagonal:m", "--n", "5"], "--set"),
        (["growth", "--set", "power-diagonal:m=9,q=4", "--n", "5"], "--set"),
        (
            ["compare", "--lattice", "gamma3", "--words", "a;x;b^-1;x", "--bound", "3",
             "--expected", "power-diagonal:m"],
            "--expected",
        ),
    ):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2, argv
        assert flag in err and "m=..,d=.." in err, err


def test_malformed_remap_names_the_flag(capsys):
    argv = ["parikh", "--lattice", "gamma3", "--words", "a;x;b;x", "--bound", "2", "--signed", "--remap"]
    for remap in ("", "0", "0,+;1", "x,+;1,+;2,+;3,+"):
        code = main(argv + [remap])
        err = capsys.readouterr().err
        assert code == 2, remap
        assert "--remap" in err and "slot,sign" in err, err


def test_bad_lattice_argument(capsys):
    code, _ = run(capsys, "verify", "--lattice", "nope", "--suite", "oracle")
    assert code == 2


@pytest.mark.parametrize(
    "arg",
    [
        "p=5,c",  # a part without '='
        "p=5,c=2",  # tau missing
        "p=5,c=x,tau=3",  # not an integer
        "p=5,c=2,tau=3,z=1",  # unknown key
        "p=5,c=2,tau=3,c=3",  # repeated key
    ],
)
def test_malformed_lattice_parameters_name_the_flag(capsys, arg):
    code = main(["verify", "--lattice", arg, "--suite", "oracle"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--lattice" in captured.err and "p=..,e=..,c=..,tau=.." in captured.err, captured.err


def test_lattice_parameters_take_coefficient_vectors(capsys, tmp_path):
    """e > 1 needs a non-F_p constant: c = 1 + x and tau = x over F_9,
    written to a file by `construct` and read back."""
    code, out = run(capsys, "verify", "--lattice", "p=3,e=2,c=1:1,tau=0:1", "--suite", "oracle")
    assert code == 0 and json.loads(out) == {
        "ok": True, "suites": {"oracle": {"ok": True, "checked": 100, "failures": []}}}
    path = tmp_path / "q9.json"
    assert run(capsys, "construct", "--lattice", "p=3,e=2,c=1:1,tau=0:1", "--out", str(path))[0] == 0
    assert run(capsys, "verify", "--lattice", str(path), "--suite", "all") == run(
        capsys, "verify", "--lattice", "p=3,e=2,c=1:1,tau=0:1", "--suite", "all")


@pytest.mark.parametrize(
    "arg",
    [
        "p=3,e=2,c=1:,tau=0:1",  # an empty coefficient
        "p=3,e=2,c=1:1:1,tau=0:1",  # more coefficients than e
        "p=3:1,e=2,c=1:1,tau=0:1",  # p is not a vector
    ],
)
def test_malformed_coefficient_vectors_name_the_flag(capsys, arg):
    code = main(["verify", "--lattice", arg, "--suite", "oracle"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert f"--lattice {arg!r}" in captured.err, captured.err


@pytest.mark.parametrize(
    "flags,needle",
    [
        ([], "--lattice and --words"),
        (["--lattice", "gamma3"], "--lattice and --words"),
        (["--words", "a;x;b^-1;x"], "--lattice and --words"),
        (["--lattice", "gamma3", "--words", "a;a;a;a"], "no registered expected set for 'gamma3/a;a;a;a'"),
    ],
)
def test_growth_registry_needs_a_registered_key(capsys, flags, needle):
    code = main(["growth", "--set", "registry", "--n", "5", *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert needle in captured.err, captured.err


def test_jobs_flag_is_gone(capsys):
    for argv in (
        ["parikh", "--lattice", "gamma3", "--words", "a;x;b^-1;x", "--bound", "4"],
        ["compare", "--lattice", "gamma3", "--words", "a;x;b^-1;x", "--bound", "4"],
        ["repro"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--jobs", "2"])
        captured = capsys.readouterr()
        assert exc.value.code == 2, argv
        assert captured.out == ""
        assert "--jobs" in captured.err, captured.err


@pytest.mark.parametrize(
    "flags,needle",
    [
        (["--signed"], "--signed"),
        (["--remap", "0,+;1,+;3,+;2,-"], "--remap"),
    ],
)
def test_compare_refuses_flags_that_contradict_the_registry(capsys, flags, needle):
    code = main(["compare", "--lattice", "gamma3", "--words", "a;x;b^-1;x", "--bound", "4", *flags])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert needle in captured.err and "gamma3/a;x;b^-1;x" in captured.err, captured.err


def test_compare_accepts_flags_that_agree_with_the_registry(capsys):
    code, out = run(
        capsys, "compare", "--lattice", "gamma3", "--words", "a;x;b;x",
        "--signed", "--remap", "0,+;1,+;3,+;2,-",
    )
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize("powers", ["", "1,,2", "x"])
def test_verify_rejects_malformed_powers(capsys, powers):
    code = main(["verify", "--lattice", "q3", "--suite", "lemmas", "--powers", powers])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--powers" in captured.err, captured.err


def test_construct_with_q(capsys):
    # q = 9: coefficient-vector inputs; 1+x is the first non-square
    code, out = run(capsys, "construct", "--lattice", "p=3,e=2,c=1:1,tau=0:1")
    assert code == 0
    data = json.loads(out)
    assert data["params"]["field"]["p"] == 3
    assert data["params"]["field"]["e"] == 2
    assert len(data["table"]) == 100
    code, _ = run(capsys, "construct", "--lattice", "p=6,c=2,tau=3")
    assert code == 2


@pytest.mark.parametrize("words,token", [("a^x;x", "a^x"), ("a^;x", "a^"), ("^2;x", "^2")])
def test_malformed_word_tokens_name_the_flag(capsys, words, token):
    code = main(["parikh", "--lattice", "gamma3", "--words", words, "--bound", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: --words {words!r}: word token {token!r} "), captured.err


def test_unknown_generator_message_is_printed_unquoted(capsys):
    code = main(["parikh", "--lattice", "gamma3", "--words", "a;z", "--bound", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: unknown generator token 'z'\n"


def test_old_construct_flags_are_gone(capsys):
    for flag, value in (("--q", "9"), ("--p", "3"), ("--e", "1"), ("--c", "2"), ("--tau", "3")):
        with pytest.raises(SystemExit) as exc:
            main(["construct", "--lattice", "q3", flag, value])
        captured = capsys.readouterr()
        assert exc.value.code == 2, flag
        assert captured.out == ""
        assert flag in captured.err, captured.err


# sha256 of construct stdout, pinned from the parameter flags construct
# took before it read --lattice (the third is the q3 preset's lattice)
CONSTRUCT_DIGESTS = {
    "p=5,e=1,c=2,tau=3": "37ed71280a9acde250cedee671404b01257f8b99b5eb0167181b356d18895c20",
    "p=3,e=2,c=1:1,tau=0:1": "c33c1af2cc64bc7cd795d29401bdb4da699a25c842bd4ce04830380f23196962",
    "q3": "37a7fa5b713cca10430dcfe805cc57769e759c5fef67f19b26dddb65be14f4c2",
    # e = 2, 3 and 4: q = 25, 27 and 81
    "p=5,e=2,c=0:1,tau=0:1": "f495a4b6bec49981ad00a9a897e43c467a2570b73a934b20ee66ef4288ebb2da",
    "p=3,e=3,c=2:0:0,tau=0:1:0": "48f100d34f7b08d13bb06e71a29e0204b83580bc1114b8e80f534d9dd8404f75",
    "p=3,e=4,c=0:1:0:0,tau=0:1:0:0": "1399ab89968e8b1afa6195310ec9012e17e8e26bac5615cc4550d9664bb20159",
    # q = 121: tokens A100..A121, where string and numeric order part most
    "p=11,e=2,c=1:1,tau=0:1": "39b2caa936f158597e703188002c08adbff19d7acdb2d8fec8d257f4150ff1c5",
    # the named lattices, pinned when they were still read from data files
    "gamma3": "89aeba4f4b708e921cbdc76069648d511512ba5737fddfc76e8fd6999a677ff6",
    "gamma4": "967a6b8f1071f641f2f86398fea86be459262148ae66bf9177273b3006ec64eb",
    "gamma32": "4141679dd5ba79cd3966c731ed50bdf16d419092b56699cd71c0e44a5342d114",
}


@pytest.mark.parametrize("lattice", sorted(CONSTRUCT_DIGESTS))
def test_construct_output_is_pinned(capsys, lattice):
    code, out = run(capsys, "construct", "--lattice", lattice)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == CONSTRUCT_DIGESTS[lattice]


def test_module_entry_point_runs_construct():
    """`python -m quatlat` runs the same command line as `main`."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "quatlat", "construct", "--lattice", "q3"],
                          capture_output=True, env=env, timeout=60)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == CONSTRUCT_DIGESTS["q3"]


# sha256 of stdout, with repro's per-check seconds masked as (X), and the
# exit code (repro fails on the known-red 7b check)
OUTPUT_DIGESTS = {
    "verify --lattice q3 --suite all": (0, "9058698547eccc5673753e4642ee20596c923d8161ffb614ef6379566ca1a441"),
    "verify --lattice q5 --suite all": (0, "0b9af32ff4b721bf5b2763fca0b17b9ce575e9e92f2f28f5a92d1d908862a5cf"),
    "verify --lattice gamma3 --suite all": (0, "7bb494262bd3f48622a0159ec75142d507e18f91b8e42da10d6b1d4b50e93c83"),
    "verify --lattice gamma4 --suite all": (0, "1e5f11c5abae81127494196e8718c1d00f734ea2a1c94343a3c76b6f4f5c7246"),
    "repro": (1, "033e186c72ffaa238a5056514700bb21f1b207ed771f818fb52d826b16581469"),
    # two fields that no preset uses: F_9 (e = 2) and F_7
    "verify --lattice p=3,e=2,c=1:1,tau=0:1 --suite all": (
        0, "3412d212f27117a8932e7ee6d7ed1b54142fce4506f4ecf5e1abffb9fe09901f"),
    "verify --lattice p=7,e=1,c=3,tau=2 --suite all": (
        0, "b7457ea77a2d9850b3711da4486e710de596e8c573829e2b5a6fbc205600783d"),
}


@pytest.mark.parametrize("command", sorted(OUTPUT_DIGESTS))
def test_verify_and_repro_output_is_pinned(capsys, command):
    code, out = run(capsys, *command.split())
    out = re.sub(r"\(\d+\.\d+s\)", "(X)", out)
    assert (code, hashlib.sha256(out.encode("utf-8")).hexdigest()) == OUTPUT_DIGESTS[command]


def test_construct_writes_named_lattices(capsys, tmp_path):
    path = tmp_path / "gamma3.json"
    assert run(capsys, "construct", "--lattice", "gamma3", "--out", str(path)) == (0, "")
    assert run(capsys, "verify", "--lattice", str(path), "--suite", "all") == run(
        capsys, "verify", "--lattice", "gamma3", "--suite", "all")


def test_compare_power_diagonal_reads_the_parsed_words(capsys):
    argv = ["compare", "--lattice", "q5", "--bound", "6", "--expected", "power-diagonal", "--words"]
    code, plain = run(capsys, *argv, "A0;B0;A1;B0")
    assert code == 0 and json.loads(plain)["ok"]
    assert run(capsys, *argv, "A0^1;B0;A1;B0") == (0, plain)
    code = main([*argv, "A0^2;B0;A1;B0"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "--expected 'power-diagonal'" in captured.err, captured.err


def test_unreadable_set_descriptors_name_their_flag(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json", encoding="utf-8")
    for descriptor in ("nope", str(bad)):
        for argv, flag in (
            (["growth", "--n", "5", "--set", descriptor], "--set"),
            (["compare", "--lattice", "gamma3", "--words", "a;x;b^-1;x", "--bound", "3",
              "--expected", descriptor], "--expected"),
        ):
            code = main(argv)
            captured = capsys.readouterr()
            assert code == 2 and captured.out == ""
            assert f"{flag} {descriptor!r}" in captured.err, captured.err


def test_growth_counts_a_repeated_point_once(capsys, tmp_path):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[1, 1], [1, 1], [0, 0], [7, 0]]}), encoding="utf-8")
    code, out = run(capsys, "growth", "--set", str(path), "--n", "5")
    assert code == 0 and json.loads(out)["growth"] == 2


@pytest.mark.parametrize(
    "content,needle",
    [
        ("[1]", "is not a presentation file"),
        ("nope", "is not a presentation file"),
        ('{"kind":"named","alphabetA":[{"name":"a"}]}', "is not a presentation file"),
        ("p=4", "characteristic 4 is not prime"),
    ],
    ids=["list", "not-json", "no-inv", "p=4"],
)
@pytest.mark.parametrize("command", ["verify", "construct"])
def test_bad_lattice_file_names_the_flag(capsys, tmp_path, command, content, needle):
    path = tmp_path / "lattice.json"
    if content == "p=4":
        assert run(capsys, "construct", "--lattice", "q3", "--out", str(path)) == (0, "")
        data = json.loads(path.read_text(encoding="utf-8"))
        data["params"]["field"]["p"] = 4
        content = json.dumps(data)
    path.write_text(content, encoding="utf-8")
    code = main([command, "--lattice", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: --lattice {str(path)!r}"), captured.err
    assert needle in captured.err, captured.err


def _truncated(data):
    data["alphabetA"].pop()
    data["squares"][3:] = []
    data["table"] = []
    data["k_tau"] = 7


def _first_square_at_second_corner(data):
    """The first square a*b = b2*a2 relisted as its second reading,
    a^-1*b2 = b*a2^-1: the same square, not as construct writes it."""
    sq = data["squares"][0]
    flip = lambda l: {**l, "inv": not l["inv"]}
    data["squares"][0] = {**sq, "a": flip(sq["a"]), "b": sq["b2"], "b2": sq["b"], "a2": flip(sq["a2"])}


@pytest.mark.parametrize(
    "lattice,edit,needle",
    [
        ("q5", _truncated, "stored 'alphabetA' differs from the parametric presentation"),
        ("q5", lambda d: d["squares"].pop(), "stored 'squares' differs"),
        ("q5", lambda d: d.update(k_tau=7), "stored 'k_tau' differs"),
        ("q5", lambda d: d["table"].reverse(), "stored 'table' differs"),
        ("q5", lambda d: d.update(note="x"), "stored 'note' differs"),
        ("gamma3", lambda d: d["squares"][0].update(commuting=True), "stored 'squares' differs from the named"),
        ("gamma3", lambda d: d["squares"].append(d["squares"][1]), "stored 'squares' differs from the named"),
        ("gamma3", _first_square_at_second_corner, "stored 'squares' differs from the named"),
        ("gamma3", lambda d: d["alphabetA"].extend(d["alphabetA"][:2]), "letter names repeat in ['a', 'b', 'a',"),
        ("gamma3", lambda d: d["table"].pop(), "stored 'table' differs"),
    ],
    ids=["truncated", "squares", "k_tau", "table-order", "unknown-field",
         "commuting", "square-twice", "other-corner", "name-twice", "named-table"],
)
def test_presentation_files_are_read_strictly(capsys, tmp_path, lattice, edit, needle):
    """A file that construct wrote reads back to the same presentation; any
    stored field that differs from the presentation it describes exits 2."""
    path = tmp_path / "lattice.json"
    assert run(capsys, "construct", "--lattice", lattice, "--out", str(path)) == (0, "")
    assert run(capsys, "construct", "--lattice", str(path)) == run(capsys, "construct", "--lattice", lattice)
    data = json.loads(path.read_text(encoding="utf-8"))
    edit(data)
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["construct", "--lattice", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: --lattice {str(path)!r}: {needle}"), captured.err


@pytest.mark.parametrize(
    "points,needle",
    [
        ([[]], "every point must be a non-empty list of integers"),
        ([["a"]], "every point must be a non-empty list of integers"),
        ([[1, True]], "every point must be a non-empty list of integers"),
        ([[1, 2], [1, 2, 3]], "points of different lengths [2, 3]"),
    ],
    ids=["empty", "string", "bool", "mixed"],
)
def test_malformed_points_files_name_their_flag(capsys, tmp_path, points, needle):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": points}), encoding="utf-8")
    for argv, flag in (
        (["growth", "--n", "3", "--set", str(path)], "--set"),
        (["compare", "--lattice", "q5", "--words", "A0;B0;A1;B1", "--bound", "2",
          "--expected", str(path)], "--expected"),
    ):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith(f"error: {flag} {str(path)!r}: {needle}"), captured.err


def test_compare_refuses_points_of_another_arity(capsys, tmp_path):
    path = tmp_path / "points.json"
    path.write_text(json.dumps({"points": [[0, 0, 0]]}), encoding="utf-8")
    code = main(["compare", "--lattice", "q5", "--words", "A0;B0;A1;B1", "--bound", "2",
                 "--expected", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert "points of length 3, but --words has 4 blocks" in captured.err, captured.err
    path.write_text(json.dumps({"points": [[0, 0, 0, 0]]}), encoding="utf-8")
    code, out = run(capsys, "compare", "--lattice", "q5", "--words", "A0;B0;A1;B1", "--bound", "2",
                    "--expected", str(path))
    assert code == 0 and json.loads(out)["ok"]


@pytest.mark.parametrize(
    "argv,flag,needle",
    [
        (["growth", "--set", "power-diagonal:m=9,m=3", "--n", "100"], "--set", "repeated key m"),
        (["compare", "--lattice", "gamma3", "--words", "a;x;b^-1;x", "--bound", "3",
          "--expected", "power-diagonal:m=9,d=4,d=2"], "--expected", "repeated key d"),
        (["growth", "--set", "power-diagonal:d=4", "--n", "100"], "--set", "missing key m"),
        (["growth", "--set", "power-diagonal:m=1", "--n", "100"], "--set", "need m >= 2"),
    ],
    ids=["set-repeated", "expected-repeated", "set-missing", "set-m=1"],
)
def test_power_diagonal_keys_are_read_once(capsys, argv, flag, needle):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {flag} '{argv[argv.index(flag) + 1]}'"), captured.err
    assert needle in captured.err, captured.err


@pytest.mark.parametrize(
    "extra,needle",
    [
        (["--words", "a;;x"], "error: --words 'a;;x': need at least one nonempty block word"),
        (["--words", "a;x;b;x", "--remap", "0,+;0,+;1,+;2,+"],
         "error: --remap '0,+;0,+;1,+;2,+': remap must be a signed permutation of the blocks"),
    ],
    ids=["words", "remap"],
)
def test_spec_errors_name_their_flag(capsys, extra, needle):
    code = main(["parikh", "--lattice", "gamma3", "--bound", "3", *extra])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == needle + "\n", captured.err


def test_lattice_file_with_another_modulus_names_the_flag(capsys, tmp_path):
    """F_9 has one modulus, x^2 + 1; a file naming x^2 + x + 2 would read
    its c and tau as other elements, so it is refused."""
    path = tmp_path / "q9.json"
    assert run(capsys, "construct", "--lattice", "p=3,e=2,c=1:1,tau=0:1", "--out", str(path)) == (0, "")
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data["params"]["field"]["modulus"] == [1, 0, 1]
    data["params"]["field"]["modulus"] = [2, 1, 1]
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main(["verify", "--lattice", str(path), "--suite", "oracle"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: --lattice {str(path)!r}: modulus [2, 1, 1]"), captured.err


@pytest.mark.parametrize("key,value", [("e", True), ("p", 3.0)], ids=["e-true", "p-float"])
@pytest.mark.parametrize("command", ["verify", "construct"])
def test_lattice_file_with_non_int_field_parameters_names_the_flag(capsys, tmp_path, command, key, value):
    """JSON true and 3.0 hash like 1 and 3; once F_3 exists they used to be
    read as F_3, and construct wrote "e": true back out."""
    path = tmp_path / "q3.json"
    assert run(capsys, "construct", "--lattice", "q3", "--out", str(path)) == (0, "")
    data = json.loads(path.read_text(encoding="utf-8"))
    data["params"]["field"][key] = value
    path.write_text(json.dumps(data), encoding="utf-8")
    code = main([command, "--lattice", str(path)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: --lattice {str(path)!r}: field parameters"), captured.err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["parikh", "--lattice", "gamma3", "--words", "a;x;b^-1;x", "--bound", "100000000000000000000"], "--bound"),
        (["verify", "--lattice", "q3", "--suite", "lemmas", "--powers", "99"], "--powers"),
        (["parikh", "--lattice", "gamma3", "--words", "a^99999999999999999999;x", "--bound", "2"], "--words"),
        (["growth", "--set", "power-diagonal:m=9,d=99999999999999999999", "--n", "3"], "--set"),
    ],
    ids=["parikh-bound", "verify-powers", "parikh-exponent", "growth-arity"],
)
def test_values_too_large_to_expand_name_their_flag(capsys, argv, flag):
    """Each asks for a word or tuple longer than sys.maxsize, where Python
    raises OverflowError; exit 1 would read as a failed verification."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {flag} "), captured.err
    assert argv[argv.index(flag) + 1] in captured.err and "asks for a word or tuple longer" in captured.err


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["verify", "--lattice", "q3", "--suite", "lemmas", "--powers", "39"], "--powers"),
        (["parikh", "--lattice", "gamma3", "--words", "a^2305843009213693952;x", "--bound", "2"], "--words"),
        (["parikh", "--lattice", "gamma3", "--words", "a;x;b^-1;x", "--bound", "2305843009213693952"], "--bound"),
        (["growth", "--set", "power-diagonal:m=9,d=2305843009213693952", "--n", "3"], "--set"),
    ],
    ids=["verify-powers", "parikh-exponent", "parikh-bound", "growth-arity"],
)
def test_values_too_long_to_allocate_name_their_flag(capsys, argv, flag):
    """Each asks for a word or tuple of 2**61 to 3**39 entries: no longer
    than sys.maxsize, but more pointers than an address space holds, so
    CPython raises MemoryError before allocating anything; exit 1 with a
    traceback would read as a failed verification."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {flag} "), captured.err
    assert argv[argv.index(flag) + 1] in captured.err and "too long to hold in memory" in captured.err


@pytest.mark.parametrize(
    "argv,target",
    [
        (["construct", "--lattice", "q3"], "missing-dir"),
        (["verify", "--lattice", "q3", "--suite", "oracle"], "directory"),
        (["parikh", "--lattice", "gamma3", "--words", "a;x;b^-1;x", "--bound", "3"], "missing-dir"),
        (["compare", "--lattice", "gamma3", "--words", "a;x;b^-1;x", "--bound", "3"], "directory"),
        (["growth", "--set", "power-diagonal:m=9", "--n", "5"], "directory"),
    ],
    ids=["construct", "verify", "parikh", "compare", "growth"],
)
def test_unwritable_out_names_the_flag(capsys, tmp_path, argv, target):
    """An --out that cannot be opened is bad usage (exit 2), not a failed
    check (exit 1) and not a traceback."""
    out = str(tmp_path / "missing" / "x.json") if target == "missing-dir" else str(tmp_path)
    code = main([*argv, "--out", out])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: --out {out!r} cannot be written"), captured.err


@pytest.mark.parametrize(
    "argv,prefix",
    [
        (["parikh", "--lattice", "gamma3", "--words", "a;x;b^-1;x", "--bound", "-1"], "--bound -1: "),
        (["compare", "--lattice", "gamma3", "--words", "a;x;b^-1;x", "--bound", "-1"], "--bound -1: "),
        (["growth", "--set", "power-diagonal:m=9", "--n", "-1"], "--n -1: "),
        (["verify", "--lattice", "q3", "--suite", "lemmas", "--powers", "-1"], "--powers '-1': "),
        (["verify", "--lattice", "gamma3", "--powers", "-1"], "--powers '-1': "),
        (["verify", "--lattice", "q3", "--suite", "oracle", "--powers", "-1"], "--powers '-1': "),
    ],
    ids=["parikh-bound", "compare-bound", "growth-n", "verify-powers", "verify-powers-all-gamma3",
         "verify-powers-oracle"],
)
def test_values_out_of_range_name_their_flag(capsys, argv, prefix):
    """The range checks reach the user prefixed with the flag and the
    value given; --powers is refused for every suite, not only for the
    lemmas that read it."""
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith(f"error: {prefix}"), captured.err
