import json

import pytest

from quatlat.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_construct_q3(capsys, tmp_path):
    code, out = run(capsys, "construct", "--p", "3", "--c", "-1", "--tau", "-1")
    assert code == 0
    data = json.loads(out)
    assert data["kind"] == "parametric"
    assert data["k_tau"] == 2
    assert len(data["squares"]) == 4
    assert len(data["table"]) == 16
    assert data["params"]["field"] == {"p": 3, "e": 1, "modulus": [0, 1]}


def test_construct_deterministic(capsys):
    _, out1 = run(capsys, "construct", "--p", "5", "--c", "2", "--tau", "3")
    _, out2 = run(capsys, "construct", "--p", "5", "--c", "2", "--tau", "3")
    assert out1 == out2
    assert out1.endswith("\n")


def test_construct_rejects_square_c(capsys):
    code, _ = run(capsys, "construct", "--p", "3", "--c", "1", "--tau", "-1")
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
    code, _ = run(
        capsys, "construct", "--p", "3", "--c", "-1", "--tau", "-1", "--out", str(path)
    )
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
    code, out = run(
        capsys,
        "compare",
        "--lattice",
        "q5",
        "--words",
        "A0;B0;A3;B1",
        "--bound",
        "8",
        "--expected",
        "power-diagonal",
    )
    # words must be a defining square with non-commuting corners; find one
    if code != 0:
        pres_words = None
        from quatlat.presets import get_presentation

        pres = get_presentation("q5")
        sq = [s for s in pres.squares if not s.commuting][0]
        pres_words = ";".join(
            [
                sq.a.token(),
                sq.b.token(),
                pres.inverse[sq.a2].token(),
                pres.inverse[sq.b2].token(),
            ]
        )
        code, out = run(
            capsys,
            "compare",
            "--lattice",
            "q5",
            "--words",
            pres_words,
            "--bound",
            "8",
            "--expected",
            "power-diagonal",
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
    for remap in ("0", "0,+;1", "x,+;1,+;2,+;3,+"):
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


def test_jobs_flag(capsys):
    code, out = run(
        capsys,
        "parikh",
        "--lattice",
        "gamma3",
        "--words",
        "a;x;b^-1;x",
        "--bound",
        "6",
        "--jobs",
        "2",
    )
    assert code == 0
    assert json.loads(out)["points"] == [[0, 0, 0, 0], [1, 1, 1, 1]]


def test_construct_with_q(capsys):
    # q = 9: coefficient-vector inputs; 1+x is the first non-square
    code, out = run(capsys, "construct", "--q", "9", "--c", "1,1", "--tau", "0,1")
    assert code == 0
    data = json.loads(out)
    assert data["params"]["field"]["p"] == 3
    assert data["params"]["field"]["e"] == 2
    assert len(data["table"]) == 100
    code, _ = run(capsys, "construct", "--q", "6", "--c", "2", "--tau", "3")
    assert code == 2
