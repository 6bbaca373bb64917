import itertools
import random
import re

import pytest

import quatlat.rewrite
from quatlat.lattice import LatticeParams, build_square_table, named_presentation
from quatlat.parikh import BoundedLanguageSpec, PowerDiagonal, _directions, _products
from quatlat.presets import get_presentation
from quatlat.rewrite import (
    _RUN_MIN,
    MixedSidesError,
    NotApplicableError,
    _push_run,
    _push_through,
    append_letter,
    commutes,
    free_reduce,
    is_anti_torus,
    is_identity,
    normal_form,
    orbit_size,
    parse_word,
    pi_action,
)


@pytest.fixture(scope="module")
def g3():
    return named_presentation("gamma3")


@pytest.fixture(scope="module")
def q5():
    return build_square_table(LatticeParams.make(5, 1, 2, 3))


@pytest.mark.parametrize("name", ["gamma4", "q5"])
def test_a_word_of_another_lattice_is_refused(g3, name):
    """gamma3's identity a x b^-1 x is not read by its letters' positions
    in another lattice."""
    w = parse_word(g3, "a,x,b^-1,x")
    assert is_identity(g3, w)
    pres = get_presentation(name)
    for decide in (is_identity, normal_form):
        with pytest.raises(KeyError, match=r"^a$"):
            decide(pres, w)


def rand_word(rng, pres, length, side=None):
    pool = [l for l in pres.alphabet_a + pres.alphabet_b if side in (None, l.side)]
    return tuple(rng.choice(pool) for _ in range(length))


def rand_reduced(rng, pres, length, side):
    alphabet = pres.alphabet_a if side == "A" else pres.alphabet_b
    out = []
    while len(out) < length:
        g = rng.choice(alphabet)
        if out and out[-1] == pres.inverse[g]:
            continue
        out.append(g)
    return tuple(out)


def test_parse_format_roundtrip(g3):
    w = parse_word(g3, "a^9,x^9,b^-9,x^9")
    assert len(w) == 36
    a, x, b = (g3.label(n) for n in "axb")
    assert w == (a,) * 9 + (x,) * 9 + (g3.inverse[b],) * 9 + (x,) * 9
    assert parse_word(g3, "") == ()
    assert parse_word(g3, "x^-1") == (g3.inverse[g3.label("x")],)
    with pytest.raises(KeyError):
        parse_word(g3, "z")


@pytest.mark.parametrize("text,token", [("a^x", "a^x"), ("a,b^", "b^"), ("^2", "^2"), ("a^-", "a^-")])
def test_parse_word_names_a_malformed_token(g3, text, token):
    with pytest.raises(ValueError, match=re.escape(f"word token {token!r}")):
        parse_word(g3, text)


def test_free_reduce(g3):
    assert free_reduce(g3, parse_word(g3, "a,a^-1")) == ()
    assert free_reduce(g3, ()) == ()
    w = parse_word(g3, "a,b,b^-1,a,a^-1,b")
    assert free_reduce(g3, w) == parse_word(g3, "a,b")
    with pytest.raises(MixedSidesError):
        free_reduce(g3, parse_word(g3, "a,x"))


def test_free_reduce_random_inverse(g3):
    rng = random.Random(40)
    for _ in range(200):
        w = rand_word(rng, g3, rng.randint(0, 15), "A")
        assert free_reduce(g3, w + g3.invert_word(w)) == ()


def test_normal_form_examples(g3):
    nf = normal_form(g3, parse_word(g3, "a,x,b^-1,x"))
    assert nf.is_identity
    one_sided = parse_word(g3, "a,b,a")
    nf2 = normal_form(g3, one_sided)
    assert nf2.a_part == one_sided and nf2.b_part == ()


def test_normal_form_is_homomorphic(g3, q5):
    rng = random.Random(41)
    for pres in (g3, q5):
        for _ in range(250):
            w1 = rand_word(rng, pres, rng.randint(0, 12))
            w2 = rand_word(rng, pres, rng.randint(0, 12))
            direct = normal_form(pres, w1 + w2)
            staged_nf = normal_form(pres, w1)
            staged = normal_form(pres, staged_nf.a_part + staged_nf.b_part + w2)
            assert direct == staged


def test_normal_form_lengths_agree(g3, q5):
    rng = random.Random(42)
    for pres in (g3, q5):
        for _ in range(250):
            w = rand_word(rng, pres, rng.randint(0, 20))
            ab = normal_form(pres, w, "AB")
            ba = normal_form(pres, w, "BA")
            assert len(ab.a_part) == len(ba.a_part)
            assert len(ab.b_part) == len(ba.b_part)
            assert len(ab) <= len(w)


def test_ab_ba_agree_as_group_elements(g3):
    rng = random.Random(43)
    for _ in range(100):
        w = rand_word(rng, g3, rng.randint(0, 14))
        ab = normal_form(g3, w, "AB")
        ba = normal_form(g3, w, "BA")
        assert is_identity(g3, ab.a_part + ab.b_part + g3.invert_word(ba.b_part + ba.a_part))


def test_append_letter_matches_normal_form(g3):
    """append_letter changes the two code lists it is given and returns
    nothing; letter by letter they reach the dict reference's form."""
    rng = random.Random(44)
    letters = g3.alphabet_a + g3.alphabet_b
    for order in ("AB", "BA"):
        for _ in range(100):
            w = rand_word(rng, g3, rng.randint(0, 12))
            u, v = [], []
            for letter in w:
                assert append_letter(g3, u, v, letter, order) is None
            assert all(type(c) is int for c in u + v)
            got = (tuple(letters[c] for c in u), tuple(letters[c] for c in v))
            assert got == reference_normal_form(g3, w, order)


def test_identity_examples(g3):
    assert is_identity(g3, ())
    assert is_identity(g3, parse_word(g3, "a^9,x^9,b^-9,x^9"))
    assert not is_identity(g3, parse_word(g3, "a^3,x^3,b^-3,x^3"))
    assert not is_identity(g3, parse_word(g3, "a^27,x^27,b^-27,x^27"))
    assert is_identity(g3, parse_word(g3, "a^81,x^81,b^-81,x^81"))


def test_random_word_times_inverse(g3, q5):
    rng = random.Random(45)
    for pres in (g3, q5):
        for _ in range(250):
            w = rand_word(rng, pres, rng.randint(0, 15))
            assert is_identity(pres, w + pres.invert_word(w))


def test_pi_action_on_defining_square(g3):
    # a x = x^-1 b reads as pi_a(x) = x^-1, pi_x(a) = b
    a, x = parse_word(g3, "a"), parse_word(g3, "x")
    pg_h, ph_g = pi_action(g3, a, x)
    assert pg_h == parse_word(g3, "x^-1")
    assert ph_g == parse_word(g3, "b")


def test_pi_action_identity_cases(g3):
    h = parse_word(g3, "x,y")
    assert pi_action(g3, (), h) == (h, ())
    g = parse_word(g3, "a,b")
    assert pi_action(g3, g, ()) == ((), g)


def test_pi_prefix_property(g3):
    rng = random.Random(46)
    for _ in range(200):
        g = rand_reduced(rng, g3, rng.randint(1, 6), "A")
        h = rand_reduced(rng, g3, rng.randint(2, 8), "B")
        image = pi_action(g3, g, h)[0]
        cut = rng.randint(1, len(h) - 1)
        assert pi_action(g3, g, h[:cut])[0] == image[:cut]


def test_pi_bijective_on_spheres(g3):
    # exhaustive: pi_a permutes each sphere of reduced B-words, n <= 3
    a = parse_word(g3, "a")
    alphabet = g3.alphabet_b
    for n in (1, 2, 3):
        sphere = [
            w
            for w in itertools.product(alphabet, repeat=n)
            if all(w[i + 1] != g3.inverse[w[i]] for i in range(n - 1))
        ]
        images = {pi_action(g3, a, w)[0] for w in sphere}
        assert len(images) == len(sphere)
        assert images == set(sphere)


def test_orbit_sizes(g3):
    a, x = parse_word(g3, "a"), parse_word(g3, "x")
    assert orbit_size(g3, a, parse_word(g3, "x,x")) == 12
    assert orbit_size(g3, x, parse_word(g3, "a,a")) == 12
    assert orbit_size(g3, a, ()) == 1
    assert orbit_size(g3, (), x) == 1


def test_pi_a_ninth_power_of_x2(g3):
    a = parse_word(g3, "a")
    cur = parse_word(g3, "x,x")
    for _ in range(9):
        cur = pi_action(g3, a, cur)[0]
    assert cur == parse_word(g3, "x^-2")


def test_commutes(g3, q5):
    a, x = parse_word(g3, "a"), parse_word(g3, "x")
    assert not commutes(g3, a, x)
    assert commutes(g3, a, a)
    sq = q5.commuting_squares()[0]
    assert commutes(q5, (sq.a,), (sq.b,))
    nc = [s for s in q5.squares if not s.commuting][0]
    assert not commutes(q5, (nc.a,), (nc.b,))


def test_anti_torus(q5, g3):
    nc = [s for s in q5.squares if not s.commuting][0]
    assert is_anti_torus(q5, (nc.a,), (nc.b,))
    sq = q5.commuting_squares()[0]
    assert not is_anti_torus(q5, (sq.a,), (sq.b,))
    assert not is_anti_torus(q5, (nc.a,), ())
    with pytest.raises(NotApplicableError):
        is_anti_torus(g3, parse_word(g3, "a"), parse_word(g3, "x"))


def test_pi_action_rejects_wrong_sides(g3):
    with pytest.raises(MixedSidesError):
        pi_action(g3, parse_word(g3, "x"), parse_word(g3, "a"))
    # sides are read before reduction: a B-word that reduces to e is still a B-word
    with pytest.raises(MixedSidesError):
        pi_action(g3, parse_word(g3, "x,x^-1"), parse_word(g3, "y"))


def reference_normal_form(pres, w, order):
    """Letter-by-letter normal form read straight off the dicts pres.swap
    and pres.inverse, as (a_part, b_part)."""
    unswap = {v: k for k, v in pres.swap.items()}
    right = order[1]  # the side of the component written on the right
    parts = {"A": [], "B": []}
    for g in w:
        if g.side != right:
            table = unswap if right == "B" else pres.swap
            pushed = []
            for letter in reversed(parts[right]):
                g, out = table[(letter, g)]
                pushed.append(out)
            parts[right] = pushed[::-1]
        own = parts[g.side]
        if own and own[-1] == pres.inverse[g]:
            own.pop()
        else:
            own.append(g)
    return tuple(parts["A"]), tuple(parts["B"])


def test_swap_rows_match_the_dict(table_zoo):
    for pres in table_zoo:
        letters = pres.alphabet_a + pres.alphabet_b
        n, code = len(letters), pres._code
        assert [code[l] for l in letters] == list(range(n))
        assert pres._inv_code == [code[pres.inverse[l]] for l in letters]
        rows = pres._rows
        assert len(rows) == n
        for c in range(n):
            assert len(rows[c]) == n + 1 and rows[c][n] == c
        # a*b = b2*a2: b pushed left through a is rows[b][a], a2 pushed
        # left through b2 is rows[a2][b2]
        for (a, b), (b2, a2) in pres.swap.items():
            assert rows[code[b]][code[a]][0] is rows[code[b2]]
            assert rows[code[b]][code[a]][1] == code[a2]
            assert rows[code[a2]][code[b2]][0] is rows[code[a]]
            assert rows[code[a2]][code[b2]][1] == code[b]
        # the swap dict is total on A x B, so every entry at a letter of
        # the other side is filled and every other entry is empty
        for c in range(n):
            for x in range(n):
                assert (rows[c][x] is not None) == (letters[c].side != letters[x].side), (pres, c, x)


def test_normal_forms_match_dict_reference(table_zoo):
    rng = random.Random(47)
    for pres in table_zoo:
        for _ in range(60):
            w = rand_word(rng, pres, rng.randint(0, 30))
            for order in ("AB", "BA"):
                nf = normal_form(pres, w, order)
                assert (nf.a_part, nf.b_part) == reference_normal_form(pres, w, order), pres


@pytest.mark.parametrize("name", ["gamma32", "q5"])
def test_long_normal_forms_match_dict_reference(name):
    """Words past 30 letters push letters through long components."""
    pres = get_presentation(name)
    rng = random.Random(49)
    for _ in range(12):
        w = rand_word(rng, pres, rng.randint(31, 160))
        for order in ("AB", "BA"):
            nf = normal_form(pres, w, order)
            assert (nf.a_part, nf.b_part) == reference_normal_form(pres, w, order)


@pytest.mark.parametrize("n", [1, 3, 9, 27, 81, 243, 729])
def test_power_diagonal_words(g3, n):
    a, x, b = (g3.label(t) for t in "axb")
    word = (a,) * n + (x,) * n + (g3.inverse[b],) * n + (x,) * n
    assert is_identity(g3, word) == PowerDiagonal(9, 4).contains((n,) * 4)


@pytest.mark.parametrize(
    "name, words, signed, bound",
    [("gamma3", "a;x;b^-1;x;a", False, 3), ("gamma3", "a;x;b;x", True, 2), ("q5", "A0;B0,A1;B1^-1", True, 2)],
)
def test_product_walk_yields_unshared_forms(name, words, signed, bound):
    """Each form the meet's walk yields, read before the walk moves on,
    is the dict reference's form of its block product: a branch that
    shared its lists with another would show a neighbour's letters."""
    pres = get_presentation(name)
    spec = BoundedLanguageSpec(tuple(parse_word(pres, w) for w in words.split(";")), signed=signed)
    letters = pres.alphabet_a + pres.alphabet_b
    seen = set()
    for u, v, exps in _products(pres, _directions(pres, spec), bound):
        word = ()
        for w, e in zip(spec.words, exps):
            word += (w if e >= 0 else pres.invert_word(w)) * abs(e)
        got = (tuple(letters[c] for c in u), tuple(letters[c] for c in v))
        assert got == reference_normal_form(pres, word, "AB"), exps
        seen.add(exps)
    assert len(seen) == ((2 if signed else 1) * bound + 1) ** spec.arity


T = _RUN_MIN
# (run length k, other part length L): both sides of T, and 1
RECTANGLES = [(1, 1), (1, T + 5), (T + 5, 1), (3, 7), (T - 1, T + 1), (T, T), (T + 9, 2 * T), (2 * T, T + 3)]


def test_push_run_matches_the_row_loop(table_zoo):
    """The anti-diagonal push rewrites `other` and pushes out the same
    letters as one `_push_through` per run letter, on random rectangles."""
    rng = random.Random(50)
    for pres in table_zoo:
        for side in "AB":
            own, other_side = (pres.alphabet_a, pres.alphabet_b) if side == "A" else (pres.alphabet_b, pres.alphabet_a)
            for k, n in RECTANGLES:
                run = [pres._code[rng.choice(own)] for _ in range(k)]
                other = [pres._code[rng.choice(other_side)] for _ in range(n)]
                rows_other = list(other)
                expected = [_push_through(pres._rows[c], rows_other) for c in run]
                assert list(_push_run(pres, run, other)) == expected, (pres, side, k, n)
                assert other == rows_other, (pres, side, k, n)


def long_run_word(rng, pres, blocks):
    """Blocks of (side, length), each a freely reduced run of that side's
    letters, so every run keeps its length in the part it joins."""
    word = ()
    for side, length in blocks:
        word += rand_reduced(rng, pres, length, side)
    return word


def test_long_runs_take_the_push_and_match_dict_reference(table_zoo, monkeypatch):
    rng = random.Random(51)
    pushes = []

    def counting(pres, run, other):
        pushes.append((len(run), len(other)))
        return _push_run(pres, run, other)

    monkeypatch.setattr(quatlat.rewrite, "_push_run", counting)
    for pres in table_zoo:
        for blocks in (
            [("B", T), ("A", T)],
            [("A", T + 3), ("B", T + 20), ("A", 2 * T), ("B", 5), ("A", T)],
            [("B", 2 * T), ("A", T - 1), ("A", 1), ("B", T), ("A", 3)],
            [("A", 1), ("B", T - 1), ("A", 3 * T)],
        ):
            word = long_run_word(rng, pres, blocks)
            for order in ("AB", "BA"):
                nf = normal_form(pres, word, order)
                assert (nf.a_part, nf.b_part) == reference_normal_form(pres, word, order), (pres, blocks, order)
    assert pushes and all(k >= T and n >= T for k, n in pushes)
    assert any(k > n for k, n in pushes) and any(k < n for k, n in pushes)


def test_alphabets_past_one_byte_keep_the_row_loop(monkeypatch):
    """At q = 17 there are 18 * 18 letter pairs, too many to code a swap
    in one byte, so long runs keep the row loop."""
    pres = build_square_table(LatticeParams.make(17, 1, 3, 5))
    assert len(pres.alphabet_a) * len(pres.alphabet_b) > 256

    def refuse(*args):
        raise AssertionError("the anti-diagonal push was reached")

    monkeypatch.setattr(quatlat.rewrite, "_push_run", refuse)
    word = long_run_word(random.Random(52), pres, [("B", T + 4), ("A", T + 4), ("B", 2), ("A", 2 * T)])
    for order in ("AB", "BA"):
        nf = normal_form(pres, word, order)
        assert (nf.a_part, nf.b_part) == reference_normal_form(pres, word, order)


def test_letters_outside_a_pushed_run_go_through_append_letter(g3, monkeypatch):
    """The benchmark's tracer wraps the module binding append_letter; every
    letter outside the pushed run still passes through it, once."""
    calls = []
    original = quatlat.rewrite.append_letter

    def counting(pres, a_part, b_part, g, order="AB"):
        calls.append(g)
        return original(pres, a_part, b_part, g, order)

    monkeypatch.setattr(quatlat.rewrite, "append_letter", counting)
    n = 2 * T
    a, x, b = (g3.label(t) for t in "axb")
    word = (a,) * n + (x,) * n + (g3.inverse[b],) * n + (x,) * n
    assert is_identity(g3, word) == PowerDiagonal(9, 4).contains((n,) * 4)
    assert calls == list(word[: 2 * n] + word[3 * n :])
