import random

import pytest

from quatlat.lattice import letter_map, named_presentation
from quatlat.parikh import (
    BoundedLanguageSpec,
    CompareReport,
    HypothesisViolatedError,
    LinearSet,
    PowerDiagonal,
    SemilinearSet,
    compare,
    enumerate_parikh,
    growth,
    membership,
    power_diagonal_prediction,
)
from quatlat.presets import EXAMPLES, GAMMA3_DICTIONARY, _diag_orbit_set, first_commuting_language, get_presentation
from quatlat.quat import Mat3, gamma3_matrices
from quatlat.rewrite import parse_word


@pytest.fixture(scope="module")
def g3():
    return named_presentation("gamma3")


def spec_of(pres, words, **kw):
    return BoundedLanguageSpec(
        tuple(parse_word(pres, w) for w in words.split(";")), **kw
    )


def test_power_diagonal_language(g3):
    spec = spec_of(g3, "a;x;b^-1;x")
    points = enumerate_parikh(g3, spec, 12)
    assert points == ((0, 0, 0, 0), (1, 1, 1, 1), (9, 9, 9, 9))


def test_a_spec_of_another_lattice_is_refused(g3):
    spec = EXAMPLES["gamma3/a;x;b^-1;x"].spec(g3)
    with pytest.raises(KeyError, match=r"^a$"):
        enumerate_parikh(get_presentation("q5"), spec, 10)


def test_membership_probes(g3):
    spec = spec_of(g3, "a;x;b^-1;x")
    assert membership(g3, spec, (81, 81, 81, 81))
    assert not membership(g3, spec, (27, 27, 27, 27))
    assert not membership(g3, spec, (81, 81, 81, 80))
    assert membership(g3, spec, (0, 0, 0, 0))
    assert not membership(g3, spec, (-1, -1, -1, -1))  # unsigned spec


def test_signed_proposition_matches_endomorphism_transport(g3):
    """The signed mixed-equation set, derived independently by pushing the
    base square through the cube endomorphism, equals the enumeration."""
    spec = spec_of(
        g3, "a;x;b;x", signed=True, remap=((0, 1), (1, 1), (3, 1), (2, -1))
    )
    n = 10
    points = set(enumerate_parikh(g3, spec, n))
    want = {(0, 0, 0, 0)}
    for k in range(1, n + 1):
        want.add((0, k, -k, 0))
        want.add((0, -k, k, 0))
    t = (1, 1, 1, 1)
    while max(abs(c) for c in t) <= n:
        want.add(t)
        want.add(tuple(-c for c in t))
        t = (3 * t[0], -3 * t[1], -3 * t[2], 3 * t[3])
    assert points == want


def test_signed_membership_remap(g3):
    spec = spec_of(
        g3, "a;x;b;x", signed=True, remap=((0, 1), (1, 1), (3, 1), (2, -1))
    )
    # a^3 x^-3 = x^3 b^3, reported as (3, -3, -3, 3)
    assert membership(g3, spec, (3, -3, -3, 3))
    assert not membership(g3, spec, (3, -3, 3, 3))
    assert membership(g3, spec, (27, -27, -27, 27))
    assert membership(g3, spec, (0, 5, -5, 0))


def _matrix_word_is_identity(names, exps):
    """The word prod(names[j]^exps[j]) of gamma3 letters in the 3x3 matrix
    model, without rewriting: each block matrix raised to its exponent,
    the adjugate for a negative one, the product compared to the
    identity mod K*."""
    mats = gamma3_matrices()
    identity = Mat3.from_int_polys(mats["a"].field, [[[1], [0], [0]], [[0], [1], [0]], [[0], [0], [1]]])
    product = identity
    for name, e in zip(names, exps):
        block = mats[name] if e >= 0 else mats[name].adjugate()
        for _ in range(abs(e)):
            product = product * block
    return product.proj_eq(identity)


def test_the_disputed_signed_points_agree_in_three_derivations(g3):
    """The six points on which check 7b's stated set and its enumeration
    disagree, decided by rewriting (`membership`), by the 3x3 matrix
    model, and by the orbit set `presets._diag_orbit_set`: all three find
    the identity at (1,1,1,1), (-1,-1,-1,-1) and +-(3,-3,-3,3), and not
    at +-(3,-3,3,3).  The check's stated set is left as it is."""
    ex = EXAMPLES["gamma3/a;x;b;x"]
    spec, orbit = ex.spec(g3), _diag_orbit_set(10)
    identities = [(1, 1, 1, 1), (-1, -1, -1, -1), (3, -3, -3, 3), (-3, 3, 3, -3)]
    for point in identities + [(3, -3, 3, 3), (-3, 3, -3, -3)]:
        want = point in identities
        in_matrices = _matrix_word_is_identity(ex.words.split(";"), spec.exponents_from_point(point))
        assert membership(g3, spec, point) == in_matrices == (point in orbit) == want, point


def test_signed_unsigned_agree_on_orthant(g3):
    spec_u = spec_of(g3, "a;x;b^-1;x")
    spec_s = spec_of(g3, "a;x;b^-1;x", signed=True)
    pos = {
        p for p in enumerate_parikh(g3, spec_s, 6) if all(c >= 0 for c in p)
    }
    assert pos == set(enumerate_parikh(g3, spec_u, 6))


def test_prune_matches_bruteforce_all_examples():
    for key, ex in EXAMPLES.items():
        pres = get_presentation(ex.lattice)
        spec = ex.spec(pres)
        assert enumerate_parikh(pres, spec, 8, prune=True) == enumerate_parikh(
            pres, spec, 8, prune=False
        ), key


def test_jobs_deterministic(g3):
    spec = spec_of(g3, "a;x;b;x", signed=True)
    seq = enumerate_parikh(g3, spec, 6, jobs=1)
    par = enumerate_parikh(g3, spec, 6, jobs=3)
    assert seq == par


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize(
    "lattice,words",
    [
        ("gamma3", "a;x;a,a^-1"),  # the last block freely reduces to the identity
        ("gamma3", "a"),
        ("gamma3", "a;a^-1"),
        ("gamma3", "a,x;b"),
        ("q5", "A0;B0;A1,B1"),
        ("gamma3", "a;x;a^-1"),
        ("gamma3", "a;x;b^-1;x;a"),
        ("gamma4", "b;x;a,a^-1"),  # a suffix form shared by every exponent
    ],
)
def test_last_block_lookup_matches_bruteforce(lattice, words, signed, jobs):
    """The meet-in-the-middle search equals the brute force for
    d = 1, 2, 3, 4 and 5, also where a block freely reduces to the
    identity so that one form holds several exponent tuples."""
    pres = get_presentation(lattice)
    spec = spec_of(pres, words, signed=signed)
    brute = enumerate_parikh(pres, spec, 5, prune=False)
    assert enumerate_parikh(pres, spec, 5, jobs=jobs) == brute


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "words,remap",
    [
        ("a;x;b;x", ((0, 1), (1, 1), (3, 1), (2, -1))),
        ("a;x;a^-1", ((2, -1), (0, 1), (1, 1))),
        ("a;x;b^-1;x;a", ((4, 1), (3, -1), (2, 1), (1, -1), (0, 1))),
    ],
)
def test_meet_in_the_middle_with_remap_matches_bruteforce(g3, words, remap, jobs):
    spec = spec_of(g3, words, signed=True, remap=remap)
    brute = enumerate_parikh(g3, spec, 4, prune=False)
    assert len(brute) > 1
    assert enumerate_parikh(g3, spec, 4, jobs=jobs) == brute


def test_gamma3_power_diagonal_at_bound_100(g3):
    points = enumerate_parikh(g3, spec_of(g3, "a;x;b^-1;x"), 100)
    assert frozenset(points) == PowerDiagonal(9, 4).enumerate_box(100)


def test_table_keys_are_exact():
    """Distinct code sequences give distinct keys, also past 256
    letters."""
    import itertools

    from quatlat.parikh import _key

    codes = (0, 1, 255, 256, 257, 65535, 65536)
    chars = [chr(c) for c in range(max(codes) + 1)]
    words = [w for n in range(4) for w in itertools.product(codes, repeat=n)]
    keys = {_key(chars, w, ()) for w in words}
    assert len(keys) == len(words)
    for w in words:  # the key reads u + v, wherever the split falls
        assert {_key(chars, w[:k], w[k:]) for k in range(len(w) + 1)} == {_key(chars, w, ())}


@pytest.mark.parametrize("jobs", [0, -4])
def test_jobs_below_one_is_refused(g3, jobs):
    with pytest.raises(ValueError, match="jobs"):
        enumerate_parikh(g3, spec_of(g3, "a;x;b^-1;x"), 4, jobs=jobs)


def test_search_and_normal_form_use_the_module_bindings(monkeypatch, g3):
    """The benchmark's per-layer tracing wraps append_letter where the
    search (quatlat.parikh) and normal_form (quatlat.rewrite) look it up;
    a fast path that bypassed either binding would zero its counters."""
    import quatlat.parikh
    import quatlat.rewrite

    calls = {"parikh": 0, "rewrite": 0}

    def counting(module, key):
        original = module.append_letter

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, "append_letter", wrapper)

    counting(quatlat.parikh, "parikh")
    counting(quatlat.rewrite, "rewrite")
    word = parse_word(g3, "a,x,b^-1,x")
    quatlat.rewrite.normal_form(g3, word)
    assert calls == {"parikh": 0, "rewrite": len(word)}
    # four one-letter blocks on alternating sides take the grid, which
    # reads the swap rows directly; the other two searches append
    enumerate_parikh(g3, spec_of(g3, "a;x;b^-1;x"), 6)
    assert calls["parikh"] == 0
    enumerate_parikh(g3, spec_of(g3, "a;x;b^-1;x;a"), 3)
    meet_calls = calls["parikh"]
    assert meet_calls > 0
    enumerate_parikh(g3, spec_of(g3, "a;x;b^-1;x"), 3, prune=False)
    assert calls["parikh"] > meet_calls


@pytest.mark.parametrize(
    "lattice,words,signed,bound,calls",
    [
        ("gamma4", "b;x;a;x^-1", False, 6, 2400),  # the benchmark's brute-force op
        ("gamma3", "a,x;b;y^-1,a", True, 3, None),
    ],
)
def test_bruteforce_appends_every_letter_of_every_product(monkeypatch, lattice, words, signed, bound, calls):
    """The oracle stays unpruned: it calls the module's append_letter
    sum_i Pi_{j<i}(1 + N * D_j) * D_i * N * |w_i| times, D_i the
    directions of block i, so every node of the exponent tree appends
    each letter of each of its powers."""
    import quatlat.parikh

    pres = get_presentation(lattice)
    spec = spec_of(pres, words, signed=signed)
    count = 0
    original = quatlat.parikh.append_letter

    def counting(*args):
        nonlocal count
        count += 1
        return original(*args)

    monkeypatch.setattr(quatlat.parikh, "append_letter", counting)
    enumerate_parikh(pres, spec, bound, prune=False)
    directions = 2 if signed else 1
    want, nodes = 0, 1
    for w in spec.words:
        want += nodes * directions * bound * len(w)
        nodes *= 1 + bound * directions
    assert count == want
    if calls is not None:
        assert count == calls


def _grid_meet_brute(pres, spec, n, brute_n):
    """The grid's points at n, checked against the meet in the middle at
    n and the brute force at brute_n."""
    from quatlat.parikh import _grid, _meet, _on_grid

    assert _on_grid(spec)
    grid = tuple(sorted(_grid(pres, spec, n)))
    assert grid == tuple(sorted(_meet(pres, spec, n)))
    small = tuple(sorted(_grid(pres, spec, brute_n)))
    assert small == enumerate_parikh(pres, spec, brute_n, prune=False)
    return grid


def test_grid_matches_meet_and_bruteforce_on_examples():
    q5 = get_presentation("q5")
    cases = [(q5, first_commuting_language(q5)[0], 10)]
    for ex in EXAMPLES.values():
        pres = get_presentation(ex.lattice)
        cases.append((pres, ex.spec(pres), ex.bound))
    for pres, spec, bound in cases:
        _grid_meet_brute(pres, spec, bound, 6)


@pytest.mark.parametrize("lattice", ["gamma3", "gamma4", "gamma32", "q3", "q5"])
def test_grid_matches_meet_and_bruteforce_on_random_specs(lattice):
    """A,B,A,B and B,A,B,A specs, signed and unsigned, remapped or not,
    at N from 0 to 13 (the brute force at N <= 3)."""
    pres = get_presentation(lattice)
    rng = random.Random(f"grid/{lattice}")
    for _ in range(24):
        sides = rng.choice([("A", "B"), ("B", "A")]) * 2
        words = tuple(
            (rng.choice(pres.alphabet_a if side == "A" else pres.alphabet_b),) for side in sides
        )
        signed = rng.random() < 0.5
        remap = None
        if rng.random() < 0.5:
            slots = rng.sample(range(4), 4)
            remap = tuple((slot, rng.choice((1, -1)) if signed else 1) for slot in slots)
        spec = BoundedLanguageSpec(words, signed=signed, remap=remap)
        n = rng.randint(0, 13)
        _grid_meet_brute(pres, spec, n, min(n, 3))


@pytest.mark.parametrize("signed", [False, True])
@pytest.mark.parametrize(
    "words,axes",
    [
        ("a;x;a^-1;x^-1", "both"),  # a commuting square: c^-1 = a and d^-1 = b
        ("a;x;b;x^-1", "j"),  # d^-1 = b only
        ("a;x;a^-1;y", "i"),  # c^-1 = a only
        ("x;a;x^-1;a^-1", "both"),
        ("x;a;y;a^-1", "j"),
    ],
)
def test_grid_axis_points(g3, words, axes, signed):
    """Where c^-1 = a or d^-1 = b the whole axis (t, 0, t, 0) or
    (0, l, 0, l) is in the image."""
    points = _grid_meet_brute(g3, spec_of(g3, words, signed=signed), 9, 4)
    j_axis = {(0, l, 0, l) for l in range(10)}
    i_axis = {(t, 0, t, 0) for t in range(10)}
    assert (j_axis <= set(points)) == (axes in ("both", "j"))
    assert (i_axis <= set(points)) == (axes in ("both", "i"))


def test_grid_routing(monkeypatch, g3):
    """Four one-letter blocks on alternating sides never reach the meet
    in the middle, and every other shape never reaches the grid."""
    import quatlat.parikh

    def refuse(*args):
        raise AssertionError("wrong search path")

    with monkeypatch.context() as patch:
        patch.setattr(quatlat.parikh, "_meet", refuse)
        for words in ("a;x;b^-1;x", "x;a;y;b"):
            for signed in (False, True):
                enumerate_parikh(g3, spec_of(g3, words, signed=signed), 5)
    monkeypatch.setattr(quatlat.parikh, "_grid", refuse)
    for words in ("a;x;b^-1", "a;x;b^-1;x;a", "a;x;b^-1;x,x", "a,x;b;a;x", "a;b;x;y", "a;x;y;b"):
        enumerate_parikh(g3, spec_of(g3, words), 3)


@pytest.mark.parametrize("p", [3, 5])
def test_power_diagonal_theorem_at_e2(p):
    """On F_{p^2} the step is p^k_tau with k_tau = 4: the first tau with
    k_tau = 4 and its first non-commuting square a*b = b2*a2 give exactly
    the power diagonal of p^4 up to N = p^4 + 1."""
    from quatlat.ff import Field, QuadExt, find_nonsquare
    from quatlat.lattice import LatticeParams, build_square_table, compute_k_tau
    from quatlat.parikh import _meet

    field = Field(p, 2)
    ext = QuadExt(field, find_nonsquare(field))
    params = next(
        params
        for params in (LatticeParams(ext, field.from_index(k)) for k in range(2, field.q))
        if compute_k_tau(params) == 4
    )
    pres = build_square_table(params)
    sq = next(s for s in pres.squares if not s.commuting)
    spec = BoundedLanguageSpec(((sq.a,), (sq.b,), (pres.inverse[sq.a2],), (pres.inverse[sq.b2],)))
    n = p**4 + 1
    points = enumerate_parikh(pres, spec, n)
    assert frozenset(points) == PowerDiagonal(p**pres.k_tau).enumerate_box(n)
    if p == 3:
        assert points == tuple(sorted(_meet(pres, spec, n)))


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("words,signed", [("a;x;b^-1;x", False), ("a;x;b;x", True)])
def test_bound_zero_gives_only_the_zero_tuple(g3, words, signed, jobs):
    spec = spec_of(g3, words, signed=signed)
    assert enumerate_parikh(g3, spec, 0, jobs=jobs) == ((0, 0, 0, 0),)


def test_example_registry_passes():
    for key, ex in EXAMPLES.items():
        pres = get_presentation(ex.lattice)
        bound = min(ex.bound, 12)
        points = enumerate_parikh(pres, ex.spec(pres), bound)
        report = compare(points, ex.expected, bound)
        assert report.ok, (key, report.missing, report.extra)


def test_q5_commuting_language():
    pres = get_presentation("q5")
    spec, expected = first_commuting_language(pres)
    points = enumerate_parikh(pres, spec, 8)
    assert compare(points, expected, 8).ok
    assert len(points) == 81


def test_linear_set_membership():
    L = LinearSet((0, 0), ((1, 1),))
    assert L.contains((4, 4)) and not L.contains((4, 5))
    L2 = LinearSet((1, 0), ((2, 0), (0, 3)))
    assert L2.contains((5, 6))
    assert not L2.contains((4, 6))
    inter = LinearSet((0, 0, 0, 0), ((1, 0, 1, 0), (0, 1, 0, 1)))
    assert inter.contains((2, 5, 2, 5))
    assert not inter.contains((2, 5, 2, 4))


def test_linear_set_zero_periods_dropped():
    L = LinearSet((1, 1), ((0, 0), (1, 0)))
    assert L.periods == ((1, 0),)


def test_linear_set_box():
    L = LinearSet((1, 0), ((2, 0), (0, 3)))
    box = L.enumerate_box(6)
    brute = {
        (1 + 2 * i, 3 * j) for i in range(4) for j in range(3)
        if 1 + 2 * i <= 6 and 3 * j <= 6
    }
    assert box == brute


def test_semilinear_union():
    S = SemilinearSet.of((7, 7), LinearSet((0, 0), ((1, 1),)))
    assert S.contains((3, 3)) and S.contains((7, 7)) and not S.contains((7, 6))


def test_power_diagonal():
    pd = PowerDiagonal(9, 4)
    assert pd.contains((0, 0, 0, 0))
    assert pd.contains((1, 1, 1, 1))
    assert pd.contains((81, 81, 81, 81))
    assert not pd.contains((27, 27, 27, 27))
    assert not pd.contains((9, 9, 9, 8))
    assert pd.enumerate_box(100) == {
        (0, 0, 0, 0),
        (1, 1, 1, 1),
        (9, 9, 9, 9),
        (81, 81, 81, 81),
    }


def test_growth_examples():
    assert growth(PowerDiagonal(9, 4), 100) == 4
    assert growth(PowerDiagonal(9, 4), 0) == 1
    assert growth(LinearSet((0, 0), ((1, 1),)), 10) == 11
    for m, d in ((9, 4), (3, 2), (5, 4)):
        for j in range(6):
            assert growth(PowerDiagonal(m, d), m**j) == j + 2
    for obj in (PowerDiagonal(9, 4), LinearSet((0, 0), ((1, 1),)), [(0, 0)]):
        with pytest.raises(ValueError):
            growth(obj, -1)


def test_growth_membership_vs_expansion():
    rng = random.Random(50)
    for _ in range(20):
        d = rng.randint(1, 3)
        base = tuple(rng.randint(0, 2) for _ in range(d))
        periods = tuple(
            tuple(rng.randint(0, 2) for _ in range(d)) for _ in range(rng.randint(0, 2))
        )
        L = LinearSet(base, periods)
        n = rng.randint(0, 6)
        box = L.enumerate_box(n)
        brute = {
            pt
            for pt in _all_points(d, n)
            if L.contains(pt)
        }
        assert box == brute


def _all_points(d, n):
    import itertools

    return itertools.product(range(n + 1), repeat=d)


def test_compare_report():
    rep = compare([(0, 0), (1, 1)], LinearSet((0, 0), ((1, 1),)), 3)
    assert not rep.ok
    assert rep.missing == ((2, 2), (3, 3))
    assert rep.extra == ()
    assert isinstance(rep, CompareReport)


def test_power_diagonal_prediction_q3():
    pres = get_presentation("q3")
    pd = power_diagonal_prediction(pres, ("A0", "B0", "A2", "B0"))
    assert pd == PowerDiagonal(9, 4)


def test_power_diagonal_prediction_rejects():
    pres = get_presentation("q5")
    sq = pres.commuting_squares()[0]
    tokens = (
        sq.a.token(),
        sq.b.token(),
        pres.inverse[sq.a].token(),
        pres.inverse[sq.b].token(),
    )
    with pytest.raises(HypothesisViolatedError):
        power_diagonal_prediction(pres, tokens)
    with pytest.raises(HypothesisViolatedError):
        power_diagonal_prediction(pres, ("A0", "A0", "A0", "A0"))


def test_spec_validation(g3):
    with pytest.raises(ValueError):
        BoundedLanguageSpec(())
    with pytest.raises(ValueError):
        BoundedLanguageSpec(((),))
    w = parse_word(g3, "a")
    with pytest.raises(ValueError):
        BoundedLanguageSpec((w, w), remap=((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        BoundedLanguageSpec((w,), remap=((0, 2),))


def test_multi_letter_blocks(g3):
    # blocks need not be single letters
    spec = spec_of(g3, "a,x;b^-1,x")
    points = enumerate_parikh(g3, spec, 6)
    assert (0, 0) in points
    for i, j in points:
        w = parse_word(g3, "a,x") * i + parse_word(g3, "b^-1,x") * j
        from quatlat.rewrite import is_identity

        assert is_identity(g3, w)


def test_enumerated_points_pass_membership(g3):
    spec = spec_of(
        g3, "a;x;b;x", signed=True, remap=((0, 1), (1, 1), (3, 1), (2, -1))
    )
    for point in enumerate_parikh(g3, spec, 6):
        assert membership(g3, spec, point)


def test_named_and_parametric_enumerations_agree(g3):
    """The letter dictionary carries the abstract presentation onto the
    parametric one; Parikh images computed on either side must agree."""
    q3 = get_presentation("q3")
    d = letter_map(g3, q3, GAMMA3_DICTIONARY)
    for words, signed in (("a;x;b^-1;x", False), ("a;x;b;x", True), ("b;y;a^-1;x^-1", False)):
        named_blocks = tuple(parse_word(g3, w) for w in words.split(";"))
        param_blocks = tuple(sum((d[l] for l in w), ()) for w in named_blocks)
        got_named = enumerate_parikh(g3, BoundedLanguageSpec(named_blocks, signed=signed), 7)
        got_param = enumerate_parikh(q3, BoundedLanguageSpec(param_blocks, signed=signed), 7)
        assert got_named == got_param, words


def test_signed_proposition_depth_30(g3):
    # one orbit level deeper: the transported square at exponent 27
    spec = spec_of(
        g3, "a;x;b;x", signed=True, remap=((0, 1), (1, 1), (3, 1), (2, -1))
    )
    from quatlat.presets import _diag_orbit_set

    points = set(enumerate_parikh(g3, spec, 30))
    assert points == _diag_orbit_set(30)
    assert (27, -27, -27, 27) in points
    assert (27, 27, 27, 27) not in points
