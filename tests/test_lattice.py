import pytest

from quatlat import ff
from quatlat.ff import Field, FieldError, QuadExt, find_nonsquare, norm_fiber
from quatlat.lattice import (
    ComplexError,
    GenLabel,
    LatticeParams,
    ParameterMismatchError,
    Presentation,
    SquareSolveError,
    build_generators,
    build_square_table,
    check_finite_lemmas,
    check_gamma3_dictionary,
    compute_k_tau,
    expand_squares,
    gamma3_dictionary,
    letter_map,
    named_presentation,
    oracle_check_table,
    phi_k_map,
    presentation_from_json,
    solve_square,
    verify_homomorphism,
)
from quatlat.quat import Poly, QuatAlgebra


@pytest.fixture(scope="module")
def q3():
    return LatticeParams.make(3, 1, -1, -1)


@pytest.fixture(scope="module")
def q5():
    return LatticeParams.make(5, 1, 2, 3)


@pytest.fixture(scope="module")
def pres3(q3):
    return build_square_table(q3)


@pytest.fixture(scope="module")
def pres5(q5):
    return build_square_table(q5)


def _altered(pres, **attrs):
    """A copy of pres with some attributes replaced; pres is untouched."""
    broken = object.__new__(Presentation)
    broken.__dict__.update(pres.__dict__, **attrs)
    return broken


def test_params_validation():
    with pytest.raises(ValueError):
        LatticeParams.make(3, 1, 1, -1)  # c = 1 is a square
    with pytest.raises(ValueError):
        LatticeParams.make(3, 1, -1, 1)  # tau = 1
    with pytest.raises(ValueError):
        LatticeParams.make(3, 1, -1, 0)


def test_params_refuse_a_tau_from_another_field():
    field = Field(3, 2)
    ext = QuadExt(field, find_nonsquare(field))
    with pytest.raises(FieldError, match=r"Field\(3, 1\).*Field\(3, 2\)"):
        LatticeParams(ext, Field(3).from_index(2))
    assert LatticeParams(ext, field.from_index(2)).tau.field is field


def test_build_generators_q3(q3):
    fa, fb = build_generators(q3)
    ext = q3.ext
    assert set(fa) == {ext.element(1), ext.element(2), ext.gen, -ext.gen}
    assert set(fb) == {ext.element(u, v) for u in (1, 2) for v in (1, 2)}
    assert len(fa) == len(fb) == 4


def test_build_generators_q5_matches_stated_sets(q5):
    # A embeds as {2t +- 2F, 2t +- F +- FZ}; B as {2t +- F, 2t +- 2F +- 2FZ}
    alg = QuatAlgebra(q5.ext)
    fa, fb = build_generators(q5)

    def embed_all(fiber):
        return {alg.generator_quat(xi).projective() for xi in fiber}

    def lit(x0c, f_coef, fz_coef):
        # 2t + f_coef*F + fz_coef*FZ as a projective class
        t = Poly.t(q5.field)
        return alg.element(
            t * q5.field.element(2), 0, q5.field.element(f_coef), -q5.field.element(fz_coef)
        ).projective()

    want_a = {lit(2, s, 0) for s in (2, 3)} | {
        lit(2, s1, s2) for s1 in (1, 4) for s2 in (1, 4)
    }
    want_b = {lit(2, s, 0) for s in (1, 4)} | {
        lit(2, s1, s2) for s1 in (2, 3) for s2 in (2, 3)
    }
    assert embed_all(fa) == want_a
    assert embed_all(fb) == want_b


def test_fiber_sizes_various():
    for p, e, c, tau in ((3, 1, -1, -1), (5, 1, 2, 3), (7, 1, 3, 2)):
        params = LatticeParams.make(p, e, c, tau)
        fa, fb = build_generators(params)
        assert len(fa) == len(fb) == params.field.q + 1
        assert not (set(fa) & set(fb))


def test_solve_square_dictionary_relations(q3):
    ext = q3.ext
    # the四 letter dictionary: a=1, b=-Z, x=1+Z, y=1-Z
    a, b = ext.element(1), ext.element(0, -1)
    x, y = ext.element(1, 1), ext.element(1, -1)
    assert solve_square(q3, a, x) == (-x, b)  # ax = x^-1 b
    assert solve_square(q3, a, y) == (-y, -b)  # ay = y^-1 b^-1
    assert solve_square(q3, a, -y) == (x, -a)  # ay^-1 = x a^-1
    assert solve_square(q3, b, x) == (y, -b)  # bx = y b^-1


def _scan_fiber(ext, s):
    """The norm fiber over s, by evaluating QuadElem.norm on every element
    in enumeration order (norm_fiber's independent oracle)."""
    return tuple(x for x in ext.elements() if x.norm() == s)


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)])
def test_norm_fiber_matches_element_scan(p, e):
    field = Field(p, e)
    ext = QuadExt(field, find_nonsquare(field))
    for s in list(field.elements())[1:]:
        assert norm_fiber(ext, s) == _scan_fiber(ext, s)


def _scan_square(params, scan_b, xi, eta):
    """Every (lambda, mu) solving the square system, by scanning lambda
    over the B fiber scan_b (the closed form's independent oracle); the
    sums are taken coordinate by coordinate."""
    ext = params.ext
    total, prod = (xi.u + eta.u, xi.v + eta.v), xi * eta.conj()
    found = []
    for lam in scan_b:
        mu = ext.element(total[0] - lam.u, total[1] - lam.v)
        if not mu.is_zero() and mu.norm() == params.a_norm_target and lam * mu.conj() == prod:
            found.append((lam, mu))
    return found


def _closed_form_cases():
    # every tau for q = 3 .. 11 (25 pairs, e = 2 at q = 9), one tau at q = 25 and at q = 27
    cases = [(p, e, k) for p, e in ((3, 1), (5, 1), (7, 1), (3, 2), (11, 1)) for k in range(2, p**e)]
    return cases + [(5, 2, 7), (3, 3, 5)]


@pytest.mark.parametrize("p,e,k", _closed_form_cases())
def test_closed_form_solve_square_matches_fiber_scan(p, e, k):
    field = Field(p, e)
    params = LatticeParams(QuadExt(field, find_nonsquare(field)), field.from_index(k))
    fiber_a, fiber_b = build_generators(params)
    scan_b = _scan_fiber(params.ext, params.b_norm_target)
    for xi in fiber_a:
        for eta in fiber_b:
            assert [solve_square(params, xi, eta)] == _scan_square(params, scan_b, xi, eta)


def test_solve_square_refuses_elements_of_another_extension(q3, q5):
    fiber_a3, fiber_b3 = build_generators(q3)
    fiber_a5, fiber_b5 = build_generators(q5)
    for xi, eta in ((fiber_a3[0], fiber_b3[0]), (fiber_a5[0], fiber_b3[0]), (fiber_a3[0], fiber_b5[0])):
        with pytest.raises(FieldError):
            solve_square(q5, xi, eta)


def test_solve_square_refuses_a_system_without_solution(q5):
    fiber_a, _ = build_generators(q5)
    xi = fiber_a[0]
    with pytest.raises(SquareSolveError):
        solve_square(q5, xi, -xi)  # xi + eta = 0
    with pytest.raises(SquareSolveError):
        solve_square(q5, xi, xi)  # eta off the B fiber: N(lambda) != s_B


def test_commuting_solution_shape(q5):
    # lambda = eta forces mu = xi wherever it happens
    for (la, lb), (lb2, la2) in build_square_table(q5).swap.items():
        assert (lb2 == lb) == (la2 == la)


def test_table_sizes():
    for p, c, tau, size in ((3, -1, -1, 16), (5, 2, 3, 36), (7, 3, 2, 64)):
        pres = build_square_table(LatticeParams.make(p, 1, c, tau))
        assert len(pres.swap) == size
        assert len(pres.squares) == size // 4
        # bijectivity onto B x A
        assert len(set(pres.swap.values())) == size


def test_q3_has_no_commuting_square(pres3):
    assert not pres3.commuting_squares()


def test_q5_commuting_squares(pres5):
    # three sign-families of proportional index pairs commute
    assert len(pres5.commuting_squares()) == 3


def test_oracle_check(pres3, pres5):
    assert oracle_check_table(pres3) == {"ok": True, "checked": 16, "failures": []}
    assert oracle_check_table(pres5)["ok"]


def test_oracle_check_q9():
    field = Field(3, 2)
    ext = QuadExt(field, find_nonsquare(field))
    pres = build_square_table(LatticeParams(ext, field.element((0, 1))))
    rep = oracle_check_table(pres)
    assert rep["ok"] and rep["checked"] == 100


def test_oracle_catches_corruption(pres3):
    (k1, v1), (k2, v2) = list(pres3.swap.items())[:2]
    broken = _altered(pres3, swap={**pres3.swap, k1: v2, k2: v1})
    rep = oracle_check_table(broken)
    assert not rep["ok"] and rep["failures"]
    assert not check_gamma3_dictionary(broken, named_presentation("gamma3"))


@pytest.mark.parametrize("p,e", [(7, 1), (3, 2)], ids=["q=7", "q=9"])
def test_oracle_names_a_single_wrong_entry(p, e):
    """One swap value pointed at another valid letter pair: the oracle
    names exactly that key, and still checks every entry."""
    field = Field(p, e)
    ext = QuadExt(field, find_nonsquare(field))
    pres = build_square_table(LatticeParams(ext, field.from_index(2)))
    keys = list(pres.swap)
    key = keys[len(keys) // 2]
    value = next(v for v in pres.swap.values() if v != pres.swap[key])
    rep = oracle_check_table(_altered(pres, swap={**pres.swap, key: value}))
    assert rep == {"ok": False, "checked": (p**e + 1) ** 2, "failures": [(key[0].token(), key[1].token())]}


def test_sigma_k_on_b_fiber(q3):
    # sigma_1 multiplies the B fiber by (tau/(tau-1))^((p-1)/2) = -1
    _, fb = build_generators(q3)
    for eta in fb:
        assert ff.sigma_k(q3.ext, eta, 1) == -eta
        assert ff.sigma_k(q3.ext, eta, 2) == eta


def test_sigma_k_lands_in_shifted_fiber():
    # q = 9 with tau outside the prime field: M_tau and M_(tau^3) differ
    field = Field(3, 2)
    ext = QuadExt(field, find_nonsquare(field))
    tau = field.element((0, 1))
    params = LatticeParams(ext, tau)
    tau3 = tau**3
    assert tau3 != tau
    target3 = ext.c * tau3 / (field.one - tau3)
    for eta in norm_fiber(ext, params.b_norm_target):
        assert ff.sigma_k(params.ext, eta, 1).norm() == target3


def test_compute_k_tau_examples(q3, q5):
    assert compute_k_tau(q3) == 2
    assert compute_k_tau(q5) == 1


def test_k_tau_bound_all_tau():
    for q in (3, 5, 7):
        field = Field(q)
        ext = QuadExt(field, find_nonsquare(field))
        for idx in range(2, q):
            params = LatticeParams(ext, field.from_index(idx))
            k = compute_k_tau(params)
            assert field.p**k <= field.q**2
            assert params.tau ** (field.p**k) == params.tau


def test_phi_k_maps(pres3):
    # tau^3 = tau at q=3: both phi_1 and phi_2 are endomorphisms
    for k in (1, 2):
        mapping = phi_k_map(pres3, pres3, k)
        assert all(len(w) == 3**k for w in mapping.values())
        assert verify_homomorphism(pres3, pres3, mapping)["ok"]


def test_homomorphism_check_reports_a_broken_inverse(pres3):
    """A letter's image doubled: the relation l * l^-1 = 1 fails for the
    letter and for its inverse."""
    mapping = phi_k_map(pres3, pres3, 1)
    letter = pres3.alphabet_b[0]
    rep = verify_homomorphism(pres3, pres3, {**mapping, letter: mapping[letter] * 2})
    inverse = {f for f in rep["failures"] if f[0] == "inverse"}
    assert not rep["ok"] and inverse == {("inverse", letter.token()), ("inverse", pres3.inverse[letter].token())}


def test_phi_1_cross_lattice_q9():
    field = Field(3, 2)
    ext = QuadExt(field, find_nonsquare(field))
    tau = field.element((0, 1))
    dst = build_square_table(LatticeParams(ext, tau))
    src = build_square_table(LatticeParams(ext, tau**3))
    mapping = phi_k_map(src, dst, 1)
    assert verify_homomorphism(src, dst, mapping)["ok"]


def test_phi_k_parameter_mismatch(pres3, pres5):
    with pytest.raises(ParameterMismatchError):
        phi_k_map(pres3, pres5, 1)


def test_gamma4_endomorphism():
    g4 = named_presentation("gamma4")
    mapping = letter_map(
        g4, g4, {"a": ["a"] * 4, "b": ["b"] * 4, "x": ["x"], "y": ["y"]}
    )
    assert verify_homomorphism(g4, g4, mapping)["ok"]


def test_identity_map_is_homomorphism():
    g32 = named_presentation("gamma32")
    mapping = letter_map(
        g32, g32, {n: [n] for n in ("a", "b", "c", "x", "y")}
    )
    assert verify_homomorphism(g32, g32, mapping)["ok"]


def test_broken_map_detected():
    g4 = named_presentation("gamma4")
    mapping = letter_map(
        g4, g4, {"a": ["a", "a"], "b": ["b"] * 4, "x": ["x"], "y": ["y"]}
    )
    assert not verify_homomorphism(g4, g4, mapping)["ok"]


def test_expand_squares_counts():
    g3 = named_presentation("gamma3")
    g4 = named_presentation("gamma4")
    g32 = named_presentation("gamma32")
    assert len(g3.swap) == 16 and len(g3.squares) == 4
    assert len(g4.swap) == 16 and len(g4.squares) == 4
    assert len(g32.swap) == 24 and len(g32.squares) == 6


def test_expand_squares_complete_torus():
    # one square over rank-1 alphabets is the commuting torus: complete
    torus = expand_squares(["a"], ["x"], [("a", "x", "x", "a")], name="torus")
    assert len(torus.swap) == 4
    assert torus.squares[0].commuting


def test_expand_squares_incomplete():
    with pytest.raises(ComplexError):
        expand_squares(["a", "b"], ["x"], [("a", "x", "x", "b")], name="half")


def test_expand_squares_overlap():
    squares = [
        ("a", "x", "x^-1", "b"),
        ("a", "x", "y", "b"),
        ("a", "y", "y^-1", "b^-1"),
        ("a", "y^-1", "x", "a^-1"),
        ("b", "x", "y", "b^-1"),
    ]
    with pytest.raises(ComplexError):
        expand_squares(["a", "b"], ["x", "y"], squares)


def test_self_paired_alphabet_rejected():
    a = GenLabel("A", "a")
    b = GenLabel("B", "b")
    with pytest.raises(ComplexError):
        Presentation(
            (a,),
            (b,),
            {a: a, b: b},
            {(a, b): (b, a)},
            name="degenerate",
        )


@pytest.fixture(scope="module")
def torus():
    """The commuting torus over A = {a, b}, B = {x}."""
    return expand_squares(["a", "b"], ["x"], [("a", "x", "x", "a"), ("b", "x", "x", "b")], name="torus")


_FOREIGN = GenLabel("A", "f")  # a letter of no presentation


def _exchanged(t1, t2):
    """An edit that exchanges the values at two keys, given as token pairs."""
    return lambda swap, key: {**swap, key(*t1): swap[key(*t2)], key(*t2): swap[key(*t1)]}


# Each fault of a swap dict as (edit, message): the edit takes the dict
# and a token-pair-to-key function to a faulty dict.
_SWAP_FAULTS = {
    "missing-key": (lambda swap, key: {k: v for k, v in swap.items() if k != key("b", "x")}, "not total"),
    "foreign-key": (lambda swap, key: {(_FOREIGN, k[1]) if k == key("b", "x") else k: v
                                       for k, v in swap.items()}, "not total"),
    "non-injective": (lambda swap, key: {**swap, key("b", "x"): swap[key("a", "x")]}, "not injective"),
    "wrong-side-image": (lambda swap, key: {**swap, key("b", "x"): swap[key("b", "x")][::-1]},
                         r"image of \(b, x\) has wrong sides"),
    "reading-2": (_exchanged(("b^-1", "x"), ("b^-1", "x^-1")), r"reading 2 inconsistent at \(b, x\)"),
    "reading-3": (_exchanged(("b", "x^-1"), ("b^-1", "x^-1")), r"reading 3 inconsistent at \(b, x\)"),
    "reading-4": (_exchanged(("a^-1", "x^-1"), ("b", "x")), r"reading 4 inconsistent at \(a, x\)"),
    "image-outside-alphabets": (lambda swap, key: {**swap, key("b", "x"): (key("b", "x")[1], _FOREIGN)},
                                r"image of \(b, x\) is not in the alphabets"),
}


@pytest.mark.parametrize("fault", sorted(_SWAP_FAULTS))
def test_every_swap_fault_is_a_complex_error(torus, fault):
    """The swap dict starts from the torus's entries in (token(a), token(b))
    order, so every check meets the entries in one order and names the
    same first fault."""
    swap = {(a, b): torus.swap[a, b] for a in torus.alphabet_a for b in torus.alphabet_b}
    Presentation(torus.alphabet_a, torus.alphabet_b, torus.inverse, swap)
    edit, message = _SWAP_FAULTS[fault]
    swap = edit(swap, lambda ta, tb: (torus.label(ta), torus.label(tb)))
    with pytest.raises(ComplexError, match=message):
        Presentation(torus.alphabet_a, torus.alphabet_b, torus.inverse, swap)


def test_an_inverse_across_sides_is_a_complex_error(torus):
    a, ia, x, ix = (torus.label(t) for t in ("a", "a^-1", "x", "x^-1"))
    inverse = {**torus.inverse, a: x, x: a, ia: ix, ix: ia}
    with pytest.raises(ComplexError, match=r"inverse-paired at a$"):
        Presentation(torus.alphabet_a, torus.alphabet_b, inverse, torus.swap)


def test_a_letter_may_serve_two_presentations(torus):
    """Each presentation numbers its own letters: one letter has code 3 in
    the torus and code 0 in a presentation listing its A letters reversed."""
    reversed_a = Presentation(torus.alphabet_a[::-1], torus.alphabet_b, torus.inverse, torus.swap)
    b_inv = torus.label("b^-1")
    assert reversed_a.label("b^-1") is b_inv
    assert (torus._code[b_inv], reversed_a._code[b_inv]) == (3, 0)


def test_a_letter_listed_twice_is_refused():
    a, ia, x, ix = GenLabel("A", "a"), GenLabel("A", "a", inv=True), GenLabel("B", "x"), GenLabel("B", "x", inv=True)
    with pytest.raises(ComplexError, match=r"^letter a is listed twice in the alphabets$"):
        Presentation((a, ia, a), (x, ix), {a: ia, ia: a, x: ix, ix: x}, {})


def test_two_letters_with_one_token_are_refused():
    """Two a/a^-1 pairs, each inverse-paired: `by_token` would keep one."""
    a, ia, a2, ia2 = (GenLabel("A", "a", inv=i) for i in (False, True, False, True))
    x, ix = GenLabel("B", "x"), GenLabel("B", "x", inv=True)
    inverse = {a: ia, ia: a, a2: ia2, ia2: a2, x: ix, ix: x}
    with pytest.raises(ComplexError, match=r"^two letters have the token 'a'$"):
        Presentation((a, ia, a2, ia2), (x, ix), inverse, {})


def test_a_letter_of_another_lattice_is_foreign():
    """gamma4 has a letter spelled a, but not gamma3's a."""
    g3, g4 = named_presentation("gamma3"), named_presentation("gamma4")
    assert g4.label("a") is not g3.label("a") and g4.label("a") != g3.label("a")
    with pytest.raises(KeyError, match=r"^a$"):
        g4.inverse[g3.label("a")]


def test_a_refused_presentation_leaves_no_codes():
    """A refused presentation leaves nothing on its letters, so they can
    still go into another, which numbers them in its own order."""
    a, ia, x, ix = GenLabel("A", "a"), GenLabel("A", "a", inv=True), GenLabel("B", "x"), GenLabel("B", "x", inv=True)
    inverse = {a: ia, ia: a, x: ix, ix: x}
    with pytest.raises(ComplexError, match="not total"):
        Presentation((a, ia), (x, ix), inverse, {})
    squares = {(ia, x): (x, ia), (ia, ix): (ix, ia), (a, x): (x, a), (a, ix): (ix, a)}
    torus = Presentation((ia, a), (x, ix), inverse, squares)
    assert [torus._code[l] for l in (ia, a, x, ix)] == [0, 1, 2, 3]


def test_gamma3_dictionary(pres3):
    g3 = named_presentation("gamma3")
    assert check_gamma3_dictionary(pres3, g3)
    d = gamma3_dictionary(pres3, g3)
    assert len(d) == 8
    # the dictionary respects inversion
    for named_label, plabel in d.items():
        assert d[g3.inverse[named_label]] == pres3.inverse[plabel]


@pytest.mark.parametrize("kind", ["eta-mu", "conj", "chain"])
def test_finite_lemmas_name_a_corrupted_entry(pres3, kind):
    """One swap value changed in a copy whose rewriting rows are left as
    they were: the index identity it breaks names its entry, and no
    other.  No powers are checked, so the rows are not read."""
    ext = pres3.params.ext
    a, b = pres3.by_index[ext.element(1)], pres3.by_index[ext.element(2, 1)]
    b2, a2 = pres3.swap[(a, b)]
    # (Z, 1+2Z) -> (1+Z, 2Z) = (conj(eta), conj(xi))
    az, bz = pres3.by_index[ext.gen], pres3.by_index[ext.element(1, 2)]
    key, value, entry = {
        "eta-mu": ((a, b), (b, a2), (a, b)),  # lam = eta, but mu != xi
        "conj": ((az, bz), (pres3.swap[(az, bz)][0], a), (az, bz)),  # mu = 1, not conj(xi)
        "chain": ((a2, b), (b2, pres3.swap[(a2, b)][1]), (a, b)),  # (mu, eta) repeats lam
    }[kind]
    rep = check_finite_lemmas(_altered(pres3, swap={**pres3.swap, key: value}), powers=())
    assert rep["failures"] == [(kind, repr(entry[0].index), repr(entry[1].index))]


def test_finite_lemmas_report_a_wrong_k_tau(pres3):
    """k_tau = 1 where it is 2: every non-commuting square's p-th power
    relation is expected to hold, and none does."""
    rep = check_finite_lemmas(_altered(pres3, k_tau=1), powers=(1, 2))
    assert pres3.k_tau == 2 and not pres3.commuting_squares()
    assert sorted(rep["failures"]) == sorted(
        ("power", la.token(), lb.token(), 1, False) for la, lb in pres3.swap
    )


def test_check_finite_lemmas_fast(pres3, pres5):
    assert check_finite_lemmas(pres3, powers=(1, 2))["ok"]
    assert check_finite_lemmas(pres5, powers=(1,))["ok"]


def test_presentation_json_roundtrip(pres3):
    named = named_presentation("gamma4")
    again = presentation_from_json(named.to_json())
    assert again.to_json() == named.to_json()
    param_again = presentation_from_json(pres3.to_json())
    assert param_again.to_json() == pres3.to_json()
    assert param_again.k_tau == pres3.k_tau


def test_four_reading_consistency_spotcheck(table_zoo):
    for pres in table_zoo:
        inv = pres.inverse
        for (a, b), (b2, a2) in pres.swap.items():
            assert pres.swap[(inv[a], b2)] == (b, inv[a2])
            assert pres.swap[(a2, inv[b])] == (inv[b2], a)
            assert pres.swap[(inv[a2], inv[b2])] == (inv[b], inv[a])


def test_squares_cover_every_entry_once_in_token_order(table_zoo):
    """Each swap entry is one reading of exactly one square, and each
    square is listed at its first reading in (token(a), token(b)) order."""

    def token(key):
        return key[0].token(), key[1].token()

    for pres in table_zoo:
        inv = pres.inverse
        covered, firsts = set(), []
        for s in pres.squares:
            assert pres.swap[(s.a, s.b)] == (s.b2, s.a2) and s.commuting == (s.b2 == s.b and s.a2 == s.a)
            keys = {(s.a, s.b), (inv[s.a], s.b2), (s.a2, inv[s.b]), (inv[s.a2], inv[s.b2])}
            assert len(keys) == 4 and not keys & covered, (pres, s)
            covered |= keys
            firsts.append(min(map(token, keys)))
        assert covered == pres.swap.keys()
        assert [token((s.a, s.b)) for s in pres.squares] == firsts == sorted(firsts)
