import random

import pytest

import quatlat.quat
from quatlat.ff import Field, QuadExt, norm_fiber, sigma_k
from quatlat.lattice import LatticeParams, build_generators
from quatlat.quat import (
    Mat3,
    Poly,
    QuatAlgebra,
    RatFun,
    gamma3_matrices,
    gamma3_matrix_relations,
    poly_gcd,
    verify_power_lemma,
)


@pytest.fixture
def alg3():
    field = Field(3)
    return QuatAlgebra(QuadExt(field, field.element(-1)))


@pytest.fixture
def alg5():
    field = Field(5)
    return QuatAlgebra(QuadExt(field, field.element(2)))


def _power_cases():
    f7, f9, f3, f5 = Field(7), Field(3, 2), Field(3), Field(5)
    ext5, ext3 = QuadExt(f5, f5.element(2)), QuadExt(f3, f3.element(-1))
    alg = QuatAlgebra(ext3)
    gen = alg.generator_quat(ext3.element(1))
    return {
        "FieldElem e=1": (f7.element(3), f7.one),
        "FieldElem e=2": (f9.element((1, 1)), f9.one),
        "QuadElem": (ext5.element(1, 3), ext5.one),
        "Quat q=3": (gen, alg.one),
    }


POWER_CASES = _power_cases()


@pytest.mark.parametrize("n", [-2, 0, 1, 5])
@pytest.mark.parametrize("kind", sorted(POWER_CASES))
def test_power_matches_repeated_multiplication(kind, n):
    x, one = POWER_CASES[kind]
    if kind == "Quat q=3" and n < 0:
        # a polynomial quaternion has no polynomial inverse
        with pytest.raises(ValueError):
            x**n
        return
    base = x if n >= 0 else x.inverse()
    want = one
    for _ in range(abs(n)):
        want = want * base
    assert x**n == want


def test_poly_power():
    field = Field(3)
    t = Poly.t(field)
    assert t**0 == Poly.const(field, 1)
    assert t**5 == t * t * t * t * t
    with pytest.raises(ValueError):
        t**-1


def test_polys_equal_only_polys():
    """A constant polynomial hashes apart from its coefficient, so it
    equals neither that field element nor an int."""
    field = Field(5)
    const = Poly.const(field, 3)
    assert const == Poly.const(field, 8) and Poly.const(field, 8) in {const}
    assert const != field.element(3) and const != 3 and field.element(3) not in {const}


def rand_poly(rng, field, deg):
    return Poly(field, [rng.randrange(field.p) for _ in range(deg + 1)])


def rand_ratfun(rng, field, deg=3):
    num = rand_poly(rng, field, rng.randint(0, deg))
    den = Poly(field)
    while den.is_zero():
        den = rand_poly(rng, field, rng.randint(0, deg))
    return RatFun(num, den)


def rand_quat(rng, alg, deg=2):
    return alg.element(*(rand_poly(rng, alg.field, rng.randint(0, deg)) for _ in range(4)))


def test_poly_divmod_roundtrip():
    rng = random.Random(11)
    field = Field(5)
    for _ in range(100):
        a = rand_poly(rng, field, rng.randint(0, 6))
        b = Poly(field)
        while b.is_zero():
            b = rand_poly(rng, field, rng.randint(0, 4))
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_poly_arithmetic_stays_canonical():
    """Sums, products and quotients are built from their coefficients
    without coercion; they must still be trimmed, and a polynomial over
    another field must still be refused."""
    from quatlat.ff import FieldError

    rng = random.Random(13)
    field = Field(5)
    for _ in range(100):
        a, b = rand_poly(rng, field, rng.randint(0, 4)), rand_poly(rng, field, rng.randint(0, 4))
        c = field.element(rng.randrange(5))
        results = [a + b, a - b, a + (-a), -a, a * b, a * c, a.monic()]
        if b:
            results += divmod(a, b)
        for got in results:
            assert not got.coeffs or not got.coeffs[-1].is_zero()
            assert all(c.field == field for c in got.coeffs)
    other = Poly(Field(7), (1, 2))
    for op in (lambda x: x + other, lambda x: x - other, lambda x: x * other, lambda x: divmod(x, other)):
        for x in (Poly(field), Poly(field, (1, 1))):
            with pytest.raises(FieldError):
                op(x)


def test_poly_gcd_divides():
    rng = random.Random(12)
    field = Field(3)
    for _ in range(100):
        a, b = rand_poly(rng, field, 4), rand_poly(rng, field, 3)
        g = poly_gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
        else:
            assert (a % g).is_zero() and (b % g).is_zero()


@pytest.mark.parametrize("p", [3, 5, 7, 11])
def test_divmod_and_gcd_match_sympy(p):
    """GF(p)[t] division and gcd against sympy's galoistools; over a
    prime field a coefficient's index is its residue."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    rng = random.Random(p)
    field = Field(p)

    def big_endian(poly):
        return list(reversed(poly.idx))

    for _ in range(200):
        a = rand_poly(rng, field, rng.randint(0, 8))
        b = rand_poly(rng, field, rng.randint(0, 5))
        # a shared factor, so that some gcds are nontrivial
        f = rand_poly(rng, field, rng.randint(0, 2))
        a, b = a * f, b * f
        assert big_endian(poly_gcd(a, b)) == gt.gf_gcd(big_endian(a), big_endian(b), p, ZZ)
        if b:
            q, r = divmod(a, b)
            assert (big_endian(q), big_endian(r)) == gt.gf_div(big_endian(a), big_endian(b), p, ZZ)


def test_ratfun_canonical():
    field = Field(3)
    t = Poly.t(field)
    two = Poly.const(field, 2)
    r = RatFun(two * t, two * (t + Poly.const(field, 1)))
    assert r.den.is_monic()
    assert poly_gcd(r.num, r.den).degree <= 0
    assert r == RatFun(t, t + Poly.const(field, 1))


def test_basis_relations(alg3):
    Z = alg3.element(0, 1)
    F = alg3.element(0, 0, 1)
    ZF = alg3.element(0, 0, 0, 1)
    assert Z * Z == alg3.element(alg3.c)
    assert F * F == alg3.element(alg3.s)
    assert Z * F == ZF
    assert F * Z == -ZF
    FZ = F * Z
    assert FZ * FZ == alg3.element(alg3.s * (-alg3.c))


def test_unit_and_scalars(alg3):
    assert QuatAlgebra(alg3.ext) is QuatAlgebra(alg3.ext) is alg3
    assert QuatAlgebra(QuadExt(Field(3), 2)) is alg3  # 2 = -1 in F_3
    rng = random.Random(13)
    y = rand_quat(rng, alg3)
    assert alg3.one * y == y and y * alg3.one == y


def test_associativity_distributivity(alg5):
    rng = random.Random(14)
    for _ in range(500):
        x, y, z = (rand_quat(rng, alg5, 1) for _ in range(3))
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x + y) * z == x * z + y * z


def test_conj_gives_scalar_norm(alg3):
    rng = random.Random(15)
    for _ in range(200):
        x = rand_quat(rng, alg3, rng.choice((1, 2)))
        prod = x * x.conj()
        assert all(c.is_zero() for c in prod.coords[1:])


def test_generator_embedding_examples(alg3):
    ext = alg3.ext
    t = Poly.t(alg3.field)
    a = alg3.generator_quat(ext.element(1), t)
    assert a == alg3.element(-t, 0, 0, -1)  # -t + FZ
    x = alg3.generator_quat(ext.element(1, 1), t)
    assert x == alg3.element(-t, 0, 1, -1)  # -t + F + FZ
    b = alg3.generator_quat(ext.element(0, -1), t)
    assert b == alg3.element(-t, 0, -1, 0)  # -t - F
    y = alg3.generator_quat(ext.element(1, -1), t)
    assert y == alg3.element(-t, 0, -1, -1)  # -t - F + FZ


@pytest.mark.parametrize("p,c,tau", [(3, -1, -1), (5, 2, 3)])
def test_generator_inverse_projective(p, c, tau):
    field = Field(p)
    ext = QuadExt(field, field.element(c))
    alg = QuatAlgebra(ext)
    tau_e = field.element(tau)
    fibers = norm_fiber(ext, -ext.c) + norm_fiber(ext, ext.c * tau_e / (field.one - tau_e))
    for xi in fibers:
        g = alg.generator_quat(xi)
        ginv = alg.generator_quat(-xi)
        assert all(c.is_zero() for c in (g * ginv).coords[1:])


def test_proj_eq_scaling(alg3):
    rng = random.Random(17)
    t = Poly.t(alg3.field)
    for _ in range(25):
        x = rand_quat(rng, alg3, 1)
        if x.is_zero():
            continue
        assert x.projective() == (x * (t + Poly.const(alg3.field, 1))).projective()
        assert x.projective() == (x * alg3.field.element(2)).projective()


def test_proj_eq_equivalence(alg3):
    rng = random.Random(18)
    quats = []
    while len(quats) < 8:
        x = rand_quat(rng, alg3, 1)
        if not x.is_zero():
            quats.append(x.projective())
    for p in quats:
        assert p == p
    for p, q in zip(quats, quats[1:]):
        assert (p == q) == (q == p)


def test_ct_plus_minus_fz_distinct(alg3):
    one = alg3.ext.element(1)
    assert alg3.generator_quat(one).projective() != alg3.generator_quat(-one).projective()


def test_power_lemma_exhaustive():
    for p, c, tau in ((3, -1, -1), (5, 2, 3)):
        field = Field(p)
        ext = QuadExt(field, field.element(c))
        alg = QuatAlgebra(ext)
        tau_e = field.element(tau)
        fibers = norm_fiber(ext, -ext.c) + norm_fiber(
            ext, ext.c * tau_e / (field.one - tau_e)
        )
        for k in (1, 2):
            for xi in fibers:
                assert verify_power_lemma(alg, xi, None, k)


def test_power_lemma_trivial_center(alg3):
    # xi = 1, f = 1: the power collapses inside K* up to the norm twist
    assert verify_power_lemma(alg3, alg3.ext.element(1), RatFun(Poly.const(alg3.field, 1)), 1)


def test_power_lemma_nontrivial_f(alg5):
    rng = random.Random(19)
    fibers = norm_fiber(alg5.ext, -alg5.c)
    f = rand_ratfun(rng, alg5.field, 2)
    while f.num.is_zero():
        f = rand_ratfun(rng, alg5.field, 2)
    assert verify_power_lemma(alg5, fibers[0], f, 1)


def _lemma_cases(params):
    algebra = QuatAlgebra(params.ext)
    fiber_a, fiber_b = build_generators(params)
    return algebra, fiber_a + fiber_b


@pytest.mark.parametrize(
    "params",
    [LatticeParams.make(5, 1, 2, 3), LatticeParams.make(3, 2, [1, 1], [0, 1])],
    ids=["q5", "F9"],
)
@pytest.mark.parametrize("k", [1, 2])
def test_power_lemma_refuses_a_doubled_twist(monkeypatch, params, k):
    """Negative control: with xi' = 2*sigma_k(xi) the closed form is
    wrong on every generator, and the lemma must say so."""
    monkeypatch.setattr(quatlat.quat, "sigma_k", lambda ext, xi, k: sigma_k(ext, xi, k) * 2)
    algebra, fibers = _lemma_cases(params)
    assert not any(verify_power_lemma(algebra, xi, None, k) for xi in fibers)


@pytest.mark.parametrize(
    "params,refused",
    [(LatticeParams.make(3, 1, -1, -1), 4), (LatticeParams.make(3, 2, [1, 1], [0, 1]), 10)],
    ids=["q3", "F9"],
)
def test_power_lemma_refuses_a_missing_twist(monkeypatch, params, refused):
    """Negative control: with sigma_1 replaced by the identity the lemma
    must fail exactly on the generators that sigma_1 moves."""
    algebra, fibers = _lemma_cases(params)
    moved = [sigma_k(algebra.ext, xi, 1) != xi for xi in fibers]
    monkeypatch.setattr(quatlat.quat, "sigma_k", lambda ext, xi, k: xi)
    verdicts = [verify_power_lemma(algebra, xi, None, 1) for xi in fibers]
    assert [not v for v in verdicts] == moved
    assert sum(moved) == refused


def test_generator_parameter_spellings(alg5):
    """f may be None (for t), a Poly, an int or a RatFun; each spelling of
    one value gives one generator, and a zero f is refused in each."""
    field = alg5.field
    xi = norm_fiber(alg5.ext, -alg5.c)[0]
    t, two = Poly.t(field), Poly.const(field, 2)
    for same in ([None, t, RatFun(t), RatFun(t * 2, two)], [two, 2, RatFun(two)]):
        quats = {alg5.generator_quat(xi, f) for f in same}
        assert len(quats) == 1
        assert all(verify_power_lemma(alg5, xi, f, 1) for f in same)
    assert verify_power_lemma(alg5, xi, RatFun(t, t + 1), 1)
    for zero in (Poly(field), 0, RatFun(Poly(field))):
        with pytest.raises(ValueError):
            alg5.generator_quat(xi, zero)
        with pytest.raises(ValueError):
            verify_power_lemma(alg5, xi, zero, 1)


def test_ratfun_is_a_value_without_arithmetic():
    field = Field(3)
    t = Poly.t(field)
    r = RatFun(t)
    assert r != t and t != r and r == RatFun(t * 2, Poly.const(field, 2))
    for op in ("__mul__", "__truediv__", "__pow__", "inverse"):
        assert not hasattr(r, op)
    assert not hasattr(quatlat.quat, "as_ratfun")


def test_matrix_oracle():
    rels = gamma3_matrix_relations()
    assert len(rels) == 4 and all(rels.values())
    assert all(gamma3_matrix_relations().values())


def test_matrix_oracle_negative_control():
    mats = gamma3_matrices()
    field = mats["a"].field
    rows = [list(r) for r in mats["y"].rows]
    rows[0][2] = rows[0][2] * field.element(-1)  # flip one entry's sign
    broken = dict(mats)
    broken["y"] = Mat3(field, rows)
    assert not all(gamma3_matrix_relations(broken).values())


def test_matrix_identity_commutes():
    mats = gamma3_matrices()
    field = mats["a"].field
    eye = Mat3(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for m in mats.values():
        assert (eye * m).proj_eq(m * eye)


def test_adjugate_is_projective_inverse():
    mats = gamma3_matrices()
    field = mats["a"].field
    eye = Mat3(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    for m in mats.values():
        assert (m * m.adjugate()).proj_eq(eye)


def test_element_refuses_rational_coordinates(alg3):
    t = Poly.t(alg3.field)
    with pytest.raises(TypeError):
        alg3.element(RatFun(t, t + Poly.const(alg3.field, 1)))


def test_rational_generator_is_its_integral_representative(alg5):
    field, c = alg5.field, alg5.c
    t = Poly.t(field)
    # f = t^2 + t + 1 is irreducible over F_5, so f/h is already reduced
    f, h = t * t + t + Poly.const(field, 1), t + Poly.const(field, 2)
    xi = norm_fiber(alg5.ext, -c)[0]
    u, v = xi.u, xi.v
    want = alg5.element(f * c, 0, h * -(c * v), h * -u)
    assert alg5.generator_quat(xi, RatFun(f, h)) == want
    assert want.projective() != alg5.generator_quat(xi, f).projective()
