import random

import pytest

from quatlat.ff import QuadExt, make_field, norm_fiber
from quatlat.quat import (
    Mat3,
    Poly,
    QuatAlgebra,
    RatFun,
    gamma3_matrices,
    gamma3_matrix_oracle,
    gamma3_matrix_relations,
    poly_gcd,
    verify_power_lemma,
)


@pytest.fixture
def alg3():
    field = make_field(3)
    return QuatAlgebra(QuadExt(field, field.element(-1)))


@pytest.fixture
def alg5():
    field = make_field(5)
    return QuatAlgebra(QuadExt(field, field.element(2)))


def _power_cases():
    f7, f9, f3, f5 = make_field(7), make_field(3, 2), make_field(3), make_field(5)
    ext5, ext3 = QuadExt(f5, f5.element(2)), QuadExt(f3, f3.element(-1))
    alg = QuatAlgebra(ext3)
    gen = alg.generator_quat(ext3.element(1))
    return {
        "FieldElem e=1": (f7.element(3), f7.one),
        "FieldElem e=2": (f9.element((1, 1)), f9.one),
        "QuadElem": (ext5.element(1, 3), ext5.one),
        "Quat q=3": (gen, alg.one),
        "ProjQuat q=3": (gen.projective(), alg.one.projective()),
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
    field = make_field(3)
    t = Poly.t(field)
    assert t**0 == Poly.const(field, 1)
    assert t**5 == t * t * t * t * t
    with pytest.raises(ValueError):
        t**-1


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
    field = make_field(5)
    for _ in range(100):
        a = rand_poly(rng, field, rng.randint(0, 6))
        b = Poly(field)
        while b.is_zero():
            b = rand_poly(rng, field, rng.randint(0, 4))
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree


def test_poly_gcd_divides():
    rng = random.Random(12)
    field = make_field(3)
    for _ in range(100):
        a, b = rand_poly(rng, field, 4), rand_poly(rng, field, 3)
        g = poly_gcd(a, b)
        if g.is_zero():
            assert a.is_zero() and b.is_zero()
        else:
            assert (a % g).is_zero() and (b % g).is_zero()


def test_ratfun_canonical():
    field = make_field(3)
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
        assert prod.is_scalar()


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
    field = make_field(p)
    ext = QuadExt(field, field.element(c))
    alg = QuatAlgebra(ext)
    tau_e = field.element(tau)
    fibers = norm_fiber(ext, -ext.c) + norm_fiber(ext, ext.c * tau_e / (field.one - tau_e))
    for xi in fibers:
        g = alg.generator_quat(xi)
        ginv = alg.generator_quat(-xi)
        assert (g * ginv).is_scalar()
        assert (g.projective() * ginv.projective()).is_identity()


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
    ext = alg3.ext
    assert alg3.generator(ext.element(1)) != alg3.generator(-ext.element(1))


def test_power_lemma_exhaustive():
    for p, c, tau in ((3, -1, -1), (5, 2, 3)):
        field = make_field(p)
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
    while f.is_zero():
        f = rand_ratfun(rng, alg5.field, 2)
    assert verify_power_lemma(alg5, fibers[0], f, 1)


def test_matrix_oracle():
    rels = gamma3_matrix_relations()
    assert len(rels) == 4 and all(rels.values())
    assert gamma3_matrix_oracle()


def test_matrix_oracle_negative_control():
    mats = gamma3_matrices()
    field = mats["a"].field
    rows = [list(r) for r in mats["y"].rows]
    rows[0][2] = rows[0][2] * field.element(-1)  # flip one entry's sign
    broken = dict(mats)
    broken["y"] = Mat3(field, rows)
    assert not gamma3_matrix_oracle(broken)


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


def test_quat_json():
    field = make_field(3)
    alg = QuatAlgebra(QuadExt(field, field.element(-1)))
    x = alg.generator_quat(alg.ext.element(1, 1))
    data = x.to_json()
    assert [len(c) for c in data] == [2, 0, 1, 1]


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
    assert alg5.generator(xi, RatFun(f, h)) != alg5.generator(xi, f)
