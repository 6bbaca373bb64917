import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

import quatlat
from quatlat.ff import (
    Field,
    FieldElem,
    FieldError,
    QuadExt,
    find_nonsquare,
    is_square,
    norm_fiber,
    sigma_k,
)
from quatlat.lattice import LatticeParams, build_generators
from quatlat.quat import Poly


def brute_irreducible_quadratics(p):
    # oracle: a monic quadratic over F_p is irreducible iff it has no root
    out = []
    for b in range(p):
        for a in range(p):
            if all((x * x + b * x + a) % p for x in range(p)):
                out.append((a, b, 1))
    return out


def test_prime_fields():
    for p in (3, 5, 7):
        field = Field(p)
        assert field.q == p
        assert [x.idx for x in field.elements()] == list(range(p))
        assert field.element(p - 1) + field.one == field.zero


def test_make_field_rejects_bad_parameters():
    with pytest.raises(FieldError):
        Field(4)
    with pytest.raises(FieldError):
        Field(2)
    with pytest.raises(FieldError):
        Field(9)
    with pytest.raises(FieldError):
        Field(3, 0)
    for p, e in ((3, 7), (1031, 1)):  # q above 1024
        with pytest.raises(FieldError, match=rf"^q = {p}\^{e} is above 1024"):
            Field(p, e)


def test_one_field_per_parameters():
    assert Field(3, 2) is Field(3, 2) and Field(5) is Field(5, 1)
    field = Field(3, 2)
    assert QuadExt(field, find_nonsquare(field)) is QuadExt(field, find_nonsquare(field).coeffs)
    assert QuadExt(Field(3), 2) is QuadExt(Field(3), -1)


def test_refused_parameters_are_not_kept():
    for _ in range(2):
        with pytest.raises(FieldError):
            Field(9)
        with pytest.raises(FieldError):
            QuadExt(Field(3), 1)


@pytest.mark.parametrize("fresh", [True, False], ids=["before-field-3", "after-field-3"])
def test_non_int_parameters_are_refused(monkeypatch, fresh):
    """3.0 and True hash like 3 and 1, so they must be refused before the
    shared instance is looked up: whether or not Field(3) exists yet, and
    without leaving a shared F_3 whose e is True."""
    if fresh:
        monkeypatch.setattr(Field, "_made", {})
    else:
        Field(3)
    for p, e in ((3.0, 1), (3, True), (True, 1), (3, 1.0), ("3", 1)):
        with pytest.raises(FieldError, match="must be ints"):
            Field(p, e)
    assert type(Field(3).e) is int


def test_f9_modulus_is_first_irreducible():
    field = Field(3, 2)
    # enumeration order: ascending constant-then-linear digits
    first = None
    for m in range(9):
        cand = (m % 3, m // 3, 1)
        if cand in brute_irreducible_quadratics(3):
            first = cand
            break
    assert field.modulus == first == (1, 0, 1)


def test_frobenius_fixes_field():
    for p, e in ((3, 2), (5, 2), (3, 3)):
        field = Field(p, e)
        assert all(x ** field.q == x for x in field.elements())


def test_find_nonsquare_examples():
    assert find_nonsquare(Field(3)).idx == 2
    assert find_nonsquare(Field(5)).idx == 2
    assert find_nonsquare(Field(7)).idx == 3


def test_nonsquare_count():
    for p, e in ((3, 1), (5, 1), (7, 1), (3, 2)):
        field = Field(p, e)
        squares = sum(is_square(x) for x in field.elements() if not x.is_zero())
        assert squares == (field.q - 1) // 2


@pytest.fixture
def ext3():
    field = Field(3)
    return QuadExt(field, field.element(-1))


def test_conjugate(ext3):
    assert ext3.one.conj() == ext3.one
    assert ext3.gen.conj() == -ext3.gen
    assert ext3.element(1, 1).conj() == ext3.element(1, -1)
    # involution; fixes exactly the base field
    fixed = [x for x in ext3.elements() if x.conj() == x]
    assert len(fixed) == 3
    assert all(x.conj().conj() == x for x in ext3.elements())


def test_conjugate_is_frobenius():
    for p, e in ((3, 1), (3, 2)):
        field = Field(p, e)
        ext = QuadExt(field, find_nonsquare(field))
        assert all(x ** field.q == x.conj() for x in ext.elements())


def test_norm_examples(ext3):
    assert ext3.one.norm() == ext3.field.one
    assert ext3.gen.norm() == ext3.field.one  # N(Z) = -Z^2 = -c = 1
    assert ext3.element(1, 1).norm() == ext3.field.element(2)


def test_norm_multiplicative():
    rng = random.Random(7)
    field = Field(5, 1)
    ext = QuadExt(field, find_nonsquare(field))
    elems = list(ext.elements())
    for _ in range(200):
        x, y = rng.choice(elems), rng.choice(elems)
        assert (x * y).norm() == x.norm() * y.norm()
    assert all((x.norm() == field.zero) == x.is_zero() for x in elems)


def test_norm_agrees_with_power(ext3):
    q = ext3.field.q
    assert all(
        x ** (q + 1) == ext3.element(x.norm()) for x in ext3.elements() if not x.is_zero()
    )


def test_norm_fiber_examples(ext3):
    f = ext3.field
    fiber1 = norm_fiber(ext3, f.one)
    assert set(fiber1) == {ext3.element(1), ext3.element(2), ext3.gen, -ext3.gen}
    assert norm_fiber(ext3, f.one) is fiber1 and norm_fiber(ext3, 1) is fiber1
    fiber2 = norm_fiber(ext3, f.element(2))
    assert set(fiber2) == {
        ext3.element(u, v) for u in (1, 2) for v in (1, 2)
    }


def test_norm_fiber_q5_size():
    field = Field(5)
    ext = QuadExt(field, field.element(2))
    fiber = norm_fiber(ext, field.element(3))
    assert len(fiber) == 6
    # independent brute scan
    brute = {
        (u, v)
        for u in range(5)
        for v in range(5)
        if (u, v) != (0, 0) and (u * u - 2 * v * v) % 5 == 3
    }
    assert {(x.u.idx, x.v.idx) for x in fiber} == brute


def test_fibers_partition():
    for p, e in ((3, 1), (5, 1), (3, 2)):
        field = Field(p, e)
        ext = QuadExt(field, find_nonsquare(field))
        seen = set()
        for k in range(1, field.q):
            fiber = norm_fiber(ext, field.from_index(k))
            assert len(fiber) == field.q + 1
            assert all(-x in fiber and x.conj() in fiber for x in fiber)
            assert not (set(fiber) & seen)
            seen.update(fiber)
        assert len(seen) == field.q**2 - 1


def test_norm_fiber_zero_target(ext3):
    with pytest.raises(FieldError):
        norm_fiber(ext3, 0)


def test_generator_fibers_disjoint():
    # -c != c*tau/(1-tau) for every tau outside {0, 1}
    for q in (3, 5, 7):
        field = Field(q)
        c = find_nonsquare(field)
        ext = QuadExt(field, c)
        for k in range(2, q):
            tau = field.from_index(k)
            target = c * tau / (field.one - tau)
            assert target != -c
            assert not (set(norm_fiber(ext, -c)) & set(norm_fiber(ext, target)))


def test_square_relation_of_gen(ext3):
    assert ext3.gen * ext3.gen == ext3.element(ext3.c)


def test_quadext_rejects_square_c():
    field = Field(3)
    with pytest.raises(FieldError):
        QuadExt(field, field.one)


def test_sigma_k_fixes_a_fiber(ext3):
    # norm -c fiber is fixed; norm c*tau/(1-tau) fiber is scaled
    for k in (1, 2):
        for xi in norm_fiber(ext3, ext3.field.one):
            assert sigma_k(ext3, xi, k) == xi


@pytest.mark.parametrize("k", [1, 2])
def test_sigma_k_refuses_an_element_of_another_extension(k):
    """An F_7 index read in F_5's tables, or under another non-square c,
    is refused; the extension's own elements are still scaled."""
    params = LatticeParams.make(7, 1, 3, 2)
    fiber_a, fiber_b = build_generators(params)
    fibers = fiber_a + fiber_b
    for other in (QuadExt(Field(5), 2), QuadExt(params.field, 5)):
        assert other is not params.ext
        for xi in fibers:
            with pytest.raises(FieldError, match="different extension"):
                sigma_k(other, xi, k)
    assert all(sigma_k(params.ext, xi, k).ext is params.ext for xi in fibers)


def _index(field, coeffs):
    return sum(c * field.p**i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("p,e", [(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (3, 4), (11, 2), (5, 3), (3, 5)])
def test_tables_match_vector_arithmetic(p, e):
    """Every entry of add, mul, neg and inv, against digit-wise addition
    and the product of residues (e = 1) or of coefficient vectors as
    polynomials over F_p reduced mod the modulus (e > 1)."""
    from quatlat.quat import Poly

    field = Field(p, e)
    q = field.q
    vec = [tuple((k // p**i) % p for i in range(e)) for k in range(q)]
    assert field.vec == tuple(vec)
    prime = Field(p)
    polys = [Poly(prime, v) for v in vec]
    modulus = Poly(prime, field.modulus)

    def product(a, b):
        if e == 1:
            return (a * b) % p
        return _index(field, (polys[a] * polys[b] % modulus).idx)

    for a in range(q):
        assert field.neg[a] == _index(field, [(-c) % p for c in vec[a]])
        for b in range(q):
            assert field.add[a * q + b] == _index(field, [(x + y) % p for x, y in zip(vec[a], vec[b])])
            assert field.mul[a * q + b] == product(a, b)
        if a:
            assert product(a, field.inv[a]) == 1
    assert field.inv[0] is None
    x, y = field.from_index(q - 1), field.from_index(q // 2)
    assert (x + y).idx == field.add[x.idx * q + y.idx] and (x * y).idx == field.mul[x.idx * q + y.idx]
    assert (x - y) + y == x and x * y / y == x and x.inverse().idx == field.inv[x.idx]
    with pytest.raises(ZeroDivisionError):
        field.zero.inverse()


def test_element_keeps_its_vector_view():
    field = Field(3, 2)
    x = field.element((2, 1))
    assert x.idx == 5 and x.coeffs == (2, 1) and field.element(x.coeffs) == x
    assert field.element([2, 1]) is field.element([-1, 4]) is field.element(x) is x
    assert repr(x) == "2+x" and repr(field.element(7)) == "1"
    assert field.element(-1) == field.from_index(2) and field.element(-1).idx == 2


def test_field_elements_equal_only_field_elements():
    """F_5's 3 equals F_5's 8 and hashes like it, and equals no int:
    equal to both 3 and 8, it would make equality intransitive."""
    three = Field(5).element(3)
    assert three == Field(5).element(8) and Field(5).element(8) in {three}
    assert three != 3 and three != 8 and 8 not in {three}


@pytest.mark.parametrize("p,e", [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4)])
def test_extension_arithmetic_matches_sympy(p, e):
    """GF(p^e) products reduced with sympy's gf_rem, and inverses from
    its extended Euclid, against the tables."""
    gt = pytest.importorskip("sympy.polys.galoistools")
    from sympy.polys.domains import ZZ

    field = Field(p, e)
    modulus = list(reversed(field.modulus))

    def big_endian(k):
        return gt.gf_strip(list(reversed(field.vec[k])))

    rng = random.Random(p * 100 + e)
    for _ in range(300):
        a, b = rng.randrange(field.q), rng.randrange(field.q)
        want = gt.gf_rem(gt.gf_mul(big_endian(a), big_endian(b), p, ZZ), modulus, p, ZZ)
        assert big_endian((field.from_index(a) * field.from_index(b)).idx) == want
        if a:
            s, _, h = gt.gf_gcdex(big_endian(a), modulus, p, ZZ)
            assert h == [1] and big_endian(field.from_index(a).inverse().idx) == s


@pytest.mark.parametrize("p,e", [(3, 1), (3, 2), (5, 2), (3, 3), (11, 2), (1021, 1)])
def test_every_element_is_the_fields_own_object(p, e):
    """Each way of reaching an element returns the entry of `elems` with
    its index: arithmetic, coercion, enumeration, extension elements and
    their norms, sigma_k and polynomial coefficients."""
    field = Field(p, e)
    q, elems = field.q, field.elems
    assert len(elems) == q and [x.idx for x in elems] == list(range(q))
    assert all(x.field is field for x in elems) and field.zero is elems[0] and field.one is elems[1]

    def own(*xs):
        return all(x is elems[x.idx] for x in xs)

    assert list(field.elements()) == list(elems) and all(map(own, field.elements()))
    assert all(FieldElem(field, k) is field.from_index(k) is elems[k] for k in range(q))
    assert field.element(-1) is elems[field.neg[1]] and field.element(p + 2) is elems[2 % p]
    assert field.element((1,) * e) is elems[sum(p**i for i in range(e))]
    rng = random.Random(q)
    ext = QuadExt(field, find_nonsquare(field))
    for _ in range(200):
        x, y = elems[rng.randrange(q)], elems[rng.randrange(1, q)]
        assert own(x + y, x - y, x * y, -x, y.inverse(), x / y, x ** 5, y ** -3, x + 1, x * 2)
        assert (x + y).idx == field.add[x.idx * q + y.idx] and (x * y).idx == field.mul[x.idx * q + y.idx]
        xi = ext.pair(x.idx, y.idx)
        assert own(xi.u, xi.v, xi.norm(), (xi * xi).u, (xi * xi).v, ext.element(x, y).u)
        assert own(*(part for k in (1, 2) for part in (sigma_k(ext, xi, k).u, sigma_k(ext, xi, k).v)))
        poly = Poly(field, (x, y, 1)) * Poly(field, (y, x))
        assert own(*poly.coeffs, poly.lead())


def test_elements_are_equal_exactly_when_index_and_field_agree():
    fields = [Field(3), Field(3, 2), Field(3, 3), Field(5)]
    everything = [x for field in fields for x in field.elements()]
    for x in everything[::3]:
        for y in everything:
            assert (x == y) == (x.idx == y.idx and x.field is y.field) == (x is y)
            assert (x != y) == (not x == y)
    assert len(set(everything)) == len(everything) and {hash(x) for x in Field(3, 2).elements()} == set(range(9))


def test_element_sets_iterate_alike_in_every_process():
    """An element hashes as its index, so a set of them iterates in the
    same order whatever address its field has."""
    src = str(pathlib.Path(quatlat.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = "from quatlat.ff import Field; print([x.idx for x in set(Field(3, 2).elements())])"
    outs = []
    for _ in range(2):
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "field,value",
    [
        (Field(5), True),  # was 1
        (Field(3, 2), (1.7, 2.9)),  # was 1+2x, through int(c)
        (Field(3, 2), ("2", "1")),  # was 2+x
        (Field(5), 2.5),  # was a bare TypeError
        (Field(5), [2.0]),  # [2.0] == [2]
        (Field(5), [True]),
        (Field(5), "2"),
        (Field(5), None),
        (Field(3, 2), range(2)),
        (Field(3, 2), (1, 2, 3)),  # longer than e
    ],
    ids=["true", "float-vector", "str-vector", "float", "float-in-list", "true-in-list", "str", "none", "range", "long"],
)
def test_element_refuses_what_it_would_reinterpret(field, value):
    with pytest.raises(FieldError, match=re.escape(repr(value))):
        field.element(value)


def test_fields_extensions_and_algebras_hash_alike_in_every_process():
    """Fields, extensions and algebras hash by their parameters, so sets of
    extension elements, polynomials and quaternions iterate in the same
    order in two processes whose objects lie at other addresses."""
    src = str(pathlib.Path(quatlat.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    code = (
        "import sys\n"
        "padding = [object() for _ in range(int(sys.argv[1]))]\n"
        "from quatlat.ff import Field, QuadExt, norm_fiber\n"
        "from quatlat.quat import Poly, QuatAlgebra\n"
        "f5 = Field(5)\n"
        "ext = QuadExt(f5, 2)\n"
        "print(list(set(norm_fiber(ext, 1))))\n"
        "print(list(set(Poly(f5, (k, 1)) for k in range(5))))\n"
        "print([x.coords for x in set(QuatAlgebra(ext).element(k, 1) for k in range(5))])\n"
    )
    outs = []
    for padding in ("0", "4099"):
        done = subprocess.run([sys.executable, "-c", code, padding], capture_output=True, text=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize("k", [-1, 5, 7, 2.0, True])
def test_element_index_must_be_an_int_in_range(k):
    """-1 would read the table's last entry, 5 = q or 7 a wrong or no
    entry, and 2.0 or True would pass for 2 or 1."""
    field = Field(5)
    with pytest.raises(FieldError, match="out of range for q=5"):
        FieldElem(field, k)
    with pytest.raises(FieldError, match="out of range for q=5"):
        field.from_index(k)
