"""The index-level product kernel and the gcd-free projective comparison
against slow references: the quaternion product by its defining formula
in Poly operators, the polynomial product by sympy and by schoolbook
FieldElem arithmetic, `same_class` by `ProjQuat` equality, and the class
test `_proportional` by all 2x2 minors in Poly operators."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st  # noqa: E402

from quatlat import quat  # noqa: E402
from quatlat.ff import Field, QuadExt, find_nonsquare  # noqa: E402
from quatlat.quat import Poly, QuatAlgebra, _dot  # noqa: E402

FIELDS = {q: Field(p, e) for q, p, e in ((3, 3, 1), (5, 5, 1), (9, 3, 2))}
ALGEBRAS = {q: QuatAlgebra(QuadExt(f, find_nonsquare(f))) for q, f in FIELDS.items()}
# the same examples on every run, and no example database written
EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@st.composite
def polys(draw, field, max_len=4):
    """Index lists of up to max_len coefficients, zero entries included,
    so the zero polynomial and trailing zeros both occur."""
    idx = draw(st.lists(st.integers(0, field.q - 1), max_size=max_len))
    return Poly(field, [field.from_index(k) for k in idx])


@st.composite
def quats(draw, alg):
    return alg.element(*(draw(polys(alg.field)) for _ in range(4)))


def reference_product(x, y):
    """x*y by the formula r0..r3, in Poly operators."""
    x0, x1, x2, x3 = x.coords
    y0, y1, y2, y3 = y.coords
    c, s = x.algebra.c, x.algebra.s
    r0 = x0 * y0 + (x1 * y1) * c + (x2 * y2) * s - (x3 * y3) * c * s
    r1 = x0 * y1 + x1 * y0 - (x2 * y3) * s + (x3 * y2) * s
    r2 = x0 * y2 + (x1 * y3) * c + x2 * y0 - (x3 * y1) * c
    r3 = x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0
    return (r0, r1, r2, r3)


def schoolbook(a, b):
    """The coefficients of a*b from FieldElem arithmetic alone."""
    field = a.field
    out = [field.zero] * (len(a.idx) + len(b.idx))
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] = out[i + j] + x * y
    while out and out[-1].is_zero():
        out.pop()
    return tuple(out)


@EXAMPLES
@given(st.data(), st.sampled_from(sorted(ALGEBRAS)))
def test_quat_product_matches_the_formula(data, q):
    alg = ALGEBRAS[q]
    x, y = data.draw(quats(alg)), data.draw(quats(alg))
    got = x * y
    assert got.coords == reference_product(x, y)
    assert all(pl.field is alg.field and (not pl.idx or pl.idx[-1]) for pl in got.coords)


@EXAMPLES
@given(st.data(), st.sampled_from(sorted(FIELDS)))
def test_poly_product_and_sum_match_references(data, q):
    field = FIELDS[q]
    a, b = data.draw(polys(field, 6)), data.draw(polys(field, 6))
    assert (a * b).coeffs == schoolbook(a, b)
    if field.e == 1:
        gt = pytest.importorskip("sympy.polys.galoistools")
        from sympy.polys.domains import ZZ

        def big_endian(poly):
            return list(reversed(poly.idx))

        p = field.p
        assert big_endian(a * b) == gt.gf_mul(big_endian(a), big_endian(b), p, ZZ)
        assert big_endian(a + b) == gt.gf_add(big_endian(a), big_endian(b), p, ZZ)
        assert big_endian(a - b) == gt.gf_sub(big_endian(a), big_endian(b), p, ZZ)


@EXAMPLES
@given(st.data(), st.sampled_from(sorted(ALGEBRAS)))
def test_same_class_matches_projective_equality(data, q):
    """y is x times a nonzero r, plus a tweak d that is often zero, so
    both answers occur."""
    alg = ALGEBRAS[q]
    x, d = data.draw(quats(alg)), data.draw(st.one_of(st.just(alg.element(0)), quats(alg)))
    r = data.draw(polys(alg.field, 3))
    assume(not x.is_zero() and r)
    assert x.same_class(x * r) and (x * r).same_class(x)
    y = x * r + d
    assume(not y.is_zero())
    assert x.same_class(y) == (x.projective() == y.projective()) == y.same_class(x)


@pytest.mark.parametrize("zeros", [(0,), (0, 1), (0, 1, 2), (1,), (0, 2), (2, 3), (1, 3), (0, 1, 3)])
@pytest.mark.parametrize("q", sorted(ALGEBRAS))
def test_same_class_at_zero_coordinates(q, zeros):
    """x and y = (t^2 + 1)*x are zero at `zeros`: leading coordinates, so
    that the first nonzero one is coordinate 1, 2 or 3, and later ones.
    `same_class` forms no minor at those coordinates or at the first
    nonzero one.  Changing any other coordinate of y by 1 breaks the
    class, whether it is a later nonzero coordinate (a minor) or a zero
    one (the zero pattern)."""
    alg = ALGEBRAS[q]
    field = alg.field
    t, one = Poly.t(field), Poly.const(field, 1)
    x = alg.element(*(Poly(field) if j in zeros else t + Poly.const(field, j + 1) for j in range(4)))
    y = x * (t * t + one)
    assert x.same_class(y) and y.same_class(x) and x.projective() == y.projective()
    first = min(set(range(4)) - set(zeros))
    for j in set(range(4)) - {first}:
        coords = list(y.coords)
        coords[j] = coords[j] + one
        z = alg.element(*coords)
        assert not x.same_class(z) and not z.same_class(x) and x.projective() != z.projective(), j


@EXAMPLES
@given(st.data(), st.sampled_from(sorted(ALGEBRAS)))
def test_zero_is_in_no_class(data, q):
    alg = ALGEBRAS[q]
    x, zero = data.draw(quats(alg)), alg.element(0)
    assert not zero.same_class(x) and not x.same_class(zero)


def test_same_class_needs_one_algebra():
    field = Field(5)
    one2, one3 = (QuatAlgebra(QuadExt(field, c)).one for c in (2, 3))
    assert one2.projective() != one3.projective()
    assert not one2.same_class(one3)


def minors_only(field, xs, ys):
    """The class test without the equality exit, in Poly operators: both
    vectors nonzero and every 2x2 minor x_j*y_i - y_j*x_i zero."""
    xs, ys = ([Poly(field, [field.elems[k] for k in v]) for v in vs] for vs in (xs, ys))
    if not any(xs) or not any(ys):
        return False
    return all(xj * yi == yj * xi for xi, yi in zip(xs, ys) for xj, yj in zip(xs, ys))


def _class_test_cases(field):
    t, two = Poly.t(field), Poly.const(field, 2)
    x = [t + 1, Poly(field), t * t, two]
    mat = [t, Poly(field), two, t * t + 1, Poly(field), Poly(field), two * t, t, Poly.const(field, 1)]
    return {
        "equal": (x, list(x), True),
        "equal matrices": (mat, list(mat), True),
        "equal zero": ([Poly(field)] * 4, [Poly(field)] * 4, False),
        "times t": (x, [pl * t for pl in x], True),
        "times 2": (x, [pl * two for pl in x], True),
        "matrix times t+2": (mat, [pl * (t + two) for pl in mat], True),
        "zero vs nonzero": ([Poly(field)] * 4, x, False),
        "zero patterns": (x, [t + 1, t, t * t, two], False),
        "zero patterns, proportional elsewhere": (x, [pl * t for pl in x[:3]] + [Poly(field)], False),
        "one minor": (x, [t + 1, Poly(field), t * t, two + 1], False),
    }


@pytest.mark.parametrize("case", sorted(_class_test_cases(FIELDS[5])))
@pytest.mark.parametrize("q", sorted(FIELDS))
def test_class_test_exit_matches_the_minors(monkeypatch, q, case):
    """Equal vectors are decided without a minor; every other pair goes
    through the minors, and each verdict is the minors-only one."""
    field = FIELDS[q]
    xs, ys, want = _class_test_cases(field)[case]
    xs, ys = [pl.idx for pl in xs], [pl.idx for pl in ys]
    assert minors_only(field, xs, ys) == want
    dots = []
    monkeypatch.setattr(quat, "_dot", lambda *args: dots.append(1) or _dot(*args))
    assert quat._proportional(field, xs, ys) == quat._proportional(field, ys, xs) == want
    # nonzero with one zero pattern: equal ones take the exit, the others the minors
    reaches_minors = xs != ys and any(xs) and [not x for x in xs] == [not y for y in ys]
    assert len(dots) == 2 * reaches_minors


@EXAMPLES
@given(st.data(), st.sampled_from(sorted(ALGEBRAS)))
def test_class_test_matches_the_minors_on_drawn_quats(data, q):
    """x against itself, against x*r and against x*r + d."""
    alg = ALGEBRAS[q]
    x, r, d = data.draw(quats(alg)), data.draw(polys(alg.field, 3)), data.draw(quats(alg))
    xs = [pl.idx for pl in x.coords]
    for y in (x, x * r, x * r + d):
        ys = [pl.idx for pl in y.coords]
        assert quat._proportional(alg.field, xs, ys) == minors_only(alg.field, xs, ys)
