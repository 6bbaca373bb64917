"""Exact arithmetic in F_q[t] and in the quaternion algebra with basis
1, Z, F, ZF over F_q(t), subject to

    Z^2 = c,    F^2 = t(t-1),    ZF = -FZ.

Polynomials are little-endian tuples of field-element indices with no
trailing zeros (the zero polynomial is the empty tuple); their
arithmetic is lookups in the field's add/mul/neg/inv tables, and
`coeffs` and `lead()` read the field's elements at those indices.  One
kernel, `_dot`, forms sums of scaled products of index tuples, as many
sums as it is given in one call: the sum or the product of two Polys is
one call with one sum.  The quaternion product is written once, as
`_quat_mul` on coordinate index tuples: one call for the four
coordinates, given the left factor's s*x2 and s*x3 (s = t(t-1)) from
`_factor`, one more call.  `Quat.__mul__` makes both calls and wraps
the results as Polys; the oracle factors each letter once and keeps
its products as index lists.  One division loop, `ff._reduce`, serves
`divmod` and `poly_gcd`, which runs Euclid on index lists.

Quaternion coordinates are polynomials: every generator c*f + xi*F*Z
has polynomial coordinates once a rational f is cleared of its
denominator, and the oracle compares products only mod K* = F_q(t)*.
It does so in `_proportional`, the class test that `Quat.same_class`
and `Mat3.proj_eq` share with it: equal index lists at once, others by
2x2 minors, with no gcd.  On a valid square table both products of
every entry are equal (see `lattice.oracle_check_table`).  A
`ProjQuat`, the class the power lemma compares, is a normalized value
with no group operations: the four coordinates are divided by their
gcd and scaled so the first nonzero one is monic, and equality is then
structural.  A `RatFun` is a generator parameter num/den in normal form
(den monic and coprime to num) with no arithmetic of its own:
generators read its parts, and the power lemma builds its
g = f^m / (t(t-1))^((m-1)/2) in one construction from f's parts, once
per (f, m) and algebra.

The module also carries the fixed 3x3 matrix quadruple over F_3(t)
whose projective relations match the rank-(2,2) lattice presentation at
q = 3 (the prefactor 1/(t+1) of the last two matrices is dropped, being
a scalar).

Poly, RatFun, Quat, ProjQuat and Mat3 are `ff.Value`s: immutable, and
equal when their classes and slots are.  A ProjQuat's coordinates are
normalized, so two are equal exactly when their quaternions are equal
mod K*.
"""

from __future__ import annotations

from .ff import Field, FieldElem, FieldError, QuadExt, QuadElem, Value, _power, _reduce, sigma_k


class Poly(Value):
    """A polynomial in t over F_q, stored as the little-endian tuple `idx`
    of its coefficients' field indices, with no trailing zeros; the
    arithmetic reads the field's tables."""

    __slots__ = ("field", "idx")

    def __new__(cls, field: Field, coeffs=()):
        return _poly(field, [field.element(c).idx for c in coeffs])

    def _key(self) -> tuple:
        return self.field, self.idx

    @property
    def coeffs(self) -> tuple:
        return tuple(map(self.field.elems.__getitem__, self.idx))

    @classmethod
    def t(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def const(cls, field: Field, c) -> "Poly":
        return cls(field, (c,))

    @property
    def degree(self) -> int:
        return len(self.idx) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.idx

    def __bool__(self):
        return bool(self.idx)

    def lead(self) -> FieldElem:
        if not self.idx:
            raise ZeroDivisionError("leading coefficient of zero")
        return self.field.elems[self.idx[-1]]

    def is_monic(self) -> bool:
        return bool(self.idx) and self.idx[-1] == 1

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self * self.lead().inverse()

    def __add__(self, other):
        ys = _as_poly(self.field, other).idx
        return _poly(self.field, _dot(self.field, [[(1, self.idx, (1,)), (1, ys, (1,))]])[0])

    def __sub__(self, other):
        return self + (-_as_poly(self.field, other))

    def __neg__(self):
        neg = self.field.neg
        return _poly(self.field, [neg[k] for k in self.idx])

    def __mul__(self, other):
        field = self.field
        mul, q = field.mul, field.q
        if isinstance(other, FieldElem):
            row = field.element(other).idx * q
            return _poly(field, [mul[row + k] for k in self.idx])
        return _poly(field, _dot(field, [[(1, self.idx, _as_poly(field, other).idx)]])[0])

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(Poly.const(self.field, 1), self, n)

    def __divmod__(self, other):
        field = self.field
        other = _as_poly(field, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem, quo = list(self.idx), [0] * max(len(self.idx) - other.degree, 1)
        _reduce(field, rem, other.idx, quo)
        return _poly(field, quo), _poly(field, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __repr__(self):
        if not self.idx:
            return "0"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c.is_zero():
                continue
            if i == 0:
                terms.append(repr(c))
            else:
                ts = "t" if i == 1 else f"t^{i}"
                terms.append(ts if c == self.field.one else f"{c!r}*{ts}")
        return " + ".join(terms)


def _poly(field: Field, idx: list, new=object.__new__, put_field=Poly.field.__set__,
          put_idx=Poly.idx.__set__) -> Poly:
    """A Poly from a list of indices of `field`, as the arithmetic makes
    them: trimmed, but not coerced again; the slots are written through
    their descriptors, bound once."""
    while idx and not idx[-1]:
        idx.pop()
    poly = new(Poly)
    put_field(poly, field)
    put_idx(poly, tuple(idx))
    return poly


def _dot(field: Field, sums) -> list:
    """For each sequence of (k, xs, ys) terms in `sums`, the sum of the
    k*xs*ys: k a field index, xs and ys little-endian index sequences.
    The one multiply-accumulate loop, of Poly, Quat and Mat3 products
    and of the class test; one call forms all the sums of one product,
    each an untrimmed index list grown to its longest nonzero term.
    Terms with a zero factor, such as those of a generator's zero Z
    coordinate, are passed over."""
    add, mul, q = field.add, field.mul, field.q
    outs = []
    for terms in sums:
        out = []
        for k, xs, ys in terms:
            if xs and ys:
                n = len(xs) + len(ys) - 1 - len(out)
                if n > 0:
                    out += [0] * n
                for i, x in enumerate(xs):
                    if x:
                        row = mul[k * q + x] * q
                        for j, y in enumerate(ys, i):
                            out[j] = add[out[j] * q + mul[row + y]]
        outs.append(out)
    return outs


def _proportional(field: Field, xs, ys) -> bool:
    """True iff xs and ys, sequences of trimmed index sequences over
    `field`, are nonzero and proportional over F_q(t)*.  Equal sequences
    are proportional by 1 when nonzero, and decided at once; the others
    need the same zero pattern, and every minor x_j*y_i - y_j*x_i zero,
    with i the first nonzero entry.  The minor at i and those where both
    entries are zero vanish, so one `_dot` call forms the others."""
    if xs == ys:
        return any(xs)
    if [not x for x in xs] != [not y for y in ys] or not any(xs):
        return False
    (xi, yi), *rest = [(x, y) for x, y in zip(xs, ys) if x]
    return not any(map(any, _dot(field, [((1, xj, yi), (field.neg[1], yj, xi)) for xj, yj in rest])))


def _as_poly(field: Field, value) -> Poly:
    if isinstance(value, Poly):
        if value.field != field:
            raise FieldError("polynomial over a different field")
        return value
    if isinstance(value, (int, FieldElem)):
        return Poly.const(field, value)
    raise TypeError(f"cannot coerce {value!r} to a polynomial")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    """The monic gcd of a and b, 0 when both are 0: Euclid on index
    lists by remainders alone, with one Poly built at the end."""
    field = a.field
    x, y = list(a.idx), list(_as_poly(field, b).idx)
    while y:
        x, y = y, _reduce(field, x, y)
    if x:
        row = field.inv[x[-1]] * field.q
        x = [field.mul[row + k] for k in x]
    return _poly(field, x)


def _primitive(polys) -> list:
    """polys divided by their gcd and scaled so that the first nonzero
    one is monic; not all may be zero.  This is the representative of a
    class mod K* (a ProjQuat's coordinates) and, for (den, num), of a
    fraction (a RatFun's)."""
    g = polys[0]
    for pl in polys[1:]:
        g = poly_gcd(pl, g)
        if g.degree == 0:
            break
    if g.degree > 0:
        polys = [pl // g for pl in polys]
    first = next(pl for pl in polys if pl)
    if not first.is_monic():
        inv = first.lead().inverse()
        polys = [pl * inv for pl in polys]
    return polys


class RatFun(Value):
    """A generator parameter num/den over F_q, held in normal form: den
    monic, gcd(num, den) = 1.  It has no arithmetic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.const(num.field, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        den, num = _primitive((den, num))
        self._set(num, den)

    def __repr__(self):
        if self.den.degree == 0:
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def _num_den(field: Field, f) -> tuple:
    """(num, den) of a generator parameter f: t for None, (f, 1) for a Poly
    or a constant, a RatFun's own parts; a zero f is refused."""
    if f is None:
        num, den = Poly.t(field), Poly.const(field, 1)
    elif isinstance(f, RatFun):
        num, den = f.num, f.den
    else:
        num, den = _as_poly(field, f), Poly.const(field, 1)
    if num.is_zero():
        raise ValueError("generator parameter f must be nonzero")
    return num, den


class QuatAlgebra:
    """The quaternion algebra over F_q(t) attached to a non-square c; one
    instance per extension F_q[Z], Z^2 = c."""

    _made: dict = {}

    def __new__(cls, ext: QuadExt):
        algebra = cls._made.get(ext)
        if algebra is None:
            algebra = super().__new__(cls)
            algebra.ext, algebra.field, algebra.c = ext, ext.field, ext.c
            algebra.s = Poly(ext.field, (0, -1, 1))  # t(t-1) = t^2 - t
            algebra.one = algebra.element(1)
            algebra._lemma_params = {}  # verify_power_lemma's g by (num, den, m)
            algebra = cls._made.setdefault(ext, algebra)
        return algebra

    def element(self, x0, x1=0, x2=0, x3=0) -> "Quat":
        f = self.field
        return Quat(self, tuple(_as_poly(f, x) for x in (x0, x1, x2, x3)))

    def generator_quat(self, xi: QuadElem, f=None) -> "Quat":
        """c*f(t) + xi*F*Z as an algebra element (xi = u + vZ).

        f is None (for t), a polynomial or constant, or a RatFun num/den;
        the result is the integral representative c*num + den*xi*F*Z,
        which is exactly c*f + xi*F*Z when f is a polynomial and equals it
        mod K* always."""
        if xi.is_zero():
            raise ValueError("generator index xi must be nonzero")
        num, den = _num_den(self.field, f)
        # xi*F*Z = -c*v*F - u*ZF in the 1, Z, F, ZF basis
        return self.element(num * self.c, 0, den * -(self.c * xi.v), den * -xi.u)

    def __hash__(self):
        return hash(self.ext)

    def __repr__(self):
        return f"QuatAlgebra(q={self.field.q}, c={self.c!r})"


def _factor(quat: "Quat") -> tuple:
    """quat as a left factor of `_quat_mul`: its coordinate index tuples x
    and [s*x2, s*x3], s = t(t-1), formed once for a factor met often."""
    x, s = [pl.idx for pl in quat.coords], quat.algebra.s.idx
    return x, _dot(quat.algebra.field, (((1, s, x[2]),), ((1, s, x[3]),)))


def _quat_mul(algebra: QuatAlgebra, x, sx, y) -> list:
    """x*y as four trimmed index lists, for x and y the coordinate index
    sequences of x0 + x1*Z + x2*F + x3*ZF and x, sx = `_factor` of x: the
    one product formula, of `Quat.__mul__` and the oracle."""
    f = algebra.field
    (x0, x1, x2, x3), (sx2, sx3), (y0, y1, y2, y3) = x, sx, y
    c, m1 = algebra.c.idx, f.neg[1]
    mc = f.neg[c]
    r = _dot(f, (
        ((1, x0, y0), (c, x1, y1), (1, sx2, y2), (mc, sx3, y3)),
        ((1, x0, y1), (1, x1, y0), (m1, sx2, y3), (1, sx3, y2)),
        ((1, x0, y2), (c, x1, y3), (1, x2, y0), (mc, x3, y1)),
        ((1, x0, y3), (1, x1, y2), (m1, x2, y1), (1, x3, y0)),
    ))
    for ri in r:
        while ri and not ri[-1]:
            ri.pop()
    return r


class Quat(Value):
    """A quaternion x0 + x1*Z + x2*F + x3*ZF with polynomial coords."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: QuatAlgebra, coords):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", tuple(coords))

    def __add__(self, other):
        return Quat(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Quat(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (Poly, FieldElem, int)):
            return Quat(self.algebra, tuple(a * other for a in self.coords))
        algebra = self.algebra
        r = _quat_mul(algebra, *_factor(self), [pl.idx for pl in other.coords])
        return Quat(algebra, tuple(_poly(algebra.field, ri) for ri in r))

    def conj(self) -> "Quat":
        x0, x1, x2, x3 = self.coords
        return Quat(self.algebra, (x0, -x1, -x2, -x3))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __pow__(self, n: int) -> "Quat":
        if n < 0:
            raise ValueError("negative power of a polynomial quaternion")
        return _power(self.algebra.one, self, n)

    def projective(self) -> "ProjQuat":
        return ProjQuat(self)

    def same_class(self, other: "Quat") -> bool:
        """True iff both are nonzero and equal mod K*; unlike comparing
        `projective()`, this takes no gcd."""
        return self.algebra is other.algebra and _proportional(
            self.algebra.field, *([pl.idx for pl in quat.coords] for quat in (self, other)))

    def __repr__(self):
        names = ("", "Z", "F", "ZF")
        terms = []
        for c, n in zip(self.coords, names):
            if c.is_zero():
                continue
            terms.append(f"({c!r}){n}" if n else f"({c!r})")
        return " + ".join(terms) if terms else "0"


class ProjQuat(Value):
    """The class of a quaternion mod K*: coordinate gcd divided out,
    first nonzero coordinate monic."""

    __slots__ = ("algebra", "coords")

    def __init__(self, quat: Quat):
        if quat.is_zero():
            raise ValueError("zero quaternion has no projective class")
        self._set(quat.algebra, tuple(_primitive(quat.coords)))

    def __repr__(self):
        return f"[{Quat(self.algebra, self.coords)!r}]"


def verify_power_lemma(algebra: QuatAlgebra, xi: QuadElem, f, k: int) -> bool:
    """Check a_xi(f)^(p^k) against the closed form a_xi'(g) with
    xi' the norm-twisted scaling of xi and g = f^(p^k) / (t(t-1))^((p^k-1)/2).

    g does not depend on xi, and callers loop xi at a fixed (f, k): it is
    built once per (num, den, p^k) into the algebra's `_lemma_params`.
    It is a pure function of that key, so two callers that build it at
    once store equal values.  Coefficient degrees grow linearly with
    p^k; keep p^k <= 81 or so."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = algebra.field.p**k
    num, den = _num_den(algebra.field, f)
    lhs = (algebra.generator_quat(xi, f) ** m).projective()
    xi_prime = sigma_k(algebra.ext, xi, k)
    key = num.idx, den.idx, m
    g = algebra._lemma_params.get(key)
    if g is None:
        g = algebra._lemma_params[key] = RatFun(num**m, den**m * algebra.s ** ((m - 1) // 2))
    return lhs == algebra.generator_quat(xi_prime, g).projective()


class Mat3(Value):
    """3x3 matrix over F_q[t]; projective identities via the adjugate."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows):
        self._set(field, tuple(tuple(_as_poly(field, x) for x in row) for row in rows))
        assert len(self.rows) == 3 and all(len(r) == 3 for r in self.rows)

    @classmethod
    def from_int_polys(cls, field: Field, rows) -> "Mat3":
        """Entries given as little-endian integer coefficient lists in t."""
        return cls(field, [[Poly(field, e) for e in row] for row in rows])

    def _same_field(self, other: "Mat3") -> None:
        # other's indices mean nothing in self.field's tables
        if other.field is not self.field:
            raise FieldError("matrix over a different field")

    def __mul__(self, other: "Mat3") -> "Mat3":
        self._same_field(other)
        f, cols = self.field, tuple(zip(*other.rows))
        return Mat3(f, [
            [_poly(f, _dot(f, [[(1, x.idx, y.idx) for x, y in zip(row, col)]])[0]) for col in cols]
            for row in self.rows
        ])

    def adjugate(self) -> "Mat3":
        r = self.rows

        def cof(i, j):
            a, b = [k for k in range(3) if k != i], [k for k in range(3) if k != j]
            minor = r[a[0]][b[0]] * r[a[1]][b[1]] - r[a[0]][b[1]] * r[a[1]][b[0]]
            return minor if (i + j) % 2 == 0 else -minor

        return Mat3(self.field, [[cof(j, i) for j in range(3)] for i in range(3)])

    def proj_eq(self, other: "Mat3") -> bool:
        """True iff the matrices are nonzero and proportional over K*."""
        self._same_field(other)
        return _proportional(self.field, *([pl.idx for row in m.rows for pl in row] for m in (self, other)))

    def __repr__(self):
        return "Mat3(" + ", ".join(repr(list(r)) for r in self.rows) + ")"


# The four generator matrices over F_3(t) (a, b, x, y); scalar prefactors
# dropped.  Entries are little-endian integer coefficient lists in t.
# They equal the conjugation action of the parametric q=3 generators on
# the imaginary part of the algebra in the basis (Z, -F, ZF); flipping
# any single entry breaks at least one of the four relations.
_GAMMA3_MATRIX_DATA = {
    "a": [[[-1, -1], [0, -1, 1], [0]], [[1], [-1, -1], [0]], [[0], [0], [1]]],
    "b": [[[-1, -1], [0], [0, -1, 1]], [[0], [1], [0]], [[1], [0], [-1, -1]]],
    "x": [
        [[-1], [0, 1, -1], [0, -1, 1]],
        [[-1], [0, -1], [1, -1]],
        [[1], [1, -1], [0, -1]],
    ],
    "y": [
        [[-1], [0, 1, -1], [0, 1, -1]],
        [[-1], [0, -1], [-1, 1]],
        [[-1], [-1, 1], [0, -1]],
    ],
}


def gamma3_matrices() -> dict:
    field = Field(3)
    return {k: Mat3.from_int_polys(field, v) for k, v in _GAMMA3_MATRIX_DATA.items()}


def gamma3_matrix_relations(mats: dict | None = None) -> dict:
    """Per-relation projective identity checks for the q=3 presentation:
    ax = x^-1 b,  ay = y^-1 b^-1,  ay^-1 = x a^-1,  bx = y b^-1."""
    if mats is None:
        mats = gamma3_matrices()
    a, b, x, y = mats["a"], mats["b"], mats["x"], mats["y"]
    ai, bi, xi, yi = (m.adjugate() for m in (a, b, x, y))
    return {
        "a*x = x^-1*b": (a * x).proj_eq(xi * b),
        "a*y = y^-1*b^-1": (a * y).proj_eq(yi * bi),
        "a*y^-1 = x*a^-1": (a * yi).proj_eq(x * ai),
        "b*x = y*b^-1": (b * x).proj_eq(y * bi),
    }
