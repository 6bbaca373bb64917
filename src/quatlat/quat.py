"""Exact arithmetic in F_q[t] and in the quaternion algebra with basis
1, Z, F, ZF over F_q(t), subject to

    Z^2 = c,    F^2 = t(t-1),    ZF = -FZ.

Polynomials are little-endian tuples of field-element indices with no
trailing zeros (the zero polynomial is the empty tuple); their
arithmetic is lookups in the field's add/mul/neg/inv tables, and
`coeffs` and `lead()` wrap indices as FieldElems for callers.  One
kernel, `_dot`, sums scaled products of index tuples: the sum or the
product of two Polys, and each coordinate of a Quat product, is one
call to it, and only the results are wrapped as Polys.

Quaternion coordinates are polynomials: every generator c*f + xi*F*Z
has polynomial coordinates once a rational f is cleared of its
denominator, and the oracle compares products only mod K* = F_q(t)*.
It does so by 2x2 minors, with no gcd: `Quat.same_class` asks for the
same zero pattern and x_j*y_i = y_j*x_i for every j, with i the first
nonzero coordinate.  A `ProjQuat`, the class the power lemma compares,
is a normalized value with no group operations: the four coordinates
are divided by their gcd and scaled so the first nonzero one is monic,
and equality is then structural.  A `RatFun` is a generator parameter
num/den in normal form (den monic and coprime to num) with no
arithmetic of its own: generators read its parts, and the power lemma
builds its g = f^m / (t(t-1))^((m-1)/2) in one construction from f's
parts.

The module also carries the fixed 3x3 matrix quadruple over F_3(t)
whose projective relations match the rank-(2,2) lattice presentation at
q = 3 (the prefactor 1/(t+1) of the last two matrices is dropped, being
a scalar).
"""

from __future__ import annotations

from .ff import Field, FieldElem, FieldError, QuadExt, QuadElem, _power, sigma_k


class Poly:
    """A polynomial in t over F_q, stored as the little-endian tuple `idx`
    of its coefficients' field indices, with no trailing zeros; the
    arithmetic reads the field's tables."""

    __slots__ = ("field", "idx")

    def __init__(self, field: Field, coeffs=()):
        self._fill(field, [field.element(c).idx for c in coeffs])

    @classmethod
    def _of(cls, field: Field, idx: list) -> "Poly":
        """A Poly from a list of indices of `field`, as the arithmetic
        below makes them: trimmed, but not coerced again."""
        poly = object.__new__(cls)
        poly._fill(field, idx)
        return poly

    def _fill(self, field, idx):
        while idx and not idx[-1]:
            idx.pop()
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "idx", tuple(idx))

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @property
    def coeffs(self) -> tuple:
        return tuple(FieldElem(self.field, k) for k in self.idx)

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
        return FieldElem(self.field, self.idx[-1])

    def is_monic(self) -> bool:
        return bool(self.idx) and self.idx[-1] == 1

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        return self * self.lead().inverse()

    def __add__(self, other):
        ys = _as_poly(self.field, other).idx
        return Poly._of(self.field, _dot(self.field, ((1, self.idx, (1,)), (1, ys, (1,)))))

    def __sub__(self, other):
        return self + (-_as_poly(self.field, other))

    def __neg__(self):
        neg = self.field.neg
        return Poly._of(self.field, [neg[k] for k in self.idx])

    def __mul__(self, other):
        field = self.field
        mul, q = field.mul, field.q
        if isinstance(other, FieldElem):
            row = field.element(other).idx * q
            return Poly._of(field, [mul[row + k] for k in self.idx])
        return Poly._of(field, _dot(field, ((1, self.idx, _as_poly(field, other).idx),)))

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(Poly.const(self.field, 1), self, n)

    def __divmod__(self, other):
        field = self.field
        other = _as_poly(field, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        add, mul, neg, q = field.add, field.mul, field.neg, field.q
        den, rem = other.idx, list(self.idx)
        dn = len(den) - 1
        lead_inv = field.inv[den[-1]]
        quo = [0] * max(len(rem) - dn, 1)
        for k in range(len(rem) - 1, dn - 1, -1):
            c = rem[k]
            if c:
                f = quo[k - dn] = mul[c * q + lead_inv]
                row = neg[f] * q
                for i, d in enumerate(den, k - dn):
                    rem[i] = add[rem[i] * q + mul[row + d]]
        return Poly._of(field, quo), Poly._of(field, rem[:dn])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, Poly):
            return self.idx == other.idx and self.field == other.field
        return NotImplemented

    def __hash__(self):
        return hash(self.idx)

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


def _dot(field: Field, terms) -> list:
    """sum k*xs*ys over the (k, xs, ys) of `terms`: k a field index, xs
    and ys little-endian index sequences.  The product kernel of Poly and
    Quat; the result is untrimmed."""
    add, mul, q = field.add, field.mul, field.q
    out = [0] * max(len(xs) + len(ys) - 1 for _, xs, ys in terms)
    for k, xs, ys in terms:
        for i, x in enumerate(xs):
            if x:
                row = mul[k * q + x] * q
                for j, y in enumerate(ys, i):
                    out[j] = add[out[j] * q + mul[row + y]]
    return out


def _proportional(xs, ys) -> bool:
    """True iff the Poly sequences xs and ys are nonzero and proportional
    over F_q(t)*: the same zero pattern, and every minor x_j*y_i - y_j*x_i
    is zero, with i the first nonzero entry."""
    if [not x for x in xs] != [not y for y in ys] or not any(xs):
        return False
    f = xs[0].field
    xi, yi = next((x.idx, y.idx) for x, y in zip(xs, ys) if x)
    return not any(any(_dot(f, ((1, x.idx, yi), (f.neg[1], y.idx, xi)))) for x, y in zip(xs, ys))


def _as_poly(field: Field, value) -> Poly:
    if isinstance(value, Poly):
        if value.field != field:
            raise FieldError("polynomial over a different field")
        return value
    if isinstance(value, (int, FieldElem)):
        return Poly.const(field, value)
    raise TypeError(f"cannot coerce {value!r} to a polynomial")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


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


class RatFun:
    """A generator parameter num/den over F_q, held in normal form: den
    monic, gcd(num, den) = 1.  It has no arithmetic."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.const(num.field, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        den, num = _primitive((den, num))
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RatFun is immutable")

    def __eq__(self, other):
        if not isinstance(other, RatFun):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((self.num, self.den))

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

    def __repr__(self):
        return f"QuatAlgebra(q={self.field.q}, c={self.c!r})"


class Quat:
    """A quaternion x0 + x1*Z + x2*F + x3*ZF with polynomial coords."""

    __slots__ = ("algebra", "coords")

    def __init__(self, algebra: QuatAlgebra, coords):
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", tuple(coords))

    def __setattr__(self, *_):
        raise AttributeError("Quat is immutable")

    def __add__(self, other):
        return Quat(self.algebra, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Quat(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (Poly, FieldElem, int)):
            return Quat(self.algebra, tuple(a * other for a in self.coords))
        algebra = self.algebra
        f = algebra.field
        x0, x1, x2, x3 = (pl.idx for pl in self.coords)
        y0, y1, y2, y3 = (pl.idx for pl in other.coords)
        c, m1 = algebra.c.idx, f.neg[1]
        mc = f.neg[c]
        s = algebra.s.idx
        sx2, sx3 = _dot(f, ((1, s, x2),)), _dot(f, ((1, s, x3),))
        r0 = _dot(f, ((1, x0, y0), (c, x1, y1), (1, sx2, y2), (mc, sx3, y3)))
        r1 = _dot(f, ((1, x0, y1), (1, x1, y0), (m1, sx2, y3), (1, sx3, y2)))
        r2 = _dot(f, ((1, x0, y2), (c, x1, y3), (1, x2, y0), (mc, x3, y1)))
        r3 = _dot(f, ((1, x0, y3), (1, x1, y2), (m1, x2, y1), (1, x3, y0)))
        return Quat(algebra, tuple(Poly._of(f, r) for r in (r0, r1, r2, r3)))

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
        return self.algebra is other.algebra and _proportional(self.coords, other.coords)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Quat):
            return NotImplemented
        return self.coords == other.coords and self.algebra is other.algebra

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        names = ("", "Z", "F", "ZF")
        terms = []
        for c, n in zip(self.coords, names):
            if c.is_zero():
                continue
            terms.append(f"({c!r}){n}" if n else f"({c!r})")
        return " + ".join(terms) if terms else "0"


class ProjQuat:
    """The class of a quaternion mod K*: coordinate gcd divided out,
    first nonzero coordinate monic."""

    __slots__ = ("algebra", "coords")

    def __init__(self, quat: Quat):
        if quat.is_zero():
            raise ValueError("zero quaternion has no projective class")
        object.__setattr__(self, "algebra", quat.algebra)
        object.__setattr__(self, "coords", tuple(_primitive(quat.coords)))

    def __setattr__(self, *_):
        raise AttributeError("ProjQuat is immutable")

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ProjQuat):
            return NotImplemented
        return self.coords == other.coords and self.algebra is other.algebra

    def __hash__(self):
        return hash(self.coords)

    def __repr__(self):
        return f"[{Quat(self.algebra, self.coords)!r}]"


def verify_power_lemma(algebra: QuatAlgebra, xi: QuadElem, f, k: int) -> bool:
    """Check a_xi(f)^(p^k) against the closed form a_xi'(g) with
    xi' the norm-twisted scaling of xi and g = f^(p^k) / (t(t-1))^((p^k-1)/2).

    Coefficient degrees grow linearly with p^k; keep p^k <= 81 or so."""
    if k < 1:
        raise ValueError("k must be >= 1")
    m = algebra.field.p**k
    num, den = _num_den(algebra.field, f)
    lhs = (algebra.generator_quat(xi, f) ** m).projective()
    xi_prime = sigma_k(algebra.ext, xi, k)
    g = RatFun(num**m, den**m * algebra.s ** ((m - 1) // 2))
    return lhs == algebra.generator_quat(xi_prime, g).projective()


class Mat3:
    """3x3 matrix over F_q[t]; projective identities via the adjugate."""

    __slots__ = ("field", "rows")

    def __init__(self, field: Field, rows):
        object.__setattr__(self, "field", field)
        object.__setattr__(
            self, "rows", tuple(tuple(_as_poly(field, x) for x in row) for row in rows)
        )
        assert len(self.rows) == 3 and all(len(r) == 3 for r in self.rows)

    def __setattr__(self, *_):
        raise AttributeError("Mat3 is immutable")

    @classmethod
    def from_int_polys(cls, field: Field, rows) -> "Mat3":
        """Entries given as little-endian integer coefficient lists in t."""
        return cls(field, [[Poly(field, e) for e in row] for row in rows])

    def __mul__(self, other: "Mat3") -> "Mat3":
        f, cols = self.field, tuple(zip(*other.rows))
        return Mat3(f, [
            [Poly._of(f, _dot(f, [(1, x.idx, y.idx) for x, y in zip(row, col)])) for col in cols]
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
        return _proportional(sum(self.rows, ()), sum(other.rows, ()))

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
