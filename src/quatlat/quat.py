"""Exact arithmetic in F_q[t] and in the quaternion algebra with basis
1, Z, F, ZF over F_q(t), subject to

    Z^2 = c,    F^2 = t(t-1),    ZF = -FZ.

Polynomials are little-endian coefficient tuples of field elements with
no trailing zeros (the zero polynomial is the empty tuple).  Quaternion
coordinates are polynomials: every generator c*f + xi*F*Z has polynomial
coordinates once a rational f is cleared of its denominator, and the
oracle compares products only mod K* = F_q(t)*.  A projective class is
content-normalized: the four coordinates are divided by their gcd and
scaled so the first nonzero one is monic; equality is then structural.
Rational functions (monic denominator coprime to the numerator) only
parametrize generators, as in the power lemma's g = f^m / (t(t-1))^k.

The module also carries the fixed 3x3 matrix quadruple over F_3(t)
whose projective relations match the rank-(2,2) lattice presentation at
q = 3 (the prefactor 1/(t+1) of the last two matrices is dropped, being
a scalar).
"""

from __future__ import annotations

from .ff import Field, FieldElem, QuadExt, QuadElem, _power, sigma_k


class Poly:
    """A polynomial in t over F_q; canonical (no trailing zeros)."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs=()):
        cs = tuple(field.element(c) for c in coeffs)
        while cs and cs[-1].is_zero():
            cs = cs[:-1]
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    @classmethod
    def t(cls, field: Field) -> "Poly":
        return cls(field, (0, 1))

    @classmethod
    def const(cls, field: Field, c) -> "Poly":
        return cls(field, (c,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def lead(self) -> FieldElem:
        if not self.coeffs:
            raise ZeroDivisionError("leading coefficient of zero")
        return self.coeffs[-1]

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == self.field.one

    def monic(self) -> "Poly":
        if self.is_zero() or self.is_monic():
            return self
        inv = self.lead().inverse()
        return Poly(self.field, tuple(c * inv for c in self.coeffs))

    def __add__(self, other):
        other = _as_poly(self.field, other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.field, out)

    def __sub__(self, other):
        return self + (-_as_poly(self.field, other))

    def __neg__(self):
        return Poly(self.field, tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            return Poly(self.field, tuple(c * other for c in self.coeffs))
        other = _as_poly(self.field, other)
        if self.is_zero() or other.is_zero():
            return Poly(self.field)
        out = [self.field.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.field, out)

    def __rmul__(self, other):
        return self * other

    def __pow__(self, n: int) -> "Poly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        return _power(Poly.const(self.field, 1), self, n)

    def __divmod__(self, other):
        other = _as_poly(self.field, other)
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dn = other.degree
        lead_inv = other.lead().inverse()
        quo = [self.field.zero] * max(len(rem) - dn, 1)
        for k in range(len(rem) - 1, dn - 1, -1):
            c = rem[k]
            if not c.is_zero():
                f = c * lead_inv
                quo[k - dn] = f
                for i, dc in enumerate(other.coeffs):
                    rem[k - dn + i] = rem[k - dn + i] - f * dc
        return Poly(self.field, quo), Poly(self.field, rem[:dn])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs and self.field == other.field
        if isinstance(other, (int, FieldElem)):
            return self == Poly.const(self.field, other)
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __reduce__(self):
        return (Poly, (self.field, self.coeffs))

    def to_json(self) -> list:
        return [c.to_json() for c in self.coeffs]

    def __repr__(self):
        if not self.coeffs:
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


def _as_poly(field: Field, value) -> Poly:
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, FieldElem)):
        return Poly.const(field, value)
    raise TypeError(f"cannot coerce {value!r} to a polynomial")


def poly_gcd(a: Poly, b: Poly) -> Poly:
    while not b.is_zero():
        a, b = b, a % b
    return a.monic() if not a.is_zero() else a


class RatFun:
    """A rational function num/den over F_q; den monic, gcd(num, den) = 1."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        field = num.field
        if den is None:
            den = Poly.const(field, 1)
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            den = Poly.const(field, 1)
        else:
            g = poly_gcd(num, den)
            if g.degree > 0:
                num, den = num // g, den // g
            lead = den.lead()
            if lead != field.one:
                inv = lead.inverse()
                num, den = num * inv, den * inv
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, *_):
        raise AttributeError("RatFun is immutable")

    @property
    def field(self) -> Field:
        return self.num.field

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            return RatFun(self.num * other, self.den)
        other = as_ratfun(self.field, other)
        return RatFun(self.num * other.num, self.den * other.den)

    def inverse(self) -> "RatFun":
        if self.is_zero():
            raise ZeroDivisionError("inverse of the zero rational function")
        return RatFun(self.den, self.num)

    def __truediv__(self, other):
        return self * as_ratfun(self.field, other).inverse()

    def __pow__(self, n: int) -> "RatFun":
        if n < 0:
            return self.inverse() ** (-n)
        return RatFun(self.num**n, self.den**n)

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, RatFun):
            return self.num == other.num and self.den == other.den
        if isinstance(other, (Poly, int, FieldElem)):
            return self == as_ratfun(self.field, other)
        return NotImplemented

    def __hash__(self):
        return hash((self.num, self.den))

    def __reduce__(self):
        return (RatFun, (self.num, self.den))

    def __repr__(self):
        if self.den == Poly.const(self.field, 1):
            return repr(self.num)
        return f"({self.num!r})/({self.den!r})"


def as_ratfun(field: Field, value) -> RatFun:
    if isinstance(value, RatFun):
        return value
    if isinstance(value, Poly):
        return RatFun(value)
    if isinstance(value, (int, FieldElem)):
        return RatFun(Poly.const(field, value))
    raise TypeError(f"cannot coerce {value!r} to a rational function")


class QuatAlgebra:
    """The quaternion algebra over F_q(t) attached to a non-square c."""

    def __init__(self, ext: QuadExt):
        self.ext = ext
        self.field = ext.field
        self.c = ext.c
        self.s = Poly(self.field, (0, -1, 1))  # t(t-1) = t^2 - t
        self.one = self.element(1)

    def element(self, x0, x1=0, x2=0, x3=0) -> "Quat":
        f = self.field
        return Quat(self, tuple(_as_poly(f, x) for x in (x0, x1, x2, x3)))

    def generator_quat(self, xi: QuadElem, f=None) -> "Quat":
        """c*f(t) + xi*F*Z as an algebra element (xi = u + vZ).

        f is a polynomial or a rational function num/den; the result is
        the integral representative c*num + den*xi*F*Z, which is exactly
        c*f + xi*F*Z when f is a polynomial and equals it mod K* always."""
        if xi.is_zero():
            raise ValueError("generator index xi must be nonzero")
        if f is None:
            f = Poly.t(self.field)
        f = as_ratfun(self.field, f)
        if f.is_zero():
            raise ValueError("generator parameter f must be nonzero")
        # xi*F*Z = -c*v*F - u*ZF in the 1, Z, F, ZF basis
        return self.element(f.num * self.c, 0, f.den * -(self.c * xi.v), f.den * -xi.u)

    def generator(self, xi: QuadElem, f=None) -> "ProjQuat":
        return self.generator_quat(xi, f).projective()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, QuatAlgebra):
            return NotImplemented
        return self.ext == other.ext

    def __hash__(self):
        return hash(self.ext)

    def __reduce__(self):
        return (QuatAlgebra, (self.ext,))

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

    def __sub__(self, other):
        return Quat(self.algebra, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return Quat(self.algebra, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (Poly, FieldElem, int)):
            return Quat(self.algebra, tuple(a * other for a in self.coords))
        x0, x1, x2, x3 = self.coords
        y0, y1, y2, y3 = other.coords
        c = self.algebra.c
        s = self.algebra.s
        r0 = x0 * y0 + (x1 * y1) * c + (x2 * y2) * s - (x3 * y3) * c * s
        r1 = x0 * y1 + x1 * y0 - (x2 * y3) * s + (x3 * y2) * s
        r2 = x0 * y2 + (x1 * y3) * c + x2 * y0 - (x3 * y1) * c
        r3 = x0 * y3 + x1 * y2 - x2 * y1 + x3 * y0
        return Quat(self.algebra, (r0, r1, r2, r3))

    def __rmul__(self, other):
        if isinstance(other, (Poly, FieldElem, int)):
            return self * other
        return NotImplemented

    def conj(self) -> "Quat":
        x0, x1, x2, x3 = self.coords
        return Quat(self.algebra, (x0, -x1, -x2, -x3))

    def reduced_norm(self) -> Poly:
        prod = self * self.conj()
        assert all(c.is_zero() for c in prod.coords[1:]), "x * conj(x) not scalar"
        return prod.coords[0]

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coords)

    def __pow__(self, n: int) -> "Quat":
        if n < 0:
            raise ValueError("negative power of a polynomial quaternion")
        return _power(self.algebra.one, self, n)

    def is_scalar(self) -> bool:
        return all(c.is_zero() for c in self.coords[1:])

    def projective(self) -> "ProjQuat":
        return ProjQuat(self)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Quat):
            return NotImplemented
        return self.coords == other.coords and self.algebra == other.algebra

    def __hash__(self):
        return hash(self.coords)

    def __reduce__(self):
        return (Quat, (self.algebra, self.coords))

    def to_json(self) -> list:
        return [c.to_json() for c in self.coords]

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
        algebra = quat.algebra
        field = algebra.field
        polys = quat.coords
        g = Poly(field)
        for pl in polys:
            g = poly_gcd(g, pl)
        if g.degree > 0:
            polys = [pl // g for pl in polys]
        lead = next(pl for pl in polys if not pl.is_zero()).lead()
        if lead != field.one:
            inv = lead.inverse()
            polys = [pl * inv for pl in polys]
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "coords", tuple(polys))

    def __setattr__(self, *_):
        raise AttributeError("ProjQuat is immutable")

    def lift(self) -> Quat:
        return Quat(self.algebra, self.coords)

    def __mul__(self, other: "ProjQuat") -> "ProjQuat":
        return (self.lift() * other.lift()).projective()

    def inverse(self) -> "ProjQuat":
        # conjugation inverts mod K* since x * conj(x) is a scalar
        return self.lift().conj().projective()

    def is_identity(self) -> bool:
        return all(pl.is_zero() for pl in self.coords[1:])

    def __pow__(self, n: int) -> "ProjQuat":
        base = self.lift() if n >= 0 else self.inverse().lift()
        return (base ** abs(n)).projective()

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, ProjQuat):
            return NotImplemented
        return self.coords == other.coords and self.algebra == other.algebra

    def __hash__(self):
        return hash(self.coords)

    def __reduce__(self):
        return (ProjQuat, (self.lift(),))

    def __repr__(self):
        return f"[{self.lift()!r}]"


def verify_power_lemma(algebra: QuatAlgebra, xi: QuadElem, f, k: int) -> bool:
    """Check a_xi(f)^(p^k) against the closed form a_xi'(g) with
    xi' the norm-twisted scaling of xi and g = f^(p^k) / (t(t-1))^((p^k-1)/2).

    Coefficient degrees grow linearly with p^k; keep p^k <= 81 or so."""
    if k < 1:
        raise ValueError("k must be >= 1")
    field = algebra.field
    m = field.p**k
    f = as_ratfun(field, f if f is not None else Poly.t(field))
    lhs = (algebra.generator_quat(xi, f) ** m).projective()
    xi_prime = sigma_k(algebra.ext, xi, k)
    g = f**m / RatFun(algebra.s) ** ((m - 1) // 2)
    rhs = algebra.generator(xi_prime, g)
    return lhs == rhs


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
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                acc = self.rows[i][0] * other.rows[0][j]
                for k in (1, 2):
                    acc = acc + self.rows[i][k] * other.rows[k][j]
                row.append(acc)
            rows.append(row)
        return Mat3(self.field, rows)

    def adjugate(self) -> "Mat3":
        r = self.rows

        def cof(i, j):
            a, b = [k for k in range(3) if k != i], [k for k in range(3) if k != j]
            minor = r[a[0]][b[0]] * r[a[1]][b[1]] - r[a[0]][b[1]] * r[a[1]][b[0]]
            return minor if (i + j) % 2 == 0 else -minor

        return Mat3(self.field, [[cof(j, i) for j in range(3)] for i in range(3)])

    def proj_eq(self, other: "Mat3") -> bool:
        """True iff the matrices are proportional over K*."""
        ref = None
        for i in range(3):
            for j in range(3):
                if self.rows[i][j] or other.rows[i][j]:
                    if not (self.rows[i][j] and other.rows[i][j]):
                        return False
                    if ref is None:
                        ref = (i, j)
        if ref is None:
            return True
        ri, rj = ref
        a0, b0 = self.rows[ri][rj], other.rows[ri][rj]
        for i in range(3):
            for j in range(3):
                if self.rows[i][j] * b0 != other.rows[i][j] * a0:
                    return False
        return True

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


def gamma3_matrices(field: Field | None = None) -> dict:
    if field is None:
        field = Field(3)
    if field.q != 3:
        raise ValueError("the matrix quadruple lives over F_3(t)")
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


def gamma3_matrix_oracle(mats: dict | None = None) -> bool:
    return all(gamma3_matrix_relations(mats).values())
