"""Exact arithmetic in F_q (q = p^e, p an odd prime) and in the quadratic
extension F_q[Z] with Z^2 = c for a chosen non-square c.

A field element is its index 0..q-1: the integer whose base-p digits
are the element's little-endian coefficient vector in the power basis of
a fixed monic irreducible modulus, so 0 and 1 are the field's zero and
one and an int n embeds as n mod p.  The modulus is the
lexicographically smallest monic irreducible polynomial of degree e
(highest coefficient compared first, i.e. ascending order of the integer
whose base-p digits are the lower coefficients), so a field is pinned
down by (p, e) alone and serializes reproducibly.  For e = 1 the modulus
is x and elements are plain residues.

Each field builds, once, flat q x q tables `add` and `mul` (entry
a*q + b) and q-entry tables `neg` and `inv` from the coefficient-vector
arithmetic, and every operation afterwards is a lookup; the vectors
survive only to build the tables and to print and serialize elements.
FieldElem wraps (field, index) for the public API.

Extension elements u + vZ are pairs of F_q elements.  The norm down to
F_q is N(u + vZ) = u^2 - c*v^2, which agrees with x * conj(x) and with
x^(q+1).  Every value is immutable and hashable.
"""

from __future__ import annotations

import functools
from typing import Iterator, Sequence


class FieldError(ValueError):
    """Invalid field parameters or an undefined field operation."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _power(one, base, n: int):
    """base ** n for n >= 0 by square-and-multiply, starting from `one`;
    serves every multiplicative type in the package."""
    result = one
    while n:
        if n & 1:
            result = result * base
        base = base * base
        n >>= 1
    return result


def _digits(k: int, p: int, n: int) -> tuple:
    """The n little-endian base-p digits of k."""
    return tuple((k // p**i) % p for i in range(n))


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    # trial division by all monic polynomials of degree 1 .. deg/2
    from .quat import Poly

    field = Field(p)
    num = Poly(field, poly)
    for d in range(1, num.degree // 2 + 1):
        for m in range(p**d):
            if not num % Poly(field, _digits(m, p, d) + (1,)):
                return False
    return True


def _smallest_irreducible(p: int, e: int):
    if e == 1:
        return (0, 1)
    for m in range(p**e):
        poly = _digits(m, p, e) + (1,)
        if _is_irreducible(poly, p):
            return poly
    raise FieldError(f"no irreducible polynomial of degree {e} over F_{p}")


class Field:
    """The field F_q with q = p^e, for an odd prime p.

    `vec[k]` is the coefficient vector of index k; `add[a*q + b]` and
    `mul[a*q + b]` are the indices of a + b and a*b, `neg[a]` of -a and
    `inv[a]` of 1/a (None at 0)."""

    def __init__(self, p: int, e: int = 1, modulus: Sequence[int] | None = None):
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if p == 2:
            raise FieldError("characteristic 2 is not supported")
        if e < 1:
            raise FieldError(f"extension degree {e} must be >= 1")
        self.p = p
        self.e = e
        self.q = p**e
        if modulus is None:
            modulus = _smallest_irreducible(p, e)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != e + 1 or modulus[-1] != 1:
                raise FieldError("modulus must be monic of degree e")
            if e > 1 and not _is_irreducible(modulus, p):
                raise FieldError("modulus is not irreducible")
        self.modulus = tuple(modulus)
        self.vec, self.add, self.mul, self.neg, self.inv = self._tables()
        self.zero = FieldElem(self, 0)
        self.one = FieldElem(self, 1)

    def _tables(self):
        p, e, q = self.p, self.e, self.q
        vec = tuple(_digits(k, p, e) for k in range(q))
        index = {v: k for k, v in enumerate(vec)}
        add = tuple(index[tuple((x + y) % p for x, y in zip(a, b))] for a in vec for b in vec)
        mul = tuple(index[self._mul_coeffs(a, b)] for a in vec for b in vec)
        neg = tuple(index[tuple((-c) % p for c in a)] for a in vec)
        inv = [None] * q
        for k, v in enumerate(mul):
            if v == 1:
                inv[k // q] = k % q
        return vec, add, mul, neg, tuple(inv)

    def element(self, value) -> "FieldElem":
        """Coerce an int (constant embedding) or a coefficient vector."""
        if isinstance(value, FieldElem):
            if value.field != self:
                raise FieldError("element from a different field")
            return value
        if isinstance(value, int):
            return FieldElem(self, value % self.p)
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.e:
            raise FieldError(f"coefficient vector longer than degree {self.e}")
        return FieldElem(self, sum(c * self.p**i for i, c in enumerate(coeffs)))

    def from_index(self, k: int) -> "FieldElem":
        """The k-th element in the fixed enumeration order (base-p digits)."""
        if not 0 <= k < self.q:
            raise FieldError(f"index {k} out of range for q={self.q}")
        return FieldElem(self, k)

    def elements(self) -> Iterator["FieldElem"]:
        for k in range(self.q):
            yield FieldElem(self, k)

    def _mul_coeffs(self, a, b):
        """The coefficient vector of a*b: the product of the vectors as
        polynomials in x, reduced mod the modulus from the top degree."""
        p, e, m = self.p, self.e, self.modulus
        conv = [0] * (2 * e - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                conv[i + j] += x * y
        for k in range(2 * e - 2, e - 1, -1):  # x^k = -x^(k-e) * (m(x) - x^e)
            for i in range(e):
                conv[k - e + i] -= conv[k] * m[i]
        return tuple(c % p for c in conv[:e])

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data: dict) -> "Field":
        return cls(data["p"], data["e"], data.get("modulus"))

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, Field):
            return NotImplemented
        return (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return f"Field({self.p}, {self.e})"


class FieldElem:
    """An element of F_q as (field, index); immutable.  Arithmetic reads
    the field's tables."""

    __slots__ = ("field", "idx")

    def __init__(self, field: Field, idx: int):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "idx", idx)

    def __setattr__(self, *_):
        raise AttributeError("FieldElem is immutable")

    @property
    def coeffs(self) -> tuple:
        return self.field.vec[self.idx]

    def is_zero(self) -> bool:
        return not self.idx

    def __bool__(self):
        return bool(self.idx)

    def __add__(self, other):
        f = self.field
        return FieldElem(f, f.add[self.idx * f.q + f.element(other).idx])

    def __radd__(self, other):
        return self + other

    def __sub__(self, other):
        f = self.field
        return FieldElem(f, f.add[self.idx * f.q + f.neg[f.element(other).idx]])

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return FieldElem(self.field, self.field.neg[self.idx])

    def __mul__(self, other):
        f = self.field
        return FieldElem(f, f.mul[self.idx * f.q + f.element(other).idx])

    def __rmul__(self, other):
        return self * other

    def inverse(self) -> "FieldElem":
        if not self.idx:
            raise ZeroDivisionError("inverse of zero field element")
        return FieldElem(self.field, self.field.inv[self.idx])

    def __truediv__(self, other):
        return self * self.field.element(other).inverse()

    def __rtruediv__(self, other):
        return self.field.element(other) * self.inverse()

    def __pow__(self, n: int) -> "FieldElem":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self.field.one, self, n)

    def __eq__(self, other):
        if self is other:
            return True
        if isinstance(other, int):
            return self == self.field.element(other)
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.idx == other.idx and self.field == other.field

    def __hash__(self):
        return hash(self.idx)

    def to_json(self) -> list:
        return list(self.coeffs)

    def __repr__(self):
        if self.field.e == 1:
            return str(self.idx)
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                s = "x" if i == 1 else f"x^{i}"
                terms.append(s if c == 1 else f"{c}{s}")
        return "+".join(terms) if terms else "0"


def is_square(x: FieldElem) -> bool:
    if x.is_zero():
        return True
    return x ** ((x.field.q - 1) // 2) == x.field.one


def find_nonsquare(field: Field) -> FieldElem:
    """First non-square of F_q* in the fixed enumeration order."""
    for k in range(1, field.q):
        x = field.from_index(k)
        if not is_square(x):
            return x
    raise FieldError("no non-square found (is q even?)")


class QuadExt:
    """The quadratic extension F_q[Z] of a field, with Z^2 = c non-square."""

    def __init__(self, field: Field, c):
        c = field.element(c)
        if c.is_zero() or is_square(c):
            raise FieldError(f"c = {c!r} is not a non-square in F_{field.q}")
        self.field = field
        self.c = c
        self.zero = QuadElem(self, field.zero, field.zero)
        self.one = QuadElem(self, field.one, field.zero)
        self.gen = QuadElem(self, field.zero, field.one)  # the element Z

    def element(self, u, v=0) -> "QuadElem":
        if isinstance(u, QuadElem):
            if u.ext != self:
                raise FieldError("element from a different extension")
            return u
        return QuadElem(self, self.field.element(u), self.field.element(v))

    def from_index(self, k: int) -> "QuadElem":
        q = self.field.q
        return QuadElem(self, self.field.from_index(k % q), self.field.from_index(k // q))

    def elements(self) -> Iterator["QuadElem"]:
        for k in range(self.field.q**2):
            yield self.from_index(k)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, QuadExt):
            return NotImplemented
        return self.field == other.field and self.c == other.c

    def __hash__(self):
        return hash((self.field, self.c))

    def __repr__(self):
        return f"QuadExt({self.field!r}, c={self.c!r})"


class QuadElem:
    """An element u + vZ of F_q[Z]; immutable."""

    __slots__ = ("ext", "u", "v")

    def __init__(self, ext: QuadExt, u: FieldElem, v: FieldElem):
        object.__setattr__(self, "ext", ext)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def __setattr__(self, *_):
        raise AttributeError("QuadElem is immutable")

    def is_zero(self) -> bool:
        return self.u.is_zero() and self.v.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = self.ext.element(other)
        return QuadElem(self.ext, self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        other = self.ext.element(other)
        return QuadElem(self.ext, self.u - other.u, self.v - other.v)

    def __neg__(self):
        return QuadElem(self.ext, -self.u, -self.v)

    def __mul__(self, other):
        if isinstance(other, FieldElem):
            return QuadElem(self.ext, self.u * other, self.v * other)
        other = self.ext.element(other)
        c = self.ext.c
        return QuadElem(
            self.ext,
            self.u * other.u + c * self.v * other.v,
            self.u * other.v + self.v * other.u,
        )

    def __rmul__(self, other):
        if isinstance(other, (FieldElem, int)):
            return self * self.ext.field.element(other) if isinstance(other, int) else self * other
        return NotImplemented

    def conj(self) -> "QuadElem":
        return QuadElem(self.ext, self.u, -self.v)

    def norm(self) -> FieldElem:
        return self.u * self.u - self.ext.c * self.v * self.v

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero extension element")
        return self.conj() * n.inverse()

    def __truediv__(self, other):
        return self * self.ext.element(other).inverse()

    def __pow__(self, n: int) -> "QuadElem":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self.ext.one, self, n)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, QuadElem):
            return NotImplemented
        return self.u == other.u and self.v == other.v and self.ext == other.ext

    def __hash__(self):
        return hash((self.u, self.v))

    def to_json(self) -> list:
        return [self.u.to_json(), self.v.to_json()]

    def __repr__(self):
        if self.v.is_zero():
            return repr(self.u)
        if self.u.is_zero():
            return f"{self.v!r}Z" if self.v != self.ext.field.one else "Z"
        vs = "Z" if self.v == self.ext.field.one else f"{self.v!r}Z"
        return f"{self.u!r}+{vs}"


def norm_fiber(ext: QuadExt, s) -> tuple:
    """All xi in F_q[Z]* with N(xi) = s, in enumeration order; size q+1."""
    s = ext.field.element(s)
    if s.is_zero():
        raise FieldError("norm fiber over zero is empty of units")
    return _norm_fiber_cached(ext, s)


@functools.lru_cache(maxsize=256)
def _norm_fiber_cached(ext: QuadExt, s: FieldElem) -> tuple:
    out = []
    for x in ext.elements():
        if not x.is_zero() and x.norm() == s:
            out.append(x)
    return tuple(out)


def sigma_k(ext: QuadExt, xi: QuadElem, k: int) -> QuadElem:
    """The norm-twisted scaling (-c)^((1-p^k)/2) * N(xi)^((p^k-1)/2) * xi.

    The negative exponent of (-c) is taken via the field inverse.
    """
    if k < 1:
        raise FieldError("k must be >= 1")
    m = ext.field.p**k
    exp = (m - 1) // 2
    scale = ((-ext.c) ** exp).inverse() * xi.norm() ** exp
    return xi * scale
