"""Exact arithmetic in F_q (q = p^e, p an odd prime) and in the quadratic
extension F_q[Z] with Z^2 = c for a chosen non-square c.

A field element is its index 0..q-1: the integer whose base-p digits
are the element's little-endian coefficient vector in the power basis of
the modulus, so 0 and 1 are the field's zero and one and an int n
embeds as n mod p.  The modulus is not a choice: it is the
lexicographically smallest monic irreducible polynomial of degree e
(ascending order of the integer whose base-p digits are the lower
coefficients), and x for e = 1.  So there is one field per (p, e):
`Field(p, e)` returns the same instance on every call, as
`QuadExt(field, c)` does per (field, c).

Each field builds flat q x q tables `add` and `mul` (entry a*q + b) and
q-entry tables `neg` and `inv`; every operation is a lookup.  `mul` is
filled by Horner on indices: for a = a0 + p*a' with a0 constant, row a
is a0*b + x*(a'*b), read from rows a0 and a' through `add` and the map
v -> x*v.  FieldElem wraps (field, index) for the public API.

Extension elements u + vZ are pairs of F_q elements; their product and
norm N(u + vZ) = u^2 - c*v^2 (= x * conj(x) = x^(q+1)) run on index
pairs (see _quad_ops).  Every value is immutable and hashable.
"""

from __future__ import annotations

from typing import Iterator


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


def _smallest_irreducible(p: int, e: int) -> tuple:
    """The first monic polynomial of degree e, in the order of the
    integer its lower coefficients spell in base p, with no monic factor
    of degree 1 .. e/2 (trial division); x for e = 1."""
    if e == 1:
        return (0, 1)
    from .quat import Poly

    field = Field(p)
    for m in range(p**e):
        poly = _digits(m, p, e) + (1,)
        num = Poly(field, poly)
        if all(num % Poly(field, _digits(k, p, d) + (1,)) for d in range(1, e // 2 + 1) for k in range(p**d)):
            return poly


class Field:
    """The field F_q with q = p^e, for an odd prime p; one instance per
    (p, e).

    `vec[k]` is the coefficient vector of index k; `add[a*q + b]` and
    `mul[a*q + b]` are the indices of a + b and a*b, `neg[a]` of -a and
    `inv[a]` of 1/a (None at 0)."""

    _made: dict = {}

    def __new__(cls, p: int, e: int = 1):
        # before the lookup: 3.0 and True hash like 3 and 1
        if type(p) is not int or type(e) is not int:
            raise FieldError(f"field parameters p={p!r}, e={e!r} must be ints")
        field = cls._made.get((p, e))
        if field is not None:
            return field
        if not _is_prime(p):
            raise FieldError(f"characteristic {p} is not prime")
        if p == 2:
            raise FieldError("characteristic 2 is not supported")
        if e < 1:
            raise FieldError(f"extension degree {e} must be >= 1")
        field = super().__new__(cls)
        field.p, field.e, field.q = p, e, p**e
        field.modulus = _smallest_irreducible(p, e)
        field.vec, field.add, field.mul, field.neg, field.inv = field._tables()
        field.zero = FieldElem(field, 0)
        field.one = FieldElem(field, 1)
        return cls._made.setdefault((p, e), field)

    def _tables(self):
        p, q, m = self.p, self.q, self.modulus
        vec = tuple(_digits(k, p, self.e) for k in range(q))
        index = {v: k for k, v in enumerate(vec)}
        add = tuple(index[tuple((x + y) % p for x, y in zip(a, b))] for a in vec for b in vec)
        neg = tuple(index[tuple((-c) % p for c in a)] for a in vec)
        # x*v: shift up one degree, then replace x^e by -(m(x) - x^e)
        times_x = tuple(index[tuple((s - v[-1] * c) % p for s, c in zip((0,) + v[:-1], m))] for v in vec)
        rows = [(0,) * q]
        for a in range(1, q):
            if a < p:  # a constant: row a-1 plus b
                row = tuple(add[r * q + b] for b, r in enumerate(rows[a - 1]))
            else:  # a0*b + x*(a'*b)
                row = tuple(add[lo * q + times_x[hi]] for lo, hi in zip(rows[a % p], rows[a // p]))
            rows.append(row)
        mul = tuple(k for row in rows for k in row)
        inv = [None] * q
        for k, v in enumerate(mul):
            if v == 1:
                inv[k // q] = k % q
        return vec, add, mul, neg, tuple(inv)

    def element(self, value) -> "FieldElem":
        """Coerce an int (constant embedding) or a coefficient vector."""
        if isinstance(value, FieldElem):
            if value.field is not self:
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

    def to_json(self) -> dict:
        return {"p": self.p, "e": self.e, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data: dict) -> "Field":
        """The field of (p, e); a "modulus", if given, must be its modulus."""
        field = cls(data["p"], data["e"])
        if "modulus" in data and list(data["modulus"]) != list(field.modulus):
            raise FieldError(f"modulus {data['modulus']} is not {list(field.modulus)}, the modulus of {field!r}")
        return field

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

    def __sub__(self, other):
        f = self.field
        return FieldElem(f, f.add[self.idx * f.q + f.neg[f.element(other).idx]])

    def __neg__(self):
        return FieldElem(self.field, self.field.neg[self.idx])

    def __mul__(self, other):
        f = self.field
        return FieldElem(f, f.mul[self.idx * f.q + f.element(other).idx])

    def inverse(self) -> "FieldElem":
        if not self.idx:
            raise ZeroDivisionError("inverse of zero field element")
        return FieldElem(self.field, self.field.inv[self.idx])

    def __truediv__(self, other):
        return self * self.field.element(other).inverse()

    def __pow__(self, n: int) -> "FieldElem":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self.field.one, self, n)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, FieldElem):
            return NotImplemented
        return self.idx == other.idx and self.field is other.field

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


def _quad_ops(field: Field, c: int):
    """The product (u1, v1, u2, v2) -> (u, v) of F_q[Z], Z^2 = c, and the
    norm (u, v) -> u^2 - c*v^2 on index pairs (u, v) of u + vZ; made once
    per extension for its elements, fibers and squares."""
    q, add, mul, neg = field.q, field.add, field.mul, field.neg
    cmul = mul[c * q : (c + 1) * q]

    def times(u1, v1, u2, v2):
        return add[mul[u1 * q + u2] * q + cmul[mul[v1 * q + v2]]], add[mul[u1 * q + v2] * q + mul[v1 * q + u2]]

    def norm(u, v):
        return add[mul[u * q + u] * q + neg[cmul[mul[v * q + v]]]]

    return times, norm


class QuadExt:
    """The quadratic extension F_q[Z] of a field, with Z^2 = c non-square;
    one instance per (field, c).  `_fibers` caches the norm fibers by
    the index of their norm."""

    _made: dict = {}

    def __new__(cls, field: Field, c):
        c = field.element(c)
        ext = cls._made.get((field, c.idx))
        if ext is not None:
            return ext
        if c.is_zero() or is_square(c):
            raise FieldError(f"c = {c!r} is not a non-square in F_{field.q}")
        ext = super().__new__(cls)
        ext.field = field
        ext.c = c
        ext.one = QuadElem(ext, field.one, field.zero)
        ext.gen = QuadElem(ext, field.zero, field.one)  # the element Z
        ext._times, ext._norm = _quad_ops(field, c.idx)
        ext._fibers = {}
        return cls._made.setdefault((field, c.idx), ext)

    def element(self, u, v=0) -> "QuadElem":
        if isinstance(u, QuadElem):
            if u.ext is not self:
                raise FieldError("element from a different extension")
            return u
        return QuadElem(self, self.field.element(u), self.field.element(v))

    def pair(self, u: int, v: int) -> "QuadElem":
        """The element u + vZ of two field indices."""
        return QuadElem(self, FieldElem(self.field, u), FieldElem(self.field, v))

    def elements(self) -> Iterator["QuadElem"]:
        q = self.field.q
        return (self.pair(u, v) for v in range(q) for u in range(q))

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

    def __neg__(self):
        return QuadElem(self.ext, -self.u, -self.v)

    def __mul__(self, other):
        other = self.ext.element(other)
        return self.ext.pair(*self.ext._times(self.u.idx, self.v.idx, other.u.idx, other.v.idx))

    def conj(self) -> "QuadElem":
        return QuadElem(self.ext, self.u, -self.v)

    def norm(self) -> FieldElem:
        return FieldElem(self.ext.field, self.ext._norm(self.u.idx, self.v.idx))

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero extension element")
        return self.conj() * n.inverse()

    def __pow__(self, n: int) -> "QuadElem":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self.ext.one, self, n)

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, QuadElem):
            return NotImplemented
        return self.u == other.u and self.v == other.v and self.ext is other.ext

    def __hash__(self):
        return hash((self.u, self.v))

    def to_json(self) -> list:
        return [self.u.to_json(), self.v.to_json()]

    def __repr__(self):
        if self.v.is_zero():
            return repr(self.u)
        vs = "Z" if self.v == self.ext.field.one else f"{self.v!r}Z"
        return vs if self.u.is_zero() else f"{self.u!r}+{vs}"


def norm_fiber(ext: QuadExt, s) -> tuple:
    """All xi in F_q[Z]* with N(xi) = s, in enumeration order; size q+1.
    Each fiber is found once and kept on its extension."""
    s = ext.field.element(s).idx
    if not s:
        raise FieldError("norm fiber over zero is empty of units")
    fiber = ext._fibers.get(s)
    if fiber is None:
        q, norm = ext.field.q, ext._norm
        fiber = ext._fibers[s] = tuple(ext.pair(u, v) for v in range(q) for u in range(q) if norm(u, v) == s)
    return fiber


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
