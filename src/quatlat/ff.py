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
q-entry tables `neg` and `inv`; every operation is a lookup.  `add` is
filled by digits: for a = a0 + p*a', row a is p*(a' + b') + (a0 + b0)
mod p, from the table of e - 1 digits.  `mul` is filled by Horner on
indices: with a0 constant, row a is a0*b + x*(a'*b), read from rows a0
and a' through `add` and the map v -> x*v.  `neg` and `inv` are where
each row of `add` and `mul` holds 0 and 1.

A FieldElem is one object per element: each field makes its q elements
once, as the tuple `elems`, and every way of reaching an element (the
constructor, `element`, `from_index`, `elements()`, arithmetic, norms,
`sigma_k`, polynomial coefficients) returns the entry of that tuple.  So
two elements are equal exactly when they are the same object, and an
element hashes as its index.

Extension elements u + vZ are pairs of F_q elements; their product and
norm N(u + vZ) = u^2 - c*v^2 (= x * conj(x) = x^(q+1)) run on index
pairs (see _quad_ops).

Every value class of the package derives from `Value`: its slots are
read-only, it equals and hashes as `_key()`, the tuple of its slots,
and it equals no value of another class.  `GenLabel` and `FieldElem`
keep identity equality, as each is made once; fields, extensions,
algebras and presentations are not values and compare by identity.
Fields, extensions and algebras hash by their parameters, not by
address, so a set of values iterates in the same order in every
process.
"""

from __future__ import annotations

from itertools import chain
from operator import getitem
from typing import Iterator


class FieldError(ValueError):
    """Invalid field parameters or an undefined field operation."""


class Value:
    """An immutable value: equal to a value of its own class with an
    equal `_key()`, the tuple of its slots.  Cold constructors write the
    slots through `_set`; hot ones call `object.__setattr__` themselves,
    and hot classes spell out their `_key`."""

    __slots__ = ()

    def _set(self, *values):
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, *_):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        if self is other:
            return True
        if type(other) is not type(self):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(map(repr, self._key()))})"


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
    serves every multiplicative type in the package.  Once the top bit
    is used no square is taken, so n.bit_length() - 1 squares and one
    product per set bit."""
    result = one
    while True:
        if n & 1:
            result = result * base
        n >>= 1
        if not n:
            return result
        base = base * base


def _digits(k: int, p: int, n: int) -> tuple:
    """The n little-endian base-p digits of k."""
    return tuple((k // p**i) % p for i in range(n))


def _reduce(field: Field, rem: list, den, quo=None) -> list:
    """rem mod den, in place and trimmed, for lists of field indices
    (little-endian polynomial coefficients) with den trimmed and
    nonzero; the quotient's coefficients go into `quo` when it is given.
    The one polynomial division loop of the package."""
    add, mul, neg, q = field.add, field.mul, field.neg, field.q
    dn = len(den) - 1
    lead_inv = field.inv[den[-1]]
    for k in range(len(rem) - 1, dn - 1, -1):
        c = rem[k]
        if c:
            f = mul[c * q + lead_inv]
            if quo is not None:
                quo[k - dn] = f
            row = neg[f] * q
            for i, d in enumerate(den, k - dn):
                rem[i] = add[rem[i] * q + mul[row + d]]
    del rem[dn:]
    while rem and not rem[-1]:
        rem.pop()
    return rem


def _smallest_irreducible(p: int, e: int) -> tuple:
    """The first monic polynomial of degree e, in the order of the
    integer its lower coefficients spell in base p, with no monic factor
    of degree 1 .. e/2 (trial division on the prime field's indices,
    which are the residues); x for e = 1."""
    if e == 1:
        return (0, 1)
    field = Field(p)
    divisors = [_digits(k, p, d) + (1,) for d in range(1, e // 2 + 1) for k in range(p**d)]
    for m in range(p**e):
        poly = _digits(m, p, e) + (1,)
        if all(_reduce(field, list(poly), den) for den in divisors):
            return poly


class Field:
    """The field F_q with q = p^e <= 1024, for an odd prime p; one
    instance per (p, e).

    `vec[k]` is the coefficient vector of index k; `add[a*q + b]` and
    `mul[a*q + b]` are the indices of a + b and a*b, `neg[a]` of -a and
    `inv[a]` of 1/a (None at 0); `elems[k]` is the element of index k,
    the only FieldElem of that index."""

    _made: dict = {}

    def __new__(cls, p: int, e: int = 1):
        # before the lookup: 3.0 and True hash like 3 and 1
        if type(p) is not int or type(e) is not int:
            raise FieldError(f"field parameters p={p!r}, e={e!r} must be ints")
        field = cls._made.get((p, e))
        if field is not None:
            return field
        # q <= 1024 keeps each q x q table within 2^20 entries; checked
        # before the trial divisions, forming p**e only for p, e <= 1024
        if p > 1 and (p > 1024 or e > 1024 or p**e > 1024):
            raise FieldError(f"q = {p}^{e} is above 1024, the largest field that is tabulated")
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
        field.elems = tuple(object.__new__(FieldElem) for _ in range(field.q))
        for k, x in enumerate(field.elems):
            x._set(field, k)
        field.zero, field.one = field.elems[0], field.elems[1]
        return cls._made.setdefault((p, e), field)

    def _tables(self):
        p, q, m = self.p, self.q, self.modulus
        vec = tuple(_digits(k, p, self.e) for k in range(q))
        # a + b by digits: for a = a0 + p*a' it is p*(a' + b') + (a0 + b0) mod p
        digit = [list(range(a, p)) + list(range(a)) for a in range(p)]
        sums = digit
        while len(sums) < q:
            sums = [[p * h + l for h in hi for l in lo] for hi in sums for lo in digit]
        index = {v: k for k, v in enumerate(vec)}
        # x*v: shift up one degree, then replace x^e by -(m(x) - x^e)
        times_x = tuple(index[tuple((s - v[-1] * c) % p for s, c in zip((0,) + v[:-1], m))] for v in vec)
        rows = [[0] * q]
        for a in range(1, q):  # each entry is sums[r][s], looked up in C, for r and s as below
            if a < p:  # a constant: row a-1 plus b
                row = map(getitem, map(sums.__getitem__, rows[a - 1]), range(q))
            else:  # a0*b + x*(a'*b)
                row = map(getitem, map(sums.__getitem__, rows[a % p]), map(times_x.__getitem__, rows[a // p]))
            rows.append(list(row))
        neg = tuple(row.index(0) for row in sums)
        inv = (None,) + tuple(row.index(1) for row in rows[1:])
        return vec, tuple(chain.from_iterable(sums)), tuple(chain.from_iterable(rows)), neg, inv

    def element(self, value) -> "FieldElem":
        """Coerce an int (constant embedding; not a bool), an element of
        this field, or a coefficient vector: a tuple or list of at most e
        ints.  Anything else is refused, not reinterpreted."""
        if type(value) is FieldElem:
            if value.field is not self:
                raise FieldError("element from a different field")
            return value
        p = self.p
        if type(value) is int:
            return self.elems[value % p]
        if type(value) not in (tuple, list) or any(type(c) is not int for c in value):
            raise FieldError(f"{value!r} is neither an int, an element of {self!r} nor a vector of ints")
        if len(value) > self.e:
            raise FieldError(f"coefficient vector {value!r} is longer than degree {self.e}")
        return self.elems[sum(c % p * p**i for i, c in enumerate(value))]

    def from_index(self, k: int) -> "FieldElem":
        """The k-th element in the fixed enumeration order (base-p digits)."""
        return FieldElem(self, k)

    def elements(self) -> Iterator["FieldElem"]:
        return iter(self.elems)

    def __hash__(self):  # by value, so sets iterate alike in every process
        return hash((self.p, self.e))

    def __repr__(self):
        return f"Field({self.p}, {self.e})"


class FieldElem(Value):
    """An element of F_q: the entry `field.elems[idx]`, made with its
    field and never again, so it equals only itself and hashes as its
    index.  Arithmetic reads the field's tables; an operand that is not
    an element of the same field is coerced by `Field.element`."""

    __slots__ = ("field", "idx")

    def __new__(cls, field: Field, idx: int):
        # only an int in range(q): elems[-1] is the last element, and True would pass for 1
        if type(idx) is not int or not 0 <= idx < field.q:
            raise FieldError(f"index {idx!r} out of range for q={field.q}")
        return field.elems[idx]

    __eq__ = object.__eq__

    def __hash__(self):
        return self.idx

    @property
    def coeffs(self) -> tuple:
        return self.field.vec[self.idx]

    def is_zero(self) -> bool:
        return not self.idx

    def __bool__(self):
        return bool(self.idx)

    def __add__(self, other):
        f = self.field
        if type(other) is not FieldElem or other.field is not f:
            other = f.element(other)
        return f.elems[f.add[self.idx * f.q + other.idx]]

    def __sub__(self, other):
        f = self.field
        if type(other) is not FieldElem or other.field is not f:
            other = f.element(other)
        return f.elems[f.add[self.idx * f.q + f.neg[other.idx]]]

    def __neg__(self):
        f = self.field
        return f.elems[f.neg[self.idx]]

    def __mul__(self, other):
        f = self.field
        if type(other) is not FieldElem or other.field is not f:
            other = f.element(other)
        return f.elems[f.mul[self.idx * f.q + other.idx]]

    def inverse(self) -> "FieldElem":
        if not self.idx:
            raise ZeroDivisionError("inverse of zero field element")
        f = self.field
        return f.elems[f.inv[self.idx]]

    def __truediv__(self, other):
        return self * self.field.element(other).inverse()

    def __pow__(self, n: int) -> "FieldElem":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self.field.one, self, n)

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
    the index of their norm, `_scales` the scales of `sigma_k` by (k,
    norm index)."""

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
        ext._fibers, ext._scales = {}, {}
        return cls._made.setdefault((field, c.idx), ext)

    def element(self, u, v=0) -> "QuadElem":
        if isinstance(u, QuadElem):
            if u.ext is not self:
                raise FieldError("element from a different extension")
            return u
        return QuadElem(self, self.field.element(u), self.field.element(v))

    def pair(self, u: int, v: int) -> "QuadElem":
        """The element u + vZ of two field indices."""
        elems = self.field.elems
        return QuadElem(self, elems[u], elems[v])

    def elements(self) -> Iterator["QuadElem"]:
        q = self.field.q
        return (self.pair(u, v) for v in range(q) for u in range(q))

    def __hash__(self):
        return hash((self.field, self.c.idx))

    def __repr__(self):
        return f"QuadExt({self.field!r}, c={self.c!r})"


class QuadElem(Value):
    """An element u + vZ of F_q[Z]."""

    __slots__ = ("ext", "u", "v")

    def __init__(self, ext: QuadExt, u: FieldElem, v: FieldElem):
        object.__setattr__(self, "ext", ext)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def _key(self) -> tuple:
        return self.ext, self.u, self.v

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
        return self.ext.field.elems[self.ext._norm(self.u.idx, self.v.idx)]

    def inverse(self) -> "QuadElem":
        n = self.norm()
        if n.is_zero():
            raise ZeroDivisionError("inverse of zero extension element")
        return self.conj() * n.inverse()

    def __pow__(self, n: int) -> "QuadElem":
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self.ext.one, self, n)

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

    The negative exponent of (-c) is taken via the field inverse.  The
    scale depends on xi only through its norm, so each (k, N(xi)) scale
    is found once and kept on the extension.  xi must be an element of
    ext: its indices mean nothing in another extension's tables.
    """
    if k < 1:
        raise FieldError("k must be >= 1")
    xi = ext.element(xi)
    u, v = xi.u.idx, xi.v.idx
    norm = ext._norm(u, v)
    scale = ext._scales.get((k, norm))
    if scale is None:
        exp = (ext.field.p**k - 1) // 2
        twist = ((-ext.c) ** exp).inverse() * ext.field.elems[norm] ** exp
        scale = ext._scales[k, norm] = twist.idx
    return ext.pair(*ext._times(u, v, scale, 0))
