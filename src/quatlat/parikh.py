"""Parikh images of the word problem cut down to bounded languages
w1* w2* ... wd*, with three exact enumerations and the symbolic set
machinery to compare against.

`enumerate_parikh` takes one of three paths:

- the grid, for four one-letter blocks on alternating sides: O(N^2)
  swap-table cells per sign pattern, with no normal form built;
- the meet in the middle, for every other shape: O(N^ceil(d/2)) normal
  forms built with `append_letter`, and a table of O(N^floor(d/2));
- the brute force (prune=False): all O(N^d) products, the oracle the
  other two are checked against.  It appends every letter of every
  block power at every node of the exponent tree: with D_i directions
  in block i (2 if signed, else 1), that is
  sum_i prod_{j<i} (1 + N*D_j) * D_i * N * |w_i| calls of
  `append_letter`, 2,400 for gamma4 b;x;a;x^-1 at N = 6.

The grid.  Take a^i b^j c^k d^l with a, c in A and b, d in B.  The
lattice acts simply transitively on the vertices of a product of two
trees, so the A- and B-lengths of a normal form are invariants, and
a^i b^j = d^-l c^-k forces i = k and j = l.  The AB form of
(d^-1)^l (c^-1)^t comes from pushing c^-1 t times through (d^-1)^l.
Count the columns of the B-word from its right end: a push through
column l reads only columns 1..l, so the tiling for (t, l) is the corner
of the tiling of (d^-1)^N by N pushes.  One sweep of that tiling, read
from `pres._rows` as `append_letter` reads it, returns every pair
(t, l) whose (t, l, t, l) is a point: column l has emitted the letter a
in each of the t pushes and the first l cells of row t are all b.  The
axes t = 0 and l = 0 are the cases d^-1 = b and c^-1 = a.  Columns that
have emitted anything but a are dropped, so the sweep stops when none
is left.  A B,A,B,A spec is rotated by one block, which conjugates its
word and so keeps whether it is the identity; a signed spec is the union
of 16 unsigned sweeps on inverted letters.  Each pair becomes its point
in one tuple, with the signs and the rotation applied at once.

The meet in the middle.  w1^e1 ... wd^ed is the identity exactly when
the prefix w1^e1 ... wh^eh equals the inverted suffix
wd^-ed ... w(h+1)^-e(h+1).  The search splits the blocks at
h = ceil(d/2), walks every inverted suffix once and tables its AB normal
form against its exponents, then walks every prefix and looks its form
up; each hit is a point.  For d = 1 the suffix is empty and the table
holds only the empty form.

The walk (`_products`) is one generator frame over the tree of exponent
prefixes, kept as a stack of nodes, so a leaf costs one yield whatever
d is.  It carries the parts as lists of letter codes, which
`append_letter` changes in place.  A node of an inner block hands its
parts to its exponent-0 child as they are and to every other child as a
copy, made once; a node of the last block yields its leaves from one
list pair per direction, so the stack holds O(d*N) part lists.  A leaf
comes with its exponents as its node's head tuple and a one-tuple for
the last block: the suffix walk joins them for every leaf it tables,
the prefix walk and the brute force only for a hit.

The table is one dict keyed by a `str` with one character per
code of a_part + b_part.  A-codes come before B-codes, so a key fixes
the split, and it hashes in C.  A str stores one byte a character while
the alphabet has at most 256 letters and two up to 65536, so the keys
stay compact and exact for any alphabet.  A key holds the list of the
suffix exponents that reach its form; it has more than one when a block
freely reduces to the identity.  The brute force is one such walk over
all d blocks, keeping the products that reduce to the identity.

`enumerate_parikh(jobs=...)` is a leftover: it must be at least 1 and
changes nothing, since every value runs the search in this process (a
worker would have to rebuild the whole suffix table).  It is kept only
because the benchmark's `jobs2` op in `perfbench/workloads.py` passes
`jobs=2`, and it goes with the next change to the benchmark.

Signed specs range exponents over [-N, N] by substituting inverted
blocks.  A spec may carry a signed permutation remapping block
exponents to reported coordinates, for languages stated as a two-sided
equation rather than an identity word.
"""

from __future__ import annotations

from itertools import product
from typing import TYPE_CHECKING

from .ff import Value
from .rewrite import append_letter, commutes, is_identity

if TYPE_CHECKING:  # annotations only
    from .lattice import Presentation


class HypothesisViolatedError(ValueError):
    """The bounded language does not satisfy the shape the symbolic
    prediction requires."""


class BoundedLanguageSpec(Value):
    """Blocks w1..wd, an exponent sign convention, and an optional
    output remap: coordinate j reports sign_j * exponent(slot_j)."""

    __slots__ = ("words", "signed", "remap")

    def __init__(self, words: tuple, signed: bool = False, remap: tuple | None = None):
        if not words or any(not w for w in words):
            raise ValueError("need at least one nonempty block word")
        if remap is not None:
            slots = sorted(slot for slot, _ in remap)
            if slots != list(range(len(words))):
                raise ValueError("remap must be a signed permutation of the blocks")
            if any(sign not in (1, -1) for _, sign in remap):
                raise ValueError("remap signs must be +1 or -1")
        self._set(words, signed, remap)

    @property
    def arity(self) -> int:
        return len(self.words)

    def point_from_exponents(self, exps):
        if self.remap is None:
            return tuple(exps)
        return tuple(sign * exps[slot] for slot, sign in self.remap)

    def exponents_from_point(self, point):
        if len(point) != self.arity:
            raise ValueError(f"point arity {len(point)} != {self.arity}")
        if self.remap is None:
            return tuple(point)
        exps = [0] * self.arity
        for j, (slot, sign) in enumerate(self.remap):
            exps[slot] = sign * point[j]
        return tuple(exps)


def _products(pres, blocks, bound):
    """Yield (a_part, b_part, head, tail) for every exponent tuple
    head + tail over `blocks`, each a list of (word, sign) directions:
    the AB normal form of the product of the blocks' powers, with tail
    the one-tuple of the last block's exponent.  With no blocks the walk
    yields the empty form once, with head and tail both ().

    The nodes (parts, head) of the tree of exponent prefixes are walked
    depth first from a stack (see the module docstring).  The parts are
    code lists that the walk goes on changing in place, so a yielded pair
    is valid only until the next one."""
    if not blocks:
        yield [], [], (), ()
        return
    depth = len(blocks) - 1
    zero = (0,)
    last = [(w, [(sign * e,) for e in range(1, bound + 1)]) for w, sign in blocks[-1]]
    stack = [([], [], ())]
    while stack:
        u, v, head = stack.pop()
        if len(head) < depth:
            nodes = [(u, v, head + zero)]
            for w, sign in blocks[len(head)]:
                cu, cv = list(u), list(v)
                for e in range(1, bound + 1):
                    for g in w:
                        append_letter(pres, cu, cv, g)
                    nodes.append((list(cu), list(cv), head + (sign * e,)))
            stack.extend(reversed(nodes))
            continue
        yield u, v, head, zero
        for w, tails in last:
            cu, cv = list(u), list(v)
            for tail in tails:
                for g in w:
                    append_letter(pres, cu, cv, g)
                yield cu, cv, head, tail


def _directions(pres, spec):
    """Per block, the words whose powers it ranges over, with the sign
    of the exponent each power stands for."""
    return tuple(
        [(w, 1)] + ([(pres.invert_word(w), -1)] if spec.signed else []) for w in spec.words
    )


def _key(chars, u, v):
    """A form's table key: the character chars[c] of each code c."""
    return "".join([chars[c] for c in u + v])


def _meet(pres, spec, bound):
    """The points, found by looking every prefix form up among the
    inverted suffix forms."""
    blocks = _directions(pres, spec)
    h = (len(blocks) + 1) // 2
    # w^e inverted is (w^-1)^e, still reported as the exponent e
    suffix = tuple(
        [(pres.invert_word(w), sign) for w, sign in block] for block in reversed(blocks[h:])
    )
    chars = [chr(c) for c in range(len(pres._letters))]  # indexing builds keys faster than chr()
    table = {}
    for u, v, head, tail in _products(pres, suffix, bound):
        table.setdefault(_key(chars, u, v), []).append((head + tail)[::-1])
    out = []
    for u, v, head, tail in _products(pres, blocks[:h], bound):
        hits = table.get(_key(chars, u, v))
        if hits:
            exps = head + tail
            out.extend(spec.point_from_exponents(exps + t) for t in hits)
    return out


def _on_grid(spec):
    """Four one-letter blocks whose sides alternate."""
    sides = "".join(g.side for w in spec.words for g in w)
    return len(spec.words) == 4 and sides in ("ABAB", "BABA")


def _sweep(pres, a, b, c, d, bound):
    """The pairs (t, l) with a^t b^l c^t d^l = e, for codes a, c of
    A-letters and b, d of B-letters, each once: push c^-1 t times through
    (d^-1)^bound, whose column l is its l-th letter from the right."""
    inv, rows = pres._inv_code, pres._rows
    pairs = [(0, 0)]
    if inv[d] == b:
        pairs += [(0, l) for l in range(1, bound + 1)]
    if inv[c] == a:
        pairs += [(t, 0) for t in range(1, bound + 1)]
    row_a, start = rows[a], rows[inv[c]]
    word = [inv[d]] * bound  # right end first
    alive = list(range(1, bound + 1))  # columns that have emitted only a
    for t in range(1, bound + 1):
        if not alive:
            break
        row, word, hit = start, word[: alive[-1]], []
        for l, x in enumerate(word):
            row, word[l] = row[x]
            hit.append(row is row_a)
        alive = [l for l in alive if hit[l - 1]]
        bs = next((l for l, x in enumerate(word) if x != b), len(word))
        pairs += [(t, l) for l in alive if l <= bs]
    return pairs


def _grid(pres, spec, bound):
    """The points of a spec `_on_grid`.  A B,A,B,A spec is rotated by one
    block, which conjugates its word, so its A-exponent t stands in the
    odd coordinates; a signed spec is the union of 16 unsigned sweeps on
    inverted letters, merged in a set.  One sweep has no repeats, and
    left in its order its points are two ascending runs when t stands
    first, which `sorted` merges in linear time."""
    shift = int(spec.words[0][0].side == "B")
    codes = [pres._code[w[0]] for w in spec.words]
    inv = pres._inv_code
    x, y = (1, 0) if shift else (0, 1)  # coordinates 0 and 2 report p[x], 1 and 3 report p[y]
    points = set() if spec.signed else []
    add = points.update if spec.signed else points.extend
    for signs in product((1, -1) if spec.signed else (1,), repeat=4):
        s0, s1, s2, s3 = signs
        g = [c if s > 0 else inv[c] for c, s in zip(codes, signs)]
        pairs = _sweep(pres, *(g[shift:] + g[:shift]), bound)
        add((s0 * p[x], s1 * p[y], s2 * p[x], s3 * p[y]) for p in pairs)
    if spec.remap is None:
        return points
    return [spec.point_from_exponents(p) for p in points]


def enumerate_parikh(
    pres: Presentation,
    spec: BoundedLanguageSpec,
    bound: int,
    prune: bool = True,
    jobs: int = 1,
) -> tuple:
    """All exponent tuples within the bound whose block product is the
    identity, sorted lexicographically.  prune=True takes the grid when
    the spec has its shape and the meet in the middle otherwise;
    prune=False is the brute force.  jobs is checked (>= 1) and
    otherwise ignored."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if not prune:
        points = [
            spec.point_from_exponents(head + tail)
            for u, v, head, tail in _products(pres, _directions(pres, spec), bound)
            if not u and not v
        ]
    elif _on_grid(spec):
        points = _grid(pres, spec, bound)
    else:
        points = _meet(pres, spec, bound)
    return tuple(sorted(points))


def membership(pres: Presentation, spec: BoundedLanguageSpec, point) -> bool:
    """Probe one exponent tuple without enumerating."""
    exps = spec.exponents_from_point(point)
    if not spec.signed and any(e < 0 for e in exps):
        return False
    word: list = []
    for w, e in zip(spec.words, exps):
        block = w if e >= 0 else pres.invert_word(w)
        word.extend(block * abs(e))
    return is_identity(pres, tuple(word))


# ---------------------------------------------------------------------------
# symbolic sets


def _nonneg_tuple(t):
    t = tuple(int(x) for x in t)
    if any(x < 0 for x in t):
        raise ValueError("linear sets live in N_0^d")
    return t


class LinearSet(Value):
    """{base + sum lambda_i * periods_i : lambda_i >= 0}."""

    __slots__ = ("base", "periods")

    def __init__(self, base: tuple, periods: tuple = ()):
        base = _nonneg_tuple(base)
        cleaned = sorted(
            {_nonneg_tuple(p) for p in periods if any(p)}
        )  # zero periods dropped: they change nothing
        for p in cleaned:
            if len(p) != len(base):
                raise ValueError("period arity mismatch")
        self._set(base, tuple(cleaned))

    def contains(self, point) -> bool:
        target = tuple(x - b for x, b in zip(point, self.base))
        if len(point) != len(self.base) or any(t < 0 for t in target):
            return False

        def go(t, idx):
            if not any(t):
                return True
            if idx == len(self.periods):
                return False
            p = self.periods[idx]
            top = min(t[i] // p[i] for i in range(len(p)) if p[i])
            for lam in range(top + 1):
                if go(tuple(ti - lam * pi for ti, pi in zip(t, p)), idx + 1):
                    return True
            return False

        return go(target, 0)

    def enumerate_box(self, n: int) -> frozenset:
        if any(b > n for b in self.base):
            return frozenset()
        seen = {self.base}
        frontier = [self.base]
        while frontier:
            pt = frontier.pop()
            for p in self.periods:
                nxt = tuple(a + b for a, b in zip(pt, p))
                if max(nxt) <= n and nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return frozenset(seen)


class SemilinearSet(Value):
    """A finite union of linear sets."""

    __slots__ = ("parts",)

    def __init__(self, parts: tuple):
        self._set(tuple(parts))

    @classmethod
    def of(cls, *parts) -> "SemilinearSet":
        fixed = []
        for part in parts:
            if isinstance(part, LinearSet):
                fixed.append(part)
            else:
                fixed.append(LinearSet(tuple(part)))  # bare point
        return cls(tuple(fixed))

    def contains(self, point) -> bool:
        return any(part.contains(point) for part in self.parts)

    def enumerate_box(self, n: int) -> frozenset:
        out: frozenset = frozenset()
        for part in self.parts:
            out |= part.enumerate_box(n)
        return out


class PowerDiagonal(Value):
    """The zero tuple together with all constant tuples (m^j, ..., m^j).

    Its growth in the box [0, n] is 1 + #{j >= 0 : m^j <= n}, which is
    logarithmic — no semilinear set does that."""

    __slots__ = ("m", "d")

    def __init__(self, m: int, d: int = 4):
        if m < 2 or d < 1:
            raise ValueError("need m >= 2 and d >= 1")
        self._set(m, d)

    def contains(self, point) -> bool:
        if len(point) != self.d:
            return False
        if not any(point):
            return True
        val = point[0]
        if val <= 0 or any(x != val for x in point):
            return False
        while val % self.m == 0:
            val //= self.m
        return val == 1

    def enumerate_box(self, n: int) -> frozenset:
        pts = {(0,) * self.d}
        val = 1
        while val <= n:
            pts.add((val,) * self.d)
            val *= self.m
        return frozenset(pts)


def expected_points(expected, n: int) -> frozenset:
    """Normalize a symbolic set, a callable, or a plain collection to the
    set of its points with all |coordinates| <= n."""
    if hasattr(expected, "enumerate_box"):
        return frozenset(expected.enumerate_box(n))
    if callable(expected):
        return frozenset(tuple(p) for p in expected(n))
    return frozenset(
        tuple(p) for p in expected if max(abs(x) for x in p) <= n or not any(p)
    )


def growth(obj, n: int) -> int:
    """Number of distinct member tuples with all |coordinates| <= n."""
    if n < 0:
        raise ValueError(f"growth needs n >= 0, got {n}")
    return len(expected_points(obj, n))


class CompareReport(Value):
    """The points expected but not enumerated (`missing`) and those
    enumerated but not expected (`extra`)."""

    __slots__ = ("missing", "extra")

    def __init__(self, missing: tuple, extra: tuple):
        self._set(missing, extra)

    @property
    def ok(self) -> bool:
        return not self.missing and not self.extra


def compare(enumerated, expected, n: int) -> CompareReport:
    """Symmetric difference between an enumeration and a prediction,
    inside the box of radius n."""
    got = frozenset(tuple(p) for p in enumerated)
    want = expected_points(expected, n)
    return CompareReport(
        missing=tuple(sorted(want - got)),
        extra=tuple(sorted(got - want)),
    )


def power_diagonal_prediction(pres: Presentation, tokens) -> PowerDiagonal:
    """The predicted Parikh set for a*b*c*d* built from four single
    letters with abcd = e and a, b non-commuting, on a parametric
    lattice: the power diagonal with step p^k_tau.

    Raises HypothesisViolatedError when the shape is wrong — for a
    commuting pair the image is the full semilinear {(n, m, n, m)}
    instead."""
    if pres.kind != "parametric":
        raise HypothesisViolatedError("prediction needs a parametric lattice")
    if len(tokens) != 4:
        raise HypothesisViolatedError("need exactly four letters")
    letters = [pres.label(t) for t in tokens]
    a, b, c, d = letters
    if (a.side, b.side, c.side, d.side) != ("A", "B", "A", "B"):
        raise HypothesisViolatedError("need sides A, B, A, B")
    if not is_identity(pres, (a, b, c, d)):
        raise HypothesisViolatedError("the four letters do not multiply to e")
    if commutes(pres, (a,), (b,)):
        raise HypothesisViolatedError("the leading pair commutes")
    return PowerDiagonal(pres.params.field.p ** pres.k_tau, 4)
