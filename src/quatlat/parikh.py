"""Parikh images of the word problem cut down to bounded languages
w1* w2* ... wd*, with exact pruned enumeration and the symbolic set
machinery to compare against.

The enumeration walks exponent prefixes depth first, carrying the
incremental two-sided normal form.  Each appended letter changes the
normal-form length by exactly one, so a branch dies as soon as the
current length exceeds the number of letters the remaining blocks can
still contribute; that bound is what makes bound 30 at four blocks
instant.  The last block is not walked: a prefix with normal form F
closes to the identity under w_d^e exactly when F is the normal form of
w_d^-e, so one table from those forms to their exponents (a list, since
a block that freely reduces to the identity gives every e one form)
resolves it with a single lookup.  Disabling pruning gives the
brute-force oracle the pruned search is checked against: it walks every
block, the last one too, letter by letter.

The search is split by the exponent of the first block: each task
builds that block's power and walks the subtree under it.  With jobs=1
the tasks run in turn in-process; with more, a process pool runs them.

Signed specs range exponents over [-N, N] by substituting inverted
blocks.  A spec may carry a signed permutation remapping block
exponents to reported coordinates, for languages stated as a two-sided
equation rather than an identity word.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from .lattice import Presentation
from .rewrite import append_letter, is_identity


class HypothesisViolatedError(ValueError):
    """The bounded language does not satisfy the shape the symbolic
    prediction requires."""


@dataclass(frozen=True)
class BoundedLanguageSpec:
    """Blocks w1..wd, an exponent sign convention, and an optional
    output remap: coordinate j reports sign_j * exponent(slot_j)."""

    words: tuple
    signed: bool = False
    remap: tuple | None = None

    def __post_init__(self):
        if not self.words or any(not w for w in self.words):
            raise ValueError("need at least one nonempty block word")
        if self.remap is not None:
            slots = sorted(slot for slot, _ in self.remap)
            if slots != list(range(len(self.words))):
                raise ValueError("remap must be a signed permutation of the blocks")
            if any(sign not in (1, -1) for _, sign in self.remap):
                raise ValueError("remap signs must be +1 or -1")

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


def _last_block_table(pres, spec, bound):
    """Map the AB normal form (a_part, b_part) of w_d^-e to the list of
    exponents e in range, w_d being the last block.  The forms are filed
    under their shape (len(a_part), len(b_part)), which is cheap to hash,
    so a prefix of any other shape costs no hashing of its letters."""
    w = spec.words[-1]
    table: dict = {(0, 0): {((), ()): [0]}}
    directions = [(pres.invert_word(w), 1)]
    if spec.signed:
        directions.append((w, -1))
    for dw, sign in directions:
        u, v = (), ()
        for e in range(1, bound + 1):
            for g in dw:
                u, v = append_letter(pres, u, v, g)
            table.setdefault((len(u), len(v)), {}).setdefault((u, v), []).append(sign * e)
    return table


def _search(pres, spec, bound, first_exp, last_block):
    """The points whose first block has exponent first_exp.  With a
    last-block table the search is pruned and ends one block early;
    without one it is the brute-force walk."""
    prune = last_block is not None
    blocks = spec.words
    d = len(blocks)
    rem = [0] * (d + 1)
    for i in range(d - 1, -1, -1):
        rem[i] = rem[i + 1] + bound * len(blocks[i])
    directions = []
    for w in blocks:
        directions.append([(w, 1)] + ([(pres.invert_word(w), -1)] if spec.signed else []))
    out = []
    exps = [0] * d

    def rec(i, u, v):
        if i == d:
            if not u and not v:
                out.append(spec.point_from_exponents(exps))
            return
        if prune and i == d - 1:
            forms = last_block.get((len(u), len(v)))
            for e in forms.get((u, v), ()) if forms else ():
                exps[i] = e
                out.append(spec.point_from_exponents(exps))
            return
        limit = rem[i + 1]
        exps[i] = 0
        if not prune or len(u) + len(v) <= limit:
            rec(i + 1, u, v)
        for dw, sign in directions[i]:
            cu, cv = u, v
            for e in range(1, bound + 1):
                for g in dw:
                    cu, cv = append_letter(pres, cu, cv, g)
                cur = len(cu) + len(cv)
                if prune and cur - (bound - e) * len(dw) > limit:
                    break
                exps[i] = sign * e
                if not prune or cur <= limit:
                    rec(i + 1, cu, cv)
            exps[i] = 0

    u, v = (), ()
    w = directions[0][0 if first_exp >= 0 else 1][0]
    for _ in range(abs(first_exp)):
        for g in w:
            u, v = append_letter(pres, u, v, g)
    if prune and len(u) + len(v) > rem[1]:
        return out
    exps[0] = first_exp
    rec(1, u, v)
    return out


def _worker(args):
    return _search(*args)


def enumerate_parikh(
    pres: Presentation,
    spec: BoundedLanguageSpec,
    bound: int,
    prune: bool = True,
    jobs: int = 1,
) -> tuple:
    """All exponent tuples within the bound whose block product is the
    identity, sorted lexicographically."""
    if bound < 0:
        raise ValueError("bound must be >= 0")
    firsts = list(range(bound + 1))
    if spec.signed:
        firsts += [-e for e in range(1, bound + 1)]
    last_block = _last_block_table(pres, spec, bound) if prune else None
    tasks = [(pres, spec, bound, e, last_block) for e in firsts]
    if jobs <= 1:
        chunks = map(_worker, tasks)
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_worker, tasks))
    return tuple(sorted({p for chunk in chunks for p in chunk}))


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


@dataclass(frozen=True)
class LinearSet:
    """{base + sum lambda_i * periods_i : lambda_i >= 0}."""

    base: tuple
    periods: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "base", _nonneg_tuple(self.base))
        cleaned = sorted(
            {_nonneg_tuple(p) for p in self.periods if any(p)}
        )  # zero periods dropped: they change nothing
        for p in cleaned:
            if len(p) != len(self.base):
                raise ValueError("period arity mismatch")
        object.__setattr__(self, "periods", tuple(cleaned))

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

    def __contains__(self, point):
        return self.contains(point)

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


@dataclass(frozen=True)
class SemilinearSet:
    """A finite union of linear sets."""

    parts: tuple

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))

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

    def __contains__(self, point):
        return self.contains(point)

    def enumerate_box(self, n: int) -> frozenset:
        out: frozenset = frozenset()
        for part in self.parts:
            out |= part.enumerate_box(n)
        return out


@dataclass(frozen=True)
class PowerDiagonal:
    """The zero tuple together with all constant tuples (m^j, ..., m^j).

    Its growth in the box [0, n] is 1 + #{j >= 0 : m^j <= n}, which is
    logarithmic — no semilinear set does that."""

    m: int
    d: int = 4

    def __post_init__(self):
        if self.m < 2 or self.d < 1:
            raise ValueError("need m >= 2 and d >= 1")

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

    def __contains__(self, point):
        return self.contains(point)

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
    """Number of member tuples with all |coordinates| <= n."""
    if n < 0:
        raise ValueError(f"growth needs n >= 0, got {n}")
    if hasattr(obj, "enumerate_box"):
        return len(obj.enumerate_box(n))
    return sum(1 for p in obj if all(abs(x) <= n for x in p))


@dataclass(frozen=True)
class CompareReport:
    missing: tuple  # expected but not enumerated
    extra: tuple  # enumerated but not expected
    checked: int

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
        checked=len(got | want),
    )


def power_diagonal_prediction(pres: Presentation, tokens) -> PowerDiagonal:
    """The predicted Parikh set for a*b*c*d* built from four single
    letters with abcd = e and a, b non-commuting, on a parametric
    lattice: the power diagonal with step p^k_tau.

    Raises HypothesisViolatedError when the shape is wrong — for a
    commuting pair the image is the full semilinear {(n, m, n, m)}
    instead."""
    from .rewrite import commutes

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
