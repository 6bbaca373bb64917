"""Presentations of the two-sided square-complex lattices.

A presentation carries two inverse-closed generator alphabets (the A and
B sides), and a total swap map on A x B pairs encoding the relations
a * b = b' * a'.  Totality plus bijectivity of (a, b) -> (b', a') is the
complete square complex condition: every element then factors uniquely
as an A-word times a B-word and vice versa, which is what the rewriting
module exploits.

Parametric lattices come from field data (q, c, tau): the A alphabet is
indexed by the norm fiber over -c, the B alphabet by the fiber over
c*tau/(1-tau), and each swap entry is the unique solution (lambda, mu)
of   xi + eta = lambda + mu,   xi * conj(eta) = lambda * conj(mu),
given in closed form on index pairs of F_q[Z] (see solve_square).
Named lattices are given by a literal list of squares over symbolic
letters; the full table is expanded from the four readings of each
square, never hand-entered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .ff import Field, FieldElem, FieldError, QuadExt, QuadElem, norm_fiber
from .quat import Poly, QuatAlgebra


class SquareSolveError(RuntimeError):
    """The relation system has no solution or several; indicates a bug
    or invalid parameters, since uniqueness is guaranteed."""


class ComplexError(ValueError):
    """Square data does not define a complete square complex."""


class ParameterMismatchError(ValueError):
    """Source/target presentations do not fit the requested map."""


@dataclass(frozen=True, slots=True, eq=False)
class GenLabel:
    """A generator letter: side 'A' or 'B', a stable name, an inversion
    flag for named lattices, and the fiber index for parametric ones.

    A letter equals only itself, so a letter of one presentation is never
    read as a letter of another; each presentation numbers its own
    letters (`Presentation._code`)."""

    side: str
    name: str
    inv: bool = False
    index: QuadElem | None = None

    def token(self) -> str:
        return f"{self.name}^-1" if self.inv else self.name

    def to_json(self) -> dict:
        if self.index is not None:
            return {"side": self.side, "index": self.index.to_json()}
        return {"name": self.name, "inv": self.inv}

    def __repr__(self):
        return self.token()


Word = tuple  # sequence of GenLabel


@dataclass(frozen=True)
class LatticeParams:
    """Field data (q, c, tau) for a parametric lattice.  The norm of the
    B letters, `b_norm_target` = c*tau/(1-tau), is computed once here."""

    ext: QuadExt
    tau: FieldElem

    def __post_init__(self):
        field = self.ext.field
        if self.tau.field is not field:
            raise FieldError(f"tau = {self.tau!r} lies in {self.tau.field!r}, not in {field!r}")
        if self.tau.is_zero() or self.tau == field.one:
            raise ValueError("tau must differ from 0 and 1")
        object.__setattr__(self, "b_norm_target", self.ext.c * self.tau / (field.one - self.tau))

    @property
    def field(self) -> Field:
        return self.ext.field

    @property
    def c(self) -> FieldElem:
        return self.ext.c

    @property
    def a_norm_target(self) -> FieldElem:
        return -self.c

    def to_json(self) -> dict:
        return {
            "field": self.field.to_json(),
            "c": self.c.to_json(),
            "tau": self.tau.to_json(),
        }

    @classmethod
    def from_json(cls, data: dict) -> "LatticeParams":
        field = Field.from_json(data["field"])
        ext = QuadExt(field, field.element(data["c"]))
        return cls(ext, field.element(data["tau"]))

    @classmethod
    def make(cls, p: int, e: int, c, tau) -> "LatticeParams":
        field = Field(p, e)
        ext = QuadExt(field, field.element(c))
        return cls(ext, field.element(tau))


@dataclass(frozen=True)
class Square:
    """One geometric square a*b = b2*a2 with its commutation status."""

    a: GenLabel
    b: GenLabel
    b2: GenLabel
    a2: GenLabel
    commuting: bool

    def to_json(self) -> dict:
        return {
            "a": self.a.to_json(),
            "b": self.b.to_json(),
            "b2": self.b2.to_json(),
            "a2": self.a2.to_json(),
            "commuting": self.commuting,
        }


def _square_readings(inverse, a, b, b2, a2) -> tuple:
    """The four swap entries of the square a*b = b2*a2, one per corner it
    is read from, as (key, value) pairs in reading order 1..4, on letters
    with `inverse` a dict or on codes with it a list:
    a*b = b2*a2,  a^-1*b2 = b*a2^-1,  a2*b^-1 = b2^-1*a,
    a2^-1*b2^-1 = b^-1*a^-1."""
    ia, ib, ia2, ib2 = inverse[a], inverse[b], inverse[a2], inverse[b2]
    return (
        ((a, b), (b2, a2)),
        ((ia, b2), (b, ia2)),
        ((a2, ib), (ib2, a)),
        ((ia2, ib2), (ib, ia)),
    )


class Presentation:
    """An inverse-closed two-alphabet presentation with a total swap map.

    `swap` is the table as a dict, read by the algebra oracle, the lemma
    and homomorphism checks, and JSON.  The rewriting core reads the same
    table as `_rows`, one list of n + 1 entries per letter code, with n the
    number of letters.  A letter's code is its position in alphabet_a +
    alphabet_b: `_code` maps each letter to it, `_letters` decodes it,
    and `_inv_code` is the inverse on codes.  The row of a letter takes
    each letter of the other side to the pair (row of the pushed letter
    after the swap, code of the other letter after it).  For a*b = b'*a',
    the B letter b pushed left through a is `_rows[b][a] = (_rows[b'],
    a')`, and the A letter a' pushed left through b' is `_rows[a'][b'] =
    (_rows[a], b)`.  The last entry of a row is its own letter's code;
    entries at letters of its own side are None.  Each inverse and swap
    entry is checked as it lands, totality by a count, and the other
    three readings of each of `squares`, met in (token(a), token(b))
    order, on codes."""

    def __init__(
        self,
        alphabet_a: Sequence[GenLabel],
        alphabet_b: Sequence[GenLabel],
        inverse: dict,
        swap: dict,
        params: LatticeParams | None = None,
        name: str | None = None,
    ):
        self.alphabet_a = tuple(alphabet_a)
        self.alphabet_b = tuple(alphabet_b)
        self.inverse = inverse
        self.swap = swap
        self.params = params
        self.name = name
        letters = self._letters = self.alphabet_a + self.alphabet_b
        code_of = self._code = {}
        by_token = self.by_token = {}
        for code, l in enumerate(letters):
            if l in code_of:
                raise ComplexError(f"letter {l} is listed twice in the alphabets")
            if by_token.setdefault(l.token(), l) is not l:
                raise ComplexError(f"two letters have the token {l.token()!r}")
            code_of[l] = code
        self.by_index = {l.index: l for l in letters if l.index is not None}
        self.k_tau = compute_k_tau(params) if params is not None else None
        n, na = len(letters), len(self.alphabet_a)
        inv = self._inv_code = []
        for c, l in enumerate(letters):
            i = code_of.get(inverse.get(l), -1)
            if i < 0 or i == c or (i < na) != (c < na) or inverse.get(letters[i]) is not l:
                raise ComplexError(f"alphabet not fixed-point-freely inverse-paired at {l}")
            inv.append(i)
        rows = self._rows = [[None] * n + [c] for c in range(n)]
        for (a, b), (b2, a2) in swap.items():
            ca, cb, cb2, ca2 = (code_of.get(l, -1) for l in (a, b, b2, a2))
            if not 0 <= ca < na <= cb:
                raise ComplexError("swap map is not total on the A x B pairs")
            if cb2 < 0 or ca2 < 0:
                raise ComplexError(f"swap image of ({a}, {b}) is not in the alphabets")
            if not ca2 < na <= cb2:
                raise ComplexError(f"swap image of ({a}, {b}) has wrong sides")
            if rows[ca2][cb2] is not None:
                raise ComplexError("swap map is not injective")
            rows[cb][ca] = (rows[cb2], ca2)
            rows[ca2][cb2] = (rows[ca], cb)
        if len(swap) != na * (n - na):
            raise ComplexError("swap map is not total on the A x B pairs")
        # The readings of a square's readings are its own readings, so an
        # entry met as a reading of an earlier square is consistent, and
        # only the entry a square starts at needs its readings checked.
        seen, squares = set(), []
        for a, b in self._token_keys():
            ca, cb = code_of[a], code_of[b]
            if ca * n + cb in seen:
                continue
            row, ca2 = rows[cb][ca]
            cb2 = row[n]
            readings = _square_readings(inv, ca, cb, cb2, ca2)
            for k, ((x, y), (y2, x2)) in enumerate(readings[1:], start=2):
                row, x2_read = rows[y][x]
                if row is not rows[y2] or x2_read != x2:
                    raise ComplexError(f"reading {k} inconsistent at ({a}, {b})")
            seen.update(x * n + y for (x, y), _ in readings)
            squares.append(Square(a, b, letters[cb2], letters[ca2], commuting=(cb2 == cb and ca2 == ca)))
        self.squares = tuple(squares)

    def _token_keys(self):
        """The A x B keys in (token(a), token(b)) order, that of `squares` and the JSON table."""
        a_order, b_order = (sorted(alphabet, key=GenLabel.token) for alphabet in (self.alphabet_a, self.alphabet_b))
        return ((a, b) for a in a_order for b in b_order)

    @property
    def kind(self) -> str:
        """'parametric' for a lattice built from field data, 'named' for
        one given by its squares."""
        return "named" if self.params is None else "parametric"

    def label(self, token: str) -> GenLabel:
        try:
            return self.by_token[token]
        except KeyError:
            raise KeyError(f"unknown generator token {token!r}") from None

    def invert_word(self, w: Word) -> Word:
        return tuple(self.inverse[g] for g in reversed(w))

    def commuting_squares(self):
        return tuple(s for s in self.squares if s.commuting)

    def to_json(self) -> dict:
        """The presentation as `quatlat construct` writes it."""
        table = []
        for a, b in self._token_keys():
            b2, a2 = self.swap[a, b]
            table.append({"a": a.to_json(), "b": b.to_json(), "b2": b2.to_json(), "a2": a2.to_json()})
        return {
            "kind": self.kind,
            "name": self.name,
            "params": self.params.to_json() if self.params else None,
            "alphabetA": [l.to_json() for l in self.alphabet_a],
            "alphabetB": [l.to_json() for l in self.alphabet_b],
            "squares": [s.to_json() for s in self.squares],
            "k_tau": self.k_tau,
            "table": table,
        }

    def __repr__(self):
        tag = self.name or (f"q={self.params.field.q}" if self.params else "?")
        return f"Presentation({self.kind}, {tag}, |A|={len(self.alphabet_a)})"


def build_generators(params: LatticeParams):
    """The two index fibers, in enumeration order; both of size q+1."""
    fiber_a = norm_fiber(params.ext, params.a_norm_target)
    fiber_b = norm_fiber(params.ext, params.b_norm_target)
    if set(fiber_a) & set(fiber_b):
        raise ValueError("generator fibers intersect; invalid (c, tau)")
    return fiber_a, fiber_b


def solve_square(params: LatticeParams, xi: QuadElem, eta: QuadElem):
    """The unique (lambda, mu) with xi+eta = lambda+mu and
    xi*conj(eta) = lambda*conj(mu), N(lambda) = s_B, N(mu) = -c.

    Substituting mu = xi+eta-lambda into the second equation gives
    xi*conj(eta) = lambda*conj(xi+eta) - s_B, so
    lambda = (xi*conj(eta) + s_B) * (xi+eta) / N(xi+eta), on index pairs;
    xi+eta != 0 as the fibers are disjoint.  Both norms, mu != 0 and the
    product are checked."""
    ext = params.ext
    if xi.ext is not ext or eta.ext is not ext:
        raise FieldError(f"({xi!r}, {eta!r}) are not both in {ext!r}")
    q, add, mul, neg, inv = ext.field.q, ext.field.add, ext.field.mul, ext.field.neg, ext.field.inv
    times, norm, s_a, s_b = ext._times, ext._norm, neg[ext.c.idx], params.b_norm_target.idx
    tu, tv = add[xi.u.idx * q + eta.u.idx], add[xi.v.idx * q + eta.v.idx]
    if not (tu or tv):
        raise SquareSolveError(f"xi + eta = 0 for ({xi!r}, {eta!r})")
    prod = pu, pv = times(xi.u.idx, xi.v.idx, eta.u.idx, neg[eta.v.idx])
    n_inv = inv[norm(tu, tv)]
    lu, lv = times(add[pu * q + s_b], pv, mul[tu * q + n_inv], mul[tv * q + n_inv])
    mu, mv = add[tu * q + neg[lu]], add[tv * q + neg[lv]]
    if norm(lu, lv) != s_b or not (mu or mv) or norm(mu, mv) != s_a or times(lu, lv, mu, neg[mv]) != prod:
        raise SquareSolveError(f"no solution for ({xi!r}, {eta!r})")
    return ext.pair(lu, lv), ext.pair(mu, mv)


def build_square_table(params: LatticeParams) -> Presentation:
    """The full parametric presentation with its (q+1)^2-entry swap map."""
    fiber_a, fiber_b = build_generators(params)
    labels_a = tuple(GenLabel("A", f"A{i}", index=xi) for i, xi in enumerate(fiber_a))
    labels_b = tuple(GenLabel("B", f"B{i}", index=eta) for i, eta in enumerate(fiber_b))
    at_a, at_b = ({(l.index.u.idx, l.index.v.idx): l for l in labels} for labels in (labels_a, labels_b))
    neg = params.field.neg
    inverse = {l: at[neg[u], neg[v]] for at in (at_a, at_b) for (u, v), l in at.items()}
    swap = {}
    for la in labels_a:
        for lb in labels_b:
            lam, mu = solve_square(params, la.index, lb.index)
            swap[(la, lb)] = (at_b[lam.u.idx, lam.v.idx], at_a[mu.u.idx, mu.v.idx])
    return Presentation(labels_a, labels_b, inverse, swap, params=params)


def expand_squares(
    a_names: Sequence[str],
    b_names: Sequence[str],
    squares: Iterable[tuple],
    name: str | None = None,
) -> Presentation:
    """Expand a literal square list over symbolic letters into a full
    presentation via the four readings of each square.

    Squares are 4-tuples of tokens (a, b, b2, a2) meaning a*b = b2*a2.
    """
    given = [*a_names, *b_names]
    if len(set(given)) != len(given):
        raise ComplexError(f"letter names repeat in {given}")
    labels = {}
    for side, names in (("A", a_names), ("B", b_names)):
        for n in names:
            labels[n] = GenLabel(side, n, inv=False)
            labels[f"{n}^-1"] = GenLabel(side, n, inv=True)
    inverse = {}
    for n in given:
        inverse[labels[n]] = labels[f"{n}^-1"]
        inverse[labels[f"{n}^-1"]] = labels[n]
    alphabet_a = tuple(labels[t] for n in a_names for t in (n, f"{n}^-1"))
    alphabet_b = tuple(labels[t] for n in b_names for t in (n, f"{n}^-1"))

    swap = {}
    for sq in squares:
        try:
            a, b, b2, a2 = (labels[t] for t in sq)
        except KeyError as exc:
            raise ComplexError(f"square {sq} uses unknown token {exc}") from None
        if a.side != "A" or a2.side != "A" or b.side != "B" or b2.side != "B":
            raise ComplexError(f"square {sq} has letters on the wrong sides")
        for key, value in _square_readings(inverse, a, b, b2, a2):
            if swap.setdefault(key, value) != value:
                raise ComplexError(f"overlapping squares at {key}")
    expected = len(alphabet_a) * len(alphabet_b)
    if len(swap) != expected:
        raise ComplexError(f"incomplete complex: {len(swap)} of {expected} pairs covered")
    return Presentation(alphabet_a, alphabet_b, inverse, swap, name=name)


def compute_k_tau(params: LatticeParams) -> int:
    """Smallest k >= 1 with (tau/(tau-1))^((p^k - 1)/2) = 1."""
    field = params.field
    one = field.one
    u = params.tau / (params.tau - one)
    for k in range(1, 2 * field.e + 1):
        if u ** ((field.p**k - 1) // 2) == one:
            return k
    raise SquareSolveError("k_tau not found below the guaranteed bound")


def oracle_check_table(pres: Presentation) -> dict:
    """Check every swap entry as a projective identity in the quaternion
    algebra with f(t) = t; returns {'ok': bool, 'failures': [...], ...}.

    Each entry a*b = b'*a' holds when the two products are equal mod K*,
    which `Quat.same_class` decides by 2x2 minors, without normalizing."""
    if pres.kind != "parametric":
        raise ParameterMismatchError("oracle check needs a parametric lattice")
    algebra = QuatAlgebra(pres.params.ext)
    t = Poly.t(pres.params.field)
    emb = {l: algebra.generator_quat(l.index, t) for l in pres.alphabet_a + pres.alphabet_b}
    failures = []
    for (la, lb), (lb2, la2) in pres.swap.items():
        if not (emb[la] * emb[lb]).same_class(emb[lb2] * emb[la2]):
            failures.append((la.token(), lb.token()))
    return {
        "ok": not failures,
        "checked": len(pres.swap),
        "failures": failures,
    }


def phi_k_map(src: Presentation, dst: Presentation, k: int) -> dict:
    """Letter-to-word substitution sending each source generator to the
    p^k-th power of the matching target generator.

    src must present the lattice at parameter tau^(p^k) where dst is at
    tau; A letters map index-identically, B letters through the inverse
    of the norm-twisted scaling.
    """
    if src.kind != "parametric" or dst.kind != "parametric":
        raise ParameterMismatchError("power maps need parametric lattices")
    sp, dp = src.params, dst.params
    if sp.ext != dp.ext:
        raise ParameterMismatchError("source and target have different (q, c)")
    m = dp.field.p**k
    if sp.tau != dp.tau**m:
        raise ParameterMismatchError("source tau is not tau^(p^k) of the target")
    one = dp.field.one
    scale = (dp.tau / (dp.tau - one)) ** ((m - 1) // 2)
    scale_inv = scale.inverse()
    mapping = {}
    for l in src.alphabet_a:
        mapping[l] = (dst.by_index[l.index],) * m
    for l in src.alphabet_b:
        mapping[l] = (dst.by_index[l.index * scale_inv],) * m
    return mapping


def letter_map(src: Presentation, dst: Presentation, images: dict) -> dict:
    """Build a substitution from {token: word-token-list} data, extended
    to inverse letters."""
    mapping = {}
    for token, image in images.items():
        label = src.label(token)
        word = tuple(dst.label(t) for t in image)
        mapping[label] = word
        mapping[src.inverse[label]] = dst.invert_word(word)
    missing = [l.token() for l in src.alphabet_a + src.alphabet_b if l not in mapping]
    if missing:
        raise ParameterMismatchError(f"map not defined on {missing}")
    return mapping


def verify_homomorphism(src: Presentation, dst: Presentation, mapping: dict) -> dict:
    """Every defining relation of src must map to the identity of dst."""
    from . import rewrite

    failures = []
    for l in src.alphabet_a + src.alphabet_b:
        w = mapping[l] + mapping[src.inverse[l]]
        if not rewrite.is_identity(dst, w):
            failures.append(("inverse", l.token()))
    for (la, lb), (lb2, la2) in src.swap.items():
        w = mapping[la] + mapping[lb] + dst.invert_word(mapping[la2]) + dst.invert_word(
            mapping[lb2]
        )
        if not rewrite.is_identity(dst, w):
            failures.append(("square", la.token(), lb.token()))
    return {"ok": not failures, "failures": failures}


def check_finite_lemmas(pres: Presentation, powers=(1, 2, 3, 4)) -> dict:
    """Exhaustive checks of the index identities and of the p^n power
    relations against the k_tau divisibility criterion.

    For every entry: lambda = eta iff mu = xi, and the conjugate variant.
    For entry pairs chained through a shared (eta, lambda): the chain
    forces lambda = eta.  For every non-commuting square and each n in
    powers: a^(p^n) b^(p^n) = b'^(p^n) a'^(p^n) (decided by rewriting)
    iff k_tau divides n.
    """
    from . import rewrite

    if pres.kind != "parametric":
        raise ParameterMismatchError("finite lemma checks need a parametric lattice")
    if any(n < 0 for n in powers):
        raise ValueError(f"powers must be >= 0, got {tuple(powers)}")
    p = pres.params.field.p
    failures = []
    entries = []
    for (la, lb), (lb2, la2) in pres.swap.items():
        entries.append((la.index, lb.index, lb2.index, la2.index, la, lb, lb2, la2))

    for xi, eta, lam, mu, *_ in entries:
        if (lam == eta) != (mu == xi):
            failures.append(("eta-mu", repr(xi), repr(eta)))
        if (lam == eta.conj()) != (mu == xi.conj()):
            failures.append(("conj", repr(xi), repr(eta)))

    # chained pairs: a_xi b_eta = b_lam a_mu and a_mu b_eta = b_lam a_chi
    by_key = {(xi, eta): (lam, mu) for xi, eta, lam, mu, *_ in entries}
    for xi, eta, lam, mu, *_ in entries:
        lam2, chi = by_key[(mu, eta)]
        if lam2 == lam and not (lam == eta and xi == mu and mu == chi):
            failures.append(("chain", repr(xi), repr(eta)))

    power_report = {}
    for xi, eta, lam, mu, la, lb, lb2, la2 in entries:
        if lam == eta:
            continue
        for n in powers:
            m = p**n
            w = (
                (la,) * m
                + (lb,) * m
                + (pres.inverse[la2],) * m
                + (pres.inverse[lb2],) * m
            )
            holds = rewrite.is_identity(pres, w)
            expected = n % pres.k_tau == 0
            power_report[(la.token(), lb.token(), n)] = holds
            if holds != expected:
                failures.append(("power", la.token(), lb.token(), n, holds))
    return {"ok": not failures, "failures": failures, "powers": power_report}


# ---------------------------------------------------------------------------
# named lattices


# name -> (A names, B names, squares "a b b2 a2" meaning a*b = b2*a2)
_NAMED = {
    "gamma3": ("a b", "x y", ("a x x^-1 b", "a y y^-1 b^-1", "a y^-1 x a^-1", "b x y b^-1")),
    "gamma4": ("a b", "x y", ("a x y b", "a y y^-1 b", "b x x a^-1", "b y x^-1 a")),
    "gamma32": ("a b c", "x y", ("a x x b", "a y y b", "b x y a", "b y x c", "c x y c", "c y x a")),
}
_NAMED_CACHE: dict = {}


def named_presentation(name: str) -> Presentation:
    """The named lattice expanded from its squares in `_NAMED`, built once."""
    if name not in _NAMED_CACHE:
        a_names, b_names, squares = _NAMED[name]
        _NAMED_CACHE[name] = expand_squares(a_names.split(), b_names.split(), map(str.split, squares), name=name)
    return _NAMED_CACHE[name]


def gamma3_dictionary(parametric: Presentation, named: Presentation) -> dict:
    """The fixed identification of the abstract q=3 letters with the
    parametric generators: a, b, x, y <-> indices 1, -Z, 1+Z, 1-Z."""
    ext = parametric.params.ext
    pairs = {
        "a": parametric.by_index[ext.element(1)],
        "b": parametric.by_index[ext.element(0, -1)],
        "x": parametric.by_index[ext.element(1, 1)],
        "y": parametric.by_index[ext.element(1, -1)],
    }
    mapping = {}
    for token, plabel in pairs.items():
        nlabel = named.label(token)
        mapping[nlabel] = plabel
        mapping[named.inverse[nlabel]] = parametric.inverse[plabel]
    return mapping


def check_gamma3_dictionary(parametric: Presentation, named: Presentation) -> bool:
    """The dictionary must carry every named swap entry to a parametric one."""
    d = gamma3_dictionary(parametric, named)
    for (la, lb), (lb2, la2) in named.swap.items():
        if parametric.swap[(d[la], d[lb])] != (d[lb2], d[la2]):
            return False
    return True


# ---------------------------------------------------------------------------
# JSON


def presentation_from_json(data: dict) -> Presentation:
    """A presentation as `quatlat construct` writes it, rebuilt from its
    params, or from a named lattice's letter names and squares; every
    field stored must equal the rebuilt one's."""
    kind = data["kind"]
    if kind == "parametric":
        pres = build_square_table(LatticeParams.from_json(data["params"]))
    elif kind == "named":
        a_names, b_names = ([l["name"] for l in data[side] if not l["inv"]] for side in ("alphabetA", "alphabetB"))
        squares = [
            tuple(f"{sq[k]['name']}^-1" if sq[k]["inv"] else sq[k]["name"] for k in ("a", "b", "b2", "a2"))
            for sq in data["squares"]
        ]
        pres = expand_squares(a_names, b_names, squares, name=data.get("name"))
    else:
        raise ValueError(f"unknown presentation kind {kind!r}")
    rebuilt = pres.to_json()
    for key in sorted(data):
        if key not in rebuilt or data[key] != rebuilt[key]:
            raise ValueError(f"stored {key!r} differs from the {kind} presentation it describes")
    return pres
