"""Words over a presentation's alphabets, their two-sided normal forms,
and the induced permutation actions.

An element has a unique factorization u * v with u a reduced A-word and
v a reduced B-word, and a unique reversed factorization v' * u'; both
components of the two forms have equal lengths.  Normal forms are
computed letter by letter: a letter arriving on the wrong side of the
current form is pushed through the other component one swap at a time
(each swap replaces one letter and preserves counts), then freely
reduced into its own component, so the total length never increases.

The swap table is a bireversible Mealy automaton: the pushed letter is
its state, the letters of the component are its input.  Inside the
rewriting core the two parts of a form are lists of letter codes
(positions in alphabet_a + alphabet_b), changed in place, and the
automaton is the presentation's row table, one row per letter code: a
swap is `row, x = row[x]`, with no label hashed or compared on the way
through.  `pres.swap`, the dict form, stays the source of truth.  Labels
appear only at the edges: `append_letter` receives the arriving letter
as a label and rewrites the code lists, and `normal_form` decodes them
once.

The word problem is: both components empty.  The tables are never
mutated and each call owns its lists, so everything here is safe to
call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import GenLabel, Presentation, Word


class MixedSidesError(ValueError):
    """A one-sided operation received letters from both alphabets."""


class NotApplicableError(ValueError):
    """Operation undefined for this lattice kind."""


@dataclass(slots=True)
class NormalForm:
    """Reduced A-part and B-part; order 'AB' means a_part * b_part,
    order 'BA' means b_part * a_part."""

    a_part: Word
    b_part: Word
    order: str

    def __len__(self):
        return len(self.a_part) + len(self.b_part)

    @property
    def is_identity(self) -> bool:
        return not self.a_part and not self.b_part


def _push_through(row, word):
    """Rewrite word * c as c' * word' in place, for a one-sided code list
    and the row of a letter c of the other side; returns the code of c'."""
    for i in range(len(word) - 1, -1, -1):
        row, word[i] = row[word[i]]
    return row[-1]


def append_letter(pres: Presentation, a_part: list, b_part: list, g: GenLabel, order: str = "AB") -> None:
    """One step of normal-form computation: tack the letter g on the
    right of the element a_part * b_part (order 'AB') or b_part * a_part
    ('BA'), whose parts are lists of letter codes, changed in place."""
    c = g.code
    own, other = (a_part, b_part) if g.side == "A" else (b_part, a_part)
    if other and g.side != order[1]:  # the other part stands to the right
        c = _push_through(pres._rows[c], other)
    if own and own[-1] == pres._inv_code[c]:
        own.pop()
    else:
        own.append(c)


def _parts(pres: Presentation, w: Word, order: str):
    """The code lists of w's normal form in the given order."""
    a_part, b_part = [], []
    for g in w:
        append_letter(pres, a_part, b_part, g, order)
    return a_part, b_part


def _labels(pres: Presentation, codes) -> Word:
    # a list comprehension sizes the tuple exactly; tuple(map(...)) resizes
    # a guessed one, which strands tuples on CPython's per-size free lists
    letters = pres._letters
    return tuple([letters[c] for c in codes])


def free_reduce(pres: Presentation, w: Word) -> Word:
    """Cancel adjacent inverse pairs in a one-sided word: its normal
    form, which has one part."""
    if len({g.side for g in w}) > 1:
        raise MixedSidesError("free reduction needs a one-sided word")
    a_part, b_part = _parts(pres, w, "AB")
    return _labels(pres, a_part or b_part)


def normal_form(pres: Presentation, w: Word, order: str = "AB") -> NormalForm:
    """The unique two-sided normal form of w, in the requested order."""
    if order not in ("AB", "BA"):
        raise ValueError(f"order must be 'AB' or 'BA', not {order!r}")
    a_part, b_part = _parts(pres, w, order)
    assert len(a_part) + len(b_part) <= len(w), "normal form grew"
    return NormalForm(_labels(pres, a_part), _labels(pres, b_part), order)


def is_identity(pres: Presentation, w: Word) -> bool:
    a_part, b_part = _parts(pres, w, "AB")
    return not a_part and not b_part


def pi_action(pres: Presentation, g: Word, h: Word):
    """For an A-word g and B-word h, the pair (pi_g(h), pi_h(g)) from the
    reversed normal form g*h = pi_g(h) * pi_h(g); both lengths are
    preserved.  The AB normal form of g*h is the pair of free reductions
    of g and h."""
    g, h = tuple(g), tuple(h)
    if any(l.side != "A" for l in g) or any(l.side != "B" for l in h):
        raise MixedSidesError("pi action needs an A-word and a B-word")
    ab, ba = normal_form(pres, g + h), normal_form(pres, g + h, "BA")
    assert len(ba.b_part) == len(ab.b_part) and len(ba.a_part) == len(ab.a_part), "pi action changed lengths"
    return ba.b_part, ba.a_part


def orbit_size(pres: Presentation, g: Word, h: Word) -> int:
    """Cycle length of h under repeated application of h -> pi_g(h).

    g and h live on opposite sides; either orientation works (an A-word
    acting on a B-word through the left action, or a B-word acting on an
    A-word through the right one).
    """
    g = free_reduce(pres, tuple(g))
    start = free_reduce(pres, tuple(h))
    if not g:
        return 1
    if g[0].side == "A":
        step = lambda w: pi_action(pres, g, w)[0]
    else:
        step = lambda w: pi_action(pres, w, g)[1]
    cur = step(start)
    n = 1
    while cur != start:
        cur = step(cur)
        n += 1
    return n


def commutes(pres: Presentation, g: Word, h: Word) -> bool:
    g, h = tuple(g), tuple(h)
    return is_identity(pres, g + h + pres.invert_word(g) + pres.invert_word(h))


def is_anti_torus(pres: Presentation, g: Word, h: Word) -> bool:
    """For a parametric lattice: an A-word and a B-word span an anti-torus
    exactly when they do not commute."""
    if pres.kind != "parametric":
        raise NotApplicableError("anti-torus criterion holds for parametric lattices only")
    g = free_reduce(pres, tuple(g))
    h = free_reduce(pres, tuple(h))
    if any(l.side != "A" for l in g) or any(l.side != "B" for l in h):
        raise MixedSidesError("anti-torus test needs an A-word and a B-word")
    if not g or not h:
        return False
    return not commutes(pres, g, h)


def parse_word(pres: Presentation, text: str) -> Word:
    """Parse comma-separated tokens like 'a^9,x^9,b^-9,x^9'."""
    letters: list = []
    text = text.strip()
    if not text:
        return ()
    for token in text.split(","):
        token = token.strip()
        base, caret, exp = token.partition("^")
        base = base.strip()
        if caret and not base:
            raise ValueError(f"word token {token!r} has no generator before '^'")
        try:
            n = int(exp) if caret else 1
        except ValueError:
            raise ValueError(f"word token {token!r} has no integer exponent after '^'") from None
        label = pres.label(base)
        if n < 0:
            label, n = pres.inverse[label], -n
        letters.extend([label] * n)
    return tuple(letters)

