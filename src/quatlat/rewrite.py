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
as a label, looks its code up in the presentation's `_code` and
rewrites the code lists, and `normal_form` decodes them once.  A letter
of another presentation has no code there and raises `KeyError`.

`append_letter` reads the letter's side once and branches on it, and
`_push_through` walks the part from the right with a running index, so
each swap reads one letter of the part and writes its replacement.  The
order is 'AB' or 'BA', checked once per word by `normal_form`, not once
per letter.

A run of same-side letters that must cross the other component is
pushed through it as a whole when both have at least `_RUN_MIN` = 56
letters, the size at which the two ways cost the same (`_push_run`).
The run's swaps form a rectangle; the swap where run letter i meets part
letter j needs only the swap where i met the letter before j and the one
where i - 1 met j, so the swaps of one anti-diagonal depend only on the
one before and are done together.  A swap is coded as one byte, state
index times n_y plus letter index, so this needs n_A * n_B <= 256 (q <=
13 for the parametric lattices; larger alphabets keep the row loop), and
two `bytes.translate` calls give the next states and the next letters of
a whole anti-diagonal.  Every letter outside such a run still goes
through `append_letter`, and `_push_through`, the row loop, stays the
oracle the push is tested against.  The normal forms of
a^(p^n) b^(p^n) ... in `quatlat verify --lattice q5 --suite lemmas
--powers 1,2,3,4` took 0.38 s with the row loop alone and take 0.17 s,
and `verify --lattice q3 --suite all --powers 1,2,3,4,5,6` went from
0.36 to 0.16 s (best of five, 2-vCPU Xeon, Python 3.11).

The word problem is: both components empty.  The tables are never
mutated and each call owns its lists, so everything here is safe to
call concurrently.
"""

from __future__ import annotations

from itertools import islice
from typing import TYPE_CHECKING

from .ff import Value

if TYPE_CHECKING:  # annotations only: lattice imports this module
    from .lattice import GenLabel, Presentation, Word


class MixedSidesError(ValueError):
    """A one-sided operation received letters from both alphabets."""


class NotApplicableError(ValueError):
    """Operation undefined for this lattice kind."""


class NormalForm(Value):
    """Reduced A-part and B-part; order 'AB' means a_part * b_part,
    order 'BA' means b_part * a_part."""

    __slots__ = ("a_part", "b_part", "order")

    def __init__(self, a_part: Word, b_part: Word, order: str):
        object.__setattr__(self, "a_part", a_part)
        object.__setattr__(self, "b_part", b_part)
        object.__setattr__(self, "order", order)

    def __len__(self):
        return len(self.a_part) + len(self.b_part)

    @property
    def is_identity(self) -> bool:
        return not self.a_part and not self.b_part


def _push_through(row, word):
    """Rewrite word * c as c' * word' in place, for a one-sided code list
    and the row of a letter c of the other side; returns the code of c'.

    The loop walks `word` from the right with a running index, so each
    cell reads its letter once and writes the letter that replaces it."""
    i = len(word)
    for y in reversed(word):  # each write lands where the iterator has just read
        i -= 1
        row, word[i] = row[y]
    return row[-1]


def append_letter(pres: Presentation, a_part: list, b_part: list, g: GenLabel, order: str = "AB") -> None:
    """One step of normal-form computation: tack the letter g on the
    right of the element a_part * b_part (order 'AB') or b_part * a_part
    ('BA'), whose parts are lists of letter codes, changed in place.

    `order` is 'AB' or 'BA' and is not checked again for each letter:
    `normal_form` checks it before `_parts` passes it on, and `_products`
    passes the default.  The letter's side is read once.  An A letter
    crosses the B part when that part stands to the right (order 'AB')
    and is nonempty, a B letter the A part when order is 'BA'; then the
    letter is freely reduced into its own part."""
    c = pres._code[g]
    if g.side == "A":
        if b_part and order == "AB":
            c = _push_through(pres._rows[c], b_part)
        own = a_part
    else:
        if a_part and order == "BA":
            c = _push_through(pres._rows[c], a_part)
        own = b_part
    if own and own[-1] == pres._inv_code[c]:
        own.pop()
    else:
        own.append(c)


# A run of at least this many letters, crossing a part of at least as
# many, takes the anti-diagonal push: at 56 x 56 the two pushes cost about
# the same on gamma3, gamma32 and q5 (2-vCPU Xeon, Python 3.11)
_RUN_MIN = 56


def _push_run(pres: Presentation, run, other: list) -> bytes:
    """Push the letter codes in `run`, a nonempty run of one side's
    letters, through the code list `other` of the other side, rewritten in
    place; returns the codes pushed out, in order, as bytes: the codes
    len(run) calls of `_push_through` would return.

    In cell (i, j) run letter i meets letter j of `other`, counted from
    the right; its inputs are the outputs of cells (i, j - 1) and
    (i - 1, j), so the cells of one anti-diagonal are independent and go
    through as one byte string, the band.  A cell is the byte s * ny + y,
    with s and y the indices of its two letters in their alphabets and ny
    the size of other's, so this needs n_A * n_B <= 256; one translate
    gives each cell's next state times ny, one its next letter.  After each
    step the first state leaves the band once it has crossed all of other
    and the last letter once it has met the whole run, and the next run
    letter and the next letter of other join at the two ends: each letter
    moves one place on against the states."""
    n_a, rows = len(pres.alphabet_a), pres._rows
    if run[0] < n_a:
        s0, y0, y1 = 0, n_a, len(rows)
    else:
        s0, y0, y1 = n_a, 0, n_a
    ny = y1 - y0
    cells = [row[y] for row in rows[s0 : s0 + len(rows) - ny] for y in range(y0, y1)]
    to_state = bytes([(nxt[-1] - s0) * ny for nxt, _ in cells]).ljust(256, b"\0")
    to_letter = bytes([out - y0 for _, out in cells]).ljust(256, b"\0")
    k, n = len(run), len(other)
    entering_states = bytes((c - s0) * ny for c in run)
    entering_letters = bytes(y - y0 for y in reversed(other))
    states, letters = entering_states[:1], entering_letters[:1]
    pushed, passed = bytearray(), bytearray()
    as_int = int.from_bytes
    for d in range(k + n - 1):
        # no byte of the sum carries: each is a cell, below 256
        z = (as_int(states, "big") + as_int(letters, "big")).to_bytes(len(states), "big")
        states, letters = z.translate(to_state), z.translate(to_letter)
        if d >= n - 1:  # the first state in the band has crossed all of other
            pushed.append(states[0])
            states = states[1:]
        if d >= k - 1:  # the last letter has met the whole run
            passed.append(letters[-1])
            letters = letters[:-1]
        states += entering_states[d + 1 : d + 2]
        letters = entering_letters[d + 1 : d + 2] + letters
    other.clear()  # so the old and the new letters are never held at once
    other.extend(y + y0 for y in reversed(passed))
    return bytes(s // ny + s0 for s in pushed)


def _parts(pres: Presentation, w: Word, order: str):
    """The code lists of w's normal form in the given order.  A run of at
    least _RUN_MIN letters of side order[0], arriving while the part of
    the other side has at least _RUN_MIN letters, goes through `_push_run`;
    every other letter goes through `append_letter`."""
    a_part, b_part = [], []
    rest = w
    if len(w) >= 2 * _RUN_MIN and len(pres.alphabet_a) * len(pres.alphabet_b) <= 256:
        own, other = (a_part, b_part) if order[0] == "A" else (b_part, a_part)
        inv = pres._inv_code
        sides, long_run = "".join([g.side for g in w]), order[0] * _RUN_MIN
        done, start = 0, sides.find(long_run)
        while start >= 0:
            end = sides.find(order[1], start)
            end = len(w) if end < 0 else end
            for g in islice(w, done, start):
                append_letter(pres, a_part, b_part, g, order)
            done = start
            if len(other) >= _RUN_MIN:
                for c in _push_run(pres, bytes(map(pres._code.__getitem__, islice(w, start, end))), other):
                    if own and own[-1] == inv[c]:
                        own.pop()
                    else:
                        own.append(c)
                done = end
            start = sides.find(long_run, end)
        rest = islice(w, done, None)
    for g in rest:
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
    """For a parametric lattice, an A-word g and a B-word h: True iff both
    are nonempty after free reduction and the single commutator [g, h] is
    not the identity.  No higher powers g^t, h^l are checked, so this is
    a necessary condition for an anti-torus, not a proof of one."""
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

