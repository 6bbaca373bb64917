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
letters (`_push_run`).  The run's swaps form a rectangle; the swap where
run letter i meets part letter j needs only the swap where i met the
letter before j and the one where i - 1 met j, so the swaps of one
anti-diagonal depend only on the one before and are done together.  A
byte carries h consecutive run letters and one letter of the part, with
h the largest count for which n_s^h * n_y <= 256, n_s and n_y being the
sizes of the run's alphabet and of the other: h is 3 on 4 + 4 letters
(gamma3, gamma4, q3), 2 on gamma32 and q5, 1 from q = 7 on, and q > 13
(n_A * n_B > 256) keeps the row loop.  Two `bytes.translate` calls give
the next states and the next letters of a whole anti-diagonal, and the
len(run) % h letters left over go through the row loop.  The two tables
depend only on the presentation and the side, and are built on first use
into the dict `pres._band` that `Presentation.__init__` makes, so no
attribute is added to a presentation later (that slows every attribute
read of it).  Every letter outside such a run still goes through
`append_letter`, and `_push_through`, the row loop, stays the oracle the
push is tested against.  The normal forms of a^(p^n) b^(p^n) ... in
`quatlat verify --lattice q5 --suite lemmas --powers 1,2,3,4` take 54-60
ms, against 82-85 ms with one run letter per byte, and those of `verify
--lattice q3 --suite all --powers 1,2,3,4,5,6` 43-44 ms against 83-85 ms
(best of five in one process, 2-vCPU Xeon, Python 3.11).

The word problem is: both components empty.  The swap tables are never
mutated, a band table is stored whole (two callers that build it at once
store equal ones), and each call owns its lists, so everything here is
safe to call concurrently.
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
# many, takes the anti-diagonal push.  With h run letters per byte the two
# pushes cost the same near 34 x 34 on gamma3, gamma32 and q5, and at
# 56 x 56 the band takes 0.7 of the row loop's time (best of 200, 2-vCPU
# Xeon, Python 3.11); the bound is kept from when a byte held one run
# letter and the two broke even at 56 x 56
_RUN_MIN = 56


def _band_tables(pres: Presentation, s0: int):
    """The band tables of the runs whose codes start at s0 (0 for A runs,
    n_A for B runs), stored in `pres._band` on first use.  With ns and ny
    the sizes of the run's alphabet and of the other one, h is the largest
    count with ns^h * ny <= 256, and the byte S * ny + y, S the sum of
    s_t * ns^t over t < h, is the cell where the letter y meets h run
    letters of indices s_t.  It pushes y through them in turn: `to_state`
    gives the S' of the h pushed letters times ny, `to_letter` the last y,
    and `codes[S' * ny]` the h pushed codes; `weights` holds the ns^t * ny."""
    rows, n_a = pres._rows, len(pres.alphabet_a)
    ns = n_a if s0 == 0 else len(rows) - n_a
    y0, ny = n_a - s0, len(rows) - ns
    h = max(t for t in range(1, 8) if ns**t * ny <= 256)
    to_state, to_letter = bytearray(256), bytearray(256)
    for s in range(ns**h):
        for y in range(ny):
            out, c = 0, y + y0
            for t in range(h):
                row, c = rows[s // ns**t % ns + s0][c]
                out += (row[-1] - s0) * ns**t
            to_state[s * ny + y], to_letter[s * ny + y] = out * ny, c - y0
    codes = [bytes([v // ny // ns**t % ns + s0 for t in range(h)]) for v in range(256)]
    band = pres._band[s0] = (tuple(ns**t * ny for t in range(h)), bytes(to_state), bytes(to_letter), codes)
    return band


def _push_run(pres: Presentation, run, other: list) -> bytes:
    """Push the letter codes in `run`, a nonempty run of one side's
    letters, through the code list `other` of the other side, rewritten in
    place; returns the codes pushed out, in order, as bytes: the codes
    len(run) calls of `_push_through` would return.

    The run is read as k = len(run) // h blocks of h letters, each one
    super-state of the side's band tables (`_band_tables`).  In cell (i, j)
    block i meets letter j of `other`, counted from the right; its inputs
    are the outputs of cells (i, j - 1) and (i - 1, j), so the cells of
    one anti-diagonal are independent and go through as one byte string,
    the band.  One translate gives each cell's next super-state times ny,
    one its next letter.  After each step the first state leaves the band
    once it has crossed all of other and the last letter once it has met
    every block, and the next block and the next letter of other join at
    the two ends: each letter moves one place on against the states.  The
    len(run) % h letters left over then go through `_push_through`."""
    s0 = 0 if run[0] < len(pres.alphabet_a) else len(pres.alphabet_a)
    weights, to_state, to_letter, codes = pres._band.get(s0) or _band_tables(pres, s0)
    y0, h, rows = len(pres.alphabet_a) - s0, len(weights), pres._rows
    k, n = len(run) // h, len(other)
    if not k:
        return bytes([_push_through(rows[c], other) for c in run])
    as_int = int.from_bytes
    # no byte of these sums borrows or carries: each ends as a cell, below 256
    base = as_int(bytes([s0]) * k, "big")
    blocks = sum((as_int(bytes(run[t : k * h : h]), "big") - base) * w for t, w in enumerate(weights))
    entering_states = blocks.to_bytes(k, "big")
    entering_letters = bytes(y - y0 for y in reversed(other))
    states, letters = entering_states[:1], entering_letters[:1]
    pushed, passed = bytearray(), bytearray()
    for d in range(k + n - 1):
        z = (as_int(states, "big") + as_int(letters, "big")).to_bytes(len(states), "big")
        states, letters = z.translate(to_state), z.translate(to_letter)
        if d >= n - 1:  # the first state in the band has crossed all of other
            pushed.append(states[0])
            states = states[1:]
        if d >= k - 1:  # the last letter has met every block
            passed.append(letters[-1])
            letters = letters[:-1]
        states += entering_states[d + 1 : d + 2]
        letters = entering_letters[d + 1 : d + 2] + letters
    other.clear()  # so the old and the new letters are never held at once
    other.extend(y + y0 for y in reversed(passed))
    return b"".join(map(codes.__getitem__, pushed)) + bytes([_push_through(rows[c], other) for c in run[k * h :]])


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

