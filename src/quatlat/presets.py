"""Bundled lattices, their checked facts, and the reproducible example
languages.

Presets: the four named lattices (expanded from their squares, and
cached, by `lattice.named_presentation`) and the two smallest parametric ones.
The letter maps, as data for `lattice.letter_map` checked by
`lattice.verify_homomorphism` (the power endomorphisms of gamma3 and
gamma4, and the dictionary from gamma3 onto q3), and the gamma3 orbit
sizes are stated here once, for `quatlat verify` and `quatlat repro` alike.
Each example language pairs a bounded language over a preset with the
symbolic set its enumeration must reproduce; `quatlat compare` consumes
this registry.
"""

from __future__ import annotations

from .ff import Value
from .lattice import LatticeParams, Presentation, build_square_table, named_presentation
from .parikh import BoundedLanguageSpec, LinearSet, PowerDiagonal, SemilinearSet
from .rewrite import orbit_size, parse_word

PRESET_NAMES = ("gamma3", "gamma4", "gamma32", "f2xf2", "q3", "q5")

_PARAM_PRESETS = {
    "q3": (3, 1, -1, -1),
    "q5": (5, 1, 2, 3),
}

_PARAM_CACHE: dict = {}


def get_presentation(name: str) -> Presentation:
    if name in _PARAM_PRESETS:
        if name not in _PARAM_CACHE:
            _PARAM_CACHE[name] = build_square_table(LatticeParams.make(*_PARAM_PRESETS[name]))
        return _PARAM_CACHE[name]
    if name in PRESET_NAMES:
        return named_presentation(name)
    raise KeyError(f"unknown preset {name!r}; have {PRESET_NAMES}")


# The power endomorphisms of two named lattices, by lattice name: the
# name of the map and the image of each letter, for `lattice.letter_map`.
ENDOMORPHISMS = {
    "gamma3": ("cube", {"a": ["a"] * 3, "b": ["b"] * 3, "x": ["x^-1"] * 3, "y": ["y^-1"] * 3}),
    "gamma4": ("fourth_power", {"a": ["a"] * 4, "b": ["b"] * 4, "x": ["x"], "y": ["y"]}),
}

# The identification of gamma3 with q3: a, b, x, y go to the letters of
# indices 1, -Z, 1+Z, 1-Z.
GAMMA3_DICTIONARY = {"a": ["A0"], "b": ["A3"], "x": ["B0"], "y": ["B2"]}


def gamma3_orbits(g3: Presentation) -> tuple:
    """The sizes of the pi_a orbit of x^2 and of the pi_x orbit of a^2,
    on a presentation of gamma3; both are 12."""
    a, x = parse_word(g3, "a"), parse_word(g3, "x")
    return orbit_size(g3, a, x + x), orbit_size(g3, x, a + a)


class ExampleLanguage(Value):
    __slots__ = ("lattice", "words", "expected", "bound", "signed", "remap")

    def __init__(self, lattice: str, words: str, expected, bound: int, signed: bool = False,
                 remap: tuple | None = None):
        self._set(lattice, words, expected, bound, signed, remap)

    def spec(self, pres: Presentation) -> BoundedLanguageSpec:
        blocks = tuple(parse_word(pres, w) for w in self.words.split(";"))
        return BoundedLanguageSpec(blocks, signed=self.signed, remap=self.remap)


def _diag_orbit_set(n: int):
    """The mixed-equation solution set at q=3: the trivial family plus
    the signed orbit of (1,1,1,1) under (i,j,k,l) -> (3i,-3j,-3k,3l),
    which is how the cube endomorphism transports the base square."""
    pts = {(0, 0, 0, 0)}
    for k in range(1, n + 1):
        pts.add((0, k, -k, 0))
        pts.add((0, -k, k, 0))
    t = (1, 1, 1, 1)
    while max(abs(x) for x in t) <= n:
        pts.add(t)
        pts.add(tuple(-x for x in t))
        t = (3 * t[0], -3 * t[1], -3 * t[2], 3 * t[3])
    return pts


_L = LinearSet
_S = SemilinearSet.of

_NINTH_POWER_DIAGONAL = PowerDiagonal(9, 4)
_GAMMA4_POWER_SET = _S((0, 0, 0, 0), _L((1, 1, 1, 1), ((3, 0, 3, 0),)))
_GAMMA32_STRIPS = _S(_L((0, 0, 0, 0), ((0, 1, 0, 1),)), _L((0, 1, 0, 1), ((1, 0, 1, 0),)))
_COMMUTING_SET = _S(_L((0, 0, 0, 0), ((1, 0, 1, 0), (0, 1, 0, 1))))

EXAMPLES = {
    e.lattice + "/" + e.words: e
    for e in [
        ExampleLanguage("gamma3", "a;x;b^-1;x", _NINTH_POWER_DIAGONAL, 30),
        ExampleLanguage(
            "gamma3",
            "a;x;b;x",
            _diag_orbit_set,
            10,
            signed=True,
            remap=((0, 1), (1, 1), (3, 1), (2, -1)),
        ),
        ExampleLanguage("gamma4", "a;x;b^-1;y^-1", _GAMMA4_POWER_SET, 15),
        ExampleLanguage("gamma4", "a;y;b^-1;y", _GAMMA4_POWER_SET, 15),
        ExampleLanguage("gamma4", "b;y;a^-1;x", _GAMMA4_POWER_SET, 15),
        ExampleLanguage(
            "gamma4",
            "b;x;a;x^-1",
            _S(
                (0, 0, 0, 0),
                _L((0, 1, 0, 1), ((1, 0, 1, 0),)),
                _L((0, 0, 0, 0), ((0, 1, 0, 1),)),
                _L((0, 1, 0, 1), ((3, 0, 3, 0), (0, 4, 0, 4))),
            ),
            15,
        ),
        ExampleLanguage("gamma32", "a;x;b^-1;x^-1", _GAMMA32_STRIPS, 10),
        ExampleLanguage("gamma32", "a;y;b^-1;y^-1", _GAMMA32_STRIPS, 10),
        ExampleLanguage("gamma32", "b;x;a^-1;y^-1", _S((0, 0, 0, 0), (1, 1, 1, 1), (3, 3, 3, 3)), 10),
        ExampleLanguage("gamma32", "b;y;c^-1;x^-1", _S((0, 0, 0, 0), (1, 1, 1, 1)), 10),
        ExampleLanguage(
            "gamma32",
            "c;x;c^-1;y^-1",
            _S(_L((1, 0, 1, 0), ((0, 1, 0, 1),)), _L((0, 0, 0, 0), ((1, 0, 1, 0),))),
            10,
        ),
        ExampleLanguage("gamma32", "c;y;a^-1;x^-1", _S((0, 0, 0, 0), (1, 1, 1, 1)), 10),
        ExampleLanguage("q3", "A0;B0;A2;B0", _NINTH_POWER_DIAGONAL, 30),
        ExampleLanguage("q5", "A0;B2;A0^-1;B2^-1", _COMMUTING_SET, 10),
    ]
}


def first_commuting_language(pres: Presentation):
    """The a*b*(a^-1)*(b^-1)* language of the first commuting square of a
    parametric lattice, with its semilinear prediction {(n, m, n, m)}."""
    commuting = pres.commuting_squares()
    if not commuting:
        raise ValueError("lattice has no commuting square")
    a, b = commuting[0].a, commuting[0].b
    spec = BoundedLanguageSpec(((a,), (b,), (pres.inverse[a],), (pres.inverse[b],)))
    return spec, _COMMUTING_SET
