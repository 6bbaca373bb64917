"""Every value class derives from `ff.Value`: its slots cannot be
assigned or deleted, two values built alike are equal and hash alike,
and a value equals neither a value of another class nor its own key
tuple.  `GenLabel` equals only itself; so does `FieldElem`, of which
each field makes one object per index."""

import inspect

import pytest

import quatlat
from quatlat.acceptance import CheckResult
from quatlat.ff import Field, QuadExt, Value
from quatlat.lattice import GenLabel, LatticeParams, Square
from quatlat.parikh import BoundedLanguageSpec, CompareReport, LinearSet, PowerDiagonal, SemilinearSet
from quatlat.presets import ExampleLanguage
from quatlat.quat import Mat3, Poly, QuatAlgebra, RatFun
from quatlat.rewrite import NormalForm

F5 = Field(5)
EXT = QuadExt(F5, 2)
ALG = QuatAlgebra(EXT)
A, B = GenLabel("A", "a"), GenLabel("B", "b")
T = Poly.t(F5)

# one builder per value class; each call builds a new value, except for
# FieldElem, whose calls return the field's one element of that index
BUILDERS = {
    "FieldElem": lambda: F5.element(2),
    "QuadElem": lambda: EXT.element(1, 3),
    "Poly": lambda: Poly(F5, (1, 2, 3)),
    "Quat": lambda: ALG.element(1, 2, T * 3, 4),
    "ProjQuat": lambda: ALG.element(T * 2, 4, 0, T * 2 + 2).projective(),
    "RatFun": lambda: RatFun(Poly(F5, (1, 1)), Poly(F5, (0, 2))),
    "Mat3": lambda: Mat3(F5, [[1, 0, 0], [0, T, 0], [0, 0, 1]]),
    "GenLabel": lambda: GenLabel("A", "a"),
    "LatticeParams": lambda: LatticeParams.make(5, 1, 2, 3),
    "Square": lambda: Square(A, B, B, A, True),
    "BoundedLanguageSpec": lambda: BoundedLanguageSpec(((A,), (B,)), signed=True, remap=((1, -1), (0, 1))),
    "LinearSet": lambda: LinearSet((1, 1), ((0, 2), (1, 0), (0, 0))),
    "SemilinearSet": lambda: SemilinearSet.of((0, 0), LinearSet((1, 1), ((1, 1),))),
    "PowerDiagonal": lambda: PowerDiagonal(9, 4),
    "CompareReport": lambda: CompareReport((), ((1, 1),)),
    "NormalForm": lambda: NormalForm((A,), (B,), "AB"),
    "ExampleLanguage": lambda: ExampleLanguage("gamma3", "a;x", PowerDiagonal(9, 2), 30),
    "CheckResult": lambda: CheckResult("8d-free-reduction", True, "ok", 0.5),
}
NAMES = list(BUILDERS)
IDENTITY = ("GenLabel", "FieldElem")  # the classes that equal only themselves


def _value_classes():
    return {
        cls.__name__: cls
        for module in (getattr(quatlat, m) for m in ("ff", "quat", "lattice", "parikh", "presets", "rewrite", "acceptance"))
        for _, cls in inspect.getmembers(module, inspect.isclass)
        if cls is not Value and issubclass(cls, Value)
    }


def test_the_builders_cover_every_value_class():
    assert sorted(_value_classes()) == sorted(NAMES)


def test_only_value_defines_equality_and_immutability():
    for name, cls in _value_classes().items():
        own = {"__setattr__", "__delattr__", "__eq__", "__hash__"} & set(vars(cls))
        assert own == ({"__eq__", "__hash__"} if name in IDENTITY else set()), name


@pytest.mark.parametrize("name", NAMES)
def test_value_is_immutable_and_equal_by_key(name):
    x, y = BUILDERS[name](), BUILDERS[name]()
    assert type(x).__name__ == name and (x is y) == (name == "FieldElem")
    slot = type(x).__slots__[0]
    with pytest.raises(AttributeError, match="immutable"):
        setattr(x, slot, getattr(y, slot))
    with pytest.raises(AttributeError, match="immutable"):
        delattr(x, slot)
    assert x == x and hash(x) == hash(x)
    if name == "GenLabel":
        assert x != y and x._key() == y._key()
    else:
        assert x == y and hash(x) == hash(y) and not x != y
    other = BUILDERS[NAMES[NAMES.index(name) - 1]]()
    assert x != other and other != x
    assert x != x._key() and x._key() != x


def test_generic_repr_prints_the_key():
    assert repr(PowerDiagonal(9, 4)) == "PowerDiagonal(9, 4)"
    assert repr(CompareReport((), ((1, 1),))) == "CompareReport((), ((1, 1),))"
