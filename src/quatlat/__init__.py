"""Exact-arithmetic toolkit for lattices acting on products of two trees.

Builds the finite presentations of quaternionic lattices over F_q(t)
from field parameters, solves their word problem through two-sided
normal forms, cross-checks every relation against a quaternion-algebra
oracle, and enumerates Parikh images of the word problem intersected
with bounded languages.
"""

from .ff import Field, FieldElem, QuadExt, QuadElem, find_nonsquare
from .lattice import (
    GenLabel,
    LatticeParams,
    Presentation,
    build_square_table,
    expand_squares,
    named_presentation,
)
from .parikh import (
    BoundedLanguageSpec,
    LinearSet,
    PowerDiagonal,
    SemilinearSet,
    compare,
    enumerate_parikh,
    growth,
    membership,
)
from .quat import Poly, ProjQuat, Quat, QuatAlgebra, RatFun
from .rewrite import (
    NormalForm,
    commutes,
    free_reduce,
    is_anti_torus,
    is_identity,
    normal_form,
    orbit_size,
    parse_word,
    pi_action,
)

__all__ = [
    "Field",
    "FieldElem",
    "QuadExt",
    "QuadElem",
    "find_nonsquare",
    "GenLabel",
    "LatticeParams",
    "Presentation",
    "build_square_table",
    "expand_squares",
    "named_presentation",
    "BoundedLanguageSpec",
    "LinearSet",
    "PowerDiagonal",
    "SemilinearSet",
    "compare",
    "enumerate_parikh",
    "growth",
    "membership",
    "Poly",
    "ProjQuat",
    "Quat",
    "QuatAlgebra",
    "RatFun",
    "NormalForm",
    "commutes",
    "free_reduce",
    "is_anti_torus",
    "is_identity",
    "normal_form",
    "orbit_size",
    "parse_word",
    "pi_action",
]

__version__ = "0.1.0"
