import pytest

from quatlat.ff import Field, QuadExt, find_nonsquare
from quatlat.lattice import LatticeParams, build_square_table
from quatlat.presets import get_presentation


@pytest.fixture(scope="session")
def table_zoo():
    """Named lattices, the two parametric presets, and one e=2 table."""
    field = Field(3, 2)
    q9 = build_square_table(LatticeParams(QuadExt(field, find_nonsquare(field)), field.element((0, 1))))
    names = ("gamma3", "gamma4", "gamma32", "q3", "q5")
    return [get_presentation(name) for name in names] + [q9]
