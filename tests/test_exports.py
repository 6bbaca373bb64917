"""The package exports what it lists: a retired name cannot linger in
`quatlat.__all__`."""

import quatlat


def test_every_export_resolves_once():
    assert len(quatlat.__all__) == len(set(quatlat.__all__))
    assert [name for name in quatlat.__all__ if not hasattr(quatlat, name)] == []
