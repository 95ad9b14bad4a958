import types

import fermatkit


def test_every_export_resolves_and_none_is_a_module():
    for name in fermatkit.__all__:
        assert not isinstance(getattr(fermatkit, name), types.ModuleType), name
    assert len(set(fermatkit.__all__)) == len(fermatkit.__all__)
