import types

import eif


def test_all_lists_only_public_names_not_modules():
    assert len(eif.__all__) == 40
    assert len(set(eif.__all__)) == 40
    for name in eif.__all__:
        assert not isinstance(getattr(eif, name), types.ModuleType), name
