import types

import toruskit as tk


def test_all_names_resolve_and_none_is_a_module():
    assert len(tk.__all__) == len(set(tk.__all__))
    for name in tk.__all__:
        assert not isinstance(getattr(tk, name), types.ModuleType), name
    # every public name the package imports is listed, submodules aside
    public = {name for name, value in vars(tk).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == set(tk.__all__)
