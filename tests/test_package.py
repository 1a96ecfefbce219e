import importlib

import conecenter

MODULES = ("cone", "errors", "geometry", "optimize", "oracle")


def test_each_public_name_is_listed_by_exactly_one_module():
    modules = [importlib.import_module(f"conecenter.{name}") for name in MODULES]
    listed = [name for module in modules for name in module.__all__]
    assert len(listed) == len(set(listed))
    assert sorted(conecenter.__all__) == sorted(listed)
    for module in modules:
        for name in module.__all__:
            assert getattr(conecenter, name) is getattr(module, name)
