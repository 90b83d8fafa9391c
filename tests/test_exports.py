import importlib
import pkgutil
import types

import pytest

import arrowtime

MODULES = [
    importlib.import_module(f"arrowtime.{info.name}")
    for info in pkgutil.iter_modules(arrowtime.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_exists(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_package_name_is_exported_by_its_module():
    exported = set().union(*(m.__all__ for m in MODULES))
    public = [
        name
        for name, value in vars(arrowtime).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    ]
    assert [name for name in public if name not in exported] == []
