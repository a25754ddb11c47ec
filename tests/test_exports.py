import importlib
import pkgutil

import pytest

import lossy_storage as ls

MODULES = ["lossy_storage"] + [
    f"lossy_storage.{info.name}" for info in pkgutil.iter_modules(ls.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is listed twice"
    missing = [name for name in exported if not hasattr(module, name)]
    assert missing == []
