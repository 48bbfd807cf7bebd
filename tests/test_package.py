"""The package's exports are the union of its modules' ``__all__``."""

import importlib
import pkgutil

import entrate


def test_package_exports_the_union_of_the_module_exports():
    modules = [importlib.import_module(f"entrate.{m.name}") for m in pkgutil.iter_modules(entrate.__path__)]
    modules = [m for m in modules if hasattr(m, "__all__")]
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert sorted(entrate.__all__) == sorted(names)
    for module in modules:
        for name in module.__all__:
            assert getattr(entrate, name) is getattr(module, name), name
    namespace = {}
    exec("from entrate import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(names)
