"""The package's public names are the library modules' own __all__ lists."""

import importlib
import pkgutil

import tracespaces

# every module but the command line, whose names stay in tracespaces.cli
_MODULES = sorted(m.name for m in pkgutil.iter_modules(tracespaces.__path__) if m.name != "cli")


def test_package_exports_the_union_of_the_module_lists():
    modules = [importlib.import_module(f"tracespaces.{name}") for name in _MODULES]
    assert sorted(tracespaces.__all__) == sorted(n for m in modules for n in m.__all__)
    assert len(set(tracespaces.__all__)) == len(tracespaces.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(tracespaces, name) is getattr(module, name), (module.__name__, name)
