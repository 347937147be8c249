"""The package namespace: submodules only, each listing its own public names."""

import importlib
import pkgutil
import types

import cubicobs

LIBRARY = ("cert", "design", "exprlang", "model", "numlin", "sim")


def test_package_binds_only_submodules_and_dunders():
    for name, value in vars(cubicobs).items():
        if name.startswith("__") and name.endswith("__"):
            continue
        assert isinstance(value, types.ModuleType), name
        assert value.__name__ == f"cubicobs.{name}", name
    for name in LIBRARY:
        assert getattr(cubicobs, name).__name__ == f"cubicobs.{name}"


def test_every_public_name_resolves():
    for info in pkgutil.iter_modules(cubicobs.__path__):
        module = importlib.import_module(f"cubicobs.{info.name}")
        public = getattr(module, "__all__", ())
        if info.name in LIBRARY:
            assert public, info.name
        assert len(set(public)) == len(public), info.name
        for name in public:
            assert hasattr(module, name), f"cubicobs.{info.name}.{name}"
