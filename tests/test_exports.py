"""Every name in a module's __all__ resolves, so a star import cannot break."""

import importlib
import pkgutil

import accr


def test_every_exported_name_resolves():
    missing = []
    for info in pkgutil.iter_modules(accr.__path__, "accr."):
        module = importlib.import_module(info.name)
        exported = getattr(module, "__all__", ())
        missing += [f"{info.name}.{name}" for name in exported if not hasattr(module, name)]
    assert missing == []
