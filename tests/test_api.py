import importlib
import pkgutil

import mercuryflow


def test_every_exported_name_resolves():
    modules = [mercuryflow] + [
        importlib.import_module(f"mercuryflow.{info.name}")
        for info in pkgutil.iter_modules(mercuryflow.__path__)
    ]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.{name}"
