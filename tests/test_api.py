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


def test_reference_quadratures_are_not_package_api():
    # they are test oracles (tests/_reference.py); the package reads mmse and
    # mutual information only through its tables
    moved = ("conditional_mean", "mmse_exact", "mmse_derivative", "mutual_information",
             "QuadratureAccuracyError")
    for mod in (mercuryflow, mercuryflow.constellations, mercuryflow.errors):
        for name in moved:
            assert not hasattr(mod, name), f"{mod.__name__}.{name}"
