import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_runtime_paths_do_not_import_scipy():
    # scipy is a test dependency only: with it unimportable, the package, its
    # CLI, scenario generation, a table build and a verified solve still run
    src = Path(mercuryflow.__file__).resolve().parents[1]
    script = f"""
import sys
sys.path.insert(0, {str(src)!r})
sys.modules["scipy"] = None
import mercuryflow, mercuryflow.cli
from mercuryflow import constellations, offline, scenario, tables
s = scenario.generate(n=30, k=1, ts=1.0, j=3, total_energy=2.0, constellations=("bpsk",),
                      gain_model="block_random", block_len=5, seed=11)
t = (tables.build_table(constellations.bpsk(), n_points=64),)
assert offline.kkt_verify(s, offline.nda_solve(s, tables=t), tables=t).passed
"""
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
