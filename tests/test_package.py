"""The package's public surface: every name in liprint.__all__ resolves,
and so does every liprint module reference in README.md."""

import importlib
import re
from pathlib import Path

import liprint

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = ("lip_core", "gait", "planner", "terrain", "sim", "metrics", "cli", "_kernels")


def test_every_exported_name_resolves():
    missing = [name for name in liprint.__all__ if not hasattr(liprint, name)]
    assert missing == []
    assert len(set(liprint.__all__)) == len(liprint.__all__)


def test_gait_exports_one_phase_rule():
    # the contact schedule and phase clock come from phase_signals at
    # cycle_phase alone, and the stance side from the parity
    assert {"cycle_phase", "phase_signals"} <= set(liprint.__all__)
    for name in ("contact_schedule", "phase_clock", "swing_foot"):
        assert name not in liprint.__all__
        assert not hasattr(liprint.gait, name)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from liprint import *", namespace)
    assert set(liprint.__all__) <= namespace.keys()


def _resolves(module: str, names: str) -> bool:
    obj = importlib.import_module(f"liprint.{module}")
    for name in names.split("."):
        if not hasattr(obj, name):
            return False
        obj = getattr(obj, name)
    return True


def test_every_readme_module_reference_resolves():
    # <module>.<name>[.<name> ...], with or without the liprint. prefix, for
    # a liprint module
    pattern = rf"(?<![\w.])(?:liprint\.)?({'|'.join(MODULES)})\.([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)"
    refs = set(re.findall(pattern, README.read_text()))
    missing = [f"{module}.{names}" for module, names in sorted(refs)
               if not _resolves(module, names)]
    assert missing == []
    assert len(refs) >= 10  # not vacuous
