"""Package-level checks: every exported name exists."""

import importlib
import pkgutil

import quenchfront


def test_every_all_entry_resolves():
    names = [m.name for m in pkgutil.iter_modules(quenchfront.__path__)]
    assert "travelingwave" in names
    for name in names:
        module = importlib.import_module(f"quenchfront.{name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, f"quenchfront.{name}.__all__ names missing objects: {missing}"
