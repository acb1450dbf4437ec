"""Every name a module exports resolves, so a deleted function cannot leave
a dangling ``__all__`` entry behind."""

from __future__ import annotations

import importlib
import pkgutil

import exitqueue


def test_every_exported_name_resolves() -> None:
    modules = [
        importlib.import_module(f"exitqueue.{info.name}")
        for info in pkgutil.iter_modules(exitqueue.__path__)
    ]
    assert len(modules) == 8  # with __main__, which exports nothing
    missing = [
        f"{mod.__name__}.{name}"
        for mod in modules
        for name in getattr(mod, "__all__", ())
        if not hasattr(mod, name)
    ]
    assert missing == []
