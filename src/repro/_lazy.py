"""Lazy package re-exports (PEP 562).

A package ``__init__`` lists what it re-exports, by submodule, and
forwards its module-level ``__getattr__``/``__dir__`` here.  A name's
submodule is imported on first access and the value is bound on the
package, so later reads are plain attribute lookups.  This keeps
``import repro`` (and the read-only CLI commands) from importing
numpy and the simulator until something is simulated.

A re-exported name that is also a submodule name (``suite``,
``transaction``) must be bound eagerly instead: importing the
submodule later would rebind the package attribute to the module.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Mapping, Sequence

__all__ = ["resolve", "names"]

#: submodule (relative, e.g. ``".engine"``) -> the names it provides
Exports = Mapping[str, Sequence[str]]


def resolve(package: str, exports: Exports, name: str) -> Any:
    """Import the submodule that provides ``name``; bind and return it.

    A name that is not re-exported may be a submodule not imported yet
    (``repro.exec`` after ``import repro``): it is imported and returned.
    """
    for module, provided in exports.items():
        if name in provided:
            value = getattr(importlib.import_module(module, package), name)
            setattr(sys.modules[package], name, value)
            return value
    try:
        return importlib.import_module(f"{package}.{name}")
    except ModuleNotFoundError as exc:
        if exc.name != f"{package}.{name}":
            raise
    raise AttributeError(f"module {package!r} has no attribute {name!r}")


def names(package: str, exports: Exports) -> list[str]:
    """``dir()`` of a lazy package: bound names plus every re-export."""
    bound = set(vars(sys.modules[package]))
    return sorted(bound.union(*exports.values()))
