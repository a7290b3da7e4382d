"""Lazy package exports (PEP 562).

A package ``__init__`` names each public attribute's defining module
and resolves it on first use, so importing the package imports none of
its modules: a live node process loads only what the node uses, never
the simulator or the analysis stack behind a sibling name.
"""

import importlib
import sys
from typing import Any, Callable, Dict


def lazy_getattr(package: str, exports: Dict[str, str]) -> Callable[[str], Any]:
    """The module ``__getattr__`` of ``package``: ``exports`` maps each
    public name to the module that defines it; a resolved name is kept
    in the package's namespace."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    return __getattr__
