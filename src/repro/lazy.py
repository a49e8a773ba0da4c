"""Lazy package exports (PEP 562 module ``__getattr__``).

A package ``__init__`` that re-exports names from its submodules imports all
of them, and the NumPy/harness stack behind them, the moment anything inside
the package is imported.  :func:`lazy_exports` resolves each exported name on
first access instead::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        ".store": ("RunRecord", "RunStore"),
        "repro.seeding": ("derive_seed",),
    })

``from repro.harness import RunStore`` then imports :mod:`repro.harness.store`
alone, and ``import repro.harness.spec`` imports no sibling at all.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, Sequence[str]]
                 ) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a module (absolute, or relative to ``package`` with a
    leading dot) to the names it provides.  A resolved name is cached in the
    package namespace, so each one is looked up through ``__getattr__`` once.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return list(origin), __getattr__, __dir__
