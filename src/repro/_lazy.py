"""Lazy package exports (PEP 562).

Every ``repro`` package re-exports the public names of its modules, but
imports a module only when one of its names is first used.  So ``import
repro`` costs almost nothing, and a command that never touches the service
daemon, the asyncio transports or the numpy-based engines never loads them.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``__all__``, ``__getattr__`` and ``__dir__`` of ``package``.

    ``exports`` maps each module to the names ``package`` re-exports from it.
    ``__getattr__`` imports a name's module on first access and binds the
    name in the package, so later lookups are plain attribute reads.  Any
    other name raises :class:`AttributeError`, which also lets ``from
    package import submodule`` fall through to the import system.
    """
    owners = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return list(owners), __getattr__, __dir__
