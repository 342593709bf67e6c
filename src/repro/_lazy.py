"""Lazy package exports (PEP 562).

A package ``__init__`` lists its public names in a name → submodule
table and hands it to :func:`lazy_exports`; each name is imported from
its submodule on first access and then cached in the package, so a
caller pays only for the submodules it uses::

    _EXPORTS = {"simulate": "runner", "Summary": "metrics"}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``from package import name``, ``from package import *`` and ``dir()``
work as with eager imports.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """Module ``__getattr__`` and ``__dir__`` resolving ``table``'s names.

    ``table`` maps each exported name to the submodule of ``package``
    that defines it (relative, without the leading dot).
    """

    def __getattr__(name: str) -> Any:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(f".{submodule}", package), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__
