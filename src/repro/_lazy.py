"""Lazy re-exports for package facades (PEP 562 module ``__getattr__``).

A facade such as ``repro`` or ``repro.service`` names its public API in
one ``{name: defining module}`` map and imports a defining module only
when one of its names is first read, so importing a facade costs
nothing and a process loads only the modules it uses::

    _EXPORTS = {"Session": "repro.service.session", ...}
    __all__ = sorted(_EXPORTS)
    __getattr__, __dir__ = attach(__name__, _EXPORTS)
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable


def attach(
    package: str, exports: dict[str, str]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a lazy facade.

    ``__getattr__(name)`` imports ``exports[name]`` and returns its
    attribute ``name``, cached on the package so later reads are plain
    attribute lookups; any other name raises :class:`AttributeError`.
    ``__dir__()`` lists the package's globals and every export.
    """

    def __getattr__(name: str) -> object:
        try:
            module = exports[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
