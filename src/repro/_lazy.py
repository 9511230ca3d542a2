"""Lazy re-exports for package hubs (PEP 562).

A *hub* is a package ``__init__`` that re-exports names from its
submodules.  A hub that imports every submodule up front makes any
import of the package load all of them: ``repro.lang.errors`` would
bring the parser, and ``repro.runtime.errors`` the whole machine.  A hub
that exports through :func:`lazy_exports` instead imports a submodule
the first time one of its names is read, so a process loads only what it
runs.
"""

from __future__ import annotations

import sys
from types import ModuleType
from typing import Any, Callable


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The module ``__getattr__`` and ``__dir__`` of the hub *package*.

    *exports* maps each submodule (dotted, relative to *package*) to the
    names it defines that the hub re-exports.  On first access a name's
    submodule is imported and the value is cached on the hub, so later
    reads are plain attribute loads.  Any other attribute that names a
    submodule (``repro.runtime.machine``) imports that submodule.
    """
    source = {name: module for module, names in exports.items() for name in names}

    def load(module: str) -> ModuleType:
        # ``__import__``, not ``importlib.import_module``: only the former
        # goes through the import statement's machinery, which is what
        # ``python -X importtime`` reports.
        __import__(module)
        return sys.modules[module]

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is not None:
            value = getattr(load(f"{package}.{module}"), name)
            setattr(sys.modules[package], name, value)
            return value
        if not name.startswith("__"):
            try:
                return load(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        hub = sys.modules[package]
        return sorted(set(vars(hub)) | set(source) | set(getattr(hub, "__all__", ())))

    return __getattr__, __dir__
