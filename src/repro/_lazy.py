"""Lazy package re-exports: a public name imports its module on first use.

The package ``__init__`` modules re-export their public API through
this helper instead of importing every submodule up front, so importing
one light module (the result store, the config dataclasses) does not
drag in the simulator behind its package (DESIGN.md §5l)::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "repro.core.machine": ("Machine", "MachineConfig"),
    })

A resolved name is cached in the package namespace, so later lookups
are plain attribute reads.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable


def lazy_exports(
    namespace: dict, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """Module ``__getattr__``/``__dir__`` serving ``exports`` lazily.

    ``exports`` maps each defining module to the names it provides.
    """
    where = {name: module for module, names in exports.items() for name in names}
    package = namespace["__name__"]

    def __getattr__(name: str) -> object:
        module = where.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(where))

    return __getattr__, __dir__
