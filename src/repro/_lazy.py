"""Package roots that re-export their names on first use.

A package ``__init__`` that only re-exports hands its name→module table
to :func:`lazy_exports` and binds the two functions it returns::

    __getattr__, __dir__ = lazy_exports(globals(), {
        "Schema": "repro.ecr.schema",
        ...
    })

Importing the package then imports none of its modules.  The first
``package.Schema`` (or ``from package import Schema``) imports the
defining module and stores the value in the package's globals, so later
lookups never reach ``__getattr__`` again.  ``dir(package)`` and
``from package import *`` see every export before any is resolved.
"""

from __future__ import annotations

from importlib import import_module
from typing import Any, Callable, Mapping


def lazy_exports(
    namespace: dict[str, Any], table: Mapping[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a package exporting ``table``.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    lazily exported name to the module that defines it under that name.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        try:
            module = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(module), name)
        namespace[name] = value  # later lookups skip __getattr__
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | table.keys())

    return __getattr__, __dir__
