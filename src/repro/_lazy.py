"""Lazy package exports (PEP 562).

Each package ``__init__`` lists its public names per submodule and
hands that table to :func:`lazy_exports`.  A name's submodule is
imported, and the name bound in the package, the first time the name is
looked up, so ``import repro`` loads no subpackage and a process pays
only for the layers it actually runs: a cold engine call never compiles
the preservation theorems, FO logic, Datalog or pebble games.

``__all__``, ``from pkg import *``, ``getattr`` and ``dir`` behave as
they did with eager imports.  Callers that monkeypatch a function must
patch the module that *uses* it (``repro.incremental.warm.is_homomorphism``),
never the package attribute: the package only caches what the defining
submodule held at first access.
"""

from __future__ import annotations

import sys
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, MutableMapping, Tuple,
)


def import_module(name: str) -> Any:
    """Import the module *name* and return it.

    Unlike :func:`importlib.import_module`, ``__import__`` takes the
    interpreter's own import path, so ``python -X importtime`` reports
    the modules a lazy lookup loads.
    """
    __import__(name)
    return sys.modules[name]


def lazy_exports(
    package: str,
    namespace: MutableMapping[str, Any],
    table: Mapping[str, Iterable[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of *package*.

    *table* maps a submodule name, relative to *package*, to the names
    it exports.  The first lookup of one of those names imports the
    submodule and binds the name in *namespace* (the package's
    ``globals()``), so every later lookup is a plain attribute read.
    Any other attribute that names a submodule imports it, as it would
    be after an eager ``from .sub import ...``.
    """
    where: Dict[str, str] = {
        name: module for module, names in table.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = where.get(name)
        if module is not None:
            value = getattr(import_module(f"{package}.{module}"), name)
            namespace[name] = value
            return value
        if not name.startswith("__"):
            try:
                return import_module(f"{package}.{name}")
            except ModuleNotFoundError as err:
                if err.name != f"{package}.{name}":
                    raise
        raise AttributeError(
            f"module {package!r} has no attribute {name!r}"
        )

    def __dir__() -> List[str]:
        exported = namespace.get("__all__", ())
        return sorted(set(namespace) | set(where) | set(exported))

    return __getattr__, __dir__
