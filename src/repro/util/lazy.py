"""Package re-exports that load on first use (PEP 562).

A package ``__init__`` lists where each of its public names is defined
instead of importing them all. A name's module is imported the first time
the name is read — attribute access, ``from package import name`` or
``import *`` — so importing one submodule (a shard worker's entrypoint,
say) never drags in its siblings.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict) -> tuple:
    """``(__getattr__, __dir__)`` for *package*'s re-exports.

    *exports* maps each defining module to the names it provides, written as
    in a ``from`` import (``"run as run_fig1"`` re-exports ``run`` under the
    name ``run_fig1``). A name whose defining module is *package* itself is
    its submodule of that name. Any other public attribute the package
    lacks is tried as a submodule, as an eager ``__init__`` that imported it
    would have provided. A resolved name is bound in the package, so only
    its first read runs the hook.
    """
    where: dict = {}
    for module, names in exports.items():
        for entry in names:
            attr, _, public = entry.partition(" as ")
            where[public or attr] = (module, attr)

    def __getattr__(name: str):
        module, attr = where.get(name, (package, name))
        if module != package:
            value = getattr(importlib.import_module(module), attr)
        elif name.startswith("_"):
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        else:
            submodule = f"{package}.{name}"
            try:
                value = importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
