"""API-quality gates: every public item documented, exports resolvable.

These meta-tests keep the library release-grade as it grows: ``__all__``
entries must resolve, public modules/classes/functions must carry
docstrings, the package must not leak private names through its public
namespaces, and no package reaches into another's private names.
"""

import ast
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.util",
    "repro.cluster",
    "repro.core",
    "repro.core.placement",
    "repro.cloud",
    "repro.mapreduce",
    "repro.analysis",
    "repro.experiments",
]


def iter_all_modules():
    seen = set()
    for pkg_name in PACKAGES:
        pkg = importlib.import_module(pkg_name)
        yield pkg
        for info in pkgutil.iter_modules(pkg.__path__, prefix=pkg_name + "."):
            if info.name.endswith("__main__"):
                continue  # importing it runs the CLI
            if info.name not in seen:
                seen.add(info.name)
                yield importlib.import_module(info.name)


#: Every package whose ``__init__`` re-exports its modules' names (on first
#: use: each keeps a PEP 562 ``__getattr__`` table).
REEXPORTING = PACKAGES + [
    "repro.obs",
    "repro.service",
    "repro.service.proc",
    "repro.service.shard",
]


def _held_by_defining_module(pkg_name: str, name: str, obj) -> bool:
    if inspect.ismodule(obj):
        return obj.__name__ == f"{pkg_name}.{name}"
    if inspect.isclass(obj) or inspect.isfunction(obj):
        home = sys.modules[obj.__module__]
        return getattr(home, obj.__qualname__, None) is obj
    # A constant: some (non-package) module binds it under the same name.
    return any(
        vars(module).get(name) is obj
        for module_name, module in list(sys.modules.items())
        if module_name.startswith("repro.") and not hasattr(module, "__path__")
    )


@pytest.mark.parametrize("pkg_name", REEXPORTING)
def test_all_exports_resolve(pkg_name):
    """Every ``__all__`` name resolves — by attribute, ``dir()`` and
    ``import *`` alike — to the very object its defining module holds."""
    pkg = importlib.import_module(pkg_name)
    star: dict = {}
    exec(f"from {pkg_name} import *", star)
    del star["__builtins__"]
    assert sorted(star) == sorted(pkg.__all__)
    assert set(pkg.__all__) <= set(dir(pkg))
    for name in pkg.__all__:
        assert hasattr(pkg, name), f"{pkg_name}.__all__ lists missing {name!r}"
        obj = getattr(pkg, name)
        assert star[name] is obj, name
        assert _held_by_defining_module(pkg_name, name, obj), name


def test_subpackages_resolve_as_package_attributes():
    """As under eager ``__init__``s, ``import repro`` reaches every module
    through attributes, each loaded on first use."""
    code = (
        "import sys\n"
        "import repro\n"
        "assert 'repro.service' not in sys.modules\n"
        "assert repro.service.proc.backend.ProcBackend.__module__ == "
        "'repro.service.proc.backend'\n"
        "assert not hasattr(repro.service, 'no_such_module')\n"
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("pkg_name", PACKAGES)
def test_no_private_names_in_all(pkg_name):
    pkg = importlib.import_module(pkg_name)
    for name in getattr(pkg, "__all__", []):
        assert not name.startswith("_"), f"{pkg_name} exports private {name!r}"


def test_every_module_has_a_docstring():
    undocumented = [
        m.__name__ for m in iter_all_modules() if not (m.__doc__ or "").strip()
    ]
    assert undocumented == []


def test_every_public_class_and_function_documented():
    undocumented = []
    for module in iter_all_modules():
        for name, obj in vars(module).items():
            if name.startswith("_"):
                continue
            if not (inspect.isclass(obj) or inspect.isfunction(obj)):
                continue
            if getattr(obj, "__module__", None) != module.__name__:
                continue  # re-export; documented at its home
            if not (obj.__doc__ or "").strip():
                undocumented.append(f"{module.__name__}.{name}")
    assert undocumented == []


def test_public_methods_documented():
    undocumented = []
    for module in iter_all_modules():
        for cls_name, cls in vars(module).items():
            if cls_name.startswith("_") or not inspect.isclass(cls):
                continue
            if getattr(cls, "__module__", None) != module.__name__:
                continue
            for meth_name, meth in vars(cls).items():
                if meth_name.startswith("_"):
                    continue
                func = getattr(meth, "__func__", meth)
                if not inspect.isfunction(func) and not isinstance(
                    meth, (classmethod, staticmethod)
                ):
                    continue
                # getdoc() walks the MRO, so an override inherits its
                # interface's contract documentation.
                if not (inspect.getdoc(getattr(cls, meth_name)) or "").strip():
                    undocumented.append(
                        f"{module.__name__}.{cls_name}.{meth_name}"
                    )
    assert undocumented == []


def _private_cross_package_imports(root: Path) -> "list[str]":
    """``module:line name`` for every ``from M import _name`` under *root*
    (the ``repro`` source tree) where ``M`` lies in another package than
    the importing module."""
    hits = []
    for path in sorted(root.rglob("*.py")):
        parts = list(path.relative_to(root.parent).with_suffix("").parts)
        is_package = parts[-1] == "__init__"
        if is_package:
            parts.pop()
        package = parts if is_package else parts[:-1]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = package[: len(package) - node.level + 1] if node.level else []
            target = base + (node.module.split(".") if node.module else [])
            if target[:1] != ["repro"]:
                continue
            target_dir = root.parent.joinpath(*target)
            target_package = target if target_dir.is_dir() else target[:-1]
            for alias in node.names:
                name = alias.name
                private = name.startswith("_") and not name.endswith("__")
                if private and target_package != package:
                    hits.append(f"{'.'.join(parts)}:{node.lineno} {name}")
    return hits


def test_no_private_names_imported_across_packages():
    """A package's ``_``-prefixed names are its own: a module may import
    them from a sibling module, never from a module in another package."""
    root = Path(repro.__file__).parent
    assert _private_cross_package_imports(root) == []


def test_version_exposed():
    assert repro.__version__
    major = int(repro.__version__.split(".")[0])
    assert major >= 1
