"""Package roots that re-export through :mod:`repro._lazy`.

Each such ``__init__`` declares ``__all__`` and a name→module table, and
resolves a name only when it is first used.  These tests read the table
as written in the source, so a name listed twice is caught even though
a dict literal would silently keep one copy.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
import types
from collections import Counter
from pathlib import Path
from typing import NamedTuple

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent

#: the parts of a root's own source that are plumbing, not exports
PLUMBING = {"__all__", "__getattr__", "__dir__"}


class Root(NamedTuple):
    #: the lazy table's (name, module) entries, as written
    table: list[tuple[str, str]]
    #: names the ``__init__`` binds itself
    local: list[str]
    #: modules the ``__init__`` imports itself
    imports: list[str]


def declared(init: Path) -> Root | None:
    """What a root's ``__init__`` declares; ``None`` if it is not lazy."""
    tree = ast.parse(init.read_text("utf-8"))
    table = None
    local: list[str] = []
    imports: list[str] = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "repro._lazy":
            imports.append(node.module)
            local.extend(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            call = node.value
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "lazy_exports"
            ):
                entries = call.args[1]
                table = [
                    (key.value, value.value)
                    for key, value in zip(entries.keys, entries.values)
                ]
                continue
            local.extend(
                target.id
                for target in node.targets
                if isinstance(target, ast.Name)
            )
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            local.append(node.name)
    if table is None:
        return None
    return Root(
        table, [name for name in local if name not in PLUMBING], imports
    )


def lazy_roots() -> dict[str, Root]:
    roots = {}
    for init in sorted(SRC.rglob("__init__.py")):
        parts = init.parent.relative_to(SRC.parent).parts
        found = declared(init)
        if found is not None:
            roots[".".join(parts)] = found
    return roots


ROOTS = lazy_roots()


def test_every_re_exporting_root_is_lazy():
    assert set(ROOTS) == {
        "repro",
        "repro.analysis",
        "repro.assertions",
        "repro.baselines",
        "repro.data",
        "repro.dictionary",
        "repro.ecr",
        "repro.equivalence",
        "repro.evolution",
        "repro.federation",
        "repro.integration",
        "repro.kernel",
        "repro.obs",
        "repro.query",
        "repro.replication",
        "repro.solver",
        "repro.tool",
        "repro.tool.screens",
        "repro.translate",
        "repro.workloads",
    }


@pytest.mark.parametrize("package", sorted(ROOTS))
class TestLazyRoot:
    def test_table_and_locals_are_all_once(self, package):
        table, local, _ = ROOTS[package]
        names = [name for name, _ in table] + local
        twice = sorted(n for n, k in Counter(names).items() if k > 1)
        assert not twice, f"{package} lists {twice} more than once"
        exports = importlib.import_module(package).__all__
        assert len(exports) == len(set(exports))
        assert sorted(names) == sorted(exports)

    def test_no_lazy_name_is_also_a_submodule(self, package):
        """Loading a submodule rebinds the package attribute of its name,
        so such a name must be bound by the ``__init__`` itself."""
        clashes = [
            name
            for name, _ in ROOTS[package].table
            if importlib.util.find_spec(f"{package}.{name}") is not None
        ]
        assert not clashes

    def test_each_name_is_its_defining_modules_object(self, package):
        root = importlib.import_module(package)
        for name, module in ROOTS[package].table:
            defined = getattr(importlib.import_module(module), name)
            assert getattr(root, name) is defined, (package, name)

    def test_dir_lists_every_export(self, package):
        root = importlib.import_module(package)
        assert set(root.__all__) <= set(dir(root))

    def test_star_import_binds_all(self, package):
        root = importlib.import_module(package)
        namespace: dict = {}
        exec(f"from {package} import *", namespace)
        del namespace["__builtins__"]
        assert set(namespace) == set(root.__all__)
        for name, value in namespace.items():
            assert value is getattr(root, name)

    def test_unknown_name_raises_attribute_error(self, package):
        root = importlib.import_module(package)
        with pytest.raises(AttributeError, match=re.escape(repr(package))):
            root.no_such_export


def test_importing_a_root_imports_none_of_its_modules():
    """Each root, imported alone, loads only itself, its parents, the
    helper and what its own source imports."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent), env.get("PYTHONPATH", "")]
    )
    script = (
        "import importlib, json, sys\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'repro']\n"
        "for module in sys.argv[2:]:\n"
        "    importlib.import_module(module)\n"
        "own = loaded()\n"
        "importlib.import_module(sys.argv[1])\n"
        "print(json.dumps([own, loaded()]))\n"
    )
    for package, root in sorted(ROOTS.items()):
        child = subprocess.run(
            [sys.executable, "-c", script, package, *root.imports],
            env=env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert child.returncode == 0, child.stderr
        own, loaded = json.loads(child.stdout)
        parts = package.split(".")
        parents = {".".join(parts[: i + 1]) for i in range(len(parts))}
        assert set(loaded) == set(own) | parents | {"repro._lazy"}, package


def test_submodule_imports_still_resolve():
    from repro import faults

    assert isinstance(faults, types.ModuleType)
    assert faults.__name__ == "repro.faults"

    # ``repro.obs.replay`` names the submodule; the function lives in it,
    # and ``schema_fingerprint`` is re-exported from it
    from repro.obs import replay, schema_fingerprint
    from repro.obs.replay import replay as replay_function
    from repro.obs.replay import schema_fingerprint as fingerprint

    assert isinstance(replay, types.ModuleType)
    assert replay.replay is replay_function
    assert callable(replay_function)
    assert schema_fingerprint is fingerprint

    # a package attribute a submodule shares its name with stays the
    # export, whoever imports the submodule
    module = importlib.import_module("repro.translate.to_relational")
    from repro.translate import to_relational

    assert to_relational is module.to_relational
