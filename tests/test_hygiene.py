"""Source checks that no linter ships for.

Every name a module of the package imports is used in that module: a
stdlib ``ast`` check stands in for the unused-import rule of a linter
(``__init__.py`` only re-exports). Every module-level private name is
used somewhere in the package, so a half-removed second code path cannot
linger. And each shared validation rule has one copy: the scalar range
check in ``errors.py``, the ``w_bar`` series rule in ``simulate.py``, the
sequence length check in ``sequences.py`` and the undeclared-mode error
in ``model.py``.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import convrate

PACKAGE = Path(convrate.__file__).parent
MODULES = sorted(path.name for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import anywhere in ``source`` that nothing reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_check_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\nfrom .a import b, c as d\n"
              "def f():\n    from .e import g\n    return np.zeros(1), d\n")
    assert unused_imports(source) == ["os", "b", "g"]


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_names`` (functions, classes, constants; dunders exempt)
    that no source reads, imports or looks up as an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = [target.id for target in
                           (node.targets if isinstance(node, ast.Assign) else [node.target])
                           if isinstance(target, ast.Name)]
            else:
                continue
            defined += [f"{module}:{name}" for name in targets
                        if name.startswith("_") and not name.endswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return [entry for entry in defined if entry.split(":")[1] not in used]


def test_every_private_name_is_used():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def test_private_name_check_sees_each_kind_of_use():
    sources = {"a.py": "_DEAD = 1\n_READ: int = 2\n__version__ = '1'\n"
                       "def _gone():\n    return _READ\nclass _Lost:\n    pass\n"
                       "def _imported():\n    pass\ndef _looked_up():\n    pass\n",
               "b.py": "from .a import _imported\nfrom . import a\nx = a._looked_up\n"}
    assert unreferenced_private_names(sources) == ["a.py:_DEAD", "a.py:_gone", "a.py:_Lost"]


def test_scalar_range_check_has_one_copy():
    holders = [module for module in sorted(path.name for path in PACKAGE.glob("*.py"))
               if "must be finite and >= 0, got" in (PACKAGE / module).read_text()]
    assert holders == ["errors.py"]


@pytest.mark.parametrize("text, owner", [
    ("w_bar must provide", "simulate.py"),
    ("length must be >= 0, got", "sequences.py"),
    ("has no convergence rate", "model.py"),
])
def test_validation_rule_has_one_copy(text, owner):
    counts = {module: (PACKAGE / module).read_text().count(text)
              for module in sorted(path.name for path in PACKAGE.glob("*.py"))}
    assert {module: count for module, count in counts.items() if count} == {owner: 1}
