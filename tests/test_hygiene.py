"""Source checks that no linter ships for.

Every name a module of the package imports is used in that module: a
stdlib ``ast`` check stands in for the unused-import rule of a linter
(``__init__.py`` only re-exports). And each shared validation rule has
one copy: the scalar range check in ``errors.py``, the ``w_bar`` series
rule in ``simulate.py`` and the sequence length check in ``sequences.py``.
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


def test_scalar_range_check_has_one_copy():
    holders = [module for module in sorted(path.name for path in PACKAGE.glob("*.py"))
               if "must be finite and >= 0, got" in (PACKAGE / module).read_text()]
    assert holders == ["errors.py"]


@pytest.mark.parametrize("text, owner", [
    ("w_bar must provide", "simulate.py"),
    ("length must be >= 0, got", "sequences.py"),
])
def test_validation_rule_has_one_copy(text, owner):
    counts = {module: (PACKAGE / module).read_text().count(text)
              for module in sorted(path.name for path in PACKAGE.glob("*.py"))}
    assert {module: count for module, count in counts.items() if count} == {owner: 1}
