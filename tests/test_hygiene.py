"""Source checks that no linter ships for.

Every name a module of the package imports is used in that module: a
stdlib ``ast`` check stands in for the unused-import rule of a linter
(``__init__.py`` only re-exports). Every module-level private name is
used somewhere in the package, so a half-removed second code path cannot
linger. Every public name has a caller outside the tests, or a reason on
a keep table. The CLI reads only public names of the modules it drives, and ``io``
none of the streams whose blocks it writes; no module calls ``vars()``. And each
shared validation rule has one copy: the scalar range check in
``errors.py``, the ``w_bar`` series rule in ``model.py``, the sequence
length check in ``mk.py`` and the undeclared-mode error in ``model.py``.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

import convrate

PACKAGE = Path(convrate.__file__).parent
ROOT = Path(__file__).resolve().parents[1]
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


def exports_without_callers(exports, sources: dict[str, str]) -> list[str]:
    """The names of ``exports`` that no source reads, imports or looks up as an
    attribute, outside the module-level definition of the name itself."""
    used = set()
    for source in sources.values():
        for top in ast.parse(source).body:
            names = set()
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    names.update(alias.name for alias in node.names)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names.discard(top.name)
            used |= names
    return [name for name in exports if name not in used]


#: Public names with no caller outside the tests, and why each stays.
KEEP = {
    "best_mk_for_ratio": "ROADMAP item 9 gives it a caller (the design line)",
    "cost_transform": "acceptance criterion 9",
    "permissible_skip_ratio": "ROADMAP item 9 gives it a caller (the design line)",
    "random_mk_sequence": "draws the sequences of acceptance criteria 5, 6 and 9",
    "skip_count_bound": "acceptance criterion 4",
}


def test_every_public_name_has_a_caller():
    # the package outside __init__.py, and the benchmark and the identity tool
    paths = [path for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    paths += [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "tools").glob("*.py")]
    sources = {str(path): path.read_text() for path in sorted(paths)}
    assert exports_without_callers(convrate.__all__, sources) == sorted(KEEP)


def test_caller_check_skips_a_names_own_definition():
    sources = {"a.py": "def f():\n    return f()\nclass C:\n    pass\n"
                       "def g():\n    return h.k, C\n",
               "b.py": "from .a import i\n"}
    assert exports_without_callers(["f", "g", "C", "k", "i"], sources) == ["f", "g"]


def test_scalar_range_check_has_one_copy():
    holders = [module for module in sorted(path.name for path in PACKAGE.glob("*.py"))
               if "must be finite and >= 0, got" in (PACKAGE / module).read_text()]
    assert holders == ["errors.py"]


@pytest.mark.parametrize("text, owner", [
    ("w_bar must provide", "model.py"),
    ("length must be >= 0, got", "mk.py"),
    ("has no convergence rate", "model.py"),
])
def test_validation_rule_has_one_copy(text, owner):
    counts = {module: (PACKAGE / module).read_text().count(text)
              for module in sorted(path.name for path in PACKAGE.glob("*.py"))}
    assert {module: count for module, count in counts.items() if count} == {owner: 1}


def private_reads(source: str) -> list[str]:
    """Private names that ``source`` imports from within the package, and private
    attributes that it reads off anything but ``self`` or a standard-library module
    (dunders exempt)."""
    tree = ast.parse(source)
    found = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.level
             for alias in node.names if alias.name.startswith("_")]
    exempt = {"self"} | {alias.asname or alias.name for node in ast.walk(tree)
                         if isinstance(node, ast.Import) for alias in node.names
                         if alias.name.split(".")[0] in sys.stdlib_module_names}
    found += [node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and not node.attr.endswith("__")
              and not (isinstance(node.value, ast.Name) and node.value.id in exempt)]
    return found


def test_cli_reads_no_private_name_of_another_module():
    assert private_reads((PACKAGE / "cli.py").read_text()) == []


def test_io_reads_no_private_name_of_a_stream():
    # io runs any generator of blocks and returns what it returns
    assert private_reads((PACKAGE / "io.py").read_text()) == []


def test_private_read_check_sees_each_kind_of_use():
    source = ("from .a import _b, c\nfrom os import _exit\nfrom . import d\n"
              "x = d._e + c.f + type(c).__name__\n"
              "class G:\n    def h(self):\n        return self._i, c()._j\n")
    assert private_reads(source) == ["_b", "_e", "_j"]


def test_private_read_check_exempts_standard_library_modules():
    source = ("import os\nimport os.path as p\nimport numpy as np\nfrom . import io\n"
              "os._exit(p._joinrealpath + np._core + io._forked)\n")
    assert sorted(private_reads(source)) == ["_core", "_forked"]


def vars_calls(source: str) -> int:
    """How many times ``source`` calls the builtin ``vars``."""
    return sum(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "vars" for node in ast.walk(ast.parse(source)))


@pytest.mark.parametrize("module", MODULES)
def test_no_module_calls_vars(module):
    # an object's attributes are set by name where they are set, not from a dict
    assert vars_calls((PACKAGE / module).read_text()) == 0


def test_vars_check_sees_a_call():
    assert vars_calls("vars(x).update(y)\nd = vars\nz = x.vars(1)\n") == 1
