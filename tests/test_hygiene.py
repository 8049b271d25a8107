"""Source checks that no linter ships for.

Every name a module of the package, a test file or a tool imports is used in
that file: a stdlib ``ast`` check stands in for the unused-import rule of a
linter (``__init__.py`` only re-exports). Every module-level private name is
used somewhere in the package, so a half-removed second code path cannot
linger. Every public name of the package has a caller outside the tests, or a
reason on a keep table: each module-level function, class and constant, and
each method, property and dataclass field of a public class. The CLI reads
only public names of the modules it drives, and ``io`` none of the streams
whose blocks it writes; no module calls ``vars()``. And each
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
#: The test files, the tools and the benchmark, by their path from the repository root.
SUPPORT = sorted(path.relative_to(ROOT).as_posix() for folder in ("tests", "tools", "perfbench")
                 for path in (ROOT / folder).glob("*.py"))


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


@pytest.mark.parametrize("path", SUPPORT)
def test_every_import_of_the_tests_and_tools_is_used(path):
    assert unused_imports((ROOT / path).read_text()) == []


def test_check_sees_unused_and_used_names():
    source = ("from __future__ import annotations\n"
              "import numpy as np\nimport os.path\nfrom .a import b, c as d\n"
              "def f():\n    from .e import g\n    return np.zeros(1), d\n")
    assert unused_imports(source) == ["os", "b", "g"]


def _defined_names(node) -> list[str]:
    """The names that a statement of a module or class body defines: a function, a
    class, or the plain names an assignment targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [target.id for target in targets if isinstance(target, ast.Name)]
    return []


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level ``_names`` (functions, classes, constants; dunders exempt)
    that no source reads, imports or looks up as an attribute."""
    defined, used = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            defined += [f"{module}:{name}" for name in _defined_names(node)
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


def _dataclass_fields(tree: ast.Module) -> set[str]:
    """The fields of the dataclasses that ``tree`` defines."""
    return {statement.target.id for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any("dataclass" in ast.unparse(decorator) for decorator in node.decorator_list)
            for statement in node.body
            if isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)}


def _bound_names(function) -> set[str]:
    """The names that ``function`` binds itself: its parameters, and every name it
    assigns or defines outside a nested function or class."""
    arguments = function.args
    bound = {argument.arg for argument in [*arguments.posonlyargs, *arguments.args,
                                           *arguments.kwonlyargs, arguments.vararg,
                                           arguments.kwarg] if argument}
    pending = [function.body] if isinstance(function, ast.Lambda) else list(function.body)
    while pending:
        node = pending.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
            continue
        if not isinstance(node, ast.Lambda):
            pending += ast.iter_child_nodes(node)
    return bound


def _read_names(node, fields: set[str], local: frozenset = frozenset()) -> set[str]:
    """The names that ``node`` reads, imports or looks up as an attribute, except a
    name that an enclosing function binds itself and an attribute in ``fields``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        local = local | _bound_names(node)
    names = set()
    if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
        names = {node.id} - local
    elif isinstance(node, ast.Attribute):
        names = {node.attr} - fields
    elif isinstance(node, ast.ImportFrom):
        names = {alias.name for alias in node.names}
    for child in ast.iter_child_nodes(node):
        names |= _read_names(child, fields, local)
    return names


def public_names(sources: dict[str, str]) -> list[str]:
    """The public names that ``sources`` define at module level (functions, classes and
    constants), and as ``Class.name`` the public members of each public class: its
    methods, properties and dataclass fields."""
    names = []
    for source in sources.values():
        for node in ast.parse(source).body:
            names += [name for name in _defined_names(node) if not name.startswith("_")]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                names += [f"{node.name}.{name}" for member in node.body
                          for name in _defined_names(member) if not name.startswith("_")]
    return names


def names_without_callers(names, sources: dict[str, str]) -> list[str]:
    """The names of ``names`` that no source reads, sorted.

    A module-level name is read where a source reads, imports or looks it up as an
    attribute, outside the module-level definition of the name itself. A name that the
    enclosing function binds itself is not a read of it, nor is an attribute named like
    a field of a dataclass that the sources define. A member ``Class.name`` is read
    where a source looks up (not sets) an attribute ``name``, outside a definition of
    that name. The check matches names, not types: a member name that two
    classes share (``mode_ids``, ``value``, ``kappa_hat``), or that any other object
    has, is read for every class once any of them is read.
    """
    trees = [ast.parse(source) for source in sources.values()]
    fields = set().union(*map(_dataclass_fields, trees))
    used, looked_up = set(), set()
    for tree in trees:
        for top in tree.body:
            read = _read_names(top, fields)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                read.discard(top.name)
            used |= read
            for part in top.body if isinstance(top, ast.ClassDef) else [top]:
                looked_up |= {node.attr for node in ast.walk(part)
                              if isinstance(node, ast.Attribute)
                              and not isinstance(node.ctx, ast.Store)} - set(_defined_names(part))
    return sorted({name for name in names
                   if name.rpartition(".")[2] not in (looked_up if "." in name else used)})


#: Public names with no caller outside the tests, and why each stays.
KEEP = {
    "MkConstraint.scaled": "acceptance criterion 3",
    "ScheduleRun.alarm_fired": "acceptance criterion 8",
    "SupervisorReport.reason": "test_scheduler checks the step path's alarms against the "
                               "stream's alarm column; ROADMAP item 8 decides the step API",
    "SupervisorReport.threshold": "the alarm's threshold, next to reason; ROADMAP item 8 "
                                  "decides the step API",
    "Trace.meta": "perfbench/layers.py passes co_simulate's meta as its 8th positional "
                  "argument",
    "best_mk_for_ratio": "ROADMAP item 9 gives it a caller (the design line)",
    "cost_transform": "acceptance criterion 9",
    "kappa": "README shows it as the paper's kappa_{a,b}",
    "permissible_skip_ratio": "ROADMAP item 9 gives it a caller (the design line)",
    "random_mk_sequence": "draws the sequences of acceptance criteria 5, 6 and 9",
    "skip_count_bound": "acceptance criterion 4",
}


def _read(paths) -> dict[str, str]:
    return {str(path): path.read_text() for path in sorted(paths)}


#: The package's modules, outside ``__init__.py``, which only re-exports.
PACKAGE_SOURCES = _read(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def test_every_public_name_has_a_caller():
    # callers: the package, the benchmark and the identity tool
    callers = {**PACKAGE_SOURCES, **_read([*(ROOT / "perfbench").glob("*.py"),
                                           *(ROOT / "tools").glob("*.py")])}
    assert names_without_callers(public_names(PACKAGE_SOURCES), callers) == sorted(KEEP)


def test_caller_check_covers_every_export():
    assert set(convrate.__all__) <= set(public_names(PACKAGE_SOURCES))


def test_public_names_are_module_names_and_members_of_public_classes():
    sources = {"a.py": "X = 1\n_Y = 2\nZ: int = 3\ndef f():\n    pass\ndef _g():\n    pass\n"
                       "class C:\n    k: int\n    _p: int\n    def m(self):\n        pass\n"
                       "    @property\n    def q(self):\n        pass\n"
                       "    def __eq__(self, other):\n        pass\n"
                       "class _D:\n    j: int\n"}
    assert public_names(sources) == ["X", "Z", "f", "C", "C.k", "C.m", "C.q"]


def test_caller_check_skips_a_names_own_definition():
    sources = {"a.py": "def f():\n    return f()\nclass C:\n    pass\n"
                       "def g():\n    return h.k, C\n",
               "b.py": "from .a import i\n"}
    assert names_without_callers(["f", "g", "C", "k", "i"], sources) == ["f", "g"]


def test_caller_check_skips_a_name_its_function_binds():
    # a parameter, an assignment, a loop target and a lambda's parameter are locals; a
    # name that only a nested function binds, or the module, is read by the enclosing one
    sources = {"a.py": "def f(p):\n    q = 1\n    for r in p:\n        pass\n"
                       "    return p, q, r, (lambda s: s)\n"
                       "def g():\n    def h():\n        t = 1\n        return t\n"
                       "    return t, u\n"
                       "u = 2\n"}
    assert names_without_callers(["p", "q", "r", "s", "t", "u"], sources) == [
        "p", "q", "r", "s"]


def test_caller_check_skips_a_dataclass_field():
    sources = {"a.py": "from dataclasses import dataclass\n"
                       "@dataclass(frozen=True)\nclass T:\n    k: int\n    n: int = 0\n"
                       "def f(t):\n    return t.k, t.m, T\n"}
    assert names_without_callers(["k", "m", "n"], sources) == ["k", "n"]


def test_caller_check_flags_an_unread_member():
    # a method read only by itself, and a field that is only set
    sources = {"a.py": "from dataclasses import dataclass\n"
                       "@dataclass\nclass T:\n    k: int\n    n: int\n"
                       "    def m(self):\n        return self.m()\n"
                       "    def p(self):\n        return self.k\n",
               "b.py": "from .a import T\ndef f(t):\n    t.n = 1\n    return T(1, 2).p()\n"}
    assert names_without_callers(["T", "T.k", "T.m", "T.n", "T.p"], sources) == ["T.m", "T.n"]


def test_caller_check_sees_a_member_read_in_another_module():
    sources = {"a.py": "from dataclasses import dataclass\n@dataclass\nclass T:\n    k: int\n",
               "b.py": "def f(t):\n    return t.k\n"}
    assert names_without_callers(["T.k"], sources) == []


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
