"""Nothing is exported, or kept, unless something calls it.

A public name of the ``dilations`` package must appear somewhere in the
library, the benchmark or the scripts other than at its own definition
and in an ``__all__`` list; the package's ``__init__`` does not count.
Likewise every top-level private function of a library module: a helper
only the tests call is dead library code.  And every name a library
module imports must be used in that module; the package's ``__init__``,
which imports only to re-export, is exempt.  And every public method,
property and classmethod of an exported class must be read as
``.name`` somewhere in those callers; dunders are exempt.  A member
named like a ``dict``, ``list`` or ``str`` attribute would pass that
check on the reads of the builtin's attribute (``.values`` on a dict),
so no member may share such a name.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import dilations

ROOT = Path(__file__).resolve().parent.parent
CALLERS = [
    path
    for pattern in ("src/dilations/*.py", "perfbench/*.py", "scripts/*.py")
    for path in sorted(ROOT.glob(pattern))
    if path.name != "__init__.py"
]
EXPORTS = sorted(
    name
    for name, value in vars(dilations).items()
    if not name.startswith("_") and not inspect.ismodule(value)
)


def private_functions(text):
    """Names of the top-level private (single underscore) functions of a module."""
    return re.findall(r"^def (_[^_]\w*)\(", text, re.MULTILINE)


MODULES = sorted(
    path.relative_to(ROOT).as_posix()
    for path in ROOT.glob("src/dilations/**/*.py")
    if path != ROOT / "src/dilations/__init__.py"
)


def unused_imports(text):
    """Names bound by an import in ``text`` and never read as a name in it."""
    tree = ast.parse(text)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


PRIVATE = sorted(
    (path.name, name)
    for path in ROOT.glob("src/dilations/*.py")
    for name in private_functions(path.read_text())
)


def public_members(cls):
    """Names of the public methods, properties and classmethods ``cls`` defines."""
    kinds = (property, classmethod, staticmethod)
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and (inspect.isfunction(value) or isinstance(value, kinds))
    ]


MEMBERS = sorted(
    (name, member)
    for name in EXPORTS
    if inspect.isclass(getattr(dilations, name))
    for member in public_members(getattr(dilations, name))
)


# Attributes of the builtins the callers read everywhere.
BUILTIN_ATTRIBUTES = frozenset(dir(dict)) | frozenset(dir(list)) | frozenset(dir(str))


def attribute_uses(member, text):
    """The ``.member`` reads in ``text``."""
    return re.findall(rf"\.{re.escape(member)}\b", text)


def uses(name, text):
    """Lines of ``text`` naming ``name`` other than its definition or an
    ``__all__`` entry."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    definition = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    entry = re.compile(rf'^\s*"{re.escape(name)}",?\s*$')
    return [
        line
        for line in text.splitlines()
        if word.search(line) and not definition.match(line) and not entry.match(line)
    ]


def test_callers_found():
    assert len(CALLERS) >= 8 and len(EXPORTS) >= 20 and len(PRIVATE) >= 20
    assert len(MEMBERS) >= 10
    assert len(MODULES) >= 7


@pytest.mark.parametrize("name", EXPORTS)
def test_export_has_a_caller(name):
    texts = [path.read_text() for path in CALLERS]
    assert any(uses(name, text) for text in texts), f"{name} is exported but never used"


def test_unused_export_is_caught():
    """Mutant check: a name found only at its definition and in ``__all__`` fails."""
    text = '__all__ = [\n    "orphan",\n]\n\n\ndef orphan():\n    return 1\n'
    assert uses("orphan", text) == []
    assert uses("orphan", text + "\nvalue = orphan()\n") == ["value = orphan()"]


@pytest.mark.parametrize("module, name", PRIVATE)
def test_private_function_has_a_caller(module, name):
    texts = [path.read_text() for path in CALLERS]
    assert any(uses(name, text) for text in texts), f"{module}: {name} is never called"


def test_uncalled_private_function_is_caught():
    """Mutant check: a private helper found only at its definition fails;
    methods and dunders are not top-level private functions."""
    text = "def _orphan(x):\n    return x\n\n\nclass A:\n    def _method(self):\n        pass\n"
    text += "\n\ndef __getattr__(name):\n    raise AttributeError(name)\n"
    assert private_functions(text) == ["_orphan"]
    assert uses("_orphan", text) == []
    assert uses("_orphan", text + "\nvalue = _orphan(1)\n") == ["value = _orphan(1)"]


@pytest.mark.parametrize("cls, member", MEMBERS)
def test_public_member_has_a_caller(cls, member):
    texts = [path.read_text() for path in CALLERS]
    assert any(attribute_uses(member, text) for text in texts), f"{cls}.{member} is never used"


@pytest.mark.parametrize("cls, member", MEMBERS)
def test_public_member_is_not_named_like_a_builtin_attribute(cls, member):
    assert member not in BUILTIN_ATTRIBUTES, f"{cls}.{member} shares its name with a builtin's"


def test_uncalled_member_is_caught():
    """Mutant check: a property, classmethod or method never read as
    ``.name`` fails, its definition does not count, and dunders and
    private methods are not listed."""

    class Orphan:
        @property
        def lost(self):
            return 1

        @classmethod
        def make(cls):
            return cls()

        def run(self):
            return self

        def _helper(self):
            return self

        def __add__(self, other):
            return self

    assert public_members(Orphan) == ["lost", "make", "run"]
    assert attribute_uses("lost", "def lost(self):\n    return lost\n") == []
    assert attribute_uses("lost", "value = orphan.lost\n") == [".lost"]
    assert attribute_uses("lost", "value = orphan.lost_count\n") == []


@pytest.mark.parametrize("module", MODULES)
def test_imports_are_used(module):
    unused = unused_imports((ROOT / module).read_text())
    assert not unused, f"{module} imports {unused} and never uses them"


def test_unused_import_is_caught():
    """Mutant check: imports left behind when their last use goes fail;
    a name read anywhere in the module, or a dotted module used through
    its attributes, passes."""
    text = (
        "from __future__ import annotations\n\nimport itertools\nimport os.path\n"
        "from .linalg import _check_cap, op_norm as norm\n\n\n"
        "def size(a):\n    return os.path.sep, norm(a)\n"
    )
    assert unused_imports(text) == ["itertools", "_check_cap"]
    assert unused_imports(text + "\n\nCAP = _check_cap\n") == ["itertools"]
