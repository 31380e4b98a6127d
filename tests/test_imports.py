"""No module of the package imports a name it never uses, and every public
function of ``tensor.py`` is used by the package.

No linter ships with the project, so this walks each module's syntax tree:
every name bound by an import must be read somewhere in the same module.
``__init__.py`` is skipped because its imports are the package's exports.
A tensor op must be named somewhere in the package outside its own ``def``,
so an op that only tests reach shows up here.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "decaylab"


def unused_imports(source):
    """Names bound by imports in ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_checker_finds_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nfrom a import b, c as d\n"
              "np.zeros(b)\n")
    assert unused_imports(source) == [(2, "os"), (4, "d")]


@pytest.mark.parametrize("path", sorted(p.name for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"))
def test_no_unused_imports(path):
    assert unused_imports((SRC / path).read_text()) == []


def names_read(tree, skip=None):
    """Names read in ``tree``, outside the node ``skip``."""
    found, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            found.add(node.id)
        if node is not skip:
            stack.extend(ast.iter_child_nodes(node))
    return found


def tensor_names(tree):
    """Names a module takes from ``tensor``: imported from it, or read as
    attributes of the module (``T.matmul`` after ``from . import tensor as T``)."""
    aliases, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "tensor":
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "tensor"}
    return found | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id in aliases}


def unused_functions(tensor_tree, others):
    """Public top-level functions of ``tensor_tree`` that it names nowhere
    outside their own ``def`` and that no tree in ``others`` takes from it."""
    elsewhere = set().union(*(tensor_names(t) for t in others))
    return sorted(node.name for node in tensor_tree.body
                  if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                  and node.name not in elsewhere | names_read(tensor_tree, skip=node))


def test_function_checker_ignores_a_def_naming_itself():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\ndef g():\n    pass\n\n"
                     "def _h():\n    pass\n\ndef k():\n    pass\n\ndef log():\n    pass\n\n"
                     "def m():\n    pass\n\nalias = g\n")
    user = ast.parse("import numpy as np\nfrom . import tensor as T\nfrom .tensor import m\n"
                     "T.k(np.log(m))\n")
    assert unused_functions(tree, [user]) == ["f", "log"]


def test_every_public_tensor_function_is_used():
    tree = ast.parse((SRC / "tensor.py").read_text())
    others = [ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.name != "tensor.py"]
    assert unused_functions(tree, others) == []
