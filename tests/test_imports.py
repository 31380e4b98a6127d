"""No module of the package imports a name it never uses.

No linter ships with the project, so this walks each module's syntax tree:
every name bound by an import must be read somewhere in the same module.
``__init__.py`` is skipped because its imports are the package's exports.
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
