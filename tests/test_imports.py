"""No module of the package imports a name it never uses, every public
function, class or constant of a module is used by the package, and every
operator ``Tensor`` defines is called by it.

No linter ships with the project, so this walks each module's syntax tree:
every name bound by an import must be read somewhere in the same module.
``__init__.py`` is skipped because its imports are the package's exports.
A public top-level function, class or constant must be named somewhere in
the package outside its own definition, so code that only tests reach shows
up here; the README's entry points are listed by name.  Operators are
invoked by syntax, not by name, so those are counted at run time instead,
while a small set of cells trains a step.
"""

import ast
import operator
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from decaylab.decay import STRATEGIES, DecayConfig
from decaylab.model import ModelConfig, init_params
from decaylab.tensor import Tape, Tensor, backward
from decaylab.train import loss_on_batch

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


def taken_from(tree, module):
    """Names ``tree`` takes from the sibling ``module``: imported from it, or
    read as attributes of it (``T.matmul`` after ``from . import tensor as T``)."""
    aliases, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module is None:
            aliases |= {alias.asname or alias.name for alias in node.names
                        if alias.name == module}
    return found | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name) and node.value.id in aliases}


def definitions(tree):
    """(name, node) of the top-level functions, classes and constants (names in
    capitals bound by an assignment) of ``tree``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and target.id.isupper():
                    yield target.id, node


def unused_definitions(tree, module, others):
    """Public top-level functions, classes and constants of ``tree`` (the
    source of ``module``) that it names nowhere outside their own definition
    and that no tree in ``others`` takes from it."""
    elsewhere = set().union(*(taken_from(t, module) for t in others))
    return sorted(name for name, node in definitions(tree)
                  if not name.startswith("_")
                  and name not in elsewhere | names_read(tree, skip=node))


def test_function_checker_ignores_a_def_naming_itself():
    tree = ast.parse("def f(n):\n    return f(n - 1)\n\ndef g():\n    pass\n\n"
                     "def _h():\n    pass\n\ndef k():\n    pass\n\ndef log():\n    pass\n\n"
                     "def m():\n    pass\n\nclass A:\n    def a(self):\n        return A\n\n"
                     "class B:\n    pass\n\nclass C:\n    pass\n\nalias = g\n"
                     "def uses_b(x: B):\n    pass\n\nLIMIT = 3\nSIZE: int = 2\n"
                     "_HIDDEN = 1\nREAD = 4\nUSED = READ\n")
    user = ast.parse("import numpy as np\nfrom . import mod as M\nfrom .mod import m\n"
                     "from .other import C\nM.k(np.log(m), M.USED)\n")
    assert unused_definitions(tree, "mod", [user]) == ["A", "C", "LIMIT", "SIZE", "f", "log",
                                                       "uses_b"]


# Entry points that the README documents and nothing in the package calls.
ENTRY_POINTS = {"model.param_count", "train.make_corpus"}


def test_every_public_definition_is_used():
    trees = {p.stem: ast.parse(p.read_text()) for p in SRC.glob("*.py")
             if p.name != "__init__.py"}
    unused = [f"{module}.{name}" for module, tree in sorted(trees.items())
              for name in unused_definitions(
                  tree, module, [t for m, t in trees.items() if m != module])]
    assert [name for name in unused if name not in ENTRY_POINTS] == []


# operator dunders and their reflected forms: __add__, __radd__, __getitem__, ...
OPERATORS = {f"__{prefix}{name.rstrip('_')}__" for name in operator.__all__
             for prefix in ("", "r")}


def _training_cells():
    """One cell per strategy, plus the shared, DPLR and positional-encoding paths."""
    geometry = dict(n_layers=2, hidden=8, heads=2, vocab=17)
    for strategy, row in STRATEGIES.items():
        granularity = "scalar" if row.scalar_only else "vector"
        yield ModelConfig(decay=DecayConfig(strategy=strategy, granularity=granularity),
                          **geometry)
    shared = DecayConfig(strategy="gla", sharing="shared")
    yield ModelConfig(decay=shared, transition="dplr", posenc="rope", **geometry)
    yield ModelConfig(decay=shared, posenc="lrpe", **geometry)
    yield ModelConfig(decay=DecayConfig(strategy="mamba2", granularity="scalar"),
                      posenc="tpe", **geometry)


def test_every_tensor_operator_is_called(monkeypatch):
    assert {"__add__", "__radd__", "__matmul__", "__rtruediv__", "__getitem__"} <= OPERATORS
    defined = sorted(OPERATORS & set(vars(Tensor)))
    assert "__add__" in defined
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    for name in defined:
        monkeypatch.setattr(Tensor, name, counted(name, vars(Tensor)[name]))
    rng = np.random.Generator(np.random.Philox(0))
    for config in _training_cells():
        params = init_params(config)
        tokens = rng.integers(0, config.vocab, size=(2, 9))
        with Tape():
            backward(loss_on_batch(params, config, tokens[:, :-1], tokens[:, 1:]))
    assert [name for name in defined if not calls[name]] == []
