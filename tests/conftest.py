import inspect

import numpy as np
import pytest

from decaylab.tensor import Tensor
from decaylab.train import TrainConfig, load_corpus, make_corpus


@pytest.fixture(scope="session")
def corpus_path(tmp_path_factory):
    """A synthetic text corpus of ~150 KB, shared across the session."""
    path = tmp_path_factory.mktemp("data") / "corpus.txt"
    make_corpus(str(path), size=150_000, seed=1)
    return str(path)


@pytest.fixture(scope="session")
def corpus(corpus_path):
    return load_corpus(corpus_path, TrainConfig())


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(1234))


def _held_tensors(rule):
    """The Tensors a backward rule holds through its closure and defaults,
    nested functions, lists and tuples; leaves, their own graph nodes, aside."""
    held, stack, seen = [], [rule], set()
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, Tensor):
            if obj._node is not None or not obj.requires_grad:
                held.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif inspect.isfunction(obj):
            stack.extend(cell.cell_contents for cell in obj.__closure__ or ())
            stack.extend(obj.__defaults__ or ())
    return held


@pytest.fixture
def held_tensors():
    return _held_tensors
