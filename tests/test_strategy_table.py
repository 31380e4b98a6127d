"""A strategy added only to ``decay.STRATEGIES`` works end to end: config,
init, parameter count, training gradient, weight-decay rule, export and
verify cells."""

import numpy as np
import pytest

from decaylab import cli, verify
from decaylab import decay as D
from decaylab import tensor as T
from decaylab.checkpoint import save_checkpoint
from decaylab.decay import DecayConfig, Strategy
from decaylab.model import ModelConfig, init_params, lm_forward, param_count
from decaylab.tensor import Tape, backward
from decaylab.train import cross_entropy, decays_weight

TOY = Strategy(
    "sigmoid(f) * sigmoid(b)",
    # log lambda: log sigmoid(x) = -softplus(-x)
    lambda f, b, **_: -T.softplus(-f) - T.softplus(-b),
    scalars={"b": lambda heads, layer, **_: np.full(heads, float(layer))})
LAYOUTS = list(D.PROJECTIONS)


@pytest.fixture
def toy(monkeypatch):
    monkeypatch.setitem(D.STRATEGIES, "toy", TOY)
    return ModelConfig(n_layers=2, hidden=8, heads=2, vocab=17,
                       decay=DecayConfig(strategy="toy"))


def test_config_accepts_the_row(toy):
    for granularity, sharing in LAYOUTS:
        DecayConfig(strategy="toy", granularity=granularity, sharing=sharing)


def test_init_creates_the_learned_scalar(toy):
    params = init_params(toy)
    for i in range(2):
        assert np.array_equal(params[f"layers.{i}.decay.b"].data, np.full((2, 1, 1), i + 1.0))


@pytest.mark.parametrize("granularity,sharing", LAYOUTS)
def test_param_count_reads_the_row(toy, granularity, sharing):
    toy.decay = DecayConfig(strategy="toy", granularity=granularity, sharing=sharing)
    assert param_count(toy) == sum(p.size for p in init_params(toy).values())


@pytest.mark.parametrize("granularity,sharing", LAYOUTS)
def test_learned_scalar_gets_a_gradient(toy, granularity, sharing):
    toy.decay = DecayConfig(strategy="toy", granularity=granularity, sharing=sharing)
    params = init_params(toy)
    tokens = np.arange(13) % 17
    with Tape():
        loss = cross_entropy(lm_forward(tokens[:-1], params, toy), tokens[1:])
        backward(loss)
    for i in range(2):
        grad = params[f"layers.{i}.decay.b"].grad
        assert grad is not None and np.all(np.isfinite(grad)) and np.any(grad != 0.0)


@pytest.mark.parametrize("granularity,sharing", LAYOUTS)
def test_every_projection_row_reaches_init_and_verify(granularity, sharing):
    dims = {"d": 8, "h": 2, "dk": 4}
    cells = verify._decay_cells()
    for strategy, row in D.STRATEGIES.items():
        if not row.projected:
            continue
        assert (strategy, granularity, sharing) in cells
        config = ModelConfig(n_layers=2, hidden=8, heads=2, vocab=17, decay=DecayConfig(
            strategy=strategy, granularity=granularity, sharing=sharing))
        made = {name: p.shape for name, p in init_params(config).items()
                if ".decay." in name and name.rsplit(".", 1)[1] not in row.scalars}
        assert made == {f"layers.{i}.decay.{name}": tuple(dims.get(s, s) for s in shape)
                        for i in range(2)
                        for name, shape in D.PROJECTIONS[(granularity, sharing)].items()}


def test_weight_decay_exempts_the_learned_scalar(toy):
    assert not decays_weight("layers.0.decay.b")
    assert decays_weight("layers.0.decay.w_low")


def test_export_prints_formula_and_values(toy, tmp_path, capsys):
    path = str(tmp_path / "toy.bin")
    save_checkpoint(path, init_params(toy), toy)
    assert cli.main(["export", path]) == 0
    out = capsys.readouterr().out
    assert "  formula:     lambda = sigmoid(f) * sigmoid(b)\n" in out
    assert "  layers.0.decay.b: 1 1\n" in out
    assert "  layers.1.decay.b: 2 2\n" in out


# a per-head row: one learned value per head, no decay projection
HEAD_TOY = Strategy(
    "sigmoid(c + j)",
    lambda f, heads, c, **_: -T.softplus(-(c + np.arange(heads).reshape(heads, 1, 1))),
    scalars={"c": lambda heads, **_: np.zeros(heads)}, source="head", scalar_only=True)


def test_verify_covers_the_row(toy, monkeypatch):
    monkeypatch.setitem(D.STRATEGIES, "head_toy", HEAD_TOY)
    cells = verify._decay_cells()
    assert [c for c in cells if c[0] == "toy"] == [("toy",) + layout for layout in LAYOUTS]
    assert [c for c in cells if c[0] == "head_toy"] == [("head_toy", "scalar", "independent")]
    rng = np.random.Generator(np.random.Philox(0))
    lam = verify._random_lambda(rng, "toy", "vector", 7, 3)
    assert lam.shape == (7, 3) and np.all((lam > 0.0) & (lam < 1.0))
    # one head's value at every position
    lam = verify._random_lambda(rng, "head_toy", "scalar", 7, 3)
    assert lam.shape == (7, 1) and np.all(lam == lam[0]) and 0.0 < lam[0, 0] < 1.0
