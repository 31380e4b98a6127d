import hashlib
import itertools
import json
import os
import struct
from collections import Counter
from dataclasses import asdict

import numpy as np
import pytest

from decaylab import checkpoint, cli, model, recurrence
from decaylab import tensor as T
from decaylab.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from decaylab.decay import GRANULARITIES, SHARINGS, STRATEGIES, ConfigError, DecayConfig
from decaylab.model import (POSENCS, TRANSITIONS, ModelConfig, config_from_dict,
                            glu_forward, init_params, lm_forward, param_count,
                            token_mixer_forward)
from decaylab.probe import median
from decaylab.tensor import Tensor
from decaylab.train import cross_entropy
from decaylab.verify import grad_check

SMALL = dict(n_layers=2, hidden=16, heads=2, vocab=17)


def _tokens(rng, n, vocab=17):
    return rng.integers(0, vocab, size=n)


def test_config_validation():
    with pytest.raises(ConfigError):
        ModelConfig(hidden=10, heads=4)
    with pytest.raises(ConfigError):
        ModelConfig(vocab=1)
    with pytest.raises(ConfigError):
        ModelConfig(posenc="rope", hidden=6, heads=2)  # odd head dim
    with pytest.raises(ConfigError):
        ModelConfig(posenc="sinusoid")
    with pytest.raises(ConfigError):
        ModelConfig(transition="dense")


@pytest.mark.parametrize("strategy", ["mamba2", "tnl", "none"])
def test_dplr_rejects_lrpe(strategy):
    # lrpe doubles the q/k width while kappa keeps the head dimension
    decay = DecayConfig(strategy=strategy, granularity="scalar")
    with pytest.raises(ConfigError):
        ModelConfig(transition="dplr", posenc="lrpe", decay=decay)
    ModelConfig(transition="dplr", posenc="rope", decay=decay)
    ModelConfig(transition="diagonal", posenc="lrpe", decay=decay)


def test_config_round_trip():
    config = ModelConfig(decay=DecayConfig(strategy="gla", sharing="shared"),
                         posenc="rope", **SMALL)
    again = config_from_dict(asdict(config))
    assert asdict(again) == asdict(config)


def _store_value_dim(path, value_dim):
    """Rewrite the checkpoint at ``path`` so its stored config carries
    ``value_dim``, as checkpoints written before the field was removed do;
    the digest stays valid."""
    raw = path.read_bytes()[:-32]
    start = len(MAGIC) + 4
    hlen = struct.unpack("<I", raw[len(MAGIC):start])[0]
    header = json.loads(raw[start:start + hlen])
    header["config"]["value_dim"] = value_dim
    hbytes = json.dumps(header, sort_keys=True).encode()
    body = MAGIC + struct.pack("<I", len(hbytes)) + hbytes + raw[start + hlen:]
    path.write_bytes(body + hashlib.sha256(body).digest())


def test_stored_value_dim_loads_only_when_equal_to_hidden(tmp_path, capsys):
    config = ModelConfig(**SMALL)
    params = init_params(config)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), params, config)
    _store_value_dim(path, config.hidden)
    loaded, again = load_checkpoint(str(path))
    assert asdict(again) == asdict(config)
    assert all(np.array_equal(loaded[n].data, params[n].data) for n in params)
    _store_value_dim(path, 32)
    with pytest.raises(CheckpointError, match="value_dim"):
        load_checkpoint(str(path))
    assert cli.main(["export", str(path)]) == cli.EXIT_COMPAT
    assert "malformed checkpoint" in capsys.readouterr().err


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path, monkeypatch):
    config = ModelConfig(**SMALL)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), init_params(config), config)
    before = path.read_bytes()

    class HalfWrite:
        """A file that takes half of the first write, then fails."""

        def __init__(self, f):
            self.f = f

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.f.close()

        def write(self, data):
            self.f.write(bytes(data[: len(data) // 2]))
            self.f.flush()
            raise OSError(28, "No space left on device")

    monkeypatch.setattr(checkpoint, "open", lambda p, mode: HalfWrite(open(p, mode)),
                        raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(str(path), init_params(config, seed=1), config)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["ckpt.bin"]


def test_init_determinism():
    config = ModelConfig(**SMALL)
    p1 = init_params(config)
    p2 = init_params(config)
    assert sorted(p1) == sorted(p2)
    for name in p1:
        assert np.array_equal(p1[name].data, p2[name].data), name


def test_init_seed_changes_params():
    config = ModelConfig(**SMALL)
    p1 = init_params(config, seed=0)
    p2 = init_params(config, seed=1)
    assert any(not np.array_equal(p1[n].data, p2[n].data) for n in p1)


def test_init_truncation():
    config = ModelConfig(**SMALL)
    params = init_params(config)
    for name, p in params.items():
        if "norm" in name or name.startswith("tpe.") or ".decay.a" in name \
                or ".decay.delta" in name or ".decay.g" in name:
            continue
        assert np.max(np.abs(p.data)) <= 2.0 * 0.02 + 1e-15, name


def test_norm_gains_start_at_one():
    params = init_params(ModelConfig(**SMALL))
    for name in ("final_norm", "layers.0.attn_norm", "layers.1.out_norm"):
        assert np.all(params[name].data == 1.0)


@pytest.mark.parametrize("kwargs", [
    dict(decay=DecayConfig(strategy="mamba2")),
    dict(decay=DecayConfig(strategy="mamba2", granularity="scalar")),
    dict(decay=DecayConfig(strategy="gla", sharing="shared")),
    dict(decay=DecayConfig(strategy="lightnet")),
    dict(decay=DecayConfig(strategy="tnl", granularity="scalar")),
    dict(decay=DecayConfig(strategy="tnl_l", granularity="scalar")),
    dict(decay=DecayConfig(strategy="simple"), transition="dplr"),
    dict(decay=DecayConfig(strategy="hgrn2"), posenc="rope"),
    dict(decay=DecayConfig(strategy="mamba2_no_a_delta"), posenc="lrpe"),
    dict(decay=DecayConfig(strategy="simple", granularity="scalar"), posenc="tpe"),
    dict(decay=DecayConfig(strategy="none")),
])
def test_param_count_matches_actual(kwargs):
    config = ModelConfig(**SMALL, **kwargs)
    params = init_params(config)
    actual = sum(p.size for p in params.values())
    assert actual == param_count(config)


def test_shared_mode_has_fewer_parameters():
    ind = ModelConfig(**SMALL, decay=DecayConfig(strategy="gla"))
    sh = ModelConfig(**SMALL, decay=DecayConfig(strategy="gla", sharing="shared"))
    assert param_count(sh) < param_count(ind)


def test_tied_embeddings_drop_lm_head():
    config = ModelConfig(**SMALL, tie_embeddings=True)
    params = init_params(config)
    assert "lm_head" not in params
    assert sum(p.size for p in params.values()) == param_count(config)


@pytest.mark.parametrize("kwargs", [
    dict(decay=DecayConfig(strategy="mamba2")),
    dict(decay=DecayConfig(strategy="lightnet", sharing="shared")),
    dict(decay=DecayConfig(strategy="tnl", granularity="scalar")),
    dict(decay=DecayConfig(strategy="simple"), transition="dplr"),
    dict(decay=DecayConfig(strategy="gla"), posenc="rope"),
    dict(decay=DecayConfig(strategy="hgrn2"), posenc="tpe"),
    dict(decay=DecayConfig(strategy="none")),
])
def test_causality(kwargs, rng):
    config = ModelConfig(**SMALL, **kwargs)
    params = init_params(config)
    toks = _tokens(rng, 10)
    base = lm_forward(toks, params, config).data
    toks2 = toks.copy()
    toks2[7:] = (toks2[7:] + 3) % config.vocab
    mod = lm_forward(toks2, params, config).data
    assert np.array_equal(base[:7], mod[:7])
    assert not np.array_equal(base[7:], mod[7:])


@pytest.mark.parametrize("posenc", ["rope", "none"])
def test_rope_base_reaches_the_rotation_only_under_rope(posenc, rng):
    toks = _tokens(rng, 12)
    logits = []
    for base in (ModelConfig.rope_base, 100.0):
        config = ModelConfig(**SMALL, posenc=posenc, rope_base=base)
        logits.append(lm_forward(toks, init_params(config), config).data)
    # position 0 is rotated by angle 0 under any base
    assert logits[0][0].tobytes() == logits[1][0].tobytes()
    assert (logits[0].tobytes() == logits[1].tobytes()) == (posenc == "none")


def test_forward_determinism(rng):
    config = ModelConfig(**SMALL, decay=DecayConfig(strategy="mamba2"))
    params = init_params(config)
    toks = _tokens(rng, 12)
    a = lm_forward(toks, params, config).data
    b = lm_forward(toks, params, config).data
    assert np.array_equal(a, b)


def test_fresh_model_loss_near_uniform(rng):
    config = ModelConfig(n_layers=2, hidden=16, heads=2, vocab=64)
    params = init_params(config)
    toks = rng.integers(0, 64, size=(2, 24))
    logits = lm_forward(toks[:, :-1], params, config)
    loss = cross_entropy(logits, toks[:, 1:]).item()
    assert abs(loss - np.log(64.0)) <= 0.02 * np.log(64.0)


def test_token_range_check(rng):
    config = ModelConfig(**SMALL)
    params = init_params(config)
    with pytest.raises(ValueError):
        lm_forward(np.array([0, 17]), params, config)
    with pytest.raises(ValueError):
        lm_forward(np.array([-1, 0]), params, config)


def test_output_shapes(rng):
    for kwargs in (dict(), dict(posenc="lrpe"), dict(posenc="tpe"),
                   dict(transition="dplr")):
        config = ModelConfig(**SMALL, **kwargs)
        params = init_params(config)
        logits = lm_forward(_tokens(rng, 9), params, config)
        assert logits.shape == (9, 17)
        x = Tensor(rng.normal(size=(9, 16)))
        out = token_mixer_forward(x, params, config, 0)
        assert out.shape == (9, 16)


def test_glu_zero_input():
    config = ModelConfig(**SMALL)
    params = init_params(config)
    out = glu_forward(Tensor(np.zeros((4, 16))), params, 0)
    assert np.array_equal(out.data, np.zeros((4, 16)))


def test_glu_saturated_gate(rng):
    config = ModelConfig(**SMALL)
    params = init_params(config)
    params["layers.0.glu.wg"].data = np.zeros_like(params["layers.0.glu.wg"].data)
    x = rng.normal(size=(4, 16))
    out = glu_forward(Tensor(x), params, 0)
    ref = (0.5 * (x @ params["layers.0.glu.wu"].data)) @ params["layers.0.glu.wo"].data
    assert np.max(np.abs(out.data - ref)) <= 1e-12


def test_glu_gradient(rng):
    config = ModelConfig(n_layers=1, hidden=8, heads=2, vocab=5)
    params = init_params(config)
    leaves = {n: p for n, p in params.items() if n.startswith("layers.0.glu.")}
    x = rng.normal(size=(3, 8))

    def build(lv):
        merged = dict(params)
        merged.update(lv)
        y = glu_forward(Tensor(x), merged, 0)
        return T.tsum(y * y)

    assert grad_check(build, leaves, rel_tol=1e-4) == []


def _composed_glu(x, params, layer_idx):
    # the chain glu_forward's one node replaces, kept as its oracle
    pre = f"layers.{layer_idx}.glu."
    gate = T.sigmoid(T.matmul(x, params[pre + "wg"]))
    return T.matmul(gate * T.matmul(x, params[pre + "wu"]), params[pre + "wo"])


@pytest.mark.parametrize("shape, x_grad", [((3, 5, 16), True), ((7, 16), True),
                                           ((3, 5, 16), False)])
def test_glu_node_is_bitwise_the_composed_chain(shape, x_grad, rng):
    params = init_params(ModelConfig(**SMALL))
    x = rng.normal(size=shape)
    weight = rng.normal(size=shape)
    results = []
    for glu, n_nodes in ((glu_forward, 1), (_composed_glu, 5)):
        leaves = {name: Tensor(p.data, requires_grad=True)
                  for name, p in params.items() if name.startswith("layers.1.glu.")}
        xt = Tensor(x, requires_grad=x_grad)
        with T.Tape() as tape:
            y = glu(xt, leaves, 1)
            assert len(tape.nodes) == n_nodes
            T.backward(T.tsum(y * weight))
        results.append([y.data, xt.grad] + [leaves[f"layers.1.glu.{w}"].grad
                                            for w in ("wg", "wu", "wo")])
    fused, composed = results
    if not x_grad:
        assert fused[1] is None and composed[1] is None
        del fused[1], composed[1]
    assert all(np.array_equal(a, b) for a, b in zip(fused, composed))


def test_zero_input_mixer_output_is_zero():
    config = ModelConfig(**SMALL)
    params = init_params(config)
    out = token_mixer_forward(Tensor(np.zeros((5, 16))), params, config, 0)
    assert np.array_equal(out.data, np.zeros((5, 16)))


def test_mixer_reduces_to_raw_recurrence(rng):
    # single head, no decay, gate zeroed so u = 0.5 exactly: the mixer is
    # rmsnorm(0.5 * o) with o the plain linear attention recurrence
    from decaylab.recurrence import forward_sequential
    config = ModelConfig(n_layers=1, hidden=4, heads=1, vocab=5,
                         decay=DecayConfig(strategy="none"))
    params = init_params(config)
    params["layers.0.wu1"].data = np.zeros_like(params["layers.0.wu1"].data)
    x = rng.normal(size=(6, 4))
    out = token_mixer_forward(Tensor(x), params, config, 0)
    sil = lambda z: z / (1.0 + np.exp(-z))
    q = sil(x @ params["layers.0.wq"].data[0])
    k = sil(x @ params["layers.0.wk"].data[0])
    v = x @ params["layers.0.wv"].data[0]
    o_raw = forward_sequential(q, k, v, np.ones((6, 1)))
    gated = 0.5 * o_raw.data
    ref = gated / np.sqrt((gated ** 2).mean(axis=-1, keepdims=True) + 1e-6)
    assert np.max(np.abs(out.data - ref)) <= 1e-12


def test_scalar_vector_tied_full_model(rng):
    d, h = 16, 2
    dk = d // h
    base = dict(n_layers=2, hidden=d, heads=h, vocab=17)
    cfg_s = ModelConfig(**base, decay=DecayConfig(strategy="mamba2",
                                                  granularity="scalar"))
    cfg_v = ModelConfig(**base, decay=DecayConfig(strategy="mamba2",
                                                  granularity="vector"))
    params_s = init_params(cfg_s)
    params_v = {}
    for name, p in params_s.items():
        if name.endswith("decay.w_scalar"):
            layer = name.rsplit(".", 1)[0]
            w_scalar = p.data  # (h, d, 1)
            w_low = np.zeros((d, dk))
            w_head = np.zeros((h, dk, dk))
            for j in range(h):
                w_low[:, j] = w_scalar[j, :, 0]
                w_head[j, j, :] = 1.0
            params_v[layer + ".w_low"] = Tensor(w_low, requires_grad=True)
            params_v[layer + ".w_head"] = Tensor(w_head, requires_grad=True)
        else:
            params_v[name] = Tensor(p.data.copy(), requires_grad=True)
    toks = _tokens(rng, 11)
    out_s = lm_forward(toks, params_s, cfg_s).data
    out_v = lm_forward(toks, params_v, cfg_v).data
    assert np.max(np.abs(out_s - out_v)) <= 1e-10


def test_simple_decay_init_median(rng):
    p = 0.95
    config = ModelConfig(**SMALL, decay=DecayConfig(strategy="simple", p=p))
    params = init_params(config)
    trace = []
    lm_forward(_tokens(rng, 64), params, config, trace=trace)
    for _, lam in trace:
        assert abs(median(lam.ravel()) - p) <= 0.02


def test_trace_contains_post_strategy_values(rng):
    config = ModelConfig(**SMALL, decay=DecayConfig(strategy="tnl",
                                                    granularity="scalar"))
    params = init_params(config)
    trace = []
    lm_forward(_tokens(rng, 8), params, config, trace=trace)
    assert [layer for layer, _ in trace] == [0, 1]
    from decaylab.decay import tnl_decay
    for layer, lam in trace:
        for j in range(2):
            expected = tnl_decay(j + 1, 2, layer + 1, 2)
            assert np.all(lam[j] == expected)


def test_full_model_gradient_check(rng):
    config = ModelConfig(n_layers=2, hidden=8, heads=2, vocab=11,
                         decay=DecayConfig(strategy="mamba2"))
    params = init_params(config)
    toks = rng.integers(0, 11, size=7)
    targets = rng.integers(0, 11, size=7)

    def build(lv):
        return cross_entropy(lm_forward(toks, lv, config), targets)

    assert grad_check(build, params, rel_tol=1e-3) == []


KERNELS = ("forward_chunked", "forward_sequential", "forward_dplr")


def _kernel_calls(config, monkeypatch, rng, tape):
    """Kernel calls of one forward of `config`: a training step under a tape,
    or a plain forward without one."""
    calls = Counter()
    for name in KERNELS:
        def counted(*args, _name=name, _fn=getattr(model, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(model, name, counted)
    params = init_params(config)
    if tape:
        with T.Tape():
            T.backward(cross_entropy(lm_forward(_tokens(rng, 20), params, config),
                                     _tokens(rng, 20)))
    else:
        lm_forward(_tokens(rng, 20), params, config)
    return calls


@pytest.mark.parametrize("decay,transition,kernel", [
    (DecayConfig(strategy="mamba2", granularity="scalar"), "diagonal", "forward_chunked"),
    (DecayConfig(strategy="tnl", granularity="scalar"), "diagonal", "forward_chunked"),
    (DecayConfig(strategy="none"), "diagonal", "forward_chunked"),
    (DecayConfig(strategy="mamba2"), "diagonal", "forward_chunked"),
    (DecayConfig(strategy="gla", sharing="shared"), "diagonal", "forward_chunked"),
    (DecayConfig(strategy="mamba2", granularity="scalar"), "dplr", "forward_dplr"),
    (DecayConfig(strategy="gla"), "dplr", "forward_dplr"),
])
def test_each_cell_runs_one_kernel_per_layer(decay, transition, kernel, monkeypatch, rng):
    # the diagonal transition trains through the chunked kernel at either
    # width of decay, and DPLR through its own kernel
    config = ModelConfig(n_layers=3, hidden=8, heads=2, vocab=17, transition=transition,
                         decay=decay)
    assert _kernel_calls(config, monkeypatch, rng, tape=True) == {kernel: 3}


@pytest.mark.parametrize("decay,transition,kernel", [
    (DecayConfig(strategy="mamba2", granularity="scalar"), "diagonal", "forward_chunked"),
    (DecayConfig(strategy="tnl", granularity="scalar"), "diagonal", "forward_chunked"),
    (DecayConfig(strategy="mamba2"), "diagonal", "forward_chunked"),
    (DecayConfig(strategy="gla", sharing="shared"), "diagonal", "forward_chunked"),
    (DecayConfig(strategy="mamba2", granularity="scalar"), "dplr", "forward_dplr"),
    (DecayConfig(strategy="gla"), "dplr", "forward_dplr"),
])
def test_each_cell_runs_one_kernel_per_layer_without_a_tape(decay, transition, kernel,
                                                            monkeypatch, rng):
    # without a tape each cell takes the same kernel as under one
    config = ModelConfig(n_layers=3, hidden=8, heads=2, vocab=17, transition=transition,
                         decay=decay)
    assert _kernel_calls(config, monkeypatch, rng, tape=False) == {kernel: 3}


def test_a_head_width_of_one_runs_the_scan(monkeypatch, rng):
    config = ModelConfig(n_layers=3, hidden=8, heads=8, vocab=17,
                         decay=DecayConfig(strategy="mamba2", granularity="scalar"))
    for tape in (True, False):
        assert _kernel_calls(config, monkeypatch, rng, tape) == {"forward_sequential": 3}


def _scalar_cells():
    """Every runnable cell whose decay is one value per head and position on
    the diagonal transition: the cells that train through the chunked kernel."""
    for strategy, granularity, sharing, posenc in itertools.product(
            STRATEGIES, GRANULARITIES, SHARINGS, POSENCS):
        if STRATEGIES[strategy].projected and granularity != "scalar":
            continue
        try:
            yield ModelConfig(n_layers=2, hidden=8, heads=2, vocab=17, posenc=posenc,
                              decay=DecayConfig(strategy=strategy, granularity=granularity,
                                                sharing=sharing))
        except ConfigError:
            continue


def test_scalar_cells_match_the_scan_route(monkeypatch, rng):
    n = 2 * recurrence.CHUNK + 5
    tokens, targets = _tokens(rng, 2 * n).reshape(2, n), _tokens(rng, 2 * n).reshape(2, n)

    def loss_and_grads(config, params):
        with T.Tape():
            loss = cross_entropy(lm_forward(tokens, params, config), targets)
            T.backward(loss)
        grads = {name: p.grad for name, p in params.items()}
        for p in params.values():
            p.grad = None
        return loss.item(), grads

    cells = 0
    for config in _scalar_cells():
        # scale every weight, so that the decays spread and the norms are not all ones
        params = {name: Tensor(p.data * rng.uniform(0.5, 1.5, p.shape), requires_grad=True)
                  for name, p in init_params(config).items()}
        loss, grads = loss_and_grads(config, params)
        with monkeypatch.context() as m:
            m.setattr(model, "forward_chunked", recurrence.forward_sequential)
            loss_ref, grads_ref = loss_and_grads(config, params)
        assert abs(loss - loss_ref) <= 1e-10 * abs(loss_ref), config
        for name, ref in grads_ref.items():
            assert np.max(np.abs(grads[name] - ref)) <= 1e-10 * np.max(np.abs(ref)), (config, name)
        cells += 1
    assert cells >= 30


def test_saturated_decay_inputs_give_a_finite_loss_and_gradients(monkeypatch, rng):
    # f = +-800 in runs of three positions drives lambda to 0 and 1 inside
    # chunks; the chunked and DPLR kernels must fall back to the scan there
    n = 2 * recurrence.CHUNK + 5
    real_activations, real_scan = model.D.decay_activations, recurrence._recurrence
    scans = Counter()

    def saturated(x, proj, config):
        f = real_activations(x, proj, config)
        sign = np.where(np.arange(n) // 3 % 2 == 0, 800.0, -800.0)[:, None]
        return f * 0.0 + np.broadcast_to(sign, f.shape)

    def counted(q, k, v, lam, kappa=None, beta=None):
        scans["diagonal" if kappa is None else "dplr"] += 1
        return real_scan(q, k, v, lam, kappa, beta)

    monkeypatch.setattr(model.D, "decay_activations", saturated)
    monkeypatch.setattr(recurrence, "_recurrence", counted)
    cells = 0
    for strategy, granularity, sharing, transition in itertools.product(
            STRATEGIES, GRANULARITIES, SHARINGS, TRANSITIONS):
        try:
            config = ModelConfig(n_layers=2, hidden=8, heads=2, vocab=17, transition=transition,
                                 decay=DecayConfig(strategy=strategy, granularity=granularity,
                                                   sharing=sharing))
        except ConfigError:
            continue
        params = init_params(config)
        with T.Tape():
            loss = cross_entropy(lm_forward(_tokens(rng, 2 * n).reshape(2, n), params, config),
                                 _tokens(rng, 2 * n).reshape(2, n))
            T.backward(loss)
        assert np.isfinite(loss.item()), config
        for name, p in params.items():
            assert p.grad is None or np.all(np.isfinite(p.grad)), (config, name)
        cells += 1
    assert cells >= 20 and scans["diagonal"] and scans["dplr"]
