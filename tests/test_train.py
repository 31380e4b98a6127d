import gc
import os
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from decaylab import tensor as T
from decaylab.decay import DecayConfig
from decaylab.model import ModelConfig, init_params, lm_forward
from decaylab.tensor import Tape, Tensor, backward
from decaylab import train
from decaylab.train import (AdamW, Corpus, TrainConfig, clip_gradients,
                            cross_entropy, decays_weight, load_corpus,
                            loss_on_batch, next_batch, train_loop, train_step,
                            wsd_lr)
from decaylab.verify import finite_difference


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(warmup_fraction=0.0)
    with pytest.raises(ValueError):
        TrainConfig(warmup_fraction=0.5, stable_fraction=0.6)
    with pytest.raises(ValueError):
        TrainConfig(peak_lr=0.0)
    with pytest.raises(ValueError):
        TrainConfig(final_lr_ratio=0.0)
    with pytest.raises(ValueError):
        TrainConfig(total_steps=0)


def test_load_corpus_too_small(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("too short")
    with pytest.raises(ValueError):
        load_corpus(str(path), TrainConfig())


def test_corpus_split(corpus):
    cfg = TrainConfig()
    assert len(corpus.train) + len(corpus.val) == len(corpus.data)
    assert len(corpus.train) >= cfg.batch_size * (cfg.seq_len + 1)
    assert len(corpus.val) > 0


def test_next_batch_determinism(corpus):
    cfg = TrainConfig(batch_size=4, seq_len=32)
    a = next_batch(corpus, cfg, 7)
    b = next_batch(corpus, cfg, 7)
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
    c = next_batch(corpus, cfg, 8)
    assert not np.array_equal(a[0], c[0])


def test_next_batch_shift_contract(corpus):
    cfg = TrainConfig(batch_size=4, seq_len=32)
    inputs, targets = next_batch(corpus, cfg, 3)
    assert inputs.shape == (4, 32) and targets.shape == (4, 32)
    assert np.array_equal(inputs[:, 1:], targets[:, :-1])


def test_next_batch_byte_range(corpus):
    cfg = TrainConfig(batch_size=8, seq_len=64)
    inputs, targets = next_batch(corpus, cfg, 0)
    for arr in (inputs, targets):
        assert arr.min() >= 0 and arr.max() < 256


def test_next_batch_val_split_differs(corpus):
    cfg = TrainConfig(batch_size=2, seq_len=16)
    tr = next_batch(corpus, cfg, 5, split="train")
    va = next_batch(corpus, cfg, 5, split="val")
    assert not np.array_equal(tr[0], va[0])


def test_next_batch_draws_an_exactly_fitting_split_at_offset_zero():
    cfg = TrainConfig(batch_size=3, seq_len=16)
    data = np.arange(100, dtype=np.uint8)
    inputs, targets = next_batch(Corpus(data=data, split=100 - 17), cfg, 0, split="val")
    assert np.array_equal(inputs, np.tile(data[83:99], (3, 1)))
    assert np.array_equal(targets, np.tile(data[84:], (3, 1)))


def test_cross_entropy_uniform():
    logits = Tensor(np.zeros((3, 256)))
    loss = cross_entropy(logits, np.array([0, 100, 255]))
    assert abs(loss.item() - np.log(256.0)) <= 1e-12


def test_cross_entropy_one_hot():
    logits = np.zeros((2, 8))
    targets = np.array([3, 5])
    logits[0, 3] = 40.0
    logits[1, 5] = 40.0
    loss = cross_entropy(Tensor(logits), targets)
    assert loss.item() <= 1e-15


def test_cross_entropy_stability():
    logits = Tensor(np.full((1, 4), 5000.0))
    loss = cross_entropy(logits, np.array([2]))
    assert np.isfinite(loss.item())
    assert abs(loss.item() - np.log(4.0)) <= 1e-12


def test_cross_entropy_target_range():
    with pytest.raises(ValueError):
        cross_entropy(Tensor(np.zeros((2, 4))), np.array([0, 4]))


def test_cross_entropy_gradient_identity(rng):
    logits = Tensor(rng.normal(size=(3, 6)), requires_grad=True)
    targets = rng.integers(0, 6, size=3)
    with Tape():
        backward(cross_entropy(logits, targets))
    x = logits.data
    soft = np.exp(x - x.max(axis=-1, keepdims=True))
    soft /= soft.sum(axis=-1, keepdims=True)
    onehot = np.zeros_like(x)
    onehot[np.arange(3), targets] = 1.0
    analytic = (soft - onehot) / 3.0
    assert np.max(np.abs(logits.grad - analytic)) <= 1e-12

    def scalar_fn(v):
        return cross_entropy(Tensor(v), targets).item()

    numeric = finite_difference(scalar_fn, x, step=1e-6)
    assert np.max(np.abs(logits.grad - numeric)) <= 1e-6


def test_cross_entropy_matches_its_formula_bitwise(rng):
    # the loss picks x[target] - m - log s without a full log-softmax array and
    # the backward runs in the buffer of exp(x - m); both keep the formula's order
    x = rng.normal(0.0, 5.0, size=(3, 17, 50))
    targets = rng.integers(0, 50, size=(3, 17))
    logits = Tensor(x, requires_grad=True)
    with Tape():
        loss = cross_entropy(logits, targets)
        backward(loss)
    m = x.max(axis=-1, keepdims=True)
    z = np.exp(x - m)
    s = z.sum(axis=-1, keepdims=True)
    logp = x - m - np.log(s)
    picked = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    assert loss.data == -picked.sum() / picked.size
    soft = z / s
    soft.reshape(-1, 50)[np.arange(picked.size), targets.reshape(-1)] -= 1.0
    assert np.array_equal(logits.grad, np.ones(()) * soft / picked.size)


def test_cross_entropy_in_place_on_a_leaf_records_a_node_of_its_own(rng):
    # in place, on a leaf and on a matmul's output under a tape: the loss
    # adds one node of its own, overwrites the logits' values, and the loss
    # and the gradients reaching the leaves are bitwise those of the call
    # with a buffer of its own
    x = rng.normal(0.0, 5.0, size=(3, 17, 50))
    a = rng.normal(size=(3, 17, 8))
    w = rng.normal(size=(8, 50))
    targets = rng.integers(0, 50, size=(3, 17))
    for matmul in (False, True):
        results = []
        for in_place in (False, True):
            if matmul:
                leaves = (Tensor(a, requires_grad=True), Tensor(w, requires_grad=True))
            else:
                leaves = (Tensor(x.copy(), requires_grad=True),)
            with Tape() as tape:
                logits = T.matmul(*leaves) if matmul else leaves[0]
                before, nodes = logits.data.copy(), len(tape.nodes)
                loss = cross_entropy(logits, targets, in_place=in_place)
                assert len(tape.nodes) == nodes + 1
                backward(loss)
            assert np.array_equal(logits.data, before) != in_place
            results.append((loss.item(), [leaf.grad for leaf in leaves]))
        (ref, ref_grads), (loss, grads) = results
        assert loss == ref
        for grad, ref_grad in zip(grads, ref_grads):
            assert np.array_equal(grad, ref_grad)


def test_cross_entropy_does_not_keep_its_logits(rng):
    # the rule reads exp(x - m), so the logits go when the caller drops them
    x = Tensor(rng.normal(size=(4, 8)), requires_grad=True)
    w = Tensor(rng.normal(size=(8, 5)), requires_grad=True)
    targets = rng.integers(0, 5, size=4)
    gc.disable()
    try:
        with Tape():
            logits = T.matmul(x, w)
            ref = weakref.ref(logits.data)
            loss = cross_entropy(logits, targets)
            del logits
            assert ref() is None
            backward(loss)
    finally:
        gc.enable()
    assert x.grad is not None and w.grad is not None


@pytest.mark.parametrize("tied", [False, True])
def test_loss_on_batch_is_lm_forward_and_cross_entropy_bitwise(tied):
    # loss_on_batch takes the softmax and its gradient in the logits' buffer:
    # as many nodes, and the loss and every gradient bitwise those of
    # lm_forward followed by cross_entropy with a buffer of its own; tied,
    # the embedding's gradient sums the head's and the lookup's
    config = ModelConfig(decay=DecayConfig(strategy="mamba2"), tie_embeddings=tied, seed=3)
    tokens = np.random.Generator(np.random.Philox(3)).integers(0, 256, size=(2, 33))
    results = []
    for loss_fn in (loss_on_batch,
                    lambda p, c, i, t: cross_entropy(lm_forward(i, p, c), t)):
        params = init_params(config)
        with Tape() as tape:
            loss = loss_fn(params, config, tokens[:, :-1], tokens[:, 1:])
            nodes = len(tape.nodes)
            backward(loss)
        results.append((loss.item(), nodes, {n: p.grad for n, p in params.items()}))
    (got, got_nodes, got_grads), (ref, ref_nodes, ref_grads) = results
    assert got == ref
    assert loss_on_batch(init_params(config), config, tokens[:, :-1], tokens[:, 1:]).item() == ref
    assert got_nodes == ref_nodes
    assert ("lm_head" in ref_grads) != tied
    for name, grad in ref_grads.items():
        assert np.array_equal(got_grads[name], grad), name


# tracemalloc peaks of one taped step at the acceptance geometry, about 5 %
# above the measured values (numpy 2.4).  DPLR + RoPE: 30.8 MB, in the
# backward; 34.7 MB when the chunk kernels ran a taped call over the whole
# batch at once and the loss had a logits buffer of its own, 37.7 MB when
# silu saved its sigmoid and the GLU its gated product, 51.4 MB when
# forward_dplr's backward held its pair matrices, B and [V; U], 77.2 MB when
# the tape held every output Tensor and rules held their parents.  mamba2:
# 25.7 MB, in the backward, with the bound kept below the 27.0 MB it took,
# at the end of the forward, before the batch slices and the loss in the
# logits' buffer; 31.0 MB before the silu and GLU change.
STEP_PEAK_MB = 32.3
MAMBA2_STEP_PEAK_MB = 26.9


def _taped_step(config, held_tensors):
    """(Tensors the rules hold, tape nodes, tracemalloc peak in MB) of one
    taped step of ``config`` at batch 8 x seq 128; checks every gradient."""
    params = init_params(config)
    tokens = np.random.Generator(np.random.Philox(7)).integers(0, 256, size=(8, 129))
    tracemalloc.start()
    try:
        with Tape() as tape:
            loss = loss_on_batch(params, config, tokens[:, :-1], tokens[:, 1:])
            held = [t for node in tape.nodes for t in held_tensors(node._backward)]
            backward(loss)
            nodes = len(tape.nodes)
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert all(p.grad is not None for p in params.values())
    return held, nodes, peak


def test_a_taped_step_keeps_only_what_backward_reads(held_tensors):
    dc = DecayConfig(strategy="gla", granularity="vector", sharing="shared")
    config = ModelConfig(decay=dc, transition="dplr", posenc="rope", seed=7)
    held, nodes, peak = _taped_step(config, held_tensors)
    assert held == []
    assert nodes == 72
    assert peak < STEP_PEAK_MB


def test_a_taped_mamba2_step_keeps_only_what_backward_reads(held_tensors):
    config = ModelConfig(decay=DecayConfig(strategy="mamba2"), seed=7)
    held, nodes, peak = _taped_step(config, held_tensors)
    assert held == []
    assert nodes == 58
    assert peak < MAMBA2_STEP_PEAK_MB


def test_adamw_matches_its_formula_bitwise(rng):
    # moments in place, the update in one buffer: three steps bitwise equal to
    # the out-of-place formula, for weights with and without weight decay;
    # weights and steps of one scale, so that a change in the update's last
    # bit shows in the weight
    cfg = TrainConfig(weight_decay=0.1, eps=1e-8)
    shapes = {"layers.0.wq": (4, 3), "final_norm": (3,), "layers.0.decay.a": ()}
    params = {n: Tensor(1e-8 * rng.normal(size=s), requires_grad=True)
              for n, s in shapes.items()}
    ref = {n: p.data.copy() for n, p in params.items()}
    m = {n: np.zeros(s) for n, s in shapes.items()}
    v = {n: np.zeros(s) for n, s in shapes.items()}
    opt = AdamW(params, cfg)
    for t, lr in enumerate([1e-8, 3e-8, 2e-8], start=1):
        grads = {n: rng.normal(size=s) for n, s in shapes.items()}
        before = {n: p.data for n, p in params.items()}
        opt.step(params, grads, lr)
        for n, g in grads.items():
            m[n] = cfg.beta1 * m[n] + (1.0 - cfg.beta1) * g
            v[n] = cfg.beta2 * v[n] + (1.0 - cfg.beta2) * g * g
            mhat, vhat = m[n] / (1.0 - cfg.beta1 ** t), v[n] / (1.0 - cfg.beta2 ** t)
            upd = mhat / (np.sqrt(vhat) + cfg.eps)
            if decays_weight(n):
                upd = upd + cfg.weight_decay * ref[n]
            new = ref[n] - lr * upd
            assert np.array_equal(opt.m[n], m[n]) and np.array_equal(opt.v[n], v[n]), n
            assert np.array_equal(params[n].data, new), n
            assert np.array_equal(before[n], ref[n]), n  # the old array is not written
            ref[n] = new


def test_wsd_schedule_examples():
    cfg = TrainConfig(peak_lr=3e-4, total_steps=1000)
    assert abs(wsd_lr(49, cfg) - 3e-4) <= 1e-18
    assert wsd_lr(500, cfg) == 3e-4
    final = wsd_lr(999, cfg)
    increment = 3e-4 * (1.0 - 0.1) / 200  # one linear decay increment
    assert abs(final - 3e-5) <= increment + 1e-18


def test_wsd_never_exceeds_peak_and_is_continuous():
    cfg = TrainConfig(peak_lr=1e-3, total_steps=400)
    lrs = [wsd_lr(s, cfg) for s in range(400)]
    assert max(lrs) <= cfg.peak_lr + 1e-18
    increment = cfg.peak_lr * max(1.0 / (0.05 * 400), (1.0 - 0.1) / (0.2 * 400))
    for a, b in zip(lrs, lrs[1:]):
        assert abs(b - a) <= increment + 1e-15


def test_wsd_step_range():
    cfg = TrainConfig(total_steps=100)
    with pytest.raises(ValueError):
        wsd_lr(-1, cfg)
    with pytest.raises(ValueError):
        wsd_lr(100, cfg)


def test_adamw_zero_grad_no_weight_decay():
    cfg = TrainConfig(weight_decay=0.0)
    params = {"w": Tensor(np.array([1.0, -2.0]), requires_grad=True)}
    opt = AdamW(params, cfg)
    opt.step(params, {"w": np.zeros(2)}, lr=0.1)
    assert np.array_equal(params["w"].data, np.array([1.0, -2.0]))


def test_adamw_hand_checked_first_step():
    cfg = TrainConfig(weight_decay=0.0, eps=0.0)
    params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    opt = AdamW(params, cfg)
    opt.step(params, {"w": np.array([1.0])}, lr=0.1)
    # bias-corrected mhat = vhat = grad on the first step: update is lr
    assert abs(params["w"].data[0] - 0.9) <= 1e-15


def test_adamw_decoupled_weight_decay():
    cfg = TrainConfig(weight_decay=0.01, eps=1e-8)
    params = {"w": Tensor(np.array([2.0]), requires_grad=True)}
    opt = AdamW(params, cfg)
    opt.step(params, {"w": np.zeros(1)}, lr=0.5)
    assert abs(params["w"].data[0] - (2.0 - 0.5 * 0.01 * 2.0)) <= 1e-15


def test_adamw_beta2_zero_is_sign_sgd():
    cfg = TrainConfig(weight_decay=0.0, beta1=0.0, beta2=1e-12, eps=1e-12)
    params = {"w": Tensor(np.array([0.0, 0.0]), requires_grad=True)}
    opt = AdamW(params, cfg)
    grad = np.array([0.37, -1.4])
    opt.step(params, {"w": grad}, lr=0.01)
    assert np.max(np.abs(params["w"].data + 0.01 * np.sign(grad))) <= 1e-6


def test_adamw_shape_mismatch():
    cfg = TrainConfig()
    params = {"w": Tensor(np.zeros(3), requires_grad=True)}
    opt = AdamW(params, cfg)
    with pytest.raises(ValueError):
        opt.step(params, {"w": np.zeros(4)}, lr=0.1)


def test_adamw_missing_gradient_raises():
    # a missing gradient must not pass as zero, which would only decay the weight
    cfg = TrainConfig(weight_decay=0.01)
    params = {"a": Tensor(np.ones(2), requires_grad=True),
              "w": Tensor(np.ones(2), requires_grad=True)}
    opt = AdamW(params, cfg)
    with pytest.raises(KeyError, match="w"):
        opt.step(params, {"a": np.zeros(2)}, lr=0.1)


def test_decays_weight_rules():
    assert decays_weight("layers.0.wq")
    assert decays_weight("embedding")
    assert not decays_weight("layers.0.attn_norm")
    assert not decays_weight("final_norm")
    assert not decays_weight("layers.1.decay.a")
    assert not decays_weight("layers.1.decay.delta")
    assert not decays_weight("layers.0.decay.g")
    assert not decays_weight("tpe.gates")
    assert decays_weight("layers.0.decay.w_low")


def test_clip_gradients():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = clip_gradients(grads, 1.0)
    assert abs(norm - 5.0) <= 1e-12
    post = np.sqrt(sum(float((g ** 2).sum()) for g in grads.values()))
    assert post <= 1.0 + 1e-12
    grads = {"a": np.array([0.3])}
    norm = clip_gradients(grads, 1.0)
    assert abs(norm - 0.3) <= 1e-15
    assert grads["a"][0] == 0.3


def _tiny_configs():
    mcfg = ModelConfig(n_layers=1, hidden=16, heads=2, vocab=256,
                       decay=DecayConfig(strategy="simple"))
    tcfg = TrainConfig(total_steps=4, batch_size=2, seq_len=24, val_every=2,
                       checkpoint_every=2)
    return mcfg, tcfg


def test_train_step_is_the_taped_step_clip_and_adamw(corpus):
    # the returned loss and norm are loss_on_batch's and clip_gradients' over
    # the same raw gradients, and the parameters match the sequence bitwise
    mcfg, tcfg = _tiny_configs()
    inputs, targets = next_batch(corpus, tcfg, 0)
    params, ref = init_params(mcfg), init_params(mcfg)
    loss, norm, clipped = train_step(params, AdamW(params, tcfg), mcfg, tcfg,
                                     inputs, targets, 1e-3)
    with Tape():
        ref_loss = loss_on_batch(ref, mcfg, inputs, targets)
        backward(ref_loss)
    grads = {name: p.grad for name, p in ref.items()}
    ref_norm = clip_gradients(grads, tcfg.grad_clip_norm)
    AdamW(ref, tcfg).step(ref, grads, 1e-3)
    assert type(loss) is float and loss == ref_loss.item()
    assert norm == ref_norm
    assert clipped == (ref_norm > tcfg.grad_clip_norm)
    for name in params:
        assert np.array_equal(params[name].data, ref[name].data), name


@pytest.mark.parametrize("max_norm,expected", [(0.0, False), (1e12, False), (1e-12, True)])
def test_train_step_reports_whether_it_clipped(corpus, max_norm, expected):
    mcfg, tcfg = _tiny_configs()
    tcfg = replace(tcfg, grad_clip_norm=max_norm)
    params = init_params(mcfg)
    inputs, targets = next_batch(corpus, tcfg, 0)
    _, norm, clipped = train_step(params, AdamW(params, tcfg), mcfg, tcfg,
                                  inputs, targets, 1e-3)
    assert norm > 0 and clipped is expected


def test_train_step_fills_unread_gradients_with_zeros(corpus):
    mcfg, tcfg = _tiny_configs()
    params = init_params(mcfg)
    params["extra"] = Tensor(np.ones(3), requires_grad=True)
    opt = AdamW(params, tcfg)
    seen = {}
    step = opt.step

    def spy(params, grads, lr):
        seen.update(grads)
        step(params, grads, lr)

    opt.step = spy
    inputs, targets = next_batch(corpus, tcfg, 0)
    train_step(params, opt, mcfg, tcfg, inputs, targets, 1e-3)
    assert sorted(seen) == sorted(params)
    assert np.array_equal(seen["extra"], np.zeros(3))
    assert all(p.grad is None for p in params.values())


def test_train_loop_runs_every_step_through_train_step(tmp_path, corpus, monkeypatch):
    mcfg, tcfg = _tiny_configs()
    lrs = []
    step = train.train_step

    def counting(params, opt, model_config, train_config, inputs, targets, lr):
        lrs.append(lr)
        return step(params, opt, model_config, train_config, inputs, targets, lr)

    monkeypatch.setattr(train, "train_step", counting)
    train_loop(mcfg, tcfg, corpus, str(tmp_path / "run"))
    assert lrs == [wsd_lr(s, tcfg) for s in range(tcfg.total_steps)]


def test_train_loop_runs_and_logs(tmp_path, corpus):
    mcfg, tcfg = _tiny_configs()
    out = tmp_path / "run"
    records = train_loop(mcfg, tcfg, corpus, str(out))
    assert len(records) == 4
    lines = (out / "metrics.txt").read_text().strip().split("\n")
    assert len(lines) == 4
    first = lines[0].split(",")
    assert first[0] == "0"
    assert "val_loss" in records[1]
    assert (out / "ckpt_final.bin").exists()
    assert (out / "ckpt_000002.bin").exists()


def test_train_loop_determinism(tmp_path, corpus):
    mcfg, tcfg = _tiny_configs()
    r1 = train_loop(mcfg, tcfg, corpus, str(tmp_path / "a"))
    r2 = train_loop(mcfg, tcfg, corpus, str(tmp_path / "b"))
    for a, b in zip(r1, r2):
        assert a["train_loss"] == b["train_loss"]
        assert a["lr"] == b["lr"]
    assert (tmp_path / "a" / "metrics.txt").read_bytes() == \
        (tmp_path / "b" / "metrics.txt").read_bytes()


def test_train_loop_step0_loss_near_uniform(tmp_path, corpus):
    mcfg, tcfg = _tiny_configs()
    records = train_loop(mcfg, tcfg, corpus, str(tmp_path / "r"))
    assert abs(records[0]["train_loss"] - np.log(256.0)) <= 0.02 * np.log(256.0)


def test_checkpoint_round_trip(tmp_path, corpus):
    from decaylab.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
    mcfg, tcfg = _tiny_configs()
    params = init_params(mcfg)
    path = tmp_path / "ckpt.bin"
    save_checkpoint(str(path), params, mcfg)
    loaded, cfg2 = load_checkpoint(str(path))
    assert sorted(loaded) == sorted(params)
    for name in params:
        assert np.array_equal(loaded[name].data, params[name].data)
    toks = np.arange(8) % mcfg.vocab
    a = lm_forward(toks, params, mcfg).data
    b = lm_forward(toks, loaded, cfg2).data
    assert np.array_equal(a, b)
    # corruption is detected
    raw = bytearray(path.read_bytes())
    raw[50] ^= 0xFF
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(CheckpointError):
        load_checkpoint(str(bad))


def test_checkpoint_save_and_load_copy_the_file_once(tmp_path):
    # save holds its buffer and no copy of it for the digest (1.28 x the file
    # at the default geometry, tracemalloc; 2.13 with the copy); load holds
    # the file and the tensors, and no copy of the file without its digest
    # (2.02 x; 3.02 with the copy)
    from decaylab.checkpoint import load_checkpoint, save_checkpoint
    config = ModelConfig(seed=1)
    params = init_params(config)
    path = str(tmp_path / "ckpt.bin")
    peaks = []
    for call in (lambda: save_checkpoint(path, params, config), lambda: load_checkpoint(path)):
        tracemalloc.start()
        try:
            call()
            peaks.append(tracemalloc.get_traced_memory()[1] / os.path.getsize(path))
        finally:
            tracemalloc.stop()
    assert peaks[0] < 1.5
    assert peaks[1] < 2.5
