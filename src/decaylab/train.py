"""Byte-level language-model training: corpus handling, deterministic
batching, cross-entropy, AdamW with decoupled weight decay, the
warmup-stable-decay learning-rate schedule, one training step and the
training loop.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .checkpoint import save_checkpoint
from .decay import STRATEGIES, _require_finite
from .model import ModelConfig, init_params, lm_forward
from .tensor import Tape, Tensor, backward


@dataclass
class TrainConfig:
    peak_lr: float = 3e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.01
    total_steps: int = 1000
    warmup_fraction: float = 0.05
    stable_fraction: float = 0.75
    final_lr_ratio: float = 0.1
    batch_size: int = 8
    seq_len: int = 128
    seed: int = 0
    grad_clip_norm: float = 1.0
    val_every: int = 50
    checkpoint_every: int = 0  # 0: only at the end
    val_fraction: float = 0.1

    def __post_init__(self):
        _require_finite(self)
        if not self.warmup_fraction > 0:
            raise ValueError("warmup_fraction must be > 0")
        if self.warmup_fraction + self.stable_fraction > 1.0 + 1e-12:
            raise ValueError("warmup_fraction + stable_fraction must be <= 1")
        if not self.peak_lr > 0:
            raise ValueError("peak_lr must be > 0")
        if not 0.0 < self.final_lr_ratio <= 1.0:
            raise ValueError("final_lr_ratio must lie in (0, 1]")
        if self.total_steps < 1 or self.batch_size < 1 or self.seq_len < 1:
            raise ValueError("total_steps, batch_size and seq_len must be positive")
        for key in ("beta1", "beta2", "val_fraction"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ValueError(f"{key} must lie in [0, 1)")
        for key in ("stable_fraction", "eps", "weight_decay", "grad_clip_norm", "val_every",
                    "checkpoint_every", "seed"):
            if not getattr(self, key) >= 0:
                raise ValueError(f"{key} must be >= 0")


@dataclass
class Corpus:
    """Raw bytes of a text file with a deterministic train/validation split."""

    data: np.ndarray  # uint8
    split: int        # first validation index

    @property
    def train(self):
        return self.data[: self.split]

    @property
    def val(self):
        return self.data[self.split:]


def load_corpus(path, config: TrainConfig) -> Corpus:
    with open(path, "rb") as f:
        raw = np.frombuffer(f.read(), dtype=np.uint8)
    need = config.batch_size * (config.seq_len + 1)
    if len(raw) < need:
        raise ValueError(f"corpus too small: {len(raw)} bytes, need at least {need}")
    split = min(max(need, int(len(raw) * (1.0 - config.val_fraction))), len(raw))
    if config.val_every and len(raw) - split < config.seq_len + 1:
        raise ValueError(f"validation split too small: {len(raw) - split} bytes, "
                         f"need at least {config.seq_len + 1}")
    return Corpus(data=raw.copy(), split=split)


def make_corpus(path, size=200_000, seed=0):
    """Write a synthetic English-like byte corpus (word salad with Zipfian
    frequencies and sentence structure) for smoke runs and demos."""
    rng = np.random.Generator(np.random.Philox([seed, 0xC0]))
    words = ["the", "of", "and", "to", "in", "a", "is", "that", "decay", "state",
             "linear", "attention", "model", "value", "key", "query", "layer",
             "head", "scan", "memory", "token", "signal", "gate", "norm",
             "position", "sequence", "median", "vector", "scalar", "product"]
    weights = 1.0 / np.arange(1, len(words) + 1)
    weights /= weights.sum()
    parts = []
    total = 0
    while total < size:
        length = int(rng.integers(4, 12))
        ws = rng.choice(len(words), size=length, p=weights)
        sent = " ".join(words[i] for i in ws)
        sent = sent[0].upper() + sent[1:] + (".\n" if rng.random() < 0.3 else ". ")
        parts.append(sent)
        total += len(sent)
    with open(path, "w") as f:
        f.write("".join(parts))
    return path


def next_batch(corpus: Corpus, config: TrainConfig, step, split="train"):
    """Deterministic (inputs, targets) from a counter-based generator keyed
    by (seed, step); targets are inputs shifted by one."""
    data = corpus.train if split == "train" else corpus.val
    if len(data) < config.seq_len + 1:
        raise ValueError("corpus split too small for seq_len")
    key = [config.seed, step] if split == "train" else [config.seed, step, 1]
    rng = np.random.Generator(np.random.Philox(key))
    # a split of exactly one window draws it at offset 0
    offsets = rng.integers(0, max(len(data) - config.seq_len - 1, 1), size=config.batch_size)
    idx = offsets[:, None] + np.arange(config.seq_len + 1)[None, :]
    window = data[idx].astype(np.int64)
    return window[:, :-1], window[:, 1:]


def cross_entropy(logits, targets, *, in_place=False):
    """Mean over positions of -log softmax(logits)[target], stable.

    Per-position gradient is (softmax(logits) - onehot(target)) / count.
    With ``in_place`` the softmax and then the gradient are taken in the
    logits' own buffer: only for logits that nothing else reads, the rule
    of the op that made them included.
    """
    logits = T.as_tensor(logits)
    targets = np.asarray(targets)
    x = logits.data
    V = x.shape[-1]
    if targets.size and (targets.min() < 0 or targets.max() >= V):
        raise ValueError(f"target out of range [0, {V})")
    # read before z, which may be x, overwrites it
    picked = np.take_along_axis(x, targets[..., None], axis=-1)
    m = x.max(axis=-1, keepdims=True)
    z = np.subtract(x, m, out=x if in_place else None)
    np.exp(z, out=z)
    s = z.sum(axis=-1, keepdims=True)
    picked = (picked - m - np.log(s))[..., 0]
    count, nlogits = picked.size, T._node(logits)

    def bw(g):
        soft = np.divide(z, s, out=z)
        # one target per position: a plain fancy-index subtraction, no repeats
        soft.reshape(-1, V)[np.arange(count), targets.reshape(-1)] -= 1.0
        T._accum(nlogits, np.divide(np.multiply(soft, g, out=soft), count, out=soft))

    return T._record(Tensor(-picked.sum() / count), (logits,), bw)


def wsd_lr(step, config: TrainConfig):
    """Warmup-stable-decay schedule: linear ramp to peak, hold, linear decay
    down to final_lr_ratio * peak."""
    if not 0 <= step < config.total_steps:
        raise ValueError(f"step {step} out of range [0, {config.total_steps})")
    warm = max(1, int(round(config.warmup_fraction * config.total_steps)))
    stable_end = warm + int(round(config.stable_fraction * config.total_steps))
    stable_end = min(stable_end, config.total_steps)
    peak = config.peak_lr
    if step < warm:
        return peak * (step + 1) / warm
    if step < stable_end:
        return peak
    decay_steps = config.total_steps - stable_end
    frac = (step - stable_end + 1) / max(1, decay_steps)
    return peak * (1.0 - (1.0 - config.final_lr_ratio) * frac)


def decays_weight(name):
    """Weight decay applies to linear weights but not norm gains, the learned
    decay scalars of the strategy table, or recurrent gates."""
    if "norm" in name or name.endswith("tpe.gates"):
        return False
    return not any(name.endswith("decay." + scalar)
                   for row in STRATEGIES.values() for scalar in row.scalars)


class AdamW:
    """Decoupled-weight-decay Adam over a flat parameter dict."""

    def __init__(self, params: dict, config: TrainConfig):
        self.config = config
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.decays = {n: decays_weight(n) for n in params}
        self.t = 0

    def step(self, params: dict, grads: dict, lr):
        cfg = self.config
        self.t += 1
        b1, b2 = cfg.beta1, cfg.beta2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for name in sorted(params):
            p = params[name]
            g = grads[name]
            if g.shape != p.data.shape:
                raise T.ShapeError(f"grad shape {g.shape} != param shape {p.data.shape} for {name}")
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            upd = np.divide(v, bc2, out=np.empty_like(v))
            np.sqrt(upd, out=upd)
            upd += cfg.eps
            np.divide(m / bc1, upd, out=upd)
            if cfg.weight_decay and self.decays[name]:
                upd += cfg.weight_decay * p.data
            upd *= lr
            p.data = np.subtract(p.data, upd, out=upd)


def clip_gradients(grads: dict, max_norm):
    """Scale all gradients so the global L2 norm is at most max_norm.

    Returns the pre-clip norm."""
    total = 0.0
    for name in sorted(grads):
        total += float((grads[name] ** 2).sum())
    norm = np.sqrt(total)
    if max_norm and norm > max_norm:
        scale = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * scale
    return norm


def loss_on_batch(params, config: ModelConfig, inputs, targets):
    # nothing else reads these logits, the head's rule included: the loss
    # takes its softmax and its gradient in their buffer
    return cross_entropy(lm_forward(inputs, params, config), targets, in_place=True)


def train_step(params, opt, model_config: ModelConfig, train_config: TrainConfig, inputs,
               targets, lr):
    """One optimizer step on a batch: the taped loss and its backward, a
    gradient for every parameter (zeros for one the loss never reads),
    clipping and the AdamW update.  Leaves every ``p.grad`` None.

    Returns ``(loss, pre_clip_norm, clipped)``; ``clipped`` is True exactly
    when ``clip_gradients`` scaled the gradients.
    """
    with Tape():
        loss = loss_on_batch(params, model_config, inputs, targets)
        backward(loss)
    grads = {}
    for name, p in params.items():
        grads[name] = p.grad if p.grad is not None else np.zeros_like(p.data)
        p.grad = None
    max_norm = train_config.grad_clip_norm
    norm = clip_gradients(grads, max_norm)
    opt.step(params, grads, lr)
    return loss.item(), norm, bool(max_norm and norm > max_norm)


def train_loop(model_config: ModelConfig, train_config: TrainConfig, corpus: Corpus,
               out_dir, log=None):
    """Run training; writes metrics.txt and checkpoints under out_dir.

    Returns the metrics records as a list of dicts.  Fully reproducible
    from the seeds in the configs.
    """
    os.makedirs(out_dir, exist_ok=True)
    params = init_params(model_config)
    opt = AdamW(params, train_config)
    records = []
    metrics_path = os.path.join(out_dir, "metrics.txt")
    with open(metrics_path, "w") as mf:
        for step in range(train_config.total_steps):
            inputs, targets = next_batch(corpus, train_config, step)
            lr = wsd_lr(step, train_config)
            loss, _, _ = train_step(params, opt, model_config, train_config, inputs, targets, lr)
            rec = {"step": step, "lr": lr, "train_loss": loss}
            line = f"{step},{lr:.10g},{loss:.10g}"
            if train_config.val_every and (step + 1) % train_config.val_every == 0:
                inputs, targets = next_batch(corpus, train_config, step, split="val")
                vl = loss_on_batch(params, model_config, inputs, targets).item()
                rec["val_loss"] = vl
                line += f",{vl:.10g}"
            records.append(rec)
            mf.write(line + "\n")
            if log is not None and (step % 20 == 0 or step == train_config.total_steps - 1):
                log(f"step {step} lr {lr:.3g} loss {loss:.4f}")
            if (train_config.checkpoint_every
                    and (step + 1) % train_config.checkpoint_every == 0
                    and step + 1 < train_config.total_steps):
                save_checkpoint(os.path.join(out_dir, f"ckpt_{step + 1:06d}.bin"),
                                params, model_config)
    save_checkpoint(os.path.join(out_dir, "ckpt_final.bin"), params, model_config)
    return records
