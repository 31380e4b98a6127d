"""The benchmark's three closed-loop workloads and the inputs they run on.

Every input is made here from the workload seed: the byte corpus, the probe
text, and the model and batch seeds.  The program under test receives only
these inputs.  Operations are addressed by their index within a *round*, a
fixed sequence that the timed loop replays; because a round re-initialises
every model it trains, operation ``j`` of a round always gives the same
output, which is what the recorded reference holds.

The library is always called through module attributes (``train.next_batch``
and so on, never a name imported from it), so a traced run sees the same
calls through its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from pathlib import Path

import numpy as np

from decaylab import checkpoint, cli, model, tensor, train
from decaylab.decay import DecayConfig

# The acceptance geometry: 2 layers x hidden 64 x 4 heads, batch 8 x seq 128.
GEOMETRY = {"n_layers": 2, "hidden": 64, "heads": 4, "vocab": 256}
BATCH, SEQ = 8, 128
# Steps per segment: each segment is a short train_loop run of one config
# (init, SEGMENT_STEPS optimizer steps, final checkpoint).
SEGMENT_STEPS = 6
PROBE_LENGTH = 2048
CORPUS_BYTES = 64_000
PROBE_BYTES = 4096

# The six strategies of the acceptance smoke runs.
SMOKE = {
    "mamba2": DecayConfig(strategy="mamba2"),
    "gla": DecayConfig(strategy="gla"),
    "hgrn2": DecayConfig(strategy="hgrn2"),
    "lightnet": DecayConfig(strategy="lightnet"),
    "tnl": DecayConfig(strategy="tnl", granularity="scalar"),
    "simple": DecayConfig(strategy="simple", p=0.99),
}
PROBED = {
    "mamba2": DecayConfig(strategy="mamba2"),
    "lightnet": DecayConfig(strategy="lightnet"),
    "tnl": DecayConfig(strategy="tnl", granularity="scalar"),
}

# Number of recorded reference seeds; --seed n selects seed n mod REF_SEEDS.
REF_SEEDS = 64
# Relative tolerance against the float64 reference.  Rounding-level drift over
# a training segment is ~1e-16; dropping the decay gradient moves the loss by
# ~1e-4.  This sits between the two.
REL_TOL = 1e-8

_WORDS = ["a", "an", "the", "of", "to", "in", "on", "by", "with", "from",
          "gate", "decay", "state", "scan", "chunk", "head", "key", "query",
          "value", "norm", "token", "layer", "memory", "signal", "median",
          "vector", "scalar", "rank", "prefix", "kernel", "forward", "backward",
          "slowly", "quickly", "keeps", "forgets", "mixes", "holds", "reads",
          "writes"]


def workload_seeds(seed):
    """Reference seed, model seed and batch seed derived from ``seed``."""
    ref = seed % REF_SEEDS
    rng = np.random.Generator(np.random.Philox([ref, 0xBE7C]))
    model_seed, batch_seed = (int(s) for s in rng.integers(0, 2**31, size=2))
    return ref, model_seed, batch_seed


def make_text(seed, size, stream):
    """Zipf-weighted word salad with sentence structure, exactly ``size`` bytes."""
    rng = np.random.Generator(np.random.Philox([seed, 0x7E47, stream]))
    weights = 1.0 / np.arange(1, len(_WORDS) + 1) ** 1.1
    weights /= weights.sum()
    parts, total = [], 0
    while total < size:
        lengths = rng.integers(3, 14, size=64)
        ids = rng.choice(len(_WORDS), size=int(lengths.sum()), p=weights)
        ends = rng.random(64)
        pos = 0
        for length, end in zip(lengths, ends):
            sent = " ".join(_WORDS[i] for i in ids[pos:pos + length])
            pos += length
            sent = sent[0].upper() + sent[1:] + (".\n" if end < 0.25 else ". ")
            parts.append(sent)
            total += len(sent)
    return "".join(parts).encode("ascii")[:size]


def _close(value, expected):
    return math.isfinite(value) and abs(value - expected) <= REL_TOL * abs(expected)


class TrainWorkload:
    """Optimizer steps in train_loop's order, in contiguous segments of
    SEGMENT_STEPS steps per config.  The first step of a segment also
    initialises the model and optimizer, and the last saves the segment's
    final checkpoint, as train_loop does around its loop."""

    tokens_per_op = BATCH * SEQ
    steps = SEGMENT_STEPS

    def __init__(self, configs, seed, workdir):
        self.workdir = Path(workdir)
        self.ref_seed, model_seed, batch_seed = workload_seeds(seed)
        self.segments = [(label, model.ModelConfig(seed=model_seed, **cfg))
                         for label, cfg in configs]
        self.train_config = train.TrainConfig(
            total_steps=self.steps, batch_size=BATCH, seq_len=SEQ, seed=batch_seed,
            val_every=0)
        self.round_len = len(self.segments) * self.steps
        self.checkpoint_paths = [str(self.workdir / f"ckpt_{i}_{label}.bin")
                                 for i, (label, _) in enumerate(self.segments)]
        self.params = self.opt = None

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / "corpus.txt"
        path.write_bytes(make_text(self.ref_seed, CORPUS_BYTES, 0))
        self.corpus = train.load_corpus(str(path), self.train_config)

    def label(self, j):
        return self.segments[j // self.steps][0]

    def independent_ops(self):
        """Operations that need no earlier operation of the round."""
        return list(range(0, self.round_len, self.steps))

    def op(self, j):
        """Run operation ``j`` of the round; returns the step's loss."""
        seg, step = divmod(j, self.steps)
        _, mcfg = self.segments[seg]
        tcfg = self.train_config
        if step == 0:
            self.params = model.init_params(mcfg)
            self.opt = train.AdamW(self.params, tcfg)
        elif self.params is None:
            raise RuntimeError(f"operation {j} needs the segment's earlier steps")
        params = self.params
        inputs, targets = train.next_batch(self.corpus, tcfg, step)
        lr = train.wsd_lr(step, tcfg)
        with tensor.Tape():
            loss = train.loss_on_batch(params, mcfg, inputs, targets)
            tensor.backward(loss)
        grads = {}
        for pname, p in params.items():
            grads[pname] = p.grad if p.grad is not None else np.zeros_like(p.data)
            p.grad = None
        train.clip_gradients(grads, tcfg.grad_clip_norm)
        self.opt.step(params, grads, lr)
        if step == self.steps - 1:
            checkpoint.save_checkpoint(self.checkpoint_paths[seg], params, mcfg)
        return loss.item()

    @staticmethod
    def matches(out, expected):
        return _close(out, expected)


class ProbeWorkload:
    """In-process ``decaylab probe`` calls at n=2048, cycling over three
    checkpoints saved during setup."""

    tokens_per_op = PROBE_LENGTH

    def __init__(self, seed, workdir):
        self.workdir = Path(workdir)
        self.ref_seed, self.model_seed, _ = workload_seeds(seed)
        self.labels = list(PROBED)
        self.round_len = len(self.labels)
        self.checkpoint_paths = [str(self.workdir / f"probe_{label}.bin")
                                 for label in self.labels]
        self.out_dirs = [str(self.workdir / f"probe_out_{label}") for label in self.labels]
        self.text_path = str(self.workdir / "probe.txt")

    def setup(self):
        self.workdir.mkdir(parents=True, exist_ok=True)
        Path(self.text_path).write_bytes(make_text(self.ref_seed, PROBE_BYTES, 1))
        for label, path in zip(self.labels, self.checkpoint_paths):
            mcfg = model.ModelConfig(seed=self.model_seed, decay=PROBED[label], **GEOMETRY)
            checkpoint.save_checkpoint(path, model.init_params(mcfg), mcfg)

    def label(self, j):
        return self.labels[j]

    def independent_ops(self):
        """Operations that need no earlier operation of the round."""
        return list(range(self.round_len))

    def op(self, j):
        """Probe checkpoint ``j``; returns every column of decay_medians.csv
        (count, min, median, mean and max of each layer's decay), row by row.
        Layer 0's decay depends only on the embedding; layer 1's mean, min and
        max also depend on layer 0's whole block, its recurrence included."""
        out = self.out_dirs[j]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["probe", self.checkpoint_paths[j], self.text_path,
                             "--out", out, "--length", str(PROBE_LENGTH)])
        if code != cli.EXIT_OK:
            raise RuntimeError(f"probe exited with code {code}")
        with open(os.path.join(out, "decay_medians.csv")) as f:
            rows = f.read().split("\n")[1:-1]
        return [float(v) for row in rows for v in row.split(",")[1:]]

    @staticmethod
    def matches(out, expected):
        return len(out) == len(expected) and all(map(_close, out, expected))


WORKLOADS = ("train_smoke", "train_dplr_rope", "probe_long")


def make(name, seed, workdir):
    """The workload called ``name``, with inputs made from ``seed``."""
    if name == "train_smoke":
        configs = [(label, dict(GEOMETRY, decay=dc)) for label, dc in SMOKE.items()]
        return TrainWorkload(configs, seed, workdir)
    if name == "train_dplr_rope":
        dc = DecayConfig(strategy="gla", granularity="vector", sharing="shared")
        configs = [("gla", dict(GEOMETRY, decay=dc, transition="dplr", posenc="rope"))]
        return TrainWorkload(configs, seed, workdir)
    if name == "probe_long":
        return ProbeWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(WORKLOADS)}")


REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def reference(name, seed):
    """Recorded outputs of one round of workload ``name`` for ``seed``."""
    with open(REFERENCE_PATH) as f:
        return json.load(f)["seeds"][str(workload_seeds(seed)[0])][name]
