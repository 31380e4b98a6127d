"""Decay parameterization strategies for linear attention.

``STRATEGIES`` has one :class:`Strategy` row per strategy of the taxonomy
(the Mamba2 family and its ablations, GLA, Hgrn2, Simple Decay, LightNet,
TNL and its learnable variant, no decay), and the row is all the package
knows about it:

- ``formula``: the text ``decaylab export`` prints;
- ``decay(f, **inputs)``: lambda from the decay activation F, the learned
  scalars by name and the knobs of :meth:`DecayConfig.inputs`.  A
  ``"head"`` row gets ``f=None`` and returns one value per head, (h, 1, 1);
- ``scalars``: learned per-head scalar name -> init from the same knobs.
  Each is stored as ``layers.{i}.decay.<name>`` and skips weight decay;
- ``source``: ``"pointwise"`` (elementwise in F), ``"sequence"`` (from F
  along time) or ``"head"`` (no decay projection, no key sharing);
- ``scalar_only``: vector granularity and sharing are rejected;
- ``sample(rng, f)``: the lambda ``decaylab verify`` checks its kernels on.

A new strategy is one row here and touches no other file.

``PROJECTIONS`` has one row per projection layout, keyed by (granularity,
sharing): the names of the weights that produce F and their shapes in terms
of the hidden width ``"d"``, the heads ``"h"`` and the head width ``"dk"``.
It is the one place the layouts are defined.  The module also holds key
sharing (k = 1 - lambda).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import tensor as T
from .recurrence import _chunks, _move, _unchunk
from .tensor import Tensor, as_tensor

GRANULARITIES = ("scalar", "vector")
SHARINGS = ("independent", "shared")
PROJECTIONS = {
    ("scalar", "independent"): {"w_scalar": ("h", "d", 1)},
    # low-rank: one (d, dk) factor shared by the heads, then one per head
    ("vector", "independent"): {"w_low": ("d", "dk"), "w_head": ("h", "dk", "dk")},
    ("vector", "shared"): {"w_shared": ("h", "d", "dk")},
}


class ConfigError(ValueError):
    """Raised for invalid or inconsistent configuration."""


def _require_finite(config):
    """Raise ``ConfigError`` naming the first float field of the dataclass
    ``config`` that is not finite."""
    for key, value in vars(config).items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")


@dataclass(frozen=True)
class Strategy:
    """One row of the strategy table; see the module docstring."""

    formula: str
    decay: Callable
    scalars: dict[str, Callable] = field(default_factory=dict)
    source: str = "pointwise"  # "pointwise" | "sequence" | "head"
    scalar_only: bool = False
    sample: Callable | None = None

    @property
    def projected(self):
        """Whether lambda comes from the decay projection F."""
        return self.source != "head"

    def random_lambda(self, rng, f):
        """Lambda for ``decaylab verify``: the row's ``sample``, or by default
        its decay at N(0, 1) learned scalars, tau = 16 and a U(0, 0.9) floor."""
        if self.sample is not None:
            return self.sample(rng, f)
        draws = {name: rng.normal() for name in self.scalars}
        return self.decay(f, tau=16.0, lower_bound=float(rng.uniform(0.0, 0.9)), **draws).data


@dataclass
class DecayConfig:
    """Strategy tag plus the knobs of the taxonomy table.

    ``tau`` is GLA's temperature, ``p`` the Simple Decay initialization
    target, ``lower_bound`` the Hgrn2 per-layer floor (depth-dependent
    default is filled in by :meth:`inputs`).
    """

    strategy: str = "mamba2"
    granularity: str = "vector"
    sharing: str = "independent"
    tau: float = 16.0
    p: float = 0.99
    lower_bound: float | None = None

    def __post_init__(self):
        _require_finite(self)
        row = STRATEGIES.get(self.strategy)
        if row is None:
            raise ConfigError(f"unknown decay strategy {self.strategy!r}")
        if self.granularity not in GRANULARITIES:
            raise ConfigError(f"unknown granularity {self.granularity!r}")
        if self.sharing not in SHARINGS:
            raise ConfigError(f"unknown sharing mode {self.sharing!r}")
        if row.scalar_only:
            if self.granularity != "scalar" or self.sharing != "independent":
                raise ConfigError(f"{self.strategy} decay is scalar-only without sharing")
        if (self.granularity, self.sharing) not in PROJECTIONS:
            raise ConfigError(f"no decay projection for granularity={self.granularity}, "
                              f"sharing={self.sharing}")
        if row.source == "head" and self.sharing == "shared":
            raise ConfigError("parameter sharing needs a decay projection")
        if not self.tau > 0:
            raise ConfigError("tau must be positive")
        if not 0.0 < self.p < 1.0:
            raise ConfigError("p must lie in (0, 1)")
        if self.lower_bound is not None and not 0.0 <= self.lower_bound < 1.0:
            raise ConfigError("lower_bound must lie in [0, 1)")

    @property
    def projection(self):
        """Weight name -> shape of this config's row of ``PROJECTIONS``."""
        return PROJECTIONS[(self.granularity, self.sharing)]

    def inputs(self, heads, layer, n_layers):
        """Knobs a row's decay and init functions take besides F and the
        learned scalars, for 1-based ``layer`` of ``n_layers``; Hgrn2's
        depth-dependent floor fills in an unset ``lower_bound``."""
        lb = self.lower_bound
        if lb is None:
            lb = hgrn2_lower_bound(layer, n_layers)
        return {"heads": heads, "layer": layer, "n_layers": n_layers,
                "tau": self.tau, "p": self.p, "lower_bound": lb}


@dataclass
class DecayProjection:
    """Weights producing the decay activation F from the layer input: name ->
    Tensor, with exactly the names of the config's ``PROJECTIONS`` row."""

    weights: dict[str, Tensor]

    def check(self, config: DecayConfig):
        if set(self.weights) != set(config.projection):
            raise ConfigError(
                f"decay projection weights do not match granularity={config.granularity}, "
                f"sharing={config.sharing}")


def decay_activations(x, proj: DecayProjection, config: DecayConfig):
    """Decay activation F per head.

    ``x`` has shape (..., n, d); the result has shape (..., h, n, 1) for
    scalar decay or (..., h, n, d/h) for vector decay.
    """
    proj.check(config)
    x = as_tensor(x)
    if "w_low" in proj.weights:
        xh = T.reshape(x, x.shape[:-2] + (1,) + x.shape[-2:])
        return T.matmul(T.matmul(xh, proj.weights["w_low"]), proj.weights["w_head"])
    (w,) = proj.weights.values()
    return T.head_project(x, w)


LIGHTNET_BLOCK = 64
"""Positions per block of LightNet's running log-sum-exp."""
LIGHTNET_LIMIT = 600.0
"""Largest rise of F above its block's reference that the blocked route takes;
exp(600) times a block of 64 stays far below the float64 overflow."""


def _sequential_lse(prev, x):
    """Running log-sum-exp of ``x`` along axis -2 continued from ``prev``
    (..., 1, d), one position at a time: numpy's scalar accumulate."""
    return np.logaddexp.accumulate(np.concatenate([prev, x], axis=-2), axis=-2)[..., 1:, :]


def _running_lse(x):
    """lse_t = log sum_{i<=t} exp(x_i) along axis -2, blocked.

    Each block of ``LIGHTNET_BLOCK`` positions subtracts its reference, the
    running max at its first position, and takes the in-block cumsum of exp;
    a short accumulate over the block totals joins the blocks.  From the
    first position (over all leading indices) where x rises more than
    ``LIGHTNET_LIMIT`` above its block's reference, ``_sequential_lse``
    finishes the sequence from the previous lse.  Each step only reads
    earlier positions, so lse_t depends on x_{<=t} alone on either route.
    """
    xb = _chunks(x, LIGHTNET_BLOCK, -np.inf)
    ref = xb[..., 0, :].copy()
    before = np.maximum.accumulate(xb[..., :-1, :, :].max(axis=-2), axis=-2)
    np.maximum(before, ref[..., 1:, :], out=ref[..., 1:, :])
    ref = ref[..., None, :]
    z = xb - ref
    start = None
    if z.max() > LIGHTNET_LIMIT:
        rise = np.any(z > LIGHTNET_LIMIT, axis=tuple(range(z.ndim - 3)) + (-1,))
        start = int(np.argmax(rise.ravel()))
        # clipped values lie at or after start and are overwritten below
        np.minimum(z, LIGHTNET_LIMIT, out=z)
    np.exp(z, out=z)
    c = np.cumsum(z, axis=-2)
    # a block's own sum may underflow to 0 below its reference
    with np.errstate(divide="ignore"):
        totals = np.log(c[..., :-1, -1:, :]) + ref[..., :-1, :, :]
    # exp(lse before the block - ref) is at most n, so it cannot overflow;
    # either it or the block's first term is at least 1, so c >= 1 afterwards
    c[..., 1:, :, :] += np.exp(np.logaddexp.accumulate(totals, axis=-3) - ref[..., 1:, :, :])
    np.log(c, out=c)
    c += ref
    lse = _unchunk(c, x.shape[-2])
    if start is not None:
        lse[..., start:, :] = _sequential_lse(lse[..., start - 1:start, :], x[..., start:, :])
    return lse


def lightnet_decay(f):
    """Cumulative-softmax decay: lambda_t = d_{t-1} / d_t, d_t = sum_{i<=t} exp(F_i).

    Time runs along axis -2.  The empty prefix gives lambda_1 = 0, and
    1 - lambda_t = exp(F_t) / d_t holds.  lambda_t = exp(lse_{t-1} - lse_t)
    through the blocked running log-sum-exp of :func:`_running_lse`, whose
    sequential fallback takes over where F rises more than
    ``LIGHTNET_LIMIT`` above a block's reference; on both routes lambda_t
    depends only on F_{<=t}, bitwise.  The backward is a reverse scan over
    bounded terms, finite for any finite F.
    """
    f = as_tensor(f)
    x = f.data
    if x.shape[-2] < 1:
        raise ValueError("lightnet_decay: need at least one position")
    lse = _running_lse(x)
    lam_data = np.concatenate(
        [np.zeros_like(x[..., :1, :]),
         np.exp(lse[..., :-1, :] - lse[..., 1:, :])], axis=-2)
    nf = T._node(f)

    def bw(g):
        # 1 - lambda_t = exp(F_t - lse_t), without cancellation.
        # dL/dF_s = p_s (W_s - g_s) with W_s = sum_{t>=s} g_t p_t prod_{s<i<=t} lambda_i,
        # i.e. W_s = g_s p_s + lambda_{s+1} W_{s+1}: every factor lies in [0, 1]
        p = np.exp(x - lse)
        c = _move(g * p, -2, 0)
        lam_t = _move(lam_data, -2, 0)
        w = np.empty_like(c)
        w[-1] = c[-1]
        for t in range(len(c) - 2, -1, -1):
            np.multiply(lam_t[t + 1], w[t + 1], out=w[t])
            w[t] += c[t]
        T._accum(nf, p * (_move(w, 0, -2) - g))

    return T._record(Tensor(lam_data), (f,), bw)


def tnl_decay(j, h, l, L):
    """Data-independent decay constant exp(-8j/h * (1 - l/L)).

    ``j`` and ``l`` are 1-based head and layer indices.
    """
    if not 1 <= j <= h:
        raise IndexError(f"head index {j} out of range 1..{h}")
    if not 1 <= l <= L:
        raise IndexError(f"layer index {l} out of range 1..{L}")
    return math.exp(-8.0 * j / h * (1.0 - l / L))


def simple_decay_init(p):
    """Delta = argsigmoid(p) = ln(p / (1-p)), so sigmoid(Delta) == p."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"simple_decay_init: p must lie in (0, 1), got {p}")
    return math.log(p / (1.0 - p))


def shared_key(lam):
    """Parameter-sharing key: k = 1 - lambda, exact."""
    return 1.0 - as_tensor(lam)


def hgrn2_lower_bound(l, L):
    """Default depth-increasing Hgrn2 floor for 1-based layer l of L."""
    return l / (L + 1.0)


def _mamba2_a(heads, **_):
    """A_j = ln(a_j), a_j log-spaced in [1, 16]."""
    return np.log(np.logspace(0.0, np.log10(16.0), heads))


def _mamba2_delta(heads, **_):
    """Delta with sigmoid(-Delta) = 0.9, i.e. -argsigmoid(0.9)."""
    return np.full(heads, -np.log(9.0))


def _log_sigmoid_power(y, e):
    """sigmoid(-y)^e as exp(-e * softplus(y)): log sigmoid(-y) = -softplus(y),
    so a saturated sigmoid gives a tiny lambda with finite gradients rather
    than 0^(e - 1) in the backward of a power."""
    return T.exp(-(e * T.softplus(y)))


def _hgrn2(f, lower_bound, **_):
    lb = as_tensor(lower_bound)
    return lb + (1.0 - lb) * T.sigmoid(f)


def _tnl(f, heads, layer, n_layers, **_):
    const = [tnl_decay(j, heads, layer, n_layers) for j in range(1, heads + 1)]
    return np.array(const).reshape(heads, 1, 1)


def _tnl_l_g(heads, layer, n_layers, **_):
    """Unconstrained g with exp(-softplus(g)) equal to the TNL constant.

    The last layer's constant is exactly 1, which softplus cannot reach;
    its target is clamped so the learnable value starts at 1 - ~1e-6.
    """
    g = np.empty(heads)
    for j in range(1, heads + 1):
        c = max(8.0 * j / heads * (1.0 - layer / n_layers), 1e-6)
        g[j - 1] = np.log(np.expm1(c))
    return g


STRATEGIES: dict[str, Strategy] = {
    "mamba2": Strategy(
        "sigmoid(-f - delta)^exp(a)",
        lambda f, a, delta, **_: _log_sigmoid_power(f + as_tensor(delta), T.exp(as_tensor(a))),
        scalars={"a": _mamba2_a, "delta": _mamba2_delta}),
    "mamba2_no_a": Strategy(
        "sigmoid(-f - delta)",
        lambda f, delta, **_: T.sigmoid(-f - as_tensor(delta)),
        scalars={"delta": _mamba2_delta}),
    "mamba2_no_delta": Strategy(
        "sigmoid(-f)^exp(a)",
        lambda f, a, **_: _log_sigmoid_power(f, T.exp(as_tensor(a))),
        scalars={"a": _mamba2_a}),
    "mamba2_no_a_delta": Strategy("sigmoid(-f)", lambda f, **_: T.sigmoid(-f)),
    "gla": Strategy(
        "sigmoid(f)^(1/tau)",
        lambda f, tau, **_: T.exp(-T.softplus(-f) / as_tensor(tau))),
    "hgrn2": Strategy("lb + (1 - lb) * sigmoid(f)", _hgrn2),
    "simple": Strategy(
        "sigmoid(f + delta), delta = argsigmoid(p)",
        lambda f, delta, **_: T.sigmoid(f + as_tensor(delta)),
        scalars={"delta": lambda heads, p, **_: np.full(heads, simple_decay_init(p))}),
    "lightnet": Strategy(
        "exp(lse(f_{<t-1}) - lse(f_{<t}))",
        lambda f, **_: lightnet_decay(f), source="sequence"),
    "tnl": Strategy(
        "exp(-8j/h * (1 - l/L))", _tnl, source="head", scalar_only=True,
        sample=lambda rng, f: np.full((f.shape[0], 1), tnl_decay(
            1 + rng.integers(0, 4), 4, 1 + rng.integers(0, 3), 3))),
    "tnl_l": Strategy(
        "exp(-softplus(g)), g learned from the tnl constant",
        lambda f, g, **_: T.exp(-T.softplus(g)),
        scalars={"g": _tnl_l_g}, source="head", scalar_only=True,
        sample=lambda rng, f: np.full(
            (f.shape[0], 1), float(np.exp(-np.log1p(np.exp(rng.normal())))))),
    "none": Strategy(
        "1", lambda f, heads, **_: np.ones((heads, 1, 1)), source="head",
        sample=lambda rng, f: np.ones((f.shape[0], 1))),
}
POINTWISE = tuple(name for name, row in STRATEGIES.items() if row.source == "pointwise")
