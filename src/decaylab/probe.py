"""Decay-distribution instrumentation: run a model over a probe text,
record the decay values each layer computes for its recurrence, as one
array per layer with its head axis, and summarize per-layer medians as
tables and a small SVG chart.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .decay import ConfigError
from .model import ModelConfig, _block, _embed, token_mixer_forward


@dataclass
class LayerStats:
    layer: int
    count: int
    min: float
    median: float
    mean: float
    max: float


def median(values):
    """Middle order statistic; mean of the two middle values for even counts."""
    vals = np.asarray(values, dtype=np.float64).ravel()
    if vals.size == 0:
        raise ValueError("median of empty input")
    n = vals.size
    # one partition: the lower middle of an even count is the largest value
    # below the upper middle
    part = np.partition(vals, n // 2)
    if n % 2:
        return float(part[n // 2])
    return float((part[:n // 2].max() + part[n // 2]) / 2.0)


def layer_stats(samples):
    """One ``LayerStats`` row per layer of ``samples`` (layer -> decay array,
    as ``capture_trace`` returns), in layer order.  Statistics aggregate over
    positions, heads and dimensions jointly."""
    out = []
    for layer in sorted(samples):
        vals = samples[layer].ravel()
        out.append(LayerStats(layer=layer, count=vals.size,
                              min=float(vals.min()), median=median(vals),
                              mean=float(vals.mean()), max=float(vals.max())))
    return out


def capture_trace(params, config: ModelConfig, tokens):
    """Per-layer decay samples of the model on ``tokens``: a dict, layer ->
    that layer's lambda as ``compute_decay`` returns it, shape
    (..., heads, n, w) with w = 1 for scalar decay, bitwise equal to what
    ``lm_forward(..., trace=...)`` records.  Under lrpe the recurrence reads
    a vector lambda doubled to width 2w; the doubled copy repeats each
    value, so the medians are the same.

    A layer's decay depends only on the stream entering it, so the forward
    runs the full blocks of all but the last layer and then only the last
    layer's token mixer, which records its decay: no last-layer GLU, final
    norm or LM head.  Capture happens outside any gradient tape.
    """
    if config.decay.strategy == "none":
        raise ConfigError("cannot probe a model with decay disabled")
    raw: list = []
    x = _embed(tokens, params, config)
    last = config.n_layers - 1
    for i in range(last):
        x = _block(x, params, config, i, trace=raw)
    token_mixer_forward(T.rmsnorm(x, params[f"layers.{last}.attn_norm"]),
                        params, config, last, trace=raw)
    return dict(raw)


def _rewrite(path, text):
    """Write ``text`` to ``path`` over any earlier contents, then cut the file
    to the written length.

    Not ``open(path, "w")``: on ext4 a file truncated to zero and rewritten is
    flushed when it is closed, and the writer sleeps on the disk once per
    file (about 1 ms, up to 30 ms, on a virtio disk).  A probe rewrites both
    of its outputs on every call, so those sleeps set how steady repeated
    probes run.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w") as f:
        f.write(text)
        f.truncate()


def export_table(stats: list[LayerStats], path):
    """CSV of ``stats`` (``layer_stats`` of one trace) with header
    layer,count,min,median,mean,max at 9 significant digits."""
    lines = ["layer,count,min,median,mean,max"]
    for s in stats:
        lines.append(f"{s.layer},{s.count},{s.min:.9g},{s.median:.9g},{s.mean:.9g},{s.max:.9g}")
    _rewrite(path, "\n".join(lines) + "\n")


_SVG_W, _SVG_H = 640, 420
_MARGIN = 50
_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b",
           "#e377c2", "#17becf"]


def export_plot(curves: dict[str, list[LayerStats]], path):
    """Layer index vs per-layer median for each named curve (``layer_stats``
    of one trace), as a single self-contained SVG with legend
    and a fixed [0, 1] y-range."""
    if not curves:
        raise ValueError("export_plot: need at least one curve")
    max_layer = max(s.layer for stats in curves.values() for s in stats)
    px0, px1 = _MARGIN, _SVG_W - _MARGIN
    py0, py1 = _SVG_H - _MARGIN, _MARGIN

    def xpix(layer):
        span = max(max_layer, 1)
        return px0 + (px1 - px0) * layer / span

    def ypix(v):
        v = min(max(v, 0.0), 1.0)
        return py0 + (py1 - py0) * v

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}" '
        f'viewBox="0 0 {_SVG_W} {_SVG_H}">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{px0}" y1="{py0}" x2="{px1}" y2="{py0}" stroke="black"/>',
        f'<line x1="{px0}" y1="{py0}" x2="{px0}" y2="{py1}" stroke="black"/>',
        f'<text x="{(px0 + px1) / 2:.0f}" y="{_SVG_H - 12}" text-anchor="middle" '
        f'font-size="13">layer</text>',
        f'<text x="14" y="{(py0 + py1) / 2:.0f}" font-size="13" '
        f'transform="rotate(-90 14 {(py0 + py1) / 2:.0f})" text-anchor="middle">median decay</text>',
    ]
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = ypix(frac)
        parts.append(f'<text x="{px0 - 8}" y="{y:.1f}" text-anchor="end" '
                     f'font-size="11">{frac:g}</text>')
        parts.append(f'<line x1="{px0 - 4}" y1="{y:.1f}" x2="{px0}" y2="{y:.1f}" stroke="black"/>')
    for i, (name, stats) in enumerate(sorted(curves.items())):
        color = _COLORS[i % len(_COLORS)]
        pts = [(s.layer, s.median) for s in stats]
        coords = " ".join(f"{xpix(l):.2f},{ypix(m):.2f}" for l, m in pts)
        if len(pts) > 1:
            parts.append(f'<polyline points="{coords}" fill="none" stroke="{color}" '
                         f'stroke-width="1.5"/>')
        for l, m in pts:
            parts.append(f'<circle cx="{xpix(l):.2f}" cy="{ypix(m):.2f}" r="3" '
                         f'fill="{color}"/>')
        ly = _MARGIN + 16 * i
        parts.append(f'<rect x="{px1 - 130}" y="{ly - 9}" width="10" height="10" fill="{color}"/>')
        parts.append(f'<text x="{px1 - 115}" y="{ly}" font-size="12">{name}</text>')
    parts.append("</svg>")
    _rewrite(path, "\n".join(parts) + "\n")
