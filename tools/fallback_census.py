"""How often training falls back from the chunk kernels to the scan.

A chunk-kernel call (``recurrence.forward_chunked`` or ``forward_dplr``)
runs the sequential scan over the whole call when ``recurrence._divides``
refuses its lam, that is when some lam past a chunk's first position is
below ``recurrence.FLOOR``.  This tool reads an experiment config with
``cli.parse_config`` and runs its ``[train] total_steps`` calls of
``train.train_step`` on ``next_batch`` batches of the corpus (``--corpus``,
else ``[train] corpus``), with the learning rate of ``train.wsd_lr`` (no
validation passes).  It prints per layer the kernel calls and how many of
them ran the scan, with their share, then the totals.  It wraps
``_divides`` and ``model.token_mixer_forward`` from outside; the package is
not changed.

    python tools/fallback_census.py experiment.cfg [--corpus corpus.txt]
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from decaylab import cli, model, recurrence  # noqa: E402
from decaylab.model import init_params  # noqa: E402
from decaylab.train import AdamW, load_corpus, next_batch, train_step, wsd_lr  # noqa: E402


def census(config, corpus_path):
    """(Counter of kernel calls per layer, Counter of those that ran the
    scan) over the ``total_steps`` training steps of ``config``, an
    ``ExperimentConfig``."""
    train_config = config.train
    corpus = load_corpus(corpus_path, train_config)
    params = init_params(config.model)
    opt = AdamW(params, train_config)
    calls, scans, layer = Counter(), Counter(), None
    mixer, divides = model.token_mixer_forward, recurrence._divides

    def traced_mixer(x, params, config, layer_idx, trace=None):
        nonlocal layer
        layer = layer_idx
        return mixer(x, params, config, layer_idx, trace=trace)

    def counted_divides(lam):
        ok = divides(lam)
        calls[layer] += 1
        scans[layer] += not ok
        return ok

    model.token_mixer_forward, recurrence._divides = traced_mixer, counted_divides
    try:
        for step in range(train_config.total_steps):
            inputs, targets = next_batch(corpus, train_config, step)
            train_step(params, opt, config.model, train_config, inputs, targets,
                       wsd_lr(step, train_config))
    finally:
        model.token_mixer_forward, recurrence._divides = mixer, divides
    return calls, scans


def main(argv):
    parser = argparse.ArgumentParser(
        description="count the chunk-kernel calls that fall back to the scan")
    parser.add_argument("config")
    parser.add_argument("--corpus", help="path to a text corpus (overrides config)")
    args = parser.parse_args(argv)
    config = cli.parse_config(args.config)
    corpus = args.corpus or config.corpus
    if not corpus:
        parser.error("no corpus given: pass --corpus or set [train] corpus in the config")
    calls, scans = census(config, corpus)
    print(f"{config.model.decay.strategy}: {config.train.total_steps} steps, "
          f"peak lr {config.train.peak_lr:g}")
    print(f"{'layer':<8} {'calls':>8} {'scan':>8} {'share':>8}")
    for layer in sorted(calls):
        print(f"{layer:<8} {calls[layer]:>8} {scans[layer]:>8} "
              f"{scans[layer] / calls[layer]:>8.3f}")
    total, scan = sum(calls.values()), sum(scans.values())
    print(f"{'total':<8} {total:>8} {scan:>8} {scan / total if total else 0.0:>8.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
