"""Command-line entry point: train, probe, verify, export.

Experiments are described by a small `key = value` config file with
[model], [decay], [train], and [probe] sections; every run directory
receives an echo of the fully resolved config so results can be
reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import asdict, fields

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .decay import ConfigError, DecayConfig, STRATEGIES
from .model import ModelConfig, config_to_dict
from .probe import capture_trace, export_plot, export_table
from .train import TrainConfig, load_corpus, train_loop
from . import verify

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 2
EXIT_COMPAT = 3

_SECTIONS = {
    "model": ModelConfig,
    "decay": DecayConfig,
    "train": TrainConfig,
}
_PROBE_KEYS = {"length": 2048}
_SKIP_MODEL_KEYS = {"decay"}  # nested; configured via its own section


def _coerce(raw, default, key, lineno):
    try:
        if isinstance(default, bool):
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
        if default is None:
            try:
                return int(raw)
            except ValueError:
                return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {raw!r}")


class ExperimentConfig:
    """Resolved configuration: model + decay + train + probe settings."""

    def __init__(self, model: ModelConfig, train: TrainConfig, probe_length=2048,
                 corpus=None):
        self.model = model
        self.train = train
        self.probe_length = probe_length
        self.corpus = corpus

    def dump(self):
        lines = []
        md = config_to_dict(self.model)
        decay = md.pop("decay")
        lines.append("[model]")
        lines += [f"{k} = {v}" for k, v in sorted(md.items())]
        lines.append("")
        lines.append("[decay]")
        lines += [f"{k} = {v}" for k, v in sorted(decay.items()) if v is not None]
        lines.append("")
        lines.append("[train]")
        lines += [f"{k} = {v}" for k, v in sorted(asdict(self.train).items())]
        lines.append("")
        lines.append("[probe]")
        lines.append(f"length = {self.probe_length}")
        return "\n".join(lines) + "\n"


def parse_config(path) -> ExperimentConfig:
    """Strict parser: unknown sections or keys are errors naming the line."""
    values = {name: {} for name in _SECTIONS}
    probe = dict(_PROBE_KEYS)
    corpus = None
    section = None
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in _SECTIONS and section != "probe":
                    raise ConfigError(f"line {lineno}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value")
            if section is None:
                raise ConfigError(f"line {lineno}: key outside any [section]")
            key, raw_val = (part.strip() for part in line.split("=", 1))
            if section == "probe":
                if key not in _PROBE_KEYS:
                    raise ConfigError(f"line {lineno}: unknown key {key!r} in [probe]")
                probe[key] = _coerce(raw_val, _PROBE_KEYS[key], key, lineno)
                continue
            cls = _SECTIONS[section]
            if section == "train" and key == "corpus":
                corpus = raw_val
                continue
            known = {f.name: f for f in fields(cls) if f.name not in
                     (_SKIP_MODEL_KEYS if section == "model" else ())}
            if key not in known:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
            values[section][key] = _coerce(raw_val, getattr(cls(), key), key, lineno)
    decay = DecayConfig(**values["decay"])
    model = ModelConfig(decay=decay, **values["model"])
    train = TrainConfig(**values["train"])
    return ExperimentConfig(model, train, probe_length=probe["length"], corpus=corpus)


def _write_resolved(config: ExperimentConfig, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "config_resolved.txt")
    with open(path, "w") as f:
        f.write(config.dump())
    return path


def cmd_train(args):
    try:
        config = parse_config(args.config) if args.config else ExperimentConfig(
            ModelConfig(), TrainConfig())
    except (ConfigError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    if args.seed is not None:
        config.model.seed = args.seed
        config.train.seed = args.seed
    corpus_path = args.corpus or config.corpus
    if not corpus_path or not os.path.exists(corpus_path):
        print(f"error: corpus file not found: {corpus_path!r}", file=sys.stderr)
        return EXIT_IO
    try:
        corpus = load_corpus(corpus_path, config.train)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        _write_resolved(config, args.out)
    except OSError as exc:
        print(f"error: cannot write outputs to {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(config.dump())
    try:
        train_loop(config.model, config.train, corpus, args.out, log=print)
    except OSError as exc:
        print(f"error: training aborted, partial state in {args.out}: {exc}",
              file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


def _load(path):
    """(params, config, EXIT_OK), or (None, None, exit code) after printing
    why the checkpoint cannot be read (EXIT_IO) or is not valid (EXIT_COMPAT)."""
    try:
        return (*load_checkpoint(path), EXIT_OK)
    except (OSError, CheckpointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return None, None, EXIT_IO if isinstance(exc, OSError) else EXIT_COMPAT


def cmd_probe(args):
    if args.length < 1:
        print(f"error: --length must be positive, got {args.length}", file=sys.stderr)
        return EXIT_IO
    params, config, code = _load(args.checkpoint)
    if code != EXIT_OK:
        return code
    if config.decay.strategy == "none":
        print("error: checkpoint was trained without decay; nothing to probe",
              file=sys.stderr)
        return EXIT_COMPAT
    try:
        with open(args.text, "rb") as f:
            raw = np.frombuffer(f.read(), dtype=np.uint8)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    length = min(args.length, len(raw))
    if length < 1:
        print("error: probe text is empty", file=sys.stderr)
        return EXIT_IO
    tokens = raw[:length].astype(np.int64)
    if tokens.max() >= config.vocab:
        print(f"error: probe text has byte values outside the model vocabulary "
              f"({config.vocab})", file=sys.stderr)
        return EXIT_COMPAT
    stats = capture_trace(params, config, tokens).stats()
    table = os.path.join(args.out, "decay_medians.csv")
    plot = os.path.join(args.out, "decay_medians.svg")
    try:
        os.makedirs(args.out, exist_ok=True)
        export_table(stats, table)
        export_plot({config.decay.strategy: stats}, plot)
    except OSError as exc:
        print(f"error: cannot write outputs to {args.out!r}: {exc}", file=sys.stderr)
        return EXIT_IO
    for s in stats:
        print(f"layer {s.layer}: median {s.median:.6f} (min {s.min:.4f}, "
              f"max {s.max:.4f}, n={s.count})")
    print(f"wrote {table} and {plot}")
    return EXIT_OK


def cmd_verify(args):
    failed = verify.run_all(level=args.level, log=print)
    if failed:
        print("verification failed: " + ", ".join(failed))
        return EXIT_VERIFY
    print("all suites passed")
    return EXIT_OK


def cmd_export(args):
    params, config, code = _load(args.checkpoint)
    if code != EXIT_OK:
        return code
    dc = config.decay
    row = STRATEGIES[dc.strategy]
    lines = [
        "strategy summary",
        f"  strategy:    {dc.strategy}",
        f"  formula:     lambda = {row.formula}",
        f"  granularity: {dc.granularity}",
        f"  sharing:     {dc.sharing}",
        f"  transition:  {config.transition}",
        f"  posenc:      {config.posenc}",
        f"  layers x hidden x heads: {config.n_layers} x {config.hidden} x {config.heads}",
    ]
    for name in sorted(params):
        if ".decay." in name and name.rsplit(".", 1)[-1] in row.scalars:
            vals = params[name].data.ravel()
            lines.append(f"  {name}: " + " ".join(f"{v:.6g}" for v in vals))
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, "strategy_summary.txt"), "w") as f:
                f.write(text)
        except OSError as exc:
            print(f"error: cannot write outputs to {args.out!r}: {exc}", file=sys.stderr)
            return EXIT_IO
    print(text, end="")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(prog="decaylab",
                                     description="decay mechanisms laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a byte-level language model")
    p_train.add_argument("--config", help="experiment config file")
    p_train.add_argument("--corpus", help="path to a text corpus (overrides config)")
    p_train.add_argument("--out", required=True, help="output directory")
    p_train.add_argument("--seed", type=int, help="override config seeds")
    p_train.set_defaults(fn=cmd_train)

    p_probe = sub.add_parser("probe", help="record per-layer decay medians")
    p_probe.add_argument("checkpoint")
    p_probe.add_argument("text", help="probe text file")
    p_probe.add_argument("--out", required=True)
    p_probe.add_argument("--length", type=int, default=2048)
    p_probe.set_defaults(fn=cmd_probe)

    p_verify = sub.add_parser("verify", help="run the self-check suites")
    p_verify.add_argument("--level", choices=("quick", "full"), default="full")
    p_verify.set_defaults(fn=cmd_verify)

    p_export = sub.add_parser("export", help="summarize a checkpoint's decay strategy")
    p_export.add_argument("checkpoint")
    p_export.add_argument("--out")
    p_export.set_defaults(fn=cmd_export)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
