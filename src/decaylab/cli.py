"""Command-line entry point: train, probe, verify, export.

Experiments are described by a small `key = value` config file with
[model], [decay] and [train] sections; every run directory
receives an echo of the fully resolved config so results can be
reproduced bit for bit.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .checkpoint import CheckpointError, load_checkpoint
from .decay import ConfigError, DecayConfig, STRATEGIES
from .model import ModelConfig
from .probe import capture_trace, export_plot, export_table, layer_stats
from .train import TrainConfig, load_corpus, train_loop
from . import verify

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_IO = 2
EXIT_COMPAT = 3

# section -> {key: default}; the model's nested decay is a section of its own
_SECTIONS = {name: {f.name: f.default for f in fields(cls) if f.name != "decay"}
             for name, cls in (("model", ModelConfig), ("decay", DecayConfig),
                               ("train", TrainConfig))}
_BOOLS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _coerce(raw, default, key, lineno):
    """``raw`` read as the type of ``default``; a None default (``lower_bound``) reads a float."""
    kind = float if default is None else type(default)
    try:
        return _BOOLS[raw.lower()] if kind is bool else kind(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"line {lineno}: cannot parse value for {key!r}: {raw!r}")


@dataclass
class ExperimentConfig:
    """Resolved configuration: model (with its decay) + train settings + corpus."""

    model: ModelConfig = field(default_factory=ModelConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    corpus: str | None = None

    def dump(self):
        blocks = []
        for name in _SECTIONS:
            config = self.model.decay if name == "decay" else getattr(self, name)
            values = {key: getattr(config, key) for key in _SECTIONS[name]}
            if name == "train" and self.corpus:
                values["corpus"] = self.corpus
            lines = [f"{k} = {v}" for k, v in sorted(values.items()) if v is not None]
            blocks.append("\n".join([f"[{name}]"] + lines))
        return "\n\n".join(blocks) + "\n"


# a comment starts at a `#` that begins the line or follows whitespace
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_config(path) -> ExperimentConfig:
    """Strict parser: unknown sections or keys, and a key given twice in one
    section, are errors naming the line."""
    values = {name: {} for name in _SECTIONS}
    corpus = None
    section = None
    first = {}  # (section, key) -> the line that gave it
    with open(path) as f:
        for lineno, raw in enumerate(f, 1):
            line = _COMMENT.split(raw, 1)[0].strip()
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip()
                if section not in _SECTIONS:
                    raise ConfigError(f"line {lineno}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected key = value")
            if section is None:
                raise ConfigError(f"line {lineno}: key outside any [section]")
            key, raw_val = (part.strip() for part in line.split("=", 1))
            if (section, key) in first:
                raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{section}], "
                                  f"first given on line {first[section, key]}")
            first[section, key] = lineno
            if section == "train" and key == "corpus":
                corpus = raw_val
                continue
            if key not in _SECTIONS[section]:
                raise ConfigError(f"line {lineno}: unknown key {key!r} in [{section}]")
            values[section][key] = _coerce(raw_val, _SECTIONS[section][key], key, lineno)
    model = ModelConfig(decay=DecayConfig(**values["decay"]), **values["model"])
    return ExperimentConfig(model, TrainConfig(**values["train"]), corpus)


class _Exit(Exception):
    """``_Exit(code, message)``: a failed command, which ``main`` reports as
    ``error: <message>`` on stderr and exit ``code``."""


@contextmanager
def _exits(code, errors, prefix=""):
    """Turn ``errors`` raised in the block into exit ``code`` with their text."""
    try:
        yield
    except errors as exc:
        raise _Exit(code, f"{prefix}{exc}") from exc


@contextmanager
def _writing(out):
    """Create the directory ``out`` for the block's writes; an OSError in either exits 2."""
    with _exits(EXIT_IO, OSError, f"cannot write outputs to {out!r}: "):
        os.makedirs(out, exist_ok=True)
        yield


def _check_vocab(tokens, vocab, what):
    """Exit 3 if ``tokens`` hold a byte value outside the model's vocabulary."""
    if tokens.max() >= vocab:
        raise _Exit(EXIT_COMPAT, f"{what} has byte values outside the model vocabulary ({vocab})")


def cmd_train(args):
    with _exits(EXIT_IO, (ConfigError, OSError, ValueError)):
        config = parse_config(args.config) if args.config else ExperimentConfig()
        if args.seed is not None:
            config.model = replace(config.model, seed=args.seed)
            config.train = replace(config.train, seed=args.seed)
    config.corpus = args.corpus or config.corpus
    if not config.corpus:
        raise _Exit(EXIT_IO, "no corpus given: pass --corpus or set [train] corpus in the config")
    # echoed absolute, so that the resolved config reruns from any directory
    config.corpus = os.path.abspath(config.corpus)
    with _exits(EXIT_IO, (OSError, ValueError)):
        corpus = load_corpus(config.corpus, config.train)
    _check_vocab(corpus.data, config.model.vocab, "corpus")
    with _writing(args.out), open(os.path.join(args.out, "config_resolved.txt"), "w") as f:
        f.write(config.dump())
    print(config.dump())
    with _exits(EXIT_IO, OSError, f"training aborted, partial state in {args.out}: "):
        train_loop(config.model, config.train, corpus, args.out, log=print)
    return EXIT_OK


def _load(path):
    """(params, config) of the checkpoint at ``path``; exits 2 if it cannot be
    read and 3 if it is not valid."""
    with _exits(EXIT_IO, OSError), _exits(EXIT_COMPAT, CheckpointError):
        return load_checkpoint(path)


def cmd_probe(args):
    if args.length < 1:
        raise _Exit(EXIT_IO, f"--length must be positive, got {args.length}")
    params, config = _load(args.checkpoint)
    with _exits(EXIT_IO, OSError), open(args.text, "rb") as f:
        tokens = np.frombuffer(f.read(args.length), dtype=np.uint8).astype(np.int64)
    if not len(tokens):
        raise _Exit(EXIT_IO, "probe text is empty")
    _check_vocab(tokens, config.vocab, "probe text")
    with _exits(EXIT_COMPAT, ConfigError):  # a checkpoint without decay
        stats = layer_stats(capture_trace(params, config, tokens))
    table = os.path.join(args.out, "decay_medians.csv")
    plot = os.path.join(args.out, "decay_medians.svg")
    with _writing(args.out):
        export_table(stats, table)
        export_plot({config.decay.strategy: stats}, plot)
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
    params, config = _load(args.checkpoint)
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
        with _writing(args.out), open(os.path.join(args.out, "strategy_summary.txt"), "w") as f:
            f.write(text)
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
    try:
        return args.fn(args)
    except _Exit as exc:
        code, message = exc.args
        print(f"error: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
