import contextlib
import hashlib
import json
import os
import re
import shutil
import struct
import subprocess
import sys
import time
from collections import Counter
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest

from decaylab import cli
from decaylab import decay, model, recurrence, tensor
from decaylab.checkpoint import MAGIC, save_checkpoint
from decaylab.decay import STRATEGIES, ConfigError, DecayConfig
from decaylab.model import ModelConfig, init_params, lm_forward
from decaylab.tensor import Tensor


TINY_CONFIG = """\
# smoke experiment
[model]
n_layers = 1
hidden = 16
heads = 2

[decay]
strategy = simple
p = 0.99

[train]
total_steps = 3
batch_size = 2
seq_len = 24
val_every = 0
"""


def _write(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_empty_config_is_all_defaults(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, ""))
    assert cfg.model.n_layers == 2
    assert cfg.model.decay.strategy == "mamba2"
    assert cfg.train.total_steps == 1000
    assert cfg.corpus is None


def test_parse_config_sections(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, TINY_CONFIG))
    assert cfg.model.hidden == 16
    assert cfg.model.decay.strategy == "simple"
    assert cfg.model.decay.p == 0.99
    assert cfg.train.total_steps == 3


def test_parse_config_vector_mamba2(tmp_path):
    cfg = cli.parse_config(_write(tmp_path,
                                  "[decay]\nstrategy = mamba2\ngranularity = vector\n"))
    assert cfg.model.decay.strategy == "mamba2"
    assert cfg.model.decay.granularity == "vector"


def test_parse_config_rejects_tnl_vector(tmp_path):
    with pytest.raises(ConfigError):
        cli.parse_config(_write(tmp_path,
                                "[decay]\nstrategy = tnl\ngranularity = vector\n"))


def test_parse_config_unknown_key_names_line(tmp_path):
    text = "[model]\nhidden = 16\nwat = 3\n"
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(_write(tmp_path, text))
    assert "line 3" in str(exc.value)
    assert "wat" in str(exc.value)


@pytest.mark.parametrize("text,lines", [
    ("[model]\nhidden = 16\nheads = 2\nhidden = 32\n", (2, 4)),
    ("[train]\ncorpus = a.txt\n\n# again\ncorpus = b.txt\n", (2, 5)),
    ("[decay]\nstrategy = gla\n[model]\nhidden = 16\n[decay]\nstrategy = gla\n", (2, 6)),
])
def test_parse_config_rejects_a_key_given_twice_naming_both_lines(text, lines, tmp_path):
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(_write(tmp_path, text))
    message = str(exc.value)
    assert message.startswith(f"line {lines[1]}:") and f"line {lines[0]}" in message
    assert "duplicate" in message


def test_parse_config_unknown_section(tmp_path):
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(_write(tmp_path, "[optimizer]\nlr = 1\n"))
    assert "line 1" in str(exc.value)


def test_parse_config_key_outside_section(tmp_path):
    with pytest.raises(ConfigError):
        cli.parse_config(_write(tmp_path, "hidden = 16\n"))


def test_parse_config_type_error_names_line(tmp_path):
    with pytest.raises(ConfigError) as exc:
        cli.parse_config(_write(tmp_path, "[model]\nhidden = many\n"))
    assert "line 2" in str(exc.value)


def test_parse_config_comments_and_bools(tmp_path):
    text = "[model]\ntie_embeddings = true  # share weights\n"
    cfg = cli.parse_config(_write(tmp_path, text))
    assert cfg.model.tie_embeddings is True


def test_resolved_config_round_trips(tmp_path, corpus_path):
    cfg_path = _write(tmp_path, TINY_CONFIG)
    out = tmp_path / "run"
    code = cli.main(["train", "--config", cfg_path, "--corpus", corpus_path,
                     "--out", str(out)])
    assert code == 0
    resolved = out / "config_resolved.txt"
    assert resolved.exists()
    cfg2 = cli.parse_config(str(resolved))
    assert cfg2.model.hidden == 16
    assert cfg2.model.decay.strategy == "simple"
    assert cfg2.train.total_steps == 3


def test_cmd_train_smoke(tmp_path, corpus_path):
    cfg_path = _write(tmp_path, TINY_CONFIG)
    out = tmp_path / "run"
    code = cli.main(["train", "--config", cfg_path, "--corpus", corpus_path,
                     "--out", str(out)])
    assert code == 0
    lines = (out / "metrics.txt").read_text().strip().split("\n")
    assert len(lines) == 3
    assert (out / "ckpt_final.bin").exists()


def test_cmd_train_missing_corpus(tmp_path, capsys):
    cfg_path = _write(tmp_path, TINY_CONFIG)
    code = cli.main(["train", "--config", cfg_path, "--corpus",
                     "/no/such/corpus.txt", "--out", str(tmp_path / "o")])
    assert code == 2
    assert "/no/such/corpus.txt" in capsys.readouterr().err


@pytest.mark.parametrize("named_by", ["config", "flag"])
def test_a_run_reproduces_from_its_resolved_config(named_by, tmp_path, corpus_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    shutil.copy(corpus_path, "c.txt")
    if named_by == "config":
        argv = ["--config", _write(tmp_path, TINY_CONFIG + "corpus = c.txt\n")]
    else:
        argv = ["--config", _write(tmp_path, TINY_CONFIG), "--corpus", "c.txt"]
    assert cli.main(["train", *argv, "--out", "r1"]) == cli.EXIT_OK
    assert f"corpus = {tmp_path / 'c.txt'}" in (
        tmp_path / "r1" / "config_resolved.txt").read_text().splitlines()
    assert cli.main(["train", "--config", "r1/config_resolved.txt", "--out", "r2"]) == cli.EXIT_OK
    for name in ("config_resolved.txt", "metrics.txt", "ckpt_final.bin"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_a_corpus_path_with_a_hash_reruns_from_its_resolved_config(tmp_path, corpus_path,
                                                                  monkeypatch):
    # `#` starts a comment only at the start of a line or after whitespace
    monkeypatch.chdir(tmp_path)
    shutil.copy(corpus_path, "c#1.txt")
    argv = ["--config", _write(tmp_path, TINY_CONFIG), "--corpus", "c#1.txt"]
    assert cli.main(["train", *argv, "--out", "r1"]) == cli.EXIT_OK
    assert f"corpus = {tmp_path / 'c#1.txt'}" in (
        tmp_path / "r1" / "config_resolved.txt").read_text().splitlines()
    assert cli.main(["train", "--config", "r1/config_resolved.txt", "--out", "r2"]) == cli.EXIT_OK
    metrics = [(tmp_path / run / "metrics.txt").read_bytes() for run in ("r1", "r2")]
    assert metrics[0] == metrics[1]
    text = "[model]\n# a comment line\nhidden = 16 # width\n\t#indented comment\n"
    assert cli.parse_config(_write(tmp_path, text)).model.hidden == 16


def test_a_relative_corpus_path_reruns_from_another_directory(tmp_path, corpus_path,
                                                              monkeypatch):
    # the echo names the corpus by its absolute path
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    monkeypatch.chdir(tmp_path / "a")
    shutil.copy(corpus_path, "c.txt")
    argv = ["--config", _write(tmp_path, TINY_CONFIG), "--corpus", "c.txt"]
    assert cli.main(["train", *argv, "--out", str(tmp_path / "r1")]) == cli.EXIT_OK
    monkeypatch.chdir(tmp_path / "b")
    assert cli.main(["train", "--config", str(tmp_path / "r1" / "config_resolved.txt"),
                     "--out", "r2"]) == cli.EXIT_OK
    for name in ("config_resolved.txt", "metrics.txt"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "b" / "r2" / name).read_bytes()


def test_a_none_default_reads_a_float_and_reruns_from_its_resolved_config(tmp_path,
                                                                          corpus_path):
    # lower_bound defaults to None: `0` is read as a float and echoed as `0.0`
    text = TINY_CONFIG.replace("strategy = simple", "strategy = hgrn2\nlower_bound = 0")
    argv = ["--config", _write(tmp_path, text), "--corpus", corpus_path]
    assert cli.main(["train", *argv, "--out", str(tmp_path / "r1")]) == cli.EXIT_OK
    lines = (tmp_path / "r1" / "config_resolved.txt").read_text().splitlines()
    assert [line for line in lines if line.startswith("[")] == ["[model]", "[decay]", "[train]"]
    assert "lower_bound = 0.0" in lines
    assert cli.main(["train", "--config", str(tmp_path / "r1" / "config_resolved.txt"),
                     "--out", str(tmp_path / "r2")]) == cli.EXIT_OK
    for name in ("config_resolved.txt", "metrics.txt", "ckpt_final.bin"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_the_readme_config_example_parses_and_round_trips(tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    [example] = re.findall(r"^```ini\n(.*?)^```", readme, re.S | re.M)
    cfg = cli.parse_config(_write(tmp_path, example))
    assert cfg.model.decay.strategy == "mamba2" and cfg.corpus == "data/corpus.txt"
    assert cli.parse_config(_write(tmp_path, cfg.dump(), "echo.cfg")) == cfg


def test_cmd_train_seed_flag_overrides(tmp_path, corpus_path):
    cfg_path = _write(tmp_path, TINY_CONFIG)
    out1, out2, out3 = (tmp_path / n for n in ("r1", "r2", "r3"))
    assert cli.main(["train", "--config", cfg_path, "--corpus", corpus_path,
                     "--out", str(out1), "--seed", "7"]) == 0
    assert cli.main(["train", "--config", cfg_path, "--corpus", corpus_path,
                     "--out", str(out2), "--seed", "7"]) == 0
    assert cli.main(["train", "--config", cfg_path, "--corpus", corpus_path,
                     "--out", str(out3), "--seed", "8"]) == 0
    m1 = (out1 / "metrics.txt").read_bytes()
    assert m1 == (out2 / "metrics.txt").read_bytes()
    assert m1 != (out3 / "metrics.txt").read_bytes()
    assert "seed = 7" in (out1 / "config_resolved.txt").read_text()


def test_cmd_train_bad_config(tmp_path, corpus_path, capsys):
    cfg_path = _write(tmp_path, "[decay]\nstrategy = tnl\ngranularity = vector\n")
    code = cli.main(["train", "--config", cfg_path, "--corpus", corpus_path,
                     "--out", str(tmp_path / "o")])
    assert code == 2


def test_cmd_train_dplr_lrpe_is_a_config_error(tmp_path, corpus_path, capsys):
    cfg_path = _write(tmp_path, "[model]\nposenc = lrpe\ntransition = dplr\n")
    out = tmp_path / "o"
    code = cli.main(["train", "--config", cfg_path, "--corpus", corpus_path,
                     "--out", str(out)])
    assert code == 2
    assert "lrpe" in capsys.readouterr().err
    assert not out.exists()



@pytest.mark.parametrize("section,key,value,extra", [
    ("model", "heads", "0", ""),
    ("model", "hidden", "0", "heads = 1\n"),
    ("model", "glu_ratio", "0", ""),
    ("model", "tpe_state", "0", "posenc = tpe\n"),
    ("model", "rope_base", "0", "posenc = rope\n"),
    ("train", "beta1", "1.0", ""),
    ("train", "beta2", "1.0", ""),
    ("train", "beta1", "-0.1", ""),
    ("train", "eps", "-1e-8", ""),
    ("train", "weight_decay", "-0.01", ""),
    ("train", "grad_clip_norm", "-1.0", ""),
    ("train", "val_every", "-1", ""),
    ("train", "checkpoint_every", "-1", ""),
    ("train", "stable_fraction", "-0.5", ""),
    ("train", "stable_fraction", "nan", ""),
    ("train", "val_fraction", "nan", ""),
    ("train", "val_fraction", "1.0", ""),
    ("train", "val_fraction", "-0.1", ""),
    ("model", "seed", "-1", ""),
    ("train", "seed", "-3", ""),
    ("train", "peak_lr", "inf", ""),
    ("train", "weight_decay", "inf", ""),
    ("train", "eps", "inf", ""),
    ("train", "grad_clip_norm", "inf", ""),
    ("model", "rope_base", "inf", "posenc = rope\n"),
    ("decay", "tau", "inf", "strategy = gla\n"),
])
def test_cmd_train_rejects_an_out_of_range_value(section, key, value, extra, tmp_path,
                                                 corpus_path, capsys):
    cfg_path = _write(tmp_path, f"[{section}]\n{extra}{key} = {value}\n")
    out = tmp_path / "o"
    code = cli.main(["train", "--config", cfg_path, "--corpus", corpus_path, "--out", str(out)])
    assert code == cli.EXIT_IO
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and key in lines[0]
    assert not out.exists()

SHORT_SPLIT_CONFIG = """\
[model]
n_layers = 1
hidden = 16
heads = 2

[train]
total_steps = 3
val_every = 1
"""


def _short_corpus(tmp_path, corpus_path, size):
    path = tmp_path / f"corpus_{size}.txt"
    with open(corpus_path, "rb") as f:
        path.write_bytes(f.read(size))
    return str(path)


def test_cmd_train_rejects_a_validation_split_below_one_window(tmp_path, corpus_path, capsys):
    # 1100 bytes at batch 8 x seq 128 leave 68 validation bytes, less than
    # the 129 of one window
    out = tmp_path / "o"
    code = cli.main(["train", "--config", _write(tmp_path, SHORT_SPLIT_CONFIG),
                     "--corpus", _short_corpus(tmp_path, corpus_path, 1100), "--out", str(out)])
    assert code == cli.EXIT_IO
    assert "error: validation split too small: 68 bytes" in capsys.readouterr().err
    assert not out.exists()


def test_cmd_train_validates_on_an_exactly_fitting_split(tmp_path, corpus_path):
    # 1290 bytes leave exactly one window of 129 validation bytes
    out = tmp_path / "o"
    code = cli.main(["train", "--config", _write(tmp_path, SHORT_SPLIT_CONFIG),
                     "--corpus", _short_corpus(tmp_path, corpus_path, 1290), "--out", str(out)])
    assert code == cli.EXIT_OK
    lines = (out / "metrics.txt").read_text().strip().split("\n")
    assert [len(line.split(",")) for line in lines] == [4, 4, 4]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory, corpus_path):
    tmp = tmp_path_factory.mktemp("cli_run")
    cfg_path = str(tmp / "exp.cfg")
    with open(cfg_path, "w") as f:
        f.write(TINY_CONFIG)
    out = tmp / "run"
    assert cli.main(["train", "--config", cfg_path, "--corpus", corpus_path,
                     "--out", str(out)]) == 0
    return out


def test_cmd_probe_outputs(trained_run, corpus_path, tmp_path):
    out = tmp_path / "probe"
    code = cli.main(["probe", str(trained_run / "ckpt_final.bin"), corpus_path,
                     "--out", str(out), "--length", "64"])
    assert code == 0
    assert (out / "decay_medians.csv").exists()
    assert (out / "decay_medians.svg").exists()
    rows = (out / "decay_medians.csv").read_text().strip().split("\n")
    assert len(rows) == 2  # header + one layer


def test_cmd_probe_deterministic(trained_run, corpus_path, tmp_path):
    o1, o2 = tmp_path / "p1", tmp_path / "p2"
    for o in (o1, o2):
        assert cli.main(["probe", str(trained_run / "ckpt_final.bin"),
                         corpus_path, "--out", str(o), "--length", "64"]) == 0
    assert (o1 / "decay_medians.csv").read_bytes() == (o2 / "decay_medians.csv").read_bytes()
    assert (o1 / "decay_medians.svg").read_bytes() == (o2 / "decay_medians.svg").read_bytes()


@pytest.mark.parametrize("length", ["-3", "0"])
def test_cmd_probe_rejects_a_non_positive_length(trained_run, corpus_path, tmp_path,
                                                 capsys, length):
    code = cli.main(["probe", str(trained_run / "ckpt_final.bin"), corpus_path,
                     "--out", str(tmp_path / "p"), "--length", length])
    assert code == cli.EXIT_IO
    err = capsys.readouterr().err
    assert "--length" in err and length in err and "empty" not in err
    assert not (tmp_path / "p").exists()


def test_cmd_probe_missing_checkpoint(tmp_path, corpus_path, capsys):
    code = cli.main(["probe", str(tmp_path / "none.bin"), corpus_path,
                     "--out", str(tmp_path / "o")])
    assert code == 2


def test_cmd_probe_decay_none_rejected(tmp_path, corpus_path, capsys):
    cfg = TINY_CONFIG.replace("strategy = simple\np = 0.99", "strategy = none")
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg_path, "--corpus", corpus_path,
                     "--out", str(out)]) == 0
    code = cli.main(["probe", str(out / "ckpt_final.bin"), corpus_path,
                     "--out", str(tmp_path / "p")])
    assert code == 3
    assert "decay" in capsys.readouterr().err


def test_cmd_probe_tnl_medians(tmp_path, corpus_path):
    from decaylab.decay import tnl_decay
    cfg = TINY_CONFIG.replace("n_layers = 1", "n_layers = 2").replace(
        "strategy = simple\np = 0.99", "strategy = tnl\ngranularity = scalar")
    cfg_path = _write(tmp_path, cfg)
    out = tmp_path / "run"
    assert cli.main(["train", "--config", cfg_path, "--corpus", corpus_path,
                     "--out", str(out)]) == 0
    probe_out = tmp_path / "p"
    assert cli.main(["probe", str(out / "ckpt_final.bin"), corpus_path,
                     "--out", str(probe_out), "--length", "64"]) == 0
    rows = (probe_out / "decay_medians.csv").read_text().strip().split("\n")[1:]
    for row in rows:
        fields = row.split(",")
        layer = int(fields[0])
        expected = np.mean([tnl_decay(j, 2, layer + 1, 2) for j in (1, 2)])
        assert abs(float(fields[3]) - expected) <= 1e-9


def test_cmd_verify_quick_passes_under_budget(capsys):
    start = time.time()
    code = cli.main(["verify", "--level", "quick"])
    elapsed = time.time() - start
    assert code == 0
    assert elapsed < 60.0
    out = capsys.readouterr().out
    assert "PASS chunked-vs-sequential" in out


def test_cmd_verify_detects_corrupted_chunked_kernel(monkeypatch, capsys):
    real = recurrence.forward_chunked

    def corrupted(q, k, v, lam):
        return real(q, k, v, lam) + 1e-3

    monkeypatch.setattr(recurrence, "forward_chunked", corrupted)
    code = cli.main(["verify", "--level", "quick"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL chunked-vs-sequential" in out
    assert "chunked-vs-sequential" in out.split("verification failed:")[-1]


def test_cmd_verify_detects_a_scaled_chunked_decay_gradient(monkeypatch, capsys):
    real = recurrence.forward_chunked

    def scaled_dlam(q, k, v, lam):
        # lam passes through unchanged; its gradient comes back 1.001 times too large
        lam = tensor.as_tensor(lam)
        through = tensor._record(Tensor(lam.data), (lam,),
                                 lambda g: tensor._accum(lam, 1.001 * g))
        return real(q, k, v, through)

    monkeypatch.setattr(recurrence, "forward_chunked", scaled_dlam)
    assert cli.main(["verify", "--level", "quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL chunked-vs-sequential" in out
    assert "dlam rel diff" in out and "dq rel diff" not in out


def test_cmd_verify_detects_a_perturbed_span_state(monkeypatch, capsys):
    real = recurrence._chunkwise

    def perturbed(span, *inputs):
        def scaled(*args):
            o, state, back = span(*args)
            return o, state * (1.0 + 1e-6), back  # the state carried into the next span
        return real(scaled, *inputs)

    monkeypatch.setattr(recurrence, "_chunkwise", perturbed)
    assert cli.main(["verify", "--level", "quick"]) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL chunked-vs-sequential" in out and "FAIL dplr" in out
    # a taped call runs the same spans as one without a tape
    assert ": output rel diff" in out and "no-tape output rel diff" in out


def test_cmd_verify_detects_a_perturbed_dplr_chunk_state(monkeypatch, capsys):
    real = recurrence._carry

    def perturbed(y, trans, reverse=False):
        y = real(y, trans, reverse)
        if trans.shape[-2] > 1 and not reverse:
            for s in y:  # the states the DPLR kernel carries between chunks
                s *= 1.0 + 1e-6
        return y

    monkeypatch.setattr(recurrence, "_carry", perturbed)
    assert cli.main(["verify", "--level", "quick"]) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL dplr" in out and "PASS chunked-vs-sequential" in out
    assert ": output rel diff" in out and "no-tape output rel diff" in out


def _routes(monkeypatch, owner, name, fallback, rebind=()):
    """Counts of the calls to ``owner.name`` that finish on their fast route
    and of those that call ``owner.fallback``.  ``rebind`` lists further
    modules that bind ``name`` themselves."""
    counts = Counter()
    real, real_fallback = getattr(owner, name), getattr(owner, fallback)
    inside = []

    def wrapped(*args):
        inside.append(False)
        try:
            return real(*args)
        finally:
            counts["fallback" if inside.pop() else "fast"] += 1

    def wrapped_fallback(*args):
        if inside:
            inside[-1] = True
        return real_fallback(*args)

    for module in (owner, *rebind):
        monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(owner, fallback, wrapped_fallback)
    return counts


def _all_routes(monkeypatch):
    """Route counts of both chunk kernels and of LightNet's decay."""
    counts = {name: _routes(monkeypatch, recurrence, name, "_recurrence", rebind=(model,))
              for name in ("forward_chunked", "forward_dplr")}
    counts["lightnet_decay"] = _routes(monkeypatch, decay, "lightnet_decay", "_sequential_lse")
    return counts


def test_cmd_verify_reaches_the_factorized_form_and_the_fallback(monkeypatch):
    counts = _all_routes(monkeypatch)
    assert cli.main(["verify", "--level", "quick"]) == cli.EXIT_OK
    for name, count in counts.items():
        assert count["fast"] > 0 and count["fallback"] > 0, name


def test_benchmark_cells_take_no_fallback_at_init(monkeypatch, rng):
    # the six strategies of the training smoke runs and the DPLR cell at their
    # geometry under a tape, and the three probed checkpoints at n = 2048
    # without one
    counts = _all_routes(monkeypatch)
    smoke = [DecayConfig(strategy=s) for s in ("mamba2", "gla", "hgrn2", "lightnet")]
    smoke += [DecayConfig(strategy="tnl", granularity="scalar"),
              DecayConfig(strategy="simple", p=0.99)]
    probed = [smoke[0], smoke[3], smoke[4]]
    dplr = dict(transition="dplr", posenc="rope")
    runs = [(cell, {}, (8, 128), True) for cell in smoke]
    runs += [(DecayConfig(strategy="gla", sharing="shared"), dplr, (8, 128), True)]
    runs += [(cell, {}, (2048,), False) for cell in probed]
    for decay_config, extra, shape, tape in runs:
        config = ModelConfig(n_layers=2, hidden=64, heads=4, vocab=256,
                             decay=decay_config, **extra)
        params = init_params(config)
        before = counts["lightnet_decay"]["fast"]
        with tensor.Tape() if tape else contextlib.nullcontext():
            lm_forward(rng.integers(0, 256, size=shape), params, config)
        if decay_config.strategy == "lightnet":
            # one blocked call per layer, in the training cell and the probe
            assert counts["lightnet_decay"]["fast"] == before + 2, shape
    for name, count in counts.items():
        assert count["fallback"] == 0 and count["fast"] > 0, name


def test_cmd_export(trained_run, tmp_path, capsys):
    out = tmp_path / "export"
    code = cli.main(["export", str(trained_run / "ckpt_final.bin"),
                     "--out", str(out)])
    assert code == 0
    text = (out / "strategy_summary.txt").read_text()
    assert "simple" in text
    assert "sigmoid(f + delta)" in text
    assert "decay.delta" in text
    printed = capsys.readouterr().out
    assert "strategy summary" in printed


@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_cmd_export_every_strategy(strategy, tmp_path, capsys):
    config = ModelConfig(n_layers=2, hidden=8, heads=2,
                         decay=DecayConfig(strategy=strategy, granularity="scalar"))
    params = init_params(config)
    path = str(tmp_path / "init.bin")
    save_checkpoint(path, params, config)
    assert cli.main(["export", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert f"  formula:     lambda = {STRATEGIES[strategy].formula}" in lines
    printed = {line.split(":")[0].strip(): line for line in lines if ".decay." in line}
    expected = {f"layers.{i}.decay.{name}" for i in range(2)
                for name in STRATEGIES[strategy].scalars}
    assert set(printed) == expected
    for name in expected:
        values = " ".join(f"{v:.6g}" for v in params[name].data.ravel())
        assert printed[name] == f"  {name}: {values}"


@pytest.mark.parametrize("command", ["train", "probe", "export"])
def test_out_naming_a_file_exits_2(command, trained_run, corpus_path, tmp_path, capsys):
    out = tmp_path / "taken"
    out.write_text("not a directory")
    ckpt = str(trained_run / "ckpt_final.bin")
    argv = {"train": ["train", "--config", _write(tmp_path, TINY_CONFIG),
                      "--corpus", corpus_path],
            "probe": ["probe", ckpt, corpus_path, "--length", "64"],
            "export": ["export", ckpt]}[command]
    assert cli.main(argv + ["--out", str(out)]) == cli.EXIT_IO
    assert capsys.readouterr().err.startswith("error:")
    assert out.read_text() == "not a directory"


def test_cmd_export_missing_checkpoint(tmp_path, capsys):
    assert cli.main(["export", str(tmp_path / "none.bin")]) == 2


def _malformed(case):
    """A checkpoint whose digest is right but whose contents are not."""
    config = ModelConfig(n_layers=1, hidden=8, heads=2)
    header = {"version": 1, "config": asdict(config), "seed": config.seed,
              "tensors": [{"name": "final_norm", "shape": [8]}]}
    blobs = np.ones(8).tobytes()
    hextra = 0
    if case == "header not json":
        hbytes = b"{not json"
    elif case == "header not utf-8":
        hbytes = b'{"version": 1, "\xff": 0}'
    else:
        if case == "hlen past the end":
            hextra = 1000
        elif case == "no tensors key":
            del header["tensors"]
        elif case == "shape larger than the blobs":
            header["tensors"][0]["shape"] = [64, 8]
        elif case == "unknown config key":
            header["config"]["bogus"] = 1
        elif case == "invalid config":
            header["config"]["decay"]["strategy"] = "no_such_strategy"
        hbytes = json.dumps(header).encode()
    body = MAGIC + struct.pack("<I", len(hbytes) + hextra) + hbytes + blobs
    return body + hashlib.sha256(body).digest()


@pytest.mark.parametrize("case", ["header not json", "header not utf-8", "hlen past the end",
                                  "no tensors key", "shape larger than the blobs",
                                  "unknown config key", "invalid config"])
def test_malformed_checkpoint_exits_3(case, tmp_path, corpus_path, capsys):
    path = tmp_path / "bad.bin"
    path.write_bytes(_malformed(case))
    assert cli.main(["probe", str(path), corpus_path, "--out", str(tmp_path / "p")]) == 3
    assert cli.main(["export", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.count("malformed checkpoint") == 2
    assert not (tmp_path / "p").exists()


@pytest.mark.parametrize("case", ["missing tensor", "extra tensor", "wrong shape",
                                  "repeated name"])
def test_tensors_that_do_not_match_the_config_exit_3(case, tmp_path, corpus_path, capsys):
    config = ModelConfig(n_layers=2, hidden=8, heads=2)
    params = init_params(config)
    if case == "missing tensor":
        del params["layers.0.wq"]
    elif case == "extra tensor":
        params["layers.0.spare"] = params["layers.0.attn_norm"]
    elif case == "wrong shape":
        params["layers.1.wv"] = Tensor(np.zeros((2, 8, 3)))
    path = str(tmp_path / "bad.bin")
    save_checkpoint(path, params, config)
    if case == "repeated name":
        # the full tensor set plus a second final_norm, under a valid digest
        with open(path, "rb") as f:
            raw = f.read()[:-32]
        hlen = struct.unpack("<I", raw[8:12])[0]
        header = json.loads(raw[12:12 + hlen])
        header["tensors"].append({"name": "final_norm", "shape": [8]})
        hbytes = json.dumps(header).encode()
        body = (MAGIC + struct.pack("<I", len(hbytes)) + hbytes + raw[12 + hlen:]
                + np.full(8, 7.0).tobytes())
        with open(path, "wb") as f:
            f.write(body + hashlib.sha256(body).digest())
    assert cli.main(["probe", path, corpus_path, "--out", str(tmp_path / "p")]) == 3
    assert cli.main(["export", path]) == 3
    err = capsys.readouterr().err
    assert err.count("tensors do not match the config") == 2
    assert not (tmp_path / "p").exists()


def test_cli_writes_only_inside_out_dir(tmp_path, corpus_path):
    cfg_path = _write(tmp_path, TINY_CONFIG)
    out = tmp_path / "only"
    before = set(os.listdir(tmp_path))
    assert cli.main(["train", "--config", cfg_path, "--corpus", corpus_path,
                     "--out", str(out)]) == 0
    after = set(os.listdir(tmp_path))
    assert after - before == {"only"}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory, trained_run, corpus_path):
    """Named input files for the failing invocations below."""
    tmp = tmp_path_factory.mktemp("inputs")
    files = {"ckpt": str(trained_run / "ckpt_final.bin"), "corpus": corpus_path,
             "missing": str(tmp / "missing.bin")}
    for name, config in (("vocab16", ModelConfig(n_layers=1, hidden=8, heads=2, vocab=16)),
                         ("no_decay", ModelConfig(n_layers=1, hidden=8, heads=2,
                                                  decay=DecayConfig(strategy="none")))):
        files[name] = str(tmp / f"{name}.bin")
        save_checkpoint(files[name], init_params(config), config)
    for name, data in (("malformed", _malformed("header not json")), ("empty", b""),
                       ("short", b"x" * 40), ("config", TINY_CONFIG.encode()),
                       ("tnl_vector", b"[decay]\nstrategy = tnl\ngranularity = vector\n"),
                       ("unparsable", b"[model]\nhidden = many\n"),
                       ("maybe", b"[model]\ntie_embeddings = maybe\n"),
                       ("twice", b"[train]\npeak_lr = 1e-3\npeak_lr = 1e-2\n"),
                       ("old_resolved", (TINY_CONFIG + "\n[probe]\nlength = 2048\n").encode()),
                       ("vocab100", TINY_CONFIG.replace("heads = 2", "heads = 2\nvocab = 100")
                        .encode())):
        files[name] = str(tmp / name)
        (tmp / name).write_bytes(data)
    return files


# argv, exit code, strings the error line holds; {out} is a fresh directory,
# {taken} a regular file and {blocked} a directory whose metrics.txt is a directory
FAILURES = [
    ("train --config {missing} --corpus {corpus} --out {out}", 2, ["{missing}"]),
    ("train --config {unparsable} --corpus {corpus} --out {out}", 2, ["line 2", "hidden"]),
    ("train --config {tnl_vector} --corpus {corpus} --out {out}", 2, ["scalar-only"]),
    ("train --config {maybe} --corpus {corpus} --out {out}", 2, ["line 2", "tie_embeddings"]),
    ("train --config {twice} --corpus {corpus} --out {out}", 2, ["line 3", "line 2", "peak_lr"]),
    ("train --config {old_resolved} --corpus {corpus} --out {out}", 2,
     ["line 17", "unknown section [probe]"]),
    ("train --config {config} --corpus {corpus} --out {out} --seed -1", 2, ["seed must be >= 0"]),
    ("train --config {vocab100} --corpus {corpus} --out {out}", 3,
     ["corpus has byte values", "vocabulary (100)"]),
    ("train --config {config} --out {out}", 2, ["--corpus", "[train] corpus"]),
    ("train --config {config} --corpus {missing} --out {out}", 2, ["{missing}"]),
    ("train --config {config} --corpus {short} --out {out}", 2, ["corpus too small"]),
    ("train --config {config} --corpus {corpus} --out {taken}", 2, ["cannot write outputs"]),
    ("train --config {config} --corpus {corpus} --out {blocked}", 2, ["training aborted"]),
    ("probe {ckpt} {corpus} --out {out} --length 0", 2, ["--length"]),
    ("probe {missing} {corpus} --out {out}", 2, ["{missing}"]),
    ("probe {malformed} {corpus} --out {out}", 3, ["malformed checkpoint"]),
    ("probe {no_decay} {corpus} --out {out}", 3, ["decay"]),
    ("probe {ckpt} {missing} --out {out}", 2, ["{missing}"]),
    ("probe {ckpt} {empty} --out {out}", 2, ["probe text is empty"]),
    ("probe {vocab16} {corpus} --out {out}", 3, ["vocabulary (16)"]),
    ("probe {ckpt} {corpus} --out {taken}", 2, ["cannot write outputs"]),
    ("export {missing} --out {out}", 2, ["{missing}"]),
    ("export {malformed} --out {out}", 3, ["malformed checkpoint"]),
    ("export {ckpt} --out {taken}", 2, ["cannot write outputs"]),
]


@pytest.mark.parametrize("argv, code, needles", FAILURES, ids=[f[0] for f in FAILURES])
def test_a_failing_command_prints_one_error_line(argv, code, needles, inputs, tmp_path, capsys):
    taken, blocked = tmp_path / "taken", tmp_path / "blocked"
    taken.write_text("not a directory")
    (blocked / "metrics.txt").mkdir(parents=True)
    files = dict(inputs, out=str(tmp_path / "out"), taken=str(taken), blocked=str(blocked))
    assert cli.main([arg.format(**files) for arg in argv.split()]) == code
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ")
    for needle in needles:
        assert needle.format(**files) in err
    assert not (tmp_path / "out").exists()
    assert taken.read_text() == "not a directory"


def test_the_entry_point_returns_the_exit_code(trained_run, tmp_path):
    bad = tmp_path / "bad.bin"
    bad.write_bytes(_malformed("header not json"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    for path, code in ((tmp_path / "none.bin", 2), (bad, 3),
                       (trained_run / "ckpt_final.bin", 0)):
        run = subprocess.run([sys.executable, "-m", "decaylab.cli", "export", str(path)],
                             env=env, capture_output=True, text=True, timeout=120)
        assert run.returncode == code, run.stderr
        if code:
            assert run.stderr.count("\n") == 1 and run.stderr.startswith("error: ")
        else:
            assert run.stderr == "" and run.stdout.startswith("strategy summary")
