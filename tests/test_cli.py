import contextlib
import hashlib
import json
import os
import struct
import time
from collections import Counter

import numpy as np
import pytest

from decaylab import cli
from decaylab import model, recurrence, tensor
from decaylab.checkpoint import MAGIC, save_checkpoint
from decaylab.decay import STRATEGIES, ConfigError, DecayConfig
from decaylab.model import ModelConfig, config_to_dict, init_params, lm_forward
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

[probe]
length = 64
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
    assert cfg.probe_length == 2048
    assert cfg.corpus is None


def test_parse_config_sections(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, TINY_CONFIG))
    assert cfg.model.hidden == 16
    assert cfg.model.decay.strategy == "simple"
    assert cfg.model.decay.p == 0.99
    assert cfg.train.total_steps == 3
    assert cfg.probe_length == 64


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

    def corrupted(q, k, v, lam, chunk):
        return real(q, k, v, lam, chunk) + 1e-3

    monkeypatch.setattr(recurrence, "forward_chunked", corrupted)
    code = cli.main(["verify", "--level", "quick"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL chunked-vs-sequential" in out
    assert "chunked-vs-sequential" in out.split("verification failed:")[-1]


def test_cmd_verify_detects_a_scaled_chunked_decay_gradient(monkeypatch, capsys):
    real = recurrence.forward_chunked

    def scaled_dlam(q, k, v, lam, chunk):
        # lam passes through unchanged; its gradient comes back 1.001 times too large
        lam = tensor.as_tensor(lam)
        through = tensor._record(Tensor(lam.data), (lam,),
                                 lambda g: tensor._accum(lam, 1.001 * g))
        return real(q, k, v, through, chunk)

    monkeypatch.setattr(recurrence, "forward_chunked", scaled_dlam)
    assert cli.main(["verify", "--level", "quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL chunked-vs-sequential" in out
    assert "dlam rel diff" in out and "dq rel diff" not in out


def test_cmd_verify_detects_a_perturbed_span_state(monkeypatch, capsys):
    real = recurrence._span

    def perturbed(*args):
        o, S, *rest = real(*args)
        S[-1] *= 1.0 + 1e-6  # the state carried into the next span
        return (o, S, *rest)

    monkeypatch.setattr(recurrence, "_span", perturbed)
    assert cli.main(["verify", "--level", "quick"]) == cli.EXIT_VERIFY
    out = capsys.readouterr().out
    assert "FAIL chunked-vs-sequential" in out
    assert "no-tape output rel diff" in out
    assert ": output rel diff" not in out and "dq rel diff" not in out


def _chunked_paths(monkeypatch):
    """Counts of the spans forward_chunked runs in the factorized form and of
    its calls that fall back to the scan."""
    counts = Counter()
    real_chunked, real_span, real_scan = (recurrence.forward_chunked, recurrence._span,
                                          recurrence._recurrence)
    inside = []

    def chunked(*args):
        inside.append(args)
        try:
            return real_chunked(*args)
        finally:
            inside.pop()

    def span(*args):
        counts["factorized"] += 1
        return real_span(*args)

    def scan(*args):
        counts["fallback"] += bool(inside)
        return real_scan(*args)

    for owner in (recurrence, model):
        monkeypatch.setattr(owner, "forward_chunked", chunked)
    monkeypatch.setattr(recurrence, "_span", span)
    monkeypatch.setattr(recurrence, "_recurrence", scan)
    return counts


def test_cmd_verify_reaches_the_factorized_form_and_the_fallback(monkeypatch):
    counts = _chunked_paths(monkeypatch)
    assert cli.main(["verify", "--level", "quick"]) == cli.EXIT_OK
    assert counts["factorized"] > 0 and counts["fallback"] > 0


def test_benchmark_cells_take_no_fallback_at_init(monkeypatch, rng):
    # the six strategies of the training smoke runs at their geometry, and the
    # three probed checkpoints at n = 2048, without a tape
    counts = _chunked_paths(monkeypatch)
    smoke = [DecayConfig(strategy=s) for s in ("mamba2", "gla", "hgrn2", "lightnet")]
    smoke += [DecayConfig(strategy="tnl", granularity="scalar"),
              DecayConfig(strategy="simple", p=0.99)]
    probed = [smoke[0], smoke[3], smoke[4]]
    for decays, shape, tape in ((smoke, (8, 128), True), (probed, (2048,), False)):
        for decay in decays:
            config = ModelConfig(n_layers=2, hidden=64, heads=4, vocab=256, decay=decay)
            params = init_params(config)
            with tensor.Tape() if tape else contextlib.nullcontext():
                lm_forward(rng.integers(0, 256, size=shape), params, config)
    assert counts["fallback"] == 0 and counts["factorized"] > 0


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
    header = {"version": 1, "config": config_to_dict(config), "seed": config.seed,
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
