import itertools
from collections import Counter

import numpy as np
import pytest

from decaylab import cli, model, recurrence
from decaylab import tensor as T
from decaylab.checkpoint import save_checkpoint
from decaylab.decay import (GRANULARITIES, SHARINGS, STRATEGIES, ConfigError,
                            DecayConfig, tnl_decay)
from decaylab.model import POSENCS, TRANSITIONS, ModelConfig, init_params, lm_forward
from decaylab.probe import (capture_trace, export_plot, export_table,
                            layer_stats, median)
from decaylab.tensor import Tensor


def _model(strategy="mamba2", **decay_kwargs):
    config = ModelConfig(n_layers=2, hidden=16, heads=2, vocab=256,
                         decay=DecayConfig(strategy=strategy, **decay_kwargs))
    return config, init_params(config)


def test_median_odd_count():
    assert median([0.1, 0.9, 0.5]) == 0.5


def test_median_even_count():
    assert abs(median([0.2, 0.4]) - 0.3) <= 1e-15


def test_median_singleton_and_empty():
    assert median([0.7]) == 0.7
    with pytest.raises(ValueError):
        median([])


def test_median_matches_sort_oracle(rng):
    vals = rng.uniform(0.0, 1.0, size=10_000)
    assert median(vals) == float(np.sort(vals)[4999:5001].mean())
    vals = rng.uniform(0.0, 1.0, size=9_999)
    assert median(vals) == float(np.sort(vals)[4999])


@pytest.mark.parametrize("n", [6, 7, 40, 41])
def test_median_with_ties_straddling_the_middle(n, rng):
    # a run of three equal values covers both middle positions, or the middle
    # one and its neighbours; rounding to one digit makes ties everywhere
    run = np.repeat([0.25, 0.5, 0.75], [n // 2 - 1, 3, n - n // 2 - 2])
    for vals in (run, rng.permutation(run), np.round(rng.uniform(size=n), 1)):
        ordered = np.sort(vals)
        expected = ordered[n // 2] if n % 2 else (ordered[n // 2 - 1] + ordered[n // 2]) / 2.0
        assert median(vals) == float(expected)


def test_capture_trace_basic(rng):
    config, params = _model()
    tokens = rng.integers(0, 256, size=32)
    samples = capture_trace(params, config, tokens)
    assert sorted(samples) == [0, 1]
    for layer, vals in samples.items():
        assert vals.size > 0
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    stats = layer_stats(samples)
    for s in stats:
        assert s.min <= s.median <= s.max
        assert s.count == samples[s.layer].size


@pytest.mark.parametrize("strategy,granularity,width", [
    ("mamba2", "scalar", 1), ("gla", "vector", 8), ("tnl", "scalar", 1),
    ("lightnet", "vector", 8)])
def test_capture_trace_keeps_the_head_axis(strategy, granularity, width, rng):
    config, params = _model(strategy=strategy, granularity=granularity)
    samples = capture_trace(params, config, rng.integers(0, 256, size=24))
    # one sequence: (heads, n, w), w = 1 for scalar decay
    assert {layer: vals.shape for layer, vals in samples.items()} == {
        0: (2, 24, width), 1: (2, 24, width)}
    batched = capture_trace(params, config, rng.integers(0, 256, size=(3, 24)))
    assert {vals.shape for vals in batched.values()} == {(3, 2, 24, width)}
    if strategy == "lightnet":
        # lambda_1 = 0 exactly, the exp of log lambda_1 = -inf, in every
        # sequence, head and channel; the probe's min column reads it
        for vals in (*samples.values(), *batched.values()):
            assert np.all(vals[..., 0, :] == 0.0) and np.all(vals[..., 1:, :] > 0.0)


def test_layer_stats_of_an_array_equals_layer_stats_of_its_ravel(rng):
    config, params = _model(strategy="gla", granularity="vector")
    samples = capture_trace(params, config, rng.integers(0, 256, size=(2, 20)))
    assert layer_stats(samples) == layer_stats({k: v.ravel() for k, v in samples.items()})
    vals = rng.uniform(size=(3, 2, 5, 4))
    assert layer_stats({4: vals}) == layer_stats({4: vals.ravel()})
    assert [s.layer for s in layer_stats({2: vals, 0: vals})] == [0, 2]


def test_capture_trace_rejects_no_decay(rng):
    config, params = _model(strategy="none")
    with pytest.raises(ConfigError):
        capture_trace(params, config, rng.integers(0, 256, size=8))


def test_tracing_does_not_change_logits(rng):
    config, params = _model()
    # scale every weight, so that the norms are not all ones
    params = {name: Tensor(p.data * rng.uniform(0.5, 1.5, p.shape))
              for name, p in params.items()}
    tokens = rng.integers(0, 256, size=24)
    plain = lm_forward(tokens, params, config).data
    traced_list = []
    traced = lm_forward(tokens, params, config, trace=traced_list).data
    assert np.array_equal(plain, traced)
    assert len(traced_list) == 2


def test_tnl_trace_matches_formula(rng):
    config, params = _model(strategy="tnl", granularity="scalar")
    samples = capture_trace(params, config, rng.integers(0, 256, size=16))
    for s in layer_stats(samples):
        consts = [tnl_decay(j, 2, s.layer + 1, 2) for j in (1, 2)]
        assert s.median == float(np.mean(consts))
        assert s.min == min(consts)
        assert s.max == max(consts)


def test_tnl_trace_input_invariance(rng):
    config, params = _model(strategy="tnl", granularity="scalar")
    t1 = capture_trace(params, config, rng.integers(0, 256, size=16))
    t2 = capture_trace(params, config, rng.integers(0, 256, size=16))
    for a, b in zip(layer_stats(t1), layer_stats(t2)):
        assert a.median == b.median


def test_export_table_row_count(tmp_path, rng):
    config, params = _model()
    samples = capture_trace(params, config, rng.integers(0, 256, size=16))
    path = tmp_path / "medians.csv"
    export_table(layer_stats(samples), str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == "layer,count,min,median,mean,max"


def test_export_table_deterministic_and_round_trip(tmp_path, rng):
    config, params = _model()
    stats = layer_stats(capture_trace(params, config, rng.integers(0, 256, size=16)))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_table(stats, str(p1))
    export_table(stats, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    for line, s in zip(p1.read_text().strip().split("\n")[1:], stats):
        fields = line.split(",")
        assert int(fields[0]) == s.layer
        assert int(fields[1]) == s.count
        assert abs(float(fields[3]) - s.median) <= 1e-9 * max(1.0, abs(s.median))


def test_exports_rewrite_a_longer_file_exactly(tmp_path, rng):
    config, params = _model()
    stats = layer_stats(capture_trace(params, config, rng.integers(0, 256, size=16)))
    for export, name in ((export_table, "t.csv"), (lambda t, p: export_plot({"m": t}, p), "p.svg")):
        fresh, reused = tmp_path / ("fresh_" + name), tmp_path / name
        export(stats, str(fresh))
        reused.write_text("x" * (3 * len(fresh.read_bytes())))
        export(stats, str(reused))
        assert reused.read_bytes() == fresh.read_bytes()


def test_export_table_nine_significant_digits(tmp_path):
    path = tmp_path / "t.csv"
    export_table(layer_stats({0: np.array([0.123456789123456])}), str(path))
    row = path.read_text().strip().split("\n")[1]
    assert "0.123456789" in row


def test_export_plot_marker_count(tmp_path, rng):
    config, params = _model()
    samples = capture_trace(params, config, rng.integers(0, 256, size=16))
    path = tmp_path / "plot.svg"
    export_plot({"mamba2": layer_stats(samples)}, str(path))
    svg = path.read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml") or "<svg" in svg
    assert svg.count("<circle") == 2
    assert "mamba2" in svg  # legend entry


def test_export_plot_y_axis_clamps(tmp_path):
    path = tmp_path / "p.svg"
    export_plot({"x": layer_stats({0: np.array([5.0]), 1: np.array([-3.0])})}, str(path))
    svg = path.read_text()
    # both markers land on the axis extremes rather than outside the frame
    import re
    ys = [float(m) for m in re.findall(r'<circle cx="[\d.]+" cy="([\d.]+)"', svg)]
    assert len(ys) == 2
    assert min(ys) >= 50.0 - 1e-9 and max(ys) <= 420.0 - 50.0 + 1e-9


def test_export_plot_deterministic(tmp_path, rng):
    config, params = _model()
    stats = layer_stats(capture_trace(params, config, rng.integers(0, 256, size=16)))
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    export_plot({"m": stats}, str(p1))
    export_plot({"m": stats}, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_export_plot_requires_traces(tmp_path):
    with pytest.raises(ValueError):
        export_plot({}, str(tmp_path / "never.svg"))


def _full_forward_trace(params, config, tokens):
    """The reference trace: every layer's decay as ``lm_forward`` records it."""
    raw = []
    lm_forward(tokens, params, config, trace=raw)
    return dict(raw)


def _cells(strategy, n_layers):
    """Every runnable granularity x sharing x transition x posenc cell of
    ``strategy`` at a small geometry."""
    for granularity, sharing, transition, posenc in itertools.product(
            GRANULARITIES, SHARINGS, TRANSITIONS, POSENCS):
        try:
            yield ModelConfig(n_layers=n_layers, hidden=8, heads=2, vocab=17,
                              transition=transition, posenc=posenc,
                              decay=DecayConfig(strategy=strategy, granularity=granularity,
                                                sharing=sharing))
        except ConfigError:
            continue


@pytest.mark.parametrize("strategy", [s for s in STRATEGIES if s != "none"])
def test_capture_trace_equals_full_forward_bitwise(strategy, rng):
    cells = 0
    for n_layers in (1, 2, 3):
        for config in _cells(strategy, n_layers):
            # scale every weight, so that the norms are not all ones
            params = {name: Tensor(p.data * rng.uniform(0.5, 1.5, p.shape))
                      for name, p in init_params(config, seed=cells).items()}
            tokens = rng.integers(0, 17, size=12)
            fast = capture_trace(params, config, tokens)
            full = _full_forward_trace(params, config, tokens)
            assert sorted(fast) == sorted(full) == list(range(n_layers))
            for layer in full:
                assert fast[layer].dtype == full[layer].dtype
                assert fast[layer].shape == full[layer].shape
                assert fast[layer].tobytes() == full[layer].tobytes(), (config, layer)
            cells += 1
    assert cells >= 3 * 4


@pytest.mark.parametrize("transition", TRANSITIONS)
def test_capture_trace_skips_the_last_glu_and_the_head(transition, monkeypatch, rng):
    n_layers = 3
    config = ModelConfig(n_layers=n_layers, hidden=8, heads=2, vocab=17, transition=transition,
                         decay=DecayConfig(strategy="gla"))
    calls = Counter()

    def counted(name):
        fn = getattr(model, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    model_kernels = ("forward_chunked", "forward_sequential", "forward_dplr")
    for name in model_kernels + ("glu_forward",):
        monkeypatch.setattr(model, name, counted(name))
    read = set()

    class Reads(dict):
        def __getitem__(self, key):
            read.add(key)
            return super().__getitem__(key)

        def get(self, key, default=None):
            read.add(key)
            return super().get(key, default)

    capture_trace(Reads(init_params(config)), config, rng.integers(0, 17, size=16))
    # one recurrence per layer; the last layer stops after its token mixer
    assert sum(calls[name] for name in model_kernels) == n_layers
    assert calls["glu_forward"] == n_layers - 1
    last = f"layers.{n_layers - 1}."
    assert "lm_head" not in read and "final_norm" not in read
    assert last + "attn_norm" in read and last + "out_norm" in read
    assert not {k for k in read if k.startswith(last + "glu")}


def test_cmd_probe_takes_stats_once_and_writes_the_full_forward_outputs(
        tmp_path, monkeypatch, rng):
    config = ModelConfig(n_layers=3, hidden=8, heads=2, decay=DecayConfig(strategy="hgrn2"))
    params = init_params(config)
    ckpt, text = tmp_path / "m.bin", tmp_path / "probe.txt"
    save_checkpoint(str(ckpt), params, config)
    tokens = rng.integers(0, 256, size=48)
    text.write_bytes(tokens.astype(np.uint8).tobytes())
    real_stats, calls = cli.layer_stats, []

    def counted_stats(samples):
        calls.append(samples)
        return real_stats(samples)

    monkeypatch.setattr(cli, "layer_stats", counted_stats)
    out = tmp_path / "probe"
    assert cli.main(["probe", str(ckpt), str(text), "--out", str(out)]) == cli.EXIT_OK
    assert len(calls) == 1
    stats = real_stats(_full_forward_trace(params, config, tokens))
    export_table(stats, str(tmp_path / "ref.csv"))
    export_plot({"hgrn2": stats}, str(tmp_path / "ref.svg"))
    for name in ("csv", "svg"):
        assert ((out / f"decay_medians.{name}").read_bytes()
                == (tmp_path / f"ref.{name}").read_bytes())


def _probe_matches_the_scan_route(tmp_path, monkeypatch, rng, decay):
    """A probe at n = 2048 of a two-layer model with ``decay`` gives the same
    table and samples, within 1e-12, as one that runs every layer's
    recurrence through the scan."""
    config = ModelConfig(n_layers=2, hidden=16, heads=2, decay=decay)
    params = {name: Tensor(p.data * rng.uniform(0.5, 1.5, p.shape))
              for name, p in init_params(config).items()}
    ckpt, text = tmp_path / "m.bin", tmp_path / "probe.txt"
    save_checkpoint(str(ckpt), params, config)
    tokens = rng.integers(0, 256, size=2048)
    text.write_bytes(tokens.astype(np.uint8).tobytes())

    def probe(out):
        assert cli.main(["probe", str(ckpt), str(text), "--out", str(out)]) == cli.EXIT_OK
        rows = (out / "decay_medians.csv").read_text().splitlines()[1:]
        table = np.array([[float(x) for x in row.split(",")] for row in rows])
        return table, capture_trace(params, config, tokens)

    table, samples = probe(tmp_path / "chunked")
    with monkeypatch.context() as m:
        m.setattr(model, "forward_chunked", lambda q, k, v, log_lam:
                  recurrence.forward_sequential(q, k, v, T.exp(log_lam)))
        table_ref, samples_ref = probe(tmp_path / "scan")
    width = 1 if decay.granularity == "scalar" else 8
    assert table.shape == (2, 6) and table[:, 1].tolist() == [2 * 2048 * width] * 2
    assert np.all(np.abs(table - table_ref) <= 1e-12 * np.abs(table_ref))
    for layer, ref in samples_ref.items():
        assert np.max(np.abs(samples[layer] - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_probe_of_a_scalar_model_matches_the_scan_route(tmp_path, monkeypatch, rng):
    # The benchmark cannot see a kernel change in its tnl probe, whose decay
    # is a constant.  A projected scalar decay at n = 2048 can: every layer-1
    # value reads layer 0's recurrence.
    _probe_matches_the_scan_route(tmp_path, monkeypatch, rng,
                                  DecayConfig(strategy="mamba2", granularity="scalar"))


@pytest.mark.parametrize("strategy", ["mamba2", "lightnet"])
def test_probe_of_a_vector_model_matches_the_scan_route(tmp_path, monkeypatch, rng, strategy):
    # without a tape vector decay runs chunked, in spans; the benchmark's two
    # vector probes are these strategies
    _probe_matches_the_scan_route(tmp_path, monkeypatch, rng, DecayConfig(strategy=strategy))
