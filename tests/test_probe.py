import numpy as np
import pytest

from decaylab.decay import ConfigError, DecayConfig, tnl_decay
from decaylab.model import ModelConfig, init_params, lm_forward
from decaylab.probe import (DecayTrace, capture_trace, export_plot,
                            export_table, median)


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


def test_capture_trace_basic(rng):
    config, params = _model()
    tokens = rng.integers(0, 256, size=32)
    trace = capture_trace(params, config, tokens)
    assert sorted(trace.samples) == [0, 1]
    for layer, vals in trace.samples.items():
        assert vals.size > 0
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)
    stats = trace.stats()
    for s in stats:
        assert s.min <= s.median <= s.max
        assert s.count == trace.samples[s.layer].size


def test_capture_trace_rejects_no_decay(rng):
    config, params = _model(strategy="none")
    with pytest.raises(ConfigError):
        capture_trace(params, config, rng.integers(0, 256, size=8))


def test_tracing_does_not_change_logits(rng):
    config, params = _model()
    tokens = rng.integers(0, 256, size=24)
    plain = lm_forward(tokens, params, config).data
    traced_list = []
    traced = lm_forward(tokens, params, config, trace=traced_list).data
    assert np.array_equal(plain, traced)
    assert len(traced_list) == 2


def test_tnl_trace_matches_formula(rng):
    config, params = _model(strategy="tnl", granularity="scalar")
    trace = capture_trace(params, config, rng.integers(0, 256, size=16))
    for s in trace.stats():
        consts = [tnl_decay(j, 2, s.layer + 1, 2) for j in (1, 2)]
        assert s.median == float(np.mean(consts))
        assert s.min == min(consts)
        assert s.max == max(consts)


def test_tnl_trace_input_invariance(rng):
    config, params = _model(strategy="tnl", granularity="scalar")
    t1 = capture_trace(params, config, rng.integers(0, 256, size=16))
    t2 = capture_trace(params, config, rng.integers(0, 256, size=16))
    for a, b in zip(t1.stats(), t2.stats()):
        assert a.median == b.median


def test_export_table_row_count(tmp_path, rng):
    config, params = _model()
    trace = capture_trace(params, config, rng.integers(0, 256, size=16))
    path = tmp_path / "medians.csv"
    export_table(trace, str(path))
    lines = path.read_text().strip().split("\n")
    assert len(lines) == 3
    assert lines[0] == "layer,count,min,median,mean,max"


def test_export_table_deterministic_and_round_trip(tmp_path, rng):
    config, params = _model()
    trace = capture_trace(params, config, rng.integers(0, 256, size=16))
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_table(trace, str(p1))
    export_table(trace, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    stats = trace.stats()
    for line, s in zip(p1.read_text().strip().split("\n")[1:], stats):
        fields = line.split(",")
        assert int(fields[0]) == s.layer
        assert int(fields[1]) == s.count
        assert abs(float(fields[3]) - s.median) <= 1e-9 * max(1.0, abs(s.median))


def test_exports_rewrite_a_longer_file_exactly(tmp_path, rng):
    config, params = _model()
    trace = capture_trace(params, config, rng.integers(0, 256, size=16))
    for export, name in ((export_table, "t.csv"), (lambda t, p: export_plot({"m": t}, p), "p.svg")):
        fresh, reused = tmp_path / ("fresh_" + name), tmp_path / name
        export(trace, str(fresh))
        reused.write_text("x" * (3 * len(fresh.read_bytes())))
        export(trace, str(reused))
        assert reused.read_bytes() == fresh.read_bytes()


def test_export_table_nine_significant_digits(tmp_path):
    trace = DecayTrace(samples={0: np.array([0.123456789123456])})
    path = tmp_path / "t.csv"
    export_table(trace, str(path))
    row = path.read_text().strip().split("\n")[1]
    assert "0.123456789" in row


def test_export_plot_marker_count(tmp_path, rng):
    config, params = _model()
    trace = capture_trace(params, config, rng.integers(0, 256, size=16))
    path = tmp_path / "plot.svg"
    export_plot({"mamba2": trace}, str(path))
    svg = path.read_text()
    assert svg.startswith("<svg") or svg.startswith("<?xml") or "<svg" in svg
    assert svg.count("<circle") == 2
    assert "mamba2" in svg  # legend entry


def test_export_plot_y_axis_clamps(tmp_path):
    trace = DecayTrace(samples={0: np.array([5.0]), 1: np.array([-3.0])})
    path = tmp_path / "p.svg"
    export_plot({"x": trace}, str(path))
    svg = path.read_text()
    # both markers land on the axis extremes rather than outside the frame
    import re
    ys = [float(m) for m in re.findall(r'<circle cx="[\d.]+" cy="([\d.]+)"', svg)]
    assert len(ys) == 2
    assert min(ys) >= 50.0 - 1e-9 and max(ys) <= 420.0 - 50.0 + 1e-9


def test_export_plot_deterministic(tmp_path, rng):
    config, params = _model()
    trace = capture_trace(params, config, rng.integers(0, 256, size=16))
    p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
    export_plot({"m": trace}, str(p1))
    export_plot({"m": trace}, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_export_plot_requires_traces(tmp_path):
    with pytest.raises(ValueError):
        export_plot({}, str(tmp_path / "never.svg"))
