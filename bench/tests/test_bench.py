"""Tests of the benchmark harness itself: its step loop, its tracer and its
command-line contract."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from decaylab import model, recurrence, train  # noqa: E402
import decaylab  # noqa: E402

SEED = 0


@pytest.mark.parametrize("name", ["train_smoke", "train_dplr_rope"])
def test_step_loop_mirrors_train_loop(tmp_path, name):
    """One segment of the benchmark's loop reproduces train_loop bitwise:
    the losses in metrics.txt and the final checkpoint."""
    wl = workloads.make(name, SEED, tmp_path / "bench")
    wl.setup()
    losses = [wl.op(j) for j in range(wl.steps)]
    label, mcfg = wl.segments[0]
    out = tmp_path / "train_loop"
    records = train.train_loop(mcfg, wl.train_config, wl.corpus, str(out))
    assert [r["train_loss"] for r in records] == losses
    logged = [line.split(",")[2] for line in (out / "metrics.txt").read_text().splitlines()]
    assert logged == [f"{loss:.10g}" for loss in losses]
    assert (out / "ckpt_final.bin").read_bytes() == Path(wl.checkpoint_paths[0]).read_bytes()


def test_aliases_are_rebound_by_identity():
    original = recurrence.forward_sequential
    with tracer.Tracer():
        assert recurrence.forward_sequential is not original
        assert model.forward_sequential is recurrence.forward_sequential
        assert decaylab.lm_forward is model.lm_forward
        assert train.lm_forward is model.lm_forward
    assert recurrence.forward_sequential is original
    assert model.forward_sequential is original


def test_missing_trace_target_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracer.GROUPS, "recurrence.no_such_kernel", "recurrence")
    original = train.AdamW.step
    with pytest.raises(LookupError, match="recurrence.no_such_kernel"):
        with tracer.Tracer():
            pass
    assert train.AdamW.step is original


def test_new_kernel_is_charged_to_recurrence(monkeypatch):
    def forward_new(x):
        return x

    forward_new.__module__ = recurrence.__name__
    monkeypatch.setattr(recurrence, "forward_new", forward_new, raising=False)
    monkeypatch.setattr(model, "forward_new", forward_new, raising=False)
    with tracer.Tracer() as tr:
        model.forward_new(1)
    assert tr.calls["recurrence"] == 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_traced_outputs_equal_untraced_and_reference(tmp_path, name):
    expected = workloads.reference(name, SEED)
    wl = workloads.make(name, SEED, tmp_path)
    wl.setup()
    ops = wl.independent_ops()
    plain = [wl.op(j) for j in ops]
    with tracer.Tracer(memory=True) as tr:
        traced = []
        for j in ops:
            tr.begin_op()
            traced.append(wl.op(j))
            tr.end_op()
    assert traced == plain
    assert all(wl.matches(out, expected[j]) for j, out in zip(ops, plain))
    assert tr.ops == len(ops)
    assert tr.calls["recurrence"] == 2 * len(ops)  # one kernel call per layer
    assert min(tr.alloc_peaks) > 0
    if name.startswith("train"):
        assert tr.tape_nodes > 0 and min(tr.retained) > 0
        assert tr.bwd["recurrence"] > 0 and tr.fwd["train.adamw"] > 0
    else:
        assert tr.tape_nodes == 0 and tr.fwd["probe.capture"] > 0


def test_output_mismatch_counts_as_failed(tmp_path):
    wl = workloads.make("probe_long", SEED, tmp_path)
    wl.setup()
    log = run.Log()
    expected = workloads.reference("probe_long", SEED)
    wrong = [[m * (1 + 1e-6) for m in medians] for medians in expected]
    run.run_ops(wl, [0, 1], wrong, log)
    assert log.failed == 2


def _metric_names(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[section]]


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_declared_metric(capsys, monkeypatch, trace, section):
    monkeypatch.setattr(run, "MIN_OPS", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    assert run.main(["--workload", "probe_long", "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace)]) == 0
    last = capsys.readouterr().out.strip().splitlines()[-1]
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == _metric_names(section)


def test_fails_without_program_sources(tmp_path):
    """A directory holding only the benchmark must fail without a result."""
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "probe_long", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
