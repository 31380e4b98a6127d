"""Acceptance gate: every release-blocking property in one module.

Each test prints a single PASS/FAIL line for its criterion.  Criterion 11
is qualitative and reported without gating.
"""

import time

import numpy as np
import pytest

from decaylab import decay as D
from decaylab import recurrence as R
from decaylab import tensor as T
from decaylab import verify
from decaylab.checkpoint import load_checkpoint
from decaylab.decay import DecayConfig
from decaylab.model import ModelConfig, glu_forward, init_params, lm_forward
from decaylab.probe import capture_trace, layer_stats, median
from decaylab.tensor import Tensor
from decaylab.train import TrainConfig, cross_entropy, load_corpus, train_loop
from decaylab.verify import grad_check

LN256 = float(np.log(256.0))


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" ({detail})" if detail else ""
    print(f"[acceptance] criterion {num} {name}: {status}{extra}")
    assert ok, f"criterion {num} {name} failed{extra}"


def test_criterion_1_oracle_equivalence():
    start = time.time()
    failures = verify.suite_sequential_vs_oracle("full")
    elapsed = time.time() - start
    report(1, "sequential-vs-oracle", failures == [] and elapsed < 60.0,
           f"{elapsed:.1f}s; {failures[:3]}")


def test_criterion_2_chunked_equivalence():
    failures = verify.suite_chunked_vs_sequential("full")
    report(2, "chunked-vs-sequential", failures == [], str(failures[:3]))


def test_criterion_3_dplr():
    failures = verify.suite_dplr("full")
    report(3, "dplr-reductions-and-oracle", failures == [], str(failures[:3]))


def test_criterion_4_rope_decay_compatibility():
    failures = verify.suite_rope_decay("full")
    report(4, "rope-decay-compatibility", failures == [], str(failures[:3]))


def test_criterion_5_gradient_checks():
    failures = list(verify.suite_gradients("full"))
    rng = np.random.Generator(np.random.Philox(21))

    # GLU at op tolerance
    glu_config = ModelConfig(n_layers=1, hidden=8, heads=2, vocab=5)
    glu_params = init_params(glu_config)
    x_glu = rng.normal(size=(3, 8))
    glu_leaves = {n: p for n, p in glu_params.items()
                  if n.startswith("layers.0.glu.")}

    def glu_build(lv):
        merged = dict(glu_params)
        merged.update(lv)
        y = glu_forward(Tensor(x_glu), merged, 0)
        return T.tsum(y * y)

    failures += [f"glu {m}" for m in grad_check(glu_build, glu_leaves, 1e-4)]

    # rmsnorm at op tolerance
    rms_leaves = {
        "x": Tensor(rng.normal(size=(4, 6)), requires_grad=True),
        "gamma": Tensor(rng.normal(size=6) + 1.0, requires_grad=True),
    }

    def rms_build(lv):
        return T.tsum(T.sigmoid(T.rmsnorm(lv["x"], lv["gamma"])))

    failures += [f"rmsnorm {m}" for m in grad_check(rms_build, rms_leaves, 1e-4)]

    # cross entropy at op tolerance
    targets = rng.integers(0, 7, size=5)
    ce_leaves = {"logits": Tensor(rng.normal(size=(5, 7)), requires_grad=True)}

    def ce_build(lv):
        return cross_entropy(lv["logits"], targets)

    failures += [f"cross_entropy {m}" for m in grad_check(ce_build, ce_leaves, 1e-4)]

    # full 2-layer model at model tolerance
    config = ModelConfig(n_layers=2, hidden=16, heads=2, vocab=17,
                         decay=DecayConfig(strategy="mamba2"))
    params = init_params(config)
    toks = rng.integers(0, 17, size=8)
    tgts = rng.integers(0, 17, size=8)

    def model_build(lv):
        return cross_entropy(lm_forward(toks, lv, config), tgts)

    failures += [f"model {m}" for m in grad_check(model_build, params, 1e-3)]
    report(5, "gradient-checks", failures == [], str(failures[:3]))


def test_criterion_6_decay_identities():
    failures = verify.suite_decay_identities("full")
    report(6, "decay-identities", failures == [], str(failures[:3]))


def test_criterion_7_scalar_vector_coherence():
    rng = np.random.Generator(np.random.Philox(22))
    ok = True
    detail = ""

    # op level: broadcast scalar activations through the vector formulas
    fs = rng.normal(size=(6, 1))
    fv = np.broadcast_to(fs, (6, 4)).copy()
    for strategy in D.POINTWISE:
        lam_s = D.STRATEGIES[strategy].decay(Tensor(fs), a=0.1, delta=-0.2,
                                             tau=16.0, lower_bound=0.3).data
        lam_v = D.STRATEGIES[strategy].decay(Tensor(fv), a=0.1, delta=-0.2,
                                             tau=16.0, lower_bound=0.3).data
        if not np.array_equal(np.broadcast_to(lam_s, (6, 4)), lam_v):
            ok, detail = False, f"pointwise {strategy} not bitwise"

    # op level: the scan with scalar decay vs the same values broadcast
    n, dk, dv = 7, 4, 3
    q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
    lam_s = rng.uniform(0.2, 1.0, size=(n, 1))
    o_s = R.forward_sequential(q, k, v, lam_s)
    o_v = R.forward_sequential(q, k, v, np.broadcast_to(lam_s, (n, dk)).copy())
    if not np.array_equal(o_s.data, o_v.data):
        ok, detail = False, "scan scalar vs broadcast vector not bitwise"

    # full model: a vector model whose decay projection reproduces the
    # scalar model's broadcast activation
    d, h = 16, 2
    dk = d // h
    base = dict(n_layers=2, hidden=d, heads=h, vocab=17)
    cfg_s = ModelConfig(**base, decay=DecayConfig(strategy="mamba2",
                                                  granularity="scalar"))
    cfg_v = ModelConfig(**base, decay=DecayConfig(strategy="mamba2",
                                                  granularity="vector"))
    params_s = init_params(cfg_s)
    params_v = {}
    for name, p in params_s.items():
        if name.endswith("decay.w_scalar"):
            layer = name.rsplit(".", 1)[0]
            w_low = np.zeros((d, dk))
            w_head = np.zeros((h, dk, dk))
            for j in range(h):
                w_low[:, j] = p.data[j, :, 0]
                w_head[j, j, :] = 1.0
            params_v[layer + ".w_low"] = Tensor(w_low)
            params_v[layer + ".w_head"] = Tensor(w_head)
        else:
            params_v[name] = Tensor(p.data.copy())
    toks = rng.integers(0, 17, size=11)
    out_s = lm_forward(toks, params_s, cfg_s).data
    out_v = lm_forward(toks, params_v, cfg_v).data
    diff = float(np.max(np.abs(out_s - out_v)))
    if diff > 1e-10:
        ok, detail = False, f"full model diff {diff:.2e}"
    report(7, "scalar-vector-coherence", ok, detail)


def test_criterion_8_causality_and_determinism(corpus):
    rng = np.random.Generator(np.random.Philox(23))
    ok = True
    detail = ""
    matrix = [
        dict(decay=DecayConfig(strategy="mamba2")),
        dict(decay=DecayConfig(strategy="mamba2", granularity="scalar")),
        dict(decay=DecayConfig(strategy="gla", sharing="shared")),
        dict(decay=DecayConfig(strategy="hgrn2")),
        dict(decay=DecayConfig(strategy="lightnet")),
        dict(decay=DecayConfig(strategy="tnl", granularity="scalar")),
        dict(decay=DecayConfig(strategy="tnl_l", granularity="scalar")),
        dict(decay=DecayConfig(strategy="simple")),
        dict(decay=DecayConfig(strategy="none")),
        dict(decay=DecayConfig(strategy="mamba2"), posenc="rope"),
        dict(decay=DecayConfig(strategy="gla"), posenc="lrpe"),
        dict(decay=DecayConfig(strategy="simple"), posenc="tpe"),
        dict(decay=DecayConfig(strategy="simple"), transition="dplr"),
    ]
    for kwargs in matrix:
        config = ModelConfig(n_layers=2, hidden=16, heads=2, vocab=31, **kwargs)
        params = init_params(config)
        toks = rng.integers(0, 31, size=10)
        base = lm_forward(toks, params, config).data
        toks2 = toks.copy()
        toks2[6:] = (toks2[6:] + 1) % 31
        mod = lm_forward(toks2, params, config).data
        if not np.array_equal(base[:6], mod[:6]):
            ok, detail = False, f"causality violated: {kwargs}"
        again = lm_forward(toks, init_params(config), config).data
        if not np.array_equal(base, again):
            ok, detail = False, f"same-seed logits differ: {kwargs}"

    mcfg = ModelConfig(n_layers=1, hidden=16, heads=2, vocab=256,
                       decay=DecayConfig(strategy="simple"))
    tcfg = TrainConfig(total_steps=5, batch_size=2, seq_len=24, val_every=0)
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        r1 = train_loop(mcfg, tcfg, corpus, tmp + "/a")
        r2 = train_loop(mcfg, tcfg, corpus, tmp + "/b")
    if any(a["train_loss"] != b["train_loss"] for a, b in zip(r1, r2)):
        ok, detail = False, "loss trajectory not reproducible"
    report(8, "causality-and-determinism", ok, detail)


SMOKE_STRATEGIES = {
    "mamba2": DecayConfig(strategy="mamba2"),
    "gla": DecayConfig(strategy="gla"),
    "hgrn2": DecayConfig(strategy="hgrn2"),
    "lightnet": DecayConfig(strategy="lightnet"),
    "tnl": DecayConfig(strategy="tnl", granularity="scalar"),
    "simple": DecayConfig(strategy="simple", p=0.99),
}


@pytest.fixture(scope="session")
def smoke_runs(tmp_path_factory, corpus_path):
    """Six 200-step training runs at the smoke-test geometry."""
    tcfg = TrainConfig(total_steps=200, batch_size=8, seq_len=128, val_every=0)
    corpus = load_corpus(corpus_path, tcfg)
    assert len(corpus.data) >= 100_000
    results = {}
    for name, dcfg in SMOKE_STRATEGIES.items():
        mcfg = ModelConfig(n_layers=2, hidden=64, heads=4, vocab=256, decay=dcfg)
        out = tmp_path_factory.mktemp(f"smoke_{name}")
        start = time.time()
        records = train_loop(mcfg, tcfg, corpus, str(out))
        results[name] = {
            "records": records,
            "out": out,
            "elapsed": time.time() - start,
        }
    return results


def test_criterion_9_training_smoke(smoke_runs):
    ok = True
    details = []
    for name, res in smoke_runs.items():
        first = res["records"][0]["train_loss"]
        last = res["records"][-1]["train_loss"]
        details.append(f"{name}: {first:.3f}->{last:.3f} in {res['elapsed']:.0f}s")
        if abs(first - LN256) > 0.02 * LN256:
            ok = False
            details.append(f"{name}: step-0 loss {first:.4f} not near ln 256")
        if last > 0.8 * first:
            ok = False
            details.append(f"{name}: final loss {last:.4f} > 0.8 x {first:.4f}")
        if res["elapsed"] > 600.0:
            ok = False
            details.append(f"{name}: run took {res['elapsed']:.0f}s > 600s")
    report(9, "training-smoke", ok, "; ".join(details))


def test_criterion_10_probe_integrity():
    rng = np.random.Generator(np.random.Philox(24))
    ok = True
    detail = ""

    config = ModelConfig(n_layers=2, hidden=16, heads=2, vocab=256,
                         decay=DecayConfig(strategy="mamba2"))
    # scale every weight, so that the norms are not all ones
    params = {name: Tensor(p.data * rng.uniform(0.5, 1.5, p.shape))
              for name, p in init_params(config).items()}
    toks = rng.integers(0, 256, size=48)
    plain = lm_forward(toks, params, config).data
    recorded = []
    traced = lm_forward(toks, params, config, trace=recorded).data
    if not np.array_equal(plain, traced):
        ok, detail = False, "tracing perturbs logits"
    probed = capture_trace(params, config, toks)
    if any(probed[layer].shape != lam.shape or probed[layer].tobytes() != lam.tobytes()
           for layer, lam in recorded):
        ok, detail = False, "probe samples differ from the full forward's decay"

    tnl_cfg = ModelConfig(n_layers=3, hidden=16, heads=2, vocab=256,
                          decay=DecayConfig(strategy="tnl", granularity="scalar"))
    samples = capture_trace(init_params(tnl_cfg), tnl_cfg,
                            rng.integers(0, 256, size=32))
    for s in layer_stats(samples):
        consts = [D.tnl_decay(j, 2, s.layer + 1, 3) for j in (1, 2)]
        if s.median != float(np.mean(consts)):
            ok, detail = False, f"tnl layer {s.layer} median mismatch"

    vals = rng.uniform(0.0, 1.0, size=10_000)
    if median(vals) != float(np.sort(vals)[4999:5001].mean()):
        ok, detail = False, "median differs from sort oracle"
    report(10, "probe-integrity", ok, detail)


def test_criterion_11_lightnet_medians_qualitative(smoke_runs, corpus_path):
    """Non-gating: after smoke training, LightNet layer medians should sit
    above 0.9 in a majority of layers.  Reported, never failed."""
    out = smoke_runs["lightnet"]["out"]
    params, config = load_checkpoint(str(out / "ckpt_final.bin"))
    with open(corpus_path, "rb") as f:
        tokens = np.frombuffer(f.read(), dtype=np.uint8)[:2048].astype(np.int64)
    stats = layer_stats(capture_trace(params, config, tokens))
    high = sum(1 for s in stats if s.median > 0.9)
    verdict = "PASS" if high > len(stats) / 2 else "FAIL"
    medians = ", ".join(f"layer {s.layer}: {s.median:.4f}" for s in stats)
    print(f"[acceptance] criterion 11 lightnet-median-report: {verdict} "
          f"(non-gating; {high}/{len(stats)} layers above 0.9; {medians})")
