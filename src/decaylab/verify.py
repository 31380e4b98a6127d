"""Self-check suites behind the `verify` subcommand: oracle equivalence
(the decay scan and TPE), chunked equivalence, DPLR reductions, RoPE-decay
compatibility, gradient checks, and the algebraic decay identities.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import decay as D
from . import recurrence as R
from . import tensor as T
from .posenc import RopeParams, TpeParams, rope_decay_equivalence, tpe_apply, tpe_toeplitz_oracle
from .tensor import Tape, Tensor, backward


def _random_lambda(rng, strategy, granularity, n, dk):
    shape = (n, 1) if granularity == "scalar" else (n, dk)
    return D.STRATEGIES[strategy].random_lambda(rng, Tensor(rng.normal(0.0, 3.0, size=shape)))


def _decay_cells():
    """(strategy, granularity, sharing): a strategy with a decay projection
    in all three projection layouts, a per-head one as a scalar."""
    cells = []
    for strategy, row in D.STRATEGIES.items():
        if row.projected:
            cells += [(strategy, "scalar", "independent"), (strategy, "vector", "independent"),
                      (strategy, "vector", "shared")]
        else:
            cells.append((strategy, "scalar", "independent"))
    return cells


def suite_sequential_vs_oracle(level="full"):
    cases = 200 if level == "full" else 20
    failures = []
    rng = np.random.Generator(np.random.Philox(1))
    for strategy, granularity, sharing in _decay_cells():
        worst = 0.0
        for _ in range(cases):
            n = int(rng.integers(1, 65))
            dk = int(rng.integers(1, 9))
            dv = int(rng.integers(1, 9))
            lam = _random_lambda(rng, strategy, granularity, n, dk)
            q = rng.normal(size=(n, dk))
            k = (1.0 - np.broadcast_to(lam, (n, dk))
                 if sharing == "shared" else rng.normal(size=(n, dk)))
            v = rng.normal(size=(n, dv))
            o_seq = R.forward_sequential(q, k, v, lam)
            o_ref = R.forward_oracle(q, k, v, lam)
            worst = max(worst, float(np.max(np.abs(o_seq.data - o_ref))))
        if worst > 1e-10:
            failures.append(f"{strategy}/{granularity}/{sharing}: max abs diff {worst:.3e}")
    rng = np.random.Generator(np.random.Philox([1, 1]))
    worst = 0.0
    for _ in range(cases):
        n, d, m = (int(rng.integers(1, hi)) for hi in (65, 5, 4))
        params = TpeParams(*rng.normal(size=(3, d, m)))
        x = rng.normal(size=(int(rng.integers(1, 3)), n, d))
        worst = max(worst, float(np.max(np.abs(
            tpe_apply(x, params).data - tpe_toeplitz_oracle(x, params)))))
    if worst > 1e-10:
        failures.append(f"tpe: max abs diff {worst:.3e}")
    return failures


def _kernel_grads(kernel, arrays, weight, *args):
    """Output and the gradients of sum(o * weight) wrt every input array."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape():
        o = kernel(*leaves, *args)
        backward(T.tsum(o * weight))
    return o.data, [leaf.grad for leaf in leaves]


def _rel_diff(a, b):
    """max |a - b| relative to max |b|, or absolute below 1."""
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1.0))


# Cases of the chunk kernel, run at both widths of lam: (batch, n, value,
# positions with lam = value).  Zeros at t = 0, on a chunk boundary and at a
# span's first position keep the factorized form, over more than two spans
# and, with a (2, 3) batch, across one span boundary; so does a run just
# above FLOOR.  A zero at a span's last position or in the
# middle of a chunk, a run of 1e-30 and a run just below FLOOR send the call
# to the scan.  They also cover n not a multiple of the chunk, n below the
# chunk, n = 1 and a (2, 3) batch.
_CHUNK_CASES = [
    ((), 2 * R.SPAN + R.CHUNK + 3, 0.0, (0, R.CHUNK, R.SPAN)),
    ((2, 3), R.SPAN + 5, 0.0, (0, R.CHUNK)),
    ((2, 3), R.SPAN + 5, 0.0, (0, R.CHUNK, R.SPAN - 1)),
    ((2, 3), R.CHUNK + 5, 0.0, (0, R.CHUNK)),
    ((), R.CHUNK - 3, 0.0, (0,)),
    ((), 1, 0.0, (0,)),
    ((), 2 * R.CHUNK + 7, 0.0, (0, R.CHUNK + R.CHUNK // 2)),
    ((2, 3), 2 * R.CHUNK + 7, 1e-30, tuple(range(R.CHUNK + 3, R.CHUNK + 9))),
    ((), 3 * R.CHUNK, R.FLOOR * (1 - 1e-6), tuple(range(R.CHUNK + 1, 2 * R.CHUNK))),
    ((), 3 * R.CHUNK, R.FLOOR * (1 + 1e-6), tuple(range(R.CHUNK + 1, 2 * R.CHUNK))),
]


def suite_chunked_vs_sequential(level="full"):
    failures = []
    rng = np.random.Generator(np.random.Philox(2))
    lengths = [257, 64, 33] if level == "full" else [33]
    for n in lengths:
        dk, dv = 6, 5
        lam = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 2.0, size=(n, dk))))
        q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
        o_seq = R.forward_sequential(q, k, v, lam)
        for chunk in (1, 2, 16, 64, n):
            o_ch = R.forward_chunked(q, k, v, lam, chunk)
            diff = float(np.max(np.abs(o_ch.data - o_seq.data)))
            if not diff <= 1e-8:
                failures.append(f"n={n} chunk={chunk}: diff {diff:.3e}")
    # outputs with and without a tape, and all four gradients
    dk, dv = 6, 5
    for (batch, n, value, positions), width in itertools.product(_CHUNK_CASES, (1, dk)):
        lam = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 2.0, size=batch + (n, width))))
        lam[..., list(positions), :] = value
        arrays = [rng.normal(size=batch + (n, d)) for d in (dk, dk, dv)] + [lam]
        weight = rng.normal(size=batch + (n, dv))
        o_seq, g_seq = _kernel_grads(R.forward_sequential, arrays, weight)
        o_ch, g_ch = _kernel_grads(R.forward_chunked, arrays, weight, R.CHUNK)
        o_free = R.forward_chunked(*arrays, R.CHUNK).data
        case = f"width={width} batch={batch} n={n} lam={value:g}"
        for name, a, b in zip(("output", "no-tape output", "dq", "dk", "dv", "dlam"),
                              [o_ch, o_free] + g_ch, [o_seq, o_seq] + g_seq):
            if not _rel_diff(a, b) <= 1e-10:
                failures.append(f"{case}: {name} rel diff {_rel_diff(a, b):.3e}")
    return failures


def suite_dplr(level="full"):
    failures = []
    rng = np.random.Generator(np.random.Philox(3))
    reps = 20 if level == "full" else 5
    for _ in range(reps):
        n, dk, dv = int(rng.integers(2, 17)), 4, 3
        lam = rng.uniform(0.1, 1.0, size=(n, dk))
        q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
        kappa = rng.normal(size=(n, dk))
        kappa /= np.linalg.norm(kappa, axis=-1, keepdims=True)
        beta = rng.uniform(0.05, 0.95, size=(n, 1))
        o_dplr = R.forward_dplr(q, k, v, lam, kappa, beta)
        o_ref = R.dplr_dense_oracle(q, k, v, lam, kappa, beta)
        diff = float(np.max(np.abs(o_dplr.data - o_ref)))
        if diff > 1e-10:
            failures.append(f"dense oracle diff {diff:.3e}")
        o_zero = R.forward_dplr(q, k, v, lam, kappa, np.zeros((n, 1)))
        o_diag = R.forward_sequential(q, k, v, lam)
        diff = float(np.max(np.abs(o_zero.data - o_diag.data)))
        if diff > 1e-12:
            failures.append(f"beta=0 reduction diff {diff:.3e}")
    # delta-rule overwrite: the second write through the same unit key
    # replaces the first value, so reading that key at t = 1 gives v_2
    kap = np.zeros((2, 3))
    kap[:, 0] = 1.0
    v2 = np.array([[1.0, 2.0], [5.0, -1.0]])
    o = R.forward_dplr(kap, kap, v2, np.ones((2, 3)), kap, np.ones((2, 1)))
    if float(np.max(np.abs(o.data[1] - v2[1]))) > 1e-12:
        failures.append("delta-rule overwrite: o_1 does not read back v_2")
    return failures


def suite_rope_decay(level="full"):
    failures = []
    seeds = range(100) if level == "full" else range(10)
    params = RopeParams(8)
    for seed in seeds:
        rng = np.random.Generator(np.random.Philox([4, seed]))
        n = int(rng.integers(2, 33))
        q, k = rng.normal(size=(2, n, 8))
        v = rng.normal(size=(n, 5))
        lam_s = rng.uniform(0.2, 1.0, size=(n,))
        dev = rope_decay_equivalence(q, k, v, lam_s, params)
        if dev > 1e-8:
            failures.append(f"seed {seed} scalar decay deviation {dev:.3e}")
        pair = rng.uniform(0.2, 1.0, size=(n, 4))
        lam_v = np.repeat(pair, 2, axis=-1)
        dev = rope_decay_equivalence(q, k, v, lam_v, params)
        if dev > 1e-8:
            failures.append(f"seed {seed} paired vector decay deviation {dev:.3e}")
    return failures


def finite_difference(fn, x, step=1e-5):
    """Central finite differences of a scalar-valued fn over array x."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += step
        xm = x.copy()
        xm[idx] -= step
        g[idx] = (fn(xp) - fn(xm)) / (2.0 * step)
        it.iternext()
    return g


def grad_check(build, leaves, rel_tol=1e-4, step=1e-5):
    """Compare tape gradients of scalar build(leaves) with finite differences.

    ``leaves`` is a dict name -> Tensor; returns failure strings."""
    with Tape():
        loss = build(leaves)
        backward(loss)
    failures = []
    for name, leaf in leaves.items():
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)

        def scalar_fn(x, _name=name):
            saved = leaves[_name].data
            leaves[_name].data = x
            try:
                return build(leaves).item()
            finally:
                leaves[_name].data = saved

        numeric = finite_difference(scalar_fn, leaf.data, step)
        denom = np.maximum(np.abs(numeric), 1.0)
        err = float(np.max(np.abs(analytic - numeric) / denom))
        if err > rel_tol:
            failures.append(f"{name}: rel err {err:.3e} (tol {rel_tol:g})")
        leaf.grad = None
    return failures


def suite_gradients(level="full"):
    failures = []
    rng = np.random.Generator(np.random.Philox(5))
    n, dk, dv = 5, 3, 2
    q = Tensor(rng.normal(size=(n, dk)), requires_grad=True)
    k = Tensor(rng.normal(size=(n, dk)), requires_grad=True)
    v = Tensor(rng.normal(size=(n, dv)), requires_grad=True)
    lam = Tensor(rng.uniform(0.2, 0.95, size=(n, dk)), requires_grad=True)

    def scan_loss(leaves):
        o = R.forward_sequential(leaves["q"], leaves["k"], leaves["v"], leaves["lam"])
        return T.tsum(o * o)

    failures += [f"scan {m}" for m in grad_check(scan_loss, {"q": q, "k": k, "v": v, "lam": lam})]

    for strategy in D.POINTWISE:
        f = Tensor(rng.normal(0.0, 2.0, size=(4, 3)), requires_grad=True)
        a = Tensor(np.array(0.3), requires_grad=True)
        delta = Tensor(np.array(-0.5), requires_grad=True)
        tau = Tensor(np.array(8.0), requires_grad=True)
        lb = Tensor(np.array(0.4), requires_grad=True)

        def decay_loss(leaves, _s=strategy):
            lam_ = D.STRATEGIES[_s].decay(leaves["f"], a=leaves["a"], delta=leaves["delta"],
                                          tau=leaves["tau"], lower_bound=leaves["lb"])
            return T.tsum(lam_ * lam_)

        failures += [f"{strategy} {m}" for m in grad_check(
            decay_loss, {"f": f, "a": a, "delta": delta, "tau": tau, "lb": lb})]

    f = Tensor(rng.normal(0.0, 2.0, size=(6, 2)), requires_grad=True)

    def lightnet_loss(leaves):
        lam_ = D.lightnet_decay(leaves["f"])
        return T.tsum(lam_ * T.as_tensor(rng2))

    rng2 = np.random.Generator(np.random.Philox(6)).normal(size=(6, 2))
    failures += [f"lightnet {m}" for m in grad_check(lightnet_loss, {"f": f})]

    # the fused single-node ops of the model: rmsnorm, silu, head projection
    rng3 = np.random.Generator(np.random.Philox(8))
    x = Tensor(rng3.normal(size=(2, 3, 4)), requires_grad=True)
    gamma = Tensor(rng3.normal(size=4), requires_grad=True)
    weight = rng3.normal(size=(2, 3, 4))
    failures += [f"rmsnorm {m}" for m in grad_check(
        lambda lv: T.tsum(T.rmsnorm(lv["x"], lv["gamma"]) * weight), {"x": x, "gamma": gamma})]
    failures += [f"silu {m}" for m in grad_check(
        lambda lv: T.tsum(T.silu(lv["x"]) * weight), {"x": x})]
    for dh in (3, 1):
        w = Tensor(rng3.normal(size=(2, 4, dh)), requires_grad=True)
        weight_h = rng3.normal(size=(2, 2, 3, dh))
        failures += [f"head projection dh={dh} {m}" for m in grad_check(
            lambda lv, _w=weight_h: T.tsum(T.head_project(lv["x"], lv["w"]) * _w),
            {"x": x, "w": w})]
    return failures


def suite_decay_identities(level="full"):
    failures = []
    rng = np.random.Generator(np.random.Philox(7))
    draws = 10_000 if level == "full" else 1000
    # lightnet: partition of unity and lambda_1 = 0
    f = Tensor(rng.normal(0.0, 3.0, size=(17, 3)))
    lam = D.lightnet_decay(f).data
    if float(np.max(np.abs(lam[0]))) > 0:
        failures.append("lightnet lambda_1 != 0")
    weights = (1.0 - lam) * np.concatenate(
        [np.cumprod(lam[::-1], axis=0)[::-1][1:], np.ones((1, 3))], axis=0)
    if float(np.max(np.abs(weights.sum(axis=0) - 1.0))) > 1e-12:
        failures.append("lightnet partition of unity violated")
    # tnl spot values
    if D.tnl_decay(1, 2, 1, 2) != math.exp(-2.0):
        failures.append("tnl exp(-2) spot value")
    if D.tnl_decay(2, 2, 1, 2) != math.exp(-4.0):
        failures.append("tnl exp(-4) spot value")
    if any(D.tnl_decay(j, 4, 3, 3) != 1.0 for j in range(1, 5)):
        failures.append("tnl last layer should be exactly 1")
    # simple decay inverse pair
    for p in (0.8, 0.9, 0.95, 0.99):
        delta = D.simple_decay_init(p)
        if abs(1.0 / (1.0 + np.exp(-delta)) - p) > 1e-12:
            failures.append(f"simple decay sigmoid(Delta({p})) != {p}")
    # shared key exactness
    lam_t = Tensor(rng.uniform(0.0, 1.0, size=(50,)))
    if np.any(D.shared_key(lam_t).data != 1.0 - lam_t.data):
        failures.append("shared key k = 1 - lambda not exact")
    # ranges and hgrn2 floor
    fs = Tensor(rng.normal(0.0, 3.0, size=(draws,)))
    for strategy in D.POINTWISE:
        lam_s = D.STRATEGIES[strategy].decay(fs, a=0.2, delta=0.3, tau=16.0,
                                             lower_bound=0.25).data
        if not (np.all(lam_s > 0.0) and np.all(lam_s < 1.0)):
            failures.append(f"{strategy} decay leaves (0, 1)")
    lam_h = D.STRATEGIES["hgrn2"].decay(fs, lower_bound=0.25).data
    if not np.all(lam_h >= 0.25):
        failures.append("hgrn2 decay below its lower bound")
    return failures


SUITES = [
    ("sequential-vs-oracle", suite_sequential_vs_oracle),
    ("chunked-vs-sequential", suite_chunked_vs_sequential),
    ("dplr", suite_dplr),
    ("rope-decay-compatibility", suite_rope_decay),
    ("gradients", suite_gradients),
    ("decay-identities", suite_decay_identities),
]


def run_all(level="full", log=print):
    """Run every suite; returns the names of failing suites."""
    failed = []
    for name, fn in SUITES:
        failures = fn(level)
        if failures:
            failed.append(name)
            log(f"FAIL {name}")
            for msg in failures[:10]:
                log(f"  - {msg}")
        else:
            log(f"PASS {name}")
    return failed
