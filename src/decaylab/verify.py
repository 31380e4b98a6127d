"""Self-check suites behind the `verify` subcommand: oracle equivalence
(the decay scan and TPE), chunked equivalence, the DPLR chunk kernel and the
DPLR scan against the dense oracle, the chunk kernel against the scan and
its reductions, RoPE-decay compatibility, gradient checks, and the
algebraic decay identities.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from . import decay as D
from . import recurrence as R
from . import tensor as T
from .model import ModelConfig
from .posenc import rope_decay_equivalence, tpe_apply, tpe_toeplitz_oracle
from .tensor import Tape, Tensor, backward
from .train import cross_entropy


def _random_lambda(rng, strategy, granularity, n, dk):
    """lam, (n, 1) or (n, dk), the exp of the row's decay at N(0, 1) learned
    scalars, tau = 16 and a U(0, 0.9) floor: of N(0, 3) activations for a
    projected row or, for a per-head row, one of 4 heads in one of 3
    layers at every position."""
    row = D.STRATEGIES[strategy]
    f = Tensor(rng.normal(0.0, 3.0, size=(n, 1) if granularity == "scalar" else (n, dk)))
    inputs = {name: rng.normal() for name in row.scalars}
    inputs.update(tau=16.0, lower_bound=float(rng.uniform(0.0, 0.9)))
    if row.projected:
        return np.exp(row.decay(f, **inputs).data)
    heads = T.as_tensor(row.decay(None, heads=4, layer=int(rng.integers(1, 4)), n_layers=3,
                                  **inputs)).data
    return np.full((n, 1), np.exp(np.broadcast_to(heads, (4, 1, 1))[rng.integers(0, 4), 0, 0]))


def _decay_cells():
    """(strategy, granularity, sharing): a strategy with a decay projection
    in every layout of ``decay.PROJECTIONS``, a per-head one as a scalar."""
    return [(strategy,) + layout for strategy, row in D.STRATEGIES.items()
            for layout in (D.PROJECTIONS if row.projected else [("scalar", "independent")])]


def suite_sequential_vs_oracle(level="full"):
    cases = 200 if level == "full" else 20
    failures = []
    rng = np.random.Generator(np.random.Philox(1))
    for strategy, granularity, sharing in _decay_cells():
        diffs = []
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
            diffs.append(np.max(np.abs(o_seq.data - o_ref)))
        # np.max, unlike max(), keeps a NaN
        worst = float(np.max(diffs))
        if not worst <= 1e-10:
            failures.append(f"{strategy}/{granularity}/{sharing}: max abs diff {worst:.3e}")
    rng = np.random.Generator(np.random.Philox([1, 1]))
    diffs = []
    for _ in range(cases):
        n, d, m = (int(rng.integers(1, hi)) for hi in (65, 5, 4))
        a, b, gate_logits = rng.normal(size=(3, d, m))
        x = rng.normal(size=(int(rng.integers(1, 3)), n, d))
        diffs.append(np.max(np.abs(tpe_apply(x, a, b, gate_logits).data
                                   - tpe_toeplitz_oracle(x, a, b, gate_logits))))
    worst = float(np.max(diffs))
    if not worst <= 1e-10:
        failures.append(f"tpe: max abs diff {worst:.3e}")
    return failures


def _kernel_grads(kernel, arrays, weight):
    """Output and the gradients of sum(o * weight) wrt every input array."""
    leaves = [Tensor(a, requires_grad=True) for a in arrays]
    with Tape():
        o = kernel(*leaves)
        backward(T.tsum(o * weight))
    return o.data, [leaf.grad for leaf in leaves]


def _against_the_scan(kernel, arrays, weight, case):
    """Failures of ``kernel`` against the scan on ``arrays``, which hold log
    lam where the kernel takes it and the scan lam = exp(log lam): its
    outputs with and without a tape and every gradient of sum(o * weight),
    its d log lam against the scan's lam dlam, within 1e-10."""
    scan_arrays = arrays[:3] + [np.exp(arrays[3])] + arrays[4:]
    o_scan, g_scan = _kernel_grads(R._recurrence, scan_arrays, weight)
    g_scan[3] = g_scan[3] * scan_arrays[3]
    o_ker, g_ker = _kernel_grads(kernel, arrays, weight)
    names = ("output", "no-tape output", "dq", "dk", "dv", "dlog lam", "dkappa", "dbeta")
    pairs = zip(names, [o_ker, kernel(*arrays).data] + g_ker, [o_scan, o_scan] + g_scan)
    return [f"{case}: {name} rel diff {_rel_diff(a, b):.3e}"
            for name, a, b in pairs if not _rel_diff(a, b) <= 1e-10]


def _rel_diff(a, b):
    """max |a - b| relative to max |b|, or absolute below 1."""
    return float(np.max(np.abs(a - b)) / max(np.max(np.abs(b)), 1.0))


def _at(value, positions):
    """Sets lam to ``value`` at ``positions`` along time."""
    def put(rng, log_lam):
        log_lam[..., list(positions), :] = math.log(value) if value else -np.inf
    return put


def _scattered(rng, log_lam):
    """Sets 3 % of lam, scattered, log-uniform in [1e-18, 1e-4], as training
    at a peak lr of 3e-3 leaves mamba2's."""
    hit = rng.random(log_lam.shape) < 0.03
    log_lam[hit] = rng.uniform(math.log(1e-18), math.log(1e-4), size=int(hit.sum()))


def _saturated(rng, log_lam):
    """Sets log lam to mamba2's row at its largest initial a, 16, on N(0, 3)
    activations with a run of f = 800 across a chunk boundary, where log lam
    is about -1.3e4."""
    f = rng.normal(0.0, 3.0, size=log_lam.shape)
    f[..., R.CHUNK - 3:R.CHUNK + 9, :] = 800.0
    log_lam[...] = D.STRATEGIES["mamba2"].decay(
        Tensor(f), a=math.log(16.0), delta=-math.log(9.0)).data


# Cases of the chunk kernels, run at both widths of lam: (batch, n, label,
# how lam departs from sigmoid(x), x ~ N(0, 2^2)).  A call on ``batch`` runs
# spans of ``R._span(batch)`` positions, with a tape and without: at (1, 4),
# the probe's, 256, at (2, 3) 160 and at (8, 4), the training geometry's,
# 32.  Zeros at t = 0, on a chunk boundary and at a span's first position
# are used as they are, over three and four spans and, with a (2, 3) batch,
# across one span boundary.  A zero at a span's last position or in the
# middle of a chunk, a run of 1e-30 past a chunk's first position, 3 %
# scattered down to 1e-18 and a saturated mamba2 row are replaced by the
# bound ``R.LEAST_LOG`` past a chunk's first position; runs just below and
# just above 1e-4 are not.  They also cover n not a multiple of the chunk, n
# below the chunk and n = 1.
_PROBE, _PAIR, _TRAIN = (R._span(batch) for batch in ((1, 4), (2, 3), (8, 4)))
_PAST_FIRST = tuple(range(R.CHUNK + 1, 2 * R.CHUNK))
_CHUNK_CASES = [
    ((1, 4), 2 * _PROBE + R.CHUNK + 3, "0", _at(0.0, (0, R.CHUNK, _PROBE))),
    ((8, 4), 3 * _TRAIN + 5, "0", _at(0.0, (0, R.CHUNK, _TRAIN, 2 * _TRAIN))),
    ((2, 3), _PAIR + 5, "0", _at(0.0, (0, R.CHUNK))),
    ((2, 3), _PAIR + 5, "0", _at(0.0, (0, R.CHUNK, _PAIR - 1))),
    ((2, 3), R.CHUNK + 5, "0", _at(0.0, (0, R.CHUNK))),
    ((), R.CHUNK - 3, "0", _at(0.0, (0,))),
    ((), 1, "0", _at(0.0, (0,))),
    ((), 2 * R.CHUNK + 7, "0", _at(0.0, (0, R.CHUNK + R.CHUNK // 2))),
    ((2, 3), 2 * R.CHUNK + 7, "1e-30", _at(1e-30, tuple(range(R.CHUNK + 3, R.CHUNK + 9)))),
    ((), 3 * R.CHUNK, "1e-4 (1 - 1e-6)", _at(1e-4 * (1 - 1e-6), _PAST_FIRST)),
    ((), 3 * R.CHUNK, "1e-4 (1 + 1e-6)", _at(1e-4 * (1 + 1e-6), _PAST_FIRST)),
    ((8, 4), 4 * _TRAIN, "3 % in [1e-18, 1e-4]", _scattered),
    ((2, 3), 3 * R.CHUNK + 5, "saturated mamba2", _saturated),
]


def _chunk_cases_against_the_scan(kernel, rng, dk, dv, kappa_scale=None):
    """Failures of ``kernel`` against the scan on every case of ``_CHUNK_CASES``
    at both widths of lam.  With a ``kappa_scale`` the kernel also takes
    kappa, rows of that norm, and beta: at three times a unit row the DPLR
    transition grows the state by orders of magnitude per chunk."""
    failures = []
    for (batch, n, label, put), width in itertools.product(_CHUNK_CASES, (1, dk)):
        # log sigmoid(x) = -softplus(-x)
        log_lam = -np.logaddexp(0.0, -rng.normal(0.0, 2.0, size=batch + (n, width)))
        put(rng, log_lam)
        arrays = [rng.normal(size=batch + (n, d)) for d in (dk, dk, dv)] + [log_lam]
        case = f"width={width} batch={batch} n={n} lam={label}"
        if kappa_scale is not None:
            kappa = rng.normal(size=batch + (n, dk))
            kappa *= kappa_scale / np.linalg.norm(kappa, axis=-1, keepdims=True)
            arrays += [kappa, rng.uniform(0.05, 0.95, size=batch + (n, 1))]
            case += f" kappa scale={kappa_scale:g}"
        weight = rng.normal(size=batch + (n, dv))
        failures += _against_the_scan(kernel, arrays, weight, case)
    return failures


def suite_chunked_vs_sequential(level="full"):
    rng = np.random.Generator(np.random.Philox(2))
    return _chunk_cases_against_the_scan(R.forward_chunked, rng, 6, 5)


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
        o_dplr = R.forward_dplr(q, k, v, np.log(lam), kappa, beta)
        o_ref = R.dplr_dense_oracle(q, k, v, lam, kappa, beta)
        diff = float(np.max(np.abs(o_dplr.data - o_ref)))
        if not diff <= 1e-10:
            failures.append(f"dense oracle diff {diff:.3e}")
        o_zero = R.forward_dplr(q, k, v, np.log(lam), kappa, np.zeros((n, 1)))
        o_diag = R.forward_sequential(q, k, v, lam)
        diff = float(np.max(np.abs(o_zero.data - o_diag.data)))
        if not diff <= 1e-12:
            failures.append(f"beta=0 reduction diff {diff:.3e}")
    # the scan itself, over three blocks of R._BLOCK positions, at both widths of lam
    rng_s = np.random.Generator(np.random.Philox([3, 1]))
    n, dk, dv = 2 * R._BLOCK + 5, 4, 3
    for width in (1, dk):
        lam = rng_s.uniform(0.1, 1.0, size=(2, 3, n, width))
        q, k, v = (rng_s.normal(size=(2, 3, n, d)) for d in (dk, dk, dv))
        kappa = rng_s.normal(size=(2, 3, n, dk))
        kappa /= np.linalg.norm(kappa, axis=-1, keepdims=True)
        beta = rng_s.uniform(0.05, 0.95, size=(2, 3, n, 1))
        o_scan = R._recurrence(*(Tensor(x) for x in (q, k, v, lam, kappa, beta)))
        diff = _rel_diff(o_scan.data, R.dplr_dense_oracle(q, k, v, lam, kappa, beta))
        if not diff <= 1e-10:
            failures.append(f"scan width={width}: dense oracle rel diff {diff:.3e}")
    for scale in (1.0, 3.0):
        failures += _chunk_cases_against_the_scan(R.forward_dplr, rng, 4, 3, scale)
    # delta-rule overwrite: the second write through the same unit key
    # replaces the first value, so reading that key at t = 1 gives v_2
    kap = np.zeros((2, 3))
    kap[:, 0] = 1.0
    v2 = np.array([[1.0, 2.0], [5.0, -1.0]])
    o = R.forward_dplr(kap, kap, v2, np.zeros((2, 3)), kap, np.ones((2, 1)))
    if not float(np.max(np.abs(o.data[1] - v2[1]))) <= 1e-12:
        failures.append("delta-rule overwrite: o_1 does not read back v_2")
    return failures


def suite_rope_decay(level="full"):
    failures = []
    seeds = range(100) if level == "full" else range(10)
    for seed in seeds:
        rng = np.random.Generator(np.random.Philox([4, seed]))
        n = int(rng.integers(2, 33))
        q, k = rng.normal(size=(2, n, 8))
        v = rng.normal(size=(n, 5))
        lam_s = rng.uniform(0.2, 1.0, size=(n,))
        dev = rope_decay_equivalence(q, k, v, lam_s, ModelConfig.rope_base)
        if not dev <= 1e-8:
            failures.append(f"seed {seed} scalar decay deviation {dev:.3e}")
        pair = rng.uniform(0.2, 1.0, size=(n, 4))
        lam_v = np.repeat(pair, 2, axis=-1)
        dev = rope_decay_equivalence(q, k, v, lam_v, ModelConfig.rope_base)
        if not dev <= 1e-8:
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
        if not err <= rel_tol:
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

    # the DPLR scan, whose backward every chunk kernel is checked against,
    # across a block boundary
    rng_d = np.random.Generator(np.random.Philox([5, 1]))
    n_d = R._BLOCK + 3
    kappa = rng_d.normal(size=(n_d, dk))
    kappa /= np.linalg.norm(kappa, axis=-1, keepdims=True)
    arrays = [rng_d.normal(size=(n_d, d)) for d in (dk, dk, dv)] + [
        rng_d.uniform(0.2, 0.95, size=(n_d, dk)), kappa, rng_d.uniform(0.05, 0.95, size=(n_d, 1))]
    dplr = {name: Tensor(x, requires_grad=True)
            for name, x in zip(("q", "k", "v", "lam", "kappa", "beta"), arrays)}

    def dplr_scan_loss(leaves):
        o = R._recurrence(*leaves.values())
        return T.tsum(o * o)

    failures += [f"dplr scan {m}" for m in grad_check(dplr_scan_loss, dplr)]

    for strategy in D.POINTWISE:
        f = Tensor(rng.normal(0.0, 2.0, size=(4, 3)), requires_grad=True)
        a = Tensor(np.array(0.3), requires_grad=True)
        delta = Tensor(np.array(-0.5), requires_grad=True)
        tau = Tensor(np.array(8.0), requires_grad=True)
        lb = Tensor(np.array(0.4), requires_grad=True)

        def decay_loss(leaves, _s=strategy):
            lam_ = T.exp(D.STRATEGIES[_s].decay(leaves["f"], a=leaves["a"],
                                                delta=leaves["delta"], tau=leaves["tau"],
                                                lower_bound=leaves["lb"]))
            return T.tsum(lam_ * lam_)

        failures += [f"{strategy} {m}" for m in grad_check(
            decay_loss, {"f": f, "a": a, "delta": delta, "tau": tau, "lb": lb})]

    f = Tensor(rng.normal(0.0, 2.0, size=(6, 2)), requires_grad=True)

    def lightnet_loss(leaves):
        lam_ = T.exp(D.lightnet_decay(leaves["f"]))
        return T.tsum(lam_ * T.as_tensor(rng2))

    rng2 = np.random.Generator(np.random.Philox(6)).normal(size=(6, 2))
    failures += [f"lightnet {m}" for m in grad_check(lightnet_loss, {"f": f})]

    # the single-node ops of the model, the embedding lookup and the loss
    rng3 = np.random.Generator(np.random.Philox(8))
    x = Tensor(rng3.normal(size=(2, 3, 4)), requires_grad=True)
    gamma = Tensor(rng3.normal(size=4), requires_grad=True)
    weight = rng3.normal(size=(2, 3, 4))
    failures += [f"rmsnorm {m}" for m in grad_check(
        lambda lv: T.tsum(T.rmsnorm(lv["x"], lv["gamma"]) * weight), {"x": x, "gamma": gamma})]
    for name, op in (("silu", T.silu), ("sigmoid", T.sigmoid), ("softplus", T.softplus)):
        failures += [f"{name} {m}" for m in grad_check(
            lambda lv, _op=op: T.tsum(_op(lv["x"]) * weight), {"x": x})]
    for dh in (3, 1):
        w = Tensor(rng3.normal(size=(2, 4, dh)), requires_grad=True)
        weight_h = rng3.normal(size=(2, 2, 3, dh))
        failures += [f"head projection dh={dh} {m}" for m in grad_check(
            lambda lv, _w=weight_h: T.tsum(T.head_project(lv["x"], lv["w"]) * _w),
            {"x": x, "w": w})]
    table = Tensor(rng3.normal(size=(5, 4)), requires_grad=True)
    ids = np.array([[1, 3, 1], [0, 1, 3]])  # repeated ids sum their gradients
    failures += [f"embedding {m}" for m in grad_check(
        lambda lv: T.tsum(lv["table"][ids] * weight), {"table": table})]
    failures += [f"cross entropy {m}" for m in grad_check(
        lambda lv: cross_entropy(lv["x"], ids), {"x": x})]
    # as a training step runs it: the head's output is fresh on every call,
    # so the loss may take its softmax in that buffer
    head = Tensor(rng3.normal(size=(4, 5)), requires_grad=True)
    failures += [f"cross entropy in place {m}" for m in grad_check(
        lambda lv: cross_entropy(T.matmul(lv["x"], lv["head"]), ids, in_place=True),
        {"x": x, "head": head})]
    return failures


def _lightnet_oracle(f):
    """lambda_t = d_{t-1} / d_t from cumulative sums of exp(F_i - M_t), with
    M_t the largest F_{<=t}: one cumsum per position, plain numpy."""
    lam = np.zeros_like(f)
    for t in range(1, f.shape[-2]):
        prefix = f[..., :t + 1, :]
        d = np.cumsum(np.exp(prefix - prefix.max(axis=-2, keepdims=True)), axis=-2)
        lam[..., t, :] = d[..., t - 1, :] / d[..., t, :]
    return lam


# Cases of LightNet's running log-sum-exp: (shape, position of a +800 jump at
# the last leading index, or None).  Several blocks with a ragged tail and a
# batched shape take the blocked route; a jump in the middle of a block sends
# the rest of the call to the sequential fallback.
_LIGHTNET_CASES = [
    ((3 * D.LIGHTNET_BLOCK + 11, 3), None),
    ((2, 3, 2 * D.LIGHTNET_BLOCK + 5, 4), None),
    ((2, 3, 3 * D.LIGHTNET_BLOCK + 11, 4), D.LIGHTNET_BLOCK + D.LIGHTNET_BLOCK // 2),
]


def suite_decay_identities(level="full"):
    failures = []
    rng = np.random.Generator(np.random.Philox(7))
    draws = 10_000 if level == "full" else 1000
    # lightnet: partition of unity and lambda_1 = 0
    f = Tensor(rng.normal(0.0, 3.0, size=(17, 3)))
    lam = np.exp(D.lightnet_decay(f).data)
    if not np.all(lam[0] == 0.0):
        failures.append("lightnet lambda_1 != 0")
    weights = (1.0 - lam) * np.concatenate(
        [np.cumprod(lam[::-1], axis=0)[::-1][1:], np.ones((1, 3))], axis=0)
    if not float(np.max(np.abs(weights.sum(axis=0) - 1.0))) <= 1e-12:
        failures.append("lightnet partition of unity violated")
    # lightnet: both routes against the cumulative-sum oracle
    rng_l = np.random.Generator(np.random.Philox([7, 1]))
    for shape, jump in _LIGHTNET_CASES:
        f = rng_l.normal(0.0, 3.0, size=shape)
        if jump is not None:
            f.reshape((-1,) + shape[-2:])[-1, jump, 1] += 800.0
        diff = float(np.max(np.abs(np.exp(D.lightnet_decay(Tensor(f)).data)
                                   - _lightnet_oracle(f))))
        if not diff <= 1e-12:
            failures.append(f"lightnet shape={shape} jump at {jump}: max abs diff {diff:.3e}")
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
        if not abs(1.0 / (1.0 + np.exp(-delta)) - p) <= 1e-12:
            failures.append(f"simple decay sigmoid(Delta({p})) != {p}")
    # shared key exactness: k = 1 - lambda within an ulp of k, from a log
    # lambda at each end of its range and at U(0, 1) draws of lambda; the
    # reference is taken in extended precision
    x = np.concatenate([[-np.inf, 0.0], np.log(rng.uniform(0.0, 1.0, size=(50,)))])
    k = D.shared_key(Tensor(x)).data
    if not np.all(np.abs(k - -np.expm1(x.astype(np.longdouble))) <= np.spacing(k)):
        failures.append("shared key k = 1 - lambda not exact")
    # ranges and hgrn2 floor
    fs = Tensor(rng.normal(0.0, 3.0, size=(draws,)))
    for strategy in D.POINTWISE:
        lam_s = np.exp(D.STRATEGIES[strategy].decay(fs, a=0.2, delta=0.3, tau=16.0,
                                                    lower_bound=0.25).data)
        if not (np.all(lam_s > 0.0) and np.all(lam_s < 1.0)):
            failures.append(f"{strategy} decay leaves (0, 1)")
    lam_h = np.exp(D.STRATEGIES["hgrn2"].decay(fs, lower_bound=0.25).data)
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
