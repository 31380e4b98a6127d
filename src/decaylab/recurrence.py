"""State-update kernels for decayed linear attention.

The sequential scan is the canonical semantics and the training kernel.
The quadratic-cost closed-form expansion (``forward_oracle``) and the
chunkwise-parallel form (``forward_chunked``) are verify references only.
A chunkwise form does not speed up training in numpy: at (8, 4, 128, 16)
with vector decay on one core, a chunkwise forward and backward took 87,
153 and 338 ms at chunk 16, 32 and 64, against 45 ms for a batch-major
scan and about 23 ms for the time-major scan below.  The DPLR kernel
extends the diagonal transition with a delta-rule rank-one correction;
both kernels share one scan.

Both kernels take plain tensors (arrays or Tensors) and return only the
outputs ``o``.  Shapes: ``q``/``k`` are (..., n, dk), ``v`` is (..., n, dv),
``lam`` is (..., n, dk) or (..., n, 1) (scalar decay broadcasts across
dimensions); the DPLR ``kappa`` is (..., n, dk) and ``beta`` (..., n, 1),
taken as given: the model L2-normalizes kappa before the call.

The scan runs time-major: inputs are moved to (n, ..., d) so that each
step's state is one contiguous block.  The Python loop holds only the
in-place state update (and its adjoint in backward); outputs and
gradients are batched matmuls over the stored states and adjoints.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor, as_tensor

# Time steps per block of the scan.  Outputs are read from each block of
# states at once; without a recording tape only one block is alive.
_BLOCK = 64


def _check_shapes(q, k, v, lam):
    if q.shape != k.shape:
        raise ShapeError(f"q/k shapes differ: {q.shape} vs {k.shape}")
    if q.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"q/v leading shapes differ: {q.shape} vs {v.shape}")
    if lam.shape[:-1] != q.shape[:-1] or lam.shape[-1] not in (1, q.shape[-1]):
        raise ShapeError(f"lam shape {lam.shape} incompatible with q shape {q.shape}")
    for name, arr in (("q", q), ("k", k), ("v", v), ("lam", lam)):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"non-finite values in {name}")


def _time_major(x):
    """(..., n, d) -> contiguous (n, ..., d)."""
    return np.ascontiguousarray(np.moveaxis(x, -2, 0))


def _scan(q, k, v, lam, kap=None, bk=None, keep=False):
    """Left-to-right scan on time-major arrays (n, ..., d).

    s_t = lam_t * s_{t-1} + k_t v_t^T - bk_t u_t^T with u_t = kap_t^T s_{t-1},
    and o_t = s_t^T q_t.  The rank-one term is present only when ``kap``
    is given (``bk`` is beta * kappa).  Returns (o, states, u): ``states``
    is the full (n, ..., dk, dv) buffer when ``keep`` is set and None
    otherwise; ``u`` is (n, ..., 1, dv), or None without ``kap``.
    """
    n, dk, dv = q.shape[0], q.shape[-1], v.shape[-1]
    batch = q.shape[1:-1]
    o = np.empty((n,) + batch + (1, dv))
    states = np.empty((n if keep else min(n, _BLOCK),) + batch + (dk, dv))
    u = None if kap is None else np.empty((n,) + batch + (1, dv))
    tmp = np.empty(batch + (dk, dv))
    prev = np.zeros(batch + (dk, dv))
    lam = lam[..., None]
    for t0 in range(0, n, _BLOCK):
        t1 = min(t0 + _BLOCK, n)
        s = states[t0:t1] if keep else states[:t1 - t0]
        np.einsum("...d,...e->...de", k[t0:t1], v[t0:t1], out=s)
        for i, t in enumerate(range(t0, t1)):
            np.multiply(lam[t], prev, out=tmp)
            s[i] += tmp
            if kap is not None:
                np.matmul(kap[t, ..., None, :], prev, out=u[t])
                np.multiply(bk[t, ..., :, None], u[t], out=tmp)
                s[i] -= tmp
            prev = s[i]
        np.matmul(q[t0:t1, ..., None, :], s, out=o[t0:t1])
        prev = prev.copy()  # the next block may overwrite the buffer
    return o[..., 0, :], (states if keep else None), u


def _adjoint(g, q, lam, kap=None, bk=None):
    """Right-to-left adjoint scan of ``_scan`` on time-major arrays.

    G_t = dL/ds_t = q_t g_t^T + M_{t+1}^T G_{t+1}, where M_t is the
    transition diag(lam_t) - bk_t kap_t^T.  Returns (G, w) with
    w_t = kap_t^T G_t for t >= 1 (w_0 is left unset), or w None without ``kap``.
    """
    n = q.shape[0]
    G = np.einsum("...d,...e->...de", q, g)
    w = None if kap is None else np.empty(g.shape[:-1] + (1, g.shape[-1]))
    tmp = np.empty(G.shape[1:])
    lam = lam[..., None]
    for t in range(n - 1, 0, -1):
        np.multiply(lam[t], G[t], out=tmp)
        G[t - 1] += tmp
        if kap is not None:
            np.matmul(kap[t, ..., None, :], G[t], out=w[t])
            np.multiply(bk[t, ..., :, None], w[t], out=tmp)
            G[t - 1] -= tmp
    return G, w


def _time_major_inputs(parents):
    """Time-major q, k, v, lam, kappa, beta and bk = beta * kappa
    (the last three None for the diagonal transition)."""
    arrays = [_time_major(p.data) for p in parents]
    if len(arrays) == 4:
        return arrays + [None, None, None]
    return arrays + [arrays[5] * arrays[4]]


def _recurrence(q, k, v, lam, kappa=None, beta=None):
    """Run the scan on Tensors and record its backward; returns o.

    The full state buffer is kept only while a tape records the call; the
    backward rebuilds the time-major inputs rather than holding copies.
    """
    parents = (q, k, v, lam) if kappa is None else (q, k, v, lam, kappa, beta)
    keep = T.active_tape() is not None and any(p.requires_grad for p in parents)
    qt, kt, vt, lt, kap, _, bk = _time_major_inputs(parents)
    o, states, u = _scan(qt, kt, vt, lt, kap, bk, keep)
    out = Tensor(np.ascontiguousarray(np.moveaxis(o, 0, -2)))
    if not keep:
        return out

    def bw(g):
        qt, kt, vt, lt, kap, bet, bk = _time_major_inputs(parents)
        gt = _time_major(g)
        G, w = _adjoint(gt, qt, lt, kap, bk)
        grads = [
            np.matmul(states, gt[..., :, None])[..., 0],   # dq_t = s_t g_t
            np.matmul(G, vt[..., :, None])[..., 0],        # dk_t = G_t v_t
            np.matmul(kt[..., None, :], G)[..., 0, :],     # dv_t = G_t^T k_t
        ]
        # dlam_t = <G_t, s_{t-1}> row by row; s_{-1} = 0
        dlam = np.zeros(G.shape[:-1])
        np.einsum("...de,...de->...d", G[1:], states[:-1], out=dlam[1:])
        if lt.shape[-1] == 1:
            dlam = dlam.sum(axis=-1, keepdims=True)
        grads.append(dlam)
        if kap is not None:
            dkap = np.zeros_like(kap)
            dbet = np.zeros_like(bet)
            # u_0 = kappa_0^T s_{-1} = 0, so both vanish at t = 0
            dbet[1:] = -(w[1:] * u[1:]).sum(axis=-1)
            dkap[1:] = -bet[1:] * (np.matmul(G[1:], np.swapaxes(u[1:], -1, -2))
                                   + np.matmul(states[:-1], np.swapaxes(w[1:], -1, -2)))[..., 0]
            grads += [dkap, dbet]
        for p, grad in zip(parents, grads):
            T._accum(p, np.moveaxis(grad, 0, -2))

    return T._record(out, parents, bw)


def forward_sequential(q, k, v, lam):
    """Recurrence s_t = diag(lam_t) s_{t-1} + k_t v_t^T, o_t = s_t^T q_t.

    Returns ``o``, differentiable in q, k, v and lam.
    """
    q, k, v, lam = as_tensor(q), as_tensor(k), as_tensor(v), as_tensor(lam)
    _check_shapes(q.data, k.data, v.data, lam.data)
    return _recurrence(q, k, v, lam)


def forward_oracle(q, k, v, lam):
    """Closed-form double sum o_t = sum_{j<=t} (q_t . prod_{i=j+1}^t lam_i . k_j) v_j.

    Quadratic cost; per-pair decay products are built by telescoping
    rather than via reciprocals of cumulative products, so zero decay
    values are handled exactly.  Test oracle only, plain numpy.
    """
    q, k, v, lam = (x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
                    for x in (q, k, v, lam))
    _check_shapes(q, k, v, lam)
    n, dk = q.shape[-2], q.shape[-1]
    dv = v.shape[-1]
    batch = np.broadcast_shapes(q.shape[:-2], v.shape[:-2])
    lam = np.broadcast_to(lam, batch + (n, lam.shape[-1]))
    q = np.broadcast_to(q, batch + (n, dk))
    k = np.broadcast_to(k, batch + (n, dk))
    v = np.broadcast_to(v, batch + (n, dv))
    o = np.zeros(batch + (n, dv))
    # w[..., j, :] holds prod_{i=j+1}^t lam_i for the current t
    w = np.zeros(batch + (n, lam.shape[-1]))
    for t in range(n):
        w[..., :t, :] *= lam[..., t, None, :]
        w[..., t, :] = 1.0
        coef = (q[..., t, None, :] * w[..., : t + 1, :] * k[..., : t + 1, :]).sum(axis=-1)
        o[..., t, :] = (coef[..., None] * v[..., : t + 1, :]).sum(axis=-2)
    return o


def forward_chunked(q, k, v, lam, chunk):
    """Chunkwise-parallel evaluation, equivalent to the sequential scan.

    Inter-chunk state is carried through cumulative decay products;
    intra-chunk terms use a masked quadratic form with telescoped
    pair products (no divisions).  Plain numpy, forward only.
    """
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    q, k, v, lam = (x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
                    for x in (q, k, v, lam))
    _check_shapes(q, k, v, lam)
    n, dk = q.shape[-2], q.shape[-1]
    dv = v.shape[-1]
    batch = np.broadcast_shapes(q.shape[:-2], v.shape[:-2])
    lam = np.broadcast_to(lam, batch + (n, lam.shape[-1]))
    if lam.shape[-1] == 1:
        lam = np.broadcast_to(lam, batch + (n, dk))
    q = np.broadcast_to(q, batch + (n, dk))
    k = np.broadcast_to(k, batch + (n, dk))
    v = np.broadcast_to(v, batch + (n, dv))
    o = np.zeros(batch + (n, dv))
    s = np.zeros(batch + (dk, dv))
    for start in range(0, n, chunk):
        end = min(start + chunk, n)
        c = end - start
        ql, kl, vl, ll = (a[..., start:end, :] for a in (q, k, v, lam))
        # pair products D[t, j] = prod_{i=j+1}^t lam_i (local indices, j <= t)
        D = np.zeros(batch + (c, c, dk))
        for t in range(c):
            if t > 0:
                D[..., t, :t, :] = ll[..., t, None, :] * D[..., t - 1, :t, :]
            D[..., t, t, :] = 1.0
        # carried state: gamma_t = prod_{i=start}^t lam_i = lam_start * D[t, 0]
        gamma = ll[..., 0, None, :] * D[..., :, 0, :]
        o[..., start:end, :] = np.einsum("...td,...de->...te", ql * gamma, s)
        scores = np.einsum("...td,...tjd,...jd->...tj", ql, D, kl)
        mask = np.tril(np.ones((c, c)))
        o[..., start:end, :] += np.einsum("...tj,...je->...te", scores * mask, vl)
        s = gamma[..., -1, :, None] * s + np.einsum(
            "...jd,...je->...de", D[..., -1, :, :] * kl, vl)
    return o


def forward_dplr(q, k, v, lam, kappa, beta):
    """Scan with transition M_t = diag(lam_t) - beta_t kappa_t kappa_t^T.

    With beta = 0 this is exactly the diagonal recurrence; with lam = 1,
    beta = 1 and unit kappa it is the classical delta-rule overwrite.
    Differentiable in all inputs including kappa and beta.
    """
    q, k, v, lam = as_tensor(q), as_tensor(k), as_tensor(v), as_tensor(lam)
    _check_shapes(q.data, k.data, v.data, lam.data)
    return _recurrence(q, k, v, lam, as_tensor(kappa), as_tensor(beta))


def dplr_dense_oracle(q, k, v, lam, kappa, beta):
    """Materialize M_t and run the dense recurrence. Test oracle only."""
    q, k, v, lam, kappa, beta = (x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
                                 for x in (q, k, v, lam, kappa, beta))
    n, dk = q.shape[-2], q.shape[-1]
    dv = v.shape[-1]
    o = np.zeros(q.shape[:-1] + (dv,))
    s = np.zeros(q.shape[:-2] + (dk, dv))
    eye = np.eye(dk)
    for t in range(n):
        lt = np.broadcast_to(lam[..., t, :], q.shape[:-2] + (dk,))
        M = lt[..., :, None] * eye - beta[..., t, :, None] * (
            kappa[..., t, :, None] * kappa[..., t, None, :])
        s = np.matmul(M, s) + k[..., t, :, None] * v[..., t, None, :]
        o[..., t, :] = (q[..., t, :, None] * s).sum(axis=-2)
    return o
