"""State-update kernels for decayed linear attention.

The sequential scan is the canonical semantics.  It trains vector decay
and, extended with a delta-rule rank-one correction, the DPLR transition;
both share one scan.  Scalar decay (one value per head and position)
trains through the chunkwise kernel ``forward_chunked``: each chunk of
``CHUNK`` positions is a few batched GEMMs, ((Q K^T) . D) V plus the
carried state, and only that state loops, once per chunk.  At
(8, 4, 128, 16) on one BLAS thread its forward and backward took about
5 ms against about 14.5 ms for the scan.  Vector decay needs a
(c x c x dk) pair mask instead, and trained chunkwise it was slower than
the scan (87 to 338 ms against about 23 ms at that shape).  Without a
tape, though, only the forward runs, and at long n the scan's cost is its
two small calls per position: there vector decay runs through
``forward_chunked`` too, forward only, in spans of ``SPAN`` positions
that carry the state from one to the next.  The quadratic closed-form
expansion ``forward_oracle`` and the dense DPLR recurrence
``dplr_dense_oracle`` are references only.

All kernels take plain tensors (arrays or Tensors) and return only the
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
# Positions per chunk of ``forward_chunked``.  At (8, 4, 128, 16) on one BLAS
# thread, 16 was faster than 8, 32 and 64.
CHUNK = 16
# Positions per chunk and per span of ``forward_chunked`` with vector decay,
# which keeps a (c x c x dk) pair decay per chunk alive for one span at a time.
VECTOR_CHUNK = 8
SPAN = 128


def _check_shapes(q, k, v, lam, kappa=None, beta=None):
    if q.shape != k.shape:
        raise ShapeError(f"q/k shapes differ: {q.shape} vs {k.shape}")
    if q.shape[:-1] != v.shape[:-1]:
        raise ShapeError(f"q/v leading shapes differ: {q.shape} vs {v.shape}")
    if lam.shape[:-1] != q.shape[:-1] or lam.shape[-1] not in (1, q.shape[-1]):
        raise ShapeError(f"lam shape {lam.shape} incompatible with q shape {q.shape}")
    if kappa is not None and kappa.shape != q.shape:
        raise ShapeError(f"kappa shape {kappa.shape} differs from q shape {q.shape}")
    if beta is not None and beta.shape != q.shape[:-1] + (1,):
        raise ShapeError(f"beta shape {beta.shape} incompatible with q shape {q.shape}")
    named = (("q", q), ("k", k), ("v", v), ("lam", lam), ("kappa", kappa), ("beta", beta))
    for name, arr in named:
        if arr is not None and not np.all(np.isfinite(arr)):
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
    keep = T.recording(*parents)
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


def _chunks(x, c, fill):
    """(..., n, d) -> (..., N, c, d), the tail padded with ``fill``."""
    pad = -x.shape[-2] % c
    if pad:
        x = np.concatenate([x, np.full(x.shape[:-2] + (pad, x.shape[-1]), fill)], axis=-2)
    return x.reshape(x.shape[:-2] + (-1, c, x.shape[-1]))


def _unchunk(x, n):
    """(..., N, c, d) -> (..., n, d), dropping the padded tail."""
    return x.reshape(x.shape[:-3] + (-1, x.shape[-1]))[..., :n, :]


def _pair_decay(lam):
    """D[..., t, j, :] = prod_{i=j+1}^t lam_i for j <= t and 0 above the
    diagonal, for every chunk of lam (..., N, c, w) at once: (..., N, c, c, w).

    A running product down the rows, D[t, :t] = lam_t D[t-1, :t], with no
    division, so a zero decay stays exact."""
    c = lam.shape[-2]
    D = np.zeros(lam.shape[:-1] + (c,) + lam.shape[-1:])
    diag = np.arange(c)
    D[..., diag, diag, :] = 1.0
    for t in range(1, c):
        np.multiply(lam[..., t, None, :], D[..., t - 1, :t, :], out=D[..., t, :t, :])
    return D


def _chunk_scan(x, decay, reverse=False):
    """y_m = x_m + decay_m y_{m-1} over the chunks m of x (..., N, dk, dv),
    or y_m = x_m + decay_m y_{m+1} with ``reverse``; decay is (..., N, w).

    The loop runs chunk-major, on one contiguous (..., dk, dv) block per step.
    """
    y = np.moveaxis(x, -3, 0).copy()
    decay = np.moveaxis(decay, -2, 0)[..., None]
    tmp = np.empty(y.shape[1:])
    for m in (range(len(y) - 2, -1, -1) if reverse else range(1, len(y))):
        np.multiply(decay[m], y[m + 1 if reverse else m - 1], out=tmp)
        y[m] += tmp
    return np.moveaxis(y, 0, -3)


def _vector_span(q, k, v, lam, state, buf, out):
    """One span of ``forward_chunked`` with vector decay: q, k, v, lam are
    (..., L, d) and ``state`` is the (..., dk, dv) state before the span.
    Writes the outputs to ``out``, time-major (N c, ..., dv) with N c >= L,
    and returns the state after the span.

    ``buf`` is a (c, c + 1, N, ..., dk) array, reused from span to span and
    zero above the diagonal, that receives the pair decays of the span's N
    chunks of c positions, row-major: row t of every chunk is one contiguous
    block.  Column 0 of row t is gamma_t = prod_{i<=t} lam_i and column j + 1
    is D[t, j] k_j, with D the running product of ``_pair_decay``.  Then
    P[t, j] = sum_d q_t[d] D[t, j, d] k_j[d] is one batched matvec.
    """
    c = buf.shape[0]
    # (..., N, c, d) -> (c, N, ..., d)
    qc, kc, vc = (np.moveaxis(_chunks(x, c, 0.0), (-2, -3), (0, 1)) for x in (q, k, v))
    lc = np.ascontiguousarray(np.moveaxis(_chunks(lam, c, 1.0), (-2, -3), (0, 1)))
    N = lc.shape[1]
    D = buf[:, :, :N]
    cols = np.arange(c)
    D[0, 0] = lc[0]
    D[cols, cols + 1] = kc
    for t in range(1, c):
        np.multiply(lc[t], D[t - 1, :t + 1], out=D[t, :t + 1])
    gamma, keys = D[:, 0], D[:, 1:]
    vm = np.moveaxis(vc, 0, -2)                                   # (N, ..., c, dv)
    # the state entering each chunk: S_{m+1} = gamma_last S_m + U_m with
    # U_m = sum_j D[last, j] k_j v_j^T
    S = np.empty((N + 1,) + state.shape)
    S[0] = state
    np.matmul(np.moveaxis(keys[-1], 0, -1), vm, out=S[1:])
    decay = gamma[-1, ..., None]
    tmp = np.empty(state.shape)
    for m in range(N):
        np.multiply(decay[m], S[m], out=tmp)
        S[m + 1] += tmp
    P = np.matmul(np.moveaxis(keys, 1, -2), qc[..., None])[..., 0]   # (c, N, ..., c)
    o = np.moveaxis(out.reshape((N, c) + out.shape[1:]), 1, -2)    # (N, ..., c, dv)
    np.matmul(np.moveaxis(P, 0, -2), vm, out=o)
    gamma *= qc
    o += np.matmul(np.moveaxis(gamma, 0, -2), S[:N])
    return S[N]


def _vector_chunked(q, k, v, lam, chunk):
    """Vector-decay forward of ``forward_chunked`` on arrays, span by span.

    Spans hold a whole number of chunks, about ``SPAN`` positions; the state
    is carried from one span to the next.  The output is laid out time-major
    in memory, so that the model's (..., n, heads * dv) reshape of it is a
    view.
    """
    n = q.shape[-2]
    span = max(SPAN // chunk, 1) * chunk
    out = np.empty((-(-n // chunk) * chunk,) + v.shape[:-2] + v.shape[-1:])
    buf = np.zeros((chunk, chunk + 1, -(-min(span, n) // chunk)) + q.shape[:-2] + q.shape[-1:])
    state = np.zeros(q.shape[:-2] + (q.shape[-1], v.shape[-1]))
    for t0 in range(0, n, span):
        part = (..., slice(t0, t0 + span), slice(None))
        state = _vector_span(q[part], k[part], v[part], lam[part], state, buf,
                             out[t0:t0 + span])
    return np.moveaxis(out[:n], 0, -2)


def forward_chunked(q, k, v, lam, chunk=None):
    """Chunkwise-parallel evaluation of the recurrence of ``forward_sequential``.

    Within a chunk o = ((Q K^T) . D) V + (Q . gamma) S, with S the state
    entering the chunk and gamma_t = prod_{i=0}^t lam_i over the chunk.
    With scalar decay (lam (..., n, 1)) this is the training kernel, and it
    is differentiable in q, k, v and lam: the backward is the transposed
    GEMMs plus a division-free decay gradient.  With vector decay
    (lam (..., n, dk)) it is the forward kernel when no tape records: it
    runs in spans of about ``SPAN`` positions, so that its allocation peak
    stays below the scan's, and it raises under a recording tape.  ``chunk``
    defaults to ``CHUNK`` for scalar and ``VECTOR_CHUNK`` for vector decay.
    Returns ``o``.
    """
    q, k, v, lam = as_tensor(q), as_tensor(k), as_tensor(v), as_tensor(lam)
    vector = lam.shape[-1] != 1
    if chunk is None:
        chunk = VECTOR_CHUNK if vector else CHUNK
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    _check_shapes(q.data, k.data, v.data, lam.data)
    parents = (q, k, v, lam)
    record = T.recording(*parents)
    if vector:
        if record:
            raise ValueError("forward_chunked has no backward for vector decay; "
                             "use forward_sequential")
        return Tensor(_vector_chunked(q.data, k.data, v.data, lam.data, chunk))
    n = q.shape[-2]
    qc, kc, vc = (_chunks(p.data, chunk, 0.0) for p in (q, k, v))
    lc = _chunks(lam.data, chunk, 1.0)
    D = _pair_decay(lc)
    gamma = lc[..., :1, :] * D[..., :, 0, :]
    # state entering each chunk: the state after chunk m is gamma_last times
    # the state before it plus U_m = sum_j D[last, j] k_j v_j^T
    U = np.matmul(np.swapaxes(D[..., -1, :, :] * kc, -1, -2), vc)
    S = np.zeros_like(U)
    S[..., 1:, :, :] = _chunk_scan(U, gamma[..., -1, :])[..., :-1, :, :]
    D = D[..., 0]
    A = np.matmul(qc, np.swapaxes(kc, -1, -2))
    P = A * D
    QS = np.matmul(qc, S)
    o = np.matmul(P, vc)
    o += gamma * QS
    out = Tensor(_unchunk(o, n))
    if not record:
        return out

    def bw(g):
        gc = _chunks(g, chunk, 0.0)
        dP = np.matmul(gc, np.swapaxes(vc, -1, -2))     # dL/d((Q K^T) . D)
        dA = dP * D
        # H_m = dL/dS_m, from chunk m's outputs and from S_{m+1}
        H = _chunk_scan(np.matmul(np.swapaxes(qc * gamma, -1, -2), gc), gamma[..., -1, :],
                        reverse=True)
        dU = np.zeros_like(H)
        dU[..., :-1, :, :] = H[..., 1:, :, :]
        last = D[..., -1, :, None]
        VH = np.matmul(vc, np.swapaxes(dU, -1, -2))
        dq = np.matmul(dA, kc) + gamma * np.matmul(gc, np.swapaxes(S, -1, -2))
        dk = np.matmul(np.swapaxes(dA, -1, -2), qc) + last * VH
        dv = np.matmul(np.swapaxes(P, -1, -2), gc) + np.matmul(last * kc, dU)
        for p, grad in zip(parents, (dq, dk, dv)):
            T._accum(p, _unchunk(grad, n))
        if not lam.requires_grad:
            return
        # Every path from lam to the loss runs through D: gamma_t = lam_0 D[t, 0]
        # and U reads row D[last].  As D[t, j] = D[t, i] D[i-1, j] for
        # j < i <= t, dlam_i = sum_t D[t, i] (dD D_shift^T)[t, i] with
        # D_shift[i, j] = D[i-1, j]; lam_0 also scales gamma directly.
        dgam = np.einsum("...te,...te->...t", QS, gc)
        dgam[..., :-1, -1] += np.einsum("...de,...de->...", H[..., 1:, :, :], S[..., :-1, :, :])
        dD = dP * A
        dD[..., -1, :] += np.einsum("...jd,...jd->...j", kc, VH)
        dD[..., :, 0] += lc[..., 0, :] * dgam
        dlam = np.zeros(D.shape[:-1])
        np.einsum("...ti,...ti->...i", D[..., :, 1:],
                  np.matmul(dD, np.swapaxes(D[..., :-1, :], -1, -2)), out=dlam[..., 1:])
        dlam[..., 0] = np.einsum("...t,...t->...", dgam, D[..., :, 0])
        T._accum(lam, _unchunk(dlam[..., None], n))

    return T._record(out, parents, bw)


def forward_dplr(q, k, v, lam, kappa, beta):
    """Scan with transition M_t = diag(lam_t) - beta_t kappa_t kappa_t^T.

    With beta = 0 this is exactly the diagonal recurrence; with lam = 1,
    beta = 1 and unit kappa it is the classical delta-rule overwrite.
    Differentiable in all inputs including kappa and beta.
    """
    q, k, v, lam = as_tensor(q), as_tensor(k), as_tensor(v), as_tensor(lam)
    kappa, beta = as_tensor(kappa), as_tensor(beta)
    _check_shapes(q.data, k.data, v.data, lam.data, kappa.data, beta.data)
    return _recurrence(q, k, v, lam, kappa, beta)


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
