"""State-update kernels for decayed linear attention.

The sequential scan is the canonical semantics; extended with a delta-rule
rank-one correction, it is also the DPLR kernel.  Diagonal decay, of width
1 or dk, trains and runs through the factorized chunk kernel
``forward_chunked``, which falls back to the scan where its divisions by
running products of lam would lose precision.  At (8, 4, 128, 16) on one
BLAS thread its forward and backward took 4.8 ms at width 1, against 5.3 ms
for the pair-decay kernel it replaced, and 5.8 ms at width dk, against
13 ms for the scan.  The quadratic closed-form expansion ``forward_oracle``
and the dense DPLR recurrence ``dplr_dense_oracle`` are references only.

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
# Positions per span of ``forward_chunked`` without a tape.
SPAN = 256
# The least lam past a chunk's first position that ``forward_chunked`` divides
# by; below it the call runs the scan.
FLOOR = 1e-4


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


def _decays(lc):
    """a, the first lam of each chunk (..., N, 1, w), and gamma (..., N, c, w),
    the running product of lam from each chunk's second position (gamma = 1
    at the first), of chunked lam; or None where the factorized form must not
    divide by them: some lam past a chunk's first position lies below
    ``FLOOR``, or some gamma below FLOOR ** (CHUNK - 1), the least gamma of
    a default chunk."""
    gamma = lc.copy()
    gamma[..., 0, :] = 1.0
    if not np.all(gamma >= FLOOR):
        return None
    np.cumprod(gamma, axis=-2, out=gamma)
    if not np.all(gamma >= FLOOR ** (CHUNK - 1)):
        return None
    return lc[..., :1, :], gamma


def _carry(y, decay, reverse=False):
    """y_{m+1} += decay_m y_m in place over chunk-major y (M, ..., dk, dv),
    or y_m += decay_m y_{m+1} from the end with ``reverse``; decay_m is
    chunk m's transition, (..., N, 1, w).  Returns y."""
    decay = np.swapaxes(np.moveaxis(decay, -3, 0), -1, -2)
    tmp = np.empty(y.shape[1:])
    for m in (range(len(y) - 2, -1, -1) if reverse else range(len(y) - 1)):
        np.multiply(decay[m], y[m + 1 if reverse else m], out=tmp)
        y[m if reverse else m + 1] += tmp
    return y


def _span(qc, kc, vc, a, gamma, state):
    """The factorized form over chunks (..., N, c, d) that follow the state
    ``state`` (..., dk, dv).  Returns the outputs (..., N, c, dv), the states
    entering each chunk and leaving the last, chunk-major (N + 1, ..., dk, dv),
    and Q . gamma, K / gamma and tril((Q . gamma)(K / gamma)^T)."""
    qg, kg = qc * gamma, kc / gamma
    last = gamma[..., -1:, :]
    S = np.empty((qc.shape[-3] + 1,) + state.shape)
    S[0] = state
    U = np.moveaxis(S[1:], 0, -3)
    np.matmul(np.swapaxes(kg, -1, -2), vc, out=U)
    U *= np.swapaxes(last, -1, -2)
    _carry(S, a * last)
    o = np.matmul(qg * a, np.moveaxis(S[:-1], 0, -3))
    P = np.matmul(qg, np.swapaxes(kg, -1, -2))
    P *= np.tri(qc.shape[-2])
    o += np.matmul(P, vc)
    return o, S, qg, kg, P


def forward_chunked(q, k, v, lam, chunk=CHUNK):
    """Chunkwise-parallel evaluation of the recurrence of ``forward_sequential``,
    for lam of width 1 or dk.  Returns ``o``, differentiable in q, k, v and lam.

    The factorized form of GLA (Yang et al. 2023, arXiv 2312.06635, section 4):
    with a the first lam of a chunk and gamma the running product of lam from
    its second position, Q~ = Q . gamma and K~ = K / gamma, a chunk's outputs
    are tril(Q~ K~^T) V + (a Q~) S and the state after it is
    a gamma_last S + (K~ gamma_last)^T V.  Because gamma starts at the second
    position, a zero first lam needs no division.  The backward is the
    transposed GEMMs plus d log lam, the reverse in-chunk cumsum of
    Q~ . dQ~ - K~ . dK~ with the gamma_last and state terms on the chunk's last
    row; dlam = d log lam / lam, but for a, whose gradient is taken directly.
    Without a tape the forward runs in spans of about ``SPAN`` positions and
    carries the state from one to the next.  Where ``_decays`` refuses the
    division, the call runs the scan.
    """
    q, k, v, lam = as_tensor(q), as_tensor(k), as_tensor(v), as_tensor(lam)
    if chunk < 1:
        raise ValueError(f"chunk must be >= 1, got {chunk}")
    _check_shapes(q.data, k.data, v.data, lam.data)
    parents = (q, k, v, lam)
    n = q.shape[-2]
    state = np.zeros(q.shape[:-2] + (q.shape[-1], v.shape[-1]))
    if not T.recording(*parents):
        # the output is laid out time-major in memory, so that the model's
        # (..., n, heads * dv) reshape of it is a view
        span = max(SPAN // chunk, 1) * chunk
        out = np.empty((n,) + v.shape[:-2] + v.shape[-1:])
        for t0 in range(0, n, span):
            part = (..., slice(t0, t0 + span), slice(None))
            decays = _decays(_chunks(lam.data[part], chunk, 1.0))
            if decays is None:
                return _recurrence(q, k, v, lam)
            o, S = _span(*(_chunks(x.data[part], chunk, 0.0) for x in (q, k, v)),
                         *decays, state)[:2]
            out[t0:t0 + span] = np.moveaxis(_unchunk(o, min(span, n - t0)), -2, 0)
            state = S[-1].copy()
            del o, S  # so that the next span's arrays replace them, not join them
        return Tensor(np.moveaxis(out, 0, -2))
    lc = _chunks(lam.data, chunk, 1.0)
    decays = _decays(lc)
    if decays is None:
        return _recurrence(q, k, v, lam)
    a, gamma = decays
    qc, kc, vc = (_chunks(p.data, chunk, 0.0) for p in (q, k, v))
    o, S, qg, kg, P = _span(qc, kc, vc, a, gamma, state)
    S = np.moveaxis(S, 0, -3)
    last = gamma[..., -1:, :]

    def bw(g):
        gc = _chunks(g, chunk, 0.0)
        dP = np.matmul(gc, np.swapaxes(vc, -1, -2))
        dP *= np.tri(chunk)
        # H_m = dL/dS_m, from chunk m's outputs and from S_{m+1}; the state
        # after chunk m is U_m plus its transition of S_m, so dL/dU_m = H_{m+1}
        H = np.moveaxis(np.matmul(np.swapaxes(qg * a, -1, -2), gc), -3, 0)
        dU = np.zeros_like(S[..., 1:, :, :])
        dU[..., :-1, :, :] = np.moveaxis(_carry(H, a * last, reverse=True)[1:], 0, -3)
        gS = np.matmul(gc, np.swapaxes(S[..., :-1, :, :], -1, -2))
        dkl = np.matmul(vc, np.swapaxes(dU, -1, -2))        # dL/d(K~ gamma_last)
        dqg = np.matmul(dP, kg) + a * gS
        dkg = np.matmul(np.swapaxes(dP, -1, -2), qg) + last * dkl
        dv = np.matmul(np.swapaxes(P, -1, -2), gc) + np.matmul(kg * last, dU)
        for p, grad in zip(parents, (dqg * gamma, dkg / gamma, dv)):
            T._accum(p, _unchunk(grad, n))
        if not lam.requires_grad:
            return
        # the products in d log lam; at width 1 they are summed over d at once,
        # so that the cumsum and the last-row terms run one column wide
        d = "d" if lam.shape[-1] > 1 else ""
        dlog = (np.einsum(f"...cd,...cd->...c{d}", qg, dqg)
                - np.einsum(f"...cd,...cd->...c{d}", kg, dkg)).reshape(lc.shape)
        # the transition a gamma_last of S_m into S_{m+1}, per row of the state
        dtrans = np.einsum(f"...de,...de->...{d}", dU, S[..., :-1, :, :]).reshape(a.shape)
        dlog[..., -1:, :] += last * (
            np.einsum(f"...cd,...cd->...{d}", kg, dkl).reshape(a.shape) + a * dtrans)
        da = np.einsum(f"...cd,...cd->...{d}", qg, gS).reshape(a.shape) + last * dtrans
        dlam = np.cumsum(dlog[..., :0:-1, :], axis=-2)[..., ::-1, :]
        dlam /= lc[..., 1:, :]
        T._accum(lam, _unchunk(np.concatenate([da, dlam], axis=-2), n))

    return T._record(Tensor(_unchunk(o, n)), parents, bw)


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
