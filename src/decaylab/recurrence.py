"""State-update kernels for decayed linear attention.

The sequential scan is the canonical semantics; extended with a delta-rule
rank-one correction, it is also the semantics of DPLR.  Diagonal decay, of
width 1 or dk, trains and runs through the factorized chunk kernel
``forward_chunked``, and the DPLR transition through the chunkwise UT form
``forward_dplr``.  Each is only its chunk algebra, one span at a time; the
driver ``_chunkwise`` serves both.  It cuts the sequence into chunks of
``CHUNK`` positions, the one chunk size, runs spans of ``ROWS`` rows (a
row is one leading index at one position), with or without a tape,
carrying the state forward between them and its gradient back, and falls
back to the scan where the divisions by running products of lam would lose
precision.  At
(8, 4, 128, 16) on one BLAS thread the forward and
backward of ``forward_chunked`` took 4.8 ms at width 1, against 5.3 ms
for the pair-decay kernel it replaced, and 5.8 ms at width dk, against
13 ms for the scan; inside a training step the two DPLR layers took
38 ms against 59 ms for the scan.  The quadratic closed-form expansion
``forward_oracle`` and the dense DPLR recurrence ``dplr_dense_oracle`` are
references only.

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

import math
from functools import cache

import numpy as np

from . import tensor as T
from .tensor import ShapeError, Tensor, as_tensor

# Time steps per block of the scan.  Outputs are read from each block of
# states at once; without a recording tape only one block is alive.
_BLOCK = 64
# Positions per chunk of the chunk kernels.  At (8, 4, 128, 16) on one BLAS
# thread, 16 was faster than 8, 32 and 64 for ``forward_chunked``.
CHUNK = 16
# Rows, one per leading index and position, that a span of the chunk kernels
# covers: ``_span`` positions, 256 at the probe's leading axes (1, 4) and 32
# at training's (8, 4).
ROWS = 1024
# The least lam past a chunk's first position that the chunk kernels divide
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
    # one reduction each: a finite sum means every value is finite; a sum
    # that overflows from finite values gets the elementwise check
    with np.errstate(over="ignore", invalid="ignore"):
        for name, arr in named:
            if (arr is not None and not np.isfinite(arr.sum())
                    and not np.all(np.isfinite(arr))):
                raise ValueError(f"non-finite values in {name}")


@cache
def _axes(ndim, source, destination):
    """Transpose axes that move axis ``source`` of an ndim-array to
    ``destination``, as ``np.moveaxis`` orders them."""
    source, destination = source % ndim, destination % ndim
    order = [i for i in range(ndim) if i != source]
    order.insert(destination, source)
    return tuple(order)


def _move(x, source, destination):
    """``np.moveaxis(x, source, destination)``, the same view, through
    cached axes: the kernels move the same few axes on every call."""
    return x.transpose(_axes(x.ndim, source, destination))


def _time_major(x):
    """(..., n, d) -> contiguous (n, ..., d)."""
    return np.ascontiguousarray(_move(x, -2, 0))


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


def _time_major_inputs(arrays):
    """Time-major q, k, v, lam, kappa, beta and bk = beta * kappa
    (the last three None for the diagonal transition)."""
    arrays = [_time_major(x) for x in arrays]
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
    arrays = [p.data for p in parents]
    qt, kt, vt, lt, kap, _, bk = _time_major_inputs(arrays)
    o, states, u = _scan(qt, kt, vt, lt, kap, bk, keep)
    out = Tensor(np.ascontiguousarray(_move(o, 0, -2)))
    if not keep:
        return out
    nodes = [T._node(p) for p in parents]

    def bw(g):
        qt, kt, vt, lt, kap, bet, bk = _time_major_inputs(arrays)
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
        for node, grad in zip(nodes, grads):
            T._accum(node, _move(grad, 0, -2))

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
    o = np.zeros(v.shape)
    # w[..., j, :] holds prod_{i=j+1}^t lam_i for the current t
    w = np.zeros(lam.shape)
    for t in range(q.shape[-2]):
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


def _divides(lam):
    """Whether the chunk kernels may divide by lam's running products: every
    lam past a chunk's first position is at least ``FLOOR``, which bounds
    gamma below by FLOOR ** (CHUNK - 1).  Reductions over lam and, if its
    least value fails, over each offset past a chunk's first position, so
    no array of lam's size is made; a NaN fails."""
    return (lam.min(initial=np.inf) >= FLOOR
            or all(lam[..., j::CHUNK, :].min(initial=np.inf) >= FLOOR for j in range(1, CHUNK)))


def _decays(lc):
    """a, the first lam of each chunk (..., N, 1, w), and gamma (..., N, c, w),
    the running product of lam from each chunk's second position (gamma = 1
    at the first), of chunked lam."""
    gamma = lc.copy()
    gamma[..., 0, :] = 1.0
    np.cumprod(gamma, axis=-2, out=gamma)
    return lc[..., :1, :], gamma


def _mT(x):
    """x with its last two axes swapped."""
    return np.swapaxes(x, -1, -2)


def _carry(y, trans, reverse=False):
    """y_{m+1} += T_m y_m in place over chunk-major y (M, ..., dk, dv), or
    y_m += T_m^T y_{m+1} from the end with ``reverse``; T_m is chunk m's
    transition, a diagonal (..., N, 1, w) or a matrix (..., N, dk, dk), and
    y may be a list of its entries.  Returns y."""
    trans = _move(trans, -3, 0)
    if trans.shape[-2] == 1:
        op, trans = np.multiply, _mT(trans)  # a diagonal scales the rows of y
    else:
        op, trans = np.matmul, (_mT(trans) if reverse else trans)
    tmp = np.empty(y[0].shape)
    for m in (range(len(y) - 2, -1, -1) if reverse else range(len(y) - 1)):
        op(trans[m], y[m + 1 if reverse else m], out=tmp)
        y[m if reverse else m + 1] += tmp
    return y


def _states(state, R, trans):
    """S_0 = ``state`` and S_{m+1} = T_m S_m + R_m over R (..., N, dk, dv):
    the states entering the N chunks, (..., N, dk, dv) laid out chunk-major,
    and S_N, in a buffer of its own, so that a span's backward holds N states."""
    R = _move(R, -3, 0)
    S = np.empty(R.shape)
    S[0] = state
    S[1:] = R[:-1]
    state = R[-1].copy()
    _carry([*S, state], trans)
    return _move(S, 0, -3), state


def _adjoints(F, trans, dstate):
    """dL/dS_m = F_m + T_m^T dL/dS_{m+1} over chunk m's own parts F
    (..., N, dk, dv), from dL/dS_N = ``dstate`` (zero for None): D_m =
    dL/dS_{m+1}, (..., N, dk, dv) laid out chunk-major, and dL/dS_0."""
    H = np.empty((F.shape[-3] + 1,) + F.shape[:-3] + F.shape[-2:])
    H[:-1] = _move(F, -3, 0)
    H[-1] = 0.0 if dstate is None else dstate
    _carry(H, trans, reverse=True)
    return _move(H[1:], 0, -3), H[0].copy()


def _span(lead):
    """Positions per span of a chunk-kernel call on leading axes ``lead``:
    ``ROWS`` over the rows per position, in whole chunks, at least one."""
    return max(ROWS // max(math.prod(lead), 1) // CHUNK, 1) * CHUNK


def _chunkwise(span, *inputs):
    """Run the chunk kernel ``span`` on q, k, v, lam (and kappa, beta) and
    record its backward; returns o.

    ``span(a, gamma, state, *chunked)`` takes ``_decays`` of a span's lam,
    the state (..., dk, dv) entering the span and the other inputs cut into
    chunks (..., N, c, d).  It returns the outputs (..., N, c, dv), the state
    after its last chunk and its backward.  That maps the chunked output
    gradient, dL/d(state after the span) (None after the last span) and
    whether lam needs a gradient to the chunked input gradients, (da,
    d log gamma) or None, and dL/d(state entering the span).  With or
    without a tape the call runs in spans of ``_span`` positions, each
    carrying its state into the next; the backward runs the spans'
    backwards from the last, each carrying the state gradient into the one
    before, and writes their gradients into full-size buffers.  Without a
    tape only one span's chunk arrays are alive at a time; under one, only
    one span's backward builds its working set at a time.  Where
    ``_divides`` refuses lam, the call runs the scan.
    """
    inputs = tuple(as_tensor(x) for x in inputs)
    _check_shapes(*(x.data for x in inputs))
    q, v, lam = inputs[0], inputs[2], inputs[3]
    n, step = q.shape[-2], _span(q.shape[:-2])
    if not n or not _divides(lam.data):  # an empty sequence has no span
        return _recurrence(*inputs)
    others = inputs[:3] + inputs[4:]
    taped = T.recording(*inputs)
    # the output is laid out time-major in memory, so that the model's
    # (..., n, heads * dv) reshape of it is a view
    out = np.empty((n,) + v.shape[:-2] + v.shape[-1:])
    state = np.zeros(q.shape[:-2] + (q.shape[-1], v.shape[-1]))
    backs = []  # under a tape, per span: its first position, its chunked lam and its backward
    for t0 in range(0, n, step):
        part = (..., slice(t0, t0 + step), slice(None))
        lc = _chunks(lam.data[part], CHUNK, 1.0)
        chunked = [_chunks(x.data[part], CHUNK, 0.0) for x in others]
        o, state, back = span(*_decays(lc), state, *chunked)
        out[t0:t0 + step] = _move(_unchunk(o, min(step, n - t0)), -2, 0)
        if taped:
            backs.append((t0, lc, back))
        del lc, chunked, o, back  # so that the next span's arrays replace these, not join them
    out = Tensor(_move(out, 0, -2))
    if not taped:
        return out
    nodes = [T._node(x) for x in others] + [T._node(lam)]
    with_lam = nodes[-1] is not None

    def bw(g):
        full = dstate = None
        while backs:
            t0, lc, back = backs.pop()
            grads, dlam, dstate = back(_chunks(g[..., t0:t0 + step, :], CHUNK, 0.0),
                                       dstate, with_lam)
            del back
            if with_lam:
                # da at each chunk's first lam and, past it, the reverse
                # in-chunk cumsum of d log gamma over lam
                da, dlog = dlam
                dlog = np.cumsum(dlog[..., :0:-1, :], axis=-2)[..., ::-1, :]
                dlog /= lc[..., 1:, :]
                grads += (np.concatenate([da, dlog], axis=-2),)
                del da, dlog, dlam
            if full is None:  # once the last span's backward has freed what it held
                full = [np.empty(x.shape[:-3] + (-(-n // CHUNK),) + x.shape[-2:]) for x in grads]
            for buf, x in zip(full, grads):
                buf[..., t0 // CHUNK:(t0 + step) // CHUNK, :, :] = x
            del grads, lc
        for node, grad in zip(nodes, full):
            T._accum(node, _unchunk(grad, n))

    return T._record(out, inputs, bw)


def _diagonal_span(a, gamma, state, qc, kc, vc):
    """One span of ``forward_chunked``, for ``_chunkwise``."""
    qg, kg = qc * gamma, kc / gamma
    last = gamma[..., -1:, :]
    S, state = _states(state, np.matmul(_mT(kg), vc) * _mT(last), a * last)
    o = np.matmul(qg * a, S)
    mask = np.tri(qc.shape[-2])
    P = np.matmul(qg, _mT(kg))
    P *= mask
    o += np.matmul(P, vc)

    def bw(gc, dstate, with_lam):
        dP = np.matmul(gc, _mT(vc))
        dP *= mask
        # dL/dS_m, from chunk m's outputs and from S_{m+1}; the state after
        # chunk m is U_m plus its transition of S_m, so dL/dU_m = dL/dS_{m+1}
        dU, dstate = _adjoints(np.matmul(_mT(qg * a), gc), a * last, dstate)
        gS = np.matmul(gc, _mT(S))
        dkl = np.matmul(vc, _mT(dU))                        # dL/d(K~ gamma_last)
        dqg = np.matmul(dP, kg) + a * gS
        dkg = np.matmul(_mT(dP), qg) + last * dkl
        del dP
        # tril(Q~ K~^T), rebuilt as the forward made it
        P = np.matmul(qg, _mT(kg))
        P *= mask
        dv = np.matmul(_mT(P), gc) + np.matmul(kg * last, dU)
        grads = (dqg * gamma, dkg / gamma, dv)
        if not with_lam:
            return grads, None, dstate
        # the products in d log gamma; at width 1 they are summed over d at
        # once, so that the cumsum and the last-row terms run one column wide
        d = "d" if a.shape[-1] > 1 else ""
        dlog = (np.einsum(f"...cd,...cd->...c{d}", qg, dqg)
                - np.einsum(f"...cd,...cd->...c{d}", kg, dkg)).reshape(gamma.shape)
        # the transition a gamma_last of S_m into S_{m+1}, per row of the state
        dtrans = np.einsum(f"...de,...de->...{d}", dU, S).reshape(a.shape)
        dlog[..., -1:, :] += last * (
            np.einsum(f"...cd,...cd->...{d}", kg, dkl).reshape(a.shape) + a * dtrans)
        da = np.einsum(f"...cd,...cd->...{d}", qg, gS).reshape(a.shape) + last * dtrans
        return grads, (da, dlog), dstate

    return o, state, bw


def forward_chunked(q, k, v, lam):
    """Chunkwise-parallel evaluation of the recurrence of ``forward_sequential``,
    for lam of width 1 or dk.  Returns ``o``, differentiable in q, k, v and lam.

    The factorized form of GLA (Yang et al. 2023, arXiv 2312.06635, section 4),
    on chunks of ``CHUNK`` positions: with a the first lam of a chunk and gamma
    the running product of lam from its second position, Q~ = Q . gamma and
    K~ = K / gamma, a chunk's outputs are tril(Q~ K~^T) V + (a Q~) S and the
    state after it is a gamma_last S + (K~ gamma_last)^T V.  Because gamma
    starts at the second position, a zero first lam needs no division.  The
    backward is the transposed GEMMs plus d log lam, the reverse in-chunk
    cumsum of Q~ . dQ~ - K~ . dK~ with the gamma_last and state terms on the
    chunk's last row; dlam = d log lam / lam, but for a, whose gradient is
    taken directly.  ``_chunkwise`` runs it: in spans, and on the scan where
    ``_divides`` refuses lam.
    """
    return _chunkwise(_diagonal_span, q, k, v, lam)


def _dplr_span(a, gamma, state, qc, kc, vc, kapc, betc):
    """One span of ``forward_dplr``, for ``_chunkwise``.  What its backward
    does not hold it rebuilds with the forward's own ops."""
    c, dk = qc.shape[-2], qc.shape[-1]
    last = gamma[..., -1:, :]
    # [[tril(Q~ K~^T), -tril(Q~ B~^T)], [A, -L]]
    mask = np.tile(np.concatenate([np.tri(c), np.tri(c, k=-1)]), (1, 2))

    def blocks():
        """[Q~; K^], [K~; -B~], gamma shifted down one row and the pair matrices."""
        shifted = np.concatenate([np.ones_like(a), gamma[..., :-1, :]], axis=-2)
        left = np.empty(qc.shape[:-2] + (2 * c, dk))
        np.multiply(qc, gamma, out=left[..., :c, :])
        np.multiply(kapc, shifted, out=left[..., c:, :])
        right = np.empty_like(left)
        np.divide(kc, gamma, out=right[..., :c, :])
        np.multiply(kapc, -betc, out=right[..., c:, :])
        right[..., c:, :] /= gamma
        pair = np.matmul(left, _mT(right))
        pair *= mask
        return left, right, shifted, pair

    def stacked():
        """B = [[0, V], [W, U0]]: the state after a chunk is
        a gamma_last S + gamma_last [K~; -B~]^T [V; U0 + W S]."""
        B = np.zeros(Z.shape[:-2] + (2 * c, Z.shape[-1]))
        B[..., :c, dk:] = vc
        B[..., c:, :] = Z
        return B

    def values():
        """[V; U]."""
        VU = np.concatenate([vc, Z[..., dk:]], axis=-2)
        VU[..., c:, :] += np.matmul(W, S)
        return VU

    left, right, _, pair = blocks()
    # T^-1 = (I + L)^-1 by forward substitution: row i is e_i - L_i T^-1
    X = np.broadcast_to(np.eye(c), pair.shape[:-2] + (c, c)).copy()
    for i in range(1, c):
        np.matmul(pair[..., c + i:c + i + 1, c:c + i], X[..., :i, :i], out=X[..., i:i + 1, :i])
    Y = np.empty(left.shape[:-2] + (c, dk + vc.shape[-1]))           # [C | A V]
    np.multiply(left[..., c:, :], a, out=Y[..., :dk])
    Y[..., 0, :dk] = left[..., c, :]
    np.matmul(pair[..., c:, :c], vc, out=Y[..., dk:])
    Z = np.matmul(X, Y)
    W = Z[..., :dk]
    MR = np.matmul(_mT(right), stacked())
    MR *= _mT(last)
    diag = np.arange(dk)
    MR[..., diag, diag] += (a * last)[..., 0, :]                      # [M | R]
    M = MR[..., :dk].copy()
    S, state = _states(state, MR[..., dk:], M)
    o = np.matmul(left[..., :c, :] * a, S)
    o += np.matmul(pair[..., :c, :], values())

    def bw(gc, dstate, with_lam):
        left, right, shifted, pair = blocks()
        qg = left[..., :c, :]
        VU = values()
        # d[V; U] from the outputs, and F_m, their part of dL/dS_m
        dVU = np.matmul(_mT(pair[..., :c, :]), gc)
        F = np.matmul(_mT(qg * a), gc)
        F += np.matmul(_mT(W), dVU[..., c:, :])
        # dL/dS_m = F_m + M_m^T dL/dS_{m+1}, and D_m = dL/dS_{m+1}
        D, dstate = _adjoints(F, M, dstate)
        del F
        dVU += np.matmul(right, D * _mT(last))
        dU = dVU[..., c:, :]
        dY = np.empty(Z.shape)
        np.matmul(dU, _mT(S), out=dY[..., :dk])
        dY[..., dk:] = dU
        dY = np.matmul(_mT(X), dY)
        dv = dVU[..., :c, :] + np.matmul(_mT(pair[..., c:, :c]), dY[..., dk:])
        del dVU, dU, pair
        # masked, the outputs' g [V; U]^T over the solve's dY B^T = [d(A V) V^T | dY Z^T]
        # are the gradients of the pair matrices; B is rebuilt for this GEMM
        # alone, since splitting it in two changes the sums' rounding
        dpair = np.empty(left.shape[:-1] + (2 * c,))
        np.matmul(gc, _mT(VU), out=dpair[..., :c, :])
        dkl = np.matmul(VU, _mT(D))                                   # dL/d([K~; -B~] gamma_last)
        del VU
        np.matmul(dY, _mT(stacked()), out=dpair[..., c:, :])
        dpair *= mask
        dleft = np.matmul(dpair, right)
        dright = np.matmul(_mT(dpair), left)
        del dpair
        gS = np.matmul(gc, _mT(S))
        dleft[..., :c, :] += a * gS
        dleft[..., c + 1:, :] += a * dY[..., 1:, :dk]
        dleft[..., c, :] += dY[..., 0, :dk]
        dright += last * dkl
        dnb = dright[..., c:, :] / gamma                              # dL/d(-b)
        grads = (dleft[..., :c, :] * gamma, dright[..., :c, :] / gamma, dv,
                 dleft[..., c:, :] * shifted - betc * dnb, -(kapc * dnb).sum(-1, keepdims=True))
        if not with_lam:
            return grads, None, dstate
        # d log gamma per row: the products of [Q~; K^] and [K~; -B~] with their
        # gradients, K^ one row up, and gamma_last's terms on the last row; at
        # width 1 they are summed over d at once
        d = "d" if a.shape[-1] > 1 else ""
        da = (np.einsum(f"...cd,...cd->...{d}", qg, gS)
              + np.einsum(f"...cd,...cd->...{d}", left[..., c + 1:, :], dY[..., 1:, :dk]))
        del gS, dY
        rows = gamma.shape[:-2] + (2 * c, a.shape[-1])
        pl = np.einsum(f"...cd,...cd->...c{d}", left, dleft).reshape(rows)
        del dleft, left, qg
        pr = np.einsum(f"...cd,...cd->...c{d}", right, dright).reshape(rows)
        dlog = pl[..., :c, :] - pr[..., :c, :] - pr[..., c:, :]
        dlog[..., :-1, :] += pl[..., c + 1:, :]
        # the transition a gamma_last of S_m into S_{m+1}, per row of the state
        dtrans = np.einsum(f"...de,...de->...{d}", D, S).reshape(a.shape)
        dlog[..., -1:, :] += last * (
            np.einsum(f"...cd,...cd->...{d}", right, dkl).reshape(a.shape) + a * dtrans)
        da = da.reshape(a.shape) + last * dtrans
        return grads, (da, dlog), dstate

    return o, state, bw


def forward_dplr(q, k, v, lam, kappa, beta):
    """Recurrence with transition M_t = diag(lam_t) - beta_t kappa_t kappa_t^T,
    s_t = M_t s_{t-1} + k_t v_t^T and o_t = s_t^T q_t, for lam of width 1 or dk.
    Returns ``o``, differentiable in all inputs including kappa and beta.

    With beta = 0 this is exactly the diagonal recurrence; with lam = 1,
    beta = 1 and unit kappa it is the classical delta-rule overwrite.

    Chunkwise through the UT transform of DeltaNet (Yang et al. 2024, arXiv
    2406.06484), gated as in Gated DeltaNet (arXiv 2412.06464).  Per chunk,
    with a, gamma and Q~, K~ as in ``forward_chunked``, b = beta kappa,
    B~ = b / gamma and K^ = kappa . gamma shifted down one row, the reads
    u_i = kappa_i^T s_{i-1} solve (I + L) U = C S + A V with
    L = stril(K^ B~^T), A = stril(K^ K~^T) and C = a K^ (row 0: kappa_0).
    With T^-1 = (I + L)^-1 from forward substitution, W = T^-1 C and
    U0 = T^-1 A V, the state after the chunk is M S + R, where
    M = diag(a gamma_last) - (B~ gamma_last)^T W and
    R = (K~ gamma_last)^T V - (B~ gamma_last)^T U0; only that step loops.
    Then U = U0 + W S and o = (a Q~) S + tril(Q~ K~^T) V - tril(Q~ B~^T) U.
    The four pair matrices are one GEMM of [Q~; K^] against [K~; -B~], whose
    sign lets the outputs and the state read [V; U] as one block.  The
    backward runs the adjoint of the state loop in reverse, then the
    transposed GEMMs; through the solve, with Y = [C | A V],
    dY = T^-T d[W | U0] and dL = -stril(dY [W | U0]^T).  Last comes d log
    gamma, as in ``forward_chunked``.  ``_chunkwise`` runs it: in spans, and
    on the scan where ``_divides`` refuses lam.

    A taped call's backward holds the chunked inputs, gamma, Z = [W | U0],
    T^-1, M and the states.  It rebuilds [Q~; K^], [K~; -B~], the pair
    matrices and [V; U] with the forward's own ops, so bitwise, and
    B = [[0, V], [W, U0]] only for the GEMM dY B^T, which split into
    [d(A V) V^T | dY Z^T] would round differently.  At (8, 4, 128, 16) and
    width dk this took the live memory after the forward from 10.1 to
    3.6 MB and the backward's peak from 24.8 to 14.6 MB (tracemalloc); run
    in four spans of 32 positions, the forward's peak went 12.3 -> 5.9 MB
    and the backward's 14.6 -> 8.9 MB.  At (1, 4, 2048, 16), in eight spans
    of 256, the peaks are 9.4 and 15.3 MB, against 24.2 and 29.1 MB in one
    span over the whole sequence.
    """
    return _chunkwise(_dplr_span, q, k, v, lam, kappa, beta)


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
