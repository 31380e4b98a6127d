"""Dense float64 tensors with a reverse-mode gradient tape.

Every value in the library is carried by :class:`Tensor`, a thin wrapper
around a float64 numpy array.  Operations record backward rules on the
currently active :class:`Tape`; calling :func:`backward` on a scalar root
walks the tape in reverse creation order, which makes gradient
accumulation deterministic and reruns bitwise reproducible.

If no tape is active, operations simply compute forward values.

Only the ops the library runs live here; ``take`` serves the embedding
lookup and scatter-adds its gradient.  RoPE, LightNet's decay and the scans
record their own single nodes through ``_record`` and ``_accum``.
"""

from __future__ import annotations

import ctypes

import numpy as np

# glibc mallopt parameters (malloc.h) and the values set at import.  A tape
# frees a step's whole graph at once when it exits; with glibc's defaults the
# freed heap top is handed back to the kernel and the large arrays live in
# their own mappings, so every step faults all of its memory in again.  The
# values keep arrays below 32 MB on the heap and the freed heap mapped.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_TRIM_THRESHOLD = 1 << 30
_MMAP_THRESHOLD = 32 << 20


def _keep_freed_heap():
    """Set the glibc allocator for step-sized reuse; no-op without glibc."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)


_keep_freed_heap()


class ShapeError(ValueError):
    """Raised when operand shapes are incompatible."""


class Tape:
    """Records operations for reverse-mode differentiation.

    A tape is confined to one logical thread of execution.  Use as a
    context manager::

        with Tape():
            loss = ...
            backward(loss)

    :func:`backward` drops each node's gradient and backward rule as soon
    as the rule has run, so the arrays a rule saved are freed during the
    walk; ``nodes`` itself is kept until the block ends.  On exit the tape
    frees the rest of its graph: every recorded node drops its backward
    rule and its parents, and the tape drops its node list.  The rules close
    over their own outputs, so without this each step's graph would stay in
    reference cycles until Python's cyclic garbage collector ran, and peak
    memory would grow with the collector's schedule rather than with one
    step.  Leaves keep their ``grad``; the allocator setting at the top of
    this module keeps the freed memory for the next step.
    """

    def __init__(self):
        self.nodes = []

    def __enter__(self):
        _tape_stack.append(self)
        return self

    def __exit__(self, *exc):
        _tape_stack.pop()
        for node in self.nodes:
            node._backward = None
            node._parents = ()
        self.nodes = []
        return False


_tape_stack: list[Tape] = []


def active_tape():
    return _tape_stack[-1] if _tape_stack else None


def recording(*tensors):
    """True when a tape is active and one of ``tensors`` needs a gradient,
    that is when a call on them must record its backward."""
    return active_tape() is not None and any(t.requires_grad for t in tensors)


class Tensor:
    """Immutable-by-convention dense float64 array.

    ``grad`` is populated by :func:`backward` for tensors created with
    ``requires_grad=True`` (leaves); each leaf owns its gradient array and
    may change it in place.  An intermediate on the tape holds a gradient
    only until its backward rule has run, and has ``grad`` None afterwards.
    A tensor with ``requires_grad=False`` never gets a gradient.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "__weakref__")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = ()
        self._backward = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return neg(self)

    def __getitem__(self, idx):
        return take(self, idx)


def as_tensor(x):
    return x if isinstance(x, Tensor) else Tensor(x)


def _record(out, parents, backward_fn):
    """Attach a backward rule to ``out`` if a tape is active."""
    parents = tuple(p for p in parents if isinstance(p, Tensor))
    tape = active_tape()
    if tape is None or not any(p.requires_grad for p in parents):
        return out
    out.requires_grad = True
    out._parents = parents
    out._backward = backward_fn
    tape.nodes.append(out)
    return out


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


def _accum(t, g):
    """Add ``g`` to ``t.grad``.

    Gradients are never changed in place, so an intermediate takes ``g``
    as it is; a leaf copies it once, so that its ``grad`` is its own.
    """
    if not t.requires_grad:
        return
    g = _unbroadcast(np.asarray(g, dtype=np.float64), t.data.shape)
    if t.grad is not None:
        t.grad = t.grad + g
    elif t._backward is None:
        t.grad = g.copy()
    else:
        t.grad = g


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data + b.data)

    def bw(g):
        _accum(a, g)
        _accum(b, g)

    return _record(out, (a, b), bw)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data - b.data)

    def bw(g):
        _accum(a, g)
        _accum(b, -g)

    return _record(out, (a, b), bw)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data * b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g * b.data)
        if b.requires_grad:
            _accum(b, g * a.data)

    return _record(out, (a, b), bw)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    out = Tensor(a.data / b.data)

    def bw(g):
        if a.requires_grad:
            _accum(a, g / b.data)
        if b.requires_grad:
            _accum(b, -g * a.data / (b.data * b.data))

    return _record(out, (a, b), bw)


def neg(a):
    a = as_tensor(a)
    out = Tensor(-a.data)

    def bw(g):
        _accum(a, -g)

    return _record(out, (a,), bw)


def exp(a):
    a = as_tensor(a)
    out = Tensor(np.exp(a.data))

    def bw(g):
        _accum(a, g * out.data)

    return _record(out, (a,), bw)


def sqrt(a):
    a = as_tensor(a)
    out = Tensor(np.sqrt(a.data))

    def bw(g):
        _accum(a, g * 0.5 / out.data)

    return _record(out, (a,), bw)


def _sigmoid(x):
    """1 / (1 + exp(-x)) on an array, in one new buffer.

    exp(-x) overflows to inf below x = -709.78, where the result is then 0
    (the exact value is subnormal or below); its warning is silenced.
    """
    out = np.negative(x, out=np.empty_like(x))
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def sigmoid(a):
    """1 / (1 + exp(-x)), finite on both tails."""
    a = as_tensor(a)
    out = Tensor(_sigmoid(a.data))

    def bw(g):
        ga = g * out.data
        ga *= 1.0 - out.data
        _accum(a, ga)

    return _record(out, (a,), bw)


def silu(a):
    """x * sigmoid(x); one tape node."""
    a = as_tensor(a)
    x = a.data
    s = _sigmoid(x)
    out = Tensor(x * s)

    def bw(g):
        ga = np.subtract(1.0, s, out=np.empty_like(s))
        ga *= x
        ga += 1.0
        ga *= g * s
        _accum(a, ga)

    return _record(out, (a,), bw)


def softplus(a):
    """log(1 + exp(x)), computed stably as max(x, 0) + log1p(exp(-|x|))."""
    a = as_tensor(a)
    x = a.data
    y = np.abs(x, out=np.empty_like(x))
    np.negative(y, out=y)
    np.exp(y, out=y)
    np.log1p(y, out=y)
    out = Tensor(np.add(y, np.maximum(x, 0.0), out=y))

    def bw(g):
        s = _sigmoid(x)
        _accum(a, np.multiply(s, g, out=s))

    return _record(out, (a,), bw)


# ---------------------------------------------------------------------------
# reductions and linear algebra
# ---------------------------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    out = Tensor(a.data.sum(axis=axis, keepdims=keepdims))

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(a, np.broadcast_to(g, a.data.shape))

    return _record(out, (a,), bw)


def matmul(a, b):
    """Matrix product of operands with at least two axes each, with numpy
    broadcasting over the leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands need two axes, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.data.shape} vs {b.data.shape}")
    out = Tensor(np.matmul(a.data, b.data))

    if b.ndim == 2:
        # a weight matrix: its gradient is one GEMM over all leading axes
        def bw(g):
            if a.requires_grad:
                _accum(a, np.matmul(g, b.data.T))
            if b.requires_grad:
                _accum(b, a.data.reshape(-1, b.data.shape[0]).T @ g.reshape(-1, g.shape[-1]))

        return _record(out, (a, b), bw)

    def bw(g):
        if a.requires_grad:
            _accum(a, np.matmul(g, np.swapaxes(b.data, -1, -2)))
        if b.requires_grad:
            _accum(b, np.matmul(np.swapaxes(a.data, -1, -2), g))

    return _record(out, (a, b), bw)


def head_project(x, w):
    """Per-head projection (..., n, d) @ (h, d, dh) -> (..., h, n, dh).

    One tape node: the heads are laid side by side as one (d, h * dh)
    matrix, so the forward and each gradient are one 2-D GEMM, and the
    result is a reshaped, transposed view of the product.
    """
    x, w = as_tensor(x), as_tensor(w)
    h, d, dh = w.data.shape
    if x.ndim < 2 or x.data.shape[-1] != d:
        raise ShapeError(f"head_project: {x.data.shape} does not match weights {w.data.shape}")
    x2 = x.data.reshape(-1, d)
    w2 = w.data.transpose(1, 0, 2).reshape(d, h * dh)
    y = (x2 @ w2).reshape(x.data.shape[:-1] + (h, dh))
    out = Tensor(np.moveaxis(y, -2, -3))

    def bw(g):
        g2 = np.moveaxis(g, -3, -2).reshape(-1, h * dh)
        if x.requires_grad:
            _accum(x, (g2 @ w2.T).reshape(x.data.shape))
        if w.requires_grad:
            _accum(w, (x2.T @ g2).reshape(d, h, dh).transpose(1, 0, 2))

    return _record(out, (x, w), bw)


def rmsnorm(x, gamma, eps=1e-6):
    """x / sqrt(mean(x^2) + eps) * gamma along the last axis; one tape node.

    With xh = x / rms and gg = g * gamma, the gradient of x is
    (gg - xh * mean(gg * xh)) / rms and that of gamma is g * xh.
    """
    if eps < 0:
        raise ValueError("rmsnorm: eps must be >= 0")
    x, gamma = as_tensor(x), as_tensor(gamma)
    inv_n = 1.0 / x.data.shape[-1]
    xh = x.data * x.data
    rms = np.sqrt(xh.sum(axis=-1, keepdims=True) * inv_n + eps)
    np.divide(x.data, rms, out=xh)
    out = Tensor(xh * gamma.data)

    def bw(g):
        if gamma.requires_grad:
            _accum(gamma, g * xh)
        if x.requires_grad:
            gg = g * gamma.data
            t = gg * xh
            np.multiply(xh, t.sum(axis=-1, keepdims=True) * inv_n, out=t)
            gg -= t
            gg /= rms
            _accum(x, gg)

    return _record(out, (x, gamma), bw)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a, shape):
    a = as_tensor(a)
    out = Tensor(a.data.reshape(shape))

    def bw(g):
        _accum(a, g.reshape(a.data.shape))

    return _record(out, (a,), bw)


def transpose(a, axes):
    a = as_tensor(a)
    out = Tensor(np.transpose(a.data, axes))

    def bw(g):
        _accum(a, np.transpose(g, np.argsort(axes)))

    return _record(out, (a,), bw)


def broadcast_to(a, shape):
    a = as_tensor(a)
    out = Tensor(np.broadcast_to(a.data, shape).copy())

    def bw(g):
        _accum(a, g)

    return _record(out, (a,), bw)


def concat(tensors, axis=-1):
    tensors = [as_tensor(t) for t in tensors]
    out = Tensor(np.concatenate([t.data for t in tensors], axis=axis))
    sizes = [t.data.shape[axis] for t in tensors]

    def bw(g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        for t, p in zip(tensors, pieces):
            _accum(t, p)

    return _record(out, tuple(tensors), bw)


def take(a, idx):
    """Indexing/gather.  Backward is one ``np.bincount`` over the positions
    ``idx`` reads, so a repeated index (an embedding lookup) sums its
    gradients in position order, bitwise as ``np.add.at`` does."""
    a = as_tensor(a)
    out = Tensor(a.data[idx])

    def bw(g):
        pos = np.arange(a.data.size).reshape(a.data.shape)[idx]
        ga = np.bincount(pos.ravel(), weights=np.ravel(g), minlength=a.data.size)
        _accum(a, ga.reshape(a.data.shape))

    return _record(out, (a,), bw)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def backward(root):
    """Accumulate gradients of a scalar ``root`` over the active tape.

    Nothing is returned: gradients land on each leaf's ``grad`` attribute.
    Accumulation order is fixed reverse tape order.  Each node's ``grad``
    and backward rule are dropped as soon as the rule has run, which frees
    the arrays the rule saved, so a tape is walked once.
    """
    tape = active_tape()
    if tape is None:
        raise RuntimeError("backward: no active tape")
    if root.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")
    root.grad = np.ones_like(root.data)
    for node in reversed(tape.nodes):
        rule, g = node._backward, node.grad
        node._backward = node.grad = None
        if rule is not None and g is not None:
            rule(g)
