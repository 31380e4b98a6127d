"""Dense float64 tensors with a reverse-mode gradient tape.

Every value in the library is carried by :class:`Tensor`, a thin wrapper
around a float64 numpy array.  Operations record backward rules on the
currently active :class:`Tape`; calling :func:`backward` on a scalar root
walks the tape in reverse creation order, which makes gradient
accumulation deterministic and reruns bitwise reproducible.

If no tape is active, operations simply compute forward values.

The graph holds no values.  A recorded op's output gets a :class:`Node`:
its backward rule, the output's shape and a gradient slot; a leaf is its
own node.  A node links to no other node; the tape's creation order is
the only order the walk needs.  A rule saves only the arrays it reads
(``mul`` its operands', ``exp`` its own output) and its parents' nodes,
never a Tensor, so a value is freed once the program drops it and the
last rule that reads it has run.

Only the ops the library runs live here; ``take`` serves the embedding
lookup and scatter-adds its gradient.  RoPE, LightNet's decay, the scans,
the GLU and cross-entropy record their own single nodes through
``_record``, ``_node`` and ``_accum``.  ``_record`` is the only way a rule
reaches the tape, and a recorded node's rule and shape are never swapped.
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

    ``nodes`` lists the graph nodes of the recorded ops in creation order.
    A node holds no values, and its rule saves only the arrays it reads, so
    the tape keeps alive only what the backward pass needs.
    :func:`backward` drops each node's gradient and rule as soon as the
    rule has run, so the arrays the rule saved are freed during the walk;
    ``nodes`` itself is kept until the block ends.  On exit the tape frees
    the rest of its graph: every recorded node drops its backward rule,
    and the tape drops its node list, so an output kept past the block
    keeps only its value.  Leaves keep their ``grad``; the allocator
    setting at the top of this module keeps the freed memory for the next
    step.
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
        self.nodes = []
        return False


_tape_stack: list[Tape] = []


def active_tape():
    return _tape_stack[-1] if _tape_stack else None


def recording(*tensors):
    """True when a tape is active and one of ``tensors`` needs a gradient,
    that is when a call on them must record its backward."""
    return active_tape() is not None and any(t.requires_grad for t in tensors)


class Node:
    """A recorded op in the graph: its backward rule, the shape of its
    output and the output's gradient while the walk reaches it.  It holds
    no values; the output Tensor points to it, and the rule holds the nodes
    of the parents it sends gradients to."""

    __slots__ = ("_backward", "shape", "grad")

    def __init__(self, backward_fn, shape):
        self._backward = backward_fn
        self.shape = shape
        self.grad = None


class Tensor:
    """Immutable-by-convention dense float64 array.

    ``grad`` is populated by :func:`backward` for tensors created with
    ``requires_grad=True`` (leaves); each leaf is its own graph node, owns
    its gradient array and may change it in place.  A recorded op's output
    points to its :class:`Node`, which holds the gradient only until the
    node's rule has run; the output's own ``grad`` stays None.  A tensor
    with ``requires_grad=False`` never gets a gradient.
    """

    __slots__ = ("data", "grad", "requires_grad", "_node", "__weakref__")
    # a leaf is its own node, one without a rule
    _backward = None

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._node = None

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


def _node(t):
    """The node that gradients of Tensor ``t`` add into: its recorded node
    while that has a rule, else ``t`` itself, a leaf, or None if ``t`` takes
    no gradient.  A rule holds this in place of ``t``, so that ``t``'s value
    can be freed; an output whose graph was walked or released is a leaf."""
    node = t._node
    if node is not None and node._backward is not None:
        return node
    return t if t.requires_grad else None


def _record(out, parents, backward_fn):
    """Attach a node with ``backward_fn`` to ``out`` if a tape is active and
    one of the Tensors ``parents`` needs a gradient; returns ``out``.

    The node links to no parent: ``backward_fn(g)`` should hold only the
    arrays it reads and the parents' nodes (``_node``) it sends gradients
    to, not Tensors, whose values it would keep alive.
    """
    tape = active_tape()
    if tape is None:
        return out
    if all(_node(p) is None for p in parents if isinstance(p, Tensor)):
        return out
    out.requires_grad = True
    out._node = node = Node(backward_fn, out.data.shape)
    tape.nodes.append(node)
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


def _accum(node, g):
    """Add ``g`` to the gradient of ``node``: a node, a Tensor (its
    ``_node``) or None, which takes nothing.

    Gradients are never changed in place, so an intermediate takes ``g``
    as it is; a leaf copies it once, so that its ``grad`` is its own.
    """
    if isinstance(node, Tensor):
        node = _node(node)
    if node is None:
        return
    g = _unbroadcast(np.asarray(g, dtype=np.float64), node.shape)
    if node.grad is not None:
        node.grad = node.grad + g
    elif node._backward is None:
        node.grad = g.copy()
    else:
        node.grad = g


# ---------------------------------------------------------------------------
# elementwise ops
# ---------------------------------------------------------------------------

def add(a, b):
    a, b = as_tensor(a), as_tensor(b)
    na, nb = _node(a), _node(b)

    def bw(g):
        _accum(na, g)
        _accum(nb, g)

    return _record(Tensor(a.data + b.data), (a, b), bw)


def sub(a, b):
    a, b = as_tensor(a), as_tensor(b)
    na, nb = _node(a), _node(b)

    def bw(g):
        _accum(na, g)
        _accum(nb, -g)

    return _record(Tensor(a.data - b.data), (a, b), bw)


def mul(a, b):
    a, b = as_tensor(a), as_tensor(b)
    na, nb = _node(a), _node(b)
    # each operand's value is saved only for the other's gradient
    ad = a.data if nb is not None else None
    bd = b.data if na is not None else None

    def bw(g):
        if na is not None:
            _accum(na, g * bd)
        if nb is not None:
            _accum(nb, g * ad)

    return _record(Tensor(a.data * b.data), (a, b), bw)


def div(a, b):
    a, b = as_tensor(a), as_tensor(b)
    na, nb = _node(a), _node(b)
    # both gradients read b's value, only b's reads a's
    ad = a.data if nb is not None else None
    bd = b.data

    def bw(g):
        if na is not None:
            _accum(na, g / bd)
        if nb is not None:
            _accum(nb, -g * ad / (bd * bd))

    return _record(Tensor(a.data / b.data), (a, b), bw)


def neg(a):
    a = as_tensor(a)
    na = _node(a)

    def bw(g):
        _accum(na, -g)

    return _record(Tensor(-a.data), (a,), bw)


def exp(a):
    a = as_tensor(a)
    na, y = _node(a), np.exp(a.data)

    def bw(g):
        _accum(na, g * y)

    return _record(Tensor(y), (a,), bw)


def sqrt(a):
    a = as_tensor(a)
    na, y = _node(a), np.sqrt(a.data)

    def bw(g):
        _accum(na, g * 0.5 / y)

    return _record(Tensor(y), (a,), bw)


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
    na, y = _node(a), _sigmoid(a.data)

    def bw(g):
        ga = g * y
        ga *= 1.0 - y
        _accum(na, ga)

    return _record(Tensor(y), (a,), bw)


def silu(a):
    """x * sigmoid(x); one tape node.  The rule saves x alone and rebuilds
    sigmoid(x) with the forward's own function, so its gradient
    g s (1 + x (1 - s)) is bitwise the same as from a saved s."""
    a = as_tensor(a)
    na, x = _node(a), a.data

    def bw(g):
        s = _sigmoid(x)
        ga = np.subtract(1.0, s, out=np.empty_like(s))
        ga *= x
        ga += 1.0
        ga *= np.multiply(g, s, out=s)
        _accum(na, ga)

    return _record(Tensor(x * _sigmoid(x)), (a,), bw)


def softplus(a):
    """log(1 + exp(x)), computed stably as max(x, 0) + log1p(exp(-|x|))."""
    a = as_tensor(a)
    na, x = _node(a), a.data
    y = np.abs(x, out=np.empty_like(x))
    np.negative(y, out=y)
    np.exp(y, out=y)
    np.log1p(y, out=y)
    np.add(y, np.maximum(x, 0.0), out=y)

    def bw(g):
        s = _sigmoid(x)
        _accum(na, np.multiply(s, g, out=s))

    return _record(Tensor(y), (a,), bw)


# ---------------------------------------------------------------------------
# reductions and linear algebra
# ---------------------------------------------------------------------------

def tsum(a, axis=None, keepdims=False):
    a = as_tensor(a)
    na, shape = _node(a), a.data.shape

    def bw(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        _accum(na, np.broadcast_to(g, shape))

    return _record(Tensor(a.data.sum(axis=axis, keepdims=keepdims)), (a,), bw)


def matmul(a, b):
    """Matrix product of operands with at least two axes each, with numpy
    broadcasting over the leading axes."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul: operands need two axes, got {a.data.shape} and {b.data.shape}")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"matmul: inner dimensions differ, {a.data.shape} vs {b.data.shape}")
    out = Tensor(np.matmul(a.data, b.data))
    na, nb = _node(a), _node(b)
    # each operand's value is saved only for the other's gradient
    ad = a.data if nb is not None else None
    bd = b.data if na is not None else None

    if b.ndim == 2:
        # a weight matrix: its gradient is one GEMM over all leading axes
        def bw(g):
            if na is not None:
                _accum(na, np.matmul(g, bd.T))
            if nb is not None:
                _accum(nb, ad.reshape(-1, ad.shape[-1]).T @ g.reshape(-1, g.shape[-1]))

        return _record(out, (a, b), bw)

    def bw(g):
        if na is not None:
            _accum(na, np.matmul(g, np.swapaxes(bd, -1, -2)))
        if nb is not None:
            _accum(nb, np.matmul(np.swapaxes(ad, -1, -2), g))

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
    nx, nw, shape = _node(x), _node(w), x.data.shape
    # each operand's value is saved only for the other's gradient
    if nw is None:
        x2 = None
    if nx is None:
        w2 = None

    def bw(g):
        g2 = g.swapaxes(-3, -2).reshape(-1, h * dh)
        if nx is not None:
            _accum(nx, (g2 @ w2.T).reshape(shape))
        if nw is not None:
            _accum(nw, (x2.T @ g2).reshape(d, h, dh).transpose(1, 0, 2))

    return _record(Tensor(y.swapaxes(-2, -3)), (x, w), bw)


def rmsnorm(x, gamma, eps=1e-6):
    """x / sqrt(mean(x^2) + eps) * gamma along the last axis; one tape node.

    With xh = x / rms and gg = g * gamma, the gradient of x is
    (gg - xh * mean(gg * xh)) / rms and that of gamma is g * xh.  The rule
    saves xh and rms, not x.
    """
    if eps < 0:
        raise ValueError("rmsnorm: eps must be >= 0")
    x, gamma = as_tensor(x), as_tensor(gamma)
    nx, ngamma, gd = _node(x), _node(gamma), gamma.data
    inv_n = 1.0 / x.data.shape[-1]
    xh = x.data * x.data
    rms = np.sqrt(xh.sum(axis=-1, keepdims=True) * inv_n + eps)
    np.divide(x.data, rms, out=xh)

    def bw(g):
        if ngamma is not None:
            _accum(ngamma, g * xh)
        if nx is not None:
            gg = g * gd
            t = gg * xh
            np.multiply(xh, t.sum(axis=-1, keepdims=True) * inv_n, out=t)
            gg -= t
            gg /= rms
            _accum(nx, gg)

    return _record(Tensor(xh * gd), (x, gamma), bw)


# ---------------------------------------------------------------------------
# shape manipulation
# ---------------------------------------------------------------------------

def reshape(a, shape):
    a = as_tensor(a)
    na, in_shape = _node(a), a.data.shape

    def bw(g):
        _accum(na, g.reshape(in_shape))

    return _record(Tensor(a.data.reshape(shape)), (a,), bw)


def transpose(a, axes):
    a = as_tensor(a)
    na = _node(a)

    def bw(g):
        _accum(na, np.transpose(g, np.argsort(axes)))

    return _record(Tensor(np.transpose(a.data, axes)), (a,), bw)


def broadcast_to(a, shape):
    a = as_tensor(a)
    na = _node(a)

    def bw(g):
        _accum(na, g)

    return _record(Tensor(np.broadcast_to(a.data, shape).copy()), (a,), bw)


def concat(tensors, axis=-1):
    tensors = [as_tensor(t) for t in tensors]
    nodes = [_node(t) for t in tensors]
    sizes = [t.data.shape[axis] for t in tensors]

    def bw(g):
        pieces = np.split(g, np.cumsum(sizes)[:-1], axis=axis)
        for node, p in zip(nodes, pieces):
            _accum(node, p)

    return _record(Tensor(np.concatenate([t.data for t in tensors], axis=axis)),
                   tuple(tensors), bw)


def take(a, idx):
    """Indexing/gather.  Backward is one ``np.bincount`` over the positions
    ``idx`` reads, so a repeated index (an embedding lookup) sums its
    gradients in position order, bitwise as ``np.add.at`` does."""
    a = as_tensor(a)
    na, shape, size = _node(a), a.data.shape, a.data.size

    def bw(g):
        pos = np.arange(size).reshape(shape)[idx]
        ga = np.bincount(pos.ravel(), weights=np.ravel(g), minlength=size)
        _accum(na, ga.reshape(shape))

    return _record(Tensor(a.data[idx]), (a,), bw)


# ---------------------------------------------------------------------------
# backward driver
# ---------------------------------------------------------------------------

def backward(root):
    """Accumulate gradients of a scalar ``root`` over the active tape.

    Nothing is returned: gradients land on each leaf's ``grad`` attribute.
    Accumulation order is fixed reverse tape order, which needs no parent
    links: a node's rule runs after every node recorded later, the only
    ones that can send it gradient.  Each node's gradient and backward rule
    are dropped as soon as the rule has run, which frees the arrays the
    rule saved, so a tape is walked once.  The walk holds only what the
    rules saved: for a DPLR + RoPE step at 2 x 64 x 4, batch 8 x seq 128,
    30.0 MB when it starts and a 30.8 MB peak (tracemalloc), against 64.6
    and 77.2 MB when the tape held every output Tensor.
    """
    tape = active_tape()
    if tape is None:
        raise RuntimeError("backward: no active tape")
    if root.size != 1:
        raise ValueError(f"backward: root must be scalar, got shape {root.shape}")
    start = _node(root)
    if start is None:
        return
    start.grad = np.ones_like(root.data)
    for node in reversed(tape.nodes):
        rule, g = node._backward, node.grad
        node._backward = node.grad = None
        if rule is not None and g is not None:
            rule(g)
