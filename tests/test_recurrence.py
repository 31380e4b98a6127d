import tracemalloc

import numpy as np
import pytest

from decaylab import recurrence as R
from decaylab import tensor as T
from decaylab.tensor import ShapeError, Tensor
from decaylab.verify import grad_check


def _ones(n):
    shape = (n, 1)
    return (np.ones(shape), np.ones(shape), np.ones(shape))


def test_sequential_prefix_sum():
    q, k, v = _ones(3)
    o = R.forward_sequential(q, k, v, np.ones((3, 1)))
    assert np.array_equal(o.data[:, 0], np.array([1.0, 2.0, 3.0]))


def test_sequential_half_decay():
    q, k, v = _ones(3)
    o = R.forward_sequential(q, k, v, np.full((3, 1), 0.5))
    assert np.max(np.abs(o.data[:, 0] - np.array([1.0, 1.5, 1.75]))) <= 1e-15


def test_sequential_zero_keys(rng):
    n, dk, dv = 5, 3, 2
    q = rng.normal(size=(n, dk))
    v = rng.normal(size=(n, dv))
    lam = rng.uniform(0.0, 1.0, size=(n, dk))
    o = R.forward_sequential(q, np.zeros((n, dk)), v, lam)
    assert np.array_equal(o.data, np.zeros((n, dv)))


def test_sequential_shape_validation():
    with pytest.raises(ShapeError):
        R.forward_sequential(np.zeros((3, 2)), np.zeros((3, 3)),
                             np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ShapeError):
        R.forward_sequential(np.zeros((3, 2)), np.zeros((3, 2)),
                             np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        R.forward_sequential(np.full((3, 2), np.nan), np.zeros((3, 2)),
                             np.zeros((3, 2)), np.zeros((3, 2)))


def test_oracle_single_step(rng):
    q, k, v = (rng.normal(size=(1, d)) for d in (3, 3, 2))
    o = R.forward_oracle(q, k, v, np.ones((1, 3)))
    assert np.max(np.abs(o[0] - float(q[0] @ k[0]) * v[0])) <= 1e-14


def test_oracle_full_forgetting(rng):
    n, dk, dv = 5, 3, 2
    q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
    lam = np.zeros((n, dk))
    o = R.forward_oracle(q, k, v, lam)
    for t in range(n):
        assert np.max(np.abs(o[t] - float(q[t] @ k[t]) * v[t])) <= 1e-12


def test_oracle_matches_sequential_sweep(rng):
    for _ in range(50):
        n = int(rng.integers(1, 33))
        dk = int(rng.integers(1, 9))
        dv = int(rng.integers(1, 9))
        q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
        lam = rng.uniform(0.0, 1.0, size=(n, dk))
        o_seq = R.forward_sequential(q, k, v, lam)
        o_ref = R.forward_oracle(q, k, v, lam)
        assert np.max(np.abs(o_seq.data - o_ref)) <= 1e-10


def test_oracle_handles_scalar_lambda(rng):
    n, dk, dv = 7, 4, 3
    q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
    lam = rng.uniform(0.1, 1.0, size=(n, 1))
    o_seq = R.forward_sequential(q, k, v, lam)
    o_ref = R.forward_oracle(q, k, v, lam)
    assert np.max(np.abs(o_seq.data - o_ref)) <= 1e-12


def test_chunked_degenerate_chunk_one(rng):
    n, dk, dv = 9, 3, 2
    q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
    lam = rng.uniform(0.0, 1.0, size=(n, dk))
    o_seq = R.forward_sequential(q, k, v, lam)
    o_ch = R.forward_chunked(q, k, v, lam, 1)
    assert np.max(np.abs(o_ch.data - o_seq.data)) <= 1e-12


def test_chunked_single_chunk_matches_oracle(rng):
    n, dk, dv = 12, 4, 3
    q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
    lam = rng.uniform(0.1, 1.0, size=(n, dk))
    o_ch = R.forward_chunked(q, k, v, lam, n)
    o_ref = R.forward_oracle(q, k, v, lam)
    assert np.max(np.abs(o_ch.data - o_ref)) <= 1e-10


def test_chunked_ragged_tail(rng):
    n, dk, dv = 257, 4, 3
    q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
    lam = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 2.0, size=(n, dk))))
    o_seq = R.forward_sequential(q, k, v, lam)
    o_ch = R.forward_chunked(q, k, v, lam, 64)
    assert np.max(np.abs(o_ch.data - o_seq.data)) <= 1e-8


def test_chunked_all_chunk_sizes(rng):
    n, dk, dv = 33, 3, 2
    q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
    lam = rng.uniform(0.0, 1.0, size=(n, dk))
    o_seq = R.forward_sequential(q, k, v, lam)
    for chunk in (1, 2, 16, 64, n):
        o_ch = R.forward_chunked(q, k, v, lam, chunk)
        assert np.max(np.abs(o_ch.data - o_seq.data)) <= 1e-8


def test_chunked_handles_zero_decay(rng):
    # a zero inside a chunk sends the call to the scan
    n, dk, dv = 16, 3, 2
    q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
    lam = rng.uniform(0.0, 1.0, size=(n, dk))
    lam[0] = 0.0
    lam[7] = 0.0
    o_seq = R.forward_sequential(q, k, v, lam)
    o_ch = R.forward_chunked(q, k, v, lam, 4)
    assert np.max(np.abs(o_ch.data - o_seq.data)) <= 1e-10


def test_chunked_rejects_bad_chunk():
    with pytest.raises(ValueError):
        R.forward_chunked(np.zeros((2, 1)), np.zeros((2, 1)),
                          np.zeros((2, 1)), np.ones((2, 1)), 0)


def _dplr_args(rng, n=4, dk=3, dv=2):
    """Keyword arguments of a valid ``forward_dplr`` call."""
    q, k, kappa = (rng.normal(size=(n, dk)) for _ in range(3))
    return dict(q=q, k=k, v=rng.normal(size=(n, dv)), lam=rng.uniform(0.1, 1.0, size=(n, dk)),
                kappa=kappa, beta=rng.uniform(0.1, 0.9, size=(n, 1)))


@pytest.mark.parametrize("name,width", [("kappa", 4), ("beta", 2)])
def test_dplr_rejects_bad_kappa_and_beta_widths(rng, name, width):
    args = _dplr_args(rng)
    args[name] = rng.normal(size=(4, width))
    with pytest.raises(ShapeError, match=name):
        R.forward_dplr(**args)


@pytest.mark.parametrize("name", ["kappa", "beta"])
def test_dplr_rejects_non_finite_kappa_and_beta(rng, name):
    args = _dplr_args(rng)
    args[name] = np.full_like(args[name], np.nan)
    with pytest.raises(ValueError, match=f"non-finite values in {name}"):
        R.forward_dplr(**args)


def test_dplr_beta_zero_reduces_to_diagonal(rng):
    n, dk, dv = 6, 4, 3
    q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
    lam = rng.uniform(0.1, 1.0, size=(n, dk))
    kappa = rng.normal(size=(n, dk))
    kappa /= np.linalg.norm(kappa, axis=-1, keepdims=True)
    o_dplr = R.forward_dplr(q, k, v, lam, kappa, np.zeros((n, 1)))
    o_diag = R.forward_sequential(q, k, v, lam)
    assert np.max(np.abs(o_dplr.data - o_diag.data)) <= 1e-12


def test_dplr_matches_dense_oracle(rng):
    for _ in range(10):
        n, dk, dv = int(rng.integers(2, 13)), 4, 3
        q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
        lam = rng.uniform(0.1, 1.0, size=(n, dk))
        kappa = rng.normal(size=(n, dk))
        kappa /= np.linalg.norm(kappa, axis=-1, keepdims=True)
        beta = rng.uniform(0.05, 0.95, size=(n, 1))
        o = R.forward_dplr(q, k, v, lam, kappa, beta)
        o_ref = R.dplr_dense_oracle(q, k, v, lam, kappa, beta)
        assert np.max(np.abs(o.data - o_ref)) <= 1e-10


def test_dplr_delta_rule_overwrite():
    # repeated writes through the same unit key: the second value replaces
    # the first in the state, so reading that key at t = 1 gives v_2
    kap = np.zeros((2, 3))
    kap[:, 0] = 1.0
    v = np.array([[1.0, 2.0], [5.0, -1.0]])
    o = R.forward_dplr(kap, kap, v, np.ones((2, 3)), kap, np.ones((2, 1)))
    assert np.max(np.abs(o.data[1] - v[1])) <= 1e-12


def test_dplr_matches_dense_oracle_for_non_unit_kappa(rng):
    # the kernel takes kappa as given: the transition is diag(lam) - beta kappa kappa^T
    n, dk, dv = 5, 3, 2
    q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
    lam = rng.uniform(0.1, 1.0, size=(n, dk))
    kappa = rng.normal(size=(n, dk)) * 3.0
    beta = rng.uniform(0.1, 0.9, size=(n, 1))
    o = R.forward_dplr(q, k, v, lam, kappa, beta)
    o_ref = R.dplr_dense_oracle(q, k, v, lam, kappa, beta)
    assert np.max(np.abs(o.data - o_ref)) <= 1e-10 * max(1.0, np.max(np.abs(o_ref)))


def test_scan_gradients(rng):
    n, dk, dv = 5, 3, 2
    leaves = {
        "q": Tensor(rng.normal(size=(n, dk)), requires_grad=True),
        "k": Tensor(rng.normal(size=(n, dk)), requires_grad=True),
        "v": Tensor(rng.normal(size=(n, dv)), requires_grad=True),
        "lam": Tensor(rng.uniform(0.2, 0.95, size=(n, dk)), requires_grad=True),
    }

    def build(lv):
        o = R.forward_sequential(lv["q"], lv["k"], lv["v"], lv["lam"])
        return T.tsum(o * o)

    assert grad_check(build, leaves, rel_tol=1e-4) == []


def test_scan_gradients_scalar_lambda(rng):
    n, dk, dv = 4, 3, 2
    leaves = {
        "q": Tensor(rng.normal(size=(n, dk)), requires_grad=True),
        "k": Tensor(rng.normal(size=(n, dk)), requires_grad=True),
        "v": Tensor(rng.normal(size=(n, dv)), requires_grad=True),
        "lam": Tensor(rng.uniform(0.2, 0.95, size=(n, 1)), requires_grad=True),
    }

    def build(lv):
        o = R.forward_sequential(lv["q"], lv["k"], lv["v"], lv["lam"])
        return T.tsum(T.sigmoid(o))

    assert grad_check(build, leaves, rel_tol=1e-4) == []


def test_dplr_gradients(rng):
    n, dk, dv = 4, 3, 2
    kappa = rng.normal(size=(n, dk))
    leaves = {
        "q": Tensor(rng.normal(size=(n, dk)), requires_grad=True),
        "k": Tensor(rng.normal(size=(n, dk)), requires_grad=True),
        "v": Tensor(rng.normal(size=(n, dv)), requires_grad=True),
        "lam": Tensor(rng.uniform(0.3, 0.95, size=(n, dk)), requires_grad=True),
        "kappa": Tensor(kappa, requires_grad=True),
        "beta": Tensor(rng.uniform(0.1, 0.9, size=(n, 1)), requires_grad=True),
    }

    def build(lv):
        o = R.forward_dplr(lv["q"], lv["k"], lv["v"], lv["lam"],
                           _unit_rows(lv["kappa"]), lv["beta"])
        return T.tsum(o * o)

    assert grad_check(build, leaves, rel_tol=1e-4) == []


def _unit_rows(kappa):
    """kappa L2-normalized row by row, with the ops the model uses."""
    return kappa / T.sqrt(T.tsum(kappa * kappa, axis=-1, keepdims=True) + 1e-12)


def _batched_inputs(rng, batch, n, scalar, dk=3, dv=2):
    """Random scan inputs with lambda = 0 at t = 0 and mid-sequence."""
    q, k = (rng.normal(size=batch + (n, dk)) for _ in range(2))
    v = rng.normal(size=batch + (n, dv))
    lam = rng.uniform(0.1, 1.0, size=batch + (n, 1 if scalar else dk))
    lam[..., 0, :] = 0.0
    lam[..., n // 2, :] = 0.0
    return q, k, v, lam


def _on_tape(fn, *arrays):
    """fn called on fresh leaves under a recording tape; returns its result."""
    with T.Tape():
        out = fn(*(Tensor(a, requires_grad=True) for a in arrays))
    return out


# n = 1, an n inside one time block, and one that ends inside a second block
BATCHED_LENGTHS = [1, 9, R._BLOCK + 5]


@pytest.mark.parametrize("scalar", [False, True])
@pytest.mark.parametrize("n", BATCHED_LENGTHS)
def test_sequential_batched_matches_oracle(rng, n, scalar):
    q, k, v, lam = _batched_inputs(rng, (2, 3), n, scalar)
    o = R.forward_sequential(q, k, v, lam)
    assert o.shape == (2, 3, n, 2)
    assert np.max(np.abs(o.data - R.forward_oracle(q, k, v, lam))) <= 1e-10
    o_tape = _on_tape(R.forward_sequential, q, k, v, lam)
    assert np.array_equal(o_tape.data, o.data)


@pytest.mark.parametrize("scalar", [False, True])
@pytest.mark.parametrize("batch,n", [((2, 3), 1), ((2, 3), 6), ((2, 1), R._BLOCK + 3)])
def test_sequential_batched_gradients(rng, batch, n, scalar):
    q, k, v, lam = _batched_inputs(rng, batch, n, scalar, dk=2)
    leaves = {name: Tensor(x, requires_grad=True)
              for name, x in zip(("q", "k", "v", "lam"), (q, k, v, lam))}

    def build(lv):
        o = R.forward_sequential(lv["q"], lv["k"], lv["v"], lv["lam"])
        return T.tsum(o * o)

    assert grad_check(build, leaves, rel_tol=1e-4) == []


@pytest.mark.parametrize("scalar", [False, True])
@pytest.mark.parametrize("n", BATCHED_LENGTHS)
def test_dplr_batched_matches_dense_oracle(rng, n, scalar):
    q, k, v, lam = _batched_inputs(rng, (2, 3), n, scalar)
    kappa = rng.normal(size=(2, 3, n, 3))
    kappa /= np.linalg.norm(kappa, axis=-1, keepdims=True)
    beta = rng.uniform(0.05, 0.95, size=(2, 3, n, 1))

    def run(q_, k_, v_, lam_, kappa_, beta_):
        return R.forward_dplr(q_, k_, v_, lam_, kappa_, beta_)

    o = run(q, k, v, lam, kappa, beta)
    o_ref = R.dplr_dense_oracle(q, k, v, lam, kappa, beta)
    assert np.max(np.abs(o.data - o_ref)) <= 1e-10
    assert np.array_equal(_on_tape(run, q, k, v, lam, kappa, beta).data, o.data)


@pytest.mark.parametrize("scalar", [False, True])
@pytest.mark.parametrize("batch,n", [((2, 3), 1), ((2, 3), 5), ((2, 1), R._BLOCK + 3)])
def test_dplr_batched_gradients(rng, batch, n, scalar):
    q, k, v, lam = _batched_inputs(rng, batch, n, scalar, dk=2)
    leaves = {name: Tensor(x, requires_grad=True)
              for name, x in zip(("q", "k", "v", "lam"), (q, k, v, lam))}
    leaves["kappa"] = Tensor(rng.normal(size=batch + (n, 2)), requires_grad=True)
    leaves["beta"] = Tensor(rng.uniform(0.1, 0.9, size=batch + (n, 1)), requires_grad=True)

    def build(lv):
        o = R.forward_dplr(lv["q"], lv["k"], lv["v"], lv["lam"],
                           _unit_rows(lv["kappa"]), lv["beta"])
        return T.tsum(o * o)

    assert grad_check(build, leaves, rel_tol=1e-4) == []


def _chunk_inputs(rng, batch, n, dk=3, dv=2, scalar=True):
    """Inputs with lambda = 0 at t = 0 and on the first chunk boundary, where
    the factorized form of the chunked kernel needs no division."""
    q, k, v, lam = _batched_inputs(rng, batch, n, scalar, dk=dk, dv=dv)
    lam[..., n // 2, :] = 0.5
    if n > R.CHUNK:
        lam[..., R.CHUNK, :] = 0.0
    return q, k, v, lam


@pytest.mark.parametrize("batch,n", [((), 1), ((), R.CHUNK - 3), ((2, 3), R.CHUNK + 5),
                                     ((1,), 2 * R.CHUNK)])
def test_chunked_scalar_gradients(rng, batch, n):
    leaves = {name: Tensor(x, requires_grad=True)
              for name, x in zip(("q", "k", "v", "lam"), _chunk_inputs(rng, batch, n, dk=2))}

    def build(lv):
        o = R.forward_chunked(lv["q"], lv["k"], lv["v"], lv["lam"])
        return T.tsum(o * o)

    assert grad_check(build, leaves, rel_tol=1e-4) == []


@pytest.mark.parametrize("n", [1, 9, 2 * R.CHUNK + 3])
def test_chunked_scalar_is_bitwise_equal_with_and_without_a_tape(rng, n):
    q, k, v, lam = _chunk_inputs(rng, (2, 3), n)
    o = R.forward_chunked(q, k, v, lam)
    assert o.shape == (2, 3, n, 2)
    assert np.max(np.abs(o.data - R.forward_oracle(q, k, v, lam))) <= 1e-10
    assert np.array_equal(_on_tape(R.forward_chunked, q, k, v, lam).data, o.data)


def test_chunked_scalar_gradients_match_the_scan(rng):
    q, k, v, lam = _chunk_inputs(rng, (2,), 3 * R.CHUNK + 1)
    weight = rng.normal(size=(2, 3 * R.CHUNK + 1, 2))

    def grads(kernel):
        leaves = [Tensor(x, requires_grad=True) for x in (q, k, v, lam)]
        with T.Tape():
            T.backward(T.tsum(kernel(*leaves) * weight))
        return [leaf.grad for leaf in leaves]

    for a, b in zip(grads(R.forward_chunked), grads(R.forward_sequential)):
        assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(b))


def test_chunked_skips_the_decay_gradient_for_a_constant_decay(rng):
    q, k, v, lam = _chunk_inputs(rng, (2,), R.CHUNK + 2)
    leaves = [Tensor(x, requires_grad=True) for x in (q, k, v)]
    lam_t = Tensor(lam)
    with T.Tape():
        T.backward(T.tsum(R.forward_chunked(*leaves, lam_t)))
    assert lam_t.grad is None and all(leaf.grad is not None for leaf in leaves)


def test_chunked_vector_gradients(rng):
    inputs = _chunk_inputs(rng, (2,), 2 * R.CHUNK + 3, dk=2, scalar=False)
    leaves = {name: Tensor(x, requires_grad=True)
              for name, x in zip(("q", "k", "v", "lam"), inputs)}

    def build(lv):
        o = R.forward_chunked(lv["q"], lv["k"], lv["v"], lv["lam"])
        return T.tsum(o * o)

    assert grad_check(build, leaves, rel_tol=1e-4) == []


@pytest.mark.parametrize("batch,n", [((), 1), ((), 5), ((2, 3), R.SPAN // 2 + 5),
                                     ((1,), R.SPAN + 9), ((2, 3), R.SPAN + 5),
                                     ((2,), 2 * R.SPAN + R.CHUNK + 1)])
def test_chunked_vector_matches_the_scan_across_spans(rng, batch, n, monkeypatch):
    # no zero past a chunk's first position and none on a span boundary, so
    # the whole call stays on the factorized path and carries the state
    q, k, v, lam = _chunk_inputs(rng, batch, n, scalar=False)
    ref = R.forward_sequential(q, k, v, lam).data
    monkeypatch.setattr(R, "_recurrence", None)
    o = R.forward_chunked(q, k, v, lam)
    assert o.shape == ref.shape
    assert np.max(np.abs(o.data - ref)) <= 1e-10 * max(np.max(np.abs(ref)), 1.0)
    assert np.array_equal(R.forward_chunked(q, k, v, lam).data, o.data)


def _alloc_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("layout", ["contiguous", "model"])
def test_chunked_vector_peak_is_below_the_scan(rng, layout):
    # "model": q, k, v are (h, n, d) views of time-major (n, h, d) arrays, as
    # the per-head projections return them, and lam is contiguous
    shape = (1, 4, 2048, 16)
    q, k, v = (rng.normal(size=shape) for _ in range(3))
    if layout == "model":
        q, k, v = (np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -2, 0)), 0, -2)
                   for x in (q, k, v))
    for width in (1, shape[-1]):
        lam = rng.uniform(0.5, 1.0, size=shape[:-1] + (width,))
        assert (_alloc_peak(R.forward_chunked, q, k, v, lam)
                <= _alloc_peak(R.forward_sequential, q, k, v, lam)), width
