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


def test_chunked_single_chunk_matches_oracle(rng):
    n, dk, dv = 12, 4, 3
    q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
    lam = rng.uniform(0.1, 1.0, size=(n, dk))
    o_ch = R.forward_chunked(q, k, v, lam)
    o_ref = R.forward_oracle(q, k, v, lam)
    assert np.max(np.abs(o_ch.data - o_ref)) <= 1e-10


def test_chunked_ragged_tail(rng):
    n, dk, dv = 257, 4, 3
    q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
    lam = 1.0 / (1.0 + np.exp(-rng.normal(0.0, 2.0, size=(n, dk))))
    o_seq = R.forward_sequential(q, k, v, lam)
    o_ch = R.forward_chunked(q, k, v, lam)
    assert np.max(np.abs(o_ch.data - o_seq.data)) <= 1e-8


def test_chunked_handles_zero_decay(rng):
    # a zero inside a chunk sends the call to the scan
    n, dk, dv = 16, 3, 2
    q, k, v = (rng.normal(size=(n, d)) for d in (dk, dk, dv))
    lam = rng.uniform(0.0, 1.0, size=(n, dk))
    lam[0] = 0.0
    lam[7] = 0.0
    o_seq = R.forward_sequential(q, k, v, lam)
    o_ch = R.forward_chunked(q, k, v, lam)
    assert np.max(np.abs(o_ch.data - o_seq.data)) <= 1e-10


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


def test_finite_inputs_whose_sum_overflows_are_accepted(rng):
    v = np.array([[1e308], [1e308]])
    with np.errstate(over="ignore"):
        assert not np.isfinite(v.sum())
    q, k = (rng.normal(size=(2, 1)) for _ in range(2))
    R._check_shapes(q, k, v, np.full((2, 1), 0.5))
    R._check_shapes(v, v, v, np.full((2, 1), 0.5), kappa=v, beta=v)


@pytest.mark.parametrize("name", ["q", "k", "v", "lam"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_inputs_are_rejected_by_name(rng, name, bad):
    args = dict(q=rng.normal(size=(3, 2)), k=rng.normal(size=(3, 2)),
                v=rng.normal(size=(3, 2)), lam=rng.uniform(0.1, 1.0, size=(3, 2)))
    args[name][1, 0] = bad
    with pytest.raises(ValueError, match=f"non-finite values in {name}"):
        R.forward_sequential(**args)


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


def _dplr_routes(monkeypatch, rng, batch, n, scalar, dk=3):
    """Inputs for both routes of the DPLR kernel: a zero at n // 2 sends the
    call to the scan, and ``_chunk_inputs`` keep the chunk form, which must
    then run with the scan removed."""
    yield _batched_inputs(rng, batch, n, scalar, dk=dk)
    with monkeypatch.context() as m:
        m.setattr(R, "_recurrence", None)
        yield _chunk_inputs(rng, batch, n, dk=dk, scalar=scalar)


@pytest.mark.parametrize("scalar", [False, True])
@pytest.mark.parametrize("n", BATCHED_LENGTHS)
def test_dplr_batched_matches_dense_oracle(rng, n, scalar, monkeypatch):
    def run(q_, k_, v_, lam_, kappa_, beta_):
        return R.forward_dplr(q_, k_, v_, lam_, kappa_, beta_)

    for q, k, v, lam in _dplr_routes(monkeypatch, rng, (2, 3), n, scalar):
        kappa = rng.normal(size=(2, 3, n, 3))
        kappa /= np.linalg.norm(kappa, axis=-1, keepdims=True)
        beta = rng.uniform(0.05, 0.95, size=(2, 3, n, 1))
        o = run(q, k, v, lam, kappa, beta)
        o_ref = R.dplr_dense_oracle(q, k, v, lam, kappa, beta)
        assert np.max(np.abs(o.data - o_ref)) <= 1e-10
        assert np.array_equal(_on_tape(run, q, k, v, lam, kappa, beta).data, o.data)


@pytest.mark.parametrize("scalar", [False, True])
@pytest.mark.parametrize("batch,n", [((2, 3), 1), ((2, 3), 5), ((2, 1), R._BLOCK + 3)])
def test_dplr_batched_gradients(rng, batch, n, scalar, monkeypatch):
    def build(lv):
        o = R.forward_dplr(lv["q"], lv["k"], lv["v"], lv["lam"],
                           _unit_rows(lv["kappa"]), lv["beta"])
        return T.tsum(o * o)

    for inputs in _dplr_routes(monkeypatch, rng, batch, n, scalar, dk=2):
        leaves = {name: Tensor(x, requires_grad=True)
                  for name, x in zip(("q", "k", "v", "lam"), inputs)}
        leaves["kappa"] = Tensor(rng.normal(size=batch + (n, 2)), requires_grad=True)
        leaves["beta"] = Tensor(rng.uniform(0.1, 0.9, size=batch + (n, 1)), requires_grad=True)
        assert grad_check(build, leaves, rel_tol=1e-4) == []


def _chunk_inputs(rng, batch, n, dk=3, dv=2, scalar=True):
    """Inputs with lambda = 0 at t = 0 and on the first chunk boundary, where
    the chunk kernels need no division."""
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


@pytest.mark.parametrize("n", [1, 9, 2 * R.CHUNK + 3, 2 * R._span((2, 2)) + 5])
def test_chunked_scalar_is_bitwise_equal_with_and_without_a_tape(rng, n):
    # and vector: at 2 spans + 5 both calls run three spans
    for scalar in (True, False):
        q, k, v, lam = _chunk_inputs(rng, (2, 2), n, scalar=scalar)
        o = R.forward_chunked(q, k, v, lam)
        assert o.shape == (2, 2, n, 2)
        assert np.max(np.abs(o.data - R.forward_oracle(q, k, v, lam))) <= 1e-10
        assert np.array_equal(_on_tape(R.forward_chunked, q, k, v, lam).data, o.data)


@pytest.mark.parametrize("n", [1, 37, 300, 2 * R._span((2, 2)) + 11])
def test_dplr_is_bitwise_equal_with_and_without_a_tape(rng, n, monkeypatch):
    # at widths 1 and dk, on the chunk path alone; at 300 both calls run two
    # spans, at 2 spans + 11 three
    monkeypatch.setattr(R, "_recurrence", None)
    for scalar in (True, False):
        args = _with_transition(rng, R.forward_dplr,
                                *_chunk_inputs(rng, (2, 2), n, scalar=scalar))
        o = R.forward_dplr(*args)
        assert np.array_equal(_on_tape(R.forward_dplr, *args).data, o.data)


def test_chunked_runs_an_empty_sequence_with_and_without_a_tape():
    q, v, lam = np.zeros((2, 0, 3)), np.zeros((2, 0, 2)), np.ones((2, 0, 1))
    assert R.forward_chunked(q, q, v, lam).shape == (2, 0, 2)
    leaves = [Tensor(x, requires_grad=True) for x in (q, q, v, lam)]
    with T.Tape():
        T.backward(T.tsum(R.forward_chunked(*leaves)))
    assert [leaf.grad.shape for leaf in leaves] == [x.shape for x in (q, q, v, lam)]


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


def _with_transition(rng, kernel, q, k, v, lam):
    """The arguments of ``kernel`` and of the scan ``R._recurrence``: q, k, v,
    lam and, for ``forward_dplr``, unit kappa rows and beta."""
    if kernel is R.forward_chunked:
        return q, k, v, lam
    kappa = rng.normal(size=q.shape)
    kappa /= np.linalg.norm(kappa, axis=-1, keepdims=True)
    return q, k, v, lam, kappa, rng.uniform(0.05, 0.95, size=q.shape[:-1] + (1,))


def _scan(*arrays):
    """The scan ``R._recurrence`` on plain arrays."""
    return R._recurrence(*(T.as_tensor(x) for x in arrays))


@pytest.mark.parametrize("batch,n", [((), 1), ((), 5), ((1, 4), R._span((1, 4)) // 2 + 5),
                                     ((1, 4), R._span((1, 4)) + 9), ((4,), R._span((4,)) + 5),
                                     ((2, 2), 2 * R._span((2, 2)) + R.CHUNK + 1),
                                     ((8, 4), 3 * R._span((8, 4)) + 5)])
def test_chunked_vector_matches_the_scan_across_spans(rng, batch, n, monkeypatch):
    # both chunk kernels; no zero past a chunk's first position and none on a
    # span boundary, so the whole call stays on the chunk path and carries
    # the state, with a tape and without: over up to three spans of 256
    # positions and, at (8, 4), the training geometry, over four of 32
    for kernel, tol in ((R.forward_chunked, 1e-10), (R.forward_dplr, 1e-12)):
        args = _with_transition(rng, kernel, *_chunk_inputs(rng, batch, n, scalar=False))
        ref = _scan(*args).data
        with monkeypatch.context() as m:
            m.setattr(R, "_recurrence", None)
            o = kernel(*args)
            assert o.shape == ref.shape
            assert np.max(np.abs(o.data - ref)) <= tol * max(np.max(np.abs(ref)), 1.0), kernel
            assert np.array_equal(_on_tape(kernel, *args).data, o.data)


def _taped_outputs_and_grads(kernel, args, g):
    leaves = [Tensor(x, requires_grad=True) for x in args]
    with T.Tape():
        o = kernel(*leaves)
        T.backward(T.tsum(o * g))
    return [o.data] + [leaf.grad for leaf in leaves]


@pytest.mark.parametrize("kernel", [R.forward_chunked, R.forward_dplr])
@pytest.mark.parametrize("batch", [1, 3, 5, 8])
def test_a_call_in_spans_is_bitwise_one_span(rng, kernel, batch, monkeypatch):
    # the outputs, with a tape and without, and every gradient of a call in
    # spans of one chunk and of the default R.ROWS, against one span over the
    # whole sequence; at widths 1 and dk, one chunk-aligned n and two ragged
    # ones
    monkeypatch.setattr(R, "_recurrence", None)
    for n in (37, 128, 300):
        for scalar in (True, False):
            args = _with_transition(rng, kernel, *_chunk_inputs(rng, (batch, 2), n, dk=8, dv=8,
                                                                scalar=scalar))
            g = rng.normal(size=(batch, 2, n, 8))
            results = []
            for rows in (batch * 2 * (n + R.CHUNK), 1, R.ROWS):  # one span, one chunk, default
                with monkeypatch.context() as m:
                    m.setattr(R, "ROWS", rows)
                    results.append([kernel(*args).data] + _taped_outputs_and_grads(kernel, args, g))
            for got in results[1:]:
                assert all(np.array_equal(a, b) for a, b in zip(got, results[0])), (n, scalar)


def _alloc_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("layout", ["contiguous", "model"])
def test_chunked_vector_peak_is_below_the_scan(rng, layout):
    # both chunk kernels, each against the scan of its recurrence; "model":
    # q, k, v are (h, n, d) views of time-major (n, h, d) arrays, as the
    # per-head projections return them, and lam is contiguous
    shape = (1, 4, 2048, 16)
    q, k, v = (rng.normal(size=shape) for _ in range(3))
    if layout == "model":
        q, k, v = (np.moveaxis(np.ascontiguousarray(np.moveaxis(x, -2, 0)), 0, -2)
                   for x in (q, k, v))
    for kernel, scan in ((R.forward_chunked, R.forward_sequential), (R.forward_dplr, _scan)):
        for width in (1, shape[-1]):
            lam = rng.uniform(0.5, 1.0, size=shape[:-1] + (width,))
            args = _with_transition(rng, kernel, q, k, v, lam)
            assert _alloc_peak(kernel, *args) <= _alloc_peak(scan, *args), (kernel, width)


# one taped forward_dplr, lam of width dk (tracemalloc, numpy 2.4).  At
# (8, 4, 128, 16), in four spans of 32 positions: 3.55 MB live after the
# forward, a 5.93 MB peak in the forward and an 8.89 MB peak through the
# backward; 3.6, 5.9 and 8.75 MB in four batch slices, each over the whole
# sequence, 12.3 and 14.6 MB peaks over the whole batch at once, and 24.8 MB
# through the backward when it held the pair matrices, B and [V; U]
DPLR_LIVE_MB, DPLR_FORWARD_PEAK_MB, DPLR_PEAK_MB = 3.8, 6.2, 9.2
# At (1, 4, 2048, 16), in eight spans of 256 positions: a 9.37 MB peak in
# the forward and 15.31 MB through the backward, against 24.2 and 29.1 MB in
# one span over the whole sequence; the bounds are 5 % and 4.5 % above them
LONG_FORWARD_PEAK_MB, LONG_PEAK_MB = 9.84, 16.0


def _taped_dplr_memory(rng, shape):
    """MB live after one taped forward_dplr on ``shape``, lam of width dk,
    and the peaks of its forward and its backward; checks every gradient."""
    q, k, v, g = (rng.normal(size=shape) for _ in range(4))
    args = _with_transition(rng, R.forward_dplr, q, k, v, rng.uniform(0.5, 1.0, size=shape))
    leaves = [Tensor(x, requires_grad=True) for x in args]
    tracemalloc.start()
    try:
        with T.Tape():
            o = R.forward_dplr(*leaves)
            live, forward_peak = (x / 2**20 for x in tracemalloc.get_traced_memory())
            tracemalloc.reset_peak()
            T.backward(T.tsum(o * g))
        peak = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    assert all(leaf.grad is not None for leaf in leaves)
    return live, forward_peak, peak


def test_a_taped_dplr_call_keeps_only_what_its_backward_reads(rng):
    live, forward_peak, peak = _taped_dplr_memory(rng, (8, 4, 128, 16))
    assert live <= DPLR_LIVE_MB
    assert forward_peak <= DPLR_FORWARD_PEAK_MB
    assert peak <= DPLR_PEAK_MB


def test_a_long_taped_dplr_call_peaks_at_a_spans_working_set(rng):
    _, forward_peak, peak = _taped_dplr_memory(rng, (1, 4, 2048, 16))
    assert forward_peak <= LONG_FORWARD_PEAK_MB
    assert peak <= LONG_PEAK_MB
