import numpy as np
import pytest

from decaylab import posenc as P
from decaylab import tensor as T
from decaylab.model import ModelConfig
from decaylab.tensor import Tensor
from decaylab.verify import grad_check

BASE = ModelConfig.rope_base


def test_rope_rejects_odd_dim():
    with pytest.raises(ValueError, match="even"):
        P.rope_apply(np.zeros((3, 5)), BASE)


def test_rope_thetas_decreasing():
    thetas = P._thetas(8, BASE)
    assert np.all(np.diff(thetas) < 0)
    assert thetas[0] == 1.0


def test_rope_identity_at_t0(rng):
    x = rng.normal(size=(1, 6))
    out = P.rope_apply(Tensor(x), BASE)
    assert np.max(np.abs(out.data - x)) <= 1e-15


def test_rope_quarter_turn():
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    out = P._rotate(x, *P._rope_trig(2, BASE, [0.0, np.pi / 2.0]))
    assert np.max(np.abs(out[1] - np.array([0.0, 1.0]))) <= 1e-12


def test_rope_norm_preserving(rng):
    x = rng.normal(size=(10, 8))
    out = P.rope_apply(Tensor(x), BASE).data
    assert np.max(np.abs(np.linalg.norm(out, axis=-1)
                         - np.linalg.norm(x, axis=-1))) <= 1e-12


def test_rope_composition(rng):
    # rotating with position t then position s equals a single rotation by t+s
    x = rng.normal(size=(3, 4))
    t = np.array([1.0, 2.0, 5.0])
    s = np.array([3.0, 0.5, 2.0])
    once = P._rotate(x, *P._rope_trig(4, BASE, t + s))
    twice = P._rotate(P._rotate(x, *P._rope_trig(4, BASE, t)), *P._rope_trig(4, BASE, s))
    assert np.max(np.abs(once - twice)) <= 1e-12


def test_rope_inverse(rng):
    x = rng.normal(size=(4, 6))
    pos = np.arange(4, dtype=np.float64)
    back = P._rotate(P.rope_apply(Tensor(x), BASE).data, *P._rope_trig(6, BASE, -pos))
    assert np.max(np.abs(back - x)) <= 1e-12


def test_rope_gradient(rng):
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def build(leaves):
        y = P.rope_apply(leaves["x"], BASE)
        return T.tsum(y * y)

    assert grad_check(build, {"x": x}, rel_tol=1e-4) == []


def test_lrpe_t0_is_concat_with_zeros(rng):
    x = rng.normal(size=(1, 4))
    out = P.lrpe_apply(Tensor(x), rng.normal(size=4)).data
    assert np.max(np.abs(out[:, :4] - x)) <= 1e-15
    assert np.max(np.abs(out[:, 4:])) <= 1e-15


def test_lrpe_zero_frequency(rng):
    x = rng.normal(size=(5, 3))
    out = P.lrpe_apply(Tensor(x), np.zeros(3)).data
    assert np.max(np.abs(out[:, :3] - x)) <= 1e-15
    assert np.max(np.abs(out[:, 3:])) <= 1e-15


def test_lrpe_inner_product_identity(rng):
    thetas = rng.normal(size=6)
    q = rng.normal(size=6)
    k = rng.normal(size=6)
    t, s = 7, 3
    # row t of an encoded sequence sits at position t
    eq = P.lrpe_apply(Tensor(np.tile(q, (8, 1))), thetas).data[t]
    ek = P.lrpe_apply(Tensor(np.tile(k, (8, 1))), thetas).data[s]
    ref = float((q * k * np.cos((t - s) * thetas)).sum())
    assert abs(float(eq @ ek) - ref) <= 1e-12


def test_lrpe_rejects_non_finite_thetas():
    with pytest.raises(ValueError, match="finite"):
        P.lrpe_apply(np.zeros((3, 2)), np.array([1.0, np.inf]))


def test_tpe_zero_memory_limit(rng):
    # gates driven to zero leave only the lag-0 term (a . b) x_t
    d, m = 3, 2
    a = rng.normal(size=(d, m))
    b = rng.normal(size=(d, m))
    x = rng.normal(size=(6, d))
    out = P.tpe_apply(Tensor(x), a, b, np.full((d, m), -800.0)).data
    ref = (a * b).sum(axis=-1)[None, :] * x
    assert np.max(np.abs(out - ref)) <= 1e-12


def test_tpe_geometric_convolution_by_hand():
    # m=1, a=b=1, gate 0.5: kernel r_i = 0.5^i
    logit = np.log(0.5 / 0.5)  # sigmoid(0) = 0.5
    x = np.array([[1.0], [0.0], [0.0]])
    out = P.tpe_apply(Tensor(x), np.ones((1, 1)), np.ones((1, 1)), np.full((1, 1), logit)).data
    assert np.max(np.abs(out[:, 0] - np.array([1.0, 0.5, 0.25]))) <= 1e-12


def test_tpe_matches_toeplitz_oracle(rng):
    d, m, n = 4, 3, 9
    params = rng.normal(size=(3, d, m))
    x = rng.normal(size=(n, d))
    out = P.tpe_apply(Tensor(x), *params).data
    ref = P.tpe_toeplitz_oracle(x, *params)
    assert np.max(np.abs(out - ref)) <= 1e-10


def test_tpe_causality(rng):
    d, m, n = 3, 2, 8
    params = rng.normal(size=(3, d, m))
    x = rng.normal(size=(n, d))
    base = P.tpe_apply(Tensor(x), *params).data
    x2 = x.copy()
    x2[5:] += rng.normal(size=(3, d))
    mod = P.tpe_apply(Tensor(x2), *params).data
    assert np.array_equal(base[:5], mod[:5])


def test_tpe_shape_validation():
    x = np.zeros((4, 3))
    with pytest.raises(ValueError, match="share shape"):
        P.tpe_apply(x, np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="share shape"):
        P.tpe_apply(x, np.zeros((3, 2)), np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match=">= 1"):
        P.tpe_apply(x, np.zeros((3, 0)), np.zeros((3, 0)), np.zeros((3, 0)))


def test_tpe_gradient(rng):
    d, m, n = 2, 2, 4
    leaves = {
        "a": Tensor(rng.normal(size=(d, m)), requires_grad=True),
        "b": Tensor(rng.normal(size=(d, m)), requires_grad=True),
        "g": Tensor(rng.normal(size=(d, m)), requires_grad=True),
        "x": Tensor(rng.normal(size=(n, d)), requires_grad=True),
    }

    def build(lv):
        out = P.tpe_apply(lv["x"], lv["a"], lv["b"], lv["g"])
        return T.tsum(out * out)

    assert grad_check(build, leaves, rel_tol=1e-4) == []


def test_rope_decay_no_decay_limit(rng):
    n = 12
    q, k = rng.normal(size=(2, n, 8))
    v = rng.normal(size=(n, 5))
    dev = P.rope_decay_equivalence(q, k, v, np.ones(n), BASE)
    assert dev <= 1e-10


def test_rope_decay_scalar(rng):
    for _ in range(20):
        n = int(rng.integers(2, 33))
        q, k = rng.normal(size=(2, n, 8))
        v = rng.normal(size=(n, 4))
        lam = rng.uniform(0.2, 1.0, size=n)
        assert P.rope_decay_equivalence(q, k, v, lam, BASE) <= 1e-8


def test_rope_decay_pair_duplicated_vector(rng):
    n = 16
    q, k = rng.normal(size=(2, n, 6))
    v = rng.normal(size=(n, 4))
    pair = rng.uniform(0.2, 1.0, size=(n, 3))
    lam = np.repeat(pair, 2, axis=-1)
    assert P.rope_decay_equivalence(q, k, v, lam, BASE) <= 1e-8


def test_rope_decay_rejects_unpaired_vector(rng):
    n = 6
    q, k = rng.normal(size=(2, n, 4))
    v = rng.normal(size=(n, 2))
    lam = rng.uniform(0.2, 0.9, size=(n, 4))  # generic, pairs not duplicated
    with pytest.raises(P.ContractError):
        P.rope_decay_equivalence(q, k, v, lam, BASE)


def test_rope_decay_rejects_wrong_width(rng):
    q, k = rng.normal(size=(2, 5, 4))
    v = rng.normal(size=(5, 2))
    with pytest.raises(P.ContractError):
        P.rope_decay_equivalence(q, k, v, np.full((5, 3), 0.5), BASE)


def test_rope_apply_gradient(rng):
    # a squared norm is blind to the rotation (its gradient is 2x whatever the
    # angles); a random weight makes the backward of both strided takes count
    x = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
    weight = rng.normal(size=(2, 5, 6))

    def build(leaves):
        return T.tsum(P.rope_apply(leaves["x"], BASE) * weight)

    assert grad_check(build, {"x": x}, rel_tol=1e-6) == []


def _composed_rope(x, base):
    # the rotation as generic tape ops: strided takes, products, interleave
    cos, sin = P._rope_trig(x.shape[-1], base, np.arange(x.shape[-2]))
    xe, xo = x[..., 0::2], x[..., 1::2]
    ye = xe * cos - xo * sin
    yo = xe * sin + xo * cos
    stacked = T.concat([T.reshape(ye, ye.shape + (1,)), T.reshape(yo, yo.shape + (1,))], axis=-1)
    return T.reshape(stacked, x.shape)


def test_rope_apply_is_one_node_equal_to_composed_formula(rng):
    x = Tensor(rng.normal(size=(2, 3, 7, 8)), requires_grad=True)
    weight = rng.normal(size=(2, 3, 7, 8))
    results = []
    for fn in (P.rope_apply, _composed_rope):
        with T.Tape() as tape:
            h = x * 1.0  # an intermediate, as q and k are in the model
            y = fn(h, BASE)
            nodes = len(tape.nodes) - 1
            T.backward(T.tsum(y * weight))
        results.append((nodes, y.data, x.grad))
        x.grad = None
    (nodes, value, grad), (_, ref_value, ref_grad) = results
    assert nodes == 1
    assert value.tobytes() == ref_value.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
