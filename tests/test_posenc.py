import numpy as np
import pytest

from decaylab import posenc as P
from decaylab import tensor as T
from decaylab.tensor import Tensor
from decaylab.verify import grad_check


def test_rope_rejects_odd_dim():
    with pytest.raises(ValueError):
        P.RopeParams(5)


def test_rope_thetas_decreasing():
    params = P.RopeParams(8)
    assert np.all(np.diff(params.thetas) < 0)
    assert params.thetas[0] == 1.0


def test_rope_identity_at_t0(rng):
    params = P.RopeParams(6)
    x = rng.normal(size=(1, 6))
    out = P.rope_apply(Tensor(x), params)
    assert np.max(np.abs(out.data - x)) <= 1e-15


def test_rope_quarter_turn():
    params = P.RopeParams(2)
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    out = P._rotate(x, *P._rope_trig(params, [0.0, np.pi / 2.0]))
    assert np.max(np.abs(out[1] - np.array([0.0, 1.0]))) <= 1e-12


def test_rope_norm_preserving(rng):
    params = P.RopeParams(8)
    x = rng.normal(size=(10, 8))
    out = P.rope_apply(Tensor(x), params).data
    assert np.max(np.abs(np.linalg.norm(out, axis=-1)
                         - np.linalg.norm(x, axis=-1))) <= 1e-12


def test_rope_composition(rng):
    # rotating with position t then position s equals a single rotation by t+s
    params = P.RopeParams(4)
    x = rng.normal(size=(3, 4))
    t = np.array([1.0, 2.0, 5.0])
    s = np.array([3.0, 0.5, 2.0])
    once = P._rotate(x, *P._rope_trig(params, t + s))
    twice = P._rotate(P._rotate(x, *P._rope_trig(params, t)), *P._rope_trig(params, s))
    assert np.max(np.abs(once - twice)) <= 1e-12


def test_rope_inverse(rng):
    params = P.RopeParams(6)
    x = rng.normal(size=(4, 6))
    pos = np.arange(4, dtype=np.float64)
    back = P._rotate(P.rope_apply(Tensor(x), params).data, *P._rope_trig(params, -pos))
    assert np.max(np.abs(back - x)) <= 1e-12


def test_rope_gradient(rng):
    params = P.RopeParams(4)
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def build(leaves):
        y = P.rope_apply(leaves["x"], params)
        return T.tsum(y * y)

    assert grad_check(build, {"x": x}, rel_tol=1e-4) == []


def test_lrpe_t0_is_concat_with_zeros(rng):
    params = P.LrpeParams(rng.normal(size=4))
    x = rng.normal(size=(1, 4))
    out = P.lrpe_apply(Tensor(x), params).data
    assert np.max(np.abs(out[:, :4] - x)) <= 1e-15
    assert np.max(np.abs(out[:, 4:])) <= 1e-15


def test_lrpe_zero_frequency(rng):
    params = P.LrpeParams(np.zeros(3))
    x = rng.normal(size=(5, 3))
    out = P.lrpe_apply(Tensor(x), params).data
    assert np.max(np.abs(out[:, :3] - x)) <= 1e-15
    assert np.max(np.abs(out[:, 3:])) <= 1e-15


def test_lrpe_inner_product_identity(rng):
    thetas = rng.normal(size=6)
    params = P.LrpeParams(thetas)
    q = rng.normal(size=6)
    k = rng.normal(size=6)
    t, s = 7, 3
    # row t of an encoded sequence sits at position t
    eq = P.lrpe_apply(Tensor(np.tile(q, (8, 1))), params).data[t]
    ek = P.lrpe_apply(Tensor(np.tile(k, (8, 1))), params).data[s]
    ref = float((q * k * np.cos((t - s) * thetas)).sum())
    assert abs(float(eq @ ek) - ref) <= 1e-12


def test_lrpe_rejects_non_finite_thetas():
    with pytest.raises(ValueError):
        P.LrpeParams(np.array([1.0, np.inf]))


def test_tpe_zero_memory_limit(rng):
    # gates driven to zero leave only the lag-0 term (a . b) x_t
    d, m = 3, 2
    a = rng.normal(size=(d, m))
    b = rng.normal(size=(d, m))
    params = P.TpeParams(a, b, np.full((d, m), -800.0))
    x = rng.normal(size=(6, d))
    out = P.tpe_apply(Tensor(x), params).data
    ref = (a * b).sum(axis=-1)[None, :] * x
    assert np.max(np.abs(out - ref)) <= 1e-12


def test_tpe_geometric_convolution_by_hand():
    # m=1, a=b=1, gate 0.5: kernel r_i = 0.5^i
    logit = np.log(0.5 / 0.5)  # sigmoid(0) = 0.5
    params = P.TpeParams(np.ones((1, 1)), np.ones((1, 1)), np.full((1, 1), logit))
    x = np.array([[1.0], [0.0], [0.0]])
    out = P.tpe_apply(Tensor(x), params).data
    assert np.max(np.abs(out[:, 0] - np.array([1.0, 0.5, 0.25]))) <= 1e-12


def test_tpe_matches_toeplitz_oracle(rng):
    d, m, n = 4, 3, 9
    params = P.TpeParams(rng.normal(size=(d, m)), rng.normal(size=(d, m)),
                         rng.normal(size=(d, m)))
    x = rng.normal(size=(n, d))
    out = P.tpe_apply(Tensor(x), params).data
    ref = P.tpe_toeplitz_oracle(x, params)
    assert np.max(np.abs(out - ref)) <= 1e-10


def test_tpe_causality(rng):
    d, m, n = 3, 2, 8
    params = P.TpeParams(rng.normal(size=(d, m)), rng.normal(size=(d, m)),
                         rng.normal(size=(d, m)))
    x = rng.normal(size=(n, d))
    base = P.tpe_apply(Tensor(x), params).data
    x2 = x.copy()
    x2[5:] += rng.normal(size=(3, d))
    mod = P.tpe_apply(Tensor(x2), params).data
    assert np.array_equal(base[:5], mod[:5])


def test_tpe_shape_validation():
    with pytest.raises(ValueError):
        P.TpeParams(np.zeros((3, 2)), np.zeros((3, 3)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        P.TpeParams(np.zeros((3, 0)), np.zeros((3, 0)), np.zeros((3, 0)))


def test_tpe_gradient(rng):
    d, m, n = 2, 2, 4
    leaves = {
        "a": Tensor(rng.normal(size=(d, m)), requires_grad=True),
        "b": Tensor(rng.normal(size=(d, m)), requires_grad=True),
        "g": Tensor(rng.normal(size=(d, m)), requires_grad=True),
        "x": Tensor(rng.normal(size=(n, d)), requires_grad=True),
    }

    def build(lv):
        out = P.tpe_apply(lv["x"], P.TpeParams(lv["a"], lv["b"], lv["g"]))
        return T.tsum(out * out)

    assert grad_check(build, leaves, rel_tol=1e-4) == []


def test_rope_decay_no_decay_limit(rng):
    params = P.RopeParams(8)
    n = 12
    q, k = rng.normal(size=(2, n, 8))
    v = rng.normal(size=(n, 5))
    dev = P.rope_decay_equivalence(q, k, v, np.ones(n), params)
    assert dev <= 1e-10


def test_rope_decay_scalar(rng):
    params = P.RopeParams(8)
    for _ in range(20):
        n = int(rng.integers(2, 33))
        q, k = rng.normal(size=(2, n, 8))
        v = rng.normal(size=(n, 4))
        lam = rng.uniform(0.2, 1.0, size=n)
        assert P.rope_decay_equivalence(q, k, v, lam, params) <= 1e-8


def test_rope_decay_pair_duplicated_vector(rng):
    params = P.RopeParams(6)
    n = 16
    q, k = rng.normal(size=(2, n, 6))
    v = rng.normal(size=(n, 4))
    pair = rng.uniform(0.2, 1.0, size=(n, 3))
    lam = np.repeat(pair, 2, axis=-1)
    assert P.rope_decay_equivalence(q, k, v, lam, params) <= 1e-8


def test_rope_decay_rejects_unpaired_vector(rng):
    params = P.RopeParams(4)
    n = 6
    q, k = rng.normal(size=(2, n, 4))
    v = rng.normal(size=(n, 2))
    lam = rng.uniform(0.2, 0.9, size=(n, 4))  # generic, pairs not duplicated
    with pytest.raises(P.ContractError):
        P.rope_decay_equivalence(q, k, v, lam, params)


def test_rope_decay_rejects_wrong_width(rng):
    params = P.RopeParams(4)
    q, k = rng.normal(size=(2, 5, 4))
    v = rng.normal(size=(5, 2))
    with pytest.raises(P.ContractError):
        P.rope_decay_equivalence(q, k, v, np.full((5, 3), 0.5), params)


def test_rope_apply_gradient(rng):
    # a squared norm is blind to the rotation (its gradient is 2x whatever the
    # angles); a random weight makes the backward of both strided takes count
    params = P.RopeParams(6)
    x = Tensor(rng.normal(size=(2, 5, 6)), requires_grad=True)
    weight = rng.normal(size=(2, 5, 6))

    def build(leaves):
        return T.tsum(P.rope_apply(leaves["x"], params) * weight)

    assert grad_check(build, {"x": x}, rel_tol=1e-6) == []


def _composed_rope(x, params):
    # the rotation as generic tape ops: strided takes, products, interleave
    cos, sin = P._rope_trig(params, np.arange(x.shape[-2]))
    xe, xo = x[..., 0::2], x[..., 1::2]
    ye = xe * cos - xo * sin
    yo = xe * sin + xo * cos
    stacked = T.concat([T.reshape(ye, ye.shape + (1,)), T.reshape(yo, yo.shape + (1,))], axis=-1)
    return T.reshape(stacked, x.shape)


def test_rope_apply_is_one_node_equal_to_composed_formula(rng):
    params = P.RopeParams(8)
    x = Tensor(rng.normal(size=(2, 3, 7, 8)), requires_grad=True)
    weight = rng.normal(size=(2, 3, 7, 8))
    results = []
    for fn in (P.rope_apply, _composed_rope):
        with T.Tape() as tape:
            h = x * 1.0  # an intermediate, as q and k are in the model
            y = fn(h, params)
            nodes = len(tape.nodes) - 1
            T.backward(T.tsum(y * weight))
        results.append((nodes, y.data, x.grad))
        x.grad = None
    (nodes, value, grad), (_, ref_value, ref_grad) = results
    assert nodes == 1
    assert value.tobytes() == ref_value.tobytes()
    assert grad.tobytes() == ref_grad.tobytes()
