import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decaylab import tensor as T
from decaylab.tensor import ShapeError, Tape, Tensor, backward
from decaylab.verify import finite_difference, grad_check


def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = T.matmul(Tensor(np.eye(2)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_matmul_projector_row():
    p = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[5.0, 6.0], [7.0, 8.0]])
    out = T.matmul(Tensor(p), Tensor(b))
    assert np.array_equal(out.data, np.array([[5.0, 6.0], [0.0, 0.0]]))


def test_matmul_dot_product():
    out = T.matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        T.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 5))))
    msg = str(exc.value)
    assert "(2, 3)" in msg and "(4, 5)" in msg


def test_matmul_rejects_a_one_axis_operand():
    for a, b in ((np.ones(3), np.ones((3, 2))), (np.ones((2, 3)), np.ones(3))):
        with pytest.raises(ShapeError):
            T.matmul(Tensor(a), Tensor(b))


def test_broadcast_batched_matmul_gradient():
    # the low-rank decay path: (..., 1, n, d) @ (d, r), then @ (h, r, dk)
    rng = np.random.Generator(np.random.Philox(22))
    leaves = {"a": Tensor(rng.normal(size=(2, 1, 3, 4)), requires_grad=True),
              "b": Tensor(rng.normal(size=(5, 4, 2)), requires_grad=True)}
    weight = rng.normal(size=(2, 5, 3, 2))

    def build(lv):
        return T.tsum(T.matmul(lv["a"], lv["b"]) * weight)

    assert grad_check(build, leaves, rel_tol=1e-6) == []


def test_matmul_associativity():
    rng = np.random.Generator(np.random.Philox(11))
    a, b, c = (rng.normal(size=(4, 4)) for _ in range(3))
    left = T.matmul(T.matmul(Tensor(a), Tensor(b)), Tensor(c)).data
    right = T.matmul(Tensor(a), T.matmul(Tensor(b), Tensor(c))).data
    assert np.max(np.abs(left - right)) <= 1e-10


def test_sigmoid_values():
    assert T.sigmoid(Tensor(0.0)).item() == 0.5
    assert abs(T.sigmoid(Tensor(40.0)).item() - 1.0) <= 1e-15
    assert abs(T.sigmoid(Tensor(4.5951)).item() - 0.99) < 1e-4
    # exact at the argsigmoid point
    assert abs(T.sigmoid(Tensor(np.log(99.0))).item() - 0.99) <= 1e-15


def test_sigmoid_stable_on_tails():
    lo = T.sigmoid(Tensor(-750.0)).item()
    hi = T.sigmoid(Tensor(750.0)).item()
    assert 0.0 <= lo < 1e-300
    assert hi == 1.0


def test_silu_values():
    assert T.silu(Tensor(0.0)).item() == 0.0
    assert abs(T.silu(Tensor(1.0)).item() - 0.7311) < 1e-4
    assert abs(T.silu(Tensor(-1.0)).item() - (-0.2689)) < 1e-4
    assert abs(T.silu(Tensor(1.0)).item() + T.silu(Tensor(-1.0)).item() - 0.4622) < 1e-4
    assert abs(T.silu(Tensor(-40.0)).item()) <= 1e-15


def test_rmsnorm_zero_input():
    out = T.rmsnorm(Tensor(np.zeros((2, 4))), Tensor(np.ones(4)), eps=1e-6)
    assert np.array_equal(out.data, np.zeros((2, 4)))


def test_rmsnorm_hand_value():
    out = T.rmsnorm(Tensor([3.0, 4.0]), Tensor(np.ones(2)), eps=0.0)
    # rms = sqrt((9 + 16) / 2) = sqrt(12.5)
    ref = np.array([3.0, 4.0]) / np.sqrt(12.5)
    assert np.max(np.abs(out.data - ref)) <= 1e-12
    assert abs(out.data[0] - 0.8485) < 1e-4
    assert abs(out.data[1] - 1.1314) < 1e-4


def test_rmsnorm_scale_invariance():
    rng = np.random.Generator(np.random.Philox(13))
    x = rng.normal(size=(3, 6))
    g = Tensor(np.ones(6))
    a = T.rmsnorm(Tensor(x), g, eps=0.0).data
    b = T.rmsnorm(Tensor(7.5 * x), g, eps=0.0).data
    assert np.max(np.abs(a - b)) <= 1e-12


def test_rmsnorm_unit_rms():
    rng = np.random.Generator(np.random.Philox(14))
    x = rng.normal(size=(4, 8)) + 0.1
    out = T.rmsnorm(Tensor(x), Tensor(np.ones(8)), eps=0.0).data
    rms = np.sqrt((out ** 2).mean(axis=-1))
    assert np.max(np.abs(rms - 1.0)) <= 1e-12


def test_backward_sum_gives_ones():
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape():
        backward(T.tsum(x))
    assert np.array_equal(x.grad, np.ones((2, 3)))


def test_backward_sigmoid_at_zero():
    x = Tensor(0.0, requires_grad=True)
    with Tape():
        backward(T.sigmoid(x))
    assert x.grad == 0.25


def test_backward_rejects_non_scalar_root():
    x = Tensor(np.zeros(3), requires_grad=True)
    with Tape():
        y = x + 1.0
        with pytest.raises(ValueError):
            backward(y)


def test_backward_requires_tape():
    x = Tensor(1.0, requires_grad=True)
    with pytest.raises(RuntimeError):
        backward(x)


def test_tape_frees_graph_on_exit():
    # a graph that backward never walked keeps its saved arrays until the
    # block ends; the graph has no reference cycles, so they go then without
    # the cyclic collector, although the caller still holds the root
    x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    gc.disable()
    try:
        with Tape():
            h = T.exp(x)
            ref = weakref.ref(h.data)
            loss = T.tsum(T.sigmoid(h))
            del h
            assert ref() is not None  # exp's rule saves its output
        assert ref() is None
        e = np.exp(x.data)
        assert loss.item() == float(np.sum(1.0 / (1.0 + np.exp(-e))))
    finally:
        gc.enable()
    with pytest.raises(RuntimeError):
        backward(T.tsum(x * x))


def test_sigmoid_and_softplus_grad_match_three_exp_formula():
    # sigmoid is 1 / (1 + exp(-x)) in one buffer: bitwise that formula, within
    # 4 ulp of the earlier stable three-exp formula wherever that is normal, and
    # 0 below x = -709.78 where the earlier formula gave a subnormal
    rng = np.random.Generator(np.random.Philox(16))
    x = np.concatenate([np.linspace(-800.0, 800.0, 4001), rng.normal(0.0, 30.0, 1000),
                        [0.0, -0.0, 1e-300, -1e-300, 36.7, -36.7, 745.2, -745.2]])
    with np.errstate(over="ignore"):
        ref = 1.0 / (1.0 + np.exp(-x))
    assert np.array_equal(T.sigmoid(Tensor(x)).data, ref)
    three_exp = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                         np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
    normal = three_exp >= np.finfo(np.float64).tiny
    err = np.abs(ref - three_exp)
    assert np.all(err[normal] <= 4.0 * np.spacing(three_exp[normal]))
    assert np.all(err[~normal] <= 1e-300)
    xt = Tensor(x, requires_grad=True)
    with Tape():
        backward(T.tsum(T.softplus(xt)))
    assert np.array_equal(xt.grad, ref)


@pytest.mark.parametrize("shape", [(), (7,), (2, 3, 5)])
@pytest.mark.parametrize("op", [T.sigmoid, T.silu, T.softplus])
def test_activations_keep_shape_and_stay_finite_on_tails(op, shape):
    for edge in (-800.0, 800.0):
        xt = Tensor(np.full(shape, edge), requires_grad=True)
        with Tape():
            out = op(xt)
            backward(T.tsum(out))
        for arr in (out.data, xt.grad):
            assert isinstance(arr, np.ndarray) and arr.dtype == np.float64
            assert arr.shape == shape and np.all(np.isfinite(arr))


def test_activation_rules_match_their_formulas_bitwise():
    # the in-place rules keep the evaluation order of the formulas they replace
    rng = np.random.Generator(np.random.Philox(22))
    x = np.concatenate([rng.normal(0.0, 4.0, 997), [-800.0, -40.0, 0.0, 40.0, 800.0]])
    g = rng.normal(size=x.shape)
    s = T._sigmoid(x)
    refs = {T.sigmoid: (s, g * s * (1.0 - s)),
            T.silu: (x * s, g * s * (1.0 + x * (1.0 - s))),
            T.softplus: (np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x))), g * s)}
    for op, (value, grad) in refs.items():
        xt = Tensor(x, requires_grad=True)
        with Tape():
            out = op(xt)
            backward(T.tsum(out * g))
        assert np.array_equal(out.data, value)
        assert np.array_equal(xt.grad, grad)


def test_silu_rule_saves_only_its_input():
    # the rule rebuilds sigmoid(x) in backward rather than saving it
    x = Tensor(np.linspace(-3.0, 3.0, 12).reshape(3, 4), requires_grad=True)
    with Tape() as tape:
        T.silu(x)
        (node,) = tape.nodes
        held = [c.cell_contents for c in node._backward.__closure__]
    arrays = [a for a in held if isinstance(a, np.ndarray)]
    assert len(arrays) == 1 and arrays[0] is x.data


def test_composed_expression_matches_finite_differences():
    rng = np.random.Generator(np.random.Philox(15))
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)

    def build(leaves):
        h = T.silu(T.matmul(leaves["x"], leaves["w"]))
        return T.tsum(T.sigmoid(h) * h)

    assert grad_check(build, {"x": x, "w": w}, rel_tol=1e-4) == []


@pytest.mark.parametrize("op", [T.exp, T.sqrt, T.sigmoid, T.silu, T.softplus])
def test_elementwise_op_gradients(op):
    rng = np.random.Generator(np.random.Philox(16))
    x = Tensor(rng.uniform(0.2, 2.0, size=(2, 5)), requires_grad=True)

    def build(leaves, _op=op):
        return T.tsum(_op(leaves["x"]) * 1.5)

    assert grad_check(build, {"x": x}, rel_tol=1e-4) == []


def test_reduction_and_shape_op_gradients():
    rng = np.random.Generator(np.random.Philox(17))
    x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)

    def build(leaves):
        a = T.reshape(leaves["x"], (4, 3))
        b = T.transpose(a, (1, 0))
        c = T.concat([b, leaves["y"]], axis=-1)
        d = T.tsum(c * c, axis=-1)
        return T.tsum(d * d) * (1.0 / d.size)

    assert grad_check(build, {"x": x, "y": y}, rel_tol=1e-4) == []


def test_take_gradient_scatter_adds():
    x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
    idx = np.array([0, 0, 2])
    with Tape():
        backward(T.tsum(x[idx]))
    assert np.array_equal(x.grad, np.array([2.0, 0.0, 1.0]))


@pytest.mark.parametrize("shape, idx", [
    ((3,), np.array([0, 0, 2, -1, 2, 0])),
    ((37, 6), np.array([[3, 3, 0, 36, -1, 3], [5, -37, 3, 5, 5, 36]])),
])
def test_take_gradient_matches_add_at_bitwise(shape, idx):
    # repeated ids sum in position order, as np.add.at does; negative ids count
    # from the end, as in numpy indexing
    rng = np.random.Generator(np.random.Philox(23))
    table = Tensor(rng.normal(size=shape), requires_grad=True)
    weight = rng.normal(0.0, 1e3, size=idx.shape + shape[1:])
    with Tape():
        out = table[idx]
        backward(T.tsum(out * weight))
    ref = np.zeros(shape)
    np.add.at(ref, idx, weight)
    assert np.array_equal(out.data, table.data[idx])
    assert np.array_equal(table.grad, ref)


def test_broadcast_add_gradient_unbroadcasts():
    a = Tensor(np.zeros((3, 4)), requires_grad=True)
    b = Tensor(np.zeros((1, 4)), requires_grad=True)
    with Tape():
        backward(T.tsum(a + b))
    assert np.array_equal(a.grad, np.ones((3, 4)))
    assert np.array_equal(b.grad, np.full((1, 4), 3.0))


def test_gradient_accumulation_is_deterministic():
    rng = np.random.Generator(np.random.Philox(18))
    x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)

    def run():
        with Tape():
            y = T.matmul(x, x)
            backward(T.tsum(y * T.sigmoid(y)))
        g = x.grad.copy()
        x.grad = None
        return g

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_matmul_gradient_hypothesis(k, seed):
    rng = np.random.Generator(np.random.Philox(seed))
    a = Tensor(rng.normal(size=(3, k)), requires_grad=True)
    b = Tensor(rng.normal(size=(k, 2)), requires_grad=True)

    def build(leaves):
        y = T.matmul(leaves["a"], leaves["b"])
        return T.tsum(y * y)

    assert grad_check(build, {"a": a, "b": b}, rel_tol=1e-4) == []


def test_finite_difference_helper_on_quadratic():
    x = np.array([1.0, -2.0, 0.5])
    g = finite_difference(lambda v: float((v ** 2).sum()), x)
    assert np.max(np.abs(g - 2.0 * x)) <= 1e-8


def test_leaf_grad_is_owned_even_from_a_broadcast_view():
    # tsum's rule hands its input a read-only broadcast view of the root grad
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    with Tape():
        backward(T.tsum(x))
    assert x.grad.base is None and x.grad.flags.owndata and x.grad.flags.writeable
    x.grad *= 2.0
    assert np.array_equal(x.grad, np.full((2, 3), 2.0))


def test_operand_without_requires_grad_gets_no_grad():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    c = Tensor(np.array([0.5, 4.0, -1.0]))
    with Tape():
        backward(T.tsum(T.matmul(T.reshape(x * c, (1, 3)), T.reshape(c, (3, 1)))))
    assert c.grad is None
    assert np.array_equal(x.grad, c.data * c.data)


def test_intermediates_drop_grad_after_backward():
    x = Tensor(np.array([[0.5, -1.0], [2.0, 0.1]]), requires_grad=True)
    with Tape() as tape:
        h = T.exp(x)
        s = T.silu(h)
        loss = T.tsum(s * h)
        backward(loss)
        assert len(tape.nodes) == 4
        assert all(node.grad is None and node._backward is None for node in tape.nodes)
    assert h.grad is None and s.grad is None and loss.grad is None
    assert x.grad is not None


def test_saved_array_dies_during_backward():
    # an array that only a backward rule holds is freed once that rule has
    # run, while the tape block is still open: here a hand-written rule's
    # array and exp's saved output
    x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
    seen = []

    def probe_bw(g):
        seen.append((ref() is None, exp_ref() is None))
        T._accum(x, g)

    gc.disable()
    try:
        with Tape() as tape:
            p = T._record(Tensor(x.data.copy()), (x,), probe_bw)
            saved = np.exp(p.data)
            ref = weakref.ref(saved)
            out = T._record(Tensor(p.data * saved), (p,),
                            lambda g, s=saved: T._accum(p, g * s))
            y = T.exp(out)
            exp_ref = weakref.ref(y.data)
            loss = T.tsum(y)
            del saved, y
            assert ref() is not None and exp_ref() is not None
            backward(loss)
            assert seen == [(True, True)]
            assert len(tape.nodes) == 4
    finally:
        gc.enable()
    e = np.exp(x.data)
    # the hand-written rule takes the saved array as a constant
    assert np.array_equal(x.grad, np.exp(x.data * e) * e)


def test_a_value_no_rule_reads_dies_before_backward():
    # add saves nothing and rmsnorm saves x / rms and rms, not its input, so
    # the residual sum goes as soon as the caller drops it
    rng = np.random.Generator(np.random.Philox(23))
    x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    gamma = Tensor(rng.normal(size=8), requires_grad=True)
    gc.disable()
    try:
        with Tape():
            h = x + x
            refs = weakref.ref(h), weakref.ref(h.data)
            y = T.rmsnorm(h, gamma)
            del h
            assert all(r() is None for r in refs)
            backward(T.tsum(y))
    finally:
        gc.enable()
    grads = x.grad, gamma.grad
    x.grad = gamma.grad = None
    with Tape():
        h = x + x
        backward(T.tsum(T.rmsnorm(h, gamma)))
    assert all(np.array_equal(a, b) for a, b in zip(grads, (x.grad, gamma.grad)))


def test_accum_takes_a_tensor_a_node_or_none():
    # hand-written rules may hold a Tensor and add into it, as tests do
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with Tape() as tape:
        h = x * 2.0
        y = T._record(Tensor(h.data.copy()), (h,), lambda g: T._accum(h, 3.0 * g))
        backward(T.tsum(y))
        assert len(tape.nodes) == 3
    assert np.array_equal(x.grad, np.full(2, 6.0))
    T._accum(None, np.ones(2))
    T._accum(Tensor(np.zeros(2)), np.ones(2))  # takes no gradient


def test_an_output_kept_past_its_tape_is_a_leaf_of_the_next():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    with Tape():
        h = x * 3.0
    with Tape():
        backward(T.tsum(h * h))
    assert np.array_equal(h.grad, 2.0 * h.data)
    assert x.grad is None


def test_no_library_rule_holds_a_tensor(held_tensors):
    # a rule holds arrays and nodes: a Tensor would keep its value alive
    # whether the rule reads it or not
    rng = np.random.Generator(np.random.Philox(29))
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(2, 4, 4)), requires_grad=True)
    m = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    with Tape() as tape:
        h = T.head_project(x, w)                                     # (2, 2, 3, 4)
        h = T.concat([T.silu(h), T.softplus(h)], axis=-1)[..., 2:6]
        h = T.rmsnorm(T.matmul(T.exp(h), m), T.sqrt(T.sigmoid(m[0]) + 1.0))
        h = T.transpose(T.reshape(h, (4, 3, 4)), (0, 2, 1))            # (4, 4, 3)
        h = T.neg(h) / (3.0 - T.sigmoid(h)) * h
        loss = T.tsum(T.matmul(T.broadcast_to(m, (4, 4, 4)), h))
        held = [t for node in tape.nodes for t in held_tensors(node._backward)]
        backward(loss)
    assert held == []
    assert all(np.all(np.isfinite(leaf.grad)) for leaf in (x, w, m))


def _composed_rmsnorm(x, gamma, eps=1e-6):
    ms = T.tsum(T.mul(x, x), axis=-1, keepdims=True) * (1.0 / x.shape[-1])
    return T.mul(T.div(x, T.sqrt(T.add(ms, eps))), gamma)


def _composed_silu(x):
    return T.mul(x, T.sigmoid(x))


def _value_and_grads(fn, leaves, weight):
    with Tape():
        out = fn(*leaves)
        backward(T.tsum(out * weight))
    grads = [leaf.grad for leaf in leaves]
    for leaf in leaves:
        leaf.grad = None
    return out.data, grads


def test_fused_rmsnorm_matches_composed_formula():
    rng = np.random.Generator(np.random.Philox(19))
    x = Tensor(rng.normal(size=(2, 3, 5, 8)), requires_grad=True)
    gamma = Tensor(rng.normal(size=8), requires_grad=True)
    weight = rng.normal(size=(2, 3, 5, 8))
    fused, fused_grads = _value_and_grads(T.rmsnorm, [x, gamma], weight)
    ref, ref_grads = _value_and_grads(_composed_rmsnorm, [x, gamma], weight)
    assert np.max(np.abs(fused - ref)) <= 1e-15
    for g, r in zip(fused_grads, ref_grads):
        assert np.max(np.abs(g - r)) <= 1e-12

    def build(leaves):
        return T.tsum(T.rmsnorm(leaves["x"], leaves["gamma"]) * weight)

    assert grad_check(build, {"x": x, "gamma": gamma}, rel_tol=1e-4) == []


def test_rmsnorm_matches_its_formula_bitwise():
    # the rule writes into fewer buffers but keeps the order of its formula
    rng = np.random.Generator(np.random.Philox(24))
    x = rng.normal(size=(2, 3, 5, 8))
    gamma = rng.normal(size=8)
    weight = rng.normal(size=(2, 3, 5, 8))
    xt, gt = Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True)
    out, (gx, ggamma) = _value_and_grads(T.rmsnorm, [xt, gt], weight)
    inv_n = 1.0 / 8
    rms = np.sqrt((x * x).sum(axis=-1, keepdims=True) * inv_n + 1e-6)
    xh = x / rms
    gg = weight * gamma
    assert np.array_equal(out, xh * gamma)
    assert np.array_equal(ggamma, (weight * xh).sum(axis=(0, 1, 2)))
    assert np.array_equal(gx, (gg - xh * ((gg * xh).sum(axis=-1, keepdims=True) * inv_n)) / rms)


def test_fused_silu_matches_composed_formula():
    rng = np.random.Generator(np.random.Philox(20))
    x = Tensor(rng.normal(0.0, 3.0, size=(2, 3, 5, 8)), requires_grad=True)
    weight = rng.normal(size=(2, 3, 5, 8))
    fused, (fused_grad,) = _value_and_grads(T.silu, [x], weight)
    ref, (ref_grad,) = _value_and_grads(_composed_silu, [x], weight)
    assert np.max(np.abs(fused - ref)) <= 1e-15
    assert np.max(np.abs(fused_grad - ref_grad)) <= 1e-12

    def build(leaves):
        return T.tsum(T.silu(leaves["x"]) * weight)

    assert grad_check(build, {"x": x}, rel_tol=1e-4) == []


@pytest.mark.parametrize("dh", [16, 1])
def test_head_project_matches_per_head_matmul(dh):
    rng = np.random.Generator(np.random.Philox(21))
    x = rng.normal(size=(2, 7, 12))
    w = rng.normal(size=(3, 12, dh))
    out = T.head_project(Tensor(x), Tensor(w)).data
    assert out.shape == (2, 3, 7, dh)
    for j in range(3):
        assert np.max(np.abs(out[:, j] - x @ w[j])) <= 1e-12

    small = {"x": Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True),
             "w": Tensor(rng.normal(size=(2, 4, min(dh, 3))), requires_grad=True)}
    weight = rng.normal(size=(2, 2, 3, min(dh, 3)))

    def build(leaves):
        return T.tsum(T.head_project(leaves["x"], leaves["w"]) * weight)

    assert grad_check(build, small, rel_tol=1e-4) == []


def test_take_basic_and_integer_indices_gradient():
    x = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
    weight = np.arange(6.0).reshape(3, 2)
    with Tape():
        backward(T.tsum(x[..., 1::2] * weight) + T.tsum(x[1]))
    ref = np.zeros((3, 4))
    ref[:, 1::2] = weight
    ref[1] += 1.0
    assert np.array_equal(x.grad, ref)
