import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decaylab import decay as D
from decaylab import tensor as T
from decaylab.decay import ConfigError, DecayConfig, DecayProjection
from decaylab.tensor import Tensor
from decaylab.verify import grad_check


def _decay(strategy, f, **inputs):
    """lambda, the exp of the log lambda that ``strategy``'s row returns."""
    return T.exp(D.STRATEGIES[strategy].decay(f, **inputs))


def _lightnet(f):
    """LightNet's lambda, the exp of ``lightnet_decay``'s log lambda."""
    return T.exp(D.lightnet_decay(f))


# ---------------------------------------------------------------------------
# configuration invariants
# ---------------------------------------------------------------------------

def test_config_rejects_unknown_strategy():
    with pytest.raises(ConfigError):
        DecayConfig(strategy="nope")


@pytest.mark.parametrize("strategy", ["tnl", "tnl_l"])
def test_tnl_variants_force_scalar_independent(strategy):
    with pytest.raises(ConfigError):
        DecayConfig(strategy=strategy, granularity="vector")
    with pytest.raises(ConfigError):
        DecayConfig(strategy=strategy, granularity="scalar", sharing="shared")
    DecayConfig(strategy=strategy, granularity="scalar")


def test_sharing_requires_vector_granularity():
    with pytest.raises(ConfigError):
        DecayConfig(strategy="gla", granularity="scalar", sharing="shared")
    DecayConfig(strategy="gla", granularity="vector", sharing="shared")


def test_none_strategy_cannot_share():
    with pytest.raises(ConfigError):
        DecayConfig(strategy="none", sharing="shared")


def test_config_validates_scalars():
    with pytest.raises(ConfigError):
        DecayConfig(tau=0.0)
    with pytest.raises(ConfigError):
        DecayConfig(p=1.0)
    with pytest.raises(ConfigError):
        DecayConfig(lower_bound=1.0)


# ---------------------------------------------------------------------------
# decay activations
# ---------------------------------------------------------------------------

def _projection_for(config, d, h, rng):
    dk = d // h
    if config.granularity == "scalar":
        return DecayProjection({"w_scalar": Tensor(rng.normal(size=(h, d, 1)))})
    if config.sharing == "shared":
        return DecayProjection({"w_shared": Tensor(rng.normal(size=(h, d, dk)))})
    return DecayProjection({"w_low": Tensor(rng.normal(size=(d, dk))),
                            "w_head": Tensor(rng.normal(size=(h, dk, dk)))})


def test_activations_zero_input(rng):
    config = DecayConfig(strategy="gla", granularity="vector")
    proj = _projection_for(config, 8, 2, rng)
    f = D.decay_activations(Tensor(np.zeros((5, 8))), proj, config)
    assert f.shape == (2, 5, 4)
    assert np.array_equal(f.data, np.zeros((2, 5, 4)))


def test_activations_identity_head_factor(rng):
    d, h = 8, 2
    dk = d // h
    w_low = rng.normal(size=(d, dk))
    proj = DecayProjection({"w_low": Tensor(w_low),
                            "w_head": Tensor(np.broadcast_to(np.eye(dk), (h, dk, dk)).copy())})
    config = DecayConfig(strategy="gla", granularity="vector")
    x = rng.normal(size=(5, d))
    f = D.decay_activations(Tensor(x), proj, config)
    ref = x @ w_low
    for j in range(h):
        assert np.max(np.abs(f.data[j] - ref)) == 0.0


def test_activations_match_two_step_matmul_oracle(rng):
    d, h = 12, 3
    dk = d // h
    config = DecayConfig(strategy="mamba2", granularity="vector")
    proj = _projection_for(config, d, h, rng)
    x = rng.normal(size=(6, d))
    f = D.decay_activations(Tensor(x), proj, config)
    for j in range(h):
        ref = (x @ proj.weights["w_low"].data) @ proj.weights["w_head"].data[j]
        assert np.max(np.abs(f.data[j] - ref)) == 0.0


def test_activations_scalar_shape(rng):
    config = DecayConfig(strategy="mamba2", granularity="scalar")
    proj = _projection_for(config, 8, 2, rng)
    f = D.decay_activations(Tensor(rng.normal(size=(5, 8))), proj, config)
    assert f.shape == (2, 5, 1)


def test_projection_check_rejects_mismatch(rng):
    config = DecayConfig(strategy="gla", granularity="vector")
    proj = DecayProjection({"w_scalar": Tensor(np.zeros((2, 8, 1)))})
    with pytest.raises(ConfigError):
        D.decay_activations(Tensor(np.zeros((4, 8))), proj, config)


# ---------------------------------------------------------------------------
# pointwise formulas
# ---------------------------------------------------------------------------

def test_mamba2_neutral_point():
    lam = _decay("mamba2", Tensor(0.0), a=0.0, delta=0.0)
    assert lam.item() == 0.5


def test_mamba2_exponent_ln2():
    lam = _decay("mamba2", Tensor(0.0), a=math.log(2.0), delta=0.0)
    assert abs(lam.item() - 0.25) <= 1e-15


def test_gla_temperature():
    lam = _decay("gla", Tensor(0.0), tau=16.0)
    assert abs(lam.item() - 0.5 ** (1.0 / 16.0)) <= 1e-15
    assert abs(lam.item() - 0.9576) < 1e-4


def test_hgrn2_floor_interpolation():
    lam = _decay("hgrn2", Tensor(0.0), lower_bound=0.5)
    assert abs(lam.item() - 0.75) <= 1e-15


def test_simple_decay_inverse_pair():
    delta = D.simple_decay_init(0.99)
    lam = _decay("simple", Tensor(0.0), delta=delta)
    assert abs(lam.item() - 0.99) <= 1e-12


def test_mamba2_ablations_agree_at_deleted_parameters(rng):
    f = Tensor(rng.normal(size=(7,)))
    full = _decay("mamba2", f, a=0.0, delta=0.3).data
    no_a = _decay("mamba2_no_a", f, delta=0.3).data
    assert np.max(np.abs(full - no_a)) <= 1e-15
    full = _decay("mamba2", f, a=0.4, delta=0.0).data
    no_d = _decay("mamba2_no_delta", f, a=0.4).data
    assert np.max(np.abs(full - no_d)) <= 1e-15


def test_monotonicity_directions():
    f = Tensor(np.linspace(-4.0, 4.0, 33))
    gla = _decay("gla", f, tau=16.0).data
    assert np.all(np.diff(gla) > 0)
    m2 = _decay("mamba2", f, a=0.1, delta=0.2).data
    assert np.all(np.diff(m2) < 0)


def test_hgrn2_limits():
    lo = _decay("hgrn2", Tensor(-50.0), lower_bound=0.3).item()
    hi = _decay("hgrn2", Tensor(50.0), lower_bound=0.3).item()
    assert abs(lo - 0.3) <= 1e-15
    assert abs(hi - 1.0) <= 1e-15


def test_pointwise_ranges_on_random_draws(rng):
    f = Tensor(rng.normal(0.0, 3.0, size=(10_000,)))
    for strategy in D.POINTWISE:
        lam = _decay(strategy, f, a=0.2, delta=0.3, tau=16.0, lower_bound=0.25).data
        assert np.all(lam > 0.0) and np.all(lam < 1.0), strategy


def test_scalar_vector_tied_coherence(rng):
    # a broadcast scalar activation through the vector formula reproduces
    # the scalar path bitwise
    fs = rng.normal(size=(6, 1))
    fv = np.broadcast_to(fs, (6, 4)).copy()
    for strategy in D.POINTWISE:
        lam_s = _decay(strategy, Tensor(fs), a=0.1, delta=-0.2, tau=16.0,
                       lower_bound=0.3).data
        lam_v = _decay(strategy, Tensor(fv), a=0.1, delta=-0.2, tau=16.0,
                       lower_bound=0.3).data
        assert np.array_equal(np.broadcast_to(lam_s, (6, 4)), lam_v), strategy


# ---------------------------------------------------------------------------
# lightnet
# ---------------------------------------------------------------------------

def test_lightnet_uniform_activations():
    lam = _lightnet(Tensor(np.zeros((3, 1)))).data[:, 0]
    assert np.max(np.abs(lam - np.array([0.0, 0.5, 2.0 / 3.0]))) <= 1e-15


def test_lightnet_single_position():
    lam = _lightnet(Tensor(np.zeros((1, 2)))).data
    assert np.array_equal(lam, np.zeros((1, 2)))


def test_lightnet_matches_cumulative_sum_oracle(rng):
    f = rng.normal(0.0, 2.0, size=(12, 3))
    lam = _lightnet(Tensor(f)).data
    d = np.cumsum(np.exp(f), axis=0)
    ref = np.concatenate([np.zeros((1, 3)), d[:-1] / d[1:]], axis=0)
    assert np.max(np.abs(lam - ref)) <= 1e-12


def test_lightnet_telescoping(rng):
    f = rng.normal(0.0, 2.0, size=(10, 2))
    lam = _lightnet(Tensor(f)).data
    d = np.cumsum(np.exp(f), axis=0)
    for j in range(9):
        prod = np.prod(lam[j + 1:], axis=0)
        assert np.max(np.abs(prod - d[j] / d[-1])) <= 1e-12


def test_lightnet_residual_identity(rng):
    # 1 - lambda_t == exp(F_t) / d_t exactly (up to the max-shift rounding)
    f = rng.normal(0.0, 2.0, size=(8, 2))
    lam = _lightnet(Tensor(f)).data
    z = np.exp(f - f.max(axis=0, keepdims=True))
    d = np.cumsum(z, axis=0)
    assert np.max(np.abs((1.0 - lam) - z / d)) <= 1e-15


def test_lightnet_partition_of_unity(rng):
    f = rng.normal(0.0, 3.0, size=(15, 4))
    lam = _lightnet(Tensor(f)).data
    suffix = np.concatenate(
        [np.cumprod(lam[::-1], axis=0)[::-1][1:], np.ones((1, 4))], axis=0)
    total = ((1.0 - lam) * suffix).sum(axis=0)
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_lightnet_gradient(rng):
    f = Tensor(rng.normal(size=(6, 2)), requires_grad=True)
    w = rng.normal(size=(6, 2))

    def build(leaves):
        return T.tsum(_lightnet(leaves["f"]) * T.as_tensor(w))

    assert grad_check(build, {"f": f}, rel_tol=1e-4) == []


def _lightnet_calls(monkeypatch):
    """The number of positions each call of the sequential fallback finishes."""
    calls = []
    real = D._sequential_lse

    def fallback(prev, x):
        calls.append(x.shape[-2])
        return real(prev, x)

    monkeypatch.setattr(D, "_sequential_lse", fallback)
    return calls


def test_lightnet_blocked_route_matches_the_accumulate(rng, monkeypatch):
    calls = _lightnet_calls(monkeypatch)
    block = D.LIGHTNET_BLOCK
    for shape in [(3 * block + 11, 3), (2, 3, 2 * block, 4), (1, 5)]:
        f = rng.normal(0.0, 3.0, size=shape)
        lse = np.logaddexp.accumulate(f, axis=-2)
        ref = np.concatenate([np.zeros_like(f[..., :1, :]),
                              np.exp(lse[..., :-1, :] - lse[..., 1:, :])], axis=-2)
        lam = _lightnet(Tensor(f)).data
        assert np.max(np.abs(lam - ref)) <= 1e-13, shape
    assert calls == []


def test_lightnet_prefix_is_bitwise_unchanged_by_a_later_fallback(rng, monkeypatch):
    calls = _lightnet_calls(monkeypatch)
    block = D.LIGHTNET_BLOCK
    n = 3 * block + 7
    f = rng.normal(0.0, 2.0, size=(2, n, 3))
    base = _lightnet(Tensor(f)).data
    assert calls == []
    for t in (block + block // 2, 2 * block + 1, n - 1):
        g = f.copy()
        g[1, t, 2] += 800.0
        lam = _lightnet(Tensor(g)).data
        assert calls[-1] == n - t
        assert np.array_equal(lam[:, :t], base[:, :t]), t
        assert np.all(np.isfinite(lam)) and np.all((lam >= 0.0) & (lam <= 1.0))
        # the jump outweighs everything before it
        assert lam[1, t, 2] <= 1e-300


def test_lightnet_gradient_over_several_blocks(rng):
    n = 2 * D.LIGHTNET_BLOCK + 9
    f = Tensor(rng.normal(0.0, 2.0, size=(n, 2)), requires_grad=True)
    w = rng.normal(size=(n, 2))

    def build(leaves):
        return T.tsum(_lightnet(leaves["f"]) * T.as_tensor(w))

    assert grad_check(build, {"f": f}, rel_tol=1e-4) == []


@pytest.mark.parametrize("runs", [(800.0, -800.0), (-800.0, 800.0), (800.0, 0.0, -800.0)])
def test_lightnet_saturated_runs_are_finite(runs, rng):
    block = D.LIGHTNET_BLOCK
    # runs of 40 positions, so the switches fall inside and across blocks
    f = np.concatenate([np.full((40, 3), v) for v in runs * 3], axis=0)
    f += rng.normal(0.0, 1.0, size=f.shape)
    assert f.shape[0] > 2 * block
    ft = Tensor(f, requires_grad=True)
    with T.Tape():
        lam = _lightnet(ft)
        T.backward(T.tsum(lam * rng.normal(size=f.shape)))
    assert np.all(np.isfinite(lam.data)) and np.all((lam.data >= 0.0) & (lam.data <= 1.0))
    assert np.all(np.isfinite(ft.grad))


_F_SHAPE = (4, 3, 2)  # heads, positions, decay width
_F_SIZE = int(np.prod(_F_SHAPE))


@pytest.mark.parametrize("strategy", sorted(D.STRATEGIES))
@settings(max_examples=40, deadline=None)
@given(f=st.lists(st.floats(-1e3, 1e3), min_size=_F_SIZE, max_size=_F_SIZE),
       scalar=st.floats(-50.0, 50.0), tau=st.floats(0.5, 64.0),
       lower_bound=st.floats(0.0, 0.99))
@example(f=[1e3] * _F_SIZE, scalar=-1.0, tau=16.0, lower_bound=0.0)
@example(f=[-1e3] * _F_SIZE, scalar=50.0, tau=0.5, lower_bound=0.5)
@example(f=[-1e3, 1e3] * (_F_SIZE // 2), scalar=-50.0, tau=64.0, lower_bound=0.99)
@example(f=[800.0] * _F_SIZE, scalar=-1.0, tau=16.0, lower_bound=0.0)
def test_every_row_is_finite_on_saturated_inputs(strategy, f, scalar, tau, lower_bound):
    # |f| up to 1e3 and learned scalars up to 50 (exp(a) stays finite):
    # lambda = exp(row) lies in [0, 1], the row is finite but -inf where
    # lambda is exactly 0, and every gradient of the row, which the kernels
    # send back as d log lambda, is finite
    row = D.STRATEGIES[strategy]
    inputs = DecayConfig(tau=tau, lower_bound=lower_bound).inputs(4, 1, 2)
    ft = Tensor(np.reshape(f, _F_SHAPE), requires_grad=True)
    leaves = {name: Tensor(np.full((4, 1, 1), scalar), requires_grad=True)
              for name in row.scalars}
    weight = np.linspace(-1.0, 1.0, _F_SIZE).reshape(_F_SHAPE)
    with T.Tape():
        log_lam = T.as_tensor(row.decay(ft if row.projected else None, **inputs, **leaves))
        lam = np.exp(log_lam.data)
        assert np.all((lam >= 0.0) & (lam <= 1.0))
        assert np.all(np.isfinite(log_lam.data) | ((log_lam.data == -np.inf) & (lam == 0.0)))
        if log_lam.requires_grad:
            # a -inf row makes the sum NaN; its gradient, the weight, is finite
            with np.errstate(invalid="ignore"):
                loss = T.tsum(log_lam * weight)
            T.backward(loss)
    for leaf in [ft, *leaves.values()]:
        assert leaf.grad is None or np.all(np.isfinite(leaf.grad))
    if row.source == "pointwise":
        assert ft.grad is not None


# ---------------------------------------------------------------------------
# tnl / simple / shared key
# ---------------------------------------------------------------------------

def test_tnl_spot_values():
    assert D.tnl_decay(1, 2, 1, 2) == math.exp(-2.0)
    assert D.tnl_decay(2, 2, 1, 2) == math.exp(-4.0)


def test_tnl_last_layer_is_one():
    for j in range(1, 5):
        assert D.tnl_decay(j, 4, 3, 3) == 1.0


def test_tnl_index_validation():
    with pytest.raises(IndexError):
        D.tnl_decay(0, 4, 1, 2)
    with pytest.raises(IndexError):
        D.tnl_decay(5, 4, 1, 2)
    with pytest.raises(IndexError):
        D.tnl_decay(1, 4, 3, 2)


def test_simple_decay_init_values():
    assert D.simple_decay_init(0.5) == 0.0
    assert abs(D.simple_decay_init(0.99) - math.log(99.0)) <= 1e-15
    assert abs(D.simple_decay_init(0.8) - math.log(4.0)) <= 1e-15


def test_simple_decay_init_domain():
    with pytest.raises(ValueError):
        D.simple_decay_init(0.0)
    with pytest.raises(ValueError):
        D.simple_decay_init(1.0)


def test_shared_key_exact(rng):
    # k = 1 - lambda from log lambda, within an ulp of k; the reference is
    # taken in extended precision
    x = np.log(rng.uniform(0.0, 1.0, size=(20,)))
    k = D.shared_key(Tensor(x)).data
    assert np.all(np.abs(k - -np.expm1(x.astype(np.longdouble))) <= np.spacing(k))
    assert D.shared_key(Tensor(0.0)).item() == 0.0  # lambda = 1
    assert D.shared_key(Tensor(-np.inf)).item() == 1.0  # lambda = 0
    assert D.shared_key(Tensor(math.log(0.5))).item() == 0.5


def test_hgrn2_default_lower_bound_schedule():
    assert D.hgrn2_lower_bound(1, 3) == 0.25
    assert D.hgrn2_lower_bound(3, 3) == 0.75
    bounds = [D.hgrn2_lower_bound(l, 6) for l in range(1, 7)]
    assert all(0.0 < b < 1.0 for b in bounds)
    assert bounds == sorted(bounds)


def test_pointwise_gradients_wrt_scalars(rng):
    for strategy in D.POINTWISE:
        leaves = {
            "f": Tensor(rng.normal(size=(4, 2)), requires_grad=True),
            "a": Tensor(np.array(0.3), requires_grad=True),
            "delta": Tensor(np.array(-0.4), requires_grad=True),
            "tau": Tensor(np.array(12.0), requires_grad=True),
            "lb": Tensor(np.array(0.35), requires_grad=True),
        }

        def build(lv, _s=strategy):
            lam = _decay(_s, lv["f"], a=lv["a"], delta=lv["delta"], tau=lv["tau"],
                         lower_bound=lv["lb"])
            return T.tsum(lam * lam)

        assert grad_check(build, leaves, rel_tol=1e-4) == [], strategy
