"""A NaN fails every comparison in ``verify``: where a kernel, a decay, an
equivalence or a backward rule returns NaN, the suite reports a failure."""

import numpy as np
import pytest

from decaylab import decay as D
from decaylab import recurrence as R
from decaylab import tensor as T
from decaylab import verify
from decaylab.tensor import Tensor


def _nan_outputs(kernel):
    """``kernel`` with every output, and so every gradient, NaN."""
    return lambda *args: kernel(*args) * np.nan


def test_sequential_suite_fails_on_nan_outputs(monkeypatch):
    monkeypatch.setattr(R, "forward_sequential", _nan_outputs(R.forward_sequential))
    assert verify.suite_sequential_vs_oracle("quick")


def test_dplr_suite_fails_on_nan_outputs(monkeypatch):
    monkeypatch.setattr(R, "forward_dplr", _nan_outputs(R.forward_dplr))
    failures = verify.suite_dplr("quick")
    assert any("dense oracle" in f for f in failures)
    assert any("dkappa rel diff nan" in f for f in failures)


def test_rope_decay_suite_fails_on_a_nan_deviation(monkeypatch):
    monkeypatch.setattr(verify, "rope_decay_equivalence", lambda *args: float("nan"))
    assert verify.suite_rope_decay("quick")


def test_grad_check_fails_on_a_nan_gradient():
    def build(leaves):
        x = leaves["x"]
        # the identity, whose backward rule returns NaN
        y = T._record(Tensor(x.data.copy()), (x,), lambda g: T._accum(x, g * np.nan))
        return T.tsum(y)

    failures = verify.grad_check(build, {"x": Tensor(np.ones(3), requires_grad=True)})
    assert failures and "nan" in failures[0]


@pytest.mark.parametrize("name", ["lightnet_decay", "simple_decay_init"])
def test_decay_identities_suite_fails_on_nan_decays(name, monkeypatch):
    monkeypatch.setattr(D, name, _nan_outputs(getattr(D, name)))
    assert verify.suite_decay_identities("quick")
