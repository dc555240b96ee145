"""Schedules (triangular warmup, batch-scaled reference rate, layer-wise
decay) and the SGD/ADAM update rules, checked against independent recurrences."""

import numpy as np
import pytest
import warnings

from hypothesis import assume, given, settings, strategies as st

from docbench.layers import Ctx, Linear, Network, Sequential
from docbench.optim import (AdamConfig, AdamOptimizer, LayerwiseDecayConfig,
                            SgdConfig, SgdOptimizer, StlrConfig, adam_step,
                            group_lrs, layerwise_lrs, reference_lr,
                            sgd_step, stlr_lr)
from docbench.tensor import Tensor
from helpers import adam_step_oracle, sgd_step_oracle, tsum


# -- reference learning rate ---------------------------------------------------------


def test_reference_lr_examples():
    assert reference_lr(0.2, 32, 4) == pytest.approx(0.1)
    assert reference_lr(0.8, 16, 1) == pytest.approx(0.05)
    assert reference_lr(0.2, 256, 1) == pytest.approx(0.2)


@settings(max_examples=100, deadline=None)
@given(base=st.floats(1e-3, 10.0), n=st.integers(1, 512), k=st.integers(1, 16))
def test_reference_lr_linearity(base, n, k):
    one = reference_lr(base, n, k)
    assert reference_lr(base, 2 * n, k) == pytest.approx(2 * one)
    assert reference_lr(base, n, 2 * k) == pytest.approx(2 * one)
    assert one == pytest.approx(base * n * k / 256)


# -- slanted triangular schedule -----------------------------------------------------


STLR = StlrConfig(eta_max=0.1, total_steps=1000, cut_frac=0.1, ratio=32)


def test_stlr_worked_example():
    # t=550: cut=100, p=(1-450/900)=0.5, eta=0.1*(1+0.5*31)/32
    assert stlr_lr(550, STLR) == pytest.approx(0.0515625, abs=1e-12)


def test_stlr_peak_and_endpoints():
    assert STLR.cut == 100
    assert stlr_lr(100, STLR) == pytest.approx(0.1)
    floor = 0.1 / 32
    assert stlr_lr(0, STLR) == pytest.approx(floor)
    assert stlr_lr(1000, STLR) == pytest.approx(floor)
    # the peak is strict
    assert stlr_lr(100, STLR) > stlr_lr(99, STLR)
    assert stlr_lr(100, STLR) > stlr_lr(101, STLR)


def test_stlr_piecewise_linear_oracle():
    """Each leg must match straight-line interpolation between its endpoints,
    i.e. second differences vanish on both segments."""
    cut, total = STLR.cut, STLR.total_steps
    lo, hi = stlr_lr(0, STLR), stlr_lr(cut, STLR)
    for t in range(0, cut + 1):
        expect = lo + (hi - lo) * t / cut
        assert stlr_lr(t, STLR) == pytest.approx(expect, abs=1e-15)
    end = stlr_lr(total, STLR)
    for t in range(cut, total + 1):
        expect = hi + (end - hi) * (t - cut) / (total - cut)
        assert stlr_lr(t, STLR) == pytest.approx(expect, abs=1e-15)
    values = [stlr_lr(t, STLR) for t in range(0, cut + 1)]
    second = np.diff(values, n=2)
    assert np.max(np.abs(second)) < 1e-15


def test_stlr_domain_errors():
    with pytest.raises(ValueError):
        stlr_lr(-1, STLR)
    with pytest.raises(ValueError):
        stlr_lr(1001, STLR)
    with pytest.raises(ValueError):
        StlrConfig(eta_max=0.1, total_steps=5, cut_frac=0.1)  # cut would be 0


@settings(max_examples=50, deadline=None)
@given(total=st.integers(20, 5000), eta=st.floats(1e-4, 1.0),
       ratio=st.floats(2.0, 100.0))
def test_stlr_bounds(total, eta, ratio):
    cfg = StlrConfig(eta_max=eta, total_steps=total, cut_frac=0.1, ratio=ratio)
    values = [stlr_lr(t, cfg) for t in range(0, total + 1, max(1, total // 50))]
    assert max(values) <= eta + 1e-12
    assert stlr_lr(cfg.cut, cfg) == pytest.approx(eta)


def test_stlr_decay_stays_positive_when_cut_is_rounded():
    # T=44, cut_frac=0.1: cut=4, so the decay leg must span 40 steps, not 36
    cfg = StlrConfig(0.1, 44, 0.1, 32)
    assert stlr_lr(44, cfg) == pytest.approx(0.1 / 32, abs=1e-15)
    assert stlr_lr(40, cfg) > 0.1 / 32


@settings(max_examples=200, deadline=None)
@given(total=st.integers(1, 300), cut_frac=st.floats(0.001, 0.999),
       eta=st.floats(1e-4, 1.0), ratio=st.floats(1.5, 100.0))
def test_stlr_stays_between_floor_and_peak(total, cut_frac, eta, ratio):
    assume(int(total * cut_frac) >= 1)
    cfg = StlrConfig(eta_max=eta, total_steps=total, cut_frac=cut_frac,
                     ratio=ratio)
    for t in range(total + 1):
        lr = stlr_lr(t, cfg)
        assert eta / ratio * (1 - 1e-12) <= lr <= eta * (1 + 1e-12)


# -- layer-wise decay ----------------------------------------------------------------


def test_layerwise_rates_example():
    cfg = LayerwiseDecayConfig(eta_top=1e-6, eta_body=3e-5, xi=0.9)
    rates = layerwise_lrs(cfg, 3)
    assert rates == pytest.approx([2.43e-5, 2.7e-5, 3e-5])


def test_layerwise_rates_order_is_bottom_up():
    cfg = LayerwiseDecayConfig(eta_top=1e-6, eta_body=3e-5, xi=0.95)
    rates = layerwise_lrs(cfg, 6)
    assert len(rates) == 6
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert rates[-1] == pytest.approx(3e-5)


def test_layerwise_underflow_warns():
    cfg = LayerwiseDecayConfig(eta_top=1e-6, eta_body=3e-5, xi=1e-8)
    with pytest.warns(UserWarning, match="below 1e-12"):
        rates = layerwise_lrs(cfg, 6)
    assert rates[0] < 1e-12  # as computed, not clamped


def test_group_rate_assignment():
    cfg = LayerwiseDecayConfig(eta_top=1e-6, eta_body=3e-5, xi=0.9)
    rates = group_lrs(cfg, 3)
    per_layer = layerwise_lrs(cfg, 3)
    assert rates["embedding"] == pytest.approx(per_layer[0])
    assert rates["layer_1"] == pytest.approx(per_layer[0])
    assert rates["layer_3"] == pytest.approx(per_layer[2])
    assert rates["head"] == pytest.approx(1e-6)


# -- raw update rules vs. manual recurrences -----------------------------------------


def manual_sgd(p0, grads, lr, momentum, wd):
    p, v = p0.copy(), np.zeros_like(p0)
    for g in grads:
        v = momentum * v + g + wd * p
        p = p - lr * v
    return p


def test_sgd_matches_recurrence():
    rng = np.random.default_rng(0)
    p0 = rng.normal(size=(4, 3))
    grads = [rng.normal(size=(4, 3)) for _ in range(6)]
    expect = manual_sgd(p0, grads, 0.05, 0.9, 0.01)

    params = p0.copy()
    vel = np.zeros_like(p0)
    cfg = SgdConfig(momentum=0.9, weight_decay=0.01)
    for g in grads:
        sgd_step(params, g, 0.05, cfg, vel, np.empty_like(params))
    np.testing.assert_allclose(params, expect, rtol=1e-12, atol=1e-14)


def manual_adam(p0, grads, lr, b1, b2, eps, wd):
    p = p0.copy()
    m = np.zeros_like(p0)
    v = np.zeros_like(p0)
    for t, g in enumerate(grads, start=1):
        g = g + wd * p
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        mhat = m / (1 - b1 ** t)
        vhat = v / (1 - b2 ** t)
        p = p - lr * mhat / (np.sqrt(vhat) + eps)
    return p


def test_adam_matches_recurrence():
    rng = np.random.default_rng(1)
    p0 = rng.normal(size=(5,))
    grads = [rng.normal(size=(5,)) for _ in range(8)]
    expect = manual_adam(p0, grads, 1e-3, 0.9, 0.999, 1e-8, 0.01)

    params = p0.copy()
    m, v = np.zeros_like(p0), np.zeros_like(p0)
    cfg = AdamConfig()
    for t, g in enumerate(grads, start=1):
        adam_step(params, g, 1e-3, cfg, t, m, v, np.empty((2, *params.shape)))
    np.testing.assert_allclose(params, expect, rtol=1e-12, atol=1e-14)


def test_adam_first_step_size_is_lr():
    """Bias correction makes the first update lr-sized regardless of the
    gradient scale (up to epsilon)."""
    params = np.zeros(3)
    adam_step(params, np.full(3, 123.0), 0.01, AdamConfig(weight_decay=0.0), 1,
              np.zeros(3), np.zeros(3), np.empty((2, 3)))
    np.testing.assert_allclose(params, -0.01, rtol=1e-6)


def test_steps_update_in_place():
    params, vel = np.ones(3), np.zeros(3)
    sgd_step(params, np.ones(3), 0.1, SgdConfig(weight_decay=0.0), vel, np.empty(3))
    np.testing.assert_allclose(params, 0.9 - 0.0)  # one plain momentum-0-history step
    np.testing.assert_allclose(vel, 1.0)
    m, v = np.zeros(3), np.zeros(3)
    adam_step(params, np.ones(3), 0.1, AdamConfig(), 1, m, v, np.empty((2, 3)))
    assert m.any() and v.any()


@pytest.mark.parametrize("rule", ["sgd", "adam"])
def test_steps_match_the_out_of_place_oracle_bit_for_bit(rule):
    """300 steps with one rate per element and nonzero weight decay leave
    params, velocity and moments array_equal to the plain formulas."""
    rng = np.random.default_rng(8)
    n = 1000
    rates = rng.uniform(1e-4, 1e-2, size=n)
    start = rng.normal(size=n)
    sgd, adam = SgdConfig(momentum=0.9, weight_decay=0.01), AdamConfig(weight_decay=0.01)
    fast, slow = [start.copy(), np.zeros(n), np.zeros(n)], [start.copy(), np.zeros(n),
                                                            np.zeros(n)]
    scratch = np.full((2, n), np.nan)  # stale contents must not leak into a step
    for t in range(1, 301):
        g = rng.normal(size=n) * 10.0 ** rng.integers(-3, 3)
        if rule == "sgd":
            sgd_step(fast[0], g, rates, sgd, fast[1], scratch[0])
            sgd_step_oracle(slow[0], g, rates, sgd, slow[1])
        else:
            adam_step(fast[0], g, rates, adam, t, fast[1], fast[2], scratch)
            adam_step_oracle(slow[0], g, rates, adam, t, slow[1], slow[2])
    assert not np.array_equal(fast[0], start)
    for a, b in zip(fast, slow):
        assert np.array_equal(a, b)


def test_nonfinite_gradient_is_rejected():
    """One check over the gradient buffer names the first bad parameter
    and leaves every parameter as it was."""
    for make in (SgdOptimizer, AdamOptimizer):
        net = tiny_net()
        opt = make(net, 0.1)
        run_loss(net).backward()
        net.group("layer_1").bias.grad[1] = np.nan
        net.group("head").weight.grad[0, 0] = np.inf
        before = opt.params.copy()
        with pytest.raises(FloatingPointError, match="'layer_1.bias'"):
            opt.step()
        np.testing.assert_array_equal(opt.params, before)


# -- optimizer objects over networks -------------------------------------------------


def tiny_net(seed=0):
    rng = np.random.default_rng(seed)
    net = Network()
    net.add_group("embedding", Linear(4, 4, rng))
    net.add_group("layer_1", Linear(4, 4, rng))
    net.add_group("head", Linear(4, 2, rng))
    return net


def run_loss(net):
    x = Tensor(np.ones((2, 4)))
    ctx = Ctx(training=True)
    out = x
    for name in net.group_names():
        out = net.group(name)(out, ctx)
    return tsum(out * out)


def test_optimizer_owns_one_buffer_for_trainable_parameters():
    """Trainable data and grad are views of the optimizer's buffers, in
    parameter order with the loss slot last; frozen parameters stay out."""
    net = tiny_net()
    net.freeze(keep_trainable=["layer_1", "head"])
    before = {n: p.data.copy() for n, p in net.named_params()}
    opt = AdamOptimizer(net, 1e-2)
    trainable = [p for _, p in net.named_params() if p.requires_grad]
    assert opt.params.size == sum(p.data.size for p in trainable)
    assert opt.grads.size == opt.params.size + 1
    for n, p in net.named_params():
        np.testing.assert_array_equal(p.data, before[n])
        assert np.shares_memory(p.data, opt.params) == p.requires_grad
        if p.requires_grad:
            assert np.shares_memory(p.grad, opt.grads)
        else:
            assert p.grad is None
    np.testing.assert_array_equal(
        opt.params, np.concatenate([p.data.ravel() for p in trainable]))
    run_loss(net).backward()
    opt.step()
    np.testing.assert_array_equal(
        opt.params, np.concatenate([p.data.ravel() for p in trainable]))
    np.testing.assert_array_equal(
        opt.grads[:-1], np.concatenate([p.grad.ravel() for p in trainable]))


def test_optimizer_applies_group_rates():
    """With momentum and decay off, one step moves each group by exactly its
    own rate times the gradient."""
    net = tiny_net()
    rates = {"embedding": 1e-4, "layer_1": 1e-2, "head": 0.1}
    opt = SgdOptimizer(net, 0.5, SgdConfig(momentum=0.0, weight_decay=0.0),
                       group_rates=rates)
    before = {n: p.data.copy() for n, p in net.named_params()}
    loss = run_loss(net)
    loss.backward()
    grads = {n: p.grad.copy() for n, p in net.named_params()}
    opt.step()
    for n, p in net.named_params():
        rate = rates[n.split(".")[0]]
        np.testing.assert_allclose(p.data, before[n] - rate * grads[n],
                                   rtol=0, atol=1e-15)


def test_frozen_groups_stay_fixed_under_training():
    net = tiny_net()
    net.freeze(keep_trainable=["head"])
    before = {n: p.data.copy() for n, p in net.named_params()}
    opt = AdamOptimizer(net, 1e-2)
    for _ in range(3):
        opt.zero_grad()
        loss = run_loss(net)
        loss.backward()
        opt.step()
    for n, p in net.named_params():
        if n.startswith("head."):
            assert not np.array_equal(p.data, before[n])
        else:
            assert np.array_equal(p.data, before[n])


def test_schedule_callable_drives_lr():
    net = tiny_net()
    cfg = StlrConfig(eta_max=0.1, total_steps=100, cut_frac=0.1, ratio=32)
    opt = SgdOptimizer(net, lambda t: stlr_lr(t, cfg))
    seen = []
    for _ in range(4):
        opt.zero_grad()
        run_loss(net).backward()
        seen.append(opt.current_lr())
        opt.step()
    assert seen == [stlr_lr(t, cfg) for t in range(4)]
    assert seen[1] > seen[0]  # warmup leg rises


def test_zero_grad_clears_all():
    net = tiny_net()
    run_loss(net).backward()
    assert any(p.grad is not None for _, p in net.named_params())
    SgdOptimizer(net, 0.1).zero_grad()
    assert all(not p.grad.any() for _, p in net.named_params())


def test_identical_runs_are_bitwise_equal():
    def run():
        net = tiny_net(seed=3)
        opt = AdamOptimizer(net, 1e-3)
        for _ in range(5):
            opt.zero_grad()
            run_loss(net).backward()
            opt.step()
        return {n: p.data.copy() for n, p in net.named_params()}

    a, b = run(), run()
    for n in a:
        np.testing.assert_array_equal(a[n], b[n])
