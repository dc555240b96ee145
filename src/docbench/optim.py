"""Optimizers, learning-rate schedules and freezing helpers.

Two regimes share this module: momentum SGD under a slanted-triangular
schedule with the linear batch-size scaling rule, and bias-corrected
adaptive moments with coupled L2 decay plus per-group (layer-wise) rates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .layers import Network

LR_UNDERFLOW = 1e-12
REFERENCE_BATCH = 256


@dataclass(frozen=True)
class SgdConfig:
    momentum: float = 0.9
    weight_decay: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0,1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be >= 0, got {self.weight_decay}")


@dataclass(frozen=True)
class AdamConfig:
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    weight_decay: float = 0.01

    def __post_init__(self):
        for name in ("beta1", "beta2"):
            b = getattr(self, name)
            if not 0.0 <= b < 1.0:
                raise ValueError(f"{name} must be in [0,1), got {b}")
        if self.epsilon <= 0 or self.weight_decay < 0:
            raise ValueError("epsilon must be > 0 and weight_decay >= 0")


@dataclass(frozen=True)
class StlrConfig:
    eta_max: float
    total_steps: int
    cut_frac: float = 0.1
    ratio: float = 32.0

    def __post_init__(self):
        if self.eta_max <= 0:
            raise ValueError(f"eta_max must be > 0, got {self.eta_max}")
        if not 0.0 < self.cut_frac < 1.0:
            raise ValueError(f"cut_frac must be in (0,1), got {self.cut_frac}")
        if self.ratio <= 1:
            raise ValueError(f"ratio must be > 1, got {self.ratio}")
        if self.cut < 1:
            raise ValueError(
                f"total_steps {self.total_steps} too small for cut_frac {self.cut_frac}")

    @property
    def cut(self) -> int:
        return int(math.floor(self.total_steps * self.cut_frac))


@dataclass(frozen=True)
class LayerwiseDecayConfig:
    eta_top: float = 1e-6
    eta_body: float = 3e-5
    xi: float = 0.95

    def __post_init__(self):
        if self.xi <= 0:
            raise ValueError(f"xi must be > 0, got {self.xi}")
        if self.eta_top <= 0 or self.eta_body <= 0:
            raise ValueError("eta_top and eta_body must be > 0")


def reference_lr(base: float, n: int, k: int) -> float:
    """Linear scaling rule: base * (global batch n*k) / 256."""
    if n < 1 or k < 1:
        raise ValueError(f"n and k must be >= 1, got n={n}, k={k}")
    return base * (n * k) / REFERENCE_BATCH


def stlr_lr(t: int, cfg: StlrConfig) -> float:
    """Slanted triangular rate at step t: linear ramp to eta_max at the cut
    step, then a long linear decay back toward eta_max/ratio at t=T."""
    if t < 0 or t > cfg.total_steps:
        raise ValueError(f"step {t} outside [0, {cfg.total_steps}]")
    cut = cfg.cut
    p = t / cut if t < cut else 1.0 - (t - cut) / (cfg.total_steps - cut)
    return cfg.eta_max * (1.0 + p * (cfg.ratio - 1.0)) / cfg.ratio


def layerwise_lrs(cfg: LayerwiseDecayConfig, num_layers: int):
    """Per-encoder-layer rates, bottom-up: the top layer gets eta_body and
    each step down multiplies by xi."""
    if num_layers < 1:
        raise ValueError(f"num_layers must be >= 1, got {num_layers}")
    rates = [cfg.eta_body * cfg.xi ** (num_layers - 1 - i) for i in range(num_layers)]
    if min(rates) < LR_UNDERFLOW:
        warnings.warn(
            f"layer-wise decay xi={cfg.xi} drives learning rates below "
            f"{LR_UNDERFLOW:g}; lower layers will not train", stacklevel=2)
    return rates


def group_lrs(cfg: LayerwiseDecayConfig, num_layers: int):
    """Map text-model group names to rates: encoder layers per layerwise_lrs,
    embedding tied to the deepest layer, head at eta_top."""
    rates = layerwise_lrs(cfg, num_layers)
    return {"embedding": rates[0],
            **{f"layer_{i}": lr for i, lr in enumerate(rates, start=1)},
            "head": cfg.eta_top}


def sgd_step(params, grads, lr, cfg: SgdConfig, velocity):
    """One momentum step over flat arrays, in place; lr is a rate or one rate
    per element, and velocity persists across calls."""
    if np.min(lr) <= 0:
        raise ValueError(f"lr must be > 0, got {np.min(lr)}")
    velocity *= cfg.momentum
    velocity += grads
    velocity += cfg.weight_decay * params
    params -= lr * velocity


def adam_step(params, grads, lr, cfg: AdamConfig, t: int, m, v):
    """One bias-corrected adaptive step over flat arrays, in place; t counts
    from 1, and the moments m and v persist across calls.

    Weight decay is the coupled L2 form: decay*param is added to the
    gradient before the moment updates.
    """
    if t < 1:
        raise ValueError(f"adam step index starts at 1, got {t}")
    g = grads + cfg.weight_decay * params
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * g * g
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    params -= lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


class Optimizer:
    """Steps one network's trainable parameters from their .grad fields.

    One optimizer owns a network's parameters: it copies the trainable ones
    into one flat float64 buffer, ``params``, and rebinds each one's data and
    grad to views of ``params`` and of ``grads``, whose extra last slot
    carries the loss through the gradient exchange.  Frozen parameters stay
    outside both.  lr may be a constant or a schedule callable mapping step
    index (from 0) to a rate; group_rates overrides it per top-level group.
    """

    def __init__(self, net: Network, lr, group_rates=None):
        self.net = net
        self._lr = lr
        self.step_count = 0
        trainable = [(name, p) for name, p in net.named_params() if p.requires_grad]
        self.names = [name for name, _ in trainable]
        self.offsets = np.cumsum([0] + [p.data.size for _, p in trainable])
        self.params = np.empty(self.offsets[-1])
        self.grads = np.zeros(self.offsets[-1] + 1)
        self.rates = np.full(self.offsets[-1], np.nan)  # NaN: the base rate
        for (name, p), lo, hi in zip(trainable, self.offsets, self.offsets[1:]):
            self.params[lo:hi] = p.data.ravel()
            p.data = self.params[lo:hi].reshape(p.shape)
            p.grad = self.grads[lo:hi].reshape(p.shape)
            self.rates[lo:hi] = (group_rates or {}).get(name.split(".", 1)[0], np.nan)
        self._ungrouped = np.isnan(self.rates)

    def current_lr(self):
        return self._lr(self.step_count) if callable(self._lr) else self._lr

    def zero_grad(self):
        self.grads.fill(0.0)

    def _begin_step(self):
        """Check the gradients, fill ``rates`` and return the base rate."""
        finite = np.isfinite(self.grads[:-1])
        if not finite.all():
            bad = np.searchsorted(self.offsets, np.argmin(finite), side="right") - 1
            raise FloatingPointError(
                f"non-finite gradient for parameter {self.names[bad]!r}")
        base = self.current_lr()
        np.copyto(self.rates, base, where=self._ungrouped)
        return base


class SgdOptimizer(Optimizer):
    def __init__(self, net, lr, cfg: SgdConfig = SgdConfig(), group_rates=None):
        super().__init__(net, lr, group_rates)
        self.cfg = cfg
        self.velocity = np.zeros_like(self.params)

    def step(self):
        base = self._begin_step()
        sgd_step(self.params, self.grads[:-1], self.rates, self.cfg, self.velocity)
        self.step_count += 1
        return base


class AdamOptimizer(Optimizer):
    def __init__(self, net, lr, cfg: AdamConfig = AdamConfig(), group_rates=None):
        super().__init__(net, lr, group_rates)
        self.cfg = cfg
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)

    def step(self):
        base = self._begin_step()
        self.step_count += 1  # bias correction counts from 1
        adam_step(self.params, self.grads[:-1], self.rates, self.cfg,
                  self.step_count, self.m, self.v)
        return base
