"""Builders for the compound-scaled convolutional classifier family.

The baseline stage table below is the standard mobile-inverted-bottleneck
configuration whose 1000-class build lands at ~5.3M parameters; scaled
variants are produced by widening channels, repeating blocks and growing the
input resolution per a ScalingSpec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .layers import (BatchNorm2d, Conv2d, ConvNorm, Dropout, GlobalAvgPool,
                     ImageNetwork, Linear, MBConv, Sequential)
from .scaling import ScaledDims

__all__ = ["StageSpec", "BASE_STAGES", "STEM_CHANNELS", "HEAD_CHANNELS",
           "round_channels", "round_repeats", "build_efficientnet"]

CHANNEL_DIVISOR = 8


@dataclass(frozen=True)
class StageSpec:
    kind: str               # always "mbconv", the only block type
    kernel: int
    base_channels: int
    repeats: int
    stride: int
    expansion: int = 1
    se_ratio: float = 0.0

    def __post_init__(self):
        if self.kind != "mbconv":
            raise ValueError(f"stage kind must be mbconv, got {self.kind!r}")
        if self.repeats < 1:
            raise ValueError(f"repeats must be >= 1, got {self.repeats}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        if self.expansion < 1:
            raise ValueError(f"expansion must be >= 1, got {self.expansion}")
        if not 0.0 <= self.se_ratio <= 1.0:
            raise ValueError(f"se_ratio must be in [0,1], got {self.se_ratio}")


STEM_CHANNELS = 32
HEAD_CHANNELS = 1280

BASE_STAGES = (
    StageSpec("mbconv", 3, 16, 1, 1, expansion=1, se_ratio=0.25),
    StageSpec("mbconv", 3, 24, 2, 2, expansion=6, se_ratio=0.25),
    StageSpec("mbconv", 5, 40, 2, 2, expansion=6, se_ratio=0.25),
    StageSpec("mbconv", 3, 80, 3, 2, expansion=6, se_ratio=0.25),
    StageSpec("mbconv", 5, 112, 3, 1, expansion=6, se_ratio=0.25),
    StageSpec("mbconv", 5, 192, 4, 2, expansion=6, se_ratio=0.25),
    StageSpec("mbconv", 3, 320, 1, 1, expansion=6, se_ratio=0.25),
)


def round_channels(channels: float, width_mult: float,
                   divisor: int = CHANNEL_DIVISOR) -> int:
    """Widen then snap to the nearest multiple of ``divisor``.

    Never returns 0 and never shrinks more than 10% below the exact width.
    """
    scaled = channels * width_mult
    snapped = max(divisor, int(scaled + divisor / 2) // divisor * divisor)
    if snapped < 0.9 * scaled:
        snapped += divisor
    return int(snapped)


def round_repeats(repeats: int, depth_mult: float) -> int:
    return int(math.ceil(repeats * depth_mult))


def build_efficientnet(stages, dims: ScaledDims, num_classes: int,
                       in_channels: int = 3, seed: int = 0,
                       dropout_rate: float = 0.2,
                       stem_channels: int = STEM_CHANNELS,
                       head_channels: int = HEAD_CHANNELS) -> ImageNetwork:
    """Assemble stem -> scaled stages -> 1x1 head conv -> pooled classifier.

    Same padding ceil-halves the spatial extents per stride-2 block, so they
    bottom out at 1x1 and any input of at least 2 pixels builds a runnable
    graph.
    """
    stages = list(stages)
    if not stages:
        raise ValueError("stage list must be nonempty")
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    rng = np.random.default_rng(seed)
    net = ImageNetwork(dims.input_size, num_classes)

    ch = round_channels(stem_channels, dims.width_mult)
    net.add_group("stem", ConvNorm(
        Conv2d(in_channels, ch, 3, rng, stride=2), BatchNorm2d(ch, swish=True)))

    for i, st in enumerate(stages, start=1):
        out_ch = round_channels(st.base_channels, dims.width_mult)
        blocks = []
        for j in range(round_repeats(st.repeats, dims.depth_mult)):
            blocks.append(MBConv(ch, out_ch, st.expansion, st.kernel,
                                 st.stride if j == 0 else 1, st.se_ratio, rng))
            ch = out_ch
        net.add_group(f"stage{i}", Sequential(*blocks))

    head_ch = round_channels(head_channels, dims.width_mult)
    net.add_group("head_conv", ConvNorm(
        Conv2d(ch, head_ch, 1, rng), BatchNorm2d(head_ch, swish=True)))
    net.add_group("head", Sequential(
        GlobalAvgPool(), Dropout(dropout_rate),
        Linear(head_ch, num_classes, rng)))
    return net
