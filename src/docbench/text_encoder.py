"""Builder for the transformer text classifier.

A stack of post-norm encoder blocks over token + position embeddings; the
classification head reads the first position's final hidden state.  Groups
are named embedding, layer_1..layer_L, head so fine-tuning can assign
per-depth learning rates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import PAD_ID
from .layers import Linear, TextNetwork, TokenEmbedding, TransformerBlock


@dataclass(frozen=True)
class TextEncoderSpec:
    num_layers: int
    hidden: int
    heads: int
    vocab_size: int
    max_len: int
    num_classes: int
    dropout: float = 0.2
    activation: str = "swish"

    def __post_init__(self):
        if self.num_layers < 1:
            raise ValueError(f"need at least 1 layer, got {self.num_layers}")
        if self.hidden % self.heads:
            raise ValueError(
                f"hidden {self.hidden} not divisible by heads {self.heads}")
        if self.max_len < 2:
            raise ValueError(f"max_len must be >= 2, got {self.max_len}")
        if self.vocab_size < 1 or self.num_classes < 2:
            raise ValueError("vocab_size >= 1 and num_classes >= 2 required")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0,1), got {self.dropout}")


def build_text_encoder(spec: TextEncoderSpec, seed: int = 0) -> TextNetwork:
    rng = np.random.default_rng(seed)
    net = TextNetwork(spec.num_classes, pad_id=PAD_ID)
    net.add_group("embedding", TokenEmbedding(
        spec.vocab_size, spec.max_len, spec.hidden, spec.dropout, rng))
    for layer in range(1, spec.num_layers + 1):
        net.add_group(f"layer_{layer}", TransformerBlock(
            spec.hidden, spec.heads, spec.dropout, rng, spec.activation))
    net.add_group("head", Linear(spec.hidden, spec.num_classes, rng, std=0.02))
    return net
