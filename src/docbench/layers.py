"""Composable network layers on top of the autodiff tensor.

A Layer owns parameters (leaf Tensors), buffers (plain arrays such as batch
norm running statistics) and child layers; all three are registered by
attribute assignment so checkpointing and freezing can walk the tree by
dotted path.  A Network adds named ordered groups, which are the unit of
freezing and of per-group learning rates.
"""

from __future__ import annotations

import numpy as np

from . import ops
from .tensor import ShapeError, Tensor, load_tensors, save_tensors


class Ctx:
    """Per-call runtime state: training flag plus the rng driving dropout."""

    __slots__ = ("training", "rng")

    def __init__(self, training: bool = False, rng=None):
        self.training = training
        self.rng = rng


class Layer:
    """Base building block.

    Subclasses must call ``super().__init__()`` before assigning attributes;
    Tensor attributes become parameters and Layer attributes become children.
    """

    def __init__(self):
        object.__setattr__(self, "_params", {})
        object.__setattr__(self, "_buffers", {})
        object.__setattr__(self, "_children", {})
        object.__setattr__(self, "frozen", False)

    def __setattr__(self, name, value):
        if not name.startswith("_"):
            if isinstance(value, Tensor):
                self._params[name] = value
            elif isinstance(value, Layer):
                self._children[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name, array):
        self._buffers[name] = array
        object.__setattr__(self, name, array)

    def named_params(self, prefix=""):
        for name, p in self._params.items():
            yield prefix + name, p
        for name, child in self._children.items():
            yield from child.named_params(prefix + name + ".")

    def named_buffers(self, prefix=""):
        for name, b in self._buffers.items():
            yield prefix + name, b
        for name, child in self._children.items():
            yield from child.named_buffers(prefix + name + ".")

    def set_frozen(self, flag: bool):
        """Freeze (or thaw) this subtree.

        Frozen parameters stop requiring gradients; frozen normalization and
        dropout layers behave as in evaluation even when ctx.training is set,
        so buffers stay bit-identical too.
        """
        object.__setattr__(self, "frozen", bool(flag))
        for p in self._params.values():
            p.requires_grad = not flag
        for child in self._children.values():
            child.set_frozen(flag)


class Sequential(Layer):
    def __init__(self, *items):
        super().__init__()
        for i, item in enumerate(items):
            self._children[str(i)] = item

    def __call__(self, x, ctx: Ctx):
        for layer in self._children.values():
            x = layer(x, ctx)
        return x


class Activation(Layer):
    """Swish, the activation of every block."""

    def __call__(self, x, ctx):
        return ops.swish(x)


class Dropout(Layer):
    def __init__(self, rate: float):
        super().__init__()
        self.rate = rate

    def __call__(self, x, ctx: Ctx):
        return ops.dropout(x, self.rate, ctx.rng, ctx.training and not self.frozen)


class Linear(Layer):
    """Affine map ``x @ W + b`` acting on the last axis."""

    def __init__(self, in_features, out_features, rng, std=None):
        super().__init__()
        if std is None:
            std = float(np.sqrt(2.0 / in_features))
        self.weight = Tensor(rng.standard_normal((in_features, out_features)) * std,
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True)

    def __call__(self, x, ctx):
        return ops.linear(x, self.weight, self.bias)


class Conv2d(Layer):
    """Same-padded, bias-free convolution; batch norm supplies the shift."""

    def __init__(self, in_ch, out_ch, kernel, rng, stride=1):
        super().__init__()
        std = float(np.sqrt(2.0 / (in_ch * kernel * kernel)))
        self.weight = Tensor(
            rng.standard_normal((out_ch, in_ch, kernel, kernel)) * std,
            requires_grad=True)
        self.stride = stride

    def __call__(self, x, ctx):
        return ops.conv2d(x, self.weight, self.stride)


class DepthwiseConv2d(Layer):
    def __init__(self, channels, kernel, rng, stride=1):
        super().__init__()
        std = float(np.sqrt(2.0 / (kernel * kernel)))
        self.weight = Tensor(
            rng.standard_normal((channels, 1, kernel, kernel)) * std,
            requires_grad=True)
        self.stride = stride

    def __call__(self, x, ctx):
        return ops.depthwise_conv2d(x, self.weight, self.stride)


class BatchNorm2d(Layer):
    """Per-channel normalization over (batch, height, width).

    Training uses batch statistics and refreshes the running buffers; eval
    and frozen modes read the buffers only, so frozen groups never mutate.
    """

    def __init__(self, channels, momentum=0.1, eps=1e-5):
        super().__init__()
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.register_buffer("running_mean", np.zeros(channels))
        self.register_buffer("running_var", np.ones(channels))
        self.momentum = momentum
        self.eps = eps

    def __call__(self, x, ctx: Ctx):
        if ctx.training and not self.frozen:
            out, mean, var = ops.batch_norm(x, self.gamma, self.beta, self.eps)
            m = self.momentum
            self.running_mean += m * (mean - self.running_mean)
            self.running_var += m * (var - self.running_var)
            return out
        return ops.batch_norm(x, self.gamma, self.beta, self.eps,
                              (self.running_mean, self.running_var))[0]


class LayerNorm(Layer):
    def __init__(self, hidden, eps=1e-5):
        super().__init__()
        self.gain = Tensor(np.ones(hidden), requires_grad=True)
        self.bias = Tensor(np.zeros(hidden), requires_grad=True)
        self.eps = eps

    def __call__(self, x, ctx):
        return ops.layer_norm(x, self.gain, self.bias, self.eps)


class GlobalAvgPool(Layer):
    def __call__(self, x, ctx):
        return ops.global_avg_pool(x)


class SqueezeExcite(Layer):
    """Channel gate: globally pooled features squeezed to ``reduced`` then
    expanded back to per-channel sigmoid scales."""

    def __init__(self, channels, reduced, rng):
        super().__init__()
        self.reduce = Linear(channels, reduced, rng)
        self.act = Activation()
        self.expand = Linear(reduced, channels, rng)

    def __call__(self, x, ctx):
        pooled = ops.global_avg_pool(x)
        gate = self.expand(self.act(self.reduce(pooled, ctx), ctx), ctx).sigmoid()
        return x * gate.reshape(gate.shape[0], 1, 1, gate.shape[1])


class MBConv(Layer):
    """Inverted bottleneck: 1x1 expand, depthwise conv, channel excitation,
    1x1 project; identity shortcut when stride is 1 and channels match."""

    def __init__(self, in_ch, out_ch, expansion, kernel, stride, se_ratio, rng):
        super().__init__()
        if in_ch <= 0 or out_ch <= 0:
            raise ValueError(f"channel counts must be positive, got {in_ch} -> {out_ch}")
        if expansion < 1:
            raise ValueError(f"expansion must be >= 1, got {expansion}")
        mid = in_ch * expansion
        self.use_residual = stride == 1 and in_ch == out_ch
        if expansion != 1:
            self.expand_conv = Conv2d(in_ch, mid, 1, rng)
            self.expand_bn = BatchNorm2d(mid)
        self.dw = DepthwiseConv2d(mid, kernel, rng, stride)
        self.dw_bn = BatchNorm2d(mid)
        if se_ratio > 0:
            # reduction is computed from the block input width, not the
            # expanded width
            self.se = SqueezeExcite(mid, max(1, int(in_ch * se_ratio)), rng)
        self.project_conv = Conv2d(mid, out_ch, 1, rng)
        self.project_bn = BatchNorm2d(out_ch)
        self.act = Activation()

    def __call__(self, x, ctx):
        h = x
        if "expand_conv" in self._children:
            h = self.act(self.expand_bn(self.expand_conv(h, ctx), ctx), ctx)
        h = self.act(self.dw_bn(self.dw(h, ctx), ctx), ctx)
        if "se" in self._children:
            h = self.se(h, ctx)
        h = self.project_bn(self.project_conv(h, ctx), ctx)
        return h + x if self.use_residual else h


class TransformerBlock(Layer):
    """Post-norm encoder block: self-attention and feed-forward sublayers,
    each wrapped in dropout + residual + layer norm.  The attention node
    projects q | k | v with the one (hidden, 3*hidden) ``qkv`` weight; only q
    and v carry a bias (``qv_bias``)."""

    def __init__(self, hidden, heads, dropout_rate, rng):
        super().__init__()
        self.heads = heads
        # three (hidden, hidden) draws laid side by side
        self.qkv = Tensor(rng.standard_normal((3, hidden, hidden)).transpose(1, 0, 2)
                          .reshape(hidden, 3 * hidden) * 0.02, requires_grad=True)
        self.qv_bias = Tensor(np.zeros(2 * hidden), requires_grad=True)
        self.out = Linear(hidden, hidden, rng, std=0.02)
        self.norm1 = LayerNorm(hidden)
        self.ff1 = Linear(hidden, 4 * hidden, rng, std=0.02)
        self.ff2 = Linear(4 * hidden, hidden, rng, std=0.02)
        self.norm2 = LayerNorm(hidden)
        self.act = Activation()
        self.rate = dropout_rate

    def __call__(self, x, bias, ctx: Ctx):
        training = ctx.training and not self.frozen

        def drop(t):
            return ops.dropout(t, self.rate, ctx.rng, training)

        attn = ops.attention(x, self.qkv, self.qv_bias, bias, self.heads, self.rate,
                             ctx.rng, training)
        h = self.norm1(x + drop(self.out(attn, ctx)), ctx)
        ff = self.ff2(self.act(self.ff1(h, ctx), ctx), ctx)
        return self.norm2(h + drop(ff), ctx)


class TokenEmbedding(Layer):
    """Token plus learned positional embeddings, normalized and dropped out."""

    def __init__(self, vocab_size, max_len, hidden, dropout_rate, rng):
        super().__init__()
        self.tokens = Tensor(rng.standard_normal((vocab_size, hidden)) * 0.02,
                             requires_grad=True)
        self.positions = Tensor(rng.standard_normal((max_len, hidden)) * 0.02,
                                requires_grad=True)
        self.norm = LayerNorm(hidden)
        self.rate = dropout_rate
        self.max_len = max_len

    def __call__(self, ids, ctx: Ctx):
        ids = np.asarray(ids)
        if ids.ndim != 2:
            raise ShapeError(f"token ids must be (batch, seq), got {ids.shape}")
        if ids.shape[1] > self.max_len:
            raise ShapeError(f"sequence length {ids.shape[1]} exceeds max {self.max_len}")
        x = ops.embedding(self.tokens, ids) + ops.embedding(
            self.positions, np.arange(ids.shape[1]))
        x = self.norm(x, ctx)
        return ops.dropout(x, self.rate, ctx.rng, ctx.training and not self.frozen)


# -- whole models ----------------------------------------------------------------


class Network(Layer):
    """A built model: its children are its named groups, in the order added.

    Groups are the unit of freezing (`freeze`) and of per-group learning
    rates; every parameter path starts with exactly one group name.
    """

    def add_group(self, name: str, layer: Layer):
        if name in self._children:
            raise ValueError(f"duplicate group {name!r}")
        setattr(self, name, layer)

    def group_names(self):
        return list(self._children)

    def group(self, name: str) -> Layer:
        if name not in self._children:
            raise KeyError(f"unknown group {name!r}; have {self.group_names()}")
        return self._children[name]

    def freeze(self, keep_trainable):
        """Freeze every group not listed."""
        keep = set(keep_trainable)
        unknown = keep - set(self._children)
        if unknown:
            raise KeyError(f"unknown group(s) {sorted(unknown)}; have {self.group_names()}")
        for name, group in self._children.items():
            group.set_frozen(name not in keep)

    def __call__(self, *inputs):
        """Class probabilities: the softmax of ``logits(*inputs)``."""
        return ops.softmax(self.logits(*inputs), axis=-1)

    # -- checkpointing ---------------------------------------------------

    def state_arrays(self):
        return {**{name: p.data for name, p in self.named_params()},
                **dict(self.named_buffers())}

    def checkpoint_meta(self):
        """Meta keys a checkpoint of this network records and must match."""
        return {}

    def save(self, path, extra_meta=None):
        meta = {"kind": "network-state", "groups": self.group_names(),
                "buffers": [n for n, _ in self.named_buffers()],
                **self.checkpoint_meta(), **(extra_meta or {})}
        save_tensors(path, self.state_arrays(), meta)

    def load(self, path, skip_groups=()):
        """Copy each parameter and buffer outside ``skip_groups`` from a
        checkpoint whose meta matches this network; ``num_classes`` is not
        compared when the head is skipped.  Every failure names ``path``."""
        arrays, meta = load_tensors(path)
        if (meta or {}).get("kind") != "network-state":
            raise ValueError(f"{path}: not a network checkpoint")
        for key, want in self.checkpoint_meta().items():
            if key not in meta:
                raise ValueError(f"{path}: checkpoint records no {key}")
            if meta[key] != want and not (key == "num_classes" and "head" in skip_groups):
                raise ValueError(f"{path}: checkpoint {key} is {meta[key]!r}, "
                                 f"this network needs {want!r}")
        for name, value in self.state_arrays().items():
            if any(name == g or name.startswith(g + ".") for g in skip_groups):
                continue
            if name not in arrays:
                raise ValueError(f"{path}: checkpoint missing tensor {name!r}")
            if arrays[name].shape != value.shape:
                raise ShapeError(f"{path}: {name}: checkpoint shape "
                                 f"{arrays[name].shape} != model {value.shape}")
            value[...] = arrays[name]
        return meta


class ImageNetwork(Network):
    """Convolutional classifier; groups run in insertion order."""

    def __init__(self, input_size: int, num_classes: int):
        super().__init__()
        self.input_size = input_size
        self.num_classes = num_classes

    def checkpoint_meta(self):
        strides = [block.dw.stride for name, stage in self._children.items()
                   if name.startswith("stage") for block in stage._children.values()]
        return {"model": "image", "num_classes": self.num_classes,
                "input_size": self.input_size, "strides": strides}

    def logits(self, x, ctx: Ctx):
        """Logits of an (N,C,H,W) batch (an array, or a Tensor taking no
        gradient), transposed once, here, to the layers' (N,H,W,C)."""
        x = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
        x = Tensor(np.ascontiguousarray(x.transpose(0, 2, 3, 1)))
        for group in self._children.values():
            x = group(x, ctx)
        return x


class TextNetwork(Network):
    """Transformer classifier over token ids; reads the position-0 hidden
    state as the sequence representation."""

    def __init__(self, num_classes: int):
        super().__init__()
        self.num_classes = num_classes

    def checkpoint_meta(self):
        return {"model": "text", "num_classes": self.num_classes,
                "max_len": self.group("embedding").max_len,
                "heads": self.group("layer_1").heads}

    def logits(self, ids, ctx: Ctx, mask):
        mask = np.asarray(mask, dtype=np.float64)
        bias = (mask - 1.0) * 1e9  # -1e9 on padding, 0 on real tokens
        bias = bias.reshape(bias.shape[0], 1, 1, bias.shape[1])
        x = self.group("embedding")(ids, ctx)
        for name, group in self._children.items():
            if name.startswith("layer_"):
                x = group(x, bias, ctx)
        return self.group("head")(x[:, 0], ctx)
