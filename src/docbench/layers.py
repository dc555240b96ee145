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
        object.__setattr__(self, "_items", [])
        for item in items:
            self.append(item)

    def append(self, layer: Layer):
        self._children[str(len(self._items))] = layer
        self._items.append(layer)

    def __iter__(self):
        return iter(self._items)

    def __len__(self):
        return len(self._items)

    def __call__(self, x, ctx: Ctx):
        for layer in self._items:
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

    def __init__(self, in_features, out_features, rng=None, bias=True, std=None):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng()
        if std is None:
            std = float(np.sqrt(2.0 / in_features))
        self.weight = Tensor(rng.standard_normal((in_features, out_features)) * std,
                             requires_grad=True)
        self.bias = Tensor(np.zeros(out_features), requires_grad=True) if bias else None

    def __call__(self, x, ctx):
        out = x @ self.weight
        return out + self.bias if self.bias is not None else out


class Conv2d(Layer):
    def __init__(self, in_ch, out_ch, kernel, stride=1, padding=ops.SAME,
                 bias=True, rng=None):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng()
        std = float(np.sqrt(2.0 / (in_ch * kernel * kernel)))
        self.weight = Tensor(
            rng.standard_normal((out_ch, in_ch, kernel, kernel)) * std,
            requires_grad=True)
        self.bias = Tensor(np.zeros(out_ch), requires_grad=True) if bias else None
        self.stride = stride
        self.padding = padding

    def __call__(self, x, ctx):
        return ops.conv2d(x, self.weight, self.bias, self.stride, self.padding)


class DepthwiseConv2d(Layer):
    def __init__(self, channels, kernel, stride=1, padding=ops.SAME, rng=None):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng()
        std = float(np.sqrt(2.0 / (kernel * kernel)))
        self.weight = Tensor(
            rng.standard_normal((channels, 1, kernel, kernel)) * std,
            requires_grad=True)
        self.stride = stride
        self.padding = padding

    def __call__(self, x, ctx):
        return ops.depthwise_conv2d(x, self.weight, self.stride, self.padding)


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

    def __init__(self, channels, reduced, rng=None):
        super().__init__()
        self.reduce = Linear(channels, reduced, rng)
        self.act = Activation()
        self.expand = Linear(reduced, channels, rng)

    def __call__(self, x, ctx):
        pooled = ops.global_avg_pool(x)
        gate = self.expand(self.act(self.reduce(pooled, ctx), ctx), ctx).sigmoid()
        return x * gate.reshape(gate.shape[0], gate.shape[1], 1, 1)


class MBConv(Layer):
    """Inverted bottleneck: 1x1 expand, depthwise conv, channel excitation,
    1x1 project; identity shortcut when stride is 1 and channels match."""

    def __init__(self, in_ch, out_ch, expansion, kernel, stride, se_ratio,
                 rng=None):
        super().__init__()
        if in_ch <= 0 or out_ch <= 0:
            raise ValueError(f"channel counts must be positive, got {in_ch} -> {out_ch}")
        if expansion < 1:
            raise ValueError(f"expansion must be >= 1, got {expansion}")
        mid = in_ch * expansion
        self.use_residual = stride == 1 and in_ch == out_ch
        if expansion != 1:
            self.expand_conv = Conv2d(in_ch, mid, 1, bias=False, rng=rng)
            self.expand_bn = BatchNorm2d(mid)
        self.dw = DepthwiseConv2d(mid, kernel, stride=stride, rng=rng)
        self.dw_bn = BatchNorm2d(mid)
        if se_ratio > 0:
            # reduction is computed from the block input width, not the
            # expanded width
            self.se = SqueezeExcite(mid, max(1, int(in_ch * se_ratio)), rng)
        self.project_conv = Conv2d(mid, out_ch, 1, bias=False, rng=rng)
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


class MultiHeadSelfAttention(Layer):
    def __init__(self, hidden, heads, dropout_rate, rng=None):
        super().__init__()
        if hidden % heads:
            raise ValueError(f"hidden {hidden} not divisible by {heads} heads")
        self.heads = heads
        self.head_dim = hidden // heads
        self.rate = dropout_rate
        self.q = Linear(hidden, hidden, rng, std=0.02)
        self.k = Linear(hidden, hidden, rng, std=0.02)
        self.v = Linear(hidden, hidden, rng, std=0.02)
        self.out = Linear(hidden, hidden, rng, std=0.02)

    def _split(self, t, b, n):
        return t.reshape(b, n, self.heads, self.head_dim).transpose(0, 2, 1, 3)

    def __call__(self, x, bias, ctx: Ctx):
        b, n, hidden = x.shape
        q = self._split(self.q(x, ctx), b, n)
        k = self._split(self.k(x, ctx), b, n)
        v = self._split(self.v(x, ctx), b, n)
        scores = (q @ k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if bias is not None:
            scores = scores + bias
        probs = ops.softmax(scores, axis=-1)
        probs = ops.dropout(probs, self.rate, ctx.rng, ctx.training and not self.frozen)
        merged = (probs @ v).transpose(0, 2, 1, 3).reshape(b, n, hidden)
        return self.out(merged, ctx)


class TransformerBlock(Layer):
    """Post-norm encoder block: self-attention and feed-forward sublayers,
    each wrapped in dropout + residual + layer norm."""

    def __init__(self, hidden, heads, dropout_rate, rng=None):
        super().__init__()
        self.attn = MultiHeadSelfAttention(hidden, heads, dropout_rate, rng)
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

        h = self.norm1(x + drop(self.attn(x, bias, ctx)), ctx)
        ff = self.ff2(self.act(self.ff1(h, ctx), ctx), ctx)
        return self.norm2(h + drop(ff), ctx)


class TokenEmbedding(Layer):
    """Token plus learned positional embeddings, normalized and dropped out."""

    def __init__(self, vocab_size, max_len, hidden, dropout_rate, rng=None):
        super().__init__()
        if rng is None:
            rng = np.random.default_rng()
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
    """A built model: ordered named groups of layers.

    Groups are the unit of freezing (`freeze`) and of per-group learning
    rates; every parameter path starts with exactly one group name.
    """

    def __init__(self):
        super().__init__()
        object.__setattr__(self, "_group_order", [])

    def add_group(self, name: str, layer: Layer):
        if name in self._group_order:
            raise ValueError(f"duplicate group {name!r}")
        self._group_order.append(name)
        setattr(self, name, layer)

    def group_names(self):
        return list(self._group_order)

    def group(self, name: str) -> Layer:
        if name not in self._group_order:
            raise KeyError(f"unknown group {name!r}; have {self._group_order}")
        return self._children[name]

    def freeze(self, keep_trainable):
        """Freeze every group not listed."""
        keep = set(keep_trainable)
        unknown = keep - set(self._group_order)
        if unknown:
            raise KeyError(f"unknown group(s) {sorted(unknown)}; have {self._group_order}")
        for name in self._group_order:
            self.group(name).set_frozen(name not in keep)

    def trainable_count(self):
        return sum(p.data.size for _, p in self.named_params() if p.requires_grad)

    # -- checkpointing ---------------------------------------------------

    def state_arrays(self):
        return {**{name: p.data for name, p in self.named_params()},
                **dict(self.named_buffers())}

    def save(self, path, extra_meta=None):
        meta = {"kind": "network-state", "groups": self._group_order,
                "buffers": [n for n, _ in self.named_buffers()]}
        if extra_meta:
            meta.update(extra_meta)
        save_tensors(path, self.state_arrays(), meta)

    def load_state(self, arrays, skip_groups=()):
        def skipped(path):
            return any(path == g or path.startswith(g + ".") for g in skip_groups)

        for name, p in self.named_params():
            if skipped(name):
                continue
            if name not in arrays:
                raise KeyError(f"checkpoint missing parameter {name!r}")
            arr = arrays[name]
            if tuple(arr.shape) != p.shape:
                raise ShapeError(
                    f"{name}: checkpoint shape {tuple(arr.shape)} != model {p.shape}")
            p.data[...] = arr
        for name, b in self.named_buffers():
            if skipped(name):
                continue
            if name not in arrays:
                raise KeyError(f"checkpoint missing buffer {name!r}")
            b[...] = arrays[name]

    def checkpoint_meta(self):
        """Meta keys a checkpoint of this network records and must match."""
        return {}

    def load(self, path, skip_groups=()):
        """Load a checkpoint after checking its meta against this network;
        ``num_classes`` is not compared when the head is skipped."""
        arrays, meta = load_tensors(path)
        for key, want in self.checkpoint_meta().items():
            have = (meta or {}).get(key, want)
            if have != want and not (key == "num_classes" and "head" in skip_groups):
                raise ValueError(f"{path}: checkpoint {key} is {have!r}, "
                                 f"this network needs {want!r}")
        self.load_state(arrays, skip_groups)
        return meta


class ImageNetwork(Network):
    """Convolutional classifier; groups run in insertion order."""

    def __init__(self, input_size: int, num_classes: int, in_channels: int = 3):
        super().__init__()
        self.input_size = input_size
        self.num_classes = num_classes
        self.in_channels = in_channels

    def checkpoint_meta(self):
        return {"model": "image", "num_classes": self.num_classes,
                "input_size": self.input_size}

    def logits(self, x, ctx: Ctx):
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        for name in self._group_order:
            x = self.group(name)(x, ctx)
        return x

    def __call__(self, x, ctx: Ctx):
        return ops.softmax(self.logits(x, ctx), axis=-1)


class TextNetwork(Network):
    """Transformer classifier over token ids; reads the position-0 hidden
    state as the sequence representation."""

    def __init__(self, num_classes: int, pad_id: int = 0):
        super().__init__()
        self.num_classes = num_classes
        self.pad_id = pad_id

    def checkpoint_meta(self):
        return {"model": "text", "num_classes": self.num_classes,
                "max_len": self.group("embedding").max_len}

    def attention_bias(self, ids, mask=None):
        ids = np.asarray(ids)
        if mask is None:
            mask = ids != self.pad_id
        mask = np.asarray(mask, dtype=np.float64)
        bias = (mask - 1.0) * 1e9  # -1e9 on padding, 0 on real tokens
        return Tensor(bias.reshape(bias.shape[0], 1, 1, bias.shape[1]))

    def logits(self, ids, ctx: Ctx, mask=None):
        bias = self.attention_bias(ids, mask)
        x = self.group("embedding")(ids, ctx)
        for name in self._group_order:
            if name.startswith("layer_"):
                x = self.group(name)(x, bias, ctx)
        return self.group("head")(x[:, 0], ctx)

    def __call__(self, ids, ctx: Ctx, mask=None):
        return ops.softmax(self.logits(ids, ctx, mask), axis=-1)


def count_params(net: Layer) -> int:
    """Total learnable parameter elements (weights, biases, norm scale/shift)."""
    return sum(p.data.size for _, p in net.named_params())
