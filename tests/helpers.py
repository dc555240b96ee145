"""Shared oracles and fixtures for the test suite.

The oracle half is deliberately independent of the library's fast paths:
plain loops, sequential sums, central finite differences, channels-first
(N,C,H,W) image arithmetic where the library runs channels-last, the
optimizer steps as plain out-of-place formulas, training batch norm's
backward through the normalized batch, and ensemble-eval as the
per-split loop that forwards every split's documents on loaders of their
own.  It also holds the tape ops
that no model records (``sub``, ``div``, ``matmul``, ``transpose``,
``tsum``, ``tmean``, ``sqrt`` and ``relu``), built on ``Tensor.from_op``
with their closed-form vjps; the tests compose them into references for the
fused ops.
The model half provides a tiny classifier with no batch statistics or
dropout, so worker sharding cannot change its per-sample behavior.
"""

import numpy as np

from docbench import ops
from docbench.data import ImageLoader, TextLoader
from docbench.ensemble import (evaluate, fuse, grid_search_weights,
                               predict_classes)
from docbench.layers import (BatchNorm2d, Conv2d, DepthwiseConv2d, Dropout,
                             GlobalAvgPool, Linear, MBConv, Network, Sequential,
                             SqueezeExcite)
from docbench.parallel import predict
from docbench.tensor import Tensor, _unbroadcast


def sub(a, b):
    return Tensor.from_op("sub", (a, b), a.data - b.data, lambda g: (
        _unbroadcast(g, a.shape), _unbroadcast(-g, b.shape)))


def div(a, b):
    return Tensor.from_op("div", (a, b), a.data / b.data, lambda g: (
        _unbroadcast(g / b.data, a.shape),
        _unbroadcast(-g * a.data / (b.data * b.data), b.shape)))


def matmul(a, b):
    """``a @ b`` over the last two axes, leading axes broadcast."""
    return Tensor.from_op("matmul", (a, b), a.data @ b.data, lambda g: (
        _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape),
        _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape)))


def transpose(a, *axes):
    inverse = tuple(np.argsort(axes))
    return Tensor.from_op("transpose", (a,), a.data.transpose(axes),
                          lambda g: (g.transpose(inverse),))


def _expand(g, shape, axis, keepdims):
    """Broadcast a reduced gradient back to the pre-reduction ``shape``."""
    if axis is not None and not keepdims:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g, shape).copy()


def tsum(a, axis=None, keepdims=False):
    return Tensor.from_op("sum", (a,), a.data.sum(axis=axis, keepdims=keepdims),
                          lambda g: (_expand(g, a.shape, axis, keepdims),))


def tmean(a, axis=None, keepdims=False):
    out = a.data.mean(axis=axis, keepdims=keepdims)
    count = a.data.size // out.size
    return Tensor.from_op("mean", (a,), out,
                          lambda g: (_expand(g, a.shape, axis, keepdims) / count,))


def sqrt(a):
    out = np.sqrt(a.data)
    return Tensor.from_op("sqrt", (a,), out, lambda g: (g * 0.5 / out,))


def relu(a):
    mask = a.data > 0
    return Tensor.from_op("relu", (a,), np.where(mask, a.data, 0.0),
                          lambda g: (g * mask,))


class FlatImageModel(Network):
    """linear -> relu -> linear over flattened inputs; shard-invariant."""

    def __init__(self, pixels, num_classes, seed):
        super().__init__()
        rng = np.random.default_rng(seed)
        self.input_size = None
        self.add_group("body", Linear(pixels, 16, rng))
        self.add_group("head", Linear(16, num_classes, rng))

    def logits(self, x, ctx):
        if not isinstance(x, Tensor):
            x = Tensor(np.asarray(x, dtype=np.float64))
        h = x.reshape(x.shape[0], -1)
        h = relu(self.group("body")(h, ctx))
        return self.group("head")(h, ctx)


class ReplayLoader:
    """Fixed global batches, identical every epoch."""

    def __init__(self, batches):
        self.batches = batches

    def epoch(self, epoch_index):
        return iter(self.batches)

    def batches_per_epoch(self):
        return len(self.batches)


def flat_params(net):
    return np.concatenate([p.data.ravel() for _, p in net.named_params()])


def count_params(net):
    """Total learnable parameter elements (weights, biases, norm scale/shift)."""
    return sum(p.data.size for _, p in net.named_params())


def trainable_count(net):
    """Parameter elements that still require gradients."""
    return sum(p.data.size for _, p in net.named_params() if p.requires_grad)


def sgd_step_oracle(params, grads, lr, cfg, velocity):
    """Momentum step as plain formulas, one fresh array per operation."""
    velocity *= cfg.momentum
    velocity += grads
    velocity += cfg.weight_decay * params
    params -= lr * velocity


def adam_step_oracle(params, grads, lr, cfg, t, m, v):
    """Bias-corrected adaptive step with coupled L2 decay as plain formulas,
    one fresh array per operation."""
    g = grads + cfg.weight_decay * params
    m *= cfg.beta1
    m += (1.0 - cfg.beta1) * g
    v *= cfg.beta2
    v += (1.0 - cfg.beta2) * g * g
    m_hat = m / (1.0 - cfg.beta1 ** t)
    v_hat = v / (1.0 - cfg.beta2 ** t)
    params -= lr * m_hat / (np.sqrt(v_hat) + cfg.epsilon)


def naive_allreduce(vectors):
    """Sequential fixed-order summation; the oracle the ring must match."""
    arrays = [np.asarray(v) for v in vectors]
    if not arrays:
        raise ValueError("need at least one vector")
    total = arrays[0].copy()
    for a in arrays[1:]:
        if a.shape != total.shape:
            raise ValueError(f"length mismatch: {a.shape} vs {total.shape}")
        total = total + a
    return [total.copy() for _ in arrays]


def nhwc(x):
    """Contiguous channels-last copy of an (N,C,H,W) array."""
    return np.ascontiguousarray(np.transpose(x, (0, 2, 3, 1)))


def nchw(x):
    """Contiguous channels-first copy of an (N,H,W,C) array."""
    return np.ascontiguousarray(np.transpose(x, (0, 3, 1, 2)))


def same_pad(x, field, stride=1):
    """Zero-pad (N,C,H,W) so a valid-padded filter yields ceil(H/stride) x
    ceil(W/stride) outputs, with the odd pixel of padding after."""
    pads = []
    for extent in x.shape[2:]:
        total = max((-(-extent // stride) - 1) * stride + field - extent, 0)
        pads.append((total // 2, total - total // 2))
    return np.pad(x, ((0, 0), (0, 0), *pads))


def conv2d_loops(x, w, b=None, stride=1):
    """Six nested loops, valid padding only."""
    n, c, h, wd = x.shape
    k, _, f, _ = w.shape
    oh = (h - f) // stride + 1
    ow = (wd - f) // stride + 1
    out = np.zeros((n, k, oh, ow), dtype=x.dtype)
    for ni in range(n):
        for ki in range(k):
            for oi in range(oh):
                for oj in range(ow):
                    acc = 0.0
                    for ci in range(c):
                        for fi in range(f):
                            for fj in range(f):
                                acc += (x[ni, ci, oi * stride + fi, oj * stride + fj]
                                        * w[ki, ci, fi, fj])
                    out[ni, ki, oi, oj] = acc
            if b is not None:
                out[ni, ki] += b[ki]
    return out


def conv2d_loops_vjp(x, w, g, stride=1):
    """Gradients of ``sum(conv2d_loops(x, w, stride=stride) * g)`` with
    respect to x and w, by the same six loops."""
    n, c, _, _ = x.shape
    k, _, f, _ = w.shape
    dx, dw = np.zeros_like(x), np.zeros_like(w)
    for ni in range(n):
        for ki in range(k):
            for oi in range(g.shape[2]):
                for oj in range(g.shape[3]):
                    for ci in range(c):
                        for fi in range(f):
                            for fj in range(f):
                                xi, xj = oi * stride + fi, oj * stride + fj
                                dx[ni, ci, xi, xj] += g[ni, ki, oi, oj] * w[ki, ci, fi, fj]
                                dw[ki, ci, fi, fj] += g[ni, ki, oi, oj] * x[ni, ci, xi, xj]
    return dx, dw


def same_crop(dxp, shape, field, stride=1):
    """Adjoint of :func:`same_pad`: the (N,C,H,W) ``shape`` window of a
    gradient with respect to the padded input."""
    tops = [max((-(-e // stride) - 1) * stride + field - e, 0) // 2 for e in shape[2:]]
    return dxp[:, :, tops[0] : tops[0] + shape[2], tops[1] : tops[1] + shape[3]]


def depthwise_taps(x, w, stride=1):
    """The depthwise forward of (N,H,W,C) ``x`` with (C,1,F,F) ``w`` as a loop
    over the F x F taps: each tap's strided view of the same-padded input,
    times the tap's filter row, joins a zeroed output in (i, j) order."""
    f = w.shape[2]
    xp = nhwc(same_pad(nchw(x), f, stride))
    out_h, out_w = -(-x.shape[1] // stride), -(-x.shape[2] // stride)
    out = np.zeros((x.shape[0], out_h, out_w, x.shape[3]))
    for i in range(f):
        for j in range(f):
            out += xp[:, i : i + stride * out_h : stride, j : j + stride * out_w : stride] \
                * w[:, 0, i, j]
    return out


def batch_norm_backward(x, g, gamma, eps):
    """(dx, d(gamma), d(beta)) of training batch norm over the (M, C) rows of
    ``x`` with upstream ``g``, through x-hat: ``d = g * gamma``, less its
    column mean, less x-hat times the column mean of ``d * x-hat``, over the
    standard deviation."""
    normed = x - x.mean(axis=0)
    std = np.sqrt((normed * normed).mean(axis=0) + eps)
    normed /= std
    d = g * gamma
    proj = (d * normed).mean(axis=0)
    d -= d.mean(axis=0)
    d -= normed * proj
    d /= std
    return d, (g * normed).sum(axis=0), g.sum(axis=0)


def _swish(x):
    return x / (1.0 + np.exp(-x))


def nchw_forward(layer, x):
    """Eval-mode forward of an image network, group or layer on an (N,C,H,W)
    array, channels-first throughout, with convolutions from
    :func:`conv2d_loops` over the layers' own (K,C,F,F) and (C,1,F,F)
    filters."""
    if isinstance(layer, Conv2d):
        f = layer.weight.shape[2]
        return conv2d_loops(same_pad(x, f, layer.stride), layer.weight.data,
                            stride=layer.stride)
    if isinstance(layer, DepthwiseConv2d):
        w, s = layer.weight.data, layer.stride
        xp = same_pad(x, w.shape[2], s)
        return np.concatenate([conv2d_loops(xp[:, c : c + 1], w[c : c + 1], stride=s)
                               for c in range(x.shape[1])], axis=1)
    if isinstance(layer, BatchNorm2d):
        mean, var, gamma, beta = (a.reshape(1, -1, 1, 1) for a in (
            layer.running_mean, layer.running_var, layer.gamma.data, layer.beta.data))
        y = (x - mean) / np.sqrt(var + layer.eps) * gamma + beta
        return _swish(y) if layer.swish else y
    if isinstance(layer, GlobalAvgPool):
        return x.mean(axis=(2, 3))
    if isinstance(layer, Dropout):
        return x
    if isinstance(layer, Linear):
        return x @ layer.weight.data + layer.bias.data
    if isinstance(layer, SqueezeExcite):
        pooled = x.mean(axis=(2, 3))
        gate = nchw_forward(layer.expand, _swish(nchw_forward(layer.reduce, pooled)))
        return x / (1.0 + np.exp(-gate))[:, :, None, None]
    if isinstance(layer, MBConv):
        h, kids = x, layer._children
        if "expand_conv" in kids:
            h = nchw_forward(layer.expand_bn, nchw_forward(layer.expand_conv, h))
        h = nchw_forward(layer.dw_bn, nchw_forward(layer.dw, h))
        if "se" in kids:
            h = nchw_forward(layer.se, h)
        h = nchw_forward(layer.project_bn, nchw_forward(layer.project_conv, h))
        return h + x if layer.use_residual else h
    assert isinstance(layer, (Sequential, Network)), type(layer)
    for child in layer._children.values():
        x = nchw_forward(child, x)
    return x


def fd_gradcheck(func, inputs, rtol=1e-6, step=1e-5, rng=None):
    """Central-difference check of d(sum(f * proj))/d(input) for each input.

    ``func`` maps Tensor inputs to one output Tensor.  Returns the worst
    relative error seen across all checked entries.
    """
    rng = rng or np.random.default_rng(0)
    tensors = [Tensor(np.asarray(a, dtype=np.float64), requires_grad=True)
               for a in inputs]
    out = func(*tensors)
    proj = rng.standard_normal(out.shape)
    loss = tsum(out * Tensor(proj))
    loss.backward()

    worst = 0.0
    for ti, t in enumerate(tensors):
        analytic = t.grad
        assert analytic is not None, f"input {ti} received no gradient"
        flat = t.data.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + step
            fp = float((func(*tensors).data * proj).sum())
            flat[idx] = orig - step
            fm = float((func(*tensors).data * proj).sum())
            flat[idx] = orig
            numeric = (fp - fm) / (2 * step)
            a = analytic.reshape(-1)[idx]
            denom = max(abs(a), abs(numeric), 1.0)
            err = abs(a - numeric) / denom
            worst = max(worst, err)
            assert err < rtol, (
                f"input {ti} entry {idx}: analytic {a:.10g} vs numeric "
                f"{numeric:.10g} (rel err {err:.3g})"
            )
    return worst


def ensemble_rows_oracle(corpus, plans, image_net, text_net, eval_batch,
                         image_size, max_len, seed, fixed, step=None):
    """ensemble-eval's per-split loop: every split forwards its own test
    documents, and its val documents too when ``step`` asks for a weight
    grid search, on loaders of their own.  Returns the report rows and, per
    forwarded set, (document ids, image probabilities, text probabilities),
    the ids recomputed from the loaders' (seed, epoch 0) shuffle."""
    forwarded = []

    def probs(indices):
        docs = np.random.default_rng(
            np.random.SeedSequence([seed, 0])).permutation(indices)
        loaders = ((image_net, ImageLoader(corpus, indices, eval_batch, image_size,
                                           seed=seed, drop_last=False)),
                   (text_net, TextLoader(corpus, indices, eval_batch, max_len,
                                         seed=seed, drop_last=False)))
        out = []
        for net, loader in loaders:
            batches = list(predict(net, loader))
            out.append(np.concatenate([ops.softmax(Tensor(logits), axis=-1).data
                                       for logits, _ in batches]))
            labels = np.concatenate([y for _, y in batches])
        forwarded.append((docs, *out))
        return (*out, labels)

    rows = []
    for plan in plans:
        if step is None:
            weights = fixed
        else:
            pv_img, pv_txt, yv = probs(plan.val)
            weights = grid_search_weights(pv_txt, pv_img, yv, step)
        p_img, p_txt, y = probs(plan.test)
        fused = fuse(p_txt, p_img, weights)
        rows.append({
            "split_id": plan.split_id,
            "image_acc": evaluate(predict_classes(p_img), y),
            "text_acc": evaluate(predict_classes(p_txt), y),
            "ensemble_acc": evaluate(predict_classes(fused), y),
            "w1": weights.w1, "w2": weights.w2,
        })
    return rows, forwarded
