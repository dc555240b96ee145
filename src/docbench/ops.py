"""Neural-network operations on :class:`~docbench.tensor.Tensor`.

Image activations are channels-last (N,H,W,C); filters keep the (K,C,F,F)
dense and (C,1,F,F) depthwise layouts.  Both convolutions run over one
read-only window view and pad or dilate with one helper: a dense one is a
window-matrix GEMM each way, a depthwise one an einsum.  Batch and layer
norm, the affine map (``linear``: one 2-D GEMM whatever x's leading axes)
and multi-head self-attention (its q/k/v projection included) are single
ops with the closed-form backward.  Batch norm is one per-channel affine
map in both modes: of the centred batch in training, its gradient taken
from the column sums of g and g times the centred batch, and of x itself at
eval.
"""

from __future__ import annotations

import numpy as np

from . import tensor
from .tensor import ShapeError, Tensor, _sigmoid


def _check_4d(t, what, layout="N,H,W,C"):
    if t.ndim != 4:
        raise ShapeError(f"{what} must be 4-D ({layout}), got shape {t.shape}")


def _dilate(a, shape, top, left, stride=1):
    """C-contiguous zero array of ``shape`` holding (N,H,W,C) ``a``'s pixel
    (i, j) at (top + stride*i, left + stride*j), or ``a`` itself when it is
    C-contiguous and fills ``shape``.  At stride 1 only the border strips are
    zeroed and the interior copied, so each byte is written once."""
    if a.shape == shape:
        return np.ascontiguousarray(a)
    _, h, w, _ = a.shape
    if stride > 1:
        out = np.zeros(shape, a.dtype)
        out[:, top::stride, left::stride][:, :h, :w] = a
        return out
    out = np.empty(shape, a.dtype)
    out[:, :top] = 0.0
    out[:, top + h :] = 0.0
    band = out[:, top : top + h]
    band[:, :, :left] = 0.0
    band[:, :, left + w :] = 0.0
    band[:, :, left : left + w] = a
    return out


def _same_pad(x, field, stride):
    """C-contiguous zero-padding of (N,H,W,C) ``x`` so a ``field``-wide filter
    at ``stride`` yields ceil(extent / stride) outputs per spatial axis, the
    odd pixel going after; returns ``(padded, top, left, out_h, out_w)``."""
    pads, outs = [], []
    for extent in x.shape[1:3]:
        out = -(-extent // stride)
        total = max((out - 1) * stride + field - extent, 0)
        pads.append((total // 2, total - total // 2))
        outs.append(out)
    n, h, w, c = x.shape
    (top, bottom), (left, right) = pads
    return _dilate(x, (n, top + h + bottom, left + w + right, c), top, left), top, left, *outs


def _view(a, f, stride, out_h, out_w, tiled=False):
    """Read-only view of the F x F windows of C-contiguous (N,H,W,C) ``a`` at
    ``stride``: (N,Ho,Wo,C,F,F), or with ``tiled`` (stride 1 only)
    (N,Ho,1,Wo*C,F,F), its q axis an output row's contiguous (w, c) entries.
    Its strides come from the shape (numpy may report any stride for a
    length-1 axis), and numpy checks their extent against ``a``."""
    n, hp, wp, c = a.shape
    item = a.itemsize
    row = wp * c * item
    lead, steps = (n, out_h, out_w, c), (hp * row, stride * row, stride * c * item, item)
    if tiled:
        lead, steps = (n, out_h, 1, out_w * c), (hp * row, row, 0, item)
    view = np.ndarray(lead + (f, f), a.dtype, a, 0, steps + (row, c * item))
    view.flags.writeable = False
    return view


def conv2d(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    """Same-padded, bias-free 2-D cross-correlation of (N,H,W,C) input with
    (K,C,F,F) filters, giving (N,Ho,Wo,K).

    Forward and dW are one GEMM each between the (N*Ho*Wo, C*F*F) window
    matrix of the padded input and the (K, C*F*F) filter matrix.  dX, formed
    only for an input that takes a gradient, is one GEMM of the stride-1
    window matrix of g, dilated by the stride and offset by F-1 less the
    forward's top/left padding, with the (K*F*F, C) flipped filter matrix.
    For a 1x1 filter at stride 1 both window matrices are views of x and g.
    """
    _check_4d(x, "conv2d input")
    _check_4d(w, "conv2d filters", "K,C,F,F")
    n, h, wd, c = x.shape
    k, cf, f, fw = w.shape
    if f != fw:
        raise ShapeError(f"only square filters supported, got {f}x{fw}")
    if cf != c:
        raise ShapeError(f"filter channels {cf} do not match input channels {c}")
    xp, top, left, out_h, out_w = _same_pad(x.data, f, stride)
    cols = _view(xp, f, stride, out_h, out_w).reshape(-1, c * f * f)
    wmat = w.data.reshape(k, -1)
    out = cols @ wmat.T

    def vjp(g):
        dw = (g.reshape(-1, k).T @ cols).reshape(w.shape)
        if not x.requires_grad:  # an image batch: its gradient has no reader
            return None, dw
        gp = _dilate(g, (n, h + f - 1, wd + f - 1, k), f - 1 - top, f - 1 - left, stride)
        flipped = w.data[:, :, ::-1, ::-1].transpose(0, 2, 3, 1).reshape(-1, c)
        return (_view(gp, f, 1, h, wd).reshape(-1, k * f * f) @ flipped).reshape(x.shape), dw

    return Tensor.from_op("conv2d", (x, w), out.reshape(n, out_h, out_w, k), vjp)


def _windows(a, planes, stride, out_h, out_w):
    """(N,Ho,Wo,C) correlation of C-contiguous (N,H,W,C) ``a`` with (C,F,F)
    ``planes`` at ``stride``, one einsum over the window view it also
    returns, tiled at stride 1.  For C > 1 the inner loop runs along q: each
    output sums its taps in (i, j) order."""
    n, _, _, c = a.shape
    taps = np.ascontiguousarray(planes.transpose(1, 2, 0))  # (F, F, C)
    if stride == 1:
        taps = np.tile(taps, out_w)
    view = _view(a, planes.shape[-1], stride, out_h, out_w, tiled=stride == 1)
    return np.einsum("nhwqij,ijq->nhwq", view, taps).reshape(n, out_h, out_w, c), view


def depthwise_conv2d(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    """Same-padded per-channel convolution of (N,H,W,C) input with one
    (C,1,F,F) filter plane per channel.

    Forward, dW and dX are one einsum each over a window view: dW contracts
    g with the forward's view, then sums over the tiled output width; dX is
    the stride-1 correlation of the flipped filters with g, dilated by the
    stride and offset by F-1 less the forward's top/left padding.
    """
    _check_4d(x, "depthwise input")
    _check_4d(w, "depthwise filters", "C,1,F,F")
    n, h, wd, c = x.shape
    cf, one, f, fw = w.shape
    if one != 1 or f != fw:
        raise ShapeError(f"depthwise filters must be (C,1,F,F), got {w.shape}")
    if cf != c:
        raise ShapeError(f"one filter plane per channel required: {cf} planes, {c} channels")
    xp, top, left, out_h, out_w = _same_pad(x.data, f, stride)
    out, view = _windows(xp, w.data[:, 0], stride, out_h, out_w)

    def vjp(g):
        dw = np.einsum("nhwq,nhwqij->ijq", g.reshape(view.shape[:4]), view)
        gp = _dilate(g, (n, h + f - 1, wd + f - 1, c), f - 1 - top, f - 1 - left, stride)
        dx = _windows(gp, w.data[:, 0, ::-1, ::-1], 1, h, wd)[0]
        return dx, dw.reshape(f, f, -1, c).sum(axis=2).transpose(2, 0, 1)[:, None]

    return Tensor.from_op("depthwise_conv2d", (x, w), out, vjp)


def global_avg_pool(x: Tensor) -> Tensor:
    """(N,H,W,C) -> (N,C) spatial mean."""
    _check_4d(x, "global_avg_pool input")
    _, h, w, _ = x.shape
    return Tensor.from_op("global_avg_pool", (x,), x.data.mean(axis=(1, 2)), lambda g: (
        np.broadcast_to(g[:, None, None, :], x.shape) / (h * w),))


def linear(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """``x @ W + b`` on the last axis of ``x``, with x's leading axes run as
    the rows of one 2-D GEMM."""
    if w.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ShapeError(f"linear: input {x.shape} does not match weight {w.shape}")
    x2 = x.data.reshape(-1, w.shape[0])
    out = x2 @ w.data
    out += b.data

    def vjp(g):
        g2 = g.reshape(out.shape)
        return (g2 @ w.data.T).reshape(x.shape), x2.T @ g2, g2.sum(axis=0)

    return Tensor.from_op("linear", (x, w, b), out.reshape(*x.shape[:-1], -1), vjp)


def swish(x: Tensor) -> Tensor:
    """x * sigmoid(x), fused; written over the sigmoid when no tape keeps it."""
    s = _sigmoid(x.data)
    out = np.multiply(x.data, s, out=None if tensor._recording and x.requires_grad else s)

    def vjp(g):  # (x*s*(1-s) + s) * g, with x*s the output
        d = 1.0 - s
        d *= out
        d += s
        d *= g
        return (d,)

    return Tensor.from_op("swish", (x,), out, vjp)


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Max-subtracted softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return Tensor.from_op("softmax", (x,), out, vjp)


def softmax_crossentropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-likelihood of integer ``labels`` under row softmax."""
    if logits.ndim != 2:
        raise ShapeError(f"logits must be (N,C), got {logits.shape}")
    labels = np.asarray(labels)
    n, c = logits.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ValueError(f"labels must lie in [0, {c}), got range "
                         f"[{labels.min()}, {labels.max()}]")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    loge = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    loss = -loge[np.arange(n), labels].mean()
    probs = np.exp(loge)

    def vjp(g):
        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        return (g * d / n,)

    return Tensor.from_op("softmax_crossentropy", (logits,), loss, vjp)


def _keep_mask(shape, rate, rng, training):
    """Inverted-dropout multiplier of ``shape`` (kept units 1/(1-rate), the
    rest 0) drawn from ``rng``, or None when nothing is dropped."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return None
    if rng is None:
        raise ValueError("training-mode dropout needs an rng")
    return (rng.random(shape) >= rate) / (1.0 - rate)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None = None,
            training: bool = True) -> Tensor:
    """Inverted dropout: scales kept units by 1/(1-rate); identity at eval."""
    keep = _keep_mask(x.shape, rate, rng, training)
    if keep is None:
        return x
    out = x.data * keep
    return Tensor.from_op("dropout", (x,), out, lambda g: (g * keep,))


def attention(x: Tensor, w: Tensor, b: Tensor, bias, heads: int, rate: float,
              rng: np.random.Generator | None = None,
              training: bool = True) -> Tensor:
    """Multi-head self-attention of (B, N, hidden) ``x`` as one tape node.

    One GEMM projects x by the (hidden, 3*hidden) ``w`` into q | k | v, and
    the (2*hidden,) ``b`` shifts q and v; k has no bias, since softmax ignores
    the q.b_k it would add to all of one query's scores.  The constant
    ``bias`` (the padding mask, broadcast against the (B, heads, N, N)
    scores) joins the scaled scores before the max-shifted softmax over keys;
    dropout on the probabilities draws from ``rng`` as :func:`dropout` does.
    """
    if x.ndim != 3 or w.shape != (x.shape[2], 3 * x.shape[2]) \
            or b.shape != (2 * x.shape[2],):
        raise ShapeError(f"attention needs (B,N,hidden) x, (hidden,3*hidden) w and "
                         f"(2*hidden,) b, got {x.shape}, {w.shape}, {b.shape}")
    bsz, n, hidden = x.shape
    if heads < 1 or hidden % heads:
        raise ShapeError(f"hidden {hidden} not divisible by {heads} heads")
    d = hidden // heads
    x2 = x.data.reshape(-1, hidden)
    qkv = x2 @ w.data
    qkv.reshape(-1, 3, hidden)[:, ::2] += b.data.reshape(2, hidden)
    # (B, heads, N, d) views of the q, k and v columns
    qh, kh, vh = qkv.reshape(bsz, n, 3, heads, d).transpose(2, 0, 3, 1, 4)
    scale = 1.0 / np.sqrt(d)
    scores = qh @ np.swapaxes(kh, -1, -2)
    scores *= scale
    scores += bias
    scores -= scores.max(axis=-1, keepdims=True)
    e = np.exp(scores)
    probs = e / e.sum(axis=-1, keepdims=True)
    keep = _keep_mask(probs.shape, rate, rng, training)
    dropped = probs if keep is None else probs * keep

    def vjp(g):
        gh = g.reshape(bsz, n, heads, d).transpose(0, 2, 1, 3)
        dprobs = gh @ np.swapaxes(vh, -1, -2)
        if keep is not None:
            dprobs *= keep
        dscores = probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))
        dscores *= scale
        dqkv = np.stack([dscores @ kh, np.swapaxes(dscores, -1, -2) @ qh,
                         np.swapaxes(dropped, -1, -2) @ gh], axis=2)  # (B,heads,3,N,d)
        dqkv = dqkv.transpose(0, 3, 2, 1, 4).reshape(-1, 3 * hidden)
        db = dqkv.reshape(-1, 3, hidden)[:, ::2].sum(axis=0).reshape(-1)
        return (dqkv @ w.data.T).reshape(x.shape), x2.T @ dqkv, db

    out = (dropped @ vh).transpose(0, 2, 1, 3).reshape(bsz, n, hidden)
    return Tensor.from_op("attention", (x, w, b), out, vjp)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup ``table[ids]``; duplicate ids accumulate gradient."""
    ids = np.asarray(ids)
    if ids.min() < 0 or ids.max() >= table.shape[0]:
        raise ValueError(f"ids out of range [0, {table.shape[0]})")
    out = table.data[ids]

    def vjp(g):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids, g)
        return (dt,)

    return Tensor.from_op("embedding", (table,), out, vjp)


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5,
               running=None):
    """Per-channel normalization of (N,H,W,C) over batch, height and width,
    with (C,) ``gamma`` and ``beta`` and the batch statistics or the constant
    ``running=(mean, var)`` pair; returns ``(out, mean, var)``, all (C,)
    but ``out``.

    Over the (M, C) rows of x both modes are one affine map, ``a = gamma /
    std`` with ``std = sqrt(var + eps)``.  Training maps the centred batch
    ``xc``, ``xc * a + beta``, and takes ``dx = (g - dbeta/M - xc *
    dgamma/(M*std)) * a`` from the column sums d(beta) and d(gamma).  Constant
    statistics map x itself, ``x * a + (beta - mean * a)``, and dx is
    ``g * a``.  Column sums are products with a ones vector, sums of
    products one einsum, which forms no product buffer.
    """
    _check_4d(x, "batch norm input")
    x2 = x.data.reshape(-1, gamma.shape[0])
    m = len(x2)
    rows = np.ones(m)  # rows @ a: column sums
    training = running is None
    if training:
        mu = rows @ x2 / m
        xc = x2 - mu
        var = np.einsum("mc,mc->c", xc, xc) / m
    else:
        mu, var = running
    std = np.sqrt(var + eps)
    a = gamma.data / std
    out = np.multiply(xc if training else x2, a)
    out += beta.data if training else beta.data - mu * a

    def vjp(g):
        g2 = g.reshape(x2.shape)
        dbeta = rows @ g2
        dgamma = np.einsum("mc,mc->c", g2, xc if training else x2 - mu) / std
        if not training:
            return (g2 * a).reshape(x.shape), dgamma, dbeta
        dx = xc * (dgamma / (m * std))
        np.subtract(g2, dx, out=dx)
        dx -= dbeta / m
        dx *= a
        return dx.reshape(x.shape), dgamma, dbeta

    return Tensor.from_op("batch_norm", (x, gamma, beta), out.reshape(x.shape), vjp), mu, var


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift,
    with the backward pass through the row statistics."""
    x2 = x.data.reshape(-1, gain.shape[0])
    cols = np.ones(x2.shape[1])

    def mean(a):  # (M, 1) row means
        return (a @ cols / cols.size)[:, None]

    mu = mean(x2)
    normed = x2 - mu
    out = np.empty_like(normed)  # holds the squares until the output is written
    std = np.sqrt(mean(np.multiply(normed, normed, out=out)) + eps)
    normed /= std
    np.multiply(normed, gain.data, out=out)
    out += bias.data

    def vjp(g):
        g2 = g.reshape(x2.shape)
        d = g2 * gain.data
        dgain = np.einsum("mc,mc->c", g2, normed)
        proj = np.einsum("mc,mc->m", d, normed)[:, None] / cols.size
        d -= mean(d)
        d -= normed * proj
        d /= std
        return d.reshape(x.shape), dgain, np.ones(len(x2)) @ g2

    return Tensor.from_op("layer_norm", (x, gain, bias), out.reshape(x.shape), vjp)
