"""Neural-network operations on :class:`~docbench.tensor.Tensor`.

Dense convolutions use an im2col layout so the heavy lifting lands in BLAS
matmuls (a 1x1 filter at stride 1 needs none: its input already is the column
matrix); depthwise convolution sums strided tap views instead.  Batch and
layer norm, the affine map (``linear``: one 2-D GEMM whatever x's leading
axes) and multi-head self-attention (its q/k/v projection included) are
single ops with the closed-form backward.
"""

from __future__ import annotations

import numpy as np

from .tensor import ShapeError, Tensor, _sigmoid, _unbroadcast


def _check_4d(t, what):
    if t.ndim != 4:
        raise ShapeError(f"{what} must be 4-D (N,C,H,W), got shape {t.shape}")


def _same_pad(x, field, stride):
    """Zero-pad (N,C,H,W) ``x`` so a ``field``-wide filter at ``stride``
    yields ceil(extent / stride) outputs per spatial axis, the odd pixel of
    padding going after; returns ``(padded, top, left, out_h, out_w)``."""
    pads, outs = [], []
    for extent in x.shape[2:]:
        out = -(-extent // stride)
        total = max((out - 1) * stride + field - extent, 0)
        pads.append((total // 2, total - total // 2))
        outs.append(out)
    xp = np.pad(x, ((0, 0), (0, 0), *pads)) if any(map(any, pads)) else x
    return xp, pads[0][0], pads[1][0], *outs


def _tap(a, i, j, stride, out_h, out_w):
    """Strided (N, C, Ho, Wo) view of ``a`` under filter tap (i, j)."""
    return a[:, :, i : i + stride * out_h : stride, j : j + stride * out_w : stride]


def _window_view(x, field, stride, out_h, out_w):
    """Gather (N,C,F,F,Ho,Wo) windows from a padded (N,C,H,W) array."""
    n, c = x.shape[:2]
    win = np.empty((n, c, field, field, out_h, out_w))
    for i in range(field):
        for j in range(field):
            win[:, :, i, j] = _tap(x, i, j, stride, out_h, out_w)
    return win


def _window_scatter(shape, dwin, field, stride, out_h, out_w):
    """Adjoint of :func:`_window_view`: scatter-add windows back."""
    dx = np.zeros(shape)
    for i in range(field):
        for j in range(field):
            view = _tap(dx, i, j, stride, out_h, out_w)
            view += dwin[:, :, i, j]
    return dx


def conv2d(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    """Same-padded, bias-free 2-D cross-correlation of (N,C,H,W) input with
    (K,C,F,F) filters."""
    _check_4d(x, "conv2d input")
    _check_4d(w, "conv2d filters")
    n, c, h, wd = x.shape
    k, cf, fh, fw = w.shape
    if fh != fw:
        raise ShapeError(f"only square filters supported, got {fh}x{fw}")
    if cf != c:
        raise ShapeError(f"filter channels {cf} do not match input channels {c}")

    pointwise = fh == 1 and stride == 1
    if pointwise:  # the (N, C, H*W) input already is the column matrix
        out_h, out_w = h, wd
        cols = x.data.reshape(n, c, h * wd)
    else:
        xp, top, left, out_h, out_w = _same_pad(x.data, fh, stride)
        cols = _window_view(xp, fh, stride, out_h, out_w).reshape(
            n, c * fh * fw, out_h * out_w)
    wmat = w.data.reshape(k, c * fh * fw)
    out = np.matmul(wmat, cols).reshape(n, k, out_h, out_w)

    def vjp(g):
        gmat = g.reshape(n, k, out_h * out_w)
        dw = np.matmul(gmat, cols.transpose(0, 2, 1)).sum(axis=0).reshape(w.shape)
        dcols = np.matmul(wmat.T, gmat)
        if pointwise:
            return dcols.reshape(x.shape), dw
        dwin = dcols.reshape(n, c, fh, fw, out_h, out_w)
        dxp = _window_scatter(xp.shape, dwin, fh, stride, out_h, out_w)
        return dxp[:, :, top : top + h, left : left + wd], dw

    return Tensor.from_op("conv2d", (x, w), out, vjp)


def depthwise_conv2d(x: Tensor, w: Tensor, stride: int = 1) -> Tensor:
    """Same-padded per-channel convolution: (N,C,H,W) with one (C,1,F,F)
    filter plane each."""
    _check_4d(x, "depthwise input")
    _check_4d(w, "depthwise filters")
    n, c, h, wd = x.shape
    cf, one, fh, fw = w.shape
    if one != 1 or fh != fw:
        raise ShapeError(f"depthwise filters must be (C,1,F,F), got {w.shape}")
    if cf != c:
        raise ShapeError(f"one filter plane per channel required: {cf} planes, {c} channels")
    xp, top, left, out_h, out_w = _same_pad(x.data, fh, stride)
    taps = w.data[:, 0, :, :, None, None]  # (C, F, F, 1, 1)

    out = np.zeros((n, c, out_h, out_w))
    term = np.empty_like(out)
    for i in range(fh):
        for j in range(fw):
            out += np.multiply(_tap(xp, i, j, stride, out_h, out_w), taps[:, i, j],
                               out=term)

    def vjp(g):
        dw = np.empty_like(w.data)
        dxp = np.zeros_like(xp)
        term = np.empty_like(g)
        for i in range(fh):
            for j in range(fw):
                dw[:, 0, i, j] = np.einsum("nchw,nchw->c", g,
                                           _tap(xp, i, j, stride, out_h, out_w))
                view = _tap(dxp, i, j, stride, out_h, out_w)
                view += np.multiply(g, taps[:, i, j], out=term)
        return dxp[:, :, top : top + h, left : left + wd], dw

    return Tensor.from_op("depthwise_conv2d", (x, w), out, vjp)


def global_avg_pool(x: Tensor) -> Tensor:
    """(N,C,H,W) -> (N,C) spatial mean."""
    _check_4d(x, "global_avg_pool input")
    return x.mean(axis=(2, 3))


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
    """x * sigmoid(x), fused."""
    s = _sigmoid(x.data)
    out = x.data * s

    def vjp(g):
        d = x.data * s
        d *= 1.0 - s
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


def _normalize(op, x, scale, shift, axes, shape, eps, stats=None):
    """``(x - mean) / sqrt(var + eps) * scale + shift`` as one tape node.

    Statistics reduce ``axes`` of ``x``; ``scale`` and ``shift`` are viewed
    as ``shape`` to broadcast.  With ``stats=(mean, var)`` the statistics are
    constants, otherwise they are the batch's own and the backward pass runs
    through them.  Returns the output and the statistics used.
    """
    mean = x.data.mean(axis=axes, keepdims=True) if stats is None else stats[0]
    normed = x.data - mean
    var = (normed * normed).mean(axis=axes, keepdims=True) if stats is None else stats[1]
    std = np.sqrt(var + eps)
    normed /= std
    gain = scale.data.reshape(shape)
    out = normed * gain
    out += shift.data.reshape(shape)

    def vjp(g):
        d = g * gain
        if stats is None:
            proj = (d * normed).mean(axis=axes, keepdims=True)
            d -= d.mean(axis=axes, keepdims=True)
            d -= normed * proj
        d /= std
        return (d, _unbroadcast(g * normed, shape).reshape(scale.shape),
                _unbroadcast(g, shape).reshape(shift.shape))

    return Tensor.from_op(op, (x, scale, shift), out, vjp), mean, var


def batch_norm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5,
               running=None):
    """Per-channel normalization of (N,C,H,W) over batch, height and width.

    Uses the batch statistics, or the constant ``running=(mean, var)`` pair
    of (C,) arrays; returns ``(out, mean, var)`` with (C,) statistics.
    """
    _check_4d(x, "batch norm input")
    shape = (1, x.shape[1], 1, 1)
    stats = None if running is None else tuple(a.reshape(shape) for a in running)
    out, mean, var = _normalize("batch_norm", x, gamma, beta, (0, 2, 3), shape,
                                eps, stats)
    return out, mean.reshape(-1), var.reshape(-1)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift."""
    return _normalize("layer_norm", x, gain, bias, -1, gain.shape, eps)[0]
