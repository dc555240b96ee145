"""Shared oracles and fixtures for the test suite.

The oracle half is deliberately independent of the library's fast paths:
plain loops, sequential sums and central finite differences.  The model half
provides a tiny classifier with no batch statistics or dropout, so worker
sharding cannot change its per-sample behavior.
"""

import numpy as np

from docbench.layers import Linear, Network
from docbench.tensor import Tensor


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
        h = x.reshape((x.shape[0], -1))
        h = self.group("body")(h, ctx).relu()
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
    loss = (out * Tensor(proj)).sum()
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
