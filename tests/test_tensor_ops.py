import inspect
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from docbench import cli, ops
from docbench.config import Config
from docbench.data import ImageLoader, TextLoader, generate_corpus
from docbench.layers import BatchNorm2d, Ctx
from docbench.optim import SgdConfig, SgdOptimizer
from docbench.parallel import batch_loss, predict
from docbench.tensor import (ShapeError, Tensor, _sigmoid, load_tensors,
                             no_grad, save_tensors, trace)
from helpers import (batch_norm_backward, conv2d_loops, conv2d_loops_vjp,
                     depthwise_taps, div, matmul, nchw, nhwc, same_crop, same_pad,
                     sqrt, sub, tmean, transpose, tsum)


def peak_bytes(fn):
    """Peak bytes traced while ``fn()`` runs, above what was live before."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def conv_against_loops(x, w, stride=1):
    """Run ops.conv2d on the channels-last copy of (N,C,H,W) ``x`` under a
    random projection; return its output and input gradients, brought back
    to (N,C,H,W), beside those of the nested-loop oracle."""
    f = w.shape[2]
    xt, wt = Tensor(nhwc(x), requires_grad=True), Tensor(w, requires_grad=True)
    out = ops.conv2d(xt, wt, stride=stride)
    proj = np.random.default_rng(99).standard_normal(out.shape)
    tsum(out * Tensor(proj)).backward()
    xp = same_pad(x, f, stride)
    want = conv2d_loops(xp, w, stride=stride)
    dxp, dw = conv2d_loops_vjp(xp, w, nchw(proj), stride=stride)
    return ((nchw(out.data), nchw(xt.grad), wt.grad),
            (want, same_crop(dxp, x.shape, f, stride), dw))


class TestConv2d:
    def test_all_ones_window_sum(self):
        # the 2x2 window overhangs the padding row and column after the input
        x = Tensor(np.ones((1, 3, 3, 1)), requires_grad=True)
        w = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        out = ops.conv2d(x, w)
        assert out.shape == (1, 3, 3, 1)
        assert np.array_equal(out.data[0, :, :, 0], [[4, 4, 2], [4, 4, 2], [2, 2, 1]])

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((1, 2, 6, 6))
        w = rng.standard_normal((3, 2, 3, 3))
        got, want = conv_against_loops(x, w)
        assert got[0].shape == (1, 3, 6, 6)
        for a, b in zip(got, want):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) < 1e-12

    # an even filter pads one less before than after; F = 3 keeps the ids
    # of its strides alone
    @pytest.mark.parametrize("field,stride", [
        pytest.param(f, s, id=str(s) if f == 3 else f"F{f}-{s}")
        for f in (1, 2, 3, 4, 5) for s in (1, 2, 3)])
    def test_strided_matches_oracle(self, field, stride):
        rng = np.random.default_rng(stride)
        x = rng.standard_normal((2, 3, 8, 8))
        w = rng.standard_normal((4, 3, field, field))
        for a, b in zip(*conv_against_loops(x, w, stride)):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("padding", ["same"])
    def test_pointwise_matches_nested_loop_oracle(self, padding):
        # a 1x1 filter at stride 1 runs as a plain matmul and pads nothing
        rng = np.random.default_rng(11)
        x = rng.standard_normal((2, 3, 5, 4))
        w = rng.standard_normal((6, 3, 1, 1))
        for a, b in zip(*conv_against_loops(x, w)):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) < 1e-12

    def test_pointwise_windows_are_views_of_x_and_g(self, monkeypatch):
        # a 1x1 filter at stride 1: both window matrices read their operand
        # in place, so the forward allocates only its output, the vjp dx and dW
        rng = np.random.default_rng(5)
        x = Tensor(rng.standard_normal((4, 6, 6, 16)), requires_grad=True)
        w = Tensor(rng.standard_normal((24, 16, 1, 1)), requires_grad=True)
        g = rng.standard_normal((4, 6, 6, 24))
        views, view = [], ops._view

        def spy(*args, **kwargs):
            views.append(view(*args, **kwargs))
            return views[-1]

        monkeypatch.setattr(ops, "_view", spy)
        made = []
        forward = peak_bytes(lambda: made.append(ops.conv2d(x, w)))
        backward = peak_bytes(lambda: made.extend(made[0]._vjp(g)))
        assert len(views) == 2
        assert np.shares_memory(views[0], x.data) and np.shares_memory(views[1], g)
        assert forward < 1.5 * made[0].data.nbytes
        assert backward < 1.5 * (x.data.nbytes + w.data.nbytes)

    def test_same_padding_keeps_ceil_extent(self):
        x = Tensor(np.zeros((1, 7, 7, 2)))
        w = Tensor(np.zeros((4, 2, 3, 3)))
        assert ops.conv2d(x, w).shape == (1, 7, 7, 4)
        assert ops.conv2d(x, w, stride=2).shape == (1, 4, 4, 4)

    def test_channel_mismatch_raises(self):
        x = Tensor(np.zeros((1, 5, 5, 2)))
        w = Tensor(np.zeros((1, 3, 3, 3)))
        with pytest.raises(ShapeError, match="channels 3 do not match input channels 2"):
            ops.conv2d(x, w)

    def test_layouts_are_named_in_rank_errors(self):
        with pytest.raises(ShapeError, match=r"^conv2d input must be 4-D \(N,H,W,C\)"):
            ops.conv2d(Tensor(np.zeros((5, 5, 2))), Tensor(np.zeros((1, 2, 3, 3))))
        with pytest.raises(ShapeError, match=r"^conv2d filters must be 4-D \(K,C,F,F\)"):
            ops.conv2d(Tensor(np.zeros((1, 5, 5, 2))), Tensor(np.zeros((2, 3, 3))))
        with pytest.raises(ShapeError, match=r"^depthwise filters must be 4-D \(C,1,F,F\)"):
            ops.depthwise_conv2d(Tensor(np.zeros((1, 5, 5, 2))), Tensor(np.zeros((2, 3, 3))))

    def test_image_input_gets_no_gradient(self):
        # the stem: a stride-2 3x3 conv whose input is a constant image batch
        x = Tensor(np.ones((2, 9, 9, 1)))
        w = Tensor(np.random.default_rng(4).standard_normal((4, 1, 3, 3)), requires_grad=True)
        out = ops.conv2d(x, w, stride=2)
        dx, dw = out._vjp(np.ones(out.shape))
        assert dx is None
        assert dw.shape == w.shape
        tsum(out).backward()
        assert x.grad is None and np.array_equal(w.grad, dw)

    def test_zero_extent_input_rejected(self):
        with pytest.raises(ShapeError, match="zero-extent"):
            Tensor(np.zeros((1, 1, 0, 3)))


class TestSamePad:
    """Only the border strips of a padded buffer are zeroed, so each case
    first frees a NaN-filled array of the buffer's size: a border entry left
    unwritten in reused memory would show as NaN."""

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("field", [1, 3, 5])
    @pytest.mark.parametrize("extent", [5, 6])
    def test_matches_np_pad(self, stride, field, extent):
        x = np.random.default_rng(field * extent).standard_normal((2, extent, extent + 1, 8))
        want = nhwc(same_pad(nchw(x), field, stride))
        stale = np.full(want.shape, np.nan)
        del stale
        got, top, left, out_h, out_w = ops._same_pad(x, field, stride)
        assert np.array_equal(got, want) and got.flags.c_contiguous
        assert (out_h, out_w) == (-(-extent // stride), -(-(extent + 1) // stride))
        assert np.array_equal(got[:, top : top + extent, left : left + extent + 1], x)

    @pytest.mark.parametrize("field", [1, 3, 5])
    def test_depthwise_stride1_dx(self, field):
        rng = np.random.default_rng(field)
        x = rng.standard_normal((2, 3, 5, 6))
        w = rng.standard_normal((3, 1, field, field))
        out = ops.depthwise_conv2d(Tensor(nhwc(x), requires_grad=True),
                                   Tensor(w, requires_grad=True))
        g = rng.standard_normal(out.shape)
        stale = np.full((2, 5 + field - 1, 6 + field - 1, 3), np.nan)
        del stale
        dx = nchw(out._vjp(g)[0])
        xp = same_pad(x, field)
        for c in range(3):
            dxp, _ = conv2d_loops_vjp(xp[:, c : c + 1], w[c : c + 1], nchw(g)[:, c : c + 1])
            assert np.max(np.abs(dx[:, c : c + 1] - same_crop(dxp, (2, 1, 5, 6), field))) < 1e-12

    # test_depthwise_stride1_dx has the odd filters of depthwise stride 1
    @pytest.mark.parametrize("conv,field,stride", [
        (conv, f, s) for conv in ("dense", "depthwise") for f in (1, 2, 3, 4, 5)
        for s in (1, 2, 3) if (conv, s) != ("depthwise", 1) or f % 2 == 0])
    def test_dilated_dx(self, conv, field, stride):
        """dX of both convolutions, after a NaN-filled array of the size of
        the dilated gradient buffer is freed, against the loop oracle."""
        rng = np.random.default_rng(10 * field + stride)
        x = rng.standard_normal((2, 3, 5, 6))
        depthwise = conv == "depthwise"
        w = rng.standard_normal((3, 1, field, field) if depthwise else (4, 3, field, field))
        op = ops.depthwise_conv2d if depthwise else ops.conv2d
        out = op(Tensor(nhwc(x), requires_grad=True), Tensor(w, requires_grad=True), stride)
        g = rng.standard_normal(out.shape)
        stale = np.full((2, 5 + field - 1, 6 + field - 1, out.shape[3]), np.nan)
        del stale
        dx = nchw(out._vjp(g)[0])
        xp, gs = same_pad(x, field, stride), nchw(g)
        if depthwise:
            dxp = np.concatenate([conv2d_loops_vjp(xp[:, c : c + 1], w[c : c + 1],
                                                   gs[:, c : c + 1], stride)[0]
                                  for c in range(3)], axis=1)
        else:
            dxp = conv2d_loops_vjp(xp, w, gs, stride)[0]
        assert np.max(np.abs(dx - same_crop(dxp, x.shape, field, stride))) < 1e-12


class TestDepthwise:
    def test_unit_filters_are_identity(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((2, 4, 4, 2))
        w = np.ones((2, 1, 1, 1))
        out = ops.depthwise_conv2d(Tensor(x), Tensor(w)).data
        assert np.array_equal(out, x)

    def test_matches_per_channel_conv2d(self):
        rng = np.random.default_rng(3)
        x = nhwc(rng.standard_normal((1, 3, 5, 5)))
        w = rng.standard_normal((3, 1, 3, 3))
        got = ops.depthwise_conv2d(Tensor(x), Tensor(w)).data
        for c in range(3):
            per = ops.conv2d(Tensor(x[..., c : c + 1]), Tensor(w[c : c + 1])).data
            assert np.max(np.abs(got[..., c : c + 1] - per)) < 1e-12

    @pytest.mark.parametrize("stride,extent,kernel,channels", [
        pytest.param(1, 5, 3, 3, id="1-5"), pytest.param(2, 5, 3, 3, id="2-5"),
        pytest.param(2, 6, 3, 3, id="2-6"), (1, 6, 5, 3), (2, 5, 5, 3), (2, 6, 5, 1),
        (1, 5, 3, 1), (2, 6, 1, 1), (1, 4, 5, 2)])
    def test_matches_per_channel_loops_and_their_gradients(self, stride, extent, kernel,
                                                           channels):
        rng = np.random.default_rng(stride + extent)
        x = rng.standard_normal((2, channels, extent, extent + 1))
        w = rng.standard_normal((channels, 1, kernel, kernel))
        xt, wt = Tensor(nhwc(x), requires_grad=True), Tensor(w, requires_grad=True)
        out = ops.depthwise_conv2d(xt, wt, stride=stride)
        proj = nchw(rng.standard_normal(out.shape))
        tsum(out * Tensor(nhwc(proj))).backward()
        xp = same_pad(x, kernel, stride)
        for c in range(channels):
            want = conv2d_loops(xp[:, c : c + 1], w[c : c + 1], stride=stride)
            dxp, dw = conv2d_loops_vjp(xp[:, c : c + 1], w[c : c + 1],
                                       proj[:, c : c + 1], stride=stride)
            assert np.max(np.abs(nchw(out.data)[:, c : c + 1] - want)) < 1e-12
            dx = same_crop(dxp, (2, 1, extent, extent + 1), kernel, stride)
            assert np.max(np.abs(nchw(xt.grad)[:, c : c + 1] - dx)) < 1e-12
            assert np.max(np.abs(wt.grad[c : c + 1] - dw)) < 1e-12

    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("kernel", [1, 3, 5])
    @pytest.mark.parametrize("channels", [1, 8, 48, 96])
    @pytest.mark.parametrize("extent", [5, 6])
    def test_forward_is_the_tap_loop(self, stride, kernel, channels, extent):
        """Each output sums its taps in (i, j) order from 0, so the op is
        bit-identical to the tap loop for every channel count a model layer
        has.  With one channel numpy's einsum sums each filter row before it
        joins the output (its inner loop runs along the row's taps), which
        differs from the loop by round-off only."""
        rng = np.random.default_rng(kernel * channels + extent)
        w = rng.standard_normal((channels, 1, kernel, kernel))
        cases = [nhwc(rng.standard_normal((2, channels, extent, extent + 1))),
                 nhwc(rng.standard_normal((2, channels, extent + 3, extent)))[:, 1:-1:2],
                 np.asfortranarray(rng.standard_normal((2, extent, extent + 2, channels)))]
        if channels == 1:
            cases += [nhwc(rng.standard_normal((1, 1, extent, extent))),
                      rng.standard_normal((1, extent + 1, extent, 1))]
        for x in cases:
            got = ops.depthwise_conv2d(Tensor(x), Tensor(w), stride=stride).data
            want = depthwise_taps(x, w, stride)
            if channels > 1 or kernel == 1:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-15 * kernel ** 2 * np.abs(x).max() \
                    * np.abs(w).max()

    def test_output_extent(self):
        out = ops.depthwise_conv2d(Tensor(np.zeros((1, 5, 5, 3))),
                                   Tensor(np.zeros((3, 1, 3, 3))))
        assert out.shape == (1, 5, 5, 3)
        out = ops.depthwise_conv2d(Tensor(np.zeros((1, 5, 5, 3))),
                                   Tensor(np.zeros((3, 1, 3, 3))), stride=2)
        assert out.shape == (1, 3, 3, 3)

    def test_channel_count_mismatch_raises(self):
        with pytest.raises(ShapeError, match="per channel"):
            ops.depthwise_conv2d(Tensor(np.zeros((1, 5, 5, 3))),
                                 Tensor(np.zeros((2, 1, 3, 3))))

    def test_channels_stay_independent(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((1, 5, 5, 2))
        w = rng.standard_normal((2, 1, 3, 3))
        base = ops.depthwise_conv2d(Tensor(x), Tensor(w)).data
        x2 = x.copy()
        x2[..., 1] += 100.0
        bumped = ops.depthwise_conv2d(Tensor(x2), Tensor(w)).data
        assert np.array_equal(base[..., 0], bumped[..., 0])
        assert not np.allclose(base[..., 1], bumped[..., 1])


def _two_branch_sigmoid(x):
    """The former mask formula: exp of -|x| only, split at zero."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    """``_sigmoid`` against the two-branch formula, in absolute error.

    Relative error is not kept in the far negative tail: there ``1+tanh``
    rounds to 0 while the two-branch formula still resolves ``exp(x)``.
    """

    def test_matches_two_branch_formula(self):
        x = np.random.default_rng(0).standard_normal(100_000)
        x = np.concatenate([x, [1e3, -1e3, 0.0]])
        with np.errstate(all="raise"):
            got = _sigmoid(x)
        assert got.dtype == np.float64
        assert np.max(np.abs(got - _two_branch_sigmoid(x))) <= 1e-15
        assert got[-3:].tolist() == [1.0, 0.0, 0.5]

    def test_keeps_single_precision(self):
        x = np.random.default_rng(1).standard_normal((4, 5)).astype(np.float32)
        with np.errstate(all="raise"):
            got = _sigmoid(x)
        assert got.dtype == np.float32
        assert np.max(np.abs(got - _two_branch_sigmoid(x.astype(np.float64)))) < 1e-7


class TestGlobalAvgPool:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_composite_mean_bit_for_bit(self, seed):
        """The pooling node runs the composite mean's arithmetic: equal
        outputs and input gradients, not only within finite-difference
        tolerance."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((2, *rng.integers(1, 6, size=2), int(rng.integers(1, 4))))
        proj = Tensor(rng.standard_normal((2, x.shape[3])))
        results = []
        for pool in (ops.global_avg_pool, lambda t: tmean(t, (1, 2))):
            xt = Tensor(x, requires_grad=True)
            out = pool(xt)
            tsum(out * proj).backward()
            results.append((out.data, xt.grad))
        (out, grad), (ref_out, ref_grad) = results
        assert np.array_equal(out, ref_out)
        assert np.array_equal(grad, ref_grad)


def _composite_batch_norm(layer, x, training):
    """Batch norm from primitive Tensor ops, updating ``layer``'s buffers as
    ``BatchNorm2d`` does."""
    c = x.shape[1]
    if training:
        mean = tmean(x, axis=(0, 2, 3), keepdims=True)
        centered = sub(x, mean)
        var = tmean(centered * centered, axis=(0, 2, 3), keepdims=True)
        normed = div(centered, sqrt(var + layer.eps))
        m = layer.momentum
        layer.running_mean += m * (mean.data.reshape(c) - layer.running_mean)
        layer.running_var += m * (var.data.reshape(c) - layer.running_var)
    else:
        mean = Tensor(layer.running_mean.reshape(1, c, 1, 1))
        var = Tensor(layer.running_var.reshape(1, c, 1, 1))
        normed = div(sub(x, mean), sqrt(var + layer.eps))
    return normed * layer.gamma.reshape(1, c, 1, 1) + layer.beta.reshape(1, c, 1, 1)


class TestFusedNorms:
    @pytest.mark.parametrize("training", [True, False])
    def test_batch_norm_matches_composite(self, training):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 4, 5, 2)) * 3.0 + 1.0
        proj = rng.standard_normal(x.shape)
        gamma, beta = rng.standard_normal(4) + 1.0, rng.standard_normal(4)
        results = []
        for forward in ("fused", "composite"):
            layer = BatchNorm2d(4)
            layer.gamma.data[:] = gamma
            layer.beta.data[:] = beta
            layer.running_mean[:] = [0.5, -1.0, 0.0, 2.0]
            layer.running_var[:] = [1.5, 0.3, 1.0, 4.0]
            if forward == "fused":  # channels-last in, channels-first compared
                xt = Tensor(nhwc(x), requires_grad=True)
                out = layer(xt, Ctx(training=training))
                tsum(out * Tensor(nhwc(proj))).backward()
                out_data, x_grad = nchw(out.data), nchw(xt.grad)
            else:
                xt = Tensor(x, requires_grad=True)
                out = _composite_batch_norm(layer, xt, training)
                tsum(out * Tensor(proj)).backward()
                out_data, x_grad = out.data, xt.grad
            results.append((out_data, x_grad, layer.gamma.grad, layer.beta.grad,
                            layer.running_mean.copy(), layer.running_var.copy()))
        fused, composite = results
        for a, b in zip(fused[:4], composite[:4]):
            assert np.max(np.abs(a - b)) < 1e-12
        # the channels-last statistics are summed in another order than the
        # composite's, one ulp apart at most here, and the 0.1 momentum
        # carries no more than that one ulp into the buffers
        for a, b in zip(fused[4:], composite[4:]):
            np.testing.assert_array_max_ulp(a, b, maxulp=1)

    def test_eval_batch_norm_is_one_tape_node(self):
        layer = BatchNorm2d(2)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 3, 2)),
                   requires_grad=True)
        out = layer(x, Ctx(training=False))
        assert out.op == "batch_norm"
        assert {p.op for p in out.parents} == {"leaf"}

    def test_eval_batch_norm_allocates_only_its_output(self):
        """Under no_grad eval batch norm is x * a + s written into its
        output, with no centred or normalized copy of x beside it."""
        rng = np.random.default_rng(0)
        layer = BatchNorm2d(32)
        layer.running_mean[:] = rng.standard_normal(32)
        layer.running_var[:] = rng.random(32) + 0.5
        x = Tensor(rng.standard_normal((8, 16, 16, 32)))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_grad():
                out = layer(x, Ctx(training=False))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.shape == x.shape
        assert peak < 1.5 * x.data.nbytes

    @pytest.mark.parametrize("shape", [(1, 1, 1, 1), (1, 1, 1, 3), (2, 3, 3, 1),
                                       (3, 4, 5, 2), (8, 4, 4, 16)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_training_backward_is_the_x_hat_form(self, shape):
        """The closed form from the column sums d(beta) and d(gamma) is the
        backward through x-hat, whose two column means are d(beta)*gamma/M
        and d(gamma)*gamma/M; one row (M = 1) and one channel included."""
        rng = np.random.default_rng(sum(shape))
        c = shape[3]
        x = rng.standard_normal(shape) * 3.0 + 1.0
        g = rng.standard_normal(shape)
        gamma = rng.standard_normal(c) + 1.0
        out = ops.batch_norm(Tensor(x, requires_grad=True), Tensor(gamma, requires_grad=True),
                             Tensor(rng.standard_normal(c), requires_grad=True))[0]
        dx, dgamma, dbeta = out._vjp(g)
        want = batch_norm_backward(x.reshape(-1, c), g.reshape(-1, c), gamma, 1e-5)
        for got, ref in zip((dx.reshape(-1, c), dgamma, dbeta), want):
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) < 1e-12

    def test_training_vjp_allocates_only_dx(self):
        """The training backward keeps no normalized or product copy of the
        batch beside the gradient it returns."""
        rng = np.random.default_rng(1)
        x = Tensor(rng.standard_normal((8, 16, 16, 32)), requires_grad=True)
        out = ops.batch_norm(x, Tensor(rng.random(32) + 0.5, requires_grad=True),
                             Tensor(rng.standard_normal(32), requires_grad=True))[0]
        g = rng.standard_normal(x.shape)
        assert peak_bytes(lambda: out._vjp(g)) < 1.5 * x.data.nbytes


class TestSwish:
    def test_vjp_allocates_only_its_gradient(self):
        """The backward forms 1 - s and scales and shifts it in place."""
        rng = np.random.default_rng(3)
        x = Tensor(rng.standard_normal((8, 16, 16, 32)), requires_grad=True)
        out = ops.swish(x)
        g = rng.standard_normal(x.shape)
        assert peak_bytes(lambda: out._vjp(g)) < 1.5 * x.data.nbytes


def _composite_attention(x, w, qv, key_bias, bias, heads, rate, rng):
    """Training-mode multi-head self-attention from primitive Tensor ops,
    projecting x by w's q | k | v columns with a key bias as well."""
    b, n, hidden = x.shape
    d = hidden // heads

    def split(t):
        return transpose(t.reshape(b, n, heads, d), 0, 2, 1, 3)

    q = matmul(x, w[:, :hidden]) + qv[:hidden]
    k = matmul(x, w[:, hidden : 2 * hidden]) + key_bias
    v = matmul(x, w[:, 2 * hidden :]) + qv[hidden:]
    scores = matmul(split(q), transpose(split(k), 0, 1, 3, 2)) * (1.0 / np.sqrt(d))
    probs = ops.dropout(ops.softmax(scores + Tensor(bias), axis=-1), rate, rng)
    return transpose(matmul(probs, split(v)), 0, 2, 1, 3).reshape(b, n, hidden)


class TestFusedTextOps:
    @pytest.mark.parametrize("lead", [(5,), (3, 4)])
    def test_linear_matches_composite(self, lead):
        rng = np.random.default_rng(2)
        arrays = [rng.standard_normal((*lead, 6)), rng.standard_normal((6, 7)),
                  rng.standard_normal(7)]
        proj = Tensor(rng.standard_normal((*lead, 7)))
        results = []
        for fused in (True, False):
            x, w, b = (Tensor(a, requires_grad=True) for a in arrays)
            out = ops.linear(x, w, b) if fused else matmul(x, w) + b
            tsum(out * proj).backward()
            results.append((out.data, x.grad, w.grad, b.grad))
        for a, b in zip(*results):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) < 1e-12

    @pytest.mark.parametrize("rate", [0.0, 0.3])
    def test_attention_matches_composite(self, rate):
        """The fused op has no key bias; the composite adds a nonzero one,
        which softmax ignores, and nothing else differs."""
        rng = np.random.default_rng(3)
        b, n, heads, hidden = 3, 5, 2, 8
        arrays = [rng.standard_normal((b, n, hidden)),
                  rng.standard_normal((hidden, 3 * hidden)), rng.standard_normal(2 * hidden)]
        key_bias = Tensor(rng.standard_normal(hidden), requires_grad=True)
        mask = np.ones((b, n))
        mask[1, 3:] = mask[2, 1:] = 0.0
        bias = ((mask - 1.0) * 1e9).reshape(b, 1, 1, n)
        proj = Tensor(rng.standard_normal((b, n, hidden)))
        results = []
        for fused in (True, False):
            drops = np.random.default_rng(11)
            x, w, qv = (Tensor(a, requires_grad=True) for a in arrays)
            if fused:
                out = ops.attention(x, w, qv, bias, heads, rate, drops)
            else:
                out = _composite_attention(x, w, qv, key_bias, bias, heads, rate, drops)
            tsum(out * proj).backward()
            # the mask is drawn at the same point of the stream
            results.append((out.data, x.grad, *np.split(w.grad, 3, axis=1), qv.grad,
                            drops.random(3)))
        fused, composite = results
        for a, b in zip(fused[:-1], composite[:-1]):
            assert a.shape == b.shape
            assert np.max(np.abs(a - b)) < 1e-12
        assert np.array_equal(fused[-1], composite[-1])
        # the key bias's gradient is round-off: its scores shift is a per-row constant
        assert np.max(np.abs(key_bias.grad)) < 1e-12

    @pytest.mark.parametrize("shapes", [
        ((2, 4), (4, 12), (8,)),        # x without its sequence axis
        ((2, 3, 4), (4, 8), (8,)),      # q and k columns only
        ((2, 3, 4), (4, 12), (12,)),    # a key bias too
    ])
    def test_attention_rejects_bad_shapes_naming_them(self, shapes):
        x, w, qv = (Tensor(np.ones(s)) for s in shapes)
        named = ", ".join(map(str, shapes)).replace("(", r"\(").replace(")", r"\)")
        with pytest.raises(ShapeError, match=r"^attention needs .*, got " + named + "$"):
            ops.attention(x, w, qv, 0.0, 2, 0.0)


class TestSoftmaxCrossentropy:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((3, 16)))
        loss = ops.softmax_crossentropy(logits, np.array([0, 5, 15]))
        assert abs(loss.item() - math.log(16)) < 1e-12

    def test_saturated_true_class(self):
        logits = np.zeros((1, 4))
        logits[0, 2] = 1000.0
        loss = ops.softmax_crossentropy(Tensor(logits), np.array([2]))
        assert loss.item() < 1e-9

    def test_gradient_is_softmax_minus_onehot(self):
        rng = np.random.default_rng(2)
        z = rng.standard_normal((4, 6))
        labels = rng.integers(0, 6, size=4)
        logits = Tensor(z, requires_grad=True)
        ops.softmax_crossentropy(logits, labels).backward()
        e = np.exp(z - z.max(axis=1, keepdims=True))
        p = e / e.sum(axis=1, keepdims=True)
        p[np.arange(4), labels] -= 1.0
        assert np.max(np.abs(logits.grad - p / 4)) < 1e-10

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="labels"):
            ops.softmax_crossentropy(Tensor(np.zeros((2, 3))), np.array([0, 3]))

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_softmax_rows_on_simplex(self, seed):
        z = np.random.default_rng(seed).standard_normal((3, 8)) * 10
        p = ops.softmax(Tensor(z)).data
        assert (p >= 0).all()
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-6


def desk_net_and_loader(model):
    """A desk image or text network and a loader of one batch per epoch."""
    cfg = Config.load()
    corpus = generate_corpus(cli._corpus_spec(cfg), seed=0)
    if model == "image":
        return (cli._build_image_net(cfg, corpus, seed=0),
                ImageLoader(corpus, list(range(8)), 8, image_size=32))
    return (cli._build_text_net(cfg, corpus, seed=0),
            TextLoader(corpus, list(range(6)), 6, cli._text_max_len(cfg, corpus)))


class TestBackward:
    def test_square_gradient(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        assert x.grad == 6.0

    def test_fanout_gradients_sum(self):
        x = Tensor(2.0, requires_grad=True)
        y = x * x + x * Tensor(3.0)  # two consumers of x
        y.backward()
        assert x.grad == 2 * 2.0 + 3.0

    def test_backward_rejects_non_scalar(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError, match="scalar"):
            (x * x).backward()

    def test_grad_accumulates_across_calls(self):
        x = Tensor(3.0, requires_grad=True)
        (x * x).backward()
        (x * x).backward()
        assert x.grad == 12.0

    def test_trace_is_topologically_ordered(self):
        x = Tensor(np.ones(4), requires_grad=True)
        h = x * 2.0
        y = tsum(h * h + h)  # h has three consumers
        order = trace(y)
        position = {id(t): i for i, t in enumerate(order)}
        assert len(position) == len(order)
        for i, t in enumerate(order):
            assert all(position[id(p)] < i for p in t.parents)
        assert order[-1] is y

    @pytest.mark.parametrize("model,nodes", [("image", 99), ("text", 60)])
    def test_desk_training_tape_size(self, model, nodes):
        """The benchmark's tensor.tape_nodes is len(trace(loss)) of one desk
        training step."""
        net, loader = desk_net_and_loader(model)
        ctx = Ctx(training=True, rng=np.random.default_rng(0))
        loss = batch_loss(net, next(iter(loader.epoch(0))), ctx)
        assert len(trace(loss)) == nodes

    def test_every_tensor_method_op_runs_in_a_desk_training_tape(self):
        """The ops that ``Tensor``'s methods record are the ones the desk
        image and text training steps run; an op only tests use lives in
        tests/helpers.py."""
        recorded = set(re.findall(r'from_op\("(\w+)"', inspect.getsource(Tensor)))
        ran = set()
        for model in ("image", "text"):
            net, loader = desk_net_and_loader(model)
            ctx = Ctx(training=True, rng=np.random.default_rng(0))
            ran |= {t.op for t in trace(batch_loss(net, next(iter(loader.epoch(0))), ctx))}
        assert recorded == {"add", "mul", "reshape", "slice", "sigmoid"}
        assert recorded <= ran

    def test_each_node_visited_once(self):
        x = Tensor(2.0, requires_grad=True)
        shared = x * x
        y = shared + shared  # diamond
        calls = []
        orig = shared._vjp
        shared._vjp = lambda g: (calls.append(1), orig(g))[1]
        y.backward()
        assert len(calls) == 1
        assert x.grad == 2 * (2 * 2.0)  # d/dx 2x^2

    def test_determinism_bit_identical(self):
        def run():
            rng = np.random.default_rng(42)
            a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal((4, 2)), requires_grad=True)
            out = tsum(ops.softmax(matmul(a, b)))
            out.backward()
            return out.data.copy(), a.grad.copy()

        (o1, g1), (o2, g2) = run(), run()
        assert np.array_equal(o1, o2)
        assert np.array_equal(g1, g2)


class TestNoGrad:
    @pytest.mark.parametrize("model", ["image", "text"])
    def test_eval_logits_match_the_recorded_forward(self, model):
        net, loader = desk_net_and_loader(model)
        if model == "image":  # move the batch-norm running buffers off their init
            opt = SgdOptimizer(net, 0.05, SgdConfig())
            ctx = Ctx(training=True, rng=np.random.default_rng(0))
            for epoch in range(3):
                opt.zero_grad()
                batch_loss(net, next(iter(loader.epoch(epoch))), ctx).backward()
                opt.step()
            assert not all(np.all(b == b.flat[0]) for _, b in net.named_buffers())
        *inputs, _ = next(iter(loader.epoch(0)))
        recorded = net.logits(inputs[0], Ctx(training=False), *inputs[1:])
        assert len(trace(recorded)) > 1
        (logits, _), = predict(net, loader)
        assert np.array_equal(logits, recorded.data)

    def test_nothing_made_under_the_switch_has_parents(self, monkeypatch):
        net, loader = desk_net_and_loader("image")
        made = []
        from_op = Tensor.from_op

        def recording_from_op(*args):
            made.append(from_op(*args))
            return made[-1]

        monkeypatch.setattr(Tensor, "from_op", staticmethod(recording_from_op))
        x = next(iter(loader.epoch(0)))[0]
        with no_grad():
            logits = net.logits(x, Ctx(training=False))
        assert len(made) > 50
        assert all(t.parents == () and t.op == "leaf" and t._vjp is None
                   and not t.requires_grad for t in made)
        assert len(trace(logits)) == 1

    def test_switch_is_restored_after_nesting_and_exceptions(self):
        x = Tensor(2.0, requires_grad=True)
        with no_grad():
            with no_grad():
                assert (x * x).parents == ()
            assert (x * x).parents == ()
        assert len((x * x).parents) == 2
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("inside")
        (x * x).backward()
        assert x.grad == 4.0

    def test_eval_swish_writes_over_its_sigmoid(self):
        """With no tape the product overwrites the sigmoid buffer: one
        activation-sized allocation, and the recorded op's bits."""
        x = Tensor(np.random.default_rng(6).standard_normal((8, 16, 16, 32)),
                   requires_grad=True)
        taped = ops.swish(x)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            with no_grad():
                out = ops.swish(x)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * x.data.nbytes
        assert np.array_equal(out.data, taped.data)
        assert np.array_equal(ops.swish(Tensor(x.data)).data, taped.data)
        sig = _sigmoid(x.data)  # the taped vjp still holds the sigmoid
        assert np.array_equal(taped._vjp(np.ones(x.shape))[0], (x.data * sig) * (1.0 - sig) + sig)

    def test_backward_under_the_switch_names_it(self):
        x = Tensor(3.0, requires_grad=True)
        loss = x * x
        with no_grad(), pytest.raises(RuntimeError, match="no_grad"):
            loss.backward()
        assert x.grad is None


class TestFiniteForward:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_ops_finite_on_finite_inputs(self, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(nhwc(rng.standard_normal((2, 3, 6, 6))))
        w = Tensor(rng.standard_normal((4, 3, 3, 3)))
        out = ops.swish(ops.conv2d(x, w, stride=2))
        assert np.isfinite(out.data).all()
        assert np.isfinite(ops.softmax(out.reshape(2, -1)).data).all()


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        arrays = {"w": rng.standard_normal((3, 4)), "b": rng.standard_normal(4),
                  "s": np.float64(2.5)}
        path = tmp_path / "ckpt.bin"
        save_tensors(path, arrays, meta={"kind": "test"})
        loaded, meta = load_tensors(path)
        assert meta == {"kind": "test"}
        for name, arr in arrays.items():
            assert loaded[name].dtype == np.float64
            assert np.array_equal(loaded[name], arr)

    def test_float64_is_the_only_dtype(self, tmp_path):
        path = tmp_path / "ckpt.bin"
        with pytest.raises(ValueError, match="^tensor 'b' is float32, not float64$"):
            save_tensors(path, {"w": np.ones(2), "b": np.ones(2, dtype=np.float32)})
        assert not path.exists()
        save_tensors(path, {"w": np.ones(2)})
        path.write_bytes(path.read_bytes().replace(b'"float64"', b'"float32"'))
        with pytest.raises(ValueError, match="tensor 'w' has unknown dtype tag "
                                             "'float32', expected 'float64'"):
            load_tensors(path)

    def test_payload_is_little_endian_flat(self, tmp_path):
        path = tmp_path / "t.bin"
        arr = np.arange(6, dtype=np.float64).reshape(2, 3)
        save_tensors(path, {"x": arr})
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        assert b'"docbench-tensors-v1"' in header
        assert np.array_equal(np.frombuffer(payload, dtype="<f8"), np.arange(6.0))

    def test_deterministic_bytes(self, tmp_path):
        arr = {"x": np.ones((2, 2))}
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_tensors(p1, arr)
        save_tensors(p2, arr)
        assert p1.read_bytes() == p2.read_bytes()

    def test_save_leaves_only_the_file(self, tmp_path):
        save_tensors(tmp_path / "a.bin", {"x": np.ones(3)})
        save_tensors(tmp_path / "a.bin", {"x": np.zeros(3)})  # replaced whole
        assert [p.name for p in tmp_path.iterdir()] == ["a.bin"]
        assert np.array_equal(load_tensors(tmp_path / "a.bin")[0]["x"], np.zeros(3))

    @staticmethod
    def _damaged(tmp_path, edit):
        path = tmp_path / "ckpt.bin"
        save_tensors(path, {"w": np.ones((20, 20)), "b": np.ones(3)}, meta={"k": 1})
        path.write_bytes(edit(path.read_bytes()))
        return path

    @pytest.mark.parametrize("edit,match", [
        (lambda raw: raw[:-100], "'w' needs 3200 bytes, file has 3124"),
        (lambda raw: raw[:40], "unreadable header"),
        (lambda raw: raw + b"\x00\x01", "after the last tensor"),
        (lambda raw: raw.replace(b"docbench-tensors-v1", b"docbench-tensors-v9"),
         "not a docbench tensor file"),
        (lambda raw: raw.replace(b'"float64"', b'"float16"', 1), "unknown dtype"),
        (lambda raw: raw.replace(b"[20, 20]", b"[-20, 20]"),
         r"'w' has bad shape \[-20, 20\]"),
    ], ids=["truncated-payload", "truncated-header", "trailing-bytes",
            "format-tag", "dtype-tag", "negative-shape"])
    def test_damaged_file_names_the_path(self, tmp_path, edit, match):
        path = self._damaged(tmp_path, edit)
        with pytest.raises(ValueError, match=match) as info:
            load_tensors(path)
        assert str(info.value).startswith(f"{path}: ")
