"""Central finite-difference checks for every differentiable op.

Each op is exercised on >= 20 randomized shapes in double precision and the
analytic gradient must match the numeric one within 1e-6 relative error.
"""

import numpy as np
import pytest

from docbench import ops
from docbench.layers import Ctx, MBConv, TransformerBlock
from docbench.tensor import Tensor
from helpers import (div, fd_gradcheck, matmul, nhwc, relu, sqrt, sub, transpose,
                     tsum)

N_SHAPES = 20
SEEDS = range(N_SHAPES)


def rand_shape(rng, ndim, lo=1, hi=5):
    return tuple(int(rng.integers(lo, hi + 1)) for _ in range(ndim))


@pytest.mark.parametrize("seed", SEEDS)
def test_add_sub_mul_div(seed):
    rng = np.random.default_rng(seed)
    shape = rand_shape(rng, int(rng.integers(1, 4)))
    a = rng.standard_normal(shape)
    b = rng.standard_normal(shape) + 3.0  # keep divisor away from 0
    fd_gradcheck(lambda x, y: x + y, [a, b], rng=rng)
    fd_gradcheck(sub, [a, b], rng=rng)
    fd_gradcheck(lambda x, y: x * y, [a, b], rng=rng)
    fd_gradcheck(div, [a, b], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_broadcast_arithmetic(seed):
    rng = np.random.default_rng(seed)
    rows, cols = rand_shape(rng, 2, 2, 5)
    a = rng.standard_normal((rows, cols))
    b = rng.standard_normal((1, cols))
    fd_gradcheck(lambda x, y: x * y + y, [a, b], rng=rng)
    fd_gradcheck(lambda x, y: x + y * 2.0, [a, b], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul(seed):
    rng = np.random.default_rng(seed)
    m, k, n = rand_shape(rng, 3, 1, 5)
    fd_gradcheck(matmul, [rng.standard_normal((m, k)), rng.standard_normal((k, n))],
                 rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_batched(seed):
    rng = np.random.default_rng(seed)
    b, m, k, n = rand_shape(rng, 4, 1, 4)
    fd_gradcheck(matmul, [rng.standard_normal((b, m, k)), rng.standard_normal((b, k, n))],
                 rng=rng)
    # broadcast weight across the batch
    fd_gradcheck(matmul, [rng.standard_normal((b, m, k)), rng.standard_normal((k, n))],
                 rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_linear(seed):
    rng = np.random.default_rng(seed)
    b, t, m, n = rand_shape(rng, 4, 1, 4)
    w, bias = rng.standard_normal((m, n)), rng.standard_normal(n)
    fd_gradcheck(ops.linear, [rng.standard_normal((b, m)), w, bias], rng=rng)
    # leading axes flattened into one GEMM, as the text model runs it
    fd_gradcheck(ops.linear, [rng.standard_normal((b, t, m)), w, bias], rng=rng)


def padding_bias(rng, b, n):
    """(B,1,1,N) attention bias: -1e9 on padded keys, 0 on real ones; key 0
    is always real."""
    mask = np.ones((b, n))
    for row in mask:
        row[int(rng.integers(1, n + 1)):] = 0.0
    return ((mask - 1.0) * 1e9).reshape(b, 1, 1, n)


@pytest.mark.parametrize("seed", SEEDS)
def test_attention(seed):
    rng = np.random.default_rng(seed)
    b, n, heads, d = rand_shape(rng, 4, 1, 3)
    n += 1
    hidden = heads * d
    xwb = [rng.standard_normal((b, n, hidden)),
           rng.standard_normal((hidden, 3 * hidden)), rng.standard_normal(2 * hidden)]
    bias = padding_bias(rng, b, n)
    fd_gradcheck(lambda x, w, qv: ops.attention(x, w, qv, bias, heads, 0.0),
                 xwb, rng=rng)
    # fresh identically-seeded generator per call => identical mask each eval
    fd_gradcheck(lambda x, w, qv: ops.attention(
        x, w, qv, bias, heads, 0.3, np.random.default_rng(seed), training=True),
        xwb, rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_reductions(seed):
    rng = np.random.default_rng(seed)
    shape = rand_shape(rng, 3, 2, 4)
    x = rng.standard_normal(shape)
    axis = int(rng.integers(0, 3))
    fd_gradcheck(tsum, [x], rng=rng)
    fd_gradcheck(lambda t: tsum(t, axis=axis), [x], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_pointwise_nonlinearities(seed):
    rng = np.random.default_rng(seed)
    shape = rand_shape(rng, 2, 2, 5)
    x = rng.standard_normal(shape)
    x = np.where(np.abs(x) < 0.1, x + 0.3, x)  # keep clear of the relu kink
    fd_gradcheck(relu, [x], rng=rng)
    fd_gradcheck(lambda t: t.sigmoid(), [x], rng=rng)
    fd_gradcheck(ops.swish, [x], rng=rng)
    pos = np.abs(x) + 0.5
    fd_gradcheck(sqrt, [pos], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_shape_ops(seed):
    rng = np.random.default_rng(seed)
    b, t, h = rand_shape(rng, 3, 2, 4)
    x = rng.standard_normal((b, t, h))
    fd_gradcheck(lambda v: v.reshape(b, t * h), [x], rng=rng)
    fd_gradcheck(lambda v: transpose(v, 1, 0, 2), [x], rng=rng)
    fd_gradcheck(lambda v: v[:, 0], [x], rng=rng)
    fd_gradcheck(lambda v: v[:, 1:, :], [x], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax(seed):
    rng = np.random.default_rng(seed)
    shape = rand_shape(rng, int(rng.integers(2, 4)), 2, 5)
    x = rng.standard_normal(shape) * 3
    fd_gradcheck(lambda t: ops.softmax(t, axis=-1), [x], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_softmax_crossentropy(seed):
    rng = np.random.default_rng(seed)
    n, c = int(rng.integers(1, 6)), int(rng.integers(2, 8))
    labels = rng.integers(0, c, size=n)
    fd_gradcheck(lambda t: ops.softmax_crossentropy(t, labels),
                 [rng.standard_normal((n, c)) * 2], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d(seed):
    rng = np.random.default_rng(seed)
    n, c, k = 1, int(rng.integers(1, 3)), int(rng.integers(1, 3))
    f = int(rng.integers(1, 4))
    h = int(rng.integers(f, f + 3))
    stride = int(rng.integers(1, 3))
    x = rng.standard_normal((n, c, h, h))
    w = rng.standard_normal((k, c, f, f))
    fd_gradcheck(lambda xx, ww: ops.conv2d(xx, ww, stride), [nhwc(x), w], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_conv2d_pointwise(seed):
    # 1x1 at stride 1 runs as a plain matmul
    rng = np.random.default_rng(seed)
    n, c, k = rand_shape(rng, 3, 1, 3)
    h, wd = rand_shape(rng, 2, 1, 4)
    x = rng.standard_normal((n, c, h, wd))
    w = rng.standard_normal((k, c, 1, 1))
    fd_gradcheck(ops.conv2d, [nhwc(x), w], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_depthwise_conv2d_stride2_same(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 4))
    f = int(rng.integers(1, 4))
    h, wd = rand_shape(rng, 2, 2, 6)
    x = rng.standard_normal((int(rng.integers(1, 3)), c, h, wd))
    w = rng.standard_normal((c, 1, f, f))
    fd_gradcheck(lambda xx, ww: ops.depthwise_conv2d(xx, ww, stride=2),
                 [nhwc(x), w], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_depthwise_conv2d(seed):
    rng = np.random.default_rng(seed)
    c = int(rng.integers(1, 4))
    f = int(rng.integers(1, 4))
    h = int(rng.integers(f, f + 3))
    stride = int(rng.integers(1, 3))
    x = rng.standard_normal((1, c, h, h))
    w = rng.standard_normal((c, 1, f, f))
    fd_gradcheck(lambda xx, ww: ops.depthwise_conv2d(xx, ww, stride=stride),
                 [nhwc(x), w], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_global_avg_pool(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((2, int(rng.integers(1, 4)), 3, 3))
    fd_gradcheck(ops.global_avg_pool, [nhwc(x)], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_dropout_fixed_mask(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 4))
    # fresh identically-seeded generator per call => identical mask each eval
    fd_gradcheck(
        lambda t: ops.dropout(t, 0.4, rng=np.random.default_rng(seed), training=True),
        [x], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_embedding(seed):
    rng = np.random.default_rng(seed)
    v, h = int(rng.integers(3, 8)), int(rng.integers(2, 5))
    ids = rng.integers(0, v, size=(2, 3))
    fd_gradcheck(lambda table: ops.embedding(table, ids),
                 [rng.standard_normal((v, h))], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_norm(seed):
    rng = np.random.default_rng(seed)
    b, h = int(rng.integers(1, 4)), int(rng.integers(2, 6))
    fd_gradcheck(ops.layer_norm,
                 [rng.standard_normal((b, h)), rng.standard_normal(h) + 1.0,
                  rng.standard_normal(h)], rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_layer_norm_3d(seed):
    # the (batch, tokens, hidden) shape the text model normalizes
    rng = np.random.default_rng(seed)
    b, t, h = rand_shape(rng, 3, 1, 4)
    h += 1
    fd_gradcheck(ops.layer_norm,
                 [rng.standard_normal((b, t, h)), rng.standard_normal(h) + 1.0,
                  rng.standard_normal(h)], rng=rng)


def _norm_inputs(rng):
    n, c, h, w = rand_shape(rng, 4, 1, 3)
    n += 1  # at least two values per channel statistic
    return (nhwc(rng.standard_normal((n, c, h, w)) * 2.0 + 0.5),
            rng.standard_normal(c) + 1.0, rng.standard_normal(c))


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_norm_training(seed):
    rng = np.random.default_rng(seed)
    fd_gradcheck(lambda x, g, b: ops.batch_norm(x, g, b)[0], _norm_inputs(rng),
                 rng=rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_norm_eval(seed):
    rng = np.random.default_rng(seed)
    x, gamma, beta = _norm_inputs(rng)
    running = (rng.standard_normal(x.shape[3]),
               rng.uniform(0.2, 3.0, size=x.shape[3]))
    fd_gradcheck(lambda xx, g, b: ops.batch_norm(xx, g, b, running=running)[0],
                 [x, gamma, beta], rng=rng)


def test_shared_vjp_array_reaching_a_leaf_and_its_sibling():
    """``a + h`` hands one gradient array to the leaf ``a`` and to the
    non-leaf ``h``; ``a.sigmoid()``'s vjp then adds into ``a.grad`` before
    ``h``'s vjp reads ``h.grad``.  A leaf accumulating in place into the
    shared array would corrupt ``h``'s gradient."""
    rng = np.random.default_rng(0)

    def func(a):
        h = a * 2.0
        return (h * 3.0 + a.sigmoid()) + (a + h)

    fd_gradcheck(func, [rng.standard_normal((3,))], rng=rng)


def test_mbconv_rerun_is_bit_identical():
    def run():
        rng = np.random.default_rng(5)
        block = MBConv(4, 4, 6, 3, 1, 0.25, rng=np.random.default_rng(6))
        x = Tensor(nhwc(rng.standard_normal((3, 4, 6, 6))), requires_grad=True)
        out = block(x, Ctx(training=True))
        tsum(out * Tensor(rng.standard_normal(out.shape))).backward()
        return [out.data, x.grad] + [p.grad for _, p in block.named_params()]

    first, second = run(), run()
    assert len(first) == len(second) > 2
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_transformer_block_rerun_is_bit_identical():
    def run():
        rng = np.random.default_rng(5)
        block = TransformerBlock(8, 2, 0.2, rng=np.random.default_rng(6))
        x = Tensor(rng.standard_normal((3, 5, 8)), requires_grad=True)
        out = block(x, padding_bias(rng, 3, 5),
                    Ctx(training=True, rng=np.random.default_rng(7)))
        tsum(out * Tensor(rng.standard_normal(out.shape))).backward()
        return [out.data, x.grad] + [p.grad for _, p in block.named_params()]

    first, second = run(), run()
    assert len(first) == len(second) > 2
    for a, b in zip(first, second):
        assert np.array_equal(a, b)
