"""Architecture construction: compound scaling, channel/repeat rounding,
MBConv structure, parameter-count anchors, and the text encoder."""

import numpy as np
import pytest
import warnings

from hypothesis import given, settings, strategies as st

from docbench.efficientnet import (BASE_STAGES, HEAD_CHANNELS, STEM_CHANNELS,
                                   StageSpec, build_efficientnet,
                                   round_channels, round_repeats)
from docbench.layers import Ctx, MBConv, count_params
from docbench.ops import conv_output_dims
from docbench.scaling import (ScaledDims, ScalingSpec, compound_scale,
                              round_to_even)
from docbench.text_encoder import TextEncoderSpec, build_text_encoder


def dims_for(phi, alpha=1.2, beta=1.1, gamma=1.15, base=224, binding="constraint"):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compound_scale(ScalingSpec(alpha, beta, gamma, phi), base, binding)


MICRO_STAGES = (
    StageSpec("mbconv", 3, 8, 1, 1, expansion=1, se_ratio=0.25),
    StageSpec("mbconv", 3, 16, 2, 2, expansion=6, se_ratio=0.25),
)


def micro_net(num_classes=4, input_size=16, seed=0):
    dims = ScaledDims(1.0, 1.0, 1.0, input_size)
    return build_efficientnet(MICRO_STAGES, dims, num_classes, in_channels=1,
                              seed=seed, stem_channels=8, head_channels=32)


# -- compound scaling ----------------------------------------------------------------


def test_identity_scaling_at_phi_zero():
    d = dims_for(0.0)
    assert (d.width_mult, d.depth_mult, d.resolution_mult) == (1.0, 1.0, 1.0)
    assert d.input_size == 224


def test_exact_constraint_example():
    d = compound_scale(ScalingSpec(2.0, 1.0, 1.0, 2.0))
    assert d.depth_mult == 4.0
    assert d.width_mult == 1.0
    assert d.resolution_mult == 1.0
    assert ScalingSpec(2.0, 1.0, 1.0, 2.0).constraint_residual == 0.0


def test_family_multipliers_at_phi_one():
    d = dims_for(1.0)
    assert d.depth_mult == pytest.approx(1.2)
    assert d.width_mult == pytest.approx(1.1)
    assert d.resolution_mult == pytest.approx(1.15)


def test_prose_binding_swaps_depth_and_width():
    c = dims_for(1.0, binding="constraint")
    p = dims_for(1.0, binding="prose")
    assert (p.width_mult, p.depth_mult) == (c.depth_mult, c.width_mult)


def test_input_size_rounds_to_even():
    # 224 * 1.71 = 383.04 -> nearest even is 384
    d = dims_for(1.0, gamma=1.71, base=224)
    assert d.input_size == 384
    assert round_to_even(383.04) == 384
    assert round_to_even(1.0) == 2  # floor guard


def test_constraint_violation_warns():
    with pytest.warns(UserWarning, match="residual"):
        compound_scale(ScalingSpec(1.2, 1.1, 1.15, 1.0))


def test_satisfying_bases_do_not_warn():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        compound_scale(ScalingSpec(2.0, 1.0, 1.0, 1.0))


def test_scaling_validation():
    with pytest.raises(ValueError):
        ScalingSpec(0.9, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        compound_scale(ScalingSpec(2.0, 1.0, 1.0, -1.0))
    with pytest.raises(ValueError):
        compound_scale(ScalingSpec(2.0, 1.0, 1.0, 1.0), binding="nope")


@settings(max_examples=60, deadline=None)
@given(phi=st.floats(0.0, 4.0), base=st.integers(8, 512))
def test_monotone_resolution(phi, base):
    d = dims_for(phi, base=base)
    assert d.input_size >= round_to_even(base) - 2
    assert d.input_size % 2 == 0


# -- rounding helpers ----------------------------------------------------------------


def test_round_channels_examples():
    assert round_channels(32, 1.0) == 32
    assert round_channels(32, 1.1) == 32   # 35.2 -> nearest multiple, within guard
    assert round_channels(16, 1.1) == 16   # 17.6 -> 16 (within 10% guard)
    assert round_channels(3, 1.0) == 8     # floor at one divisor
    assert round_channels(72, 0.499) == 40  # 35.93 -> 32 loses >10%, bump to 40


@settings(max_examples=200, deadline=None)
@given(ch=st.integers(1, 512), mult=st.floats(0.25, 4.0))
def test_round_channels_properties(ch, mult):
    out = round_channels(ch, mult)
    assert out % 8 == 0
    assert out >= 8
    # never drops more than 10% below the scaled request
    assert out >= 0.9 * ch * mult


def test_round_repeats_ceils():
    assert round_repeats(2, 1.2) == 3
    assert round_repeats(1, 1.0) == 1
    assert round_repeats(4, 1.2) == 5
    assert round_repeats(3, 2.0) == 6


@settings(max_examples=100, deadline=None)
@given(r=st.integers(1, 8), mult=st.floats(0.5, 3.0))
def test_round_repeats_never_below_one(r, mult):
    out = round_repeats(r, mult)
    assert out >= 1
    assert out >= int(np.floor(r * mult))


# -- conv arithmetic -----------------------------------------------------------------


def test_conv_output_dims_valid():
    assert conv_output_dims(224, 224, 3, 1, "valid") == (222, 222)
    assert conv_output_dims(32, 32, 5, 1, "valid") == (28, 28)


def test_conv_output_dims_same():
    assert conv_output_dims(224, 224, 3, 2, "same") == (112, 112)
    assert conv_output_dims(7, 7, 3, 2, "same") == (4, 4)
    assert conv_output_dims(32, 32, 5, 1, "same") == (32, 32)


# -- MBConv structure ----------------------------------------------------------------


def param_names(layer):
    return {name for name, _ in layer.named_params()}


def test_expand_conv_omitted_at_expansion_one():
    names1 = param_names(MBConv(8, 8, 1, 3, 1, 0.25))
    names6 = param_names(MBConv(8, 8, 6, 3, 1, 0.25))
    assert not any(n.startswith("expand_conv") for n in names1)
    assert any(n.startswith("expand_conv") for n in names6)


def test_mbconv_residual_shape_rules():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 8, 8, 8))
    ctx = Ctx(training=False)
    # stride 1, matching channels: residual path must change the output
    block = MBConv(8, 8, 6, 3, 1, 0.25)
    from docbench.tensor import Tensor
    out = block(Tensor(x), ctx)
    assert out.shape == (2, 8, 8, 8)
    # stride 2 halves the spatial extent
    out2 = MBConv(8, 16, 6, 3, 2, 0.25)(Tensor(x), ctx)
    assert out2.shape == (2, 16, 4, 4)


def test_mbconv_residual_is_additive():
    """With all-zero inner weights the stride-1 equal-channel block must act
    as identity (pure shortcut), and the non-shortcut block as zero."""
    from docbench.tensor import Tensor
    rng = np.random.default_rng(1)
    x = rng.normal(size=(1, 6, 5, 5))
    ctx = Ctx(training=False)

    def zero_params(block):
        for _, p in block.named_params():
            p.data[...] = 0.0
        return block

    same = zero_params(MBConv(6, 6, 6, 3, 1, 0.0))
    assert np.allclose(same(Tensor(x), ctx).data, x)
    proj = zero_params(MBConv(6, 8, 6, 3, 1, 0.0))
    assert np.allclose(proj(Tensor(x), ctx).data, 0.0)


def test_mbconv_rejects_bad_channels():
    with pytest.raises(ValueError):
        MBConv(0, 8, 6, 3, 1, 0.25)


# -- full network builds -------------------------------------------------------------


def test_group_layout():
    net = micro_net()
    assert net.group_names() == ["stem", "stage1", "stage2", "head_conv", "head"]


def test_base_param_count_anchor():
    """Unscaled family with a 1000-class head lands within 5% of the
    published 5.3M reference count."""
    dims = ScaledDims(1.0, 1.0, 1.0, 224)
    net = build_efficientnet(BASE_STAGES, dims, 1000, in_channels=3)
    total = count_params(net)
    assert total == 5288548
    assert abs(total - 5.3e6) / 5.3e6 <= 0.05


def test_scaled_param_count_anchor():
    """One scaling step (phi=1) lands within 8% of the published 9.2M count."""
    net = build_efficientnet(BASE_STAGES, dims_for(1.0), 1000, in_channels=3)
    total = count_params(net)
    assert total == 9109994
    assert abs(total - 9.2e6) / 9.2e6 <= 0.08


def test_depth_scaling_adds_blocks():
    base = build_efficientnet(MICRO_STAGES, ScaledDims(1.0, 1.0, 1.0, 16), 4,
                              in_channels=1, stem_channels=8, head_channels=32)
    deep = build_efficientnet(MICRO_STAGES, ScaledDims(1.0, 2.0, 1.0, 16), 4,
                              in_channels=1, stem_channels=8, head_channels=32)
    assert count_params(deep) > count_params(base)
    # stage 2 repeats doubled from 2 to 4
    blocks = {n.split(".")[0] for n, _ in deep.group("stage2").named_params()}
    assert len(blocks) == 4


def test_width_scaling_multiplies_channels():
    wide = build_efficientnet(MICRO_STAGES, ScaledDims(2.0, 1.0, 1.0, 16), 4,
                              in_channels=1, stem_channels=8, head_channels=32)
    stem_w = dict(wide.named_params())["stem.0.weight"]
    assert stem_w.shape[0] == 16  # 8 * 2.0


def test_forward_is_probability_simplex():
    net = micro_net()
    x = np.random.default_rng(3).normal(size=(3, 1, 16, 16))
    probs = net(x, Ctx(training=False)).data
    assert probs.shape == (3, 4)
    assert np.all(probs >= 0)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_dropout_requires_rng_when_training():
    net = micro_net()
    x = np.zeros((1, 1, 16, 16))
    with pytest.raises(ValueError):
        net(x, Ctx(training=True, rng=None))


def test_build_validation():
    dims = ScaledDims(1.0, 1.0, 1.0, 16)
    with pytest.raises(ValueError):
        build_efficientnet((), dims, 4)
    with pytest.raises(ValueError):
        build_efficientnet(MICRO_STAGES, dims, 1)
    with pytest.raises(ValueError):
        StageSpec("dense", 3, 8, 1, 1)
    with pytest.raises(ValueError):
        StageSpec("mbconv", 3, 8, 0, 1)
    with pytest.raises(ValueError):
        StageSpec("mbconv", 3, 8, 1, 3)


def test_excess_downsampling_bottoms_out_at_one_pixel():
    """Strides beyond log2(input) leave a 1x1 map that still runs."""
    stages = tuple(StageSpec("mbconv", 3, 8, 1, 2) for _ in range(6))
    net = build_efficientnet(stages, ScaledDims(1.0, 1.0, 1.0, 16), 4,
                             in_channels=1, stem_channels=8, head_channels=16)
    probs = net(np.zeros((1, 1, 16, 16)), Ctx(training=False)).data
    assert probs.shape == (1, 4)


def test_identical_seeds_build_identical_nets():
    a, b = micro_net(seed=5), micro_net(seed=5)
    for (_, pa), (_, pb) in zip(a.named_params(), b.named_params()):
        assert np.array_equal(pa.data, pb.data)


# -- fully connected head size (sanity anchor) ---------------------------------------


def test_linear_head_param_count():
    from docbench.layers import Linear
    head = Linear(768, 10, np.random.default_rng(0))
    assert count_params(head) == 7690  # 768*10 weights + 10 biases


# -- text encoder --------------------------------------------------------------------


def text_spec(**kw):
    base = dict(num_layers=2, hidden=32, heads=4, vocab_size=50, max_len=12,
                num_classes=4, dropout=0.1)
    base.update(kw)
    return TextEncoderSpec(**base)


def test_text_group_layout():
    net = build_text_encoder(text_spec(num_layers=3))
    assert net.group_names() == ["embedding", "layer_1", "layer_2", "layer_3",
                                 "head"]


def test_text_forward_simplex():
    net = build_text_encoder(text_spec())
    ids = np.array([[2, 7, 8, 9, 3, 0, 0, 0, 0, 0, 0, 0]])
    probs = net(ids, Ctx(training=False)).data
    assert probs.shape == (1, 4)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_permuting_content_tokens_changes_output():
    """The position-0 representation must depend on token order, i.e. the
    encoder is not a bag of words."""
    net = build_text_encoder(text_spec())
    ctx = Ctx(training=False)
    a = np.array([[2, 7, 8, 9, 10, 3, 0, 0, 0, 0, 0, 0]])
    b = np.array([[2, 10, 9, 8, 7, 3, 0, 0, 0, 0, 0, 0]])
    pa, pb = net(a, ctx).data, net(b, ctx).data
    assert not np.allclose(pa, pb)


def test_padding_tokens_have_no_influence():
    net = build_text_encoder(text_spec())
    ctx = Ctx(training=False)
    ids1 = np.array([[2, 7, 8, 3, 0, 0, 0, 0, 0, 0, 0, 0]])
    ids2 = ids1.copy()
    ids2[0, 6:] = 5  # junk beyond the mask
    mask = np.zeros((1, 12))
    mask[0, :4] = 1
    p1 = net(ids1, ctx, mask).data
    p2 = net(ids2, ctx, mask).data
    np.testing.assert_allclose(p1, p2, atol=1e-12)


def test_text_spec_validation():
    with pytest.raises(ValueError):
        text_spec(hidden=30)      # not divisible by heads
    with pytest.raises(ValueError):
        text_spec(num_layers=0)
    with pytest.raises(ValueError):
        text_spec(dropout=1.0)
    with pytest.raises(ValueError):
        text_spec(max_len=1)


def test_too_long_sequence_is_rejected():
    net = build_text_encoder(text_spec(max_len=8))
    with pytest.raises(ValueError):
        net(np.zeros((1, 9), dtype=np.int64), Ctx(training=False))


# -- freeze and checkpoint contracts -------------------------------------------------


def test_freeze_all_but_head():
    net = micro_net()
    net.freeze(keep_trainable=["head"])
    head = count_params(net.group("head"))
    assert net.trainable_count() == head
    with pytest.raises(KeyError):
        net.freeze(keep_trainable=["no_such_group"])


def test_checkpoint_roundtrip(tmp_path):
    net = micro_net(seed=1)
    path = str(tmp_path / "net.tensors")
    net.save(path, extra_meta={"num_classes": 4})
    other = micro_net(seed=2)
    meta = other.load(path)
    assert meta["num_classes"] == 4
    for (_, pa), (_, pb) in zip(net.named_params(), other.named_params()):
        assert np.array_equal(pa.data, pb.data)


def test_checkpoint_skip_groups_keeps_fresh_head(tmp_path):
    net = micro_net(seed=1)
    path = str(tmp_path / "net.tensors")
    net.save(path)
    other = micro_net(seed=2)
    fresh_head = {n: p.data.copy() for n, p in other.named_params()
                  if n.startswith("head.")}
    other.load(path, skip_groups=("head",))
    for n, p in other.named_params():
        if n.startswith("head."):
            assert np.array_equal(p.data, fresh_head[n])


def test_checkpoint_shape_mismatch(tmp_path):
    from docbench.tensor import ShapeError
    net = micro_net(num_classes=4)
    path = str(tmp_path / "net.tensors")
    net.save(path)
    bigger = micro_net(num_classes=5)
    with pytest.raises(ShapeError):
        bigger.load(path)
    assert bigger.load(path, skip_groups=("head",)) is not None
