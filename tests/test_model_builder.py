"""Architecture construction: compound scaling, channel/repeat rounding,
MBConv structure, parameter-count anchors, and the text encoder."""

import hashlib
import json

import numpy as np
import pytest
import warnings

from hypothesis import given, settings, strategies as st

from docbench.efficientnet import (BASE_STAGES, HEAD_CHANNELS, STEM_CHANNELS,
                                   StageSpec, build_efficientnet,
                                   round_channels, round_repeats)
from docbench.layers import Ctx, MBConv, TransformerBlock
from docbench.scaling import (ScaledDims, ScalingSpec, compound_scale,
                              round_to_even)
from docbench.tensor import no_grad
from docbench.text_encoder import TextEncoderSpec, build_text_encoder
from helpers import count_params, nchw_forward, nhwc, trainable_count


def dims_for(phi, alpha=1.2, beta=1.1, gamma=1.15, base=224):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return compound_scale(ScalingSpec(alpha, beta, gamma, phi), base)


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


# -- MBConv structure ----------------------------------------------------------------


def param_names(layer):
    return {name for name, _ in layer.named_params()}


def rng0():
    return np.random.default_rng(0)


def test_expand_conv_omitted_at_expansion_one():
    names1 = param_names(MBConv(8, 8, 1, 3, 1, 0.25, rng0()))
    names6 = param_names(MBConv(8, 8, 6, 3, 1, 0.25, rng0()))
    assert not any(n.startswith("expand_conv") for n in names1)
    assert any(n.startswith("expand_conv") for n in names6)


def test_mbconv_residual_shape_rules():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(2, 8, 8, 8))
    ctx = Ctx(training=False)
    # stride 1, matching channels: residual path must change the output
    block = MBConv(8, 8, 6, 3, 1, 0.25, rng0())
    from docbench.tensor import Tensor
    out = block(Tensor(x), ctx)
    assert out.shape == (2, 8, 8, 8)
    # stride 2 halves the spatial extent
    out2 = MBConv(8, 16, 6, 3, 2, 0.25, rng0())(Tensor(x), ctx)
    assert out2.shape == (2, 4, 4, 16)  # channels-last (N,H,W,C)


def test_mbconv_residual_is_additive():
    """With all-zero inner weights the stride-1 equal-channel block must act
    as identity (pure shortcut), and the non-shortcut block as zero."""
    from docbench.tensor import Tensor
    rng = np.random.default_rng(1)
    x = nhwc(rng.normal(size=(1, 6, 5, 5)))
    ctx = Ctx(training=False)

    def zero_params(block):
        for _, p in block.named_params():
            p.data[...] = 0.0
        return block

    same = zero_params(MBConv(6, 6, 6, 3, 1, 0.0, rng0()))
    assert np.allclose(same(Tensor(x), ctx).data, x)
    proj = zero_params(MBConv(6, 8, 6, 3, 1, 0.0, rng0()))
    assert np.allclose(proj(Tensor(x), ctx).data, 0.0)


def test_mbconv_rejects_bad_channels():
    with pytest.raises(ValueError):
        MBConv(0, 8, 6, 3, 1, 0.25, rng0())


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


def test_channels_last_net_means_the_channels_first_net():
    """Eval logits of an (N,1,H,W) batch, which the net transposes once and
    runs channels-last, match a channels-first forward from nested loops
    over the same (K,C,F,F) and (C,1,F,F) filters."""
    net = micro_net(seed=3)
    rng = np.random.default_rng(4)
    for name, p in net.named_params():
        if p.ndim == 1:  # batch-norm scales and shifts, linear biases
            p.data[...] = rng.normal(size=p.shape) * 0.5 + name.endswith("gamma")
    for name, b in net.named_buffers():
        b[...] = (rng.uniform(0.5, 2.0, size=b.shape) if name.endswith("var")
                  else rng.normal(size=b.shape) * 0.1)
    x = rng.normal(size=(3, 1, 16, 16))
    with no_grad():
        got = net.logits(x, Ctx(training=False)).data
    want = nchw_forward(net, x)
    assert got.shape == want.shape == (3, 4)
    assert np.max(np.abs(got - want)) < 1e-12


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
    probs = net(ids, Ctx(training=False), ids != 0).data
    assert probs.shape == (1, 4)
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_permuting_content_tokens_changes_output():
    """The position-0 representation must depend on token order, i.e. the
    encoder is not a bag of words."""
    net = build_text_encoder(text_spec())
    ctx = Ctx(training=False)
    a = np.array([[2, 7, 8, 9, 10, 3, 0, 0, 0, 0, 0, 0]])
    b = np.array([[2, 10, 9, 8, 7, 3, 0, 0, 0, 0, 0, 0]])
    pa, pb = net(a, ctx, a != 0).data, net(b, ctx, b != 0).data
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


def test_transformer_block_qkv_is_three_draws_side_by_side():
    block = TransformerBlock(8, 2, 0.1, np.random.default_rng(6))
    rng = np.random.default_rng(6)
    draws = [rng.standard_normal((8, 8)) * 0.02 for _ in range(4)]
    assert np.array_equal(block.qkv.data, np.concatenate(draws[:3], axis=1))
    assert np.array_equal(block.qv_bias.data, np.zeros(16))
    # one call takes what the three q, k, v draws took, so what follows is unchanged
    assert np.array_equal(block.out.weight.data, draws[3])


def test_text_attention_has_one_projection_and_no_key_bias():
    shapes = {name: p.shape for name, p in build_text_encoder(text_spec()).named_params()}
    assert not [n for n in shapes if "attn." in n or "k.bias" in n]
    assert shapes["layer_1.qkv"] == (32, 96) and shapes["layer_2.qv_bias"] == (64,)


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
        net(np.zeros((1, 9), dtype=np.int64), Ctx(training=False), np.ones((1, 9)))


# -- freeze and checkpoint contracts -------------------------------------------------


def test_freeze_all_but_head():
    net = micro_net()
    net.freeze(keep_trainable=["head"])
    head = count_params(net.group("head"))
    assert trainable_count(net) == head
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


def test_checkpoint_keeps_the_channels_first_filter_layout(tmp_path):
    """Activations run channels-last, but a checkpoint still records (K,C,F,F)
    and (C,1,F,F) filters: its header line (every tensor name, shape and
    dtype, and the meta) is byte for byte the one the channels-first engine
    wrote for this net, so checkpoints from before the change still load."""
    path = tmp_path / "net.tensors"
    micro_net().save(str(path))
    line = path.read_bytes().split(b"\n", 1)[0]
    header = json.loads(line)
    shapes = {t["name"]: t["shape"] for t in header["tensors"]}
    assert len(shapes) == 64
    assert shapes["stem.0.weight"] == [8, 1, 3, 3]
    assert shapes["stage2.0.expand_conv.weight"] == [48, 8, 1, 1]
    assert shapes["stage2.0.dw.weight"] == [48, 1, 3, 3]
    assert header["meta"]["strides"] == [1, 2, 1]
    assert hashlib.sha256(line + b"\n").hexdigest() == (
        "94775d3de9cfde5be641bd3539f0aec8719150a897c1a7c971f00ea378fdbef5")


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


def test_checkpoint_meta_must_match_the_network(tmp_path):
    path = str(tmp_path / "net.tensors")
    micro_net(num_classes=4).save(path, extra_meta={"model": "image",
                                                    "num_classes": 4,
                                                    "input_size": 16})
    with pytest.raises(ValueError, match=r"net\.tensors: checkpoint input_size"):
        micro_net(input_size=24).load(path)
    with pytest.raises(ValueError, match="checkpoint num_classes is 4"):
        micro_net(num_classes=5).load(path)
    # a fresh head for a new class count is what skipping the head is for
    assert micro_net(num_classes=5).load(path, skip_groups=("head",))["model"] == "image"


def test_checkpoint_shape_mismatch(tmp_path):
    from docbench.tensor import ShapeError
    path = str(tmp_path / "net.tensors")
    micro_net(num_classes=4).save(path)
    wider = build_efficientnet(MICRO_STAGES, ScaledDims(1.0, 1.0, 1.0, 16), 4,
                               in_channels=1, stem_channels=16, head_channels=32)
    with pytest.raises(ShapeError, match=r"net\.tensors: stem\.0\.weight: "
                                         r"checkpoint shape \(8, 1, 3, 3\) != "
                                         r"model \(16, 1, 3, 3\)$"):
        wider.load(path)
    assert micro_net(num_classes=5).load(path, skip_groups=("head",)) is not None


def save_edited_state(tmp_path, edit):
    """Save micro_net's state after edit(arrays); return the file's path."""
    from docbench.tensor import save_tensors
    arrays = {name: a.copy() for name, a in micro_net().state_arrays().items()}
    edit(arrays)
    path = str(tmp_path / "edited.tensors")
    save_tensors(path, arrays, {"kind": "network-state",
                                **micro_net().checkpoint_meta()})
    return path


def test_checkpoint_buffer_shape_mismatch_names_it(tmp_path):
    from docbench.tensor import ShapeError
    path = save_edited_state(tmp_path, lambda a: a.update(
        {"stem.1.running_mean": np.full(1, 7.0)}))
    net = micro_net()
    with pytest.raises(ShapeError, match=r"edited\.tensors: stem\.1\.running_mean: "
                                         r"checkpoint shape \(1,\) != model \(8,\)$"):
        net.load(path)
    assert not np.any(dict(net.named_buffers())["stem.1.running_mean"] == 7.0)


def test_checkpoint_needs_the_network_meta(tmp_path):
    from docbench.tensor import save_tensors
    path = str(tmp_path / "bare.tensors")
    save_tensors(path, micro_net().state_arrays())
    with pytest.raises(ValueError, match=r"bare\.tensors: not a network checkpoint$"):
        micro_net().load(path)
    save_tensors(path, micro_net().state_arrays(),
                 {"kind": "network-state", "model": "image", "num_classes": 4})
    with pytest.raises(ValueError, match=r"bare\.tensors: checkpoint records no "
                                         r"input_size$"):
        micro_net().load(path)


def test_checkpoint_missing_buffer_names_it(tmp_path):
    path = save_edited_state(tmp_path, lambda a: a.pop("stem.1.running_var"))
    with pytest.raises(ValueError, match=r"edited\.tensors: checkpoint missing "
                                         r"tensor 'stem\.1\.running_var'$"):
        micro_net().load(path)
