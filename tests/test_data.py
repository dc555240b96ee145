"""Synthetic corpus generation, image preprocessing, tokenization, the
stratified split protocol, and deterministic loaders."""

import json
import os

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st

from docbench import tensor
from docbench.data import (BACKGROUND, CLS_ID, NUM_LAYOUTS, NUM_SPECIALS,
                           PAD_ID, SEP_ID, AugmentConfig, CorpusSpec,
                           ImageLoader, TextLoader, class_template,
                           generate_corpus, load_corpus, make_splits, resize,
                           save_corpus, shear, template_token_probs, tokenize)


def small_spec(**kw):
    base = dict(num_classes=4, docs_per_class=12, image_size=16, vocab_size=24,
                text_len=8, image_noise=0.05, text_noise=0.1,
                modality_agreement=1.0)
    base.update(kw)
    return CorpusSpec(**base)


# -- corpus generation ---------------------------------------------------------------


def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(num_classes=1)
    with pytest.raises(ValueError):
        small_spec(docs_per_class=0)
    with pytest.raises(ValueError):
        small_spec(image_size=4)
    with pytest.raises(ValueError):
        small_spec(vocab_size=6)  # must cover specials + one id per class
    with pytest.raises(ValueError):
        small_spec(modality_agreement=1.5)
    with pytest.raises(ValueError):
        small_spec(image_template_map=(0, 1, 2))  # wrong length
    with pytest.raises(ValueError):
        small_spec(text_template_map=(0, 1, 2, 9))  # out of range
    with pytest.raises(ValueError, match="^docs_per_class must list one count "
                                         r"per class \(4\), got 2$"):
        small_spec(docs_per_class=(3, 5))
    with pytest.raises(ValueError, match=f"^num_classes must be <= {NUM_LAYOUTS}"):
        small_spec(num_classes=NUM_LAYOUTS + 1, vocab_size=64)


def test_there_are_exactly_num_layouts_page_layouts():
    """Every class id below NUM_LAYOUTS has its own layout at the smallest
    image size, and the layouts repeat after that."""
    layouts = [class_template(t, 8).tobytes() for t in range(NUM_LAYOUTS + 1)]
    assert len(set(layouts[:NUM_LAYOUTS])) == NUM_LAYOUTS
    assert layouts[NUM_LAYOUTS] == layouts[0]


def test_class_templates_are_distinct_and_deterministic():
    temps = [class_template(t, 16) for t in range(8)]
    for t, img in enumerate(temps):
        assert img.shape == (16, 16)
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert np.array_equal(img, class_template(t, 16))
    for i in range(len(temps)):
        for j in range(i + 1, len(temps)):
            assert not np.array_equal(temps[i], temps[j])


def test_token_distributions_are_valid_and_distinct():
    dists = [template_token_probs(t, 4, 24, 0.1) for t in range(4)]
    for p in dists:
        assert p.shape == (24 - NUM_SPECIALS,)
        assert np.all(p >= 0)
        assert np.isclose(p.sum(), 1.0)
    assert not np.allclose(dists[0], dists[1])


def test_generation_is_deterministic():
    a = generate_corpus(small_spec(), seed=5)
    b = generate_corpus(small_spec(), seed=5)
    c = generate_corpus(small_spec(), seed=6)
    assert len(a) == 48
    for da, db in zip(a.documents, b.documents):
        assert np.array_equal(da.image, db.image)
        assert da.tokens == db.tokens
        assert da.label == db.label
    assert any(not np.array_equal(da.image, dc.image)
               for da, dc in zip(a.documents, c.documents))


def test_document_shapes_and_ranges():
    corpus = generate_corpus(small_spec(), seed=0)
    for doc in corpus.documents:
        assert doc.image.shape == (1, 16, 16)
        assert doc.image.min() >= 0.0 and doc.image.max() <= 1.0
        assert len(doc.tokens) == 8
        assert all(NUM_SPECIALS <= t < 24 for t in doc.tokens)


def test_skewed_class_counts():
    spec = small_spec(docs_per_class=[3, 5, 7, 9])
    corpus = generate_corpus(spec, seed=0)
    labels = corpus.labels()
    assert [int(np.sum(labels == c)) for c in range(4)] == [3, 5, 7, 9]


def test_modality_agreement_fraction():
    """At agreement rho the text of a document matches its label with
    probability rho + (1-rho)/C (the redraw may hit the same class)."""
    spec = small_spec(num_classes=4, docs_per_class=500, image_size=8,
                      text_len=4, modality_agreement=0.5)
    corpus = generate_corpus(spec, seed=9)
    match = np.mean([d.text_class == d.label for d in corpus.documents])
    assert match == pytest.approx(0.5 + 0.5 / 4, abs=0.02)


def test_full_agreement_never_redraws():
    corpus = generate_corpus(small_spec(modality_agreement=1.0), seed=1)
    assert all(d.text_class == d.label for d in corpus.documents)


def test_template_alias_maps_merge_classes():
    """Aliased image templates make two classes visually identical in
    expectation while their text stays distinct."""
    spec = small_spec(image_noise=0.0, image_template_map=(0, 1, 2, 2))
    corpus = generate_corpus(spec, seed=3)
    by_label = {c: [d for d in corpus.documents if d.label == c]
                for c in range(4)}
    assert np.array_equal(by_label[2][0].image, by_label[3][0].image)
    assert not np.array_equal(by_label[0][0].image, by_label[2][0].image)


# -- resize ---------------------------------------------------------------------------


def bilinear_oracle(image, target):
    """Axis-separable linear interpolation at half-pixel centers."""
    h, w = image.shape[-2:]

    def coords(src, dst):
        return np.clip((np.arange(dst) + 0.5) * src / dst - 0.5, 0, src - 1)

    ys, xs = coords(h, target), coords(w, target)
    tmp = np.stack([np.interp(xs, np.arange(w), image[0, r]) for r in range(h)])
    out = np.stack([np.interp(ys, np.arange(h), tmp[:, c])
                    for c in range(target)], axis=1)
    return out[None]


def test_resize_reproduces_linear_ramps():
    y, x = np.mgrid[0:2, 0:2].astype(float)
    img = (2 * y + x)[None]
    out = resize(img, 4)
    # bilinear interpolation is exact on linear functions of the coordinates
    np.testing.assert_allclose(out, bilinear_oracle(img, 4), atol=1e-12)


@settings(max_examples=30, deadline=None)
@given(src=st.integers(2, 12), dst=st.integers(2, 12), seed=st.integers(0, 99))
def test_resize_matches_interp_oracle(src, dst, seed):
    img = np.random.default_rng(seed).random((1, src, src))
    np.testing.assert_allclose(resize(img, dst), bilinear_oracle(img, dst),
                               atol=1e-12)


def test_resize_identity_is_a_copy():
    img = np.random.default_rng(0).random((1, 6, 6))
    out = resize(img, 6)
    assert np.array_equal(out, img)
    assert out is not img


def test_resize_preserves_value_range():
    img = np.random.default_rng(1).random((1, 10, 10))
    out = resize(img, 5)
    assert out.min() >= img.min() - 1e-12
    assert out.max() <= img.max() + 1e-12


# -- shear ----------------------------------------------------------------------------


def test_shear_zero_is_identity_copy():
    img = np.random.default_rng(0).random((1, 8, 8))
    out = shear(img, 0.0)
    assert np.array_equal(out, img)
    assert out is not img


def test_shear_45_degrees_maps_column_to_diagonal():
    h = 9
    img = np.ones((1, h, h))
    img[0, :, 4] = 0.0  # one dark column at the horizontal center
    out = shear(img, 45.0)
    for y in range(h):
        assert out[0, y, y] == pytest.approx(0.0)
    # everything far from the diagonal stays background white
    assert out[0, 0, 8] == pytest.approx(BACKGROUND)


def test_shear_fills_exposed_area_with_background():
    img = np.zeros((1, 9, 9))
    out = shear(img, 45.0)
    # rows slide right above center and left below it; the exposed
    # top-right and bottom-left corners read from outside the source
    assert out[0, 0, 8] == BACKGROUND
    assert out[0, 8, 0] == BACKGROUND
    assert out[0, 4, 4] == 0.0  # center row is unshifted


def test_augment_angles_are_bounded_and_spread():
    cfg = AugmentConfig(shear_min=-5.0, shear_max=5.0)
    rng = np.random.default_rng(0)
    draws = np.array([cfg.draw_angle(rng) for _ in range(2000)])
    assert draws.min() >= -5.0 and draws.max() <= 5.0
    assert abs(draws.mean()) < 0.3
    counts, _ = np.histogram(draws, bins=10, range=(-5.0, 5.0))
    assert counts.min() > 120 and counts.max() < 280  # roughly uniform


def test_augment_config_validation():
    with pytest.raises(ValueError):
        AugmentConfig(shear_min=5.0, shear_max=-5.0)


# -- tokenization ---------------------------------------------------------------------


def test_tokenize_layout_and_mask():
    ids, mask = tokenize([10, 11, 12], max_len=8)
    assert ids.dtype == np.int64
    assert ids.tolist() == [CLS_ID, 10, 11, 12, SEP_ID, PAD_ID, PAD_ID, PAD_ID]
    assert mask.tolist() == [1, 1, 1, 1, 1, 0, 0, 0]


def test_tokenize_truncates_long_content():
    content = list(range(10, 610))  # 600 ids
    ids, mask = tokenize(content, max_len=512)
    assert len(ids) == 512
    assert ids[0] == CLS_ID and ids[-1] == SEP_ID
    assert ids[1:511].tolist() == content[:510]  # 510 kept
    assert mask.sum() == 512


def test_tokenize_exact_fit():
    ids, mask = tokenize([7, 8], max_len=4)
    assert ids.tolist() == [CLS_ID, 7, 8, SEP_ID]
    assert mask.tolist() == [1, 1, 1, 1]


# -- split protocol -------------------------------------------------------------------


TARGET_COUNTS = [230, 599, 431, 567, 620, 188, 201, 265, 120, 261]  # sums 3482


def target_corpus():
    spec = CorpusSpec(num_classes=10, docs_per_class=TARGET_COUNTS,
                      image_size=8, vocab_size=20, text_len=4,
                      image_noise=0.0, text_noise=0.1)
    return generate_corpus(spec, seed=0)


def test_split_protocol_sizes_and_quota():
    corpus = target_corpus()
    assert len(corpus) == 3482
    plans = make_splits(corpus, 10, 800, 200, 100, seed=1)
    labels = corpus.labels()
    assert len(plans) == 10
    for plan in plans:
        assert (len(plan.train), len(plan.val), len(plan.test)) == (800, 200, 2482)
        tv = plan.train + plan.val
        assert len(set(tv)) == 1000
        assert set(tv).isdisjoint(plan.test)
        assert sorted(tv + plan.test) == list(range(3482))
        counts = np.bincount(labels[tv], minlength=10)
        assert counts.tolist() == [100] * 10


def test_splits_differ_and_are_deterministic():
    corpus = target_corpus()
    a = make_splits(corpus, 3, 800, 200, 100, seed=1)
    b = make_splits(corpus, 3, 800, 200, 100, seed=1)
    for pa, pb in zip(a, b):
        assert pa.train == pb.train and pa.val == pb.val and pa.test == pb.test
    assert set(a[0].train) != set(a[1].train)
    c = make_splits(corpus, 1, 800, 200, 100, seed=2)
    assert set(c[0].train) != set(a[0].train)


def test_split_size_mismatch_rejected():
    corpus = target_corpus()
    with pytest.raises(ValueError, match="quota"):
        make_splits(corpus, 1, 800, 100, 100, seed=0)


def test_deficient_class_is_named():
    corpus = generate_corpus(small_spec(docs_per_class=[12, 12, 5, 12]), seed=0)
    with pytest.raises(ValueError, match="class 2"):
        make_splits(corpus, 1, 32, 8, 10, seed=0)


# -- on-disk format -------------------------------------------------------------------


def test_corpus_roundtrip(tmp_path):
    corpus = generate_corpus(small_spec(modality_agreement=0.7,
                                        text_template_map=(0, 0, 2, 3)), seed=4)
    out = str(tmp_path / "corpus")
    save_corpus(corpus, out)
    assert os.path.exists(os.path.join(out, "manifest.json"))
    loaded = load_corpus(out)
    assert loaded.spec == corpus.spec
    assert loaded.seed == corpus.seed
    assert len(loaded) == len(corpus)
    for da, db in zip(corpus.documents, loaded.documents):
        assert np.array_equal(da.image, db.image)
        assert da.tokens == db.tokens
        assert (da.label, da.text_class) == (db.label, db.text_class)


def test_save_is_byte_deterministic(tmp_path):
    corpus = generate_corpus(small_spec(), seed=4)
    a, b = tmp_path / "a", tmp_path / "b"
    save_corpus(corpus, str(a))
    save_corpus(corpus, str(b))
    assert sorted(os.listdir(a)) == ["images.tensors", "manifest.json"]
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes()
    with open(a / "manifest.json") as fh:
        manifest = json.load(fh)
    assert len(manifest["documents"]) == len(corpus)


@pytest.mark.parametrize("target", ["images.tensors", "manifest.json"])
def test_failed_corpus_write_keeps_the_previous_file(tmp_path, monkeypatch,
                                                     target):
    """A write that raises midway leaves the file as it was and no temporary
    file behind."""
    out = tmp_path / "corpus"
    save_corpus(generate_corpus(small_spec(), seed=4), str(out))
    before = (out / target).read_bytes()

    class DiskFull:
        """The target's temporary file: takes one write, then fails."""

        def __init__(self, fh):
            self.fh, self.writes = fh, 0

        def write(self, data):
            if self.writes:
                raise OSError("disk full")
            self.writes += 1
            return self.fh.write(data)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

    def opener(path, mode="r"):
        fh = open(path, mode)
        return DiskFull(fh) if path.startswith(str(out / target)) else fh

    monkeypatch.setattr(tensor, "open", opener, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_corpus(generate_corpus(small_spec(), seed=5), str(out))
    assert (out / target).read_bytes() == before
    assert not list(out.rglob("*.tmp"))


@pytest.mark.parametrize("other", [dict(seed=5), dict(docs_per_class=10)],
                         ids=["seed", "spec"])
def test_images_of_another_corpus_fail_naming_the_file(tmp_path, other):
    """A directory whose two files come from different (spec, seed) pairs,
    as a half-finished overwrite leaves it, does not load."""
    a, b = tmp_path / "a", tmp_path / "b"
    save_corpus(generate_corpus(small_spec(), seed=4), str(a))
    seed = other.pop("seed", 4)
    save_corpus(generate_corpus(small_spec(**other), seed=seed), str(b))
    os.replace(b / "images.tensors", a / "images.tensors")
    with pytest.raises(ValueError, match="does not match manifest.json") as info:
        load_corpus(str(a))
    assert str(info.value).startswith(f"{a / 'images.tensors'}: ")


def test_corpus_without_images_file_fails_naming_it(tmp_path):
    save_corpus(generate_corpus(small_spec(), seed=4), str(tmp_path))
    os.remove(tmp_path / "images.tensors")
    with pytest.raises(FileNotFoundError, match="images.tensors"):
        load_corpus(str(tmp_path))


# -- loaders --------------------------------------------------------------------------


def test_image_loader_batches_and_reshuffles():
    corpus = generate_corpus(small_spec(), seed=0)
    loader = ImageLoader(corpus, range(len(corpus)), batch_size=8, seed=1)
    assert loader.batches_per_epoch() == 6
    e0 = [y.tolist() for _, y in loader.epoch(0)]
    e0_again = [y.tolist() for _, y in loader.epoch(0)]
    e1 = [y.tolist() for _, y in loader.epoch(1)]
    assert e0 == e0_again
    assert e0 != e1


def test_image_loader_stream_invariant_to_batch_size():
    """Concatenated epoch content must not depend on how it is batched,
    so a k-worker shard sees the same samples as the serial run."""
    corpus = generate_corpus(small_spec(), seed=0)
    aug = AugmentConfig(shear_min=-5, shear_max=5)
    big = ImageLoader(corpus, range(48), batch_size=16, augment=aug, seed=3)
    small = ImageLoader(corpus, range(48), batch_size=4, augment=aug, seed=3)
    xa = np.concatenate([x for x, _ in big.epoch(2)])
    xb = np.concatenate([x for x, _ in small.epoch(2)])
    np.testing.assert_array_equal(xa, xb)


def test_image_loader_resizes_to_target():
    corpus = generate_corpus(small_spec(image_size=16), seed=0)
    loader = ImageLoader(corpus, range(8), batch_size=4, image_size=24, seed=0)
    x, _ = next(iter(loader.epoch(0)))
    assert x.shape == (4, 1, 24, 24)


def test_image_loader_drop_last():
    corpus = generate_corpus(small_spec(), seed=0)
    keep = ImageLoader(corpus, range(10), batch_size=4, drop_last=False)
    drop = ImageLoader(corpus, range(10), batch_size=4, drop_last=True)
    assert keep.batches_per_epoch() == 3
    assert drop.batches_per_epoch() == 2
    sizes = [x.shape[0] for x, _ in keep.epoch(0)]
    assert sizes == [4, 4, 2]


def test_text_loader_shapes_and_determinism():
    corpus = generate_corpus(small_spec(), seed=0)
    loader = TextLoader(corpus, range(12), batch_size=6, max_len=10, seed=2)
    batches = list(loader.epoch(0))
    assert len(batches) == 2
    ids, mask, y = batches[0]
    assert ids.shape == (6, 10) and mask.shape == (6, 10) and y.shape == (6,)
    assert ids.dtype == np.int64
    again = list(loader.epoch(0))
    np.testing.assert_array_equal(batches[0][0], again[0][0])


@pytest.mark.parametrize("drop_last", [True, False])
def test_loader_order_is_the_epochs_document_order(drop_last):
    """order(e) names the documents of epoch(e)'s batches, in batch order,
    for both loaders."""
    corpus = generate_corpus(small_spec(), seed=0)
    docs = corpus.documents
    indices = range(3, 41)  # 38 documents: a short last batch of 6
    image = ImageLoader(corpus, indices, batch_size=8, seed=2, drop_last=drop_last)
    text = TextLoader(corpus, indices, batch_size=8, max_len=10, seed=2,
                      drop_last=drop_last)
    for epoch in (0, 1):
        order = image.order(epoch)
        assert len(order) == (32 if drop_last else 38)
        np.testing.assert_array_equal(
            np.concatenate([x for x, _ in image.epoch(epoch)]),
            np.stack([docs[i].image for i in order]))
        np.testing.assert_array_equal(text.order(epoch), order)
        np.testing.assert_array_equal(
            np.concatenate([ids for ids, _, _ in text.epoch(epoch)]),
            np.stack([tokenize(docs[i].tokens, 10)[0] for i in order]))


def test_loader_rejects_bad_batch_size():
    corpus = generate_corpus(small_spec(), seed=0)
    with pytest.raises(ValueError):
        ImageLoader(corpus, range(8), batch_size=0)
