"""Late-fusion math checked against brute-force oracles and fixed examples."""

import numpy as np
import pytest

from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from docbench.ensemble import (DEFAULT_WEIGHTS, REPORT_HEADER, FusionWeights,
                               evaluate, fuse, grid_search_weights,
                               predict_class, predict_classes, report_csv)


def simplex_rows(rng, n, c):
    p = rng.random((n, c)) + 1e-9
    return p / p.sum(axis=1, keepdims=True)


# -- fuse ----------------------------------------------------------------------------


def test_fuse_worked_example():
    p_text = np.array([0.7, 0.2, 0.1])
    p_image = np.array([0.2, 0.3, 0.5])
    out = fuse(p_text, p_image, (0.5, 0.5))
    np.testing.assert_allclose(out, [0.45, 0.25, 0.3], atol=1e-15)


def test_fuse_default_is_even_split():
    assert DEFAULT_WEIGHTS == (0.5, 0.5)
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    np.testing.assert_allclose(fuse(a, b), [0.5, 0.5])


def test_fuse_identity_weights():
    a = np.array([0.1, 0.9])
    b = np.array([0.8, 0.2])
    np.testing.assert_array_equal(fuse(a, b, (1.0, 0.0)), a)
    np.testing.assert_array_equal(fuse(a, b, (0.0, 1.0)), b)


def test_fuse_weight_validation():
    a = np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        fuse(a, a, (0.7, 0.4))
    with pytest.raises(ValueError):
        fuse(a, a, (-0.1, 1.1))
    with pytest.raises(ValueError):
        FusionWeights(0.6, 0.6)


def test_fuse_shape_mismatch():
    a = np.array([0.5, 0.5])
    with pytest.raises(ValueError, match="shape"):
        fuse(a, np.array([0.2, 0.3, 0.5]))


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    c=st.integers(2, 8),
    w1=st.floats(0.0, 1.0, allow_nan=False),
)
def test_fuse_preserves_simplex(seed, c, w1):
    rng = np.random.default_rng(seed)
    p, q = simplex_rows(rng, 2, c)
    out = fuse(p, q, (w1, 1.0 - w1))
    assert np.all(out >= -1e-12)
    assert out.sum() == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 10_000), w1=st.floats(0.0, 1.0, allow_nan=False))
def test_fuse_is_idempotent_on_equal_inputs(seed, w1):
    rng = np.random.default_rng(seed)
    (p,) = simplex_rows(rng, 1, 5)
    np.testing.assert_allclose(fuse(p, p, (w1, 1.0 - w1)), p, atol=1e-12)


def test_fuse_batched_rows():
    rng = np.random.default_rng(3)
    p = simplex_rows(rng, 6, 4)
    q = simplex_rows(rng, 6, 4)
    out = fuse(p, q, (0.3, 0.7))
    np.testing.assert_allclose(out, 0.3 * p + 0.7 * q, atol=1e-15)


# -- argmax prediction ---------------------------------------------------------------


def test_predict_class_examples():
    assert predict_class([0.1, 0.7, 0.2]) == 1
    assert predict_class([0.4, 0.4, 0.2]) == 0  # tie -> lowest index
    assert predict_class([0.25, 0.25, 0.25, 0.25]) == 0


def test_predict_class_rejects_bad_shapes():
    with pytest.raises(ValueError):
        predict_class(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        predict_class(np.zeros(0))


def test_predict_classes_rows():
    p = np.array([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5]])
    np.testing.assert_array_equal(predict_classes(p), [0, 1, 0])


@settings(max_examples=100, deadline=None)
@given(
    p=hnp.arrays(np.float64, st.integers(1, 12),
                 elements=st.floats(0, 1, allow_nan=False)),
    scale=st.floats(0.01, 100.0, allow_nan=False),
)
def test_predict_class_invariant_to_positive_rescaling(p, scale):
    assert predict_class(p) == predict_class(p * scale)


# -- brute-force oracles -------------------------------------------------------------


def test_fuse_against_elementwise_oracle_1000_cases():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        c = int(rng.integers(2, 9))
        p, q = simplex_rows(rng, 2, c)
        w1 = float(rng.random())
        got = fuse(p, q, (w1, 1.0 - w1))
        want = np.array([w1 * a + (1.0 - w1) * b for a, b in zip(p, q)])
        np.testing.assert_allclose(got, want, atol=1e-12)


def test_predict_class_against_scan_oracle_1000_cases():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        c = int(rng.integers(1, 9))
        p = rng.integers(0, 4, size=c) / 4.0  # coarse grid forces ties
        best, best_val = 0, p[0]
        for i in range(1, c):
            if p[i] > best_val:
                best, best_val = i, p[i]
        assert predict_class(p) == best


def grid_oracle(text, image, labels, step):
    """Exhaustive scan with the documented tie rule: best accuracy, then
    proximity to 0.5, then lower w1."""
    candidates = sorted({round(i * step, 12)
                         for i in range(int(1.0 / step) + 1)} | {0.5, 1.0})
    best = None
    for w1 in candidates:
        preds = np.argmax(w1 * text + (1.0 - w1) * image, axis=1)
        acc = float(np.mean(preds == labels))
        key = (-acc, abs(w1 - 0.5), w1)
        if best is None or key < best[0]:
            best = (key, w1)
    return best[1]


def test_grid_search_against_scan_oracle_1000_cases():
    rng = np.random.default_rng(9)
    for _ in range(1000):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(3, 12))
        text = simplex_rows(rng, n, c)
        image = simplex_rows(rng, n, c)
        labels = rng.integers(0, c, size=n)
        step = float(rng.choice([0.1, 0.2, 0.25, 0.5]))
        got = grid_search_weights(text, image, labels, step=step)
        want = grid_oracle(text, image, labels, step)
        assert got.w1 == pytest.approx(want, abs=1e-12)
        assert got.w1 + got.w2 == pytest.approx(1.0, abs=1e-12)


def test_grid_search_prefers_even_weights_on_ties():
    # both models are perfect, so every candidate scores 1.0
    text = np.array([[0.9, 0.1], [0.1, 0.9]])
    labels = np.array([0, 1])
    w = grid_search_weights(text, text, labels, step=0.1)
    assert w.w1 == pytest.approx(0.5)


def test_grid_search_finds_dominant_model():
    # text is always right, image is always wrong and extreme; only
    # w1 > 5/6 classifies correctly, and 0.9 beats 1.0 on the tie rule
    text = np.array([[0.6, 0.4], [0.4, 0.6]])
    image = np.array([[0.0, 1.0], [1.0, 0.0]])
    labels = np.array([0, 1])
    w = grid_search_weights(text, image, labels, step=0.1)
    assert w.w1 == pytest.approx(0.9)


def test_grid_search_validation():
    p = np.array([[0.5, 0.5]])
    y = np.array([0])
    with pytest.raises(ValueError):
        grid_search_weights(p, p, y, step=0.0)
    with pytest.raises(ValueError):
        grid_search_weights(p, p, np.array([]), step=0.1)
    with pytest.raises(ValueError):
        grid_search_weights(p, np.array([[0.2, 0.3, 0.5]]), y, step=0.1)


# -- scoring -------------------------------------------------------------------------


def test_evaluate_fraction():
    assert evaluate([0, 1, 2, 1], [0, 1, 1, 1]) == pytest.approx(0.75)
    assert evaluate([3], [3]) == 1.0


def test_evaluate_validation():
    with pytest.raises(ValueError):
        evaluate([0, 1], [0])
    with pytest.raises(ValueError):
        evaluate([], [])


def rows(n):
    return [{"split_id": i, "image_acc": 0.8 + 0.01 * i, "text_acc": 0.7,
             "ensemble_acc": 0.9, "w1": 0.5, "w2": 0.5} for i in range(n)]


def test_report_csv_shape_and_summary():
    out = report_csv(rows(3), reducer="median")
    lines = out.strip().split("\n")
    assert lines[0] == REPORT_HEADER
    assert len(lines) == 1 + 3 + 1  # header, per-split, summary
    assert lines[-1].startswith("median,")
    assert lines[-1].split(",")[1] == "0.8100"


def test_report_csv_mean_label():
    out = report_csv(rows(2), reducer="mean")
    assert out.strip().split("\n")[-1].startswith("mean,")
    with pytest.raises(ValueError):
        report_csv(rows(1), reducer="max")
