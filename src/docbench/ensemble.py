"""Late fusion of per-modality class probabilities and split-level scoring.

Two models are fused by a convex combination (weights nonnegative, summing
to one).  Ties everywhere break deterministically: argmax to the lowest
class index, weight search toward the (0.5, 0.5) default.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

WEIGHT_SUM_TOL = 1e-9
DEFAULT_WEIGHTS = (0.5, 0.5)
REPORT_HEADER = "split_id,image_acc,text_acc,ensemble_acc,w1,w2"


@dataclass(frozen=True)
class FusionWeights:
    w1: float  # text weight
    w2: float  # image weight

    def __post_init__(self):
        if self.w1 < 0 or self.w2 < 0:
            raise ValueError(f"weights must be nonnegative, got ({self.w1}, {self.w2})")
        if abs(self.w1 + self.w2 - 1.0) > WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {self.w1 + self.w2}")


def _as_weights(w) -> FusionWeights:
    if isinstance(w, FusionWeights):
        return w
    return FusionWeights(*w)


def fuse(p_text, p_image, w=DEFAULT_WEIGHTS):
    """Weighted sum w1*p_text + w2*p_image of two class distributions."""
    w = _as_weights(w)
    p_text = np.asarray(p_text, dtype=np.float64)
    p_image = np.asarray(p_image, dtype=np.float64)
    if p_text.shape != p_image.shape:
        raise ValueError(
            f"prediction shape mismatch: {p_image.shape} vs {p_text.shape}")
    return w.w1 * p_text + w.w2 * p_image


def predict_class(p) -> int:
    """Lowest index among the maximal entries."""
    p = np.asarray(p)
    if p.ndim != 1 or p.size == 0:
        raise ValueError(f"expected a nonempty 1-D distribution, got shape {p.shape}")
    return int(np.argmax(p))


def predict_classes(p) -> np.ndarray:
    """Row-wise argmax with the same lowest-index tie rule."""
    return np.argmax(np.asarray(p), axis=-1)


def evaluate(predictions, labels) -> float:
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"length mismatch: {predictions.shape} vs {labels.shape}")
    if predictions.size == 0:
        raise ValueError("empty prediction list")
    return float(np.mean(predictions == labels))


def grid_search_weights(val_text_preds, val_image_preds, labels,
                        step: float = 0.1) -> FusionWeights:
    """Pick the w1 in {0, step, 2*step, ..., 1} (0.5 and 1 always included)
    maximizing validation accuracy; ties go toward w1=0.5, then lower w1."""
    if not 0.0 < step <= 1.0:
        raise ValueError(f"step must be in (0, 1], got {step}")
    text = np.asarray(val_text_preds, dtype=np.float64)
    image = np.asarray(val_image_preds, dtype=np.float64)
    labels = np.asarray(labels)
    if text.size == 0 or labels.size == 0:
        raise ValueError("empty validation set")
    if text.shape != image.shape or text.shape[0] != labels.shape[0]:
        raise ValueError("validation predictions and labels must align")

    candidates = {round(i * step, 12) for i in range(int(1.0 / step) + 1)}
    candidates.update((0.5, 1.0))
    best = None
    for w1 in sorted(candidates):
        fused = w1 * text + (1.0 - w1) * image
        acc = evaluate(predict_classes(fused), labels)
        key = (-acc, abs(w1 - 0.5), w1)
        if best is None or key < best[0]:
            best = (key, w1)
    w1 = best[1]
    return FusionWeights(w1, 1.0 - w1)


def report_csv(split_rows) -> str:
    """Per-split accuracy rows plus one summary row, labeled ``median``, of
    the accuracies' medians and the last split's weights.

    split_rows: dicts with split_id, image_acc, text_acc, ensemble_acc, w1, w2.
    """
    lines = [REPORT_HEADER]
    for r in split_rows:
        lines.append(f"{r['split_id']},{r['image_acc']:.4f},{r['text_acc']:.4f},"
                     f"{r['ensemble_acc']:.4f},{r['w1']:.2f},{r['w2']:.2f}")
    if split_rows:
        img = statistics.median([r["image_acc"] for r in split_rows])
        txt = statistics.median([r["text_acc"] for r in split_rows])
        ens = statistics.median([r["ensemble_acc"] for r in split_rows])
        w1 = split_rows[-1]["w1"]
        w2 = split_rows[-1]["w2"]
        lines.append(f"median,{img:.4f},{txt:.4f},{ens:.4f},{w1:.2f},{w2:.2f}")
    return "\n".join(lines) + "\n"
