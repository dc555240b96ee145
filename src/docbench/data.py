"""Synthetic dual-modality document corpus and its processing pipeline.

Each class owns a deterministic page layout (band/region pattern) and a
token distribution concentrated on its own vocabulary block.  Images are the
layout plus gaussian pixel noise; token sequences are drawn from the class
distribution, except that with probability 1-rho the text is drawn from a
uniformly random class instead (modality agreement control).  Optional
template maps let several classes share a layout in one modality, which caps
what that modality alone can resolve.

On disk a corpus is two files: ``images.tensors`` holds every image as one
float64 (D, 1, H, W) tensor, and ``manifest.json`` holds the spec, the seed
and each document's label, text class and tokens.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from typing import Optional, Tuple

import numpy as np

from .tensor import atomic_write, load_tensors, save_tensors

PAD_ID = 0
CLS_ID = 2
SEP_ID = 3
NUM_SPECIALS = 4

BACKGROUND = 1.0  # scanned documents are white
# class_template depends on id mod 5, id mod 2 and (id // 2) mod 4 only, so
# ids 0..39 are all the distinct layouts there are
NUM_LAYOUTS = 40
IMAGES_FILE = "images.tensors"


@dataclass(frozen=True)
class CorpusSpec:
    num_classes: int
    docs_per_class: object = 25          # int (uniform) or per-class list (skewed)
    image_size: int = 32
    vocab_size: int = 64
    text_len: int = 16
    image_noise: float = 0.1
    text_noise: float = 0.1
    modality_agreement: float = 1.0      # rho
    image_template_map: Optional[Tuple[int, ...]] = None
    text_template_map: Optional[Tuple[int, ...]] = None

    def __post_init__(self):
        if self.num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.num_classes}")
        if self.num_classes > NUM_LAYOUTS:
            raise ValueError(f"num_classes must be <= {NUM_LAYOUTS}, the number of "
                             f"distinct page layouts, got {self.num_classes}")
        if min(self.class_counts, default=0) < 1:
            raise ValueError("docs_per_class must list at least one count, each >= 1")
        if len(self.class_counts) != self.num_classes:
            raise ValueError(f"docs_per_class must list one count per class "
                             f"({self.num_classes}), got {len(self.class_counts)}")
        if self.image_size < 8:
            raise ValueError(f"image_size must be >= 8, got {self.image_size}")
        if self.vocab_size < NUM_SPECIALS + self.num_classes:
            raise ValueError(
                f"vocab_size {self.vocab_size} too small for {self.num_classes} "
                f"classes plus {NUM_SPECIALS} specials")
        if self.text_len < 1:
            raise ValueError("text_len must be >= 1")
        for name in ("image_noise", "text_noise", "modality_agreement"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must be in [0,1], got {v}")
        for name in ("image_template_map", "text_template_map"):
            m = getattr(self, name)
            if m is None:
                continue
            if len(m) != self.num_classes or not all(
                    0 <= t < self.num_classes for t in m):
                raise ValueError(f"{name} must map all {self.num_classes} classes "
                                 f"to template ids below {self.num_classes}")

    @property
    def class_counts(self):
        if isinstance(self.docs_per_class, int):
            return [self.docs_per_class] * self.num_classes
        return list(self.docs_per_class)

    def image_template(self, label: int) -> int:
        return label if self.image_template_map is None else self.image_template_map[label]

    def text_template(self, label: int) -> int:
        return label if self.text_template_map is None else self.text_template_map[label]


@dataclass
class Document:
    image: np.ndarray        # (1, H, W) float in [0, 1]
    tokens: list             # raw content ids (specials added by tokenize)
    label: int
    text_class: int          # class whose token distribution produced the text


@dataclass
class Corpus:
    spec: CorpusSpec
    seed: int
    documents: list

    def __len__(self):
        return len(self.documents)

    @property
    def num_classes(self):
        return self.spec.num_classes

    def labels(self):
        return np.array([d.label for d in self.documents])


def class_template(template_id: int, size: int) -> np.ndarray:
    """Deterministic band + region layout for one template id."""
    img = np.full((size, size), BACKGROUND)
    period = 2 + (template_id % 5)
    bands = (np.arange(size) // period) % 2 == 0
    if template_id % 2 == 0:
        img[bands, :] = 0.25
    else:
        img[:, bands] = 0.25
    q = size // 2
    r, c = divmod((template_id // 2) % 4, 2)
    img[r * q:(r + 1) * q, c * q:(c + 1) * q] *= 0.5
    return img


def template_token_probs(template_id: int, num_templates: int, vocab_size: int,
                         noise: float) -> np.ndarray:
    """Distribution over content ids: mass (1-noise) on the template's own
    vocabulary block, the rest spread uniformly."""
    content = vocab_size - NUM_SPECIALS
    block = content // num_templates
    probs = np.full(content, noise / content)
    start = template_id * block
    probs[start:start + block] += (1.0 - noise) / block
    return probs / probs.sum()


def generate_corpus(spec: CorpusSpec, seed: int) -> Corpus:
    """Deterministic synthesis: same (spec, seed) -> bit-identical corpus."""
    rendered = {t: class_template(t, spec.image_size)
                for t in {spec.image_template(c) for c in range(spec.num_classes)}}
    token_probs = {
        t: template_token_probs(t, spec.num_classes, spec.vocab_size, spec.text_noise)
        for t in range(spec.num_classes)}

    rng = np.random.default_rng(np.random.SeedSequence([seed, spec.num_classes]))
    docs = []
    for label, count in enumerate(spec.class_counts):
        layout = rendered[spec.image_template(label)]
        for _ in range(count):
            img = layout.copy()
            if spec.image_noise > 0:
                img = img + rng.normal(0.0, spec.image_noise, size=img.shape)
                img = np.clip(img, 0.0, 1.0)
            if spec.modality_agreement >= 1.0 or rng.random() < spec.modality_agreement:
                text_class = label
            else:
                text_class = int(rng.integers(spec.num_classes))
            ids = rng.choice(spec.vocab_size - NUM_SPECIALS, size=spec.text_len,
                             p=token_probs[spec.text_template(text_class)])
            docs.append(Document(image=img[None, :, :],
                                 tokens=(ids + NUM_SPECIALS).tolist(),
                                 label=label, text_class=text_class))
    return Corpus(spec=spec, seed=seed, documents=docs)


# -- image preprocessing -----------------------------------------------------------


def resize(image: np.ndarray, target: int) -> np.ndarray:
    """Bilinear resample of the trailing two axes to target x target."""
    if target < 1:
        raise ValueError(f"target must be >= 1, got {target}")
    h, w = image.shape[-2:]
    if (h, w) == (target, target):
        return image.copy()

    def axis_coords(extent):
        src = (np.arange(target) + 0.5) * (extent / target) - 0.5
        src = np.clip(src, 0.0, extent - 1.0)
        lo = np.floor(src).astype(int)
        hi = np.minimum(lo + 1, extent - 1)
        return lo, hi, src - lo

    y0, y1, wy = axis_coords(h)
    x0, x1, wx = axis_coords(w)
    wy = wy[:, None]
    out = ((1 - wy) * (1 - wx) * image[..., y0[:, None], x0]
           + (1 - wy) * wx * image[..., y0[:, None], x1]
           + wy * (1 - wx) * image[..., y1[:, None], x0]
           + wy * wx * image[..., y1[:, None], x1])
    return out


def shear(image: np.ndarray, theta_degrees: float) -> np.ndarray:
    """Horizontal shear x' = x + tan(theta) * (y - center_y).

    Rows are resampled bilinearly; pixels pulled from outside the page are
    filled with the white background.
    """
    t = np.tan(np.radians(theta_degrees))
    if t == 0.0:
        return image.copy()
    h, w = image.shape[-2:]
    center_y = (h - 1) / 2.0
    ys = np.arange(h)[:, None]
    xs = np.arange(w)[None, :]
    src = xs - t * (ys - center_y)        # inverse map of the forward shear
    lo = np.floor(src).astype(int)
    frac = src - lo

    def sample(ix):
        inside = (ix >= 0) & (ix < w)
        vals = image[..., ys, np.clip(ix, 0, w - 1)]
        return np.where(inside, vals, BACKGROUND)

    out = (1 - frac) * sample(lo) + frac * sample(lo + 1)
    return out


@dataclass(frozen=True)
class AugmentConfig:
    shear_min: float = -5.0
    shear_max: float = 5.0

    def __post_init__(self):
        if self.shear_min > self.shear_max:
            raise ValueError("shear_min must be <= shear_max")

    def draw_angle(self, rng) -> float:
        return float(rng.uniform(self.shear_min, self.shear_max))


# -- text preprocessing -------------------------------------------------------------


def tokenize(content, max_len: int):
    """[CLS] + content truncated to max_len-2 + [SEP], padded; returns
    (ids, attention mask over real tokens)."""
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    kept = list(content)[:max_len - 2]
    ids = np.full(max_len, PAD_ID, dtype=np.int64)
    ids[0] = CLS_ID
    ids[1:1 + len(kept)] = kept
    ids[1 + len(kept)] = SEP_ID
    mask = np.zeros(max_len)
    mask[:len(kept) + 2] = 1.0
    return ids, mask


# -- split protocol ----------------------------------------------------------------


@dataclass
class SplitPlan:
    split_id: int
    train: list
    val: list
    test: list


def make_splits(corpus: Corpus, n_splits: int, train_size: int, val_size: int,
                per_class_quota: int, seed: int):
    """Stratified plans: exactly per_class_quota docs of every class land in
    train+val, the remainder becomes test."""
    labels = corpus.labels()
    num_classes = corpus.num_classes
    if train_size + val_size != per_class_quota * num_classes:
        raise ValueError(
            f"train {train_size} + val {val_size} must equal quota "
            f"{per_class_quota} x {num_classes} classes")
    by_class = [np.flatnonzero(labels == c) for c in range(num_classes)]
    for c, idx in enumerate(by_class):
        if len(idx) < per_class_quota:
            raise ValueError(
                f"class {c} has {len(idx)} documents, quota {per_class_quota}")

    plans = []
    for s in range(n_splits):
        rng = np.random.default_rng(np.random.SeedSequence([seed, s]))
        pool = []
        for idx in by_class:
            pool.extend(rng.permutation(idx)[:per_class_quota].tolist())
        pool = [int(i) for i in rng.permutation(pool)]
        chosen = set(pool)
        test = [i for i in range(len(corpus)) if i not in chosen]
        plans.append(SplitPlan(split_id=s, train=pool[:train_size],
                               val=pool[train_size:], test=test))
    return plans


# -- on-disk corpus format -----------------------------------------------------------


def save_corpus(corpus: Corpus, out_dir: str):
    """Write ``images.tensors`` (meta: spec and seed) and then
    ``manifest.json`` into ``out_dir``, each atomically."""
    os.makedirs(out_dir, exist_ok=True)
    head = {"spec": asdict(corpus.spec), "seed": corpus.seed}
    save_tensors(os.path.join(out_dir, IMAGES_FILE),
                 {"images": np.stack([d.image for d in corpus.documents])}, head)
    index = [{"id": i, "label": int(d.label), "text_class": int(d.text_class),
              "tokens": [int(t) for t in d.tokens]}
             for i, d in enumerate(corpus.documents)]
    with atomic_write(os.path.join(out_dir, "manifest.json")) as fh:
        json.dump({**head, "documents": index}, fh, sort_keys=True, indent=1)


def load_corpus(corpus_dir: str) -> Corpus:
    """Inverse of :func:`save_corpus`; fails naming the images file when its
    spec, seed or row count disagrees with the manifest.  Each document's
    image is a view into the one loaded array."""
    with open(os.path.join(corpus_dir, "manifest.json")) as fh:
        manifest = json.load(fh)
    path = os.path.join(corpus_dir, IMAGES_FILE)
    arrays, meta = load_tensors(path)
    images, entries = arrays.get("images"), manifest["documents"]
    if (meta != {"spec": manifest["spec"], "seed": manifest["seed"]}
            or images is None or len(images) != len(entries)):
        raise ValueError(f"{path}: does not match manifest.json (other spec, seed "
                         f"or document count); regenerate the corpus with gen-data")
    raw = dict(manifest["spec"])
    for key in ("image_template_map", "text_template_map"):
        if raw.get(key) is not None:
            raw[key] = tuple(raw[key])
    if not isinstance(raw["docs_per_class"], int):
        raw["docs_per_class"] = tuple(raw["docs_per_class"])
    docs = [Document(image=image, tokens=e["tokens"], label=e["label"],
                     text_class=e["text_class"])
            for image, e in zip(images, entries)]
    return Corpus(spec=CorpusSpec(**raw), seed=manifest["seed"], documents=docs)


# -- minibatch streams ---------------------------------------------------------------


class _Loader:
    """Deterministic epoch streams of (*inputs, labels) over a fixed index set.

    Shuffling depends on (seed, epoch) only, so the global batch sequence is
    identical no matter how it is later sharded across workers.  Each
    subclass defines its own epoch(epoch_index) over _batches, because
    benchmark/tracer.py wraps epoch class by class.
    """

    def __init__(self, corpus: Corpus, indices, batch_size: int,
                 seed: int = 0, drop_last: bool = True):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self.corpus = corpus
        self.indices = [int(i) for i in indices]
        self.batch_size = batch_size
        self.seed = seed
        self.drop_last = drop_last

    def batches_per_epoch(self):
        n = len(self.indices)
        return n // self.batch_size if self.drop_last else -(-n // self.batch_size)

    def order(self, epoch_index: int) -> np.ndarray:
        """The documents of the epoch's batches, in batch order: the (seed,
        epoch) shuffle of the index set, less its short tail under drop_last."""
        order = np.random.default_rng(
            np.random.SeedSequence([self.seed, epoch_index])).permutation(self.indices)
        return order[:self.batches_per_epoch() * self.batch_size]

    def _batches(self, epoch_index: int):
        """Yield (document indices, labels) for each batch of the epoch."""
        order = self.order(epoch_index)
        for start in range(0, len(order), self.batch_size):
            chunk = [int(i) for i in order[start:start + self.batch_size]]
            yield chunk, np.array([self.corpus.documents[i].label for i in chunk])


class ImageLoader(_Loader):
    """Streams of (images, labels); augmentation depends on (seed, epoch,
    document index) only."""

    def __init__(self, corpus: Corpus, indices, batch_size: int,
                 image_size: Optional[int] = None,
                 augment: Optional[AugmentConfig] = None,
                 seed: int = 0, drop_last: bool = True):
        super().__init__(corpus, indices, batch_size, seed, drop_last)
        self.image_size = image_size or corpus.spec.image_size
        self.augment = augment

    def _prepare(self, doc_index: int, epoch: int):
        doc = self.corpus.documents[doc_index]
        img = doc.image
        if self.augment is not None:
            rng = np.random.default_rng(
                np.random.SeedSequence([self.seed, epoch, doc_index]))
            img = shear(img, self.augment.draw_angle(rng))
        if img.shape[-1] != self.image_size:
            img = resize(img, self.image_size)
        return img

    def epoch(self, epoch_index: int):
        for chunk, y in self._batches(epoch_index):
            yield np.stack([self._prepare(i, epoch_index) for i in chunk]), y


class TextLoader(_Loader):
    """Streams of (token ids, attention mask, labels); tokenization is
    deterministic so only the shuffle depends on (seed, epoch)."""

    def __init__(self, corpus: Corpus, indices, batch_size: int, max_len: int,
                 seed: int = 0, drop_last: bool = True):
        super().__init__(corpus, indices, batch_size, seed, drop_last)
        self.max_len = max_len

    def epoch(self, epoch_index: int):
        for chunk, y in self._batches(epoch_index):
            ids, masks = zip(*(tokenize(self.corpus.documents[i].tokens, self.max_len)
                               for i in chunk))
            yield np.stack(ids), np.stack(masks), y
