"""The benchmark's workloads: which CLI commands they run and how the
outputs of each command are checked.

Every workload has a set-up and two phases.  The training workloads run
their command at ``--workers 1`` in phase k1 and at ``--workers 2`` in
phase k2, with the same global batch.  ensemble-eval has no worker flag, so
both of its phases run the same single ensemble-eval command and give two
samples of its throughput per round.  Run length is pinned with ``--set``
overrides on the desk profile, so a later change to the profile does not
change the work.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

NUM_CLASSES = 4
IMAGE_BATCH = 8
TEXT_BATCH = 6
EVAL_BATCH = 32

# "desk" is the measured size; "tiny" is the smallest that still trains and
# is used by the self-test.  cut_frac keeps epochs*steps*cut_frac integral.
# The set-up repeats for at least setup_min_s seconds (see run.py).
SIZES = {
    "desk": {"docs_per_class": 40, "train": 80, "val": 20, "quota": 25,
             "image_epochs": 4, "text_epochs": 5, "n_splits": 3, "cut_frac": 0.1,
             "setup_min_s": 5.0},
    "tiny": {"docs_per_class": 10, "train": 16, "val": 4, "quota": 5,
             "image_epochs": 2, "text_epochs": 2, "n_splits": 2, "cut_frac": 0.5,
             "setup_min_s": 0.5},
}

# Accuracy floors at desk size.  Over seeds 0-59 at the commit that added
# the benchmark the lowest final val_acc was 0.6 for the image model (k=1
# and k=2), 0.35 for the text model at k=1 and 0.7 at k=2, and the summary
# ensemble_acc was 1.0 on every seed.  Chance is 0.25, so the floors reject
# a model that stops learning, not an unlucky seed.
FLOORS = {"desk": {"image": 0.5, "text": 0.3, "ensemble": 0.75},
          "tiny": {"image": 0.0, "text": 0.0, "ensemble": 0.0}}


@dataclass
class Command:
    """One CLI call: its argv, the documents it processes, and its check.

    ``check(out_dir)`` returns ``(failure or None, final k=1 loss or None)``.
    """
    argv: list
    docs: int
    out: str
    check: Callable[[str], tuple]


def _sets(values):
    """``--set section.key=value`` arguments for each item of values."""
    argv = []
    for key, value in values.items():
        argv += ["--set", f"{key}={value}"]
    return argv


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _check_corpus(expected):
    def check(out):
        with open(os.path.join(out, "manifest.json")) as fh:
            found = len(json.load(fh)["documents"])
        if found != expected:
            return f"corpus has {found} documents, expected {expected}", None
        return None, None
    return check


def _check_training(epochs, floor):
    def check(out):
        rows = _read_csv(os.path.join(out, "metrics.csv"))
        if len(rows) != epochs:
            return f"metrics.csv has {len(rows)} epochs, expected {epochs}", None
        losses = [float(r["train_loss"]) for r in rows]
        if not all(math.isfinite(x) for x in losses):
            return f"non-finite train_loss in {losses}", None
        val_acc = float(rows[-1]["val_acc"])
        if not val_acc >= floor:
            return f"final val_acc {val_acc} below floor {floor}", None
        return None, losses[-1]
    return check


def _check_report(n_splits, floor):
    def check(out):
        rows = _read_csv(os.path.join(out, "report.csv"))
        if len(rows) != n_splits + 1:
            return f"report.csv has {len(rows)} rows, expected {n_splits + 1}", None
        for row in rows:
            for col in ("image_acc", "text_acc", "ensemble_acc"):
                if not 0.0 <= float(row[col]) <= 1.0:
                    return f"{col} {row[col]} outside [0, 1]", None
        summary = float(rows[-1]["ensemble_acc"])
        if not summary >= floor:
            return f"ensemble_acc {summary} below floor {floor}", None
        return None, None
    return check


class Workload:
    def __init__(self, name: str, size: str, seed: int):
        self.name = name
        self.size = SIZES[size]
        self.floors = FLOORS[size]
        self.seed = seed

    def gen_data(self, data):
        s = self.size
        docs = NUM_CLASSES * s["docs_per_class"]
        argv = (["gen-data", "--out", data, "--seed", str(self.seed)]
                + _sets({"corpus.num_classes": NUM_CLASSES,
                         "corpus.docs_per_class": s["docs_per_class"]}))
        return Command(argv, docs, data, _check_corpus(docs))

    def train(self, model, data, out, k):
        """pretrain (image) or train-text (text) at k workers, same global batch."""
        s = self.size
        if model == "image":
            command, section, batch, epochs = "pretrain", "pretrain", IMAGE_BATCH, s["image_epochs"]
            extra = {"pretrain.cut_frac": s["cut_frac"]}
        else:
            command, section, batch, epochs = "train-text", "text", TEXT_BATCH, s["text_epochs"]
            extra = {}
        argv = ([command, "--data", data, "--out", out, "--seed", str(self.seed),
                 "--workers", str(k), "--batch-per-worker", str(batch // k)]
                + _sets({f"{section}.epochs": epochs,
                         f"{section}.train_size": s["train"],
                         f"{section}.val_size": s["val"],
                         f"{section}.per_class_quota": s["quota"],
                         "run.eval_batch": EVAL_BATCH, **extra}))
        docs = epochs * (s["train"] // batch) * batch
        return Command(argv, docs, out, _check_training(epochs, self.floors[model]))

    def ensemble(self, data, out, image_ckpt, text_ckpt):
        s = self.size
        argv = (["ensemble-eval", "--data", data, "--out", out,
                 "--seed", str(self.seed),
                 "--image-checkpoint", image_ckpt, "--text-checkpoint", text_ckpt]
                + _sets({"splits.n_splits": s["n_splits"],
                         "splits.train_size": s["train"],
                         "splits.val_size": s["val"],
                         "splits.per_class_quota": s["quota"],
                         "run.eval_batch": EVAL_BATCH}))
        docs = s["n_splits"] * NUM_CLASSES * (s["docs_per_class"] - s["quota"])
        return Command(argv, docs, out, _check_report(s["n_splits"], self.floors["ensemble"]))

    @property
    def has_workers(self):
        """Whether phase k2 runs two worker threads; ensemble-eval has no
        worker flag."""
        return self.name != "ensemble-eval"

    # -- the two parts every workload has -----------------------------------------

    def setup(self, work) -> list:
        """Commands that make the inputs of the timed phases, in order."""
        data = os.path.join(work, "data")
        commands = [self.gen_data(data)]
        if self.name == "ensemble-eval":
            commands += [self.train("image", data, os.path.join(work, "image"), 1),
                         self.train("text", data, os.path.join(work, "text"), 1)]
        return commands

    def phase(self, work, k) -> Command:
        """The command of phase k."""
        data = os.path.join(work, "data")
        out = os.path.join(work, f"k{k}")
        if self.name == "image-train":
            return self.train("image", data, out, k)
        if self.name == "text-train":
            return self.train("text", data, out, k)
        return self.ensemble(data, out, os.path.join(work, "image", "checkpoint.tensors"),
                             os.path.join(work, "text", "checkpoint.tensors"))


WORKLOADS = ("image-train", "text-train", "ensemble-eval")
