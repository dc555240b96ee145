"""The desk pipeline's outputs at ``--seed 3``, pinned across commits.

One run of gen-data, pretrain and train-text at k = 1, 2 and 3, finetune at
k = 1 and 2, and ensemble-eval with the weight grid search off and on must
reproduce every ``metrics.csv`` and ``report.csv`` under
``tests/desk_outputs/`` byte for byte.  Both k=1 models score 1.0 on the
desk corpus, where every grid weight ties, so one more grid-search
ensemble-eval scores a corpus that draws 40% of its texts from a random
class: there the text model errs, and the weights are ranked by accuracy.
The csv files print four to six digits, so the module also pins numbers:
each checkpoint tensor's sum and L2 norm, and the column sums and L2 norm of
each model's ensemble-eval probabilities, to an absolute ``TOLERANCE``.
That admits summation-order round-off (reordering batch norm's column sums
moves them by at most 6e-14) and rejects a changed computation (scaling
swish's output by 1 + 1e-9 moves the largest of them by 2.8e-9 in a text
checkpoint and 1.1e-7 in an image one).

A change that alters the outputs on purpose rewrites the pinned files with

    PYTHONPATH=src python3 tests/test_desk_outputs.py

which first prints how many pinned numbers moved and by how much at most,
and which csv files changed bytes, so a rewrite that adds one pin shows
whether it also moved the others.
"""

import json
import os
import shutil
import sys
import tempfile

import numpy as np
import pytest

from docbench import cli
from docbench.config import Config
from docbench.data import ImageLoader, TextLoader, load_corpus
from docbench.tensor import load_tensors

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "desk_outputs")
NUMBERS = "numbers.json"
SEED = "3"
TOLERANCE = 1e-11
SMALL_CORPUS = "corpus.docs_per_class=4"  # the size finetune's splits are sized for
# 40% of the texts come from a random class, so the models' accuracies part
DISAGREE = "corpus.modality_agreement=0.6"


def _commands(root=""):
    """(output directory, argv) of each desk run under ``root``, in order."""
    def at(*parts):
        return os.path.join(root, *parts)

    pretrained = at("pretrain-k1", "checkpoint.tensors")
    runs = [("data", ["gen-data"]),
            ("data-small", ["gen-data", "--set", SMALL_CORPUS]),
            ("data-disagree", ["gen-data", "--set", DISAGREE])]
    for k in ("1", "2", "3"):
        runs.append((f"pretrain-k{k}", ["pretrain", "--data", at("data"), "--workers", k]))
        runs.append((f"text-k{k}", ["train-text", "--data", at("data"), "--workers", k]))
    # at the default 8 per worker, k=2 finds no full batch in 8 documents
    for k, n in (("1", "8"), ("2", "4")):
        runs.append((f"finetune-k{k}", [
            "finetune", "--data", at("data-small"), "--workers", k,
            "--batch-per-worker", n, "--checkpoint", pretrained]))
    for name, data, grid in (("ensemble", "data", "false"), ("ensemble-grid", "data", "true"),
                             ("ensemble-grid-disagree", "data-disagree", "true")):
        runs.append((name, [
            "ensemble-eval", "--data", at(data), "--image-checkpoint", pretrained,
            "--text-checkpoint", at("text-k1", "checkpoint.tensors"),
            "--set", f"ensemble.grid_search={grid}"]))
    return [(out, [*argv, "--seed", SEED, "--out", at(out)]) for out, argv in runs]


CSV_FILES = [os.path.join(out, "report.csv" if argv[0] == "ensemble-eval" else "metrics.csv")
             for out, argv in _commands() if argv[0] != "gen-data"]
CHECKPOINTS = [out for out, argv in _commands() if argv[0] not in ("gen-data", "ensemble-eval")]


def _ensemble_probs(root):
    """``cli._probs`` of the k=1 image and text checkpoints over every
    document any split tests or validates on, as ensemble-eval forwards them
    under grid search."""
    cfg = Config.load(None, [])
    corpus = load_corpus(os.path.join(root, "data"))
    seed, batch = int(SEED), cfg.getint("run", "eval_batch")
    plans = cli._splits(cfg, "splits", corpus, cfg.getint("splits", "n_splits"), seed)
    needed = sorted({i for plan in plans for i in plan.test + plan.val})
    image = cli._build_image_net(cfg, corpus, seed)
    image.load(os.path.join(root, "pretrain-k1", "checkpoint.tensors"))
    text = cli._build_text_net(cfg, corpus, seed)
    text.load(os.path.join(root, "text-k1", "checkpoint.tensors"))
    return {
        "image": cli._probs(image, ImageLoader(
            corpus, needed, batch, cli._scaled_dims(cfg).input_size, seed=seed,
            drop_last=False)),
        "text": cli._probs(text, TextLoader(
            corpus, needed, batch, cli._text_max_len(cfg, corpus), seed=seed,
            drop_last=False)),
    }


def _summary(array):
    return {"sum": float(np.sum(array)), "norm": float(np.linalg.norm(array))}


def run_desk(root):
    """Run the pipeline under ``root``; returns the pinned numbers."""
    for out, argv in _commands(root):
        assert cli.main(argv) == 0, out
    numbers = {"checkpoints": {}, "probs": {}}
    for out in CHECKPOINTS:
        arrays, _ = load_tensors(os.path.join(root, out, "checkpoint.tensors"))
        numbers["checkpoints"][out] = {name: _summary(a) for name, a in arrays.items()}
    for model, probs in _ensemble_probs(root).items():
        numbers["probs"][model] = {"column_sums": probs.sum(axis=0).tolist(),
                                   "norm": float(np.linalg.norm(probs))}
    return numbers


@pytest.fixture(scope="module")
def desk(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("desk"))
    with open(os.path.join(PINNED, NUMBERS)) as fh:
        pinned = json.load(fh)
    return root, run_desk(root), pinned


@pytest.mark.parametrize("name", CSV_FILES)
def test_csv_matches_pin(desk, name):
    root, _, _ = desk
    with open(os.path.join(root, name), "rb") as got, \
            open(os.path.join(PINNED, name.replace(os.sep, ".")), "rb") as want:
        assert got.read() == want.read()


@pytest.mark.parametrize("checkpoint", CHECKPOINTS)
def test_checkpoint_tensors_match_pin(desk, checkpoint):
    _, numbers, pinned = desk
    got, want = numbers["checkpoints"][checkpoint], pinned["checkpoints"][checkpoint]
    assert got.keys() == want.keys()
    for name, stats in want.items():
        for stat, value in stats.items():
            assert abs(got[name][stat] - value) <= TOLERANCE, (name, stat)


@pytest.mark.parametrize("model", ["image", "text"])
def test_ensemble_probabilities_match_pin(desk, model):
    _, numbers, pinned = desk
    got, want = numbers["probs"][model], pinned["probs"][model]
    np.testing.assert_allclose(got["column_sums"], want["column_sums"],
                               rtol=0, atol=TOLERANCE)
    assert abs(got["norm"] - want["norm"]) <= TOLERANCE


def _leaves(tree, path=()):
    """(path, number) of every pinned number in a ``run_desk`` result."""
    if isinstance(tree, dict):
        for key, value in tree.items():
            yield from _leaves(value, path + (key,))
    elif isinstance(tree, list):
        for i, value in enumerate(tree):
            yield from _leaves(value, path + (i,))
    else:
        yield path, tree


def _report_moves(root, numbers):
    """Print what rewriting the pins under ``root``'s run would change: the
    count and largest size of the moved numbers, and the csv files whose
    bytes differ."""
    try:
        with open(os.path.join(PINNED, NUMBERS)) as fh:
            old = dict(_leaves(json.load(fh)))
    except FileNotFoundError:
        old = {}
    new = dict(_leaves(numbers))
    moves = [abs(value - old[path]) for path, value in new.items()
             if path in old and value != old[path]]
    print(f"{len(moves)} of {len(new)} pinned numbers changed, largest by "
          f"{max(moves, default=0.0):.3g}; {len(new.keys() - old.keys())} added, "
          f"{len(old.keys() - new.keys())} removed", file=sys.stderr)
    for name in CSV_FILES:
        pinned = os.path.join(PINNED, name.replace(os.sep, "."))
        with open(os.path.join(root, name), "rb") as fh:
            got = fh.read()
        if not os.path.exists(pinned):
            print(f"new csv: {name}", file=sys.stderr)
            continue
        with open(pinned, "rb") as fh:
            if fh.read() != got:
                print(f"csv bytes changed: {name}", file=sys.stderr)


if __name__ == "__main__":
    root = tempfile.mkdtemp()
    try:
        numbers = run_desk(root)
        _report_moves(root, numbers)
        os.makedirs(PINNED, exist_ok=True)
        for name in CSV_FILES:
            shutil.copyfile(os.path.join(root, name),
                            os.path.join(PINNED, name.replace(os.sep, ".")))
        with open(os.path.join(PINNED, NUMBERS), "w") as fh:
            json.dump(numbers, fh, indent=1, sort_keys=True)
            fh.write("\n")
    finally:
        shutil.rmtree(root)
    print(f"rewrote {len(CSV_FILES) + 1} files under {PINNED}", file=sys.stderr)
