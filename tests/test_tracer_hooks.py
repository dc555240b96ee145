"""The benchmark's tracer wraps docbench names by attribute lookup, so a
refactor that moves or renames one of them breaks only the benchmark run.
Installing and removing the wrappers here makes the test suite catch it, and
running the CLI under them catches a command that binds a wrapped name
before the tracer installs, which would leave its spans unrecorded."""

import importlib.util
import os

from docbench import cli, data, layers, optim, tensor

TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "benchmark", "tracer.py")

WRAPPED = [
    (cli, "train_parallel"), (cli, "image_loss"), (cli, "text_loss"),
    (cli, "eval_image_accuracy"), (cli, "eval_text_accuracy"),
    (cli, "generate_corpus"), (cli, "save_corpus"),
    (tensor.Tensor, "backward"),
    (optim.SgdOptimizer, "step"), (optim.AdamOptimizer, "step"),
    (data.ImageLoader, "epoch"), (data.TextLoader, "epoch"),
    (layers.ImageNetwork, "logits"), (layers.TextNetwork, "logits"),
    (layers.Network, "save"), (layers.Network, "load"),
]


TRAINING_SPANS = {"data.load", "layers.forward", "tensor.backward", "parallel.exchange",
                  "optim.step", "parallel.step", "parallel.eval", "parallel.train",
                  "layers.save"}
COMMAND_SPANS = {  # what each command records at least once
    "gen-data": {"data.generate"},
    "pretrain": TRAINING_SPANS,
    "train-text": TRAINING_SPANS,
    "ensemble-eval": {"layers.forward_image", "layers.forward_text", "layers.load"},
}


def _tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_tracer_wraps_and_restores_every_name():
    originals = [vars(owner)[attr] for owner, attr in WRAPPED]
    tracer = _tracer()
    try:
        tracer.install(cli, data, layers, optim, tensor)
        for (owner, attr), original in zip(WRAPPED, originals):
            assert vars(owner)[attr] is not original, f"{attr} left unwrapped"
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(WRAPPED, originals):
        assert vars(owner)[attr] is original, f"{attr} not restored"


def test_tracer_records_every_span_the_cli_runs(tmp_path):
    corpus, image, text = (str(tmp_path / name) for name in ("corpus", "image", "text"))
    tracer = _tracer()
    missing = {}
    tracer.install(cli, data, layers, optim, tensor)
    try:
        for argv in (["gen-data", "--out", corpus],
                     ["pretrain", "--data", corpus, "--out", image,
                      "--set", "pretrain.epochs=1"],
                     ["train-text", "--data", corpus, "--out", text,
                      "--set", "text.epochs=1"],
                     ["ensemble-eval", "--data", corpus, "--out", str(tmp_path / "ensemble"),
                      "--image-checkpoint", os.path.join(image, "checkpoint.tensors"),
                      "--text-checkpoint", os.path.join(text, "checkpoint.tensors")]):
            before = len(tracer.spans)
            assert cli.main([*argv, "--seed", "3"]) == 0, argv[0]
            recorded = {span["name"] for span in tracer.spans[before:]}
            missing[argv[0]] = COMMAND_SPANS[argv[0]] - recorded
    finally:
        tracer.uninstall()
    assert missing == {command: set() for command in COMMAND_SPANS}
