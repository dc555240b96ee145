"""The benchmark's tracer wraps docbench names by attribute lookup, so a
refactor that moves or renames one of them breaks only the benchmark run.
Installing and removing the wrappers here makes the test suite catch it."""

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


def test_tracer_wraps_and_restores_every_name():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    originals = [vars(owner)[attr] for owner, attr in WRAPPED]
    tracer = module.Tracer()
    try:
        tracer.install(cli, data, layers, optim, tensor)
        for (owner, attr), original in zip(WRAPPED, originals):
            assert vars(owner)[attr] is not original, f"{attr} left unwrapped"
    finally:
        tracer.uninstall()
    for (owner, attr), original in zip(WRAPPED, originals):
        assert vars(owner)[attr] is original, f"{attr} not restored"
