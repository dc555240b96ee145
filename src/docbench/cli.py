"""Command-line pipeline: corpus generation, training, evaluation, scaling.

Every subcommand writes its artifacts under --out and returns their paths and
its own fields; ``main`` writes them to a run.json beside the command, config
snapshot, seed and wall time, so any result can be traced and reproduced.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import json
import math
import os
import platform
import statistics
import sys
import time

import numpy as np

from . import __version__, ops
from .config import Config, ConfigError
from .data import (AugmentConfig, Corpus, CorpusSpec, ImageLoader, TextLoader,
                   generate_corpus, load_corpus, make_splits, save_corpus)
from .efficientnet import StageSpec, build_efficientnet
from .ensemble import (FusionWeights, evaluate, fuse, grid_search_weights,
                       predict_classes, report_csv)
from .layers import Network
from .optim import (AdamConfig, AdamOptimizer, LayerwiseDecayConfig, SgdConfig,
                    SgdOptimizer, StlrConfig, group_lrs, reference_lr, stlr_lr)
from .parallel import (ParallelConfig, eval_image_accuracy, eval_text_accuracy,
                       image_loss, measure_speedup, predict, text_loss,
                       train_parallel)
from .scaling import ScaledDims, ScalingSpec, compound_scale
from .tensor import Tensor
from .text_encoder import TextEncoderSpec, build_text_encoder

METRICS_HEADER = "epoch,train_loss,val_acc,lr"

# published multi-GPU reference point printed next to bench-scaling output
REFERENCE_REDUCTION_AT_4 = 75.4
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters and values: M_MMAP_THRESHOLD (its 64-bit maximum)
# and M_TRIM_THRESHOLD
HEAP_THRESHOLDS = ((-3, 32 << 20), (-1, 64 << 20))


# -- config -> domain objects -------------------------------------------------------


def _corpus_spec(cfg: Config) -> CorpusSpec:
    docs = cfg.getints("corpus", "docs_per_class")
    return cfg.build(
        CorpusSpec, "corpus", docs_per_class=docs[0] if len(docs) == 1 else docs,
        image_template_map=cfg.getints("corpus", "image_template_map") or None,
        text_template_map=cfg.getints("corpus", "text_template_map") or None)


def _stage_specs(cfg: Config):
    stages = []
    for line in cfg.get("image_model", "stages").splitlines():
        parts = line.split()
        if not parts:
            continue
        try:
            if len(parts) != 7:
                raise ValueError("each stage line needs: kind kernel channels "
                                 "repeats stride expansion se_ratio")
            stages.append(StageSpec(parts[0], *map(int, parts[1:6]), float(parts[6])))
        except ValueError as exc:
            raise ConfigError(f"image_model.stages: {exc}; got {line.strip()!r}") from None
    if not stages:
        raise ConfigError("image_model.stages must list at least one stage")
    return tuple(stages)


def _scaled_dims(cfg: Config) -> ScaledDims:
    dims = compound_scale(cfg.build(ScalingSpec, "image_model"),
                          cfg.getint("image_model", "base_input_size"))
    if cfg.get("image_model", "input_size").strip():
        dims = dataclasses.replace(
            dims, input_size=cfg.getint("image_model", "input_size", minimum=2))
    return dims


def _build_image_net(cfg: Config, corpus: Corpus, seed: int):
    """The configured image model for the corpus's classes and image channels."""
    dims = _scaled_dims(cfg)
    dropout = cfg.getfloat("image_model", "dropout")
    if not 0.0 <= dropout < 1.0:
        raise ConfigError(f"image_model.dropout must be in [0, 1), got {dropout}")
    return build_efficientnet(
        _stage_specs(cfg), dims, corpus.num_classes,
        in_channels=corpus.documents[0].image.shape[0],
        seed=seed,
        dropout_rate=dropout,
        stem_channels=cfg.getint("image_model", "stem_channels", minimum=1),
        head_channels=cfg.getint("image_model", "head_channels", minimum=1))


def _text_max_len(cfg: Config, corpus: Corpus) -> int:
    if cfg.get("text_model", "max_len").strip():
        return cfg.getint("text_model", "max_len")
    return corpus.spec.text_len + 2


def _build_text_net(cfg: Config, corpus: Corpus, seed: int):
    spec = cfg.build(TextEncoderSpec, "text_model",
                     vocab_size=corpus.spec.vocab_size,
                     max_len=_text_max_len(cfg, corpus),
                     num_classes=corpus.num_classes)
    return build_text_encoder(spec, seed)


def _splits(cfg: Config, section: str, corpus: Corpus, count: int, seed: int):
    """``count`` split plans sized by the section's train_size, val_size and
    per_class_quota."""
    sizes = [cfg.getint(section, key)
             for key in ("train_size", "val_size", "per_class_quota")]
    try:
        return make_splits(corpus, count, *sizes, seed)
    except ValueError as exc:
        raise ConfigError(f"{section}: {exc}") from None


# -- artifact writing ---------------------------------------------------------------


@functools.cache
def keep_heap() -> bool:
    """Fix glibc's mmap and trim thresholds, both since setting either one
    ends glibc's dynamic adjustment, so that freed eval activations stay in
    the heap rather than being faulted back in every batch.  Returns whether
    both took; a no-op without mallopt.  Forked workers inherit the setting."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in HEAP_THRESHOLDS)


def _environment() -> dict:
    """The machine and numeric stack a run ran on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "heap_kept": keep_heap(),
            "cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            **{var: os.environ.get(var) for var in BLAS_THREAD_VARS}}


def _write_manifest(args, cfg: Config, started: float, artifacts, fields):
    manifest = {
        "command": args.command,
        "version": __version__,
        "seed": args.seed,
        "config": cfg.snapshot(),
        "artifacts": {k: os.path.basename(v) for k, v in artifacts.items()},
        "wall_clock_seconds": round(time.time() - started, 3),
        "environment": _environment(),
        **fields,
    }
    with open(os.path.join(args.out, "run.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _write_training(args, net, metrics, meta=None):
    """Checkpoint (with ``meta`` beside the network's own) and metrics.csv of a
    training command, then its closing line; returns its artifacts and fields."""
    os.makedirs(args.out, exist_ok=True)
    ckpt = os.path.join(args.out, "checkpoint.tensors")
    net.save(ckpt, extra_meta=meta)
    lines = [METRICS_HEADER]
    for r in metrics:
        val = f"{r['val_acc']:.4f}" if "val_acc" in r else ""
        lines.append(f"{r['epoch']},{r['train_loss']:.6f},{val},{r['lr']:.8f}")
    csv_path = os.path.join(args.out, "metrics.csv")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    final = metrics[-1].get("val_acc", math.nan)  # NaN after an empty val split
    print(f"{args.command}: {len(metrics)} epochs, final val_acc {final:.4f}")
    return ({"checkpoint": ckpt, "metrics": csv_path},
            {"epochs": len(metrics), "workers": args.workers,
             "final_val_acc": None if math.isnan(final) else final})


# -- subcommands --------------------------------------------------------------------


def cmd_gen_data(args, cfg: Config):
    corpus = generate_corpus(_corpus_spec(cfg), args.seed)
    save_corpus(corpus, args.out)
    print(f"gen-data: wrote {len(corpus)} documents to {args.out}")
    return ({"corpus_index": os.path.join(args.out, "manifest.json")},
            {"documents": len(corpus)})


def _train_image(args, cfg: Config, initial=None):
    """pretrain, and finetune's training: the config section is the command."""
    section = args.command
    epochs = cfg.getint(section, "epochs", minimum=1)
    eval_batch = cfg.getint("run", "eval_batch", minimum=1)
    corpus = load_corpus(args.data)
    index = cfg.getint(section, "split_index", minimum=0)
    plan = _splits(cfg, section, corpus, index + 1, args.seed)[index]
    dims = _scaled_dims(cfg)
    k, n = args.workers, args.batch_per_worker
    augment = cfg.build(AugmentConfig, section) if cfg.getbool(section, "augment") else None
    train_loader = ImageLoader(corpus, plan.train, k * n,
                               image_size=dims.input_size,
                               augment=augment, seed=args.seed)
    steps = epochs * train_loader.batches_per_epoch()
    if steps < 1:
        raise ConfigError(
            f"{section}: train split of {len(plan.train)} documents yields no "
            f"full batches of {k * n}")
    base_lr = cfg.getfloat(section, "base_lr")
    if not base_lr > 0:
        raise ConfigError(f"{section}.base_lr must be > 0, got {base_lr}")
    schedule = cfg.build(StlrConfig, section, total_steps=steps,
                         eta_max=reference_lr(base_lr, n, k))
    sgd = cfg.build(SgdConfig, section)

    def model_factory():
        net = _build_image_net(cfg, corpus, args.seed)
        if initial is not None:
            initial(net)
        return net

    def opt_factory(net):
        return SgdOptimizer(net, lambda t: stlr_lr(t, schedule), sgd)

    val_loader = ImageLoader(corpus, plan.val, eval_batch,
                             image_size=dims.input_size, augment=None,
                             seed=args.seed, drop_last=False)
    net, metrics = train_parallel(
        model_factory, opt_factory, train_loader, image_loss,
        ParallelConfig(args.workers, n, args.seed), epochs,
        eval_fn=lambda m: eval_image_accuracy(m, val_loader))
    return _write_training(args, net, metrics)


def cmd_finetune(args, cfg: Config):
    keep = tuple(cfg.get("finetune", "keep_trainable").split())
    if not keep:
        raise ConfigError("finetune.keep_trainable must name at least one group")

    def initial(net: Network):
        try:
            net.freeze(keep_trainable=keep)
        except KeyError as exc:
            raise ConfigError(f"finetune.keep_trainable: {exc.args[0]}") from None
        # head stays at its fresh initialization for the new class count
        net.load(args.checkpoint, skip_groups=("head",))

    artifacts, fields = _train_image(args, cfg, initial=initial)
    return artifacts, {**fields, "source_checkpoint": args.checkpoint,
                       "trainable_groups": list(keep)}


def cmd_train_text(args, cfg: Config):
    epochs = cfg.getint("text", "epochs", minimum=1)
    eval_batch = cfg.getint("run", "eval_batch", minimum=1)
    if args.batch_per_worker_given:
        global_batch = args.workers * args.batch_per_worker
    else:
        global_batch = cfg.getint("text", "batch_size", minimum=1)
        if global_batch % args.workers:
            raise ConfigError(f"text.batch_size {global_batch} not divisible "
                              f"by {args.workers} workers")
    n = global_batch // args.workers
    corpus = load_corpus(args.data)
    index = cfg.getint("text", "split_index", minimum=0)
    plan = _splits(cfg, "text", corpus, index + 1, args.seed)[index]
    max_len = _text_max_len(cfg, corpus)

    train_loader = TextLoader(corpus, plan.train, global_batch, max_len,
                              seed=args.seed)
    if train_loader.batches_per_epoch() < 1:
        raise ConfigError(
            f"text: train split of {len(plan.train)} documents yields no "
            f"full batches of {global_batch}")
    decay = cfg.build(LayerwiseDecayConfig, "text")
    adam = cfg.build(AdamConfig, "text")
    rates = group_lrs(decay, cfg.getint("text_model", "num_layers", minimum=1))

    def opt_factory(net):
        return AdamOptimizer(net, decay.eta_body, adam, group_rates=rates)

    val_loader = TextLoader(corpus, plan.val, eval_batch, max_len,
                            seed=args.seed, drop_last=False)
    net, metrics = train_parallel(
        lambda: _build_text_net(cfg, corpus, args.seed), opt_factory,
        train_loader, text_loss, ParallelConfig(args.workers, n, args.seed),
        epochs, eval_fn=lambda m: eval_text_accuracy(m, val_loader))
    artifacts, fields = _write_training(args, net, metrics,
                                        {"vocab_size": corpus.spec.vocab_size})
    return artifacts, {**fields, "batch_size": global_batch}


def _probs(net, loader) -> np.ndarray:
    """Class probabilities from one pass of an eval loader, as the rows of a
    (len(corpus), C) array at the loader's documents (the others are 0)."""
    rows = np.concatenate([ops.softmax(Tensor(logits), axis=-1).data
                           for logits, _ in predict(net, loader)])
    probs = np.zeros((len(loader.corpus), rows.shape[1]))
    probs[loader.order(0)] = rows
    return probs


def cmd_ensemble_eval(args, cfg: Config):
    n_splits = cfg.getint("splits", "n_splits", minimum=1)
    eval_batch = cfg.getint("run", "eval_batch", minimum=1)
    use_grid = cfg.getbool("ensemble", "grid_search")
    step = cfg.getfloat("ensemble", "grid_step")
    if use_grid and not 0.0 < step <= 1.0:
        raise ConfigError(f"ensemble.grid_step must be in (0, 1], got {step}")
    corpus = load_corpus(args.data)
    plans = _splits(cfg, "splits", corpus, n_splits, args.seed)
    if not plans[0].test:  # every plan has the same sizes
        raise ConfigError(f"splits.per_class_quota puts all {len(corpus)} "
                          f"documents in train and val, leaving no test documents")
    if use_grid and not plans[0].val:
        raise ConfigError("splits.val_size must be >= 1 for ensemble.grid_search")

    image_net = _build_image_net(cfg, corpus, args.seed)
    image_net.load(args.image_checkpoint)
    text_net = _build_text_net(cfg, corpus, args.seed)
    text_net.load(args.text_checkpoint)
    fixed = cfg.build(FusionWeights, "ensemble")

    # every document any split scores is forwarded once per model
    needed = sorted({i for plan in plans
                     for i in plan.test + (plan.val if use_grid else [])})
    image = _probs(image_net, ImageLoader(
        corpus, needed, eval_batch, image_size=_scaled_dims(cfg).input_size,
        augment=None, seed=args.seed, drop_last=False))
    text = _probs(text_net, TextLoader(corpus, needed, eval_batch,
                                       _text_max_len(cfg, corpus),
                                       seed=args.seed, drop_last=False))
    labels = corpus.labels()

    rows = []
    for plan in plans:
        val, test = plan.val, plan.test
        weights = (grid_search_weights(text[val], image[val], labels[val], step)
                   if use_grid else fixed)
        fused = fuse(text[test], image[test], weights)
        y = labels[test]
        rows.append({
            "split_id": plan.split_id,
            "image_acc": evaluate(predict_classes(image[test]), y),
            "text_acc": evaluate(predict_classes(text[test]), y),
            "ensemble_acc": evaluate(predict_classes(fused), y),
            "w1": weights.w1, "w2": weights.w2,
        })

    report = report_csv(rows)
    os.makedirs(args.out, exist_ok=True)
    report_path = os.path.join(args.out, "report.csv")
    with open(report_path, "w") as fh:
        fh.write(report)
    summary = {
        stat: {col: getattr(statistics, fn)([r[col] for r in rows])
               for col in ("image_acc", "text_acc", "ensemble_acc")}
        for stat, fn in (("median", "median"), ("mean", "fmean"))
    }
    print(report, end="")
    return {"report": report_path}, {"summary": summary,
                                     "predicted_documents": len(needed),
                                     "grid_search": use_grid,
                                     "image_checkpoint": args.image_checkpoint,
                                     "text_checkpoint": args.text_checkpoint}


def cmd_bench_scaling(args, cfg: Config):
    steps = cfg.getint("bench", "steps", minimum=1)
    warmup = cfg.getint("bench", "warmup", minimum=0)
    n = cfg.getint("bench", "batch_per_worker", minimum=1)
    k_list = cfg.getints("bench", "k_list", minimum=1)
    if not k_list:
        raise ConfigError("bench.k_list must list at least one worker count")
    if k_list[0] != 1:  # speedup and efficiency are taken against k=1
        raise ConfigError(f"bench.k_list must start with 1, got {k_list}")
    corpus = load_corpus(args.data)
    dims = _scaled_dims(cfg)

    def batch_factory(global_size: int):
        return next(ImageLoader(corpus, np.arange(global_size) % len(corpus),
                                global_size, dims.input_size, seed=args.seed).epoch(0))

    def opt_factory(net):
        return SgdOptimizer(net, 0.01, SgdConfig())

    report = measure_speedup(
        lambda: _build_image_net(cfg, corpus, args.seed),
        opt_factory, batch_factory, image_loss, k_list, n,
        steps=steps, warmup=warmup, seed=args.seed)

    os.makedirs(args.out, exist_ok=True)
    csv_path = os.path.join(args.out, "scaling.csv")
    with open(csv_path, "w") as fh:
        fh.write(report.to_csv())
    print(report.to_csv(), end="")
    print(f"context: published 4-worker reference reduced wall time by "
          f"~{REFERENCE_REDUCTION_AT_4:.1f}% (speedup ~{1 / (1 - REFERENCE_REDUCTION_AT_4 / 100):.2f}x)")
    return ({"scaling": csv_path},
            {"k_list": list(k_list), "n": n, "blas_pinned": report.blas_pinned})


# -- argument parsing ---------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports usage errors on main's one-line channel instead of exiting 2
    with the usage block (subparsers inherit the class)."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


# flags that only some commands read; each command gets only its own
FLAGS = {"--data": dict(required=True, help="corpus directory"),
         "--workers": dict(type=int, default=None, metavar="K"),
         "--batch-per-worker": dict(type=int, default=None, metavar="N"),
         "--checkpoint": dict(required=True),
         "--image-checkpoint": dict(required=True),
         "--text-checkpoint": dict(required=True)}
TRAINING = ("--data", "--workers", "--batch-per-worker")

# each command's handler, help line and flags besides --config, --set, --seed, --out
HANDLERS = {
    "gen-data": (cmd_gen_data, "generate a synthetic corpus", ()),
    "pretrain": (_train_image, "train the image model", TRAINING),
    "finetune": (cmd_finetune, "fine-tune a pretrained image model",
                 (*TRAINING, "--checkpoint")),
    "train-text": (cmd_train_text, "train the text model", TRAINING),
    "ensemble-eval": (cmd_ensemble_eval, "evaluate late-fusion ensemble",
                      ("--data", "--image-checkpoint", "--text-checkpoint")),
    "bench-scaling": (cmd_bench_scaling, "measure data-parallel speedup", ("--data",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="docbench",
        description="Dual-modality document classification benchmark")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in HANDLERS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--config", default=None,
                       help="profile name (desk, full) or config file path")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override one config value")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True, help="output directory")
        for flag in flags:
            p.add_argument(flag, **FLAGS[flag])
    return parser


def _resolve(args, cfg: Config):
    """Fill the defaults of the command's flags from [run], check each
    against its minimum, and record whether --batch-per-worker was given."""
    args.batch_per_worker_given = getattr(args, "batch_per_worker", None) is not None
    for key, minimum in (("seed", 0), ("workers", 1), ("batch_per_worker", 1)):
        if not hasattr(args, key):
            continue
        value = getattr(args, key)
        if value is None:
            setattr(args, key, cfg.getint("run", key, minimum=minimum))
        elif value < minimum:
            raise ConfigError(f"--{key.replace('_', '-')} must be >= {minimum}, "
                              f"got {value}")


def main(argv=None) -> int:
    keep_heap()
    try:
        args = build_parser().parse_args(argv)
        cfg = Config.load(args.config, args.overrides)
        _resolve(args, cfg)
        started = time.time()
        artifacts, fields = HANDLERS[args.command][0](args, cfg)
        _write_manifest(args, cfg, started, artifacts, fields)
        return 0
    except Exception as exc:  # single-line, machine-parsable failure channel
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
