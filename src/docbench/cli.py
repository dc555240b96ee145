"""Command-line pipeline: corpus generation, training, evaluation, scaling.

Every subcommand writes its artifacts under --out plus a run.json manifest
recording the command, the full config snapshot, the seed, and the paths it
produced, so any result can be traced back to its inputs and reproduced.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import sys
import time

import numpy as np

from . import __version__, ops
from .config import Config, ConfigError
from .data import (AugmentConfig, Corpus, CorpusSpec, ImageLoader, TextLoader,
                   generate_corpus, load_corpus, make_splits, resize,
                   save_corpus)
from .efficientnet import BASE_STAGES, StageSpec, build_efficientnet
from .ensemble import (FusionWeights, evaluate, fuse, grid_search_weights,
                       predict_classes, report_csv)
from .layers import Network
from .optim import (AdamConfig, AdamOptimizer, LayerwiseDecayConfig, SgdConfig,
                    SgdOptimizer, StlrConfig, group_lrs, reference_lr, stlr_lr)
from .parallel import (MAX_WORKERS_ENV, ParallelConfig, eval_image_accuracy,
                       eval_text_accuracy, image_loss, measure_speedup, predict,
                       text_loss, train_parallel)
from .scaling import ScaledDims, ScalingSpec, compound_scale
from .tensor import Tensor
from .text_encoder import TextEncoderSpec, build_text_encoder

METRICS_HEADER = "epoch,train_loss,val_acc,lr"

# published multi-GPU reference point printed next to bench-scaling output
REFERENCE_REDUCTION_AT_4 = 75.4
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


# -- config -> domain objects -------------------------------------------------------


def _corpus_spec(cfg: Config) -> CorpusSpec:
    docs = cfg.getints("corpus", "docs_per_class")
    return cfg.build(
        CorpusSpec, "corpus", docs_per_class=docs[0] if len(docs) == 1 else docs,
        image_template_map=tuple(cfg.getints("corpus", "image_template_map")) or None,
        text_template_map=tuple(cfg.getints("corpus", "text_template_map")) or None)


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
    return tuple(stages) or BASE_STAGES


def _scaled_dims(cfg: Config) -> ScaledDims:
    dims = compound_scale(cfg.build(ScalingSpec, "image_model"),
                          cfg.getint("image_model", "base_input_size"))
    if cfg.get("image_model", "input_size").strip():
        dims = dataclasses.replace(
            dims, input_size=cfg.getint("image_model", "input_size"))
    return dims


def _build_image_net(cfg: Config, num_classes: int, seed: int):
    dims = _scaled_dims(cfg)
    dropout = cfg.getfloat("image_model", "dropout")
    if not 0.0 <= dropout < 1.0:
        raise ConfigError(f"image_model.dropout must be in [0, 1), got {dropout}")
    return build_efficientnet(
        _stage_specs(cfg), dims, num_classes,
        in_channels=cfg.getint("image_model", "in_channels"),
        seed=seed,
        dropout_rate=dropout,
        stem_channels=cfg.getint("image_model", "stem_channels"),
        head_channels=cfg.getint("image_model", "head_channels"))


def _image_corpus(args, cfg: Config) -> Corpus:
    """The --data corpus, once image_model.in_channels matches its images."""
    corpus = load_corpus(args.data)
    channels = cfg.getint("image_model", "in_channels")
    have = corpus.documents[0].image.shape[0]
    if channels != have:
        raise ConfigError(f"image_model.in_channels {channels} does not match "
                          f"the corpus's {have} image channel(s)")
    return corpus


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


def _augment(cfg: Config, section: str):
    return cfg.build(AugmentConfig, section) if cfg.getbool(section, "augment") else None


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


def _environment() -> dict:
    """The machine and numeric stack a run ran on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "cpu_count": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            **{var: os.environ.get(var) for var in (*BLAS_THREAD_VARS, MAX_WORKERS_ENV)}}


def _write_manifest(out_dir: str, command: str, args, cfg: Config, artifacts,
                    started: float, extra=None):
    manifest = {
        "command": command,
        "version": __version__,
        "seed": args.seed,
        "workers": args.workers,
        "config": cfg.snapshot(),
        "artifacts": {k: os.path.basename(v) for k, v in artifacts.items()},
        "wall_clock_seconds": round(time.time() - started, 3),
        "environment": _environment(),
    }
    if extra:
        manifest.update(extra)
    path = os.path.join(out_dir, "run.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _write_training(command: str, args, cfg: Config, started: float, net,
                    metrics, meta, extra=None) -> int:
    """Checkpoint, metrics.csv and run.json of a training command, then its
    closing line."""
    out = _ensure_out(args.out)
    ckpt = os.path.join(out, "checkpoint.tensors")
    net.save(ckpt, extra_meta=meta)
    lines = [METRICS_HEADER]
    for r in metrics:
        val = f"{r['val_acc']:.4f}" if "val_acc" in r else ""
        lines.append(f"{r['epoch']},{r['train_loss']:.6f},{val},{r['lr']:.8f}")
    csv_path = os.path.join(out, "metrics.csv")
    with open(csv_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_manifest(out, command, args, cfg,
                    {"checkpoint": ckpt, "metrics": csv_path}, started,
                    extra={"epochs": len(metrics),
                           "final_val_acc": metrics[-1].get("val_acc"),
                           **(extra or {})})
    print(f"{command}: {len(metrics)} epochs, "
          f"final val_acc {metrics[-1].get('val_acc', float('nan')):.4f}")
    return 0


# -- subcommands --------------------------------------------------------------------


def cmd_gen_data(args, cfg: Config) -> int:
    started = time.time()
    spec = _corpus_spec(cfg)
    out = _ensure_out(args.out)
    corpus = generate_corpus(spec, args.seed)
    save_corpus(corpus, out)
    _write_manifest(out, "gen-data", args, cfg,
                    {"corpus_index": os.path.join(out, "manifest.json")},
                    started, extra={"documents": len(corpus)})
    print(f"gen-data: wrote {len(corpus)} documents to {out}")
    return 0


def _train_image(args, cfg: Config, section: str, initial=None,
                 extra=None) -> int:
    """Shared pretrain/finetune command: train, then write its artifacts."""
    started = time.time()
    epochs = cfg.getint(section, "epochs", minimum=1)
    eval_batch = cfg.getint("run", "eval_batch", minimum=1)
    corpus = _image_corpus(args, cfg)
    index = cfg.getint(section, "split_index", minimum=0)
    plan = _splits(cfg, section, corpus, index + 1, args.seed)[index]
    dims = _scaled_dims(cfg)
    k, n = args.workers, args.batch_per_worker
    train_loader = ImageLoader(corpus, plan.train, k * n,
                               image_size=dims.input_size,
                               augment=_augment(cfg, section), seed=args.seed)
    steps = epochs * train_loader.batches_per_epoch()
    if steps < 1:
        raise ConfigError(
            f"{section}: train split of {len(plan.train)} documents yields no "
            f"full batches of {k * n}")
    schedule = cfg.build(
        StlrConfig, section, total_steps=steps,
        eta_max=reference_lr(cfg.getfloat(section, "base_lr"), n, k))
    sgd = cfg.build(SgdConfig, section)

    def model_factory():
        net = _build_image_net(cfg, corpus.num_classes, args.seed)
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
    return _write_training(section, args, cfg, started, net, metrics,
                           net.checkpoint_meta(), extra)


def cmd_pretrain(args, cfg: Config) -> int:
    return _train_image(args, cfg, "pretrain")


def cmd_finetune(args, cfg: Config) -> int:
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

    return _train_image(args, cfg, "finetune", initial=initial,
                        extra={"source_checkpoint": args.checkpoint,
                               "trainable_groups": list(keep)})


def cmd_train_text(args, cfg: Config) -> int:
    started = time.time()
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
    rates = group_lrs(decay, cfg.getint("text_model", "num_layers"))

    def opt_factory(net):
        return AdamOptimizer(net, decay.eta_body, adam, group_rates=rates)

    val_loader = TextLoader(corpus, plan.val, eval_batch, max_len,
                            seed=args.seed, drop_last=False)
    net, metrics = train_parallel(
        lambda: _build_text_net(cfg, corpus, args.seed), opt_factory,
        train_loader, text_loss, ParallelConfig(args.workers, n, args.seed),
        epochs, eval_fn=lambda m: eval_text_accuracy(m, val_loader))
    return _write_training("train-text", args, cfg, started, net, metrics,
                           {**net.checkpoint_meta(),
                            "vocab_size": corpus.spec.vocab_size},
                           {"batch_size": global_batch})


def _probs(net, loader) -> tuple:
    """Class probabilities and labels over one pass of an eval loader."""
    probs, labels = [], []
    for logits, y in predict(net, loader):
        probs.append(ops.softmax(Tensor(logits), axis=-1).data)
        labels.append(y)
    return np.concatenate(probs), np.concatenate(labels)


def cmd_ensemble_eval(args, cfg: Config) -> int:
    started = time.time()
    n_splits = cfg.getint("splits", "n_splits", minimum=1)
    eval_batch = cfg.getint("run", "eval_batch", minimum=1)
    use_grid = cfg.getbool("ensemble", "grid_search")
    step = cfg.getfloat("ensemble", "grid_step")
    if use_grid and not 0.0 < step <= 1.0:
        raise ConfigError(f"ensemble.grid_step must be in (0, 1], got {step}")
    corpus = _image_corpus(args, cfg)

    image_net = _build_image_net(cfg, corpus.num_classes, args.seed)
    image_net.load(args.image_checkpoint)
    text_net = _build_text_net(cfg, corpus, args.seed)
    text_net.load(args.text_checkpoint)

    plans = _splits(cfg, "splits", corpus, n_splits, args.seed)
    max_len = _text_max_len(cfg, corpus)
    dims = _scaled_dims(cfg)
    fixed = cfg.build(FusionWeights, "ensemble")

    rows = []
    for plan in plans:
        def loaders(indices):
            img = ImageLoader(corpus, indices, eval_batch,
                              image_size=dims.input_size, augment=None,
                              seed=args.seed, drop_last=False)
            txt = TextLoader(corpus, indices, eval_batch, max_len,
                             seed=args.seed, drop_last=False)
            return img, txt

        if use_grid:
            vi, vt = loaders(plan.val)
            pv_img, yv = _probs(image_net, vi)
            pv_txt, _ = _probs(text_net, vt)
            weights = grid_search_weights(pv_txt, pv_img, yv, step)
        else:
            weights = fixed
        ti, tt = loaders(plan.test)
        p_img, y = _probs(image_net, ti)
        p_txt, _ = _probs(text_net, tt)
        fused = fuse(p_txt, p_img, weights)
        rows.append({
            "split_id": plan.split_id,
            "image_acc": evaluate(predict_classes(p_img), y),
            "text_acc": evaluate(predict_classes(p_txt), y),
            "ensemble_acc": evaluate(predict_classes(fused), y),
            "w1": weights.w1, "w2": weights.w2,
        })

    report = report_csv(rows)
    out = _ensure_out(args.out)
    report_path = os.path.join(out, "report.csv")
    with open(report_path, "w") as fh:
        fh.write(report)
    summary = {
        stat: {col: getattr(statistics, fn)([r[col] for r in rows])
               for col in ("image_acc", "text_acc", "ensemble_acc")}
        for stat, fn in (("median", "median"), ("mean", "fmean"))
    }
    _write_manifest(out, "ensemble-eval", args, cfg, {"report": report_path},
                    started, extra={"summary": summary,
                                    "grid_search": use_grid,
                                    "image_checkpoint": args.image_checkpoint,
                                    "text_checkpoint": args.text_checkpoint})
    print(report, end="")
    return 0


def cmd_bench_scaling(args, cfg: Config) -> int:
    started = time.time()
    steps = cfg.getint("bench", "steps", minimum=1)
    warmup = cfg.getint("bench", "warmup", minimum=0)
    n = args.batch_per_worker if args.batch_per_worker_given \
        else cfg.getint("bench", "batch_per_worker", minimum=1)
    k_list = args.k_list or cfg.getints("bench", "k_list", minimum=1)
    if not k_list:
        raise ConfigError("bench.k_list must list at least one worker count")
    corpus = _image_corpus(args, cfg)
    dims = _scaled_dims(cfg)

    images = np.stack([
        d.image if d.image.shape[-1] == dims.input_size
        else resize(d.image, dims.input_size)
        for d in corpus.documents])
    labels = corpus.labels()

    def batch_factory(global_size: int):
        idx = np.arange(global_size) % len(corpus)
        return images[idx], labels[idx]

    def opt_factory(net):
        return SgdOptimizer(net, 0.01, SgdConfig())

    report = measure_speedup(
        lambda: _build_image_net(cfg, corpus.num_classes, args.seed),
        opt_factory, batch_factory, image_loss, k_list, n,
        steps=steps, warmup=warmup, seed=args.seed)

    out = _ensure_out(args.out)
    csv_path = os.path.join(out, "scaling.csv")
    with open(csv_path, "w") as fh:
        fh.write(report.to_csv())
    _write_manifest(out, "bench-scaling", args, cfg, {"scaling": csv_path},
                    started, extra={"k_list": list(k_list), "n": n})
    print(report.to_csv(), end="")
    print(f"context: published 4-worker reference reduced wall time by "
          f"~{REFERENCE_REDUCTION_AT_4:.1f}% (speedup ~{1 / (1 - REFERENCE_REDUCTION_AT_4 / 100):.2f}x)")
    return 0


# -- argument parsing ---------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="docbench",
        description="Dual-modality document classification benchmark")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, data=True):
        p.add_argument("--config", default=None,
                       help="profile name (desk, full) or config file path")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="SECTION.KEY=VALUE", help="override one config value")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None, metavar="K")
        p.add_argument("--batch-per-worker", type=int, default=None, metavar="N")
        p.add_argument("--out", required=True, help="output directory")
        if data:
            p.add_argument("--data", required=True, help="corpus directory")

    common(sub.add_parser("gen-data", help="generate a synthetic corpus"),
           data=False)
    common(sub.add_parser("pretrain", help="train the image model"))
    p = sub.add_parser("finetune", help="fine-tune a pretrained image model")
    common(p)
    p.add_argument("--checkpoint", required=True)
    common(sub.add_parser("train-text", help="train the text model"))
    p = sub.add_parser("ensemble-eval", help="evaluate late-fusion ensemble")
    common(p)
    p.add_argument("--image-checkpoint", required=True)
    p.add_argument("--text-checkpoint", required=True)
    p = sub.add_parser("bench-scaling", help="measure data-parallel speedup")
    common(p)
    p.add_argument("--k-list", type=int, nargs="+", default=None)
    return parser


HANDLERS = {
    "gen-data": cmd_gen_data,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "train-text": cmd_train_text,
    "ensemble-eval": cmd_ensemble_eval,
    "bench-scaling": cmd_bench_scaling,
}


def _resolve(args, cfg: Config):
    """Fill flag defaults from [run], check each against its minimum, and
    record which flags were given."""
    args.batch_per_worker_given = args.batch_per_worker is not None
    for key, minimum in (("seed", 0), ("workers", 1), ("batch_per_worker", 1)):
        value = getattr(args, key)
        if value is None:
            setattr(args, key, cfg.getint("run", key, minimum=minimum))
        elif value < minimum:
            raise ConfigError(f"--{key.replace('_', '-')} must be >= {minimum}, "
                              f"got {value}")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = Config.load(args.config, args.overrides)
        _resolve(args, cfg)
        return HANDLERS[args.command](args, cfg)
    except Exception as exc:  # single-line, machine-parsable failure channel
        message = " ".join(str(exc).split()) or type(exc).__name__
        print(f"error: {message}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
