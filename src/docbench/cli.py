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
from .parallel import (ParallelConfig, eval_image_accuracy, eval_text_accuracy,
                       image_loss, measure_speedup, predict, text_loss,
                       train_parallel)
from .scaling import ScaledDims, ScalingSpec, compound_scale
from .tensor import Tensor
from .text_encoder import TextEncoderSpec, build_text_encoder

METRICS_HEADER = "epoch,train_loss,val_acc,lr"

# published multi-GPU reference point printed next to bench-scaling output
REFERENCE_REDUCTION_AT_4 = 75.4


# -- config -> domain objects -------------------------------------------------------


def _template_map(cfg: Config, key: str):
    raw = (cfg.get("corpus", key, "") or "").strip()
    return tuple(int(t) for t in raw.replace(",", " ").split()) if raw else None


def _corpus_spec(cfg: Config) -> CorpusSpec:
    docs = cfg.getints("corpus", "docs_per_class")
    return CorpusSpec(
        num_classes=cfg.getint("corpus", "num_classes"),
        docs_per_class=docs[0] if len(docs) == 1 else docs,
        image_size=cfg.getint("corpus", "image_size"),
        vocab_size=cfg.getint("corpus", "vocab_size"),
        text_len=cfg.getint("corpus", "text_len"),
        image_noise=cfg.getfloat("corpus", "image_noise"),
        text_noise=cfg.getfloat("corpus", "text_noise"),
        modality_agreement=cfg.getfloat("corpus", "modality_agreement"),
        image_template_map=_template_map(cfg, "image_template_map"),
        text_template_map=_template_map(cfg, "text_template_map"),
    )


def _stage_specs(cfg: Config):
    raw = (cfg.get("image_model", "stages", "") or "").strip()
    if not raw:
        return BASE_STAGES
    stages = []
    for line in raw.splitlines():
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 7:
            raise ConfigError(
                "each stage line needs: kind kernel channels repeats stride "
                f"expansion se_ratio; got {line.strip()!r}")
        stages.append(StageSpec(parts[0], int(parts[1]), int(parts[2]),
                                int(parts[3]), int(parts[4]),
                                expansion=int(parts[5]),
                                se_ratio=float(parts[6])))
    return tuple(stages)


def _scaled_dims(cfg: Config) -> ScaledDims:
    spec = ScalingSpec(alpha=cfg.getfloat("image_model", "alpha"),
                       beta=cfg.getfloat("image_model", "beta"),
                       gamma=cfg.getfloat("image_model", "gamma"),
                       phi=cfg.getfloat("image_model", "phi"))
    dims = compound_scale(spec, cfg.getint("image_model", "base_input_size"),
                          cfg.get("image_model", "binding", "constraint"))
    override = (cfg.get("image_model", "input_size", "") or "").strip()
    if override:
        dims = dataclasses.replace(dims, input_size=int(override))
    return dims


def _build_image_net(cfg: Config, num_classes: int, seed: int):
    dims = _scaled_dims(cfg)
    return build_efficientnet(
        _stage_specs(cfg), dims, num_classes,
        in_channels=cfg.getint("image_model", "in_channels"),
        seed=seed,
        dropout_rate=cfg.getfloat("image_model", "dropout"),
        stem_channels=cfg.getint("image_model", "stem_channels"),
        head_channels=cfg.getint("image_model", "head_channels"),
        activation=cfg.get("image_model", "activation", "swish"))


def _text_max_len(cfg: Config, corpus: Corpus) -> int:
    raw = (cfg.get("text_model", "max_len", "") or "").strip()
    return int(raw) if raw else corpus.spec.text_len + 2


def _build_text_net(cfg: Config, corpus: Corpus, seed: int):
    spec = TextEncoderSpec(
        num_layers=cfg.getint("text_model", "num_layers"),
        hidden=cfg.getint("text_model", "hidden"),
        heads=cfg.getint("text_model", "heads"),
        vocab_size=corpus.spec.vocab_size,
        max_len=_text_max_len(cfg, corpus),
        num_classes=corpus.num_classes,
        dropout=cfg.getfloat("text_model", "dropout"),
        activation=cfg.get("text_model", "activation", "swish"))
    return build_text_encoder(spec, seed)


def _augment(cfg: Config, section: str):
    if not cfg.getbool(section, "augment", False):
        return None
    return AugmentConfig(shear_min=cfg.getfloat(section, "shear_min"),
                         shear_max=cfg.getfloat(section, "shear_max"))


def _single_split(cfg: Config, section: str, corpus: Corpus, seed: int):
    index = cfg.getint(section, "split_index", 0)
    plans = make_splits(corpus, index + 1,
                        cfg.getint(section, "train_size"),
                        cfg.getint(section, "val_size"),
                        cfg.getint(section, "per_class_quota"), seed)
    return plans[index]


def _parallel_cfg(args, cfg: Config, n: int) -> ParallelConfig:
    return ParallelConfig(k=args.workers, n=n, seed=args.seed,
                          reduction=cfg.get("run", "reduction", "ring"))


def _epochs(cfg: Config, section: str) -> int:
    epochs = cfg.getint(section, "epochs")
    if epochs < 1:
        raise ConfigError(f"{section}.epochs must be >= 1, got {epochs}")
    return epochs


# -- artifact writing ---------------------------------------------------------------


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
    out = _ensure_out(args.out)
    spec = _corpus_spec(cfg)
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
    epochs = _epochs(cfg, section)
    corpus = load_corpus(args.data)
    plan = _single_split(cfg, section, corpus, args.seed)
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
    schedule = StlrConfig(
        eta_max=reference_lr(cfg.getfloat(section, "base_lr"), n, k),
        total_steps=steps,
        cut_frac=cfg.getfloat(section, "cut_frac"),
        ratio=cfg.getfloat(section, "ratio"))
    sgd = SgdConfig(momentum=cfg.getfloat(section, "momentum"),
                    weight_decay=cfg.getfloat(section, "weight_decay"))

    def model_factory():
        net = _build_image_net(cfg, corpus.num_classes, args.seed)
        if initial is not None:
            initial(net)
        return net

    def opt_factory(net):
        return SgdOptimizer(net, lambda t: stlr_lr(t, schedule), sgd)

    val_loader = ImageLoader(corpus, plan.val, cfg.getint("run", "eval_batch"),
                             image_size=dims.input_size, augment=None,
                             seed=args.seed, drop_last=False)
    net, metrics = train_parallel(
        model_factory, opt_factory, train_loader, image_loss,
        _parallel_cfg(args, cfg, n), epochs,
        eval_fn=lambda m: eval_image_accuracy(m, val_loader))
    return _write_training(section, args, cfg, started, net, metrics,
                           {"model": "image", "num_classes": corpus.num_classes,
                            "input_size": net.input_size}, extra)


def cmd_pretrain(args, cfg: Config) -> int:
    return _train_image(args, cfg, "pretrain")


def cmd_finetune(args, cfg: Config) -> int:
    keep = tuple((cfg.get("finetune", "keep_trainable", "head") or "head").split())

    def initial(net: Network):
        # head stays at its fresh initialization for the new class count
        net.load(args.checkpoint, skip_groups=("head",))
        net.freeze(keep_trainable=keep)

    return _train_image(args, cfg, "finetune", initial=initial,
                        extra={"source_checkpoint": args.checkpoint,
                               "trainable_groups": list(keep)})


def cmd_train_text(args, cfg: Config) -> int:
    started = time.time()
    epochs = _epochs(cfg, "text")
    corpus = load_corpus(args.data)
    plan = _single_split(cfg, "text", corpus, args.seed)
    max_len = _text_max_len(cfg, corpus)

    global_batch = cfg.getint("text", "batch_size")
    if args.batch_per_worker_given:
        global_batch = args.workers * args.batch_per_worker
    if global_batch % args.workers:
        raise ConfigError(
            f"batch {global_batch} not divisible by {args.workers} workers")
    n = global_batch // args.workers

    train_loader = TextLoader(corpus, plan.train, global_batch, max_len,
                              seed=args.seed)
    if train_loader.batches_per_epoch() < 1:
        raise ConfigError(
            f"text: train split of {len(plan.train)} documents yields no "
            f"full batches of {global_batch}")
    decay = LayerwiseDecayConfig(eta_top=cfg.getfloat("text", "eta_top"),
                                 eta_body=cfg.getfloat("text", "eta_body"),
                                 xi=cfg.getfloat("text", "xi"))
    adam = AdamConfig(beta1=cfg.getfloat("text", "beta1"),
                      beta2=cfg.getfloat("text", "beta2"),
                      epsilon=cfg.getfloat("text", "epsilon"),
                      weight_decay=cfg.getfloat("text", "weight_decay"))
    num_layers = cfg.getint("text_model", "num_layers")
    rates = group_lrs(decay, num_layers)

    def opt_factory(net):
        return AdamOptimizer(net, decay.eta_body, adam, group_rates=rates)

    val_loader = TextLoader(corpus, plan.val, cfg.getint("run", "eval_batch"),
                            max_len, seed=args.seed, drop_last=False)
    net, metrics = train_parallel(
        lambda: _build_text_net(cfg, corpus, args.seed), opt_factory,
        train_loader, text_loss, _parallel_cfg(args, cfg, n), epochs,
        eval_fn=lambda m: eval_text_accuracy(m, val_loader))
    return _write_training("train-text", args, cfg, started, net, metrics,
                           {"model": "text", "num_classes": corpus.num_classes,
                            "vocab_size": corpus.spec.vocab_size,
                            "max_len": max_len},
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
    out = _ensure_out(args.out)
    corpus = load_corpus(args.data)

    image_net = _build_image_net(cfg, corpus.num_classes, args.seed)
    image_meta = image_net.load(args.image_checkpoint)
    text_net = _build_text_net(cfg, corpus, args.seed)
    text_meta = text_net.load(args.text_checkpoint)
    ic = image_meta.get("num_classes", corpus.num_classes)
    tc = text_meta.get("num_classes", corpus.num_classes)
    if ic != tc:
        raise ValueError(f"class-count mismatch: image model has {ic}, "
                         f"text model has {tc}")

    plans = make_splits(corpus, cfg.getint("splits", "n_splits"),
                        cfg.getint("splits", "train_size"),
                        cfg.getint("splits", "val_size"),
                        cfg.getint("splits", "per_class_quota"), args.seed)
    eval_batch = cfg.getint("run", "eval_batch")
    max_len = _text_max_len(cfg, corpus)
    dims = _scaled_dims(cfg)
    use_grid = cfg.getbool("ensemble", "grid_search")
    fixed = FusionWeights(cfg.getfloat("ensemble", "w1"),
                          cfg.getfloat("ensemble", "w2"))

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
            weights = grid_search_weights(pv_txt, pv_img, yv,
                                          cfg.getfloat("ensemble", "grid_step"))
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

    reducer = cfg.get("ensemble", "reducer", "median")
    report = report_csv(rows, reducer=reducer)
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
    out = _ensure_out(args.out)
    corpus = load_corpus(args.data)
    dims = _scaled_dims(cfg)
    k_list = args.k_list or cfg.getints("bench", "k_list")
    n = args.batch_per_worker if args.batch_per_worker_given \
        else cfg.getint("bench", "batch_per_worker")

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
        steps=cfg.getint("bench", "steps"),
        warmup=cfg.getint("bench", "warmup"),
        mode=cfg.get("bench", "mode", "weak"),
        seed=args.seed)

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
    """Fill flag defaults from [run] and record which flags were given."""
    args.batch_per_worker_given = args.batch_per_worker is not None
    if args.seed is None:
        args.seed = cfg.getint("run", "seed", 0)
    if args.workers is None:
        args.workers = cfg.getint("run", "workers", 1)
    if args.batch_per_worker is None:
        args.batch_per_worker = cfg.getint("run", "batch_per_worker", 8)
    if args.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {args.workers}")
    if args.batch_per_worker < 1:
        raise ConfigError(
            f"batch per worker must be >= 1, got {args.batch_per_worker}")


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
