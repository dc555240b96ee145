"""In-memory span tracer for the traced benchmark run.

The tracer records spans from outside the program: it wraps the public
docbench names that the CLI calls (the loss functions and evaluators the
CLI passes to ``train_parallel``, ``Tensor.backward``, the optimizers'
``step``, the loaders' ``epoch`` iterators, the networks' eval-mode
``logits``, checkpoint ``save``/``load`` and corpus generation) and removes
the wrappers again with ``uninstall``.  Nothing under ``src/`` is edited.

Each span has a name, start, end, parent span and worker id.  A training
step is a span of its own: it starts when the worker begins fetching its
batch and ends when ``opt.step`` returns, and the data, forward, backward,
exchange and optimizer spans of that step are its children.  The exchange
span is derived rather than wrapped: it runs from the end of ``backward``
to the start of ``opt.step`` on the same worker, which covers flattening
the gradients, the all-reduce with its barrier waits, and assigning the
reduced gradients back.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import statistics
import threading
import time
import weakref

STEP_PERCENTILE = 90  # p90 has >= 10 steps beyond it once a phase has >= 100


class Tracer:
    def __init__(self, spans=()):
        """``spans`` are spans recorded earlier, by the set-up process."""
        self.spans = list(spans)
        self._ids = itertools.count(max((s["id"] for s in self.spans), default=-1) + 1)
        self._local = threading.local()
        self._patches = []
        self._train = None          # {"id", "k", "gen"} while train_parallel runs
        self._generation = itertools.count()
        self._workers = itertools.count()
        self._trainable = weakref.WeakKeyDictionary()

    # -- span bookkeeping ------------------------------------------------------

    def _stack(self):
        loc = self._local
        if not hasattr(loc, "stack"):
            loc.stack, loc.pending, loc.eval_depth = [], [], 0
            loc.backward_end, loc.gen, loc.worker = None, None, None
        return loc.stack

    def _training(self):
        """The running train_parallel call, unless this thread is evaluating."""
        self._stack()
        return self._train if self._local.eval_depth == 0 else None

    def _worker(self):
        self._stack()
        train, loc = self._train, self._local
        if train is None:
            return None
        if loc.gen != train["gen"]:
            loc.gen, loc.worker = train["gen"], next(self._workers)
        return loc.worker

    def _parent(self):
        stack = self._stack()
        if stack:
            return stack[-1]
        return self._train["id"] if self._train is not None else None

    def _record(self, name, start, end, parent, **attrs):
        span = {"id": next(self._ids), "name": name, "start": start, "end": end,
                "parent": parent, "worker": self._worker()}
        span.update(attrs)
        self.spans.append(span)
        return span

    @contextlib.contextmanager
    def span(self, name, **attrs):
        """Record one span around a block; yields the span's id."""
        parent = self._parent()
        span_id = next(self._ids)
        stack = self._stack()
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            span = {"id": span_id, "name": name, "start": start, "end": end,
                    "parent": parent, "worker": self._worker()}
            span.update(attrs)
            self.spans.append(span)

    # -- wrappers ----------------------------------------------------------------

    def _patch(self, owner, attr, make):
        original = vars(owner)[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self, cli, data, layers, optim, tensor):
        """Wrap the layer boundaries; ``uninstall`` restores the originals."""
        tracer = self

        def wrap_train(original):
            def train_parallel(model_factory, opt_factory, loader, loss_fn,
                               cfg, *args, **kwargs):
                with tracer.span("parallel.train", k=cfg.k) as span_id:
                    tracer._train = {"id": span_id, "k": cfg.k,
                                     "gen": next(tracer._generation)}
                    try:
                        return original(model_factory, opt_factory, loader,
                                        loss_fn, cfg, *args, **kwargs)
                    finally:
                        tracer._train = None
            return train_parallel

        def wrap_loss(original):
            def loss_fn(net, shard, ctx):
                start = time.perf_counter()
                loss = original(net, shard, ctx)
                tracer._step_part("layers.forward", start, n=len(shard[-1]))
                return loss
            return loss_fn

        def wrap_eval(original):
            def evaluate(net, loader, *args, **kwargs):
                tracer._stack()
                tracer._local.eval_depth += 1
                try:
                    with tracer.span("parallel.eval"):
                        return original(net, loader, *args, **kwargs)
                finally:
                    tracer._local.eval_depth -= 1
            return evaluate

        def wrap_plain(name):
            def make(original):
                def call(*args, **kwargs):
                    with tracer.span(name, call=original.__name__):
                        return original(*args, **kwargs)
                return call
            return make

        def wrap_backward(original):
            def backward(loss):
                start = time.perf_counter()
                original(loss)
                if tracer._training() is not None:
                    span = tracer._step_part("tensor.backward", start)
                    tracer._local.backward_end = span["end"]
                    span["nodes"] = len(tensor.trace(loss))
            return backward

        def wrap_step(original):
            def step(opt):
                start = time.perf_counter()
                train = tracer._training()
                if train is not None and tracer._local.backward_end is not None:
                    tracer._step_part("parallel.exchange", tracer._local.backward_end,
                                      end=start, bytes=tracer._exchange_bytes(opt))
                    tracer._local.backward_end = None
                result = original(opt)
                if train is not None:
                    span = tracer._step_part("optim.step", start)
                    tracer._close_step(span["end"], train["k"])
                return result
            return step

        def wrap_epoch(original):
            def epoch(loader, epoch_index):
                batches = original(loader, epoch_index)
                while True:
                    start = time.perf_counter()
                    try:
                        batch = next(batches)
                    except StopIteration:
                        return
                    if tracer._training() is not None:
                        tracer._step_part("data.load", start, n=len(batch[-1]))
                    yield batch
            return epoch

        def wrap_logits(name):
            def make(original):
                def logits(net, inputs, ctx, *args, **kwargs):
                    if ctx.training:
                        return original(net, inputs, ctx, *args, **kwargs)
                    start = time.perf_counter()
                    out = original(net, inputs, ctx, *args, **kwargs)
                    span = tracer._record(name, start, time.perf_counter(),
                                          tracer._parent(), docs=out.shape[0])
                    span["nodes"] = len(tensor.trace(out))
                    return out
                return logits
            return make

        self._patch(cli, "train_parallel", wrap_train)
        for name in ("image_loss", "text_loss"):
            self._patch(cli, name, wrap_loss)
        for name in ("eval_image_accuracy", "eval_text_accuracy"):
            self._patch(cli, name, wrap_eval)
        for name in ("generate_corpus", "save_corpus"):
            self._patch(cli, name, wrap_plain("data.generate"))
        self._patch(tensor.Tensor, "backward", wrap_backward)
        for cls in (optim.SgdOptimizer, optim.AdamOptimizer):
            self._patch(cls, "step", wrap_step)
        for cls in (data.ImageLoader, data.TextLoader):
            self._patch(cls, "epoch", wrap_epoch)
        self._patch(layers.ImageNetwork, "logits", wrap_logits("layers.forward_image"))
        self._patch(layers.TextNetwork, "logits", wrap_logits("layers.forward_text"))
        self._patch(layers.Network, "save", wrap_plain("layers.save"))
        self._patch(layers.Network, "load", wrap_plain("layers.load"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- training steps --------------------------------------------------------

    def _step_part(self, name, start, end=None, **attrs):
        """Record one part of the current worker's step; its parent is fixed
        when the step closes."""
        span = self._record(name, start, time.perf_counter() if end is None else end,
                            None, k=self._train["k"], **attrs)
        self._local.pending.append(span)
        return span

    def _close_step(self, end, k):
        parts = self._local.pending
        self._local.pending = []
        if not parts:
            return
        step = self._record("parallel.step", parts[0]["start"], end,
                            self._parent(), k=k)
        for part in parts:
            part["parent"] = step["id"]

    def _exchange_bytes(self, opt):
        """8 bytes per trainable element plus the loss, per worker per step."""
        size = self._trainable.get(opt)
        if size is None:
            size = sum(p.data.size for _, p in opt.net.named_params()
                       if p.requires_grad)
            self._trainable[opt] = size
        return 8 * (size + 1)

    def write(self, path):
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


# -- per-layer metrics ------------------------------------------------------------


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _percentile(values, pct):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def per_layer_metrics(spans, overhead, scaling_eff):
    """Derive every per-layer metric from the recorded spans.

    Step-split times are means per worker-step, separately for the k=1 and
    k=2 phases; eval forward times are per document; node and byte counts
    are means over the steps or eval batches that built them.  A layer that
    the workload never runs reads 0.
    """
    by_name = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def durations(name, **match):
        return [s["end"] - s["start"] for s in by_name.get(name, ())
                if all(s.get(key) == value for key, value in match.items())]

    def attr(name, key):
        return [s[key] for s in by_name.get(name, ()) if key in s]

    out = {}
    for k in (1, 2):
        tag = f"k{k}"
        steps = durations("parallel.step", k=k)
        loads = [s for s in by_name.get("data.load", ()) if s.get("k") == k]
        trained = sum(s["n"] for s in by_name.get("layers.forward", ())
                      if s.get("k") == k)
        out[f"data.load_s.{tag}"] = _mean([s["end"] - s["start"] for s in loads])
        out[f"data.prepared_per_trained.{tag}"] = (
            sum(s["n"] for s in loads) / trained if trained else 0.0)
        out[f"layers.forward_s.{tag}"] = _mean(durations("layers.forward", k=k))
        out[f"tensor.backward_s.{tag}"] = _mean(durations("tensor.backward", k=k))
        out[f"parallel.exchange_s.{tag}"] = _mean(durations("parallel.exchange", k=k))
        out[f"optim.step_s.{tag}"] = _mean(durations("optim.step", k=k))
        out[f"parallel.step_s.{tag}.p50"] = _percentile(steps, 50)
        out[f"parallel.step_s.{tag}.p{STEP_PERCENTILE}"] = _percentile(steps, STEP_PERCENTILE)
        out[f"parallel.steps.{tag}"] = len(steps)
    out["tensor.tape_nodes"] = _mean(attr("tensor.backward", "nodes"))
    out["parallel.exchange_bytes"] = _mean(attr("parallel.exchange", "bytes"))
    out["parallel.scaling_eff_k2"] = scaling_eff
    out["parallel.eval_s"] = _mean(durations("parallel.eval"))
    for model in ("image", "text"):
        calls = by_name.get(f"layers.forward_{model}", ())
        docs = sum(s["docs"] for s in calls)
        out[f"layers.forward_{model}_s"] = (
            sum(s["end"] - s["start"] for s in calls) / docs if docs else 0.0)
    out["tensor.eval_tape_nodes"] = _mean(attr("layers.forward_image", "nodes")
                                          + attr("layers.forward_text", "nodes"))
    out["layers.save_s"] = _mean(durations("layers.save"))
    out["layers.load_s"] = _mean(durations("layers.load"))
    generated = durations("data.generate", call="generate_corpus")
    out["data.generate_s"] = (sum(durations("data.generate")) / len(generated)
                              if generated else 0.0)
    out["trace.overhead"] = overhead
    return {name: (value if math.isfinite(value) else 0.0)
            for name, value in out.items()}
