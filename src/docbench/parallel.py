"""Synchronous data-parallel training across k worker processes.

Worker 0 is the calling process: it builds the one model replica and its
optimizer, then forks workers 1..k-1, which start from copies of both.  Each
worker owns its replica and a disjoint shard of every global batch.
Per step the shard-mean gradients are summed by ``ring_allreduce`` (k
chunks, k-1 scatter-reduce phases then k-1 all-gather phases): every worker
writes its optimizer's gradient buffer, with the loss in its last slot, into
its row of one shared-memory block, worker 0 runs the ring over the rows in
place, and each worker divides its row by k into its buffer.  Pipes to and
from worker 0 order these steps; k=1 runs the same exchange over one row.
Every replica then applies the identical optimizer step, so none diverges.
"""

from __future__ import annotations

import os
import pickle
import time
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .layers import Ctx
from .ops import softmax_crossentropy
from .tensor import no_grad

CSV_HEADER = "k,wall_seconds,samples_per_sec,speedup,efficiency"


@dataclass(frozen=True)
class ParallelConfig:
    k: int = 1
    n: int = 8                  # per-worker minibatch
    seed: int = 0

    def __post_init__(self):
        if self.k < 1 or self.n < 1:
            raise ValueError(f"k and n must be >= 1, got k={self.k}, n={self.n}")

    @property
    def global_batch(self):
        return self.k * self.n


# -- collectives ------------------------------------------------------------------


def ring_allreduce(vectors):
    """Elementwise sum of k same-shape arrays, materialized at every worker.

    Follows the ring schedule exactly: the k rows are split into k chunks
    (bounds as np.array_split); during scatter-reduce phase p = 1..k-1 row
    c+p adds in chunk c from row c+p-1, after which row c-1 (mod k) holds
    the complete chunk c; the all-gather then copies it to the other rows.
    The addition order is fixed by the schedule, so results are
    bit-identical across runs.  A (k, n) array is reduced in place; a list
    of arrays is stacked first.  Returns the k result rows.
    """
    if isinstance(vectors, np.ndarray) and vectors.ndim == 2:
        rows, shape = vectors, vectors.shape[1:]
    else:
        arrays = [np.asarray(v) for v in vectors]
        shape = arrays[0].shape if arrays else None
        if shape is None or any(a.shape != shape for a in arrays):
            raise ValueError(f"need same-shape vectors, got {[a.shape for a in arrays]}")
        rows = np.stack([a.ravel() for a in arrays])
    k, n = rows.shape
    bounds = [c * (n // k) + min(c, n % k) for c in range(k + 1)]
    for c in range(k):
        chunk = slice(bounds[c], bounds[c + 1])
        for p in range(1, k):           # scatter-reduce
            rows[(c + p) % k, chunk] += rows[(c + p - 1) % k, chunk]
        for p in range(k - 1):          # all-gather from row c-1
            rows[(c + p) % k, chunk] = rows[(c - 1) % k, chunk]
    return [row.reshape(shape) for row in rows]


_READY, _FAILED = b"r", b"f"


class _Collective:
    """Rendezvous of k worker processes around ring_allreduce, over one
    shared block of k rows and pipes to and from worker 0.  Each process
    keeps only its own pipe ends, so a dead worker reads as EOF at worker 0,
    and worker 0 ending reads as EOF at the others."""

    def __init__(self, k: int, size: int):
        import mmap
        self.w, self.pids = 0, {}
        self.block = np.frombuffer(mmap.mmap(-1, 8 * k * max(size, 1))).reshape(k, -1)
        # worker w > 0 talks over (up read, up write, down read, down write)
        self.pipes = {w: os.pipe() + os.pipe() for w in range(1, k)}
        self.fds = {fd for fds in self.pipes.values() for fd in fds}

    def keep(self, w: int):
        """Become worker w: close every pipe end that is not w's own."""
        self.w = w
        mine = {fd for v, fds in self.pipes.items()
                for fd in (fds[0::3] if w == 0 else fds[1:3] if v == w else ())}
        for fd in self.fds - mine:
            os.close(fd)
        self.fds = mine

    def allreduce(self, vec: np.ndarray) -> np.ndarray:
        """Elementwise sum of the 1-D vec over the workers, as a view of this
        worker's shared row: read it before the next sync."""
        self.block[self.w, :vec.size] = vec
        self.sync(vec.size)
        return self.block[self.w, :vec.size]

    def sync(self, n: int = 0):
        """Wait for every worker; worker 0 all-reduces the rows' first n
        entries before it releases the others."""
        if self.w:
            os.write(self.pipes[self.w][1], _READY)
            if os.read(self.pipes[self.w][2], 1) != _READY:
                raise EOFError("worker 0 has ended")
            return
        for w in self.pipes:
            self.hear(w)
        ring_allreduce(self.block[:, :n])
        for fds in self.pipes.values():
            os.write(fds[3], _READY)

    def hear(self, w: int, ended: bool = False):
        """Worker 0: wait until worker w has posted, or with `ended` until
        it has exited with status 0; raise its exception or exit status."""
        mark = os.read(self.pipes[w][0], 1)
        if mark == _READY and not ended:
            return
        if mark == _FAILED:
            with open(self.pipes[w][0], "rb", closefd=False) as fh:
                raise pickle.loads(fh.read())
        if mark:
            raise RuntimeError(f"worker {w} is out of step with worker 0")
        code = os.waitstatus_to_exitcode(os.waitpid(self.pids.pop(w), 0)[1])
        if code or not ended:
            raise RuntimeError(f"worker {w} exited with status {code}")


def _run_workers(k: int, size: int, body):
    """Run body(collective) on k workers; return worker 0's result.  Worker 0
    is this process; workers 1..k-1 are forked, never return, and send their
    exception up their pipe, pickled or else as a RuntimeError naming its
    type.  Worker 0 raises the first failure it hears of, once all have ended."""
    collective = _Collective(k, size)
    try:
        for w in range(1, k):
            pid = os.fork()
            if pid == 0:
                status = 1
                try:
                    collective.keep(w)
                    body(collective)
                    status = 0
                except BaseException as exc:  # noqa: BLE001 - sent to worker 0
                    try:
                        payload = pickle.dumps(exc)
                        pickle.loads(payload)
                    except Exception:  # noqa: BLE001 - any pickling failure
                        payload = pickle.dumps(RuntimeError(
                            f"worker {w}: {type(exc).__name__}: {exc}"))
                    with open(collective.pipes[w][1], "wb", closefd=False) as fh:
                        fh.write(_FAILED + payload)
                finally:
                    os._exit(status)
            collective.pids[w] = pid
        collective.keep(0)
        result = body(collective)
        for w in range(1, k):
            collective.hear(w, ended=True)
        return result
    finally:
        for fd in collective.fds:
            os.close(fd)
        for pid in collective.pids.values():
            os.waitpid(pid, 0)


# -- synchronous data-parallel training -----------------------------------------


def _logits(net, inputs, ctx):
    """Map a batch's inputs, (x,) or (ids, mask), onto the network."""
    return net.logits(inputs[0], ctx, *inputs[1:])


def train_parallel(model_factory, opt_factory, loader, loss_fn,
                   cfg: ParallelConfig, epochs: int, eval_fn=None,
                   debug: bool = False):
    """Train k identical replicas in lockstep.

    model_factory() and opt_factory(net) run once, in the caller; the forked
    workers start from copies of that replica and optimizer.  loader yields
    global batches of k*n samples as (*inputs, labels) arrays with a leading
    sample axis; loss_fn maps (net, shard, ctx) to the shard-mean loss Tensor.
    Shard-mean gradients are all-reduced and divided by k, i.e. the update
    uses the gradient mean over the whole global batch.  Returns (worker-0
    replica, per-epoch metrics rows); a row's `seconds` is worker 0's wall
    time for the epoch's steps, clocked from a rendezvous at the epoch start,
    without eval.
    """
    k = cfg.k
    # numpy's error state belongs to the process, so the forked workers keep
    # it; the optimizer's non-finite check then reports an overflow
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        net = model_factory()
        opt = opt_factory(net)
        buffers = [b for _, b in net.named_buffers()]

        def run(collective):
            w = collective.w
            ctx = Ctx(training=True,
                      rng=np.random.default_rng(np.random.SeedSequence([cfg.seed, w])))
            metrics = []
            for epoch in range(epochs):
                losses = []
                peak_lr = 0.0
                collective.sync()
                started = time.perf_counter()
                for step, batch in enumerate(loader.epoch(epoch)):
                    if batch[0].shape[0] != cfg.global_batch:
                        raise ValueError(
                            f"loader batch {batch[0].shape[0]} != global "
                            f"batch {cfg.global_batch}")
                    lo, hi = w * cfg.n, (w + 1) * cfg.n
                    shard = tuple(a[lo:hi] for a in batch)
                    opt.zero_grad()
                    loss = loss_fn(net, shard, ctx)
                    loss.backward()
                    opt.grads[-1] = loss.item()
                    np.divide(collective.allreduce(opt.grads), k, out=opt.grads)
                    try:
                        peak_lr = max(peak_lr, opt.step())
                    except FloatingPointError as exc:
                        raise FloatingPointError(
                            f"epoch {epoch}, step {step}: {exc}") from None
                    losses.append(float(opt.grads[-1]))
                    if debug:
                        all_p = collective.allreduce(opt.params)
                        dev = np.max(np.abs(opt.params - all_p / k))
                        if dev > 1e-6:
                            raise RuntimeError(
                                f"replica divergence {dev:.3e} beyond 1e-6")
                seconds = time.perf_counter() - started
                if buffers:
                    # running statistics differ per shard; re-sync as the mean
                    mean_b = collective.allreduce(
                        np.concatenate([b.ravel() for b in buffers])) / k
                    ends = np.cumsum([b.size for b in buffers])
                    for b, part in zip(buffers, np.split(mean_b, ends[:-1])):
                        b[...] = part.reshape(b.shape)
                loss_mean = float(np.mean(losses)) if losses else float("nan")
                row = {"epoch": epoch, "train_loss": loss_mean,
                       "lr": peak_lr, "seconds": seconds}
                if w == 0 and eval_fn is not None:
                    row["val_acc"] = float(eval_fn(net))
                metrics.append(row)
            return metrics

        # opt.grads is one longer than opt.params, which debug exchanges
        size = max(opt.grads.size, sum(b.size for b in buffers))
        return net, _run_workers(k, size, run)


# -- scaling benchmark -------------------------------------------------------------


@dataclass
class SpeedupReport:
    rows: list  # dicts with k, wall_seconds, samples_per_sec, speedup, efficiency
    blas_pinned: bool  # whether BLAS pools ran on one thread

    def to_csv(self) -> str:
        return "\n".join([CSV_HEADER] + [
            f"{r['k']},{r['wall_seconds']:.6f},{r['samples_per_sec']:.3f},"
            f"{r['speedup']:.4f},{r['efficiency']:.4f}" for r in self.rows]) + "\n"


def _blas_single_threaded():
    """A context pinning BLAS pools to one thread while measuring, and
    whether it pins: without threadpoolctl it is a null context."""
    try:
        from threadpoolctl import threadpool_limits
        return threadpool_limits(limits=1), True
    except ImportError:
        import contextlib
        return contextlib.nullcontext(), False


def measure_speedup(model_factory, opt_factory, batch_factory, loss_fn, k_list,
                    n: int, steps: int, warmup: int = 1,
                    seed: int = 0) -> SpeedupReport:
    """Time weak-scaling training at each worker count.

    batch_factory(global_size) must return one deterministic global batch;
    the same batch is replayed every step so nothing but compute is timed.
    Each worker holds n samples, so the global batch is n*k and the timed
    steps shrink to round(steps / k), at least 1.  Each k trains two
    train_parallel epochs, `warmup` steps then the timed ones, and the
    second epoch's `seconds` is the wall time.  k_list starts with 1, and
    speedup is the throughput ratio against k=1, so S(1)=1 by construction.
    """
    if not k_list or k_list[0] != 1 or min(k_list) < 1:
        raise ValueError(
            f"k_list must start with 1 and have every k >= 1, got {k_list}")
    rows = []
    pin, pinned = _blas_single_threaded()
    with pin:
        for k in k_list:
            global_batch = n * k
            timed_steps = max(1, round(steps / k))
            batch, counts = batch_factory(global_batch), (warmup, timed_steps)
            # the one batch, replayed counts[e] times in epoch e
            loader = SimpleNamespace(epoch=lambda e: iter([batch] * counts[e]))
            cfg = ParallelConfig(k=k, n=n, seed=seed)
            _, metrics = train_parallel(model_factory, opt_factory, loader,
                                        loss_fn, cfg, epochs=2)
            wall = metrics[1]["seconds"]
            sps = timed_steps * global_batch / wall if wall > 0 else float("inf")
            speedup = sps / rows[0]["samples_per_sec"] if rows else 1.0
            rows.append({"k": k, "wall_seconds": wall, "samples_per_sec": sps,
                         "speedup": speedup, "efficiency": speedup / k})
    return SpeedupReport(rows, pinned)


# -- shared loss/eval helpers -------------------------------------------------------


def batch_loss(net, batch, ctx):
    """Mean cross-entropy of one (*inputs, labels) batch."""
    *inputs, labels = batch
    return softmax_crossentropy(_logits(net, inputs, ctx), labels)


def predict(net, loader):
    """Eval-mode (logits array, labels) for each batch of the loader's epoch
    0, each forward run under no_grad().  Recording is back on at each yield,
    so a caller that stops early cannot leave it off."""
    ctx = Ctx(training=False)
    for *inputs, labels in loader.epoch(0):
        with no_grad():
            logits = _logits(net, inputs, ctx).data
        yield logits, labels


def accuracy(net, loader) -> float:
    hits = total = 0
    for logits, y in predict(net, loader):
        pred = np.argmax(logits, axis=1)
        hits += int((pred == y).sum())
        total += len(y)
    return hits / total if total else float("nan")


# kept per modality: tests/test_acceptance.py imports them, benchmark/tracer.py wraps each
image_loss = text_loss = batch_loss
eval_image_accuracy = eval_text_accuracy = accuracy
