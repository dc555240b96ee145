"""Ring all-reduce against a fixed-order summation oracle, the process
collective against ring_allreduce, multi-worker training equivalence,
worker failures and non-finite gradients, and the scaling benchmark
harness."""

import collections
import os
import threading
import time

import numpy as np
import pytest

from helpers import FlatImageModel, ReplayLoader, flat_params

from docbench.layers import Ctx
from docbench.optim import SgdConfig, SgdOptimizer
from docbench.parallel import (CSV_HEADER, MAX_WORKERS_ENV, ParallelConfig,
                               _run_workers, eval_image_accuracy,
                               image_loss, measure_speedup, naive_allreduce,
                               ring_allreduce, train_parallel)


# -- all-reduce oracle ---------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 8])
def test_ring_matches_sequential_sum(k):
    rng = np.random.default_rng(k)
    vectors = [rng.normal(size=37) for _ in range(k)]
    expect = vectors[0].copy()
    for v in vectors[1:]:
        expect = expect + v
    outs = ring_allreduce(vectors)
    assert len(outs) == k
    for out in outs:
        np.testing.assert_allclose(out, expect, rtol=1e-12)
    for out in naive_allreduce(vectors):
        np.testing.assert_allclose(out, expect, rtol=1e-12)


def test_ring_is_bit_identical_across_runs():
    rng = np.random.default_rng(0)
    vectors = [rng.normal(size=101) for _ in range(4)]
    first = ring_allreduce([v.copy() for v in vectors])
    for _ in range(4):
        again = ring_allreduce([v.copy() for v in vectors])
        for a, b in zip(first, again):
            assert np.array_equal(a, b)


def test_ring_all_workers_agree_bitwise():
    rng = np.random.default_rng(1)
    outs = ring_allreduce([rng.normal(size=64) for _ in range(5)])
    for out in outs[1:]:
        assert np.array_equal(outs[0], out)


@pytest.mark.parametrize("size", [1, 2, 3, 7])
def test_ring_handles_vectors_shorter_than_k(size):
    vectors = [np.full(size, float(i)) for i in range(4)]
    for out in ring_allreduce(vectors):
        np.testing.assert_allclose(out, np.full(size, 6.0))


def test_ring_input_validation():
    with pytest.raises(ValueError):
        ring_allreduce([])
    with pytest.raises(ValueError):
        ring_allreduce([np.zeros(3), np.zeros(4)])


def run_watched(target, timeout=60):
    """Run target() in a watched thread; return its exception, if any."""
    outcome = {}

    def run():
        try:
            target()
        except BaseException as exc:  # noqa: BLE001 - inspected by the test
            outcome["error"] = exc

    before = set(threading.enumerate())
    watcher = threading.Thread(target=run, daemon=True)
    watcher.start()
    watcher.join(timeout)
    assert not watcher.is_alive(), "hung on a barrier"
    assert set(threading.enumerate()) == before, "worker threads left running"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)  # no worker process is left, not even a zombie
    return outcome.get("error")


@pytest.mark.parametrize("k", [2, 3, 4])
def test_collective_matches_ring_allreduce(k):
    """Back-to-back exchanges of changing lengths, some shorter than k, with
    the last arrival rotating between workers; each worker checks its own
    results in its own process."""
    rng = np.random.default_rng(k)
    lengths = [1, k - 1, k, 37, 2, 101, 3]
    posted = [[rng.normal(size=m) for _ in range(k)] for m in lengths]

    def body(collective):
        w = collective.w
        for i, vectors in enumerate(posted):
            if (w + i) % k == 0:
                time.sleep(0.002)
            mine = collective.allreduce(vectors[w])
            if not np.array_equal(mine, ring_allreduce(vectors)[w]):
                raise AssertionError(f"worker {w}, exchange {i}: {mine}")

    assert run_watched(lambda: _run_workers(k, max(lengths), body)) is None


def test_parallel_config_validation():
    assert ParallelConfig(k=2, n=4, seed=0).global_batch == 8
    with pytest.raises(ValueError):
        ParallelConfig(k=0, n=4, seed=0)


# -- training equivalence ------------------------------------------------------------
#
# The equivalence model (helpers.FlatImageModel) is deliberately free of batch
# statistics and dropout: those see per-shard batches, so replicas would
# legitimately diverge from the serial run.


def make_problem(global_batch, steps=10, pixels=36, classes=3, seed=0):
    rng = np.random.default_rng(seed)
    batches = []
    for _ in range(steps):
        x = rng.normal(size=(global_batch, pixels))
        y = rng.integers(0, classes, size=global_batch)
        batches.append((x, y))
    return ReplayLoader(batches)


def run_training(k, n, steps=10, epochs=1, seed=0, debug=False):
    loader = make_problem(k * n, steps=steps, seed=seed)
    net, metrics = train_parallel(
        lambda: FlatImageModel(36, 3, seed=42),
        lambda net: SgdOptimizer(net, 0.05, SgdConfig(momentum=0.9)),
        loader, image_loss, ParallelConfig(k=k, n=n, seed=seed), epochs,
        debug=debug)
    return net, metrics


@pytest.mark.parametrize("k", [2, 4])
def test_parallel_matches_serial_after_10_steps(k):
    serial, _ = run_training(1, 8, steps=10)
    parallel, _ = run_training(k, 8 // k, steps=10, debug=True)
    dev = np.max(np.abs(flat_params(serial) - flat_params(parallel)))
    assert dev <= 1e-6


def test_parallel_loss_curves_match_serial():
    _, serial = run_training(1, 8, steps=6, epochs=2)
    _, parallel = run_training(2, 4, steps=6, epochs=2)
    for a, b in zip(serial, parallel):
        assert a["train_loss"] == pytest.approx(b["train_loss"], abs=1e-9)


def test_k1_is_bitwise_identical_to_manual_loop():
    net, _ = run_training(1, 8, steps=5)

    manual = FlatImageModel(36, 3, seed=42)
    opt = SgdOptimizer(manual, 0.05, SgdConfig(momentum=0.9))
    loader = make_problem(8, steps=5, seed=0)
    ctx = Ctx(training=True, rng=np.random.default_rng(
        np.random.SeedSequence([0, 0])))
    for batch in loader.epoch(0):
        opt.zero_grad()
        loss = image_loss(manual, batch, ctx)
        loss.backward()
        opt.step()
    np.testing.assert_array_equal(flat_params(net), flat_params(manual))


def test_deterministic_reruns_are_bitwise_equal():
    a, _ = run_training(3, 4, steps=4)
    b, _ = run_training(3, 4, steps=4)
    np.testing.assert_array_equal(flat_params(a), flat_params(b))


def test_divergence_check_trips_on_unequal_replicas():
    """A model factory that initializes differently per worker process
    breaks the identical-replica precondition; debug mode must catch it."""
    def bad_factory():
        return FlatImageModel(36, 3, seed=os.getpid())

    loader = make_problem(8)
    with pytest.raises(RuntimeError, match="divergence"):
        train_parallel(bad_factory,
                       lambda net: SgdOptimizer(net, 0.05, SgdConfig()),
                       loader, image_loss,
                       ParallelConfig(k=2, n=4, seed=0), 1, debug=True)


def test_batch_size_mismatch_is_rejected():
    loader = make_problem(6)
    with pytest.raises(ValueError, match="global"):
        train_parallel(lambda: FlatImageModel(36, 3, seed=1),
                       lambda net: SgdOptimizer(net, 0.05, SgdConfig()),
                       loader, image_loss,
                       ParallelConfig(k=2, n=4, seed=0), 1)


def test_metrics_rows_and_eval_hook():
    loader = make_problem(8, steps=3)
    val = make_problem(8, steps=1, seed=9)

    class EvalLoader:
        def epoch(self, e):
            return iter(val.batches)

    net, metrics = train_parallel(
        lambda: FlatImageModel(36, 3, seed=7),
        lambda net: SgdOptimizer(net, 0.05, SgdConfig()),
        loader, image_loss, ParallelConfig(k=2, n=4, seed=0), 2,
        eval_fn=lambda m: eval_image_accuracy(m, EvalLoader()))
    assert len(metrics) == 2
    for row in metrics:
        assert set(row) >= {"epoch", "train_loss", "lr", "val_acc", "seconds"}
        assert 0.0 <= row["val_acc"] <= 1.0


@pytest.mark.parametrize("k", [1, 2])
def test_every_row_times_its_epoch(k):
    _, metrics = run_training(k, 8 // k, steps=3, epochs=3)
    assert [row["epoch"] for row in metrics] == [0, 1, 2]
    assert all(row["seconds"] > 0 for row in metrics)


# -- worker failures -----------------------------------------------------------------


class Boom(Exception):
    pass


def marked_problem(k, n, steps=3):
    """Batches whose first pixel holds the id of the worker that gets the row."""
    loader = make_problem(k * n, steps=steps)
    for x, _ in loader.batches:
        x[:, 0] = np.repeat(np.arange(k), n)
    return loader


def train_in_thread(k=3, **kwargs):
    """Run train_parallel in a watched thread; return its exception."""
    return run_watched(lambda: train_parallel(
        lambda: FlatImageModel(36, 3, seed=1),
        lambda net: SgdOptimizer(net, 0.05, SgdConfig()),
        marked_problem(k, 2), cfg=ParallelConfig(k=k, n=2), epochs=3,
        **kwargs))


def test_loss_error_on_one_worker_surfaces():
    def loss_fn(net, shard, ctx):
        if shard[0][0, 0] == 1:
            raise Boom("worker 1")
        return image_loss(net, shard, ctx)

    error = train_in_thread(loss_fn=loss_fn)
    assert isinstance(error, Boom) and str(error) == "worker 1"


def test_eval_error_on_worker_zero_surfaces():
    def eval_fn(net):
        raise Boom("eval")

    error = train_in_thread(loss_fn=image_loss, eval_fn=eval_fn)
    assert isinstance(error, Boom) and str(error) == "eval"


@pytest.mark.parametrize("k", [2, 3])
def test_dead_worker_raises_naming_it_and_its_status(k):
    calls = collections.Counter()

    def loss_fn(net, shard, ctx):
        # each process counts its own calls; worker 1 dies at epoch 1, step 1
        calls[shard[0][0, 0]] += 1
        if shard[0][0, 0] == 1 and calls[1] == 5:
            os._exit(3)
        return image_loss(net, shard, ctx)

    error = train_in_thread(k=k, loss_fn=loss_fn)
    assert isinstance(error, RuntimeError)
    assert str(error) == "worker 1 exited with status 3"


def test_unpicklable_worker_error_keeps_its_type_and_message():
    class LocalError(Exception):  # a local class cannot be pickled
        pass

    def loss_fn(net, shard, ctx):
        if shard[0][0, 0] == 1:
            raise LocalError("not picklable")
        return image_loss(net, shard, ctx)

    error = train_in_thread(k=2, loss_fn=loss_fn)
    assert isinstance(error, RuntimeError)
    assert str(error) == "worker 1: LocalError: not picklable"


@pytest.mark.parametrize("k", [1, 2])
def test_non_finite_gradient_names_epoch_and_step(k):
    calls = collections.Counter()

    def loss_fn(net, shard, ctx):
        # every worker's loss turns NaN at epoch 1, step 2 (3 steps per epoch)
        calls[threading.get_ident()] += 1
        loss = image_loss(net, shard, ctx)
        return loss * float("nan") if calls[threading.get_ident()] == 6 else loss

    error = train_in_thread(k=k, loss_fn=loss_fn)
    assert isinstance(error, FloatingPointError)
    assert str(error).startswith(
        "epoch 1, step 2: non-finite gradient for parameter 'body.")


# -- scaling benchmark ---------------------------------------------------------------


def bench_problem():
    rng = np.random.default_rng(0)

    def batch_factory(global_size):
        x = rng.normal(size=(global_size, 36))
        y = rng.integers(0, 3, size=global_size)
        return x, y

    return batch_factory


def test_speedup_report_single_worker():
    report = measure_speedup(
        lambda: FlatImageModel(36, 3, seed=1),
        lambda net: SgdOptimizer(net, 0.05, SgdConfig()),
        bench_problem(), image_loss, [1], n=4, steps=3, warmup=1)
    assert len(report.rows) == 1
    row = report.rows[0]
    assert row["k"] == 1
    assert row["speedup"] == pytest.approx(1.0)
    assert row["efficiency"] == pytest.approx(1.0)
    assert row["wall_seconds"] > 0


def test_speedup_csv_schema():
    report = measure_speedup(
        lambda: FlatImageModel(36, 3, seed=1),
        lambda net: SgdOptimizer(net, 0.05, SgdConfig()),
        bench_problem(), image_loss, [1], n=4, steps=2, warmup=0)
    lines = report.to_csv().strip().split("\n")
    assert lines[0] == "k,wall_seconds,samples_per_sec,speedup,efficiency"
    assert CSV_HEADER == lines[0]
    assert len(lines) == 2


def test_worker_cap_skips_large_k(monkeypatch):
    monkeypatch.setenv(MAX_WORKERS_ENV, "1")
    with pytest.warns(UserWarning, match="exceeds"):
        report = measure_speedup(
            lambda: FlatImageModel(36, 3, seed=1),
            lambda net: SgdOptimizer(net, 0.05, SgdConfig()),
            bench_problem(), image_loss, [1, 2], n=4, steps=2, warmup=0)
    assert [r["k"] for r in report.rows] == [1]


@pytest.mark.parametrize("warmup", [0, 1])
def test_speedup_at_two_workers(monkeypatch, warmup):
    monkeypatch.delenv(MAX_WORKERS_ENV, raising=False)
    report = measure_speedup(
        lambda: FlatImageModel(36, 3, seed=1),
        lambda net: SgdOptimizer(net, 0.05, SgdConfig()),
        bench_problem(), image_loss, [1, 2], n=4, steps=2, warmup=warmup)
    assert [r["k"] for r in report.rows] == [1, 2]
    assert all(r["wall_seconds"] > 0 for r in report.rows)
    assert report.rows[0]["speedup"] == 1.0


def test_speedup_input_validation():
    factory = bench_problem()
    with pytest.raises(ValueError):
        measure_speedup(lambda: None, lambda n: None, factory, image_loss,
                        [], n=4, steps=2)
    with pytest.raises(ValueError, match=r"every k >= 1, got \[1, 0\]"):
        # weak scaling divides the step count by k
        measure_speedup(lambda: FlatImageModel(36, 3, seed=1),
                        lambda net: SgdOptimizer(net, 0.05, SgdConfig()),
                        factory, image_loss, [1, 0], n=4, steps=2)
