"""One stage of a benchmark run in a fresh process: set-up, or measurement.

run.py starts this script twice per run and reads the JSON it writes to
``--result``.  The script calls ``docbench.cli.main`` in-process, imported
from ``src/`` of the checkout it lives in.  ``--stage setup`` makes the
inputs in ``--work`` once; run.py starts it several times and times each
process from start to exit.  ``--stage measure`` then runs
one client in a closed loop on those inputs: each round runs phase k1 and
then phase k2 (see workloads.py), and a command starts only after the
previous one has finished.  The set-up has a process of its own so that
the measured process's peak memory covers only the measured commands.

With ``--trace 1`` the set-up and every second round run with the tracer
installed; the other rounds run with the program unwrapped, so the traced
and untraced walls of the same run give the tracing overhead.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import statistics
import sys
import time

import workloads
from speed import PROBE_REF_S, SpeedProbe
from tracer import Tracer, per_layer_metrics

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_ROUNDS = 2


def environment(numpy, load_1m):
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threadpoolctl": importlib.util.find_spec("threadpoolctl") is not None,
        "loadavg_1m_at_start": load_1m,
    }


class Runner:
    """Runs commands, checks their outputs and counts failures."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.k1_losses = []

    def run(self, command, k1_training=False):
        """Run one command and check its outputs; return its wall time, or
        None if it failed."""
        start = time.perf_counter()
        try:
            code = self.cli.main(command.argv)
        except (Exception, SystemExit) as exc:  # counted as a failed command
            code = repr(exc)
        wall = time.perf_counter() - start
        self.attempted += 1
        error = f"exit code {code}" if code != 0 else None
        loss = None
        if error is None:
            try:
                error, loss = command.check(command.out)
            except (OSError, ValueError, KeyError) as exc:
                error = f"unreadable output: {exc!r}"
        if error is None and k1_training and loss is not None:
            if self.k1_losses and loss != self.k1_losses[0]:
                error = (f"k=1 final_loss {loss} differs from "
                         f"{self.k1_losses[0]} at the same seed")
            self.k1_losses.append(loss)
        if error is not None:
            self.failed += 1
            self.failures.append({"argv": command.argv, "error": error})
            return None
        return wall


def _failing(command, work):
    """A copy of command that reads a corpus directory that does not exist."""
    argv = list(command.argv)
    argv[argv.index("--data") + 1] = os.path.join(work, "missing-corpus")
    return workloads.Command(argv, command.docs, command.out, command.check)


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def set_up(args, cli, modules):
    """Make the inputs in args.work once."""
    workload = workloads.Workload(args.workload, args.size, args.seed)
    tracer = Tracer() if args.trace else None
    runner = Runner(cli)
    if tracer:
        tracer.install(*modules)
    try:
        for command in workload.setup(args.work):
            if runner.run(command) is None:
                raise RuntimeError(f"set-up failed: {runner.failures[-1]}")
    finally:
        if tracer:
            tracer.uninstall()
    return {"setup_dir": args.work, "attempted": runner.attempted,
            "spans": tracer.spans if tracer else []}


def measure(args, cli, modules, root, numpy):
    """Run the closed loop on the set-up's inputs and derive the metrics."""
    with open(args.setup_result) as fh:
        setup = json.load(fh)
    setup_dir = setup["setup_dir"]
    workload = workloads.Workload(args.workload, args.size, args.seed)
    tracer = Tracer(setup["spans"]) if args.trace else None
    runner = Runner(cli)
    result = {"workload": args.workload, "seed": args.seed, "size": args.size,
              "seconds": args.seconds, "trace": args.trace}
    try:
        if args.inject_failure:
            runner.run(_failing(workload.phase(setup_dir, 1), args.work))

        probe = SpeedProbe(numpy)
        probe()  # warm-up
        phases = []
        round_walls = {True: [], False: []}
        rss_before_k2 = None
        before = probe()
        probes = [before]
        deadline = time.perf_counter() + args.seconds
        while True:
            done = len(round_walls[True]) + len(round_walls[False])
            traced = tracer is not None and done % 2 == 1
            if traced:
                tracer.install(*modules)
            start = time.perf_counter()
            probing = 0.0
            for k in (1, 2):
                command = workload.phase(setup_dir, k)
                wall = runner.run(command, k1_training=(k == 1))
                after = probe()
                probes.append(after)
                probing += after
                if rss_before_k2 is None:
                    # The peak of a two-thread phase depends on how the two
                    # threads' allocations interleave and varied by up to 18%
                    # between runs, so peak_rss_mb is read before the first.
                    rss_before_k2 = peak_rss_mb()
                if wall is not None:
                    phases.append({"k": k, "wall": wall, "docs": command.docs,
                                   "traced": traced, "probe_s": (before + after) / 2})
                before = after
            wall = time.perf_counter() - start - probing
            if traced:
                tracer.uninstall()
            round_walls[traced].append(wall)
            if done + 1 >= MIN_ROUNDS and time.perf_counter() + wall + probing > deadline:
                break

        def rate(k, scaled):
            """Documents per second over all untraced commands of phase k;
            scaled, each command's wall is first scaled by PROBE_REF_S over
            the mean of the probes timed just before and just after it."""
            done = [p for p in phases if p["k"] == k and not p["traced"]]
            if not done:
                raise RuntimeError(f"no successful k={k} phase: {runner.failures[:3]}")
            seconds = sum(p["wall"] * (PROBE_REF_S / p["probe_s"] if scaled else 1.0)
                          for p in done)
            return sum(p["docs"] for p in done) / seconds

        if tracer is None:
            # run.py adds setup_s, from the set-up processes it timed.
            metrics = {
                "docs_per_s_k1": rate(1, scaled=True),
                "docs_per_s_k2": rate(2, scaled=True),
                "peak_rss_mb": rss_before_k2,
            }
        else:
            overhead = (statistics.median(round_walls[True])
                        / statistics.median(round_walls[False]))
            scaling_eff = (rate(2, scaled=False) / (2 * rate(1, scaled=False))
                           if workload.has_workers else 0.0)
            metrics = per_layer_metrics(tracer.spans, overhead, scaling_eff)
            out_dir = os.path.join(root, ".benchmark-out")
            trace_path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.jsonl")
            tracer.write(trace_path)
            result["trace_file"] = os.path.relpath(trace_path, root)
        result.update({
            "attempted": runner.attempted, "failed": runner.failed,
            "failures": runner.failures, "phases": phases,
            "raw_docs_per_s": {f"k{k}": rate(k, scaled=False) for k in (1, 2)},
            "probes": probes,
            "peak_rss_mb_whole_run": peak_rss_mb(),
            "final_loss": runner.k1_losses[0] if runner.k1_losses else None,
            "metrics": metrics,
        })
        return result
    finally:
        if tracer is not None:
            tracer.uninstall()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--stage", choices=("setup", "measure"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), required=True)
    parser.add_argument("--work", required=True,
                        help="setup: directory to make the inputs in; measure: scratch directory")
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, help="measure: time to measure")
    parser.add_argument("--setup-result", help="measure: the set-up stage's result")
    parser.add_argument("--inject-failure", action="store_true")
    args = parser.parse_args(argv)
    load_1m = os.getloadavg()[0]

    # BLAS pools are pinned to one thread before numpy is imported, so k=2
    # uses two compute threads in all.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "docbench", "__init__.py")):
        print(f"error: no docbench source under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import numpy
    from docbench import cli, data, layers, optim, tensor
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"error: imported docbench from {cli.__file__}, not {src}", file=sys.stderr)
        return 2

    modules = (cli, data, layers, optim, tensor)
    if args.stage == "setup":
        result = set_up(args, cli, modules)
    else:
        result = measure(args, cli, modules, root, numpy)
        result["env"] = environment(numpy, load_1m)
    with open(args.result, "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
