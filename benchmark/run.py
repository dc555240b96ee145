"""docbench desk benchmark: training and evaluation throughput.

Run from the root of a checkout:

    python3 benchmark/run.py --workload image-train --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --workload all --seed 1

Each run starts fresh child processes (child.py): the set-up stage,
several times, each timed from start to exit, and one measuring stage on
the inputs of a set-up made before it.  Times and rates are scaled by a
speed probe (speed.py) timed next to them.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; with ``--trace 0`` the metrics are the
end-to-end metrics of BENCHMARK.json and with ``--trace 1`` its per-layer
metrics.  ``--workload all`` runs the three workloads one after another and
prints one table.  The program exits non-zero without a result when the
run cannot complete, for example when the checkout has no ``src/docbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import workloads
from child import BLAS_THREAD_VARS
from speed import PROBE_REF_S, SpeedProbe

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".benchmark-out")
RUN_TIMEOUT_S = 170
SETUP_REPEATS = 4


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_child(stage, argv, result_path, deadline):
    """Run one stage of child.py in a fresh process and return its result."""
    if os.path.exists(result_path):
        os.remove(result_path)
    argv = [sys.executable, os.path.join(HERE, "child.py"), "--stage", stage,
            "--result", result_path] + argv
    # The child's own output (one line per CLI command) goes to stderr so
    # that standard output ends with the result line.  The deadline is kept
    # by a timer rather than by wait(timeout), which polls in steps of up to
    # 50 ms and so would round the set-up's wall time.
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=sys.stderr)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0:
        reason = "killed at the deadline" if code == -signal.SIGKILL else f"exit code {code}"
        raise RuntimeError(f"{stage} stage failed: {reason}")
    with open(result_path) as fh:
        return json.load(fh)


def run_workload(workload, seed, seconds, trace, size, probe, inject_failure=False):
    """Set up and measure one workload; return the measurement's result.

    The set-up stage runs in a fresh process each time, timed from start to
    exit, and each wall time is scaled by PROBE_REF_S over the mean of the
    speed probes timed just before and just after it.  Untraced, it runs at
    least SETUP_REPEATS times and for at least the size's setup_min_s
    seconds in all, half of that before the measurement, which reads the
    inputs of the last of those, and half after it, so that the samples
    span the run; setup_s is the median of the scaled times.
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    os.makedirs(OUT, exist_ok=True)
    name = f"{workload}-seed{seed}-trace{trace}"
    work = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    common = ["--workload", workload, "--seed", str(seed), "--trace", str(trace),
              "--size", size]
    setup_path = os.path.join(OUT, f"setup-{name}.json")
    min_s = workloads.SIZES[size]["setup_min_s"]
    setups, raw_setups, attempted = [], [], []

    def set_up(repeats, total_s):
        """Run the set-up stage at least once, and untraced until there are
        ``repeats`` samples taking ``total_s`` seconds in all."""
        before = probe()
        while True:
            argv = common + ["--work", os.path.join(work, f"setup{len(setups)}")]
            start = time.perf_counter()
            setup = run_child("setup", argv, setup_path, deadline)
            wall = time.perf_counter() - start
            after = probe()
            raw_setups.append(wall)
            setups.append(wall * PROBE_REF_S / ((before + after) / 2))
            attempted.append(setup["attempted"])
            before = after
            if trace or (len(setups) >= repeats and sum(raw_setups) >= total_s):
                return

    try:
        set_up(SETUP_REPEATS // 2, min_s / 2)
        measure = common + ["--work", work, "--seconds", str(seconds),
                            "--setup-result", setup_path]
        if inject_failure:
            measure.append("--inject-failure")
        result_path = os.path.join(OUT, f"result-{name}.json")
        result = run_child("measure", measure, result_path, deadline)
        if not trace:
            set_up(SETUP_REPEATS, min_s)
            result["metrics"]["setup_s"] = statistics.median(setups)
        result["setups"] = setups
        result["raw_setups"] = raw_setups
        result["attempted"] += sum(attempted)
        with open(result_path, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
        return result
    finally:
        shutil.rmtree(work, ignore_errors=True)


def speed_probe():
    """A warmed-up SpeedProbe, with numpy loaded as child.py loads it."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    import numpy
    probe = SpeedProbe(numpy)
    probe()
    return probe


def result_line(result, spec):
    """The contract line: every metric of the traced or untraced set, with units."""
    wanted = spec["per_layer" if result["trace"] else "end_to_end"]
    got = result["metrics"]
    names = [m["name"] for m in wanted]
    if sorted(names) != sorted(got):
        raise RuntimeError(f"metric names {sorted(got)} != {sorted(names)}")
    return {"correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {m["name"]: {"value": got[m["name"]], "unit": m["unit"]}
                        for m in wanted}}


# What docs_per_s_k1 and docs_per_s_k2 are on each workload, by the names
# of the quantities they measure (README.md, "End-to-end metrics").
ALIASES = {"image-train": {"docs_per_s_k1": "train_sps_k1", "docs_per_s_k2": "train_sps_k2"},
           "text-train": {"docs_per_s_k1": "train_sps_k1", "docs_per_s_k2": "train_sps_k2"},
           "ensemble-eval": {"docs_per_s_k1": "eval_docs_per_s",
                             "docs_per_s_k2": "eval_docs_per_s (2nd sample)"}}


def describe(result, line):
    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    for name, m in line["metrics"].items():
        alias = ALIASES[result["workload"]].get(name) if not result["trace"] else None
        label = f"{name} = {alias}" if alias else name
        print(f"{result['workload']:14s} {label:44s} {m['value']:14.6g} {m['unit']}")
    if not result["trace"]:
        for k, value in result["raw_docs_per_s"].items():
            label = f"docs_per_s_{k} unscaled (raw)"
            print(f"{result['workload']:14s} {label:44s} {value:14.6g} docs/s")
        label = "setup_s unscaled (raw)"
        print(f"{result['workload']:14s} {label:44s} "
              f"{statistics.median(result['raw_setups']):14.6g} s")
    if result["final_loss"] is not None:
        print(f"{result['workload']:14s} {'final_loss (k=1)':44s} "
              f"{result['final_loss']:14.6g} nats")
    print(f"{result['workload']:14s} {'failed/attempted':44s} "
          f"{result['failed']}/{result['attempted']}")
    for failure in result["failures"]:
        print(f"failed: {' '.join(failure['argv'])}: {failure['error']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measured time per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="desk",
                        help="tiny is the self-test size")
    parser.add_argument("--inject-failure", action="store_true",
                        help="add one command that fails, to test failure counting")
    args = parser.parse_args(argv)
    # On SIGTERM, SystemExit unwinds through run_child, which kills and
    # reaps the child before this process exits.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        spec = load_spec()
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        probe = speed_probe()
        lines = {}
        for name in names:
            result = run_workload(name, args.seed, seconds, args.trace, args.size, probe,
                                  args.inject_failure)
            lines[name] = result_line(result, spec)
            describe(result, lines[name])
    except (OSError, ValueError, KeyError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(lines if args.workload == "all" else lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
