"""Quick self-test of the benchmark, at the smallest sizes that still train.

    python3 benchmark/selftest.py

For each workload it runs the benchmark untraced and traced and checks the
result line against BENCHMARK.json: the keys, the counts, every metric name
and unit, and that every value is a finite number (end-to-end values above
zero).  It checks that a run with one deliberately failing command counts
that command as failed, and that the benchmark exits non-zero without a
result in a directory holding only BENCHMARK.json and benchmark/.  It also
checks BENCHMARK.json against the limits of its format.  Exits 0 when every
check passes.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_spec(spec, expect):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60,
           "run_seconds is a whole number in 1..60")
    expect([w["name"] for w in spec["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json workloads match workloads.WORKLOADS")
    names = []
    for w in spec["workloads"]:
        expect(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"], f"workload {w['name']}: name and one-line why")
        names.append(w["name"])
    for m in spec["end_to_end"]:
        expect(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25, f"end-to-end {m['name']}: keys and bound")
    for m in spec["per_layer"]:
        expect(set(m) == {"name", "unit", "better"}, f"per-layer {m['name']}: keys")
    for m in spec["end_to_end"] + spec["per_layer"]:
        names.append(m["name"])
        expect(NAME.fullmatch(m["name"]) is not None, f"{m['name']}: name format")
        expect(UNIT.fullmatch(m["unit"]) is not None, f"{m['name']}: unit format")
        expect(m["better"] in ("higher", "lower"), f"{m['name']}: better")
    expect(len(names) == len(set(names)), "names are used once")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
           and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
           "setup_s is in seconds, lower is better, with the largest bound")


def run_benchmark(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join("benchmark", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last, proc.stderr


def check_line(line, wanted, positive, label, expect):
    expect(isinstance(line, dict) and set(line) == RESULT_KEYS, f"{label}: result keys")
    if not isinstance(line, dict) or set(line) != RESULT_KEYS:
        return
    expect(line["correct"] is True and line["failed"] == 0, f"{label}: correct, none failed")
    expect(isinstance(line["attempted"], int) and line["attempted"] >= 1,
           f"{label}: attempted is a whole number >= 1")
    got = line["metrics"]
    expect(sorted(got) == sorted(m["name"] for m in wanted), f"{label}: metric names")
    for m in wanted:
        entry = got.get(m["name"], {})
        value = entry.get("value")
        expect(entry.get("unit") == m["unit"], f"{label}: unit of {m['name']}")
        expect(isinstance(value, (int, float)) and math.isfinite(value)
               and (value > 0 if positive else value >= 0),
               f"{label}: value of {m['name']} is {value!r}")


def main():
    failures = []
    checks = 0

    def expect(condition, message):
        nonlocal checks
        checks += 1
        if not condition:
            print(f"FAIL  {message}", flush=True)
            failures.append(message)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    check_spec(spec, expect)

    tiny = ["--seed", "3", "--seconds", "1", "--size", "tiny"]
    for workload in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            label = f"{workload} trace {trace}"
            code, line, err = run_benchmark(["--workload", workload, "--trace", str(trace)] + tiny)
            expect(code == 0, f"{label}: exit code {code} {err.strip()[-300:] if code else ''}")
            check_line(line, wanted, trace == 0, label, expect)
        code, line, _ = run_benchmark(["--workload", workload, "--trace", "0",
                                       "--inject-failure"] + tiny)
        expect(code == 0 and line is not None and line["failed"] == 1
               and line["correct"] is False and line["attempted"] >= 2,
               f"{workload}: one injected failing command counted as failed")

    out = os.path.join(ROOT, ".benchmark-out")
    os.makedirs(out, exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=out)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "benchmark"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, line, _ = run_benchmark(["--workload", WORKLOADS[0], "--trace", "0"] + tiny,
                                      cwd=bare)
        expect(code != 0 and line is None,
               "without src/docbench: non-zero exit and no result line")
    finally:
        shutil.rmtree(bare)

    print(f"{len(failures)} of {checks} checks failed" if failures
          else f"all {checks} checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
