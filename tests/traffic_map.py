"""Which statements of ``src/docbench`` the desk commands never run.

Run by hand; pytest does not collect it:

    PYTHONPATH=src python3 tests/traffic_map.py

In this one process and under ``sys.settrace`` it runs the desk pipeline
that ``tests/test_desk_outputs.py`` pins, the benchmark's pretrain and
train-text commands at ``--workers 1`` and ``2`` (each with
``--batch-per-worker``, as ``benchmark/workloads.py`` builds them) and a
one-step bench-scaling.  Then it prints, as ``file:line: source``, each
statement of the package, other than a ``raise``, that none of them ran.
Forked workers write the lines they ran to a scratch directory as they exit,
so their statements count too.  A statement listed here has some caller
outside the desk commands (a test, another config, another platform), or
none and is a candidate to cut.
"""

import ast
import contextlib
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.join(os.path.dirname(HERE), "src", "docbench")


def commands(root):
    """argv of each command to trace, in order, with outputs under ``root``."""
    import test_desk_outputs
    import workloads
    runs = [argv for _, argv in test_desk_outputs._commands(root)]
    for name in ("image-train", "text-train"):
        workload, work = workloads.Workload(name, "desk", 3), os.path.join(root, name)
        runs += [command.argv for command in workload.setup(work)]
        runs += [workload.phase(work, k).argv for k in (1, 2)]
    runs.append(["bench-scaling", "--data", os.path.join(root, "data"), "--seed", "3",
                 "--out", os.path.join(root, "bench"), "--set", "bench.steps=1",
                 "--set", "bench.warmup=0"])
    return runs


def statements(path):
    """Line of each statement in the file that compiles to code, but a raise."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    coded, codes = set(), [compile(tree, path, "exec")]
    while codes:
        code = codes.pop()
        coded.update(line for _, _, line in code.co_lines() if line)
        codes += [c for c in code.co_consts if hasattr(c, "co_lines")]
    return {node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.stmt) and not isinstance(node, ast.Raise)
            and node.lineno in coded}


def main():
    ran = set()

    def lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return lines

    def calls(frame, event, arg):
        return lines if frame.f_code.co_filename.startswith(PACKAGE) else None

    with tempfile.TemporaryDirectory() as root:
        spill, real_exit = os.path.join(root, "ran"), os._exit
        os.makedirs(spill)

        def exit_after_spilling(status):  # a forked worker ends with os._exit
            with open(os.path.join(spill, f"{os.getpid()}.json"), "w") as fh:
                json.dump(sorted(ran), fh)
            real_exit(status)

        os._exit = exit_after_spilling
        sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "benchmark")]
        sys.settrace(calls)
        try:
            from docbench import cli
            for argv in commands(root):
                with contextlib.redirect_stdout(None):
                    code = cli.main(argv)
                if code != 0:
                    raise SystemExit(f"failed: docbench {' '.join(argv)}")
        finally:
            sys.settrace(None)
            os._exit = real_exit
        for name in os.listdir(spill):
            with open(os.path.join(spill, name)) as fh:
                ran.update(tuple(hit) for hit in json.load(fh))

    unrun = 0
    for name in sorted(os.listdir(PACKAGE)):
        path = os.path.join(PACKAGE, name)
        if not name.endswith(".py"):
            continue
        with open(path) as fh:
            source = fh.read().splitlines()
        for line in sorted(statements(path)):
            if (path, line) not in ran:
                unrun += 1
                print(f"src/docbench/{name}:{line}: {source[line - 1].strip()}")
    print(f"{unrun} statements unrun")


if __name__ == "__main__":
    main()
