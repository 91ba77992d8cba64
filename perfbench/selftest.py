"""Fast self-test of the benchmark harness at n = 2..4 and P = 4.

    python3 perfbench/selftest.py

Builds the cube and mixture inputs at small sizes (each workload function already
requires its conservative, perturbed and misaligned inputs to get the
constructed verdicts from the numpy oracle), runs every invocation through
``ngroupoid.cli.main`` in this process, and requires the package to agree
with the harness.  Each check must also reject its output with one extra
line appended.  Exit code 0 means the harness and the package agree.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np

import run
import workloads


def cases(work, rng):
    for n in (2, 3, 4):
        for name, build in (("cube", workloads.cube12), ("mixture", workloads.mixture24)):
            sub = work / f"{name}{n}"
            sub.mkdir()
            extra = {"n": n} if name == "cube" else {"n": n, "points": 4}
            for inv in build(rng, sub, **extra).invocations:
                inv.label = f"{name}{n}:{inv.label}"
                yield inv


def main() -> int:
    root = run.HERE.parent
    sys.path.insert(0, str(root / "src"))
    from ngroupoid import cli

    work = root / ".perfbench_out" / f"selftest-{os.getpid()}"
    work.mkdir(parents=True)
    judge = run.Judge()
    try:
        for inv in cases(work, np.random.default_rng(0)):
            _, code, out = run.call_in_process(cli, inv.argv)
            judge.judge(inv, code, out)
            try:
                inv.check(out + "extra\n")
            except workloads.Mismatch:
                continue
            judge.fail(f"{inv.label}: check accepted an extra output line")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for err in judge.errors:
        print(f"FAILED {err}")
    print(f"selftest: {judge.attempted - judge.failed}/{judge.attempted} invocations agree")
    return 0 if judge.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
