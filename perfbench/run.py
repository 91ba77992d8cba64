"""End-to-end and per-layer benchmark of every ngroupoid CLI verb.

    python3 perfbench/run.py --workload cube12 --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Inputs are generated from ``--seed`` by ``gen.py`` in plain numpy.

``--trace 0`` is a closed loop with one client: each invocation of the
workload's list runs as ``python3 -m ngroupoid ...`` in a fresh subprocess,
one at a time, timed from spawn to exit, until ``--seconds`` have passed
(at least one full pass).  The gated times are scaled by a fixed reference
task run between invocations, so that the host's drifting speed cancels;
the raw wall times are reported beside them.  ``--trace 1`` runs the same
list in this process through ``ngroupoid.cli.main``, each invocation once
untraced and once with the layer wrappers of ``tracing.py`` installed.  Every output is checked
against the harness's own reference; the last line of standard output is
one JSON object with the gated metrics named in ``BENCHMARK.json``.  A full
run record goes to ``.perfbench_out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

IMPORT_SAMPLES = 9
INVOCATION_TIMEOUT_S = 120.0
# The shared host's speed drifts by tens of percent within minutes and slows
# every process alike, so absolute wall times of one commit spread past any
# useful bound between runs.  This task of the harness's own (interpreter and
# numpy start-up, small-matrix work in a Python loop, JSON; no ngroupoid) runs
# in a fresh subprocess before every invocation and once after the last.  Each
# gated sample is divided by the mean of the HOST_WINDOW reference runs before
# it and the HOST_WINDOW after it (a single reference run is too noisy; the
# drift is slower than a few invocations), then multiplied by REFERENCE_S, the
# task's fastest wall time on the 2-core x86 VM the bounds were set on, so the
# figures read as seconds on that VM at its fastest.
REFERENCE_CODE = """
import json
import numpy as np
m = np.random.default_rng(0).standard_normal((12000, 3, 3))
acc = 0.0
for a in m:
    acc += float(np.linalg.inv(a @ a.T + np.eye(3))[0, 0])
acc += len(json.loads(json.dumps(m.tolist())))
print(repr(acc))
"""
REFERENCE_S = 0.33
HOST_WINDOW = 3
ALL_VERBS = {"generate", "check", "compose", "uniformity", "check_mixture", "input_error"}

# per-layer metric -> (unit, verbs that reach it, end-to-end metric it should move and where)
LAYERS = {
    "cli.import_s": ("s", ALL_VERBS, "setup_s, all workloads"),
    "cli.self_s": ("s", ALL_VERBS, "every <verb>_s: argument parsing and printing"),
    "skeleton.load_skeleton_s": ("s", {"check", "compose", "check_mixture"},
                                 "check_s and compose_s on cube12; check_mixture_s on mixture24"),
    "skeleton.from_dict_s": ("s", {"check", "compose", "check_mixture"},
                             "check_s and compose_s on cube12; check_mixture_s on mixture24"),
    "skeleton.dump_skeleton_s": ("s", {"generate", "compose"}, "generate_s and compose_s on cube12"),
    "skeleton.bytes_written": ("bytes", {"generate", "compose"}, "generate_s and compose_s on cube12"),
    "skeleton.compose_s": ("s", {"compose"}, "compose_s on cube12"),
    "skeleton.validate_against_s": ("s", {"check_mixture"}, "check_mixture_s on mixture24"),
    "analysis.is_conservative_s": ("s", {"check", "check_mixture"},
                                   "check_s on cube12; check_mixture_s on mixture24"),
    "analysis.squares_tested": ("count", {"check", "check_mixture"},
                                "check_s on cube12; check_mixture_s on mixture24"),
    "analysis.us_per_square": ("us", {"check", "check_mixture"},
                               "check_s on cube12; check_mixture_s on mixture24"),
    "analysis.conservative_oracle_s": ("s", {"check", "check_mixture"},
                                       "check_s on cube12; check_mixture_s on mixture24"),
    "analysis.cotree_edges": ("count", {"check", "check_mixture"},
                              "check_s on cube12; check_mixture_s on mixture24"),
    "analysis.random_conservative_s": ("s", {"generate"}, "generate_s on cube12"),
    "analysis.perturb_edge_s": ("s", {"generate"}, "generate_s on cube12"),
    "analysis.report_write_s": ("s", {"check", "uniformity"},
                                "check_s on cube12; uniformity_s on mixture24"),
    "analysis.is_uniform_s": ("s", {"uniformity"}, "uniformity_s on mixture24"),
    "analysis.core_arrows_s": ("s", {"uniformity"}, "uniformity_s on mixture24"),
    "analysis.core_arrows_calls": ("count", {"uniformity"}, "uniformity_s on mixture24"),
    "analysis.core_pairs_per_call": ("ratio", {"uniformity"}, "uniformity_s on mixture24"),
    "mixture.load_mixture_s": ("s", {"uniformity", "check_mixture"},
                               "uniformity_s and check_mixture_s on mixture24"),
    "groupoid.symmetry_group_s": ("s", {"uniformity", "check_mixture"},
                                  "uniformity_s and check_mixture_s on mixture24"),
    "groupoid.arrow_set_s": ("s", {"uniformity", "check_mixture"},
                             "uniformity_s and check_mixture_s on mixture24"),
    "groupoid.arrow_set_calls": ("count", {"uniformity", "check_mixture"},
                                 "uniformity_s and check_mixture_s on mixture24"),
    "groupoid.arrow_set_repeat_frac": ("ratio", {"uniformity", "check_mixture"},
                                       "uniformity_s and check_mixture_s on mixture24"),
    "matrices.check_invertible_calls": ("count", ALL_VERBS,
                                        "check_s, generate_s, compose_s and peak_rss_mb on cube12"),
    "matrices.rel_distance_calls": ("count", ALL_VERBS - {"generate"},
                                    "uniformity_s and check_mixture_s on mixture24"),
    "hypercube.enumeration_s": ("s", ALL_VERBS - {"uniformity"},
                                "check_s on cube12; check_mixture_s on mixture24"),
    "trace.untraced_pass_s": ("s", ALL_VERBS, "in-process time of one pass, wrappers off"),
    "trace.traced_pass_s": ("s", ALL_VERBS, "in-process time of one pass, wrappers on"),
    "trace.overhead_frac": ("ratio", ALL_VERBS, "tracing overhead: traced / untraced - 1"),
}


class Judge:
    """Counts attempted and failed invocations; checks the first good sample of
    each invocation in full and every later one byte for byte against it."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.digests: dict[str, dict[str, str]] = {}
        self.errors: list[str] = []

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)

    def judge(self, inv: workloads.Invocation, code, out: str) -> None:
        self.attempted += 1
        try:
            workloads.expect(code == inv.code, f"exit code {code}, expected {inv.code}")
            digest = {"stdout": hashlib.sha256(out.encode("utf-8")).hexdigest()}
            digest.update({p.name: gen.sha256(p) for p in inv.outputs})
            ref = self.digests.get(inv.label)
            if ref is None:
                inv.check(out)
                self.digests[inv.label] = digest
            else:
                workloads.expect(digest == ref, "output bytes differ from the first sample's")
        except Exception as exc:  # any malformed output is a failed invocation, not a crash
            self.fail(f"{inv.label}: {type(exc).__name__}: {exc}")


def closed_loop(invocations, seconds: float, step) -> None:
    """Run the list in order, again and again, for `seconds`; at least one full pass.

    After the first pass a step starts only if its previous duration still fits
    in the time left, so no run overshoots `seconds` by a long invocation.
    """
    start = time.perf_counter()
    last = [0.0] * len(invocations)
    for k in itertools.count():
        i = k % len(invocations)
        began = time.perf_counter()
        if k >= len(invocations) and began - start + last[i] > seconds:
            return
        step(invocations[i], k)
        last[i] = time.perf_counter() - began


def median(xs):
    return statistics.median(xs) if xs else 0.0


def tail(xs):
    """The highest percentile with at least 10 samples beyond it, or None."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if len(xs) * (100.0 - p) / 100.0 >= 10:
            return {"percentile": p, "value": float(np.percentile(xs, p))}
    return None


# -- end to end ---------------------------------------------------------------------

def spawn(cmd, env, work: Path):
    """Run `cmd`; wall seconds from spawn to exit, exit code, stdout, ru_maxrss (KiB)."""
    out_path = work / "stdout.txt"
    with open(out_path, "wb") as out, open(work / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=work)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            # wait without reaping, so the timer can never signal a recycled pid
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
            elapsed = time.perf_counter() - start
        except BaseException:
            proc.kill()
            raise
        finally:
            timer.cancel()
            timer.join()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, out_path.read_text(encoding="utf-8"), usage.ru_maxrss


def run_e2e(wl: workloads.Workload, seconds: float, env, work: Path, judge: Judge):
    times: dict[str, list[float]] = defaultdict(list)
    steps: list[tuple[str, float, float]] = []  # (label, set-up wall, invocation wall) in run order
    refs: list[float] = []  # reference wall before each step, and one after the last step
    peak = [0]

    def reference():
        elapsed, code, _, _ = spawn([sys.executable, "-c", REFERENCE_CODE], env, work)
        if code != 0:
            raise gen.HarnessError(f"reference task exited with {code}")
        refs.append(elapsed)

    def run(inv):
        for p in inv.outputs:
            p.unlink(missing_ok=True)
        elapsed, code, out, maxrss = spawn([sys.executable, "-m", "ngroupoid", *inv.argv], env, work)
        judge.judge(inv, code, out)
        times[inv.label].append(elapsed)
        peak[0] = max(peak[0], maxrss)
        return elapsed

    def step(inv, _k):
        reference()
        # one set-up sample before every invocation spreads them over the whole run
        steps.append((inv.label, run(setup), run(inv)))

    setup = workloads.setup_invocation()
    closed_loop(wl.invocations, seconds, step)
    reference()

    rel: dict[str, list[float]] = defaultdict(list)
    for k, (label, setup_wall, wall) in enumerate(steps):
        # refs[k] ran just before step k and refs[k + 1] just after it
        host = statistics.fmean(refs[max(0, k + 1 - HOST_WINDOW):k + 1 + HOST_WINDOW])
        rel["setup"].append(setup_wall / host)
        rel[label].append(wall / host)
    runs = min(len(times[i.label]) for i in wl.invocations)
    metrics = {
        "setup_s": (REFERENCE_S * median(rel["setup"]), "s", len(steps)),
        "pass_s": (REFERENCE_S * sum(median(rel[i.label]) for i in wl.invocations), "s", runs),
        "setup_wall_s": (median(times["setup"]), "s", len(steps)),
        "pass_wall_s": (sum(median(times[i.label]) for i in wl.invocations), "s", runs),
        "reference_s": (median(refs), "s", len(refs)),
        "peak_rss_mb": (peak[0] / 1024.0, "MB", sum(map(len, times.values()))),
        "failed_frac": (judge.failed / judge.attempted, "ratio", judge.attempted),
    }
    verbs = defaultdict(list)
    for inv in wl.invocations:
        verbs[inv.verb].extend(times[inv.label])
    for verb, xs in verbs.items():
        metrics[f"{verb}_s"] = (median(xs), "s", len(xs))
    detail = {
        "tails": {name: tail(xs) for name, xs in
                  [("setup_wall_s", times["setup"])] + [(f"{v}_s", xs) for v, xs in verbs.items()]},
        "samples_s": dict(times),
        "reference_samples_s": refs,
    }
    return metrics, detail


# -- traced -------------------------------------------------------------------------

def call_in_process(cli, argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        try:
            code = cli.main(list(argv))
        except Exception as exc:  # an escaped exception fails the invocation's exit-code check
            code = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
    return elapsed, code, out.getvalue()


def import_seconds(env, work: Path, judge: Judge) -> float | None:
    code = ("import time; t = time.perf_counter(); import ngroupoid.cli; "
            "print(repr(time.perf_counter() - t))")
    judge.attempted += 1
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=work,
                          capture_output=True, text=True, timeout=INVOCATION_TIMEOUT_S)
    try:
        return float(proc.stdout)
    except ValueError:
        judge.fail(f"import ngroupoid.cli: exit {proc.returncode}: {proc.stderr[-200:]}")
        return None


def run_traced(wl: workloads.Workload, seconds: float, root: Path, env, work: Path, judge: Judge):
    imports = [t for t in (import_seconds(env, work, judge) for _ in range(IMPORT_SAMPLES)) if t]
    sys.path.insert(0, str(root / "src"))
    cli = importlib.import_module("ngroupoid.cli")
    if not Path(cli.__file__).resolve().is_relative_to(root / "src"):
        raise gen.HarnessError(f"imported {cli.__file__}, not the checkout's package")
    tracer = Tracer()
    samples: dict[str, list[dict]] = defaultdict(list)

    def step(inv, k):
        row = {}
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            for p in inv.outputs:
                p.unlink(missing_ok=True)
            if traced:
                tracer.begin()
                tracer.install()
            try:
                elapsed, code, out = call_in_process(cli, inv.argv)
            finally:
                tracer.uninstall()
            judge.judge(inv, code, out)
            if traced:
                row.update(tracer.request_metrics())
                row["trace.traced_pass_s"] = elapsed
            else:
                row["trace.untraced_pass_s"] = elapsed
        samples[inv.label].append(row)

    closed_loop(wl.invocations, seconds, step)

    names = {name for rows in samples.values() for row in rows for name in row}
    per_pass = {name: sum(median([row.get(name, 0.0) for row in rows]) for rows in samples.values())
                for name in names}
    get = lambda name: per_pass.get(name, 0.0)  # noqa: E731
    n_rows = min(len(rows) for rows in samples.values())
    metrics = {name: (get(name), unit, n_rows) for name, (unit, _, _) in LAYERS.items()}
    metrics["cli.import_s"] = (median(imports), "s", len(imports))
    squares, calls, arrow_calls = get("analysis.squares_tested"), get("analysis.core_arrows_calls"), \
        get("groupoid.arrow_set_calls")
    metrics["analysis.us_per_square"] = (
        get("analysis.is_conservative_s") / squares * 1e6 if squares else 0.0, "us", n_rows)
    metrics["analysis.core_pairs_per_call"] = (
        get("analysis.core_pairs") / calls if calls else 0.0, "ratio", n_rows)
    metrics["groupoid.arrow_set_repeat_frac"] = (
        get("groupoid.arrow_set_repeats") / arrow_calls if arrow_calls else 0.0, "ratio", n_rows)
    metrics["trace.overhead_frac"] = (
        get("trace.traced_pass_s") / get("trace.untraced_pass_s") - 1.0, "ratio", n_rows)

    verbs_here = {inv.verb for inv in wl.invocations}
    zero = {}
    for name, (value, _, _) in metrics.items():
        if value == 0:
            verbs = LAYERS[name][1]
            zero[name] = (f"no {' / '.join(sorted(verbs))} invocation in this workload"
                          if not verbs & verbs_here else "no traced call reached this layer")
    detail = {
        "zero_reasons": zero,
        "missing_targets": tracer.missing,
        "spans": len(tracer.spans),
        "per_verb": {
            inv.label: {"untraced_s": median([r["trace.untraced_pass_s"] for r in samples[inv.label]]),
                        "traced_s": median([r["trace.traced_pass_s"] for r in samples[inv.label]])}
            for inv in wl.invocations},
    }
    return metrics, detail, tracer.spans


# -- run record ------------------------------------------------------------------------

def machine(root: Path) -> dict:
    info = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": None,
        "git_dirty": None,
    }
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu_model"] = line.split(":", 1)[1].strip()
                break
    if (root / ".git").exists():
        git = lambda *a: subprocess.run(["git", "-C", str(root), *a], capture_output=True,  # noqa: E731
                                        text=True, timeout=30).stdout.strip()
        info["git_sha"] = git("rev-parse", "HEAD") or None
        info["git_dirty"] = bool(git("status", "--porcelain"))
    return info


def main(argv=None) -> int:
    root = HERE.parent
    spec = json.loads((root / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(why))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (root / "src" / "ngroupoid" / "__init__.py").is_file():
        print(f"error: no package source at {root / 'src' / 'ngroupoid'}", file=sys.stderr)
        return 2
    out_dir = root / ".perfbench_out"
    work = out_dir / f"work-{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    judge = Judge()
    try:
        wl = workloads.WORKLOADS[args.workload](np.random.default_rng(args.seed), work)
        inputs = {name: gen.sha256(p) for name, p in wl.inputs.items()}
        if args.trace:
            metrics, detail, spans = run_traced(wl, args.seconds, root, env, work, judge)
            gated = [m["name"] for m in spec["per_layer"]]
        else:
            metrics, detail = run_e2e(wl, args.seconds, env, work, judge)
            spans = None
            gated = [m["name"] for m in spec["end_to_end"]]
    except gen.HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "why": why[args.workload], "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "machine": machine(root),
        "correct": judge.failed == 0, "attempted": judge.attempted, "failed": judge.failed,
        "errors": judge.errors,
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        "layer_map": {k: moves for k, (_, _, moves) in LAYERS.items()},
        "invocations": [{"label": i.label, "verb": i.verb, "expected_exit": i.code,
                         "argv": [a.replace(f"{work}/", "") for a in i.argv],
                         "sha256": judge.digests.get(i.label)} for i in wl.invocations],
        "inputs_sha256": inputs,
        **detail,
    }
    (out_dir / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        (out_dir / f"{tag}-spans.json").write_text(json.dumps(
            {"columns": ["id", "parent", "run", "name", "start", "end"], "spans": spans}))

    zero, tails = detail.get("zero_reasons", {}), detail.get("tails", {})
    for name, (value, unit, n) in sorted(metrics.items()):
        note = f"  ({zero[name]})" if name in zero else ""
        if (t := tails.get(name)) is not None:
            note = f"  p{t['percentile']:g} {t['value']:.6g}"
        print(f"{name:34s} {value:14.6g} {unit:6s} n={n}{note}")
    for label, t in detail.get("per_verb", {}).items():
        print(f"{label:34s} untraced {t['untraced_s']:.6g} s  traced {t['traced_s']:.6g} s")
    for err in judge.errors:
        print(f"FAILED {err}")
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in gated},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
