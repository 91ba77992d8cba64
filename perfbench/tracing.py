"""In-process tracing of the package's layers, installed from the benchmark's side.

Wrappers replace public functions at every module attribute that binds them
(and methods on their class), so the package's own code runs unchanged.
Each wrapped call records a span ``[id, parent, run, name, start, end]``; hot
functions get a counter instead.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import math
import sys
import time
from collections import Counter, defaultdict

# span name -> per-layer metric it feeds (self time, seconds)
SPAN_METRICS = {
    "cli.main": "cli.self_s",
    "cli.cmd_skeleton": "cli.self_s",
    "cli.cmd_check": "cli.self_s",
    "cli.cmd_uniformity": "cli.self_s",
    "cli.cmd_generate": "cli.self_s",
    "cli.cmd_compose": "cli.self_s",
    "cli._write_json": "analysis.report_write_s",
    "analysis.ConservativityReport.to_dict": "analysis.report_write_s",
    "analysis.UniformityReport.to_dict": "analysis.report_write_s",
    "skeleton.load_skeleton": "skeleton.load_skeleton_s",
    "skeleton.skeleton_from_dict": "skeleton.from_dict_s",
    "skeleton.dump_skeleton": "skeleton.dump_skeleton_s",
    "skeleton.compose": "skeleton.compose_s",
    "skeleton.ObjectiveSkeleton.validate_against": "skeleton.validate_against_s",
    "analysis.is_conservative": "analysis.is_conservative_s",
    "analysis.conservative_oracle": "analysis.conservative_oracle_s",
    "analysis.random_conservative": "analysis.random_conservative_s",
    "analysis.perturb_edge": "analysis.perturb_edge_s",
    "analysis.is_uniform": "analysis.is_uniform_s",
    "analysis.core_arrows": "analysis.core_arrows_s",
    "mixture.load_mixture": "mixture.load_mixture_s",
    "groupoid.SymmetryGroup.__init__": "groupoid.symmetry_group_s",
    "groupoid.ConstituentGroupoid.arrow_set": "groupoid.arrow_set_s",
    "hypercube.HypercubeSkeleton.edges": "hypercube.enumeration_s",
    "hypercube.HypercubeSkeleton.two_faces": "hypercube.enumeration_s",
    "hypercube.HypercubeSkeleton.spanning_tree": "hypercube.enumeration_s",
    "hypercube.HypercubeSkeleton.cotree_edges": "hypercube.enumeration_s",
}

# hot functions: call counters only, no spans
COUNTED = {
    "matrices.check_invertible": "matrices.check_invertible_calls",
    "matrices.rel_distance": "matrices.rel_distance_calls",
}


def _squares(n: int) -> int:
    return math.comb(n, 2) << (n - 2) if n >= 2 else 0


def _cotree(n: int) -> int:
    return (n << (n - 1)) - (1 << n) + 1


class Tracer:
    """Span stack and counters for one benchmark run; ``begin`` starts a request."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run = 0
        self.missing: list[str] = []
        self._stack: list[list] = []
        self._first = 0
        self._seen: set = set()
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------------

    def _span(self, name, fn, hook=None):
        spans, stack, now = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [len(spans), stack[-1][0] if stack else -1, self.run, name, now(), 0.0]
            spans.append(rec)
            stack.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = now()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _hooks(self):
        c = self.counts

        def arrow_set(args, _result):
            c["groupoid.arrow_set_calls"] += 1
            key = (id(args[0]), args[1], args[2])
            if key in self._seen:
                c["groupoid.arrow_set_repeats"] += 1
            self._seen.add(key)

        return {
            "analysis.is_conservative":
                lambda a, r: c.update({"analysis.squares_tested": _squares(a[0].n)}),
            "analysis.conservative_oracle":
                lambda a, r: c.update({"analysis.cotree_edges": _cotree(a[0].n)}),
            "analysis.is_uniform":
                lambda a, r: c.update({"analysis.core_pairs": len(a[0].base_points) ** 2}),
            "analysis.core_arrows":
                lambda a, r: c.update({"analysis.core_arrows_calls": 1}),
            "groupoid.ConstituentGroupoid.arrow_set": arrow_set,
            "skeleton.dump_skeleton":
                lambda a, r: c.update({"skeleton.bytes_written": len(r.encode("utf-8"))}),
        }

    # -- install -----------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target; a target the package no longer has is listed in ``missing``."""
        hooks = self._hooks()
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "ngroupoid" or k.startswith("ngroupoid."))]
        targets = [(t, self._span, t) for t in SPAN_METRICS] + \
                  [(t, self._counter, COUNTED[t]) for t in COUNTED]
        self.missing = []
        for target, make, name in targets:
            mod, *path = target.split(".")
            try:
                owner = importlib.import_module(f"ngroupoid.{mod}")
                for attr in path[:-1]:
                    owner = getattr(owner, attr)
                original = getattr(owner, path[-1])
            except (ImportError, AttributeError):
                self.missing.append(target)
                continue
            wrapped = make(name, original, hooks[target]) if target in hooks else make(name, original)
            if len(path) > 1:  # a method: patch the class
                self._patch(owner, path[-1], wrapped)
                continue
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, attr, wrapped)

    def _patch(self, obj, attr, value) -> None:
        self._patches.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- per request ---------------------------------------------------------------

    def begin(self) -> None:
        self.run += 1
        self._first = len(self.spans)
        self._seen.clear()
        self.counts.clear()

    def request_metrics(self) -> dict[str, float]:
        """Self time per layer metric and counters for the current request."""
        spans = self.spans[self._first:]
        child = defaultdict(float)
        for s in spans:
            child[s[1]] += s[5] - s[4]
        out: dict[str, float] = defaultdict(float)
        for s in spans:
            out[SPAN_METRICS[s[3]]] += (s[5] - s[4]) - child[s[0]]
        out.update(self.counts)
        return dict(out)
