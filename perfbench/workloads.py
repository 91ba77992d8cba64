"""The two workloads: seeded inputs, CLI invocations, and the expected outcome of each.

Every invocation names the exit code it must return and a check that reads
its standard output and output files and raises ``Mismatch`` on any
difference from what the reference oracle in ``gen`` predicts.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import gen

CONSERVATIVE_TEXT = (
    "face check: conservative\n"
    "potential check: conservative\n"
    "checkers agree: conservative\n"
)
WITNESS = re.compile(r"witness face corner=(\d+) axes=\((\d+),(\d+)\) deviation=(\S+)$")
# Package-generated potentials are not conditioned by the harness, so their
# conservative faces are only checked to sit far inside a perturbed face's deviation.
GENERATED_TOL = 1e-6


class Mismatch(Exception):
    """An output differs from the reference."""


def expect(cond: bool, msg: str) -> None:
    if not cond:
        raise Mismatch(msg)


@dataclass
class Invocation:
    verb: str                 # end-to-end timing group, reported as <verb>_s
    label: str                # unique within the workload
    argv: list[str]           # arguments after `python3 -m ngroupoid`
    code: int                 # expected exit code
    check: Callable[[str], None]
    outputs: tuple[Path, ...] = ()


@dataclass
class Workload:
    invocations: list[Invocation]
    inputs: dict[str, Path] = field(default_factory=dict)


def skeleton_text(n: int) -> str:
    """What `skeleton --n N` prints, from the README's conventions."""
    verts, nedges = 1 << n, n << (n - 1)
    lines = [f"vertices: {verts}, edges: {nedges}"
             + (f", 2-faces: {math.comb(n, 2) << (n - 2)}" if n >= 2 else "")]
    lines.append("h-face counts: " + ", ".join(
        f"h={h}: {math.comb(n, h) << (n - h)}" for h in range(n)))
    if n <= 6:
        for axis in range(1, n + 1):
            bit = gen.axis_bit(n, axis)
            f0 = ",".join(str(v) for v in range(verts) if not v & bit)
            f1 = ",".join(str(v) for v in range(verts) if v & bit)
            lines.append(f"facet pair axis {axis}: {{{f0}}} / {{{f1}}}")
    else:
        lines.append(f"facet pairs: {2 * n} facets, 2 per axis")
    return "\n".join(lines) + "\n"


def setup_invocation() -> Invocation:
    text = skeleton_text(1)
    return Invocation("setup", "setup", ["skeleton", "--n", "1"], 0,
                      lambda out: expect(out == text, "skeleton --n 1 text differs"))


def _load(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_skeleton(work: Path, name: str, T: gen.Skel, inputs: dict) -> Path:
    path = work / name
    gen.write_json(path, T.doc())
    inputs[name] = path
    return path


# -- cube12 ---------------------------------------------------------------------------

def _check_generated(path: Path, n: int):
    def check(out: str) -> None:
        expect(out == "", "generate --out printed to stdout")
        T = gen.read_skeleton(path)
        expect(T.n == n and T.labels == list(range(1 << n)), "generated labels differ")
        failing, _ = gen.face_check(T, GENERATED_TOL)
        expect(not failing, f"generated skeleton has {len(failing)} non-commuting faces")
    return check


def _check_generated_perturbed(path: Path, conservative: Path, n: int):
    def check(out: str) -> None:
        expect(out == "", "generate --out printed to stdout")
        T, base = gen.read_skeleton(path), gen.read_skeleton(conservative)
        expect(T.labels == base.labels, "perturbed labels differ from the conservative file")
        changed = np.flatnonzero((T.weights != base.weights).any(axis=(1, 2)))
        expect(len(changed) == 1, f"{len(changed)} edges differ from the same-seed conservative file")
        e = int(changed[0])
        expect(gen.rel_distance(T.weights[e], gen.PERTURBATION @ base.weights[e]) <= gen.TOL,
               "perturbed edge is not diag(2,1,1) times the conservative weight")
        failing, _ = gen.face_check(T, GENERATED_TOL)
        expect(set(failing) == gen.faces_of_edge(n, int(T.tails[e]), int(T.axes[e])),
               f"perturbed skeleton breaks {len(failing)} faces, expected the {n - 1} at its edge")
    return check


def _check_conservative(report: Path):
    def check(out: str) -> None:
        expect(out == CONSERVATIVE_TEXT, "check text differs on a conservative skeleton")
        doc = _load(report)
        expect(doc["verdict"] is True and doc["witnesses"] == [] and doc["potential_check"] is True,
               "check report differs on a conservative skeleton")
    return check


def _check_perturbed(report: Path, witnesses: dict, n: int):
    def check(out: str) -> None:
        lines = out.splitlines()
        expect(len(lines) == n + 2, f"check printed {len(lines)} lines, expected {n + 2}")
        expect(lines[0] == f"face check: not conservative ({n - 1} witness faces)",
               f"first line differs: {lines[0]!r}")
        seen = {}
        for line in lines[1:n]:
            m = WITNESS.match(line)
            expect(m is not None, f"bad witness line {line!r}")
            seen[(int(m[1]), (int(m[2]), int(m[3])))] = float(m[4])
        expect(set(seen) == set(witnesses), "witness faces differ from the perturbed edge's faces")
        for key, dev in seen.items():
            expect(abs(dev - witnesses[key]) <= 1e-2 * witnesses[key],
                   f"witness {key} deviation {dev} differs from {witnesses[key]:.6e}")
        expect(lines[n:] == ["potential check: not conservative",
                             "checkers agree: not conservative"], "verdict lines differ")
        doc = _load(report)
        expect(doc["verdict"] is False and doc["potential_check"] is False,
               "check report verdicts differ on a perturbed skeleton")
        expect({(w["corner"], tuple(w["axes"])) for w in doc["witnesses"]} == set(witnesses)
               and len(doc["witnesses"]) == n - 1, "check report witnesses differ")
    return check


def _check_composed(path: Path, A: gen.Skel, B: gen.Skel, axis: int):
    def check(out: str) -> None:
        expect(out == "", "compose --out printed to stdout")
        T = gen.read_skeleton(path)
        bit = gen.axis_bit(A.n, axis)
        labels = [B.labels[v] if v & bit else A.labels[v] for v in range(1 << A.n)]
        expect(T.n == A.n and T.labels == labels, "composed labels differ")
        glued = A.axes == axis
        far = (A.tails & bit) != 0
        want = np.where(far[:, None, None], B.weights, A.weights)
        want[glued] = B.weights[glued] @ A.weights[glued]
        worst = float(gen.rel_distance(T.weights, want).max())
        expect(worst <= gen.TOL, f"composed weights differ from numpy products by {worst:.3e}")
    return check


def cube12(rng: np.random.Generator, work: Path, n: int = 12) -> Workload:
    inputs: dict[str, Path] = {}
    A, B = gen.grid_pair(n, rng)
    e = int(rng.integers(len(A.tails)))
    P = gen.perturbed(A, e)
    witnesses, _ = gen.face_check(P)
    if set(witnesses) != gen.faces_of_edge(n, int(A.tails[e]), int(A.axes[e])) \
            or gen.face_check(A)[0] or gen.face_check(B)[0]:
        raise gen.HarnessError("cube12 inputs do not have the constructed verdicts")
    a = _write_skeleton(work, "first.json", A, inputs)
    b = _write_skeleton(work, "second.json", B, inputs)
    p = _write_skeleton(work, "perturbed.json", P, inputs)
    seed = str(int(rng.integers(2**31)))
    gc, gp = work / "gen-conservative.json", work / "gen-perturbed.json"
    rc, rp, comp = work / "report-conservative.json", work / "report-perturbed.json", work / "composed.json"
    return Workload([
        Invocation("generate", "generate-conservative",
                   ["generate", "--n", str(n), "--seed", seed, "--out", str(gc)], 0,
                   _check_generated(gc, n), (gc,)),
        Invocation("generate", "generate-perturbed",
                   ["generate", "--n", str(n), "--mode", "perturbed", "--seed", seed, "--out", str(gp)], 0,
                   _check_generated_perturbed(gp, gc, n), (gp,)),
        Invocation("check", "check-conservative", ["check", str(a), "--out", str(rc)], 0,
                   _check_conservative(rc), (rc,)),
        Invocation("check", "check-perturbed", ["check", str(p), "--out", str(rp)], 1,
                   _check_perturbed(rp, witnesses, n), (rp,)),
        Invocation("compose", "compose-axis1",
                   ["compose", str(a), str(b), "--axis", "1", "--out", str(comp)], 0,
                   _check_composed(comp, A, B, 1), (comp,)),
    ], inputs)


# -- mixture24 ------------------------------------------------------------------------

def _check_uniformity(report: Path, mix: gen.MixtureInputs, defects: set):
    uniform = not defects

    def check(out: str) -> None:
        lines = out.splitlines()
        head = [f"constituent {c}: transitive" for c in mix.names]
        expect(lines[:len(head)] == head, "constituent lines differ")
        rest = lines[len(head):]
        if uniform:
            expect(rest == ["core: transitive", "defect pairs: none", "verdict: uniform"],
                   "uniform mixture verdict lines differ")
        else:
            expect(len(rest) == 4 and rest[0] == "core: not transitive"
                   and rest[1].startswith("defect pairs: ")
                   and rest[2] == "note: all constituents individually uniform"
                   and rest[3] == "verdict: not uniform", "misaligned mixture verdict lines differ")
            printed = [tuple(t.split("->")) for t in rest[1][len("defect pairs: "):].split(" ")]
            expect(len(printed) == len(defects) and set(printed) == defects,
                   "printed defect pairs differ from the constructed set")
        doc = _load(report)
        expect(doc["verdict"] is uniform and doc["reference_point"] == mix.points[0]
               and doc["constituent_transitivity"] == {c: True for c in mix.names},
               "uniformity report differs")
        got = [(d["source"], d["target"]) for d in doc["defect_pairs"]]
        expect(len(got) == len(defects) and set(got) == defects, "report defect pairs differ")
    return check


def mixture24(rng: np.random.Generator, work: Path, points: int = 20, n: int = 8) -> Workload:
    inputs: dict[str, Path] = {}
    aligned, _ = gen.aligned_mixture(3, points, rng)
    shifted, defects = gen.misaligned(aligned, rng)
    mix, T, point_of = gen.mixture_skeleton(n, rng)
    if (gen.core_sizes(aligned.group, aligned.implants) != len(aligned.group)).any():
        raise gen.HarnessError("aligned mixture has a core set smaller than the group")
    empty = np.argwhere(gen.core_sizes(shifted.group, shifted.implants) == 0)
    if {(shifted.points[x], shifted.points[y]) for x, y in empty} != defects:
        raise gen.HarnessError("misaligned mixture defects differ from the constructed set")
    if gen.face_check(T)[0] or not gen.arrows_admitted(T, mix.group, mix.implants, point_of).all():
        raise gen.HarnessError("mixture skeleton is not conservative and admitted")
    # dropping one non-identity rotation leaves a list that is not closed under product
    unclosed = gen.MixtureInputs(np.delete(aligned.group, 1 + int(rng.integers(len(aligned.group) - 1)), 0),
                                 aligned.points, aligned.implants, aligned.names)
    paths = {}
    for name, doc in (("aligned.json", aligned.doc()), ("misaligned.json", shifted.doc()),
                      ("mixture8.json", mix.doc()), ("unclosed.json", unclosed.doc())):
        paths[name] = inputs[name] = work / name
        gen.write_json(paths[name], doc)
    skel = _write_skeleton(work, "skeleton8.json", T, inputs)
    ua, um = work / "uniformity-aligned.json", work / "uniformity-misaligned.json"
    return Workload([
        Invocation("uniformity", "uniformity-aligned",
                   ["uniformity", str(paths["aligned.json"]), "--out", str(ua)], 0,
                   _check_uniformity(ua, aligned, set()), (ua,)),
        Invocation("uniformity", "uniformity-misaligned",
                   ["uniformity", str(paths["misaligned.json"]), "--out", str(um)], 1,
                   _check_uniformity(um, shifted, defects), (um,)),
        Invocation("check_mixture", "check-mixture",
                   ["check", str(skel), "--mixture", str(paths["mixture8.json"])], 0,
                   lambda out: expect(out == CONSERVATIVE_TEXT, "check --mixture text differs")),
        Invocation("input_error", "uniformity-unclosed-group",
                   ["uniformity", str(paths["unclosed.json"])], 2,
                   lambda out: expect(out == "", "a rejected mixture printed to stdout")),
    ], inputs)


WORKLOADS = {"cube12": cube12, "mixture24": mixture24}
