"""Paths, conservativity, core arrows, and uniformity verdicts.

Two independent conservativity checkers are provided: the face check
(every 2-face must commute) and a potential check (reconstruct a vertex
potential along a spanning tree and test the remaining edges).  Both decide
the same property: all circuit weights are the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
from typing import NamedTuple, Sequence

import numpy as np

from .errors import PathError, UnknownBasePointError
from .groupoid import Label
from .hypercube import Edge, HypercubeSkeleton
from .matrices import (
    DEFAULT_TOL,
    IDENTITY,
    check_tolerance,
    close_to_any,
    identity_deviations,
    random_invertible,
    rel_distances,
    to_row_major,
)
from .mixture import MixtureSpec
from .skeleton import ObjectiveSkeleton

PERTURBATION = np.diag([2.0, 1.0, 1.0])


# -- paths and circuits -------------------------------------------------------

def circuit_steps(skel: HypercubeSkeleton, cycle: Sequence[int]) -> list[int]:
    """Closed walk around a cycle given without its first vertex repeated."""
    return [*cycle, cycle[0]]


def path_weight(T: ObjectiveSkeleton, walk: Sequence[int]) -> np.ndarray:
    """Total weight of a walk given by its vertices: ordered product, later steps on the left.

    Consecutive vertices must be adjacent.  A step from the larger to the
    smaller vertex contributes the inverse weight.  A walk of fewer than two
    vertices has the identity weight.
    """
    total = IDENTITY.copy()
    for a, b in zip(walk, walk[1:]):
        axis = T.skel.adjacency_class(a, b)
        if axis is None:
            raise PathError(f"vertices {a} and {b} are not adjacent")
        w = T.weight(Edge(min(a, b), axis))
        total = (w if b > a else np.linalg.inv(w)) @ total
    return total


def random_circuit(skel: HypercubeSkeleton, rng: np.random.Generator) -> list[int]:
    """Random walk from vertex 0 until it first returns; vertices, closed."""
    seq = [0]
    v = 0
    for _ in range(200_000):
        v = int(rng.choice(skel.neighbors(v)))
        seq.append(v)
        if v == 0:
            return seq
    raise RuntimeError("random walk did not return within 200000 steps")


# -- conservativity -----------------------------------------------------------

class FaceWitness(NamedTuple):
    corner: int
    axes: tuple[int, int]
    holonomy: np.ndarray
    deviation: float


@dataclass
class ConservativityReport:
    verdict: bool
    witnesses: list[FaceWitness]
    max_deviation: float

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "max_deviation": self.max_deviation,
            "witnesses": [
                {
                    "corner": w.corner,
                    "axes": list(w.axes),
                    "holonomy": to_row_major(w.holonomy),
                    "deviation": w.deviation,
                }
                for w in self.witnesses
            ],
        }


def _square_paths(T: ObjectiveSkeleton, corners: np.ndarray, lo: int,
                  hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Both boundary paths of the squares at ``corners`` with free axes lo < hi."""
    idx, W = T.skel.edge_index, T.W
    b_lo, b_hi = T.skel.axis_bit(lo), T.skel.axis_bit(hi)
    left = W[idx[corners | b_lo, hi - 1]] @ W[idx[corners, lo - 1]]
    right = W[idx[corners | b_hi, lo - 1]] @ W[idx[corners, hi - 1]]
    return left, right


def is_conservative(T: ObjectiveSkeleton,
                    tol: float = DEFAULT_TOL) -> ConservativityReport:
    """Face check: commutativity of all 2-faces, with failing witnesses."""
    tol = check_tolerance(tol)
    witnesses = []
    max_dev = 0.0
    for lo, hi in combinations(range(1, T.n + 1), 2):
        corners = np.flatnonzero((T.skel.edge_index[:, [lo - 1, hi - 1]] >= 0).all(axis=1))
        left, right = _square_paths(T, corners, lo, hi)
        holonomy = left @ np.linalg.inv(right)
        dev = identity_deviations(holonomy)
        max_dev = max(max_dev, float(np.max(dev, initial=0.0, where=~np.isnan(dev))))
        for k in np.flatnonzero(~(rel_distances(left, right) <= tol)).tolist():
            witnesses.append(
                FaceWitness(int(corners[k]), (lo, hi), holonomy[k], float(dev[k]))
            )
    witnesses.sort(key=lambda w: (w.corner, w.axes))
    return ConservativityReport(not witnesses, witnesses, max_dev)


def _potential(T: ObjectiveSkeleton) -> np.ndarray:
    # Along HypercubeSkeleton.spanning_tree(): v hangs off v minus its highest
    # set bit j, so phi is filled in blocks [2**j, 2**(j+1)) by increasing j.
    phi = np.empty((T.skel.num_vertices, 3, 3))
    phi[0] = IDENTITY
    for j in range(T.n):
        lo = 1 << j
        phi[lo:2 * lo] = T.W[T.skel.edge_index[:lo, T.n - 1 - j]] @ phi[:lo]
    return phi


def conservative_oracle(T: ObjectiveSkeleton, tol: float = DEFAULT_TOL) -> bool:
    """Potential check: every non-tree edge must match the tree potential.

    Equivalent to all circuit weights being the identity.
    """
    tol = check_tolerance(tol)
    phi = _potential(T)
    tails, axes = T.skel.edge_arrays
    bits = 1 << (T.n - axes)
    cotree = tails >= bits  # tree edges end at a vertex whose highest bit is theirs
    predicted = phi[tails[cotree] | bits[cotree]] @ np.linalg.inv(phi)[tails[cotree]]
    return bool((rel_distances(T.W[cotree], predicted) <= tol).all())


# -- generators ---------------------------------------------------------------

def _as_rng(seed_or_rng) -> np.random.Generator:
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return np.random.default_rng(seed_or_rng)


def skeleton_from_potential(n: int, phi: Sequence[np.ndarray],
                            vertices: Sequence[Label] | None = None
                            ) -> ObjectiveSkeleton:
    """Skeleton with edge weights phi[head] @ inv(phi[tail]); conservative."""
    skel = HypercubeSkeleton(n)
    if vertices is None:
        vertices = range(skel.num_vertices)
    phi = np.asarray(phi, dtype=float)
    tails, axes = skel.edge_arrays
    W = phi[tails | (1 << (n - axes))] @ np.linalg.inv(phi)[tails]
    return ObjectiveSkeleton(n, vertices, W)


def random_conservative(n: int, seed=None,
                        vertices: Sequence[Label] | None = None
                        ) -> ObjectiveSkeleton:
    """Random conservative skeleton: potential differences as weights.

    Potential entries are uniform in [-1, 1], resampled until |det| > 0.1.
    Deterministic per seed (PCG64 behind numpy's default_rng); ``seed`` may
    also be an already-running Generator.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    rng = _as_rng(seed)
    phi = [random_invertible(rng) for _ in range(1 << n)]
    return skeleton_from_potential(n, phi, vertices)


def perturb_edge(T: ObjectiveSkeleton, seed=None
                 ) -> tuple[ObjectiveSkeleton, Edge]:
    """Left-multiply one uniformly chosen edge weight by diag(2, 1, 1).

    For n >= 2 this breaks commutativity of exactly the faces incident to
    the chosen edge.
    """
    rng = _as_rng(seed)
    k = int(rng.integers(T.skel.num_edges))
    W = T.W.copy()
    W[k] = PERTURBATION @ W[k]
    return ObjectiveSkeleton(T.n, T.vertices, W), T.skel.edges()[k]


def _window(n: int, grid: dict[tuple[int, ...], np.ndarray],
            offsets: dict[int, int]) -> tuple[list[np.ndarray], list[str]]:
    """Potential and labels of one grid cell, shifted by per-axis offsets."""
    coords = [
        tuple(((v >> (n - a)) & 1) + offsets.get(a, 0) for a in range(1, n + 1))
        for v in range(1 << n)
    ]
    return [grid[c] for c in coords], ["p" + "_".join(map(str, c)) for c in coords]


def _grid_potential(n: int, spans: dict[int, int],
                    rng: np.random.Generator) -> dict[tuple[int, ...], np.ndarray]:
    # spans[axis] = number of stacked cells along that axis (default 1)
    ranges = [range(spans.get(a, 1) + 1) for a in range(1, n + 1)]
    return {c: random_invertible(rng) for c in product(*ranges)}


def random_composable_chain(n: int, axis: int, count: int, seed=None
                            ) -> list[ObjectiveSkeleton]:
    """Skeletons sharing facets along one axis; composable in list order.

    All weights come from a single potential grid, so every member is
    conservative and consecutive facets match bit-for-bit:
    compose(chain[k+1], chain[k], axis) is always defined.
    """
    rng = _as_rng(seed)
    phi = _grid_potential(n, {axis: count}, rng)
    return [
        skeleton_from_potential(n, *_window(n, phi, {axis: k})) for k in range(count)
    ]


def random_interchange_quadruple(n: int, axis_i: int, axis_j: int, seed=None
                                 ) -> tuple[ObjectiveSkeleton, ObjectiveSkeleton,
                                            ObjectiveSkeleton, ObjectiveSkeleton]:
    """A 2x2 composable block (T, Tp, Tpp, Tppp) from one potential grid.

    Offsets along (axis_i, axis_j): T at (1,1), Tp at (0,1), Tpp at (1,0),
    Tppp at (0,0); both interchange evaluation orders are defined.
    """
    if axis_i == axis_j:
        raise ValueError("need two distinct axes")
    rng = _as_rng(seed)
    phi = _grid_potential(n, {axis_i: 2, axis_j: 2}, rng)
    place = lambda a, b: skeleton_from_potential(n, *_window(n, phi, {axis_i: a, axis_j: b}))
    return place(1, 1), place(0, 1), place(1, 0), place(0, 0)


def theorem_sweep(n: int, trials: int, seed=None, tol: float = DEFAULT_TOL
                  ) -> dict:
    """Run both checkers over random conservative and perturbed skeletons.

    Returns agreement counts per population and the maximum face deviation
    observed on the conservative instances.
    """
    rng = _as_rng(seed)
    agree = {"conservative": 0, "perturbed": 0}
    max_dev = 0.0
    for kind in ("conservative", "perturbed"):
        for _ in range(trials):
            T = random_conservative(n, rng)
            if kind == "perturbed":
                T, _e = perturb_edge(T, rng)
            report = is_conservative(T, tol)
            oracle = conservative_oracle(T, tol)
            if report.verdict == oracle:
                agree[kind] += 1
            if kind == "conservative" and report.verdict:
                max_dev = max(max_dev, report.max_deviation)
    return {
        "trials": trials,
        "agree_conservative": agree["conservative"],
        "agree_perturbed": agree["perturbed"],
        "max_deviation_conservative": max_dev,
    }


# -- core groupoid and uniformity ----------------------------------------------

@dataclass
class CoreArrowSet:
    source: Label
    target: Label
    arrows: list[np.ndarray]

    def __bool__(self):
        return bool(self.arrows)


def core_arrows(mix: MixtureSpec, X: Label, Y: Label) -> CoreArrowSet:
    """Matrices lying in every constituent's arrow set from X to Y.

    Computed by keeping those arrows of the smallest constituent arrow set
    that lie within the mixture tolerance of some arrow of every other.
    """
    for p in (X, Y):
        if p not in mix.base_points:
            raise UnknownBasePointError(f"point {p!r} not in the mixture base")
    sets = [c.arrow_set(X, Y) for c in mix.constituents]
    smallest = min(range(mix.n), key=lambda i: len(sets[i]))
    keep = np.ones(len(sets[smallest]), dtype=bool)
    for i, arrows in enumerate(sets):
        if i != smallest:
            keep &= close_to_any(sets[smallest], arrows, mix.tolerance)
    return CoreArrowSet(X, Y, list(sets[smallest][keep]))


@dataclass
class UniformityReport:
    verdict: bool
    reference_point: Label
    defect_pairs: list[tuple[Label, Label]]
    constituent_transitivity: dict[str, bool]

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "reference_point": self.reference_point,
            "constituent_transitivity": dict(self.constituent_transitivity),
            "defect_pairs": [
                {"source": s, "target": t} for s, t in self.defect_pairs
            ],
        }


def is_uniform(mix: MixtureSpec) -> UniformityReport:
    """Uniform iff the core connects a reference point to every point.

    Checking a single reference point suffices because core arrow sets are
    closed under composition and inverse.  Every ordered pair with an empty
    core is still reported, as a misalignment defect.
    """
    points = mix.base_points
    x0 = points[0]
    nonempty = {
        (x, y): bool(core_arrows(mix, x, y)) for x in points for y in points
    }
    verdict = all(nonempty[(x0, y)] for y in points)
    defects = [
        (x, y) for x in points for y in points if not nonempty[(x, y)]
    ]
    transitivity = {c.name: c.is_transitive() for c in mix.constituents}
    return UniformityReport(verdict, x0, defects, transitivity)
