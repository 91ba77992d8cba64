"""Paths, conservativity, core arrows, and uniformity verdicts.

Two independent conservativity checkers are provided: the face check
(every 2-face must commute) and a potential check (reconstruct a vertex
potential along a spanning tree and test the remaining edges).  Both decide
the same property: all circuit weights are the identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Sequence

import numpy as np

from .errors import DEFAULT_TOL, PathError, UnknownBasePointError, check_tolerance
from .matrices import (
    IDENTITY,
    close_to_any,
    identity_deviations,
    inv,
    random_invertible,
    rel_distances,
)

if TYPE_CHECKING:  # annotations only: the skeleton checks load no mixture code, uniformity no cube
    from .groupoid import Label
    from .hypercube import Edge, HypercubeSkeleton
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
        w = T.weight((min(a, b), axis))
        total = (w if b > a else inv(w)) @ total
    return total


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
                    "holonomy": w.holonomy.reshape(9).tolist(),
                    "deviation": w.deviation,
                }
                for w in self.witnesses
            ],
        }


def _face_check(T: ObjectiveSkeleton, part: slice, tol: float) -> tuple[list[FaceWitness], float]:
    """The face check of the squares in ``part``: witnesses, and the largest deviation but NaN."""
    corner, lo, hi, edges = (a[part] for a in T.skel.squares)
    left = T.W[edges[:, 1]] @ T.W[edges[:, 0]]
    right = T.W[edges[:, 3]] @ T.W[edges[:, 2]]
    holonomy = left @ inv(right)
    dev = identity_deviations(holonomy)
    witnesses = [
        FaceWitness(int(corner[k]), (int(lo[k]), int(hi[k])), holonomy[k].copy(), float(dev[k]))
        for k in np.flatnonzero(~(rel_distances(left, right) <= tol)).tolist()
    ]
    return witnesses, float(np.max(dev, initial=0.0, where=~np.isnan(dev)))


def is_conservative(T: ObjectiveSkeleton,
                    tol: float = DEFAULT_TOL) -> ConservativityReport:
    """Face check: commutativity of all 2-faces, with failing witnesses.

    Each square is checked on its own, so a large check runs in two halves,
    the second in a forked child, and gives the bits of one batch.
    """
    from .lean import in_halves  # uniformity loads this module, but no forking code
    tol = check_tolerance(tol)
    parts = in_halves(lambda part: _face_check(T, part, tol), len(T.skel.squares[0]))
    witnesses = [w for ws, _ in parts for w in ws]
    max_dev = max(dev for _, dev in parts)
    return ConservativityReport(not witnesses, witnesses, max_dev)


def _potential(T: ObjectiveSkeleton) -> np.ndarray:
    # Along the breadth-first spanning tree: v hangs off v minus its highest
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
    tails, heads = T.skel.edge_arrays[0], T.skel.edge_heads
    cotree = tails >= heads ^ tails  # tree edges end at a vertex whose highest bit is theirs
    predicted = phi[heads[cotree]] @ inv(phi)[tails[cotree]]
    return bool((rel_distances(T.W[cotree], predicted) <= tol).all())


# -- generators ---------------------------------------------------------------

def skeleton_from_potential(n: int, phi: Sequence[np.ndarray],
                            vertices: Sequence[Label]) -> ObjectiveSkeleton:
    """Skeleton with edge weights phi[head] @ inv(phi[tail]); conservative."""
    from .hypercube import HypercubeSkeleton
    from .skeleton import ObjectiveSkeleton
    skel = HypercubeSkeleton(n)
    phi = np.asarray(phi, dtype=float)
    W = phi[skel.edge_heads] @ inv(phi)[skel.edge_arrays[0]]
    return ObjectiveSkeleton(n, vertices, W)


def random_conservative(n: int, seed=None) -> ObjectiveSkeleton:
    """Random conservative skeleton on labels 0 .. 2**n - 1: potential differences as weights.

    Potential entries are uniform in [-1, 1], resampled until |det| > 0.1.
    Deterministic per seed (PCG64 behind numpy's default_rng); ``seed`` may
    also be an already-running Generator.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    phi = random_invertible(np.random.default_rng(seed), 1 << n)
    return skeleton_from_potential(n, phi, range(1 << n))


def perturb_edge(T: ObjectiveSkeleton, seed=None
                 ) -> tuple[ObjectiveSkeleton, Edge]:
    """Left-multiply one uniformly chosen edge weight by diag(2, 1, 1).

    For n >= 2 this breaks commutativity of exactly the faces incident to
    the chosen edge.
    """
    from .hypercube import Edge
    from .skeleton import ObjectiveSkeleton
    k = int(np.random.default_rng(seed).integers(T.skel.num_edges))
    W = T.W.copy()
    W[k] = PERTURBATION @ W[k]
    tails, axes = T.skel.edge_arrays
    return ObjectiveSkeleton(T.n, T.vertices, W), Edge(int(tails[k]), int(axes[k]))


def _window(n: int, grid: np.ndarray,
            offsets: dict[int, int]) -> tuple[list[np.ndarray], list[str]]:
    """Potential and labels of one grid cell, shifted by per-axis offsets."""
    coords = [
        tuple(((v >> (n - a)) & 1) + offsets.get(a, 0) for a in range(1, n + 1))
        for v in range(1 << n)
    ]
    return [grid[c] for c in coords], ["p" + "_".join(map(str, c)) for c in coords]


def _grid_potential(n: int, spans: dict[int, int], seed) -> np.ndarray:
    # spans[axis] = number of stacked cells along that axis (default 1)
    shape = [spans.get(a, 1) + 1 for a in range(1, n + 1)]
    cells = random_invertible(np.random.default_rng(seed), int(np.prod(shape)))
    return cells.reshape(*shape, 3, 3)


def random_composable_chain(n: int, axis: int, count: int, seed=None
                            ) -> list[ObjectiveSkeleton]:
    """Skeletons sharing facets along one axis; composable in list order.

    All weights come from a single potential grid, so every member is
    conservative and consecutive facets match bit-for-bit:
    compose(chain[k+1], chain[k], axis) is always defined.
    """
    phi = _grid_potential(n, {axis: count}, seed)
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
    phi = _grid_potential(n, {axis_i: 2, axis_j: 2}, seed)
    place = lambda a, b: skeleton_from_potential(n, *_window(n, phi, {axis_i: a, axis_j: b}))
    return place(1, 1), place(0, 1), place(1, 0), place(0, 0)


def theorem_sweep(n: int, trials: int, seed=None, tol: float = DEFAULT_TOL
                  ) -> dict:
    """Run both checkers over random conservative and perturbed skeletons.

    Returns agreement counts per population and the maximum face deviation
    observed on the conservative instances.
    """
    rng = np.random.default_rng(seed)
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
    """Uniform iff the core connects the reference point x0 to every point.

    The core is a groupoid, so its nonempty arrow sets split the fully
    implanted points (those with an implant in every constituent) into
    orbits.  They are found by a sweep: each fully implanted point not yet
    in an orbit, in base order, is a seed, and every such unassigned point
    y, the seed included, with a nonempty ``core_arrows(mix, seed, y)``
    joins the seed's orbit.  That takes at most P core tests per orbit,
    and P in all for a uniform mixture.  The first seed is x0
    whenever x0 is fully implanted, so the verdict is the x0 row of core
    tests, exactly as a test of every pair would give it.  Every ordered
    pair that does not lie inside one orbit is reported, in x-major base
    order, as a misalignment defect.
    """
    points = mix.base_points
    x0 = points[0]
    full = [p for p in points if all(p in c.implants for c in mix.constituents)]
    orbit: dict[Label, Label] = {}
    for seed in full:
        if seed in orbit:
            continue
        for y in full:
            if y not in orbit and core_arrows(mix, seed, y):
                orbit[y] = seed
    verdict = all(orbit.get(y) == x0 for y in points)
    defects = [
        (x, y) for x in points for y in points
        if x not in orbit or orbit[x] != orbit.get(y)
    ]
    transitivity = {c.name: all(p in c.implants for p in points) for c in mix.constituents}
    return UniformityReport(verdict, x0, defects, transitivity)
