"""Seeded benchmark inputs and the numpy reference oracle that judges outputs.

Plain numpy only: nothing here imports ``ngroupoid``, so the program under
test never produces its own inputs and two commits receive identical bytes
for one seed.  File layouts follow the skeleton and mixture formats in the
README: vertex v of the n-cube has the bit for axis I at the I-th most
significant of its n bits, edges are listed by (tail, axis), and weights are
9 numbers, row-major.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

TOL = 1e-9
PERTURBATION = np.diag([2.0, 1.0, 1.0])
SQRT3 = math.sqrt(3.0)


class HarnessError(Exception):
    """The generator or oracle contradicts itself: a bug in the benchmark."""


# -- cube combinatorics ----------------------------------------------------------

def axis_bit(n: int, axis: int) -> int:
    return 1 << (n - axis)


def edge_arrays(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Tails and 1-based axes of every oriented edge, sorted by (tail, axis)."""
    tails = np.repeat(np.arange(1 << n), n)
    axes = np.tile(np.arange(1, n + 1), 1 << n)
    keep = (tails >> (n - axes)) & 1 == 0
    return tails[keep], axes[keep]


def popcount(v: np.ndarray) -> np.ndarray:
    return np.array([bin(int(x)).count("1") for x in v])


@dataclass
class Skel:
    """A weighted n-cube skeleton: labels per vertex, one 3x3 weight per edge."""

    n: int
    labels: list
    weights: np.ndarray  # (E, 3, 3) in (tail, axis) order

    def __post_init__(self):
        self.tails, self.axes = edge_arrays(self.n)
        self.heads = self.tails | (1 << (self.n - self.axes))
        index = np.full((1 << self.n, self.n + 1), -1)
        index[self.tails, self.axes] = np.arange(len(self.tails))
        self.index = index

    def edge(self, tail, axis):
        return self.index[tail, axis]

    def doc(self) -> dict:
        flat = self.weights.reshape(-1, 9).tolist()
        return {
            "n": self.n,
            "vertices": list(self.labels),
            "edges": [
                {"tail": int(t), "axis": int(a), "weight": w}
                for t, a, w in zip(self.tails, self.axes, flat)
            ],
        }


def potential_skeleton(n: int, labels: list, phi: np.ndarray) -> Skel:
    """Weights phi[head] @ inv(phi[tail]): conservative by construction."""
    tails, axes = edge_arrays(n)
    heads = tails | (1 << (n - axes))
    return Skel(n, labels, phi[heads] @ np.linalg.inv(phi[tails]))


def perturbed(T: Skel, edge: int) -> Skel:
    w = T.weights.copy()
    w[edge] = PERTURBATION @ w[edge]
    return Skel(T.n, list(T.labels), w)


def faces_of_edge(n: int, tail: int, axis: int) -> set[tuple[int, tuple[int, int]]]:
    """(corner, axes) of the n-1 squares whose boundary holds the edge."""
    out = set()
    for other in range(1, n + 1):
        if other != axis:
            out.add((tail & ~axis_bit(n, other), tuple(sorted((axis, other)))))
    return out


# -- matrices ----------------------------------------------------------------------

def well_conditioned(rng: np.random.Generator, count: int) -> np.ndarray:
    """Rotation times a diagonal scale in [e^-0.5, e^0.5]: condition number <= e.

    Well-conditioned weights keep every verdict far from the tolerance, so a
    seed can never land a face on the tolerance edge.
    """
    q, r = np.linalg.qr(rng.standard_normal((count, 3, 3)))
    q = q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]
    scale = np.exp(rng.uniform(-0.5, 0.5, size=(count, 3)))
    return q * scale[:, None, :]


def rel_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Batched Frobenius distance scaled by the larger operand norm."""
    scale = np.maximum(np.linalg.norm(a, axis=(-2, -1)), np.linalg.norm(b, axis=(-2, -1)))
    return np.linalg.norm(a - b, axis=(-2, -1)) / scale


def cube_rotations() -> np.ndarray:
    """The 24 signed permutation matrices with determinant +1, identity first."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            m[range(3), perm] = signs
            if round(np.linalg.det(m)) == 1:
                out.append(m)
    return np.array(out)


def rotation_z(degrees: float) -> np.ndarray:
    t = math.radians(degrees)
    return np.array([[math.cos(t), -math.sin(t), 0.0],
                     [math.sin(t), math.cos(t), 0.0],
                     [0.0, 0.0, 1.0]])


# -- reference oracle ----------------------------------------------------------------

def face_check(T: Skel, tol: float = TOL):
    """Batched face check: failing (corner, axes) -> holonomy deviation, and max deviation."""
    failing: dict[tuple[int, tuple[int, int]], float] = {}
    max_dev = 0.0
    verts = np.arange(1 << T.n)
    for i, j in itertools.combinations(range(1, T.n + 1), 2):
        bi, bj = axis_bit(T.n, i), axis_bit(T.n, j)
        c = verts[(verts & (bi | bj)) == 0]
        W = T.weights
        left = W[T.edge(c | bi, j)] @ W[T.edge(c, i)]
        right = W[T.edge(c | bj, i)] @ W[T.edge(c, j)]
        dev = np.linalg.norm(left @ np.linalg.inv(right) - np.eye(3), axis=(1, 2)) / SQRT3
        max_dev = max(max_dev, float(dev.max()))
        for k in np.flatnonzero(rel_distance(left, right) > tol):
            failing[(int(c[k]), (i, j))] = float(dev[k])
    return failing, max_dev


def arrow_sets(G: np.ndarray, K: np.ndarray) -> np.ndarray:
    """All arrows K[y] @ g @ inv(K[x]) as an array indexed [x, y, g]."""
    kinv = np.linalg.inv(K)
    return np.einsum("yab,gbc,xcd->xygad", K, G, kinv)


def core_sizes(G: np.ndarray, implants: np.ndarray, tol: float = TOL) -> np.ndarray:
    """Core arrow count per ordered point pair, for implants indexed [constituent, point]."""
    base = arrow_sets(G, implants[0])
    keep = np.ones(base.shape[:3], dtype=bool)
    for K in implants[1:]:
        other = arrow_sets(G, K)
        d = rel_distance(base[:, :, :, None], other[:, :, None, :])
        keep &= (d <= tol).any(axis=-1)
    return keep.sum(axis=-1)


def arrows_admitted(T: Skel, G: np.ndarray, implants: np.ndarray, point_of: np.ndarray,
                    tol: float = TOL) -> np.ndarray:
    """Per edge: is the weight an arrow of the constituent of its axis?"""
    c = T.axes - 1
    X, Y = point_of[T.tails], point_of[T.heads]
    cands = implants[c, Y][:, None] @ G[None] @ np.linalg.inv(implants[c, X])[:, None]
    return (rel_distance(T.weights[:, None], cands) <= tol).any(axis=1)


# -- files -----------------------------------------------------------------------------

def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def write_json(path: Path, doc: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc))


def read_skeleton(path: Path) -> Skel:
    """Parse a skeleton file, requiring every edge once in (tail, axis) order."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    n = doc["n"]
    tails, axes = edge_arrays(n)
    edges = doc["edges"]
    got_t = np.array([e["tail"] for e in edges])
    got_a = np.array([e["axis"] for e in edges])
    if len(doc["vertices"]) != 1 << n or got_t.shape != tails.shape \
            or (got_t != tails).any() or (got_a != axes).any():
        raise ValueError(f"{path.name}: vertices or edge list do not cover the {n}-cube in order")
    weights = np.array([e["weight"] for e in edges], dtype=float).reshape(-1, 3, 3)
    return Skel(n, doc["vertices"], weights)


# -- inputs ---------------------------------------------------------------------------

def grid_pair(n: int, rng: np.random.Generator) -> tuple[Skel, Skel]:
    """Two conservative n-skeletons from one potential grid, 3 cells deep on axis 1.

    The first covers axis-1 coordinates {0, 1}, the second {1, 2}, so the first's
    target facet along axis 1 is the second's source facet, labels and weights alike.
    """
    low = 1 << (n - 1)
    phi = well_conditioned(rng, 3 * low)  # index = x1 * low + remaining bits

    def window(offset: int) -> Skel:
        v = np.arange(1 << n)
        grid = ((v >> (n - 1)) + offset) * low + (v & (low - 1))
        labels = [f"g{int(g) // low}.{int(g) % low:x}" for g in grid]
        return potential_skeleton(n, labels, phi[grid])

    return window(0), window(1)


@dataclass
class MixtureInputs:
    group: np.ndarray
    points: list[str]
    implants: np.ndarray  # [constituent, point]
    names: list[str]

    def doc(self) -> dict:
        sym = [g.tolist() for g in self.group]
        return {
            "n": len(self.names),
            "base_points": list(self.points),
            "tolerance": TOL,
            "constituents": [
                {
                    "name": name,
                    "symmetry": sym,
                    "implants": {p: k.reshape(9).tolist() for p, k in zip(self.points, Ks)},
                }
                for name, Ks in zip(self.names, self.implants)
            ],
        }


def aligned_mixture(n_constituents: int, n_points: int, rng: np.random.Generator,
                    prefix: str = "x") -> tuple[MixtureInputs, np.ndarray]:
    """Implants K(X) @ h_c(X) with h_c(X) in the group: every core set is the whole coset.

    Returns the mixture and the shared K, indexed by point.
    """
    G = cube_rotations()
    K = well_conditioned(rng, n_points)
    h = G[rng.integers(len(G), size=(n_constituents, n_points))]
    width = len(str(n_points - 1))
    points = [f"{prefix}{i:0{width}d}" for i in range(n_points)]
    names = [f"c{i + 1}" for i in range(n_constituents)]
    return MixtureInputs(G, points, K[None] @ h, names), K


def misaligned(mix: MixtureInputs, rng: np.random.Generator):
    """Right-multiply the last constituent's implants at half the points by a 30 degree z-rotation.

    The rotation is outside the group, so the core is empty exactly between
    a rotated and an unrotated point; every constituent stays transitive.
    The core test meets the last constituent only after matching the others,
    so fixing which one is rotated keeps the work the same for every seed.
    Returns the new mixture and its defect pairs.
    """
    P = len(mix.points)
    which = len(mix.names) - 1
    rotated = np.zeros(P, dtype=bool)
    rotated[rng.choice(P, P // 2, replace=False)] = True
    implants = mix.implants.copy()
    implants[which, rotated] = implants[which, rotated] @ rotation_z(30.0)
    defects = {
        (mix.points[x], mix.points[y])
        for x in range(P) for y in range(P) if rotated[x] != rotated[y]
    }
    return MixtureInputs(mix.group, mix.points, implants, mix.names), defects


def mixture_skeleton(n: int, rng: np.random.Generator) -> tuple[MixtureInputs, Skel, np.ndarray]:
    """n constituents and an n-skeleton over n+1 points, vertex v at point popcount(v).

    Edge weights are K(Y) g_Y inv(g_X) inv(K(X)): the potential K(X) g_X makes
    the skeleton conservative, and g_Y inv(g_X) in the group makes every weight
    an arrow of every constituent.  Also returns the point index of each vertex.
    """
    mix, K = aligned_mixture(n, n + 1, rng, prefix="k")
    g = mix.group[rng.integers(len(mix.group), size=n + 1)]
    point_of = popcount(np.arange(1 << n))
    labels = [mix.points[k] for k in point_of]
    return mix, potential_skeleton(n, labels, (K @ g)[point_of]), point_of
