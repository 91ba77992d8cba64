"""Objective n-skeletons: hypercube skeletons weighted with groupoid arrows.

An objective skeleton assigns one base point to each hypercube vertex and
one invertible arrow to each oriented edge; class-I edges carry arrows of
the I-th constituent.  Skeletons compose along each axis by gluing a target
facet to a matching source facet and multiplying the connecting weights.
"""

from __future__ import annotations

import json
from typing import Iterable

import numpy as np

from .errors import CompositionError, ConstructionHalted, FormatError, read_json
from .groupoid import Label
from .hypercube import Edge, HypercubeSkeleton, insert_axis, strip_axis
from .matrices import (
    DEFAULT_TOL,
    IDENTITY,
    check_invertible,
    check_tolerance,
    close_to_any,
    first_invalid,
    rel_distances,
)
from .mixture import MixtureSpec


class ObjectiveSkeleton:
    """A vertex tuple of base points plus one weight per skeleton edge.

    ``vertices[i]`` is the base point at hypercube vertex i (repetitions
    allowed).  ``W`` is a read-only float64 array of shape (E, 3, 3) whose
    k-th matrix weighs the k-th edge of ``skel.edges()``; every weight is
    finite and invertible.  The array passed in becomes read-only.
    Immutable: all operations return new skeletons.
    """

    def __init__(self, n: int, vertices: Iterable[Label], W: np.ndarray):
        skel = HypercubeSkeleton(n)
        vertices = tuple(vertices)
        W = np.asarray(W, dtype=float)
        if len(vertices) != skel.num_vertices:
            raise ValueError(f"vertex tuple has {len(vertices)} entries, "
                             f"expected {skel.num_vertices}")
        if W.shape != (skel.num_edges, 3, 3):
            raise ValueError(f"weight array has shape {W.shape}, "
                             f"expected ({skel.num_edges}, 3, 3)")
        bad = first_invalid(W)
        if bad:
            raise ValueError(f"edge {tuple(skel.edges()[bad[0]])}: weight {bad[1]}")
        W.flags.writeable = False
        self.skel, self.n, self.vertices, self.W = skel, skel.n, vertices, W

    def weight(self, edge: Edge) -> np.ndarray:
        edge = Edge(*edge)
        self.skel.check_edge(edge)
        return self.W[self.skel.edge_index[edge.tail, edge.axis - 1]]

    def __eq__(self, other) -> bool:
        """Bit-exact equality: same labels, same weight entries."""
        if not isinstance(other, ObjectiveSkeleton):
            return NotImplemented
        return (
            self.n == other.n
            and self.vertices == other.vertices
            and np.array_equal(self.W, other.W)
        )

    def close_to(self, other: "ObjectiveSkeleton", tol: float = DEFAULT_TOL) -> bool:
        tol = check_tolerance(tol)
        return (
            self.n == other.n
            and self.vertices == other.vertices
            and bool((rel_distances(self.W, other.W) <= tol).all())
        )

    def validate_against(self, mix: MixtureSpec) -> None:
        """Check every class-I arrow is a member of constituent I."""
        if self.n != mix.n:
            raise ValueError(
                f"skeleton dimension {self.n} != constituent count {mix.n}"
            )
        for p in self.vertices:
            if p not in mix.base_points:
                raise ValueError(f"vertex label {p!r} not in the mixture base")
        member = np.empty(self.skel.num_edges, dtype=bool)
        for (a, X, Y), rows in _arrow_groups(self.skel, self.vertices).items():
            arrows = mix.constituent(a).arrow_set(X, Y)
            member[rows] = close_to_any(self.W[rows], arrows, mix.tolerance)
        bad = np.flatnonzero(~member)
        if len(bad):
            e = self.skel.edges()[bad[0]]
            raise ValueError(
                f"edge {tuple(e)}: weight is not an arrow of "
                f"constituent {mix.constituent(e.axis).name!r}"
            )

    def __repr__(self):
        return f"ObjectiveSkeleton(n={self.n}, vertices={self.vertices!r})"


def _arrow_groups(skel: HypercubeSkeleton, vertices: tuple) -> dict[tuple, list[int]]:
    """Edge rows by (axis, tail label, head label), the key of their arrow set.

    Groups come in the order of their first edge.
    """
    tails, axes = skel.edge_arrays
    heads = tails | (1 << (skel.n - axes))
    groups: dict[tuple, list[int]] = {}
    for k, (a, t, h) in enumerate(zip(axes.tolist(), tails.tolist(), heads.tolist())):
        groups.setdefault((a, vertices[t], vertices[h]), []).append(k)
    return groups


def build(mix: MixtureSpec, vertices: Iterable[Label]) -> ObjectiveSkeleton:
    """Construct the objective skeleton over a vertex tuple of base points.

    Each edge carries the first arrow of its arrow set, the one from the
    first symmetry-group element.  Raises ConstructionHalted for the first
    edge with an empty arrow set: no skeleton exists over this tuple.
    """
    vertices = tuple(vertices)
    skel = HypercubeSkeleton(mix.n)
    W = np.empty((skel.num_edges, 3, 3))
    for (a, X, Y), rows in _arrow_groups(skel, vertices).items():
        arrows = mix.constituent(a).arrow_set(X, Y)
        if not len(arrows):
            raise ConstructionHalted(skel.edges()[rows[0]], a, X, Y)
        W[rows] = arrows[0]
    return ObjectiveSkeleton(mix.n, vertices, W)


def _facet(T: ObjectiveSkeleton, axis: int, bit: int) -> ObjectiveSkeleton:
    n = T.n
    T.skel.axis_bit(axis)  # validates the axis
    sub = HypercubeSkeleton(n - 1)
    big = insert_axis(n, np.arange(sub.num_vertices), axis, bit)
    tails, axes = sub.edge_arrays
    W = T.W[T.skel.edge_index[big[tails], axes - 1 + (axes >= axis)]]
    return ObjectiveSkeleton(n - 1, [T.vertices[v] for v in big.tolist()], W)


def assemble_from_facets(F0: ObjectiveSkeleton, F1: ObjectiveSkeleton, axis: int,
                         weights: np.ndarray) -> ObjectiveSkeleton:
    """The n-skeleton with axis-facets F0 and F1, joined by class-``axis`` edges.

    ``weights`` holds the class-``axis`` weights in ascending tail order.
    """
    if F0.n != F1.n:
        raise CompositionError(f"facet dimension mismatch: {F0.n} vs {F1.n}")
    n = F0.n + 1
    skel = HypercubeSkeleton(n)
    bit = skel.axis_bit(axis)
    sub = strip_axis(n, np.arange(skel.num_vertices), axis).tolist()
    vertices = [(F1 if v & bit else F0).vertices[w] for v, w in enumerate(sub)]
    tails, axes = skel.edge_arrays
    on, far = axes == axis, tails & bit != 0
    W = np.empty((skel.num_edges, 3, 3))
    W[on] = weights
    for F, sel in ((F0, ~on & ~far), (F1, ~on & far)):
        sub_axes = axes[sel] - (axes[sel] > axis)
        W[sel] = F.W[F.skel.edge_index[strip_axis(n, tails[sel], axis), sub_axes - 1]]
    return ObjectiveSkeleton(n, vertices, W)


def source_facet(T: ObjectiveSkeleton, axis: int) -> ObjectiveSkeleton:
    """Restriction to the facet where the axis coordinate is 0."""
    return _facet(T, axis, 0)


def target_facet(T: ObjectiveSkeleton, axis: int) -> ObjectiveSkeleton:
    """Restriction to the facet where the axis coordinate is 1."""
    return _facet(T, axis, 1)


def _axis_weights(T: ObjectiveSkeleton, axis: int) -> np.ndarray:
    return T.W[T.skel.edge_arrays[1] == axis]


def _check_glue(T: ObjectiveSkeleton, Tp: ObjectiveSkeleton, axis: int,
                tol: float) -> None:
    if T.n != Tp.n:
        raise CompositionError(f"dimension mismatch: {Tp.n} vs {T.n}")
    if not 1 <= axis <= T.n:
        raise CompositionError(f"axis must lie in 1..{T.n}, got {axis}")
    mid_out = target_facet(Tp, axis)
    mid_in = source_facet(T, axis)
    for w, (a, b) in enumerate(zip(mid_out.vertices, mid_in.vertices)):
        if a != b:
            raise CompositionError(
                f"facet vertex {w}: {a!r} != {b!r} (target facet of the first "
                f"factor must equal source facet of the second)"
            )
    d = rel_distances(mid_out.W, mid_in.W)
    bad = np.flatnonzero(d > tol)
    if len(bad):
        k = bad[0]
        raise CompositionError(
            f"facet edge {tuple(mid_out.skel.edges()[k])}: weights differ by "
            f"{d[k]:.3e} (tol {tol:.1e})"
        )


def compose(T: ObjectiveSkeleton, Tp: ObjectiveSkeleton, axis: int,
            tol: float = DEFAULT_TOL) -> ObjectiveSkeleton:
    """Glue Tp then T along an axis, multiplying the axis-class weights.

    Tp is traversed first: the result keeps Tp's source facet and T's
    target facet verbatim, and each class-``axis`` edge carries
    weight(T-edge) @ weight(Tp-edge) over the facet correspondence.  A glued
    weight that overflows or is singular raises ValueError naming its edge.
    """
    _check_glue(T, Tp, axis, check_tolerance(tol))
    with np.errstate(over="ignore"):  # an overflowing product fails the weight check
        weights = _axis_weights(T, axis) @ _axis_weights(Tp, axis)
    return assemble_from_facets(source_facet(Tp, axis), target_facet(T, axis), axis, weights)


def unit_skeleton(F: ObjectiveSkeleton, axis: int) -> ObjectiveSkeleton:
    """Degenerate skeleton with F on both axis-facets and unit axis edges."""
    return assemble_from_facets(F, F, axis, IDENTITY)


def inverse_axis(T: ObjectiveSkeleton, axis: int) -> ObjectiveSkeleton:
    """Swap the two axis-facets and invert every class-``axis`` weight."""
    return assemble_from_facets(target_facet(T, axis), source_facet(T, axis), axis,
                                np.linalg.inv(_axis_weights(T, axis)))


def interchange_check(T: ObjectiveSkeleton, Tp: ObjectiveSkeleton,
                      Tpp: ObjectiveSkeleton, Tppp: ObjectiveSkeleton,
                      axis_i: int, axis_j: int,
                      tol: float = DEFAULT_TOL) -> bool:
    """Compare the two evaluation orders of a composable 2x2 block.

    Tppp sits first along both axes, Tp above it along axis_j, Tpp beside
    it along axis_i, T in the far corner.  Raises CompositionError when
    either side is undefined.
    """
    if axis_i == axis_j:
        raise ValueError("interchange needs two distinct axes")
    side_rows = compose(
        compose(T, Tp, axis_i, tol), compose(Tpp, Tppp, axis_i, tol), axis_j, tol
    )
    side_cols = compose(
        compose(T, Tpp, axis_j, tol), compose(Tp, Tppp, axis_j, tol), axis_i, tol
    )
    return side_rows.close_to(side_cols, tol)


# -- file format ---------------------------------------------------------------

def skeleton_to_dict(T: ObjectiveSkeleton) -> dict:
    tails, axes = T.skel.edge_arrays
    return {
        "n": T.n,
        "vertices": list(T.vertices),
        "edges": [
            {"tail": tail, "axis": axis, "weight": weight}
            for tail, axis, weight in zip(
                tails.tolist(), axes.tolist(), T.W.reshape(-1, 9).tolist()
            )
        ],
    }


def skeleton_from_dict(doc: object) -> ObjectiveSkeleton:
    if not isinstance(doc, dict):
        raise FormatError("skeleton document must be an object")
    for key in ("n", "vertices", "edges"):
        if key not in doc:
            raise FormatError(f"skeleton: missing field {key!r}")
    n = doc["n"]
    if type(n) is not int or n < 1:
        raise FormatError(f"skeleton: 'n' must be a positive integer, got {n!r}")
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or len(vertices) != 2 ** n:
        raise FormatError(
            f"skeleton: 'vertices' must list exactly {2 ** n} labels"
        )
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise FormatError("skeleton: 'edges' must be a list")
    try:
        skel = HypercubeSkeleton(n)
    except ValueError as exc:
        raise FormatError(f"skeleton: {exc}") from exc
    index = skel.edge_index.tolist()
    record = [-1] * skel.num_edges  # edge position -> record index
    rows: list = []  # rows[idx] is the weight of edges[idx]

    def weights() -> np.ndarray:
        try:
            return check_invertible(rows, lambda i: f"edges[{i}]: weight")
        except ValueError as exc:
            raise FormatError(f"skeleton: {exc}") from exc

    try:
        for idx, rec in enumerate(edges):
            where = f"edges[{idx}]"
            if not isinstance(rec, dict):
                raise FormatError(f"skeleton: {where} must be an object")
            for key in ("tail", "axis", "weight"):
                if key not in rec:
                    raise FormatError(f"skeleton: {where} missing field {key!r}")
            e = Edge(rec["tail"], rec["axis"])
            try:
                skel.check_edge(e)
            except (ValueError, TypeError) as exc:
                raise FormatError(f"skeleton: {where}: {exc}") from exc
            k = index[e.tail][e.axis - 1]
            if record[k] >= 0:
                raise FormatError(f"skeleton: {where}: duplicate edge {tuple(e)}")
            record[k] = idx
            rows.append(rec["weight"])
    except FormatError:
        weights()  # a bad weight in an earlier record is reported first
        raise
    W = weights()
    if len(rows) != skel.num_edges:
        missing = [e for e, r in zip(skel.edges(), record) if r < 0]
        raise FormatError(f"skeleton: missing weights for edges {missing[:3]}...")
    return ObjectiveSkeleton(n, vertices, W[record])


def dump_skeleton(T: ObjectiveSkeleton) -> str:
    return json.dumps(skeleton_to_dict(T), indent=2) + "\n"


def save_skeleton(T: ObjectiveSkeleton, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_skeleton(T))


def load_skeleton(path: str) -> ObjectiveSkeleton:
    return skeleton_from_dict(read_json(path))
