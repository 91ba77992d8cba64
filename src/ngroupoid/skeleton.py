"""Objective n-skeletons: hypercube skeletons weighted with groupoid arrows.

An objective skeleton assigns one base point to each hypercube vertex and
one invertible arrow to each oriented edge; class-I edges carry arrows of
the I-th constituent.  Skeletons compose along each axis by gluing a target
facet to a matching source facet and multiplying the connecting weights.
A skeleton file is read by lean.skeleton_parts, in a child or here; skeleton_from_parts
only builds the skeleton from those parts and tests the weights' numbers.
"""

from __future__ import annotations

import contextlib
import json
from typing import TYPE_CHECKING, Iterable

import numpy as np

from .errors import (DEFAULT_TOL, CompositionError, ConstructionHalted, FormatError,
                     UnknownBasePointError, check_tolerance, read_json)
from .hypercube import Edge, HypercubeSkeleton
from .lean import in_halves, skeleton_parts
from .matrices import (
    IDENTITY,
    close_to_any,
    first_invalid,
    inv,
    rel_distances,
)

if TYPE_CHECKING:  # annotations only: a skeleton alone loads no mixture code
    from .groupoid import Label
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
    groups: dict[tuple, list[int]] = {}
    for k, (a, t, h) in enumerate(zip(axes.tolist(), tails.tolist(), skel.edge_heads.tolist())):
        groups.setdefault((a, vertices[t], vertices[h]), []).append(k)
    return groups


def build(mix: MixtureSpec, vertices: Iterable[Label]) -> ObjectiveSkeleton:
    """Construct the objective skeleton over a vertex tuple of base points.

    Each edge carries the first arrow of its arrow set, the one from the
    first symmetry-group element.  A label outside the mixture base raises
    UnknownBasePointError; the first edge with an empty arrow set raises
    ConstructionHalted: no skeleton exists over this tuple.
    """
    vertices = tuple(vertices)
    for p in vertices:
        if p not in mix.base_points:
            raise UnknownBasePointError(f"point {p!r} not in the mixture base")
    skel = HypercubeSkeleton(mix.n)
    W = np.empty((skel.num_edges, 3, 3))
    for (a, X, Y), rows in _arrow_groups(skel, vertices).items():
        arrows = mix.constituent(a).arrow_set(X, Y)
        if not len(arrows):
            raise ConstructionHalted(skel.edges()[rows[0]], a, X, Y)
        W[rows] = arrows[0]
    return ObjectiveSkeleton(mix.n, vertices, W)


def _facet(T: ObjectiveSkeleton, axis: int, bit: int) -> ObjectiveSkeleton:
    vertices, rows = T.skel.facet(axis, bit)
    return ObjectiveSkeleton(T.n - 1, [T.vertices[v] for v in vertices.tolist()], T.W[rows])


def source_facet(T: ObjectiveSkeleton, axis: int) -> ObjectiveSkeleton:
    """Restriction to the facet where the axis coordinate is 0."""
    return _facet(T, axis, 0)


def target_facet(T: ObjectiveSkeleton, axis: int) -> ObjectiveSkeleton:
    """Restriction to the facet where the axis coordinate is 1."""
    return _facet(T, axis, 1)


def _check_glue(T: ObjectiveSkeleton, Tp: ObjectiveSkeleton, axis: int,
                tol: float) -> None:
    if T.n != Tp.n:
        raise CompositionError(f"dimension mismatch: {Tp.n} vs {T.n}")
    if not 1 <= axis <= T.n:
        raise CompositionError(f"axis must lie in 1..{T.n}, got {axis}")
    (v_out, rows_out), (v_in, rows_in) = Tp.skel.facet(axis, 1), T.skel.facet(axis, 0)
    for w, (a, b) in enumerate(zip(v_out.tolist(), v_in.tolist())):
        if Tp.vertices[a] != T.vertices[b]:
            raise CompositionError(
                f"facet vertex {w}: {Tp.vertices[a]!r} != {T.vertices[b]!r} (target facet "
                f"of the first factor must equal source facet of the second)"
            )
    d = rel_distances(Tp.W[rows_out], T.W[rows_in])
    bad = np.flatnonzero(d > tol)
    if len(bad):
        k = bad[0]
        raise CompositionError(
            f"facet edge {tuple(HypercubeSkeleton(T.n - 1).edges()[k])}: weights differ by "
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
    tails, axes = T.skel.edge_arrays
    bit, glue = T.skel.axis_bit(axis), axes == axis
    W = np.where((tails & bit != 0)[:, None, None], T.W, Tp.W)
    # an overflowing product fails the weight check; inf - inf in it is NaN on some BLAS kernels
    with np.errstate(over="ignore", invalid="ignore"):
        W[glue] = T.W[glue] @ Tp.W[glue]
    return ObjectiveSkeleton(T.n, [(T if v & bit else Tp).vertices[v] for v in T.skel.vertices], W)


def unit_skeleton(F: ObjectiveSkeleton, axis: int) -> ObjectiveSkeleton:
    """Degenerate skeleton with F on both axis-facets and unit axis edges."""
    skel = HypercubeSkeleton(F.n + 1)
    label, W = np.empty(skel.num_vertices, dtype=np.intp), np.empty((skel.num_edges, 3, 3))
    for bit in (0, 1):
        on_facet, rows = skel.facet(axis, bit)
        label[on_facet], W[rows] = np.arange(len(on_facet)), F.W
    W[skel.edge_arrays[1] == axis] = IDENTITY
    return ObjectiveSkeleton(skel.n, [F.vertices[v] for v in label.tolist()], W)


def inverse_axis(T: ObjectiveSkeleton, axis: int) -> ObjectiveSkeleton:
    """Swap the two axis-facets and invert every class-``axis`` weight."""
    tails, axes = T.skel.edge_arrays
    bit, glue = T.skel.axis_bit(axis), axes == axis
    W = T.W[T.skel.edge_index[np.where(glue, tails, tails ^ bit), axes - 1]]
    W[glue] = inv(W[glue])
    return ObjectiveSkeleton(T.n, [T.vertices[v ^ bit] for v in T.skel.vertices], W)


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


def skeleton_from_parts(n: int, vertices: list, weights: bytes, order: list[int],
                        fault: str | None) -> ObjectiveSkeleton:
    """The skeleton whose parts lean.skeleton_parts read; else a FormatError naming the
    first bad weight in file order or, where there is none, the structural fault.
    """
    W = np.frombuffer(weights).reshape(-1, 3, 3)
    if fault is None:
        with contextlib.suppress(ValueError):  # a bad weight is named below
            return ObjectiveSkeleton(n, vertices, W[order])
    bad = first_invalid(W)
    raise FormatError(f"skeleton: edges[{bad[0]}]: weight {bad[1]}" if bad else fault)


def skeleton_from_dict(doc: object) -> ObjectiveSkeleton:
    return skeleton_from_parts(*skeleton_parts(doc))


# One edge record as json.dumps(indent=2) lays it out; %r is float.__repr__,
# which is json's formatter for the finite floats a skeleton holds.
_EDGE_RECORD = ('    {\n      "tail": %d,\n      "axis": %d,\n      "weight": [\n'
                + ",\n".join(["        %r"] * 9) + "\n      ]\n    }")


def dump_skeleton(T: ObjectiveSkeleton) -> str:
    """``json.dumps(skeleton_to_dict(T), indent=2)`` plus a newline, edges templated.

    A large skeleton's second half of edge records is formatted in a child.
    """
    head = json.dumps({"n": T.n, "vertices": list(T.vertices)}, indent=2)[:-2]  # no "\n}"
    tails, axes = T.skel.edge_arrays
    flat = T.W.reshape(-1, 9)

    def records(part: slice) -> str:
        return ",\n".join([_EDGE_RECORD % (t, a, *w) for t, a, w in
                            zip(tails[part].tolist(), axes[part].tolist(), flat[part].tolist())])

    edges = ",\n".join(in_halves(records, len(tails)))
    edges = f"[\n{edges}\n  ]" if edges else "[]"
    return f'{head},\n  "edges": {edges}\n}}\n'


def save_skeleton(T: ObjectiveSkeleton, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_skeleton(T))


def load_skeleton(path: str) -> ObjectiveSkeleton:
    return skeleton_from_dict(read_json(path))
