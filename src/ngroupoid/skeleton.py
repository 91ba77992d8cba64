"""Objective n-skeletons: hypercube skeletons weighted with groupoid arrows.

An objective skeleton assigns one base point to each hypercube vertex and
one invertible arrow to each oriented edge; class-I edges carry arrows of
the I-th constituent.  Skeletons compose along each axis by gluing a target
facet to a matching source facet and multiplying the connecting weights.
"""

from __future__ import annotations

import json
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import CompositionError, ConstructionHalted, FormatError, read_json
from .groupoid import Arrow, Label
from .hypercube import Edge, HypercubeSkeleton, axis_bit, insert_axis, strip_axis
from .matrices import DEFAULT_TOL, IDENTITY, check_invertible, first_invalid, rel_distances
from .mixture import MixtureSpec

Selector = Callable[[Edge, list[Arrow]], Arrow]


def _check_endpoints(e: Edge, a: Arrow, vertices: tuple, head: int) -> None:
    if a.source != vertices[e.tail] or a.target != vertices[head]:
        raise ValueError(
            f"edge {tuple(e)} arrow endpoints {a.source!r} -> {a.target!r} "
            f"do not match vertices {vertices[e.tail]!r} -> {vertices[head]!r}"
        )


class ObjectiveSkeleton:
    """A vertex tuple of base points plus one weight per skeleton edge.

    ``vertices[i]`` is the base point at hypercube vertex i (repetitions
    allowed).  ``W`` is a read-only float64 array of shape (E, 3, 3) whose
    k-th matrix weighs the k-th edge of ``skel.edges()``; every weight is
    finite and invertible.  Immutable: all operations return new skeletons.

    The constructor takes one Arrow per edge, with endpoints matching the
    vertex tuple; ``from_array`` takes the weight array directly.
    """

    def __init__(self, n: int, vertices: Iterable[Label],
                 weights: Mapping[Edge, Arrow]):
        skel = HypercubeSkeleton(n)
        weights = {Edge(*e): a for e, a in weights.items()}
        mismatch = sorted(set(weights) ^ set(skel.edges()))
        if mismatch:
            raise ValueError(f"weights must cover exactly the edges; differ at {mismatch[:3]}")
        W = np.array([weights[e].weight for e in skel.edges()]).reshape(-1, 3, 3)
        self._init(skel, tuple(vertices), W)
        for e, a in weights.items():
            _check_endpoints(e, a, self.vertices, skel.head(e))

    @classmethod
    def from_array(cls, n: int, vertices: Iterable[Label],
                   W: np.ndarray) -> "ObjectiveSkeleton":
        """Skeleton over a weight array in edges() order; the array becomes read-only."""
        T = cls.__new__(cls)
        T._init(HypercubeSkeleton(n), tuple(vertices), np.asarray(W, dtype=float))
        return T

    def _init(self, skel: HypercubeSkeleton, vertices: tuple, W: np.ndarray) -> None:
        if len(vertices) != skel.num_vertices:
            raise ValueError(f"vertex tuple has {len(vertices)} entries, "
                             f"expected {skel.num_vertices}")
        if W.shape != (skel.num_edges, 3, 3):
            raise ValueError(f"weight array has shape {W.shape}, "
                             f"expected ({skel.num_edges}, 3, 3)")
        bad = first_invalid(W, "weight")
        if bad:
            raise ValueError(f"edge {tuple(skel.edges()[bad[0]])}: {bad[1]}")
        W.flags.writeable = False
        self.skel, self.n, self.vertices, self.W = skel, skel.n, vertices, W

    def weight(self, edge: Edge) -> np.ndarray:
        edge = Edge(*edge)
        self.skel.check_edge(edge)
        return self.W[self.skel.edge_index[edge.tail, edge.axis - 1]]

    def arrow(self, edge: Edge) -> Arrow:
        edge = Edge(*edge)
        return Arrow(self.vertices[edge.tail], self.vertices[self.skel.head(edge)],
                     self.weight(edge))

    @property
    def weights(self) -> dict[Edge, Arrow]:
        """One Arrow per edge, built on demand."""
        return {e: self.arrow(e) for e in self.skel.edges()}

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
        for e in self.skel.edges():
            if not mix.constituent(e.axis).contains_arrow(self.arrow(e), mix.tolerance):
                raise ValueError(
                    f"edge {tuple(e)}: weight is not an arrow of "
                    f"constituent {mix.constituent(e.axis).name!r}"
                )

    def __repr__(self):
        return f"ObjectiveSkeleton(n={self.n}, vertices={self.vertices!r})"


def _first_arrow(edge: Edge, arrows: list[Arrow]) -> Arrow:
    # canonical choice: smallest symmetry-group enumeration index
    return arrows[0]


def build(mix: MixtureSpec, W: Iterable[Label],
          selector: Selector = _first_arrow) -> ObjectiveSkeleton:
    """Construct the objective skeleton over W, one arrow per edge.

    Raises ConstructionHalted as soon as some edge has an empty arrow set:
    no skeleton exists over this tuple.
    """
    W = tuple(W)
    skel = HypercubeSkeleton(mix.n)
    weights: dict[Edge, Arrow] = {}
    for e in skel.edges():
        X, Y = W[e.tail], W[skel.head(e)]
        arrows = mix.constituent(e.axis).arrow_set(X, Y)
        if not arrows:
            raise ConstructionHalted(e, e.axis, X, Y)
        weights[e] = selector(e, arrows)
    return ObjectiveSkeleton(mix.n, W, weights)


def _facet(T: ObjectiveSkeleton, axis: int, bit: int) -> ObjectiveSkeleton:
    n = T.n
    T.skel.axis_bit(axis)  # validates the axis
    sub = HypercubeSkeleton(n - 1)
    big = insert_axis(n, np.arange(sub.num_vertices), axis, bit)
    tails, axes = sub.edge_arrays
    W = T.W[T.skel.edge_index[big[tails], axes - 1 + (axes >= axis)]]
    return ObjectiveSkeleton.from_array(n - 1, [T.vertices[v] for v in big.tolist()], W)


def _join(F0: ObjectiveSkeleton, F1: ObjectiveSkeleton, axis: int,
          axis_weights: np.ndarray) -> ObjectiveSkeleton:
    """The skeleton with axis-facets F0 and F1, joined by class-``axis`` edges.

    ``axis_weights`` holds the class-``axis`` weights in ascending tail order.
    """
    n = F0.n + 1
    skel = HypercubeSkeleton(n)
    bit = skel.axis_bit(axis)
    sub = strip_axis(n, np.arange(skel.num_vertices), axis).tolist()
    vertices = [(F1 if v & bit else F0).vertices[w] for v, w in enumerate(sub)]
    tails, axes = skel.edge_arrays
    on, far = axes == axis, tails & bit != 0
    W = np.empty((skel.num_edges, 3, 3))
    W[on] = axis_weights
    for F, sel in ((F0, ~on & ~far), (F1, ~on & far)):
        sub_axes = axes[sel] - (axes[sel] > axis)
        W[sel] = F.W[F.skel.edge_index[strip_axis(n, tails[sel], axis), sub_axes - 1]]
    return ObjectiveSkeleton.from_array(n, vertices, W)


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
    weight(T-edge) @ weight(Tp-edge) over the facet correspondence.
    """
    _check_glue(T, Tp, axis, tol)
    return _join(source_facet(Tp, axis), target_facet(T, axis), axis,
                 _axis_weights(T, axis) @ _axis_weights(Tp, axis))


def unit_skeleton(F: ObjectiveSkeleton, axis: int) -> ObjectiveSkeleton:
    """Degenerate skeleton with F on both axis-facets and unit axis edges."""
    return _join(F, F, axis, IDENTITY)


def inverse_axis(T: ObjectiveSkeleton, axis: int) -> ObjectiveSkeleton:
    """Swap the two axis-facets and invert every class-``axis`` weight."""
    return _join(target_facet(T, axis), source_facet(T, axis), axis,
                 np.linalg.inv(_axis_weights(T, axis)))


def assemble_from_facets(F0: ObjectiveSkeleton, F1: ObjectiveSkeleton,
                         axis: int,
                         connecting: Mapping[int, Arrow]) -> ObjectiveSkeleton:
    """Rebuild an n-skeleton from its two axis-facets and connecting arrows.

    ``connecting`` maps each facet-0 vertex index (in the assembled,
    n-dimensional numbering) to the arrow along the gluing axis.
    """
    if F0.n != F1.n:
        raise CompositionError(f"facet dimension mismatch: {F0.n} vs {F1.n}")
    bit = axis_bit(F0.n + 1, axis)
    tails = [t for t in range(2 << F0.n) if not t & bit]
    arrows = [connecting[t] for t in tails]
    T = _join(F0, F1, axis, np.array([a.weight for a in arrows]).reshape(-1, 3, 3))
    for t, a in zip(tails, arrows):
        _check_endpoints(Edge(t, axis), a, T.vertices, t | bit)
    return T


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


def _weight_rows(rows: list) -> np.ndarray:
    """Edge-record weights as an (R, 3, 3) array; a bad one raises, named by record."""
    try:
        W = np.array(rows, dtype=float)
    except (ValueError, TypeError):
        W = None
    if W is not None and W.shape[1:] in ((9,), (3, 3)):
        W = W.reshape(-1, 3, 3)
        bad = first_invalid(W, "arrow weight")
        if bad:
            raise FormatError(f"skeleton: edges[{bad[0]}]: {bad[1]}")
        return W
    # ragged, mixed or non-numeric rows: check each record on its own
    W = np.empty((len(rows), 3, 3))
    for idx, row in enumerate(rows):
        try:
            W[idx] = check_invertible(row, "arrow weight")
        except (ValueError, TypeError) as exc:
            raise FormatError(f"skeleton: edges[{idx}]: {exc}") from exc
    return W


def skeleton_from_dict(doc: object) -> ObjectiveSkeleton:
    if not isinstance(doc, dict):
        raise FormatError("skeleton document must be an object")
    for key in ("n", "vertices", "edges"):
        if key not in doc:
            raise FormatError(f"skeleton: missing field {key!r}")
    n = doc["n"]
    if not isinstance(n, int) or n < 1:
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
    rows: list = []
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
        _weight_rows(rows)  # a bad weight in an earlier record is reported first
        raise
    W = _weight_rows(rows)
    if len(rows) != skel.num_edges:
        missing = [e for e, r in zip(skel.edges(), record) if r < 0]
        raise FormatError(f"skeleton: missing weights for edges {missing[:3]}...")
    return ObjectiveSkeleton.from_array(n, vertices, W[record])


def dump_skeleton(T: ObjectiveSkeleton) -> str:
    return json.dumps(skeleton_to_dict(T), indent=2) + "\n"


def save_skeleton(T: ObjectiveSkeleton, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_skeleton(T))


def load_skeleton(path: str) -> ObjectiveSkeleton:
    return skeleton_from_dict(read_json(path))
