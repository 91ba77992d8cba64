"""Combinatorics of the oriented unit n-cube skeleton.

Vertices are the integers 0 .. 2**n - 1; the binary digits of a vertex are
its cube coordinates, with the digit for axis I (I = 1..n) sitting at the
I-th most significant of the n bits.  Every edge is oriented from the
endpoint whose axis coordinate is 0 towards the endpoint where it is 1, so
vertex 0 is the global source of the skeleton.

Everything here is label combinatorics; there is no geometric embedding.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations, product
from typing import NamedTuple

import numpy as np

MAX_DIMENSION = 12  # largest accepted n: a 12-cube already has 24576 edges


class Edge(NamedTuple):
    """Oriented edge, identified by its tail vertex and coordinate axis.

    The tail has bit 0 on the axis; the head is the tail with that bit set.
    """

    tail: int
    axis: int


class Face(NamedTuple):
    """h-face: h free axes, the remaining axes pinned to fixed bits.

    ``free_axes`` is sorted ascending; ``fixed_bits`` holds (axis, bit)
    pairs for every non-free axis, sorted by axis.
    """

    free_axes: tuple[int, ...]
    fixed_bits: tuple[tuple[int, int], ...]

    @property
    def h(self) -> int:
        return len(self.free_axes)


class FacetPair(NamedTuple):
    """The two parallel (n-1)-faces orthogonal to one axis.

    ``correspondence`` maps each facet0 vertex to the facet1 vertex at the
    head of the connecting edge of that axis.
    """

    facet0: Face
    facet1: Face
    correspondence: dict[int, int]


def axis_bit(n: int, axis: int) -> int:
    """Bit value of an axis in an n-bit vertex index (axis 1 = MSB)."""
    if not 1 <= axis <= n:
        raise ValueError(f"axis must lie in 1..{n}, got {axis}")
    return 1 << (n - axis)


def count_faces(n: int, h: int) -> int:
    """Number of h-faces of the n-cube: 2**(n-h) * C(n, h).

    Defined for 0 <= h < n; the full cube does not count as a face.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not 0 <= h < n:
        raise ValueError(f"face dimension must lie in 0..{n - 1}, got {h}")
    return 2 ** (n - h) * math.comb(n, h)


def strip_axis(n: int, vertex: int, axis: int) -> int:
    """Reindex an n-cube vertex into the (n-1)-cube left by deleting an axis.

    Remaining axes keep their relative order: axis J maps to J for J < axis
    and to J - 1 for J > axis.
    """
    low_width = n - axis
    low = vertex & ((1 << low_width) - 1)
    high = vertex >> (low_width + 1)
    return (high << low_width) | low


def insert_axis(n: int, vertex: int, axis: int, bit: int) -> int:
    """Inverse of strip_axis; n is the enlarged dimension holding ``axis``."""
    low_width = n - axis
    low = vertex & ((1 << low_width) - 1)
    high = vertex >> low_width
    return (high << (low_width + 1)) | (bit << low_width) | low


class HypercubeSkeleton:
    """Vertices, oriented classed edges, and faces of the n-cube skeleton.

    Immutable after construction; all enumerations are deterministic and
    cached.  Dimension 0 (a single vertex, no edges) is allowed so that
    facets of 1-skeletons are representable.
    """

    def __init__(self, n: int):
        if not 0 <= n <= MAX_DIMENSION:
            raise ValueError(f"dimension must lie in 0..{MAX_DIMENSION}, got {n}")
        self.n = n
        self.num_vertices = 1 << n
        self.num_edges = n * self.num_vertices // 2
        self._edges: tuple[Edge, ...] | None = None

    # -- basic structure ---------------------------------------------------

    @property
    def vertices(self) -> range:
        return range(self.num_vertices)

    def axis_bit(self, axis: int) -> int:
        return axis_bit(self.n, axis)

    def edges(self) -> tuple[Edge, ...]:
        """All n * 2**(n-1) oriented edges, sorted by (tail, axis)."""
        if self._edges is None:
            self._edges = tuple(map(Edge, *(a.tolist() for a in self.edge_arrays)))
        return self._edges

    @cached_property
    def edge_index(self) -> np.ndarray:
        """Position in edges() by [tail, axis - 1]; -1 where tail has the axis bit."""
        free = (np.arange(self.num_vertices)[:, None] >> np.arange(self.n)[::-1]) & 1 == 0
        index = np.full(free.shape, -1, dtype=np.intp)
        index[free] = np.arange(np.count_nonzero(free))
        index.flags.writeable = False
        return index

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Tails and axes of edges(), as two integer arrays in that order."""
        tails, cols = np.nonzero(self.edge_index >= 0)
        return tails, cols + 1

    def head(self, edge: Edge) -> int:
        return edge.tail | self.axis_bit(edge.axis)

    def check_edge(self, edge: Edge) -> None:
        if not 1 <= edge.axis <= self.n:
            raise ValueError(f"edge axis {edge.axis} out of range 1..{self.n}")
        if not 0 <= edge.tail < self.num_vertices:
            raise ValueError(f"edge tail {edge.tail} out of range")
        if edge.tail & self.axis_bit(edge.axis):
            raise ValueError(
                f"edge tail {edge.tail} already has bit set on axis {edge.axis}"
            )

    def adjacency_class(self, a: int, b: int) -> int | None:
        """Axis along which two vertices differ, or None.

        Returns the unique axis when the vertex indices differ in exactly
        one bit; the vertex holding the 1 bit is adjacent *from* the other.
        """
        for v in (a, b):
            if not 0 <= v < self.num_vertices:
                raise ValueError(f"vertex {v} out of range for dimension {self.n}")
        diff = a ^ b
        if diff == 0 or diff & (diff - 1):
            return None
        return self.n - diff.bit_length() + 1

    def neighbors(self, v: int) -> list[int]:
        return [v ^ self.axis_bit(axis) for axis in range(1, self.n + 1)]

    # -- faces ---------------------------------------------------------------

    def faces(self, h: int) -> list[Face]:
        """All h-faces in deterministic enumeration order.

        Unlike count_faces this accepts h = n (the full cube as one face),
        the one square of the 2-cube.
        """
        if not 0 <= h <= self.n:
            raise ValueError(f"face dimension must lie in 0..{self.n}, got {h}")
        axes = range(1, self.n + 1)
        out = []
        for free in combinations(axes, h):
            fixed_axes = [a for a in axes if a not in free]
            for bits in product((0, 1), repeat=len(fixed_axes)):
                out.append(Face(free, tuple(zip(fixed_axes, bits))))
        return out

    def face_vertices(self, face: Face) -> list[int]:
        """Vertices of a face, ascending."""
        base = 0
        for axis, bit in face.fixed_bits:
            if bit:
                base |= self.axis_bit(axis)
        verts = []
        for bits in product((0, 1), repeat=face.h):
            v = base
            for axis, bit in zip(face.free_axes, bits):
                if bit:
                    v |= self.axis_bit(axis)
            verts.append(v)
        return sorted(verts)

    def facet_pair(self, axis: int) -> FacetPair:
        """The two (n-1)-facets orthogonal to an axis plus their vertex map."""
        bit = self.axis_bit(axis)
        free = tuple(a for a in range(1, self.n + 1) if a != axis)
        facet0 = Face(free, ((axis, 0),))
        facet1 = Face(free, ((axis, 1),))
        correspondence = {v: v | bit for v in self.vertices if v & bit == 0}
        return FacetPair(facet0, facet1, correspondence)

    # -- spanning tree and cycles ---------------------------------------------

    def spanning_tree(self) -> tuple[Edge, ...]:
        """Spanning tree rooted at vertex 0, listed so each vertex follows its parent.

        A vertex hangs off the vertex with its highest set bit cleared: the
        breadth-first tree visiting vertices and axes in ascending order.
        """
        return tuple(Edge(t, self.n - j) for j in range(self.n) for t in range(1 << j))

    def simple_cycles(self) -> list[tuple[int, ...]]:
        """Every simple cycle as a vertex tuple (first vertex not repeated).

        Each cycle appears once, anchored at its smallest vertex with the
        smaller neighbour second.  Exponential in n; intended for n <= 3.
        """
        cycles: list[tuple[int, ...]] = []
        path: list[int] = []
        on_path = [False] * self.num_vertices

        def extend(root: int) -> None:
            v = path[-1]
            for u in self.neighbors(v):
                if u == root and len(path) >= 3 and path[1] < path[-1]:
                    cycles.append(tuple(path))
                elif u > root and not on_path[u]:
                    path.append(u)
                    on_path[u] = True
                    extend(root)
                    on_path[u] = False
                    path.pop()

        for root in self.vertices:
            path = [root]
            on_path[root] = True
            extend(root)
            on_path[root] = False
        return cycles
