"""Combinatorics of the oriented unit n-cube skeleton.

Vertices are the integers 0 .. 2**n - 1; the binary digits of a vertex are
its cube coordinates, with the digit for axis I (I = 1..n) sitting at the
I-th most significant of the n bits.  Every edge is oriented from the
endpoint whose axis coordinate is 0 towards the endpoint where it is 1, so
vertex 0 is the global source of the skeleton.

Everything here is label combinatorics; there is no geometric embedding.
Counts, labels and facet_vertices are integer arithmetic; numpy loads only
where an array table is first built: edge_index and the tables read from it.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations, product
from typing import TYPE_CHECKING, NamedTuple

from .errors import MAX_DIMENSION

if TYPE_CHECKING:
    import numpy as np


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
        import numpy as np
        free = (np.arange(self.num_vertices)[:, None] >> np.arange(self.n)[::-1]) & 1 == 0
        index = np.full(free.shape, -1, dtype=np.intp)
        index[free] = np.arange(np.count_nonzero(free))
        index.flags.writeable = False
        return index

    @cached_property
    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Tails and axes of edges(), as two integer arrays in that order."""
        tails, cols = (self.edge_index >= 0).nonzero()
        return tails, cols + 1

    @cached_property
    def edge_heads(self) -> np.ndarray:
        """Head of each edge of edges(): its tail with the axis bit set."""
        tails, axes = self.edge_arrays
        return tails | (1 << (self.n - axes))

    @cached_property
    def squares(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every 2-face as arrays (corner, lo, hi, edges), sorted by (corner, lo, hi).

        The corner is the vertex where both free axes lo < hi are 0.  Row k
        of the (S, 4) array ``edges`` holds the edge rows of square k's two
        paths from its corner: lo then hi, and hi then lo.
        """
        import numpy as np
        lo, hi = np.triu_indices(self.n, 1)
        idx = self.edge_index
        corner, pair = np.nonzero((idx[:, lo] >= 0) & (idx[:, hi] >= 0))
        lo, hi = lo[pair], hi[pair]
        first_lo, first_hi, heads = idx[corner, lo], idx[corner, hi], self.edge_heads
        edges = np.stack([first_lo, idx[heads[first_lo], hi],
                          first_hi, idx[heads[first_hi], lo]], axis=1)
        return corner, lo + 1, hi + 1, edges

    def facet_vertices(self, axis: int, bit: int) -> list[int]:
        """The facet where ``axis`` is ``bit`` as n-cube vertices, in the (n-1)-cube's order."""
        on = self.axis_bit(axis)
        return [v for v in self.vertices if (v & on != 0) == bit]

    def facet(self, axis: int, bit: int) -> tuple[np.ndarray, np.ndarray]:
        """The facet where ``axis`` is ``bit``, in the (n-1)-cube's numbering: the
        n-cube vertex of each facet vertex and the edge row of each facet edge.
        """
        import numpy as np
        # dropping one bit keeps vertex order, and dropping one axis (tail, axis) order
        vertices = np.array(self.facet_vertices(axis, bit), dtype=np.intp)
        rows = np.delete(self.edge_index[vertices], axis - 1, axis=1)
        return vertices, rows[rows >= 0]

    def check_edge(self, edge: Edge) -> None:
        from .lean import edge_fault  # the skeleton reader's texts
        fault = edge_fault(self.n, edge.tail, edge.axis)
        if fault:
            raise ValueError(fault)

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

    # -- cycles ----------------------------------------------------------------

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
