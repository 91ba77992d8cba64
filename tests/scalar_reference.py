"""Per-edge, per-face reference implementations, used only by the tests.

These are the original loop versions of the batched checkers: one 3x3
product per call, driven by the hypercube enumerations.  The batched code
must reproduce their results bit for bit.
"""
import numpy as np

from ngroupoid.analysis import FaceWitness
from ngroupoid.hypercube import Edge, HypercubeSkeleton, insert_axis
from ngroupoid.matrices import DEFAULT_TOL, IDENTITY, identity_deviation, rel_distance


def face2_commutes(T, face, tol=DEFAULT_TOL):
    c = face.corner
    lo, hi = face.axes
    b_lo, b_hi = T.skel.axis_bit(lo), T.skel.axis_bit(hi)
    left = T.weight(Edge(c | b_lo, hi)) @ T.weight(Edge(c, lo))
    right = T.weight(Edge(c | b_hi, lo)) @ T.weight(Edge(c, hi))
    holonomy = left @ np.linalg.inv(right)
    return rel_distance(left, right) <= tol, holonomy


def is_conservative(T, tol=DEFAULT_TOL):
    """(verdict, witnesses, max_deviation) of the face check."""
    witnesses = []
    max_dev = 0.0
    if T.n >= 2:
        for sq in T.skel.two_faces():
            ok, holonomy = face2_commutes(T, sq, tol)
            dev = identity_deviation(holonomy)
            max_dev = max(max_dev, dev)
            if not ok:
                witnesses.append(FaceWitness(sq.corner, sq.axes, holonomy, dev))
    witnesses.sort(key=lambda w: (w.corner, w.axes))
    return not witnesses, witnesses, max_dev


def bfs_tree(skel):
    """Breadth-first spanning tree from vertex 0, in discovery order.

    Each frontier is processed in ascending vertex index, neighbours in
    ascending axis.
    """
    visited = {0}
    frontier = [0]
    tree = []
    while frontier:
        nxt = []
        for v in sorted(frontier):
            for axis in range(1, skel.n + 1):
                u = v ^ skel.axis_bit(axis)
                if u not in visited:
                    visited.add(u)
                    tree.append(Edge(min(u, v), axis))
                    nxt.append(u)
        frontier = nxt
    return tree


def vertex_potential(T):
    """Potential along the breadth-first spanning tree."""
    phi = [None] * T.skel.num_vertices
    phi[0] = IDENTITY.copy()
    for e in bfs_tree(T.skel):
        phi[T.skel.head(e)] = T.weight(e) @ phi[e.tail]
    return phi


def conservative_oracle(T, tol=DEFAULT_TOL):
    phi = vertex_potential(T)
    tree = set(bfs_tree(T.skel))
    for e in (e for e in T.skel.edges() if e not in tree):
        predicted = phi[T.skel.head(e)] @ np.linalg.inv(phi[e.tail])
        if not rel_distance(T.weight(e), predicted) <= tol:
            return False
    return True


def glue_error(T, Tp, axis, tol=DEFAULT_TOL):
    """Message for the first facet edge whose weights differ, or None.

    Walks the facet edges in order and compares Tp's target facet with T's
    source facet one edge at a time.
    """
    n = T.n
    for e in HypercubeSkeleton(n - 1).edges():
        big_axis = e.axis if e.axis < axis else e.axis + 1
        out = Tp.weight(Edge(insert_axis(n, e.tail, axis, 1), big_axis))
        into = T.weight(Edge(insert_axis(n, e.tail, axis, 0), big_axis))
        d = rel_distance(out, into)
        if d > tol:
            return f"facet edge {tuple(e)}: weights differ by {d:.3e} (tol {tol:.1e})"
    return None
