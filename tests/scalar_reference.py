"""Per-edge, per-face reference implementations, used only by the tests.

These are the original loop versions of the batched checkers and of the
groupoid layer: one 3x3 product or distance per call, driven by the
hypercube enumerations and by loops over group elements.  The batched code
must reproduce their results bit for bit.
"""
import numpy as np

from ngroupoid.analysis import FaceWitness
from ngroupoid.errors import ConstructionHalted
from ngroupoid.hypercube import Edge, HypercubeSkeleton, insert_axis
from ngroupoid.matrices import DEFAULT_TOL, IDENTITY, identity_deviation
from ngroupoid.skeleton import ObjectiveSkeleton


def rel_distance(a, b):
    """Frobenius distance over the larger operand norm, without rescaling."""
    scale = max(np.linalg.norm(a), np.linalg.norm(b))
    if scale == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / scale)


def squares(skel):
    """(corner, axes) of every 2-face, in the order of skel.faces(2).

    The corner is the vertex where both free coordinates are 0.
    """
    return [
        (sum(skel.axis_bit(a) for a, bit in face.fixed_bits if bit), face.free_axes)
        for face in skel.faces(2)
    ]


def face2_commutes(T, c, axes, tol=DEFAULT_TOL):
    """Whether the two edge paths around a square match, plus the holonomy.

    With corner c and free axes I < J the comparison is

        w(J-edge at c+I) @ w(I-edge at c)  vs  w(I-edge at c+J) @ w(J-edge at c)

    and the holonomy is the left side times the inverse of the right.
    """
    lo, hi = axes
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
        for c, axes in squares(T.skel):
            ok, holonomy = face2_commutes(T, c, axes, tol)
            dev = identity_deviation(holonomy)
            max_dev = max(max_dev, dev)
            if not ok:
                witnesses.append(FaceWitness(c, axes, holonomy, dev))
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


# -- groupoid layer -------------------------------------------------------------

def group_error(elements, tol=DEFAULT_TOL):
    """Message of the first group axiom the element list fails, or None."""
    elems = [np.asarray(g, dtype=float) for g in elements]

    def contains(m):
        return any(rel_distance(m, g) <= tol for g in elems)

    if not elems:
        return "symmetry group is empty"
    if not contains(IDENTITY):
        return "symmetry group lacks the identity"
    for i, g in enumerate(elems):
        for h in elems[i + 1:]:
            if rel_distance(g, h) <= tol:
                return "duplicate group elements"
    for g in elems:
        if not contains(np.linalg.inv(g)):
            return "group not closed under inverse"
        for h in elems:
            if not contains(g @ h):
                return "group not closed under product"
    return None


def arrow_set(c, X, Y):
    """Arrows X -> Y of constituent c as a list, one group element at a time."""
    kx = c.implants.get(X)
    ky = c.implants.get(Y)
    if kx is None or ky is None:
        return []
    kx_inv = np.linalg.inv(kx)
    out = []
    for g in c.group:
        w = ky @ g @ kx_inv
        if not any(rel_distance(w, o) <= c.tolerance for o in out):
            out.append(w)
    return out


def contains_arrow(c, X, Y, weight, tol=None):
    tol = c.tolerance if tol is None else tol
    return any(rel_distance(weight, a) <= tol for a in arrow_set(c, X, Y))


def core_arrows(mix, X, Y):
    sets = [arrow_set(c, X, Y) for c in mix.constituents]
    if any(not s for s in sets):
        return []
    smallest = min(range(mix.n), key=lambda i: len(sets[i]))
    return [
        cand for cand in sets[smallest]
        if all(
            i == smallest
            or any(rel_distance(cand, a) <= mix.tolerance for a in sets[i])
            for i in range(mix.n)
        )
    ]


def validate_error(T, mix):
    """Message for the first edge whose weight is no arrow of its constituent, or None."""
    for e in T.skel.edges():
        c = mix.constituent(e.axis)
        X, Y = T.vertices[e.tail], T.vertices[T.skel.head(e)]
        if not contains_arrow(c, X, Y, T.weight(e), mix.tolerance):
            return f"edge {tuple(e)}: weight is not an arrow of constituent {c.name!r}"
    return None


# -- walks, construction and deviations -------------------------------------------

def path_weight(T, walk):
    """Weight of a vertex walk: the product of its step matrices, later steps
    on the left, each backward step inverted."""
    steps = []
    for a, b in zip(walk, walk[1:]):
        tail, head = min(a, b), max(a, b)
        w = T.weight(Edge(tail, T.n - (head - tail).bit_length() + 1))
        steps.append(w if b == head else np.linalg.inv(w))
    total = IDENTITY.copy()
    for m in steps:
        total = m @ total
    return total


def build(mix, vertices):
    """build one edge at a time, with one arrow_set call per edge."""
    vertices = tuple(vertices)
    skel = HypercubeSkeleton(mix.n)
    W = np.empty((skel.num_edges, 3, 3))
    for k, e in enumerate(skel.edges()):
        X, Y = vertices[e.tail], vertices[skel.head(e)]
        arrows = mix.constituent(e.axis).arrow_set(X, Y)
        if not len(arrows):
            raise ConstructionHalted(e, e.axis, X, Y)
        W[k] = arrows[0]
    return ObjectiveSkeleton(mix.n, vertices, W)


def identity_deviation_unscaled(m):
    """||m - I||_F / sqrt(3) through np.linalg.norm, without rescaling."""
    return float(np.linalg.norm(np.asarray(m, dtype=float) - IDENTITY) / np.sqrt(3.0))
