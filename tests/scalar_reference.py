"""Per-edge, per-face reference implementations, used only by the tests.

These are the original loop versions of the batched checkers and of the
groupoid layer: one 3x3 product or distance per call, driven by the
hypercube enumerations and by loops over group elements.  The batched code
must reproduce their results bit for bit.  The uniformity decision is kept
as its original core test of every ordered pair of points.  The skeleton
reader is kept as its loop of one check after another per edge record,
reading and testing each weight on its own, and the potential draws as one
matrix per call.
"""
import json
import math

import numpy as np

from ngroupoid.analysis import FaceWitness, UniformityReport
from ngroupoid.errors import NOT_A_MATRIX, ConstructionHalted, FormatError
from ngroupoid.hypercube import MAX_DIMENSION, Edge, HypercubeSkeleton
from ngroupoid.matrices import DEFAULT_TOL, DET_THRESHOLD, IDENTITY, identity_deviation
from ngroupoid.skeleton import ObjectiveSkeleton, skeleton_to_dict


def insert_axis(n, vertex, axis, bit):
    """The n-cube vertex with ``bit`` on ``axis`` and (n-1)-cube ``vertex`` on the rest."""
    low_width = n - axis
    low = vertex & ((1 << low_width) - 1)
    high = vertex >> low_width
    return (high << (low_width + 1)) | (bit << low_width) | low


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
        phi[e.tail | T.skel.axis_bit(e.axis)] = T.weight(e) @ phi[e.tail]
    return phi


def conservative_oracle(T, tol=DEFAULT_TOL):
    phi = vertex_potential(T)
    tree = set(bfs_tree(T.skel))
    for e in (e for e in T.skel.edges() if e not in tree):
        predicted = phi[e.tail | T.skel.axis_bit(e.axis)] @ np.linalg.inv(phi[e.tail])
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


def facet(T, axis, bit):
    """T restricted to the facet where ``axis`` is ``bit``, one vertex and edge at a time."""
    n = T.n
    sub = HypercubeSkeleton(n - 1)
    vertices = [T.vertices[insert_axis(n, v, axis, bit)] for v in sub.vertices]
    W = [T.weight(Edge(insert_axis(n, e.tail, axis, bit), e.axis + (e.axis >= axis)))
         for e in sub.edges()]
    return ObjectiveSkeleton(n - 1, vertices, np.reshape(W, (-1, 3, 3)))


def assemble(F0, F1, axis, axis_weight):
    """The n-skeleton with axis-facets F0 and F1, one vertex and edge at a time.

    ``axis_weight(tail)`` weighs the class-``axis`` edge at an n-cube tail.
    """
    n = F0.n + 1
    skel = HypercubeSkeleton(n)
    vertices = [None] * skel.num_vertices
    weights = {}
    for F, bit in ((F0, 0), (F1, 1)):
        for v in F.skel.vertices:
            vertices[insert_axis(n, v, axis, bit)] = F.vertices[v]
        for e in F.skel.edges():
            tail = insert_axis(n, e.tail, axis, bit)
            weights[Edge(tail, e.axis + (e.axis >= axis))] = F.weight(e)
    for v in range(skel.num_vertices // 2):
        tail = insert_axis(n, v, axis, 0)
        weights[Edge(tail, axis)] = axis_weight(tail)
    return ObjectiveSkeleton(n, vertices, np.array([weights[e] for e in skel.edges()]))


def unit_skeleton(F, axis):
    return assemble(F, F, axis, lambda tail: IDENTITY)


def inverse_axis(T, axis):
    return assemble(facet(T, axis, 1), facet(T, axis, 0), axis,
                    lambda tail: np.linalg.inv(T.weight(Edge(tail, axis))))


def compose(T, Tp, axis):
    """Tp then T along an axis, for a composable pair; the glue is not checked."""
    return assemble(facet(Tp, axis, 0), facet(T, axis, 1), axis,
                    lambda tail: T.weight(Edge(tail, axis)) @ Tp.weight(Edge(tail, axis)))


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
    return [ky @ g @ kx_inv for g in c.group]


def contains_arrow(c, X, Y, weight, tol):
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


def is_uniform(mix, core=core_arrows):
    """The uniformity report from a core test of every ordered pair.

    The verdict is the reference point's row; every pair with an empty core
    is a defect, in x-major base order.  ``core`` is the core function the
    P^2 loop calls, this module's by default.
    """
    points = mix.base_points
    x0 = points[0]
    nonempty = {(x, y): bool(core(mix, x, y)) for x in points for y in points}
    return UniformityReport(
        all(nonempty[x0, y] for y in points),
        x0,
        [(x, y) for x in points for y in points if not nonempty[x, y]],
        {c.name: all(p in c.implants for p in points) for c in mix.constituents},
    )


def validate_error(T, mix):
    """Message for the first edge whose weight is no arrow of its constituent, or None."""
    for e in T.skel.edges():
        c = mix.constituent(e.axis)
        X, Y = T.vertices[e.tail], T.vertices[e.tail | T.skel.axis_bit(e.axis)]
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
        X, Y = vertices[e.tail], vertices[e.tail | skel.axis_bit(e.axis)]
        arrows = mix.constituent(e.axis).arrow_set(X, Y)
        if not len(arrows):
            raise ConstructionHalted(e, e.axis, X, Y)
        W[k] = arrows[0]
    return ObjectiveSkeleton(mix.n, vertices, W)


def identity_deviation_unscaled(m):
    """||m - I||_F / sqrt(3) through np.linalg.norm, without rescaling."""
    return float(np.linalg.norm(np.asarray(m, dtype=float) - IDENTITY) / np.sqrt(3.0))


def dump_skeleton(T):
    """The skeleton file text through json's own indenting encoder."""
    return json.dumps(skeleton_to_dict(T), indent=2) + "\n"


def random_invertible(rng):
    """One Uniform[-1,1] 3x3 matrix, redrawn until |det| > 0.1."""
    while True:
        m = rng.uniform(-1.0, 1.0, size=(3, 3))
        if abs(np.linalg.det(m)) > 0.1:
            return m


def read_weight(w):
    """One weight as a 3x3 float64 matrix, or None where it is not 9 numbers or a 3x3
    nested list; an integer beyond the float range reads as infinite.
    """
    if isinstance(w, (list, tuple)) and len(w) == 3 \
            and all(isinstance(r, (list, tuple)) and len(r) == 3 for r in w):
        w = [x for r in w for x in r]
    if not isinstance(w, (list, tuple)) or len(w) != 9:
        return None
    entries = []
    for x in w:
        if type(x) not in (int, float):
            return None
        try:
            entries.append(float(x))
        except OverflowError:
            entries.append(math.inf if x > 0 else -math.inf)
    return np.array(entries, dtype=float).reshape(3, 3)


def skeleton_from_dict(doc):
    """The skeleton reader with every check run on its own for each edge record."""
    if not isinstance(doc, dict):
        raise FormatError("skeleton document must be an object")
    for key in ("n", "vertices", "edges"):
        if key not in doc:
            raise FormatError(f"skeleton: missing field {key!r}")
    n = doc["n"]
    if type(n) is not int or not 1 <= n <= MAX_DIMENSION:
        raise FormatError(f"skeleton: 'n' must be an integer in 1..{MAX_DIMENSION}, got {n!r}")
    skel = HypercubeSkeleton(n)
    vertices = doc["vertices"]
    if not isinstance(vertices, list) or len(vertices) != skel.num_vertices:
        raise FormatError(
            f"skeleton: 'vertices' must list exactly {skel.num_vertices} labels"
        )
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise FormatError("skeleton: 'edges' must be a list")
    index = skel.edge_index.tolist()
    record = [-1] * skel.num_edges  # edge position -> record index
    rows = []  # rows[idx] is the weight of edges[idx]

    def weights():
        """The weights read so far as a stack; the first bad one in file order raises."""
        W = []
        for i, w in enumerate(rows):
            m, where = read_weight(w), f"skeleton: edges[{i}]: weight"
            if m is None:
                raise FormatError(f"{where} {NOT_A_MATRIX}")
            if not np.isfinite(m).all():
                raise FormatError(f"{where} has non-finite entries")
            d = np.linalg.det(m)
            if abs(d) <= DET_THRESHOLD:
                raise FormatError(f"{where} is numerically singular (det={d:.3e})")
            W.append(m)
        return np.array(W, dtype=float).reshape(-1, 3, 3)

    try:
        for idx, rec in enumerate(edges):
            where = f"edges[{idx}]"
            if not isinstance(rec, dict):
                raise FormatError(f"skeleton: {where} must be an object")
            for key in ("tail", "axis", "weight"):
                if key not in rec:
                    raise FormatError(f"skeleton: {where} missing field {key!r}")
            for key in ("tail", "axis"):
                if type(rec[key]) is not int:
                    raise FormatError(
                        f"skeleton: {where}: {key!r} must be an integer, got {rec[key]!r}")
            e = Edge(rec["tail"], rec["axis"])
            try:
                skel.check_edge(e)
            except ValueError as exc:
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
