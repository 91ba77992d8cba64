import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scalar_reference import insert_axis

from ngroupoid.hypercube import (
    MAX_DIMENSION,
    HypercubeSkeleton,
    axis_bit,
    count_faces,
)


def test_count_faces_known_values():
    assert count_faces(3, 1) == 12
    assert count_faces(3, 0) == 8
    assert count_faces(4, 1) == 32
    assert count_faces(4, 2) == 24


@pytest.mark.parametrize("n", range(1, 7))
def test_count_faces_matches_enumeration(n):
    skel = HypercubeSkeleton(n)
    for h in range(n):
        assert count_faces(n, h) == len(skel.faces(h))


def test_count_faces_domain_errors():
    with pytest.raises(ValueError):
        count_faces(3, 3)
    with pytest.raises(ValueError):
        count_faces(3, -1)
    with pytest.raises(ValueError):
        count_faces(0, 0)


@pytest.mark.parametrize("n", range(1, 7))
def test_edge_and_facet_counts(n):
    skel = HypercubeSkeleton(n)
    assert len(skel.edges()) == n * 2 ** (n - 1)
    assert skel.num_vertices == 2 ** n
    # 2 facets per axis
    if n >= 2:
        assert len(skel.faces(n - 1)) == 2 * n


def test_edges_sorted_by_tail_then_axis():
    skel = HypercubeSkeleton(3)
    edges = skel.edges()
    assert edges == tuple(sorted(edges))


def test_adjacency_examples():
    skel = HypercubeSkeleton(3)
    assert skel.adjacency_class(0, 4) == 1
    assert skel.adjacency_class(0, 3) is None
    assert skel.adjacency_class(5, 7) == 2


def test_vertex_4_lies_along_axis_1():
    # most significant bit is axis 1
    assert axis_bit(3, 1) == 4
    assert axis_bit(3, 3) == 1
    skel = HypercubeSkeleton(3)
    assert skel.adjacency_class(0, 1) == 3


@given(st.integers(1, 6), st.data())
def test_adjacency_symmetric(n, data):
    skel = HypercubeSkeleton(n)
    a = data.draw(st.integers(0, skel.num_vertices - 1))
    b = data.draw(st.integers(0, skel.num_vertices - 1))
    assert skel.adjacency_class(a, b) == skel.adjacency_class(b, a)


def test_degrees():
    for n in range(1, 6):
        skel = HypercubeSkeleton(n)
        out_deg = {v: 0 for v in skel.vertices}
        in_deg = {v: 0 for v in skel.vertices}
        for e in skel.edges():
            out_deg[e.tail] += 1
            in_deg[e.tail | skel.axis_bit(e.axis)] += 1
        assert sum(out_deg.values()) == n * 2 ** (n - 1)
        assert in_deg[0] == 0
        for v in skel.vertices:
            assert in_deg[v] + out_deg[v] == n


def facet_pair(n, axis):
    """Vertices of the facets at bit 0 and bit 1 of an axis, as the skeleton verb lists them."""
    half = np.arange(2 ** (n - 1))
    return tuple(insert_axis(n, half, axis, bit).tolist() for bit in (0, 1))


def test_facet_matches_insert_axis():
    # facet() reads the n-cube's own tables; the oracle places each (n-1)-cube
    # vertex and edge by inserting the axis bit
    for n in range(1, MAX_DIMENSION + 1):
        skel, sub = HypercubeSkeleton(n), HypercubeSkeleton(n - 1)
        tails, axes = sub.edge_arrays
        for axis, bit in itertools.product(range(1, n + 1), (0, 1)):
            # the bit rule: the facet holds the vertices whose axis digit is bit, in order
            on = [v for v in skel.vertices if v >> (n - axis) & 1 == bit]
            assert skel.facet_vertices(axis, bit) == on
            vertices, rows = skel.facet(axis, bit)
            expected = insert_axis(n, np.arange(sub.num_vertices), axis, bit)
            assert vertices.tolist() == expected.tolist() == on
            big_axes = axes + (axes >= axis)
            assert rows.tolist() == skel.edge_index[expected[tails], big_axes - 1].tolist()
            # both ends of each facet edge lie on the facet
            ends = {*skel.edge_arrays[0][rows].tolist(), *skel.edge_heads[rows].tolist()}
            assert ends <= set(on)


def test_facet_pair_examples():
    assert facet_pair(3, 2) == ([0, 1, 4, 5], [2, 3, 6, 7])
    assert len(facet_pair(4, 4)[0]) == 8
    assert facet_pair(1, 1) == ([0], [1])


@pytest.mark.parametrize("n,axis", [(2, 1), (3, 2), (4, 3), (5, 5)])
def test_facet_pair_partition_and_correspondence(n, axis):
    skel = HypercubeSkeleton(n)
    v0, v1 = facet_pair(n, axis)
    assert sorted(v0 + v1) == list(skel.vertices)
    assert v0 == sorted(v0) and v1 == sorted(v1)
    for a, b in zip(v0, v1):
        assert skel.adjacency_class(a, b) == axis and a < b


def test_two_face_counts():
    # faces(2) includes the 2-cube itself, which count_faces excludes
    assert len(HypercubeSkeleton(2).faces(2)) == 1
    assert len(HypercubeSkeleton(3).faces(2)) == 6
    assert len(HypercubeSkeleton(4).faces(2)) == 24
    with pytest.raises(ValueError):
        HypercubeSkeleton(1).faces(2)


def test_simple_cycle_census():
    assert len(HypercubeSkeleton(2).simple_cycles()) == 1
    by_len = {}
    for c in HypercubeSkeleton(3).simple_cycles():
        by_len[len(c)] = by_len.get(len(c), 0) + 1
    assert by_len == {4: 6, 6: 16, 8: 6}


@pytest.mark.parametrize("n", [2, 3])
def test_cycles_cross_each_facet_pair_evenly(n):
    skel = HypercubeSkeleton(n)
    for cycle in skel.simple_cycles():
        closed = list(cycle) + [cycle[0]]
        for axis in range(1, n + 1):
            crossings = sum(
                1
                for a, b in zip(closed, closed[1:])
                if skel.adjacency_class(a, b) == axis
            )
            assert crossings % 2 == 0


@given(st.integers(1, 8), st.data())
def test_facets_split_the_cube_and_keep_adjacency(n, data):
    axis = data.draw(st.integers(1, n))
    skel, sub = HypercubeSkeleton(n), HypercubeSkeleton(n - 1)
    (v0, rows0), (v1, rows1) = skel.facet(axis, 0), skel.facet(axis, 1)
    # the two facets split the vertices, and the edges not on the axis
    assert sorted(v0.tolist() + v1.tolist()) == list(skel.vertices)
    assert all(v & axis_bit(n, axis) == 0 for v in v0.tolist())
    off_axis = np.flatnonzero(skel.edge_arrays[1] != axis)
    assert sorted(rows0.tolist() + rows1.tolist()) == off_axis.tolist()
    # facet edge k joins the images of its endpoints in the (n-1)-cube
    tails, heads = skel.edge_arrays[0], skel.edge_heads
    assert heads.tolist() == [e.tail | axis_bit(n, e.axis) for e in skel.edges()]
    for verts, rows in ((v0, rows0), (v1, rows1)):
        assert tails[rows].tolist() == verts[sub.edge_arrays[0]].tolist()
        assert heads[rows].tolist() == verts[sub.edge_heads].tolist()


def test_dimension_cap_default_and_override():
    assert MAX_DIMENSION == 12
    with pytest.raises(ValueError):
        HypercubeSkeleton(13)
