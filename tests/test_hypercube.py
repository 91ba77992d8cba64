import itertools

import pytest
from hypothesis import given, strategies as st

from ngroupoid.hypercube import (
    MAX_DIMENSION,
    HypercubeSkeleton,
    axis_bit,
    count_faces,
    insert_axis,
    strip_axis,
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
            in_deg[skel.head(e)] += 1
        assert sum(out_deg.values()) == n * 2 ** (n - 1)
        assert in_deg[0] == 0
        for v in skel.vertices:
            assert in_deg[v] + out_deg[v] == n


def test_facet_pair_examples():
    s3 = HypercubeSkeleton(3)
    fp = s3.facet_pair(2)
    assert s3.face_vertices(fp.facet0) == [0, 1, 4, 5]
    assert s3.face_vertices(fp.facet1) == [2, 3, 6, 7]

    s4 = HypercubeSkeleton(4)
    assert len(s4.facet_pair(4).correspondence) == 8

    s1 = HypercubeSkeleton(1)
    fp1 = s1.facet_pair(1)
    assert s1.face_vertices(fp1.facet0) == [0]
    assert s1.face_vertices(fp1.facet1) == [1]


@pytest.mark.parametrize("n,axis", [(2, 1), (3, 2), (4, 3), (5, 5)])
def test_facet_pair_partition_and_correspondence(n, axis):
    skel = HypercubeSkeleton(n)
    fp = skel.facet_pair(axis)
    v0 = skel.face_vertices(fp.facet0)
    v1 = skel.face_vertices(fp.facet1)
    assert sorted(v0 + v1) == list(skel.vertices)
    assert sorted(fp.correspondence) == v0
    assert sorted(fp.correspondence.values()) == v1
    for a, b in fp.correspondence.items():
        assert skel.adjacency_class(a, b) == axis


def test_two_face_counts():
    # faces(2) includes the 2-cube itself, which count_faces excludes
    assert len(HypercubeSkeleton(2).faces(2)) == 1
    assert len(HypercubeSkeleton(3).faces(2)) == 6
    assert len(HypercubeSkeleton(4).faces(2)) == 24
    with pytest.raises(ValueError):
        HypercubeSkeleton(1).faces(2)


def test_spanning_tree_sizes():
    assert len(HypercubeSkeleton(1).spanning_tree()) == 1
    assert len(HypercubeSkeleton(2).spanning_tree()) == 3
    s3 = HypercubeSkeleton(3)
    assert len(s3.spanning_tree()) == 7
    assert s3.num_edges - len(s3.spanning_tree()) == 5  # cycle rank E - V + 1


def test_spanning_tree_discovery_order():
    # every tree edge must be met tail-first when walked in order
    for n in range(1, 6):
        skel = HypercubeSkeleton(n)
        seen = {0}
        for e in skel.spanning_tree():
            assert e.tail in seen
            head = skel.head(e)
            assert head not in seen
            seen.add(head)
        assert seen == set(skel.vertices)


def test_spanning_tree_deterministic():
    a = HypercubeSkeleton(4).spanning_tree()
    b = HypercubeSkeleton(4).spanning_tree()
    assert a == b


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


@given(st.integers(1, 10), st.data())
def test_strip_insert_roundtrip(n, data):
    axis = data.draw(st.integers(1, n))
    v = data.draw(st.integers(0, 2 ** n - 1))
    bit = 1 if v & axis_bit(n, axis) else 0
    w = strip_axis(n, v, axis)
    assert 0 <= w < 2 ** (n - 1)
    assert insert_axis(n, w, axis, bit) == v


def test_dimension_cap_default_and_override():
    assert MAX_DIMENSION == 12
    with pytest.raises(ValueError):
        HypercubeSkeleton(13)
