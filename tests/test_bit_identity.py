"""The batched checkers against the per-face, per-edge loops in scalar_reference.

Each checker is compared with its own loop version, with exact equality on
every float and array, over conservative skeletons, perturbed ones, and ones
with a single edge scaled by (1 + eps) for eps at and around the tolerance.
"""
import numpy as np
import pytest

import scalar_reference as ref
from ngroupoid.analysis import (
    conservative_oracle,
    face2_commutes,
    is_conservative,
    perturb_edge,
    random_composable_chain,
    random_conservative,
    vertex_potential,
)
from ngroupoid.errors import CompositionError
from ngroupoid.hypercube import HypercubeSkeleton
from ngroupoid.matrices import DEFAULT_TOL as TOL
from ngroupoid.skeleton import ObjectiveSkeleton, compose

DIMENSIONS = range(2, 9)


def population(n):
    """Conservative, perturbed and single-edge (1 + eps)-scaled skeletons."""
    rng = np.random.default_rng(1000 + n)
    T = random_conservative(n, rng)
    out = [T, perturb_edge(T, rng)[0]]
    for eps in (TOL / 10, TOL, 10 * TOL):
        W = T.W.copy()
        W[rng.integers(len(W))] *= 1 + eps
        out.append(ObjectiveSkeleton.from_array(n, T.vertices, W))
    return out


def witness_fields(witnesses):
    return [(w.corner, w.axes, w.deviation) for w in witnesses]


@pytest.mark.parametrize("n", DIMENSIONS)
def test_face_check_matches_reference(n):
    verdicts = set()
    for T in population(n):
        rep = is_conservative(T)
        verdict, witnesses, max_dev = ref.is_conservative(T)
        assert rep.verdict == verdict
        assert rep.max_deviation == max_dev
        assert witness_fields(rep.witnesses) == witness_fields(witnesses)
        for got, want in zip(rep.witnesses, witnesses):
            assert np.array_equal(got.holonomy, want.holonomy)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", [2, 3, 4])
def test_single_face_matches_reference(n):
    for T in population(n):
        for sq in T.skel.two_faces():
            ok, hol = face2_commutes(T, sq)
            ref_ok, ref_hol = ref.face2_commutes(T, sq)
            assert ok == ref_ok
            assert np.array_equal(hol, ref_hol)


@pytest.mark.parametrize("n", DIMENSIONS)
def test_potential_check_matches_reference(n):
    verdicts = set()
    for T in population(n):
        verdict = ref.conservative_oracle(T)
        assert conservative_oracle(T) == verdict
        for got, want in zip(vertex_potential(T), ref.vertex_potential(T)):
            assert np.array_equal(got, want)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", range(1, 9))
def test_spanning_tree_is_the_breadth_first_tree(n):
    skel = HypercubeSkeleton(n)
    assert set(skel.spanning_tree()) == set(ref.bfs_tree(skel))
    tree = set(skel.spanning_tree())
    assert skel.cotree_edges() == tuple(e for e in skel.edges() if e not in tree)


@pytest.mark.parametrize("n,axis", [(2, 1), (3, 2), (4, 4), (6, 2)])
def test_glue_error_matches_reference(n, axis):
    A, B = random_composable_chain(n, axis, 2, seed=n)
    rng = np.random.default_rng(n)
    tails, axes = B.skel.edge_arrays
    facet = np.flatnonzero((tails & B.skel.axis_bit(axis) == 0) & (axes != axis))
    for eps in (TOL / 10, TOL, 10 * TOL, 1e-3):
        W = B.W.copy()
        W[rng.choice(facet, size=min(3, len(facet)), replace=False)] *= 1 + eps
        B_bad = ObjectiveSkeleton.from_array(n, B.vertices, W)
        want = ref.glue_error(B_bad, A, axis)
        if want is None:
            compose(B_bad, A, axis)
            continue
        with pytest.raises(CompositionError) as exc:
            compose(B_bad, A, axis)
        assert str(exc.value) == want
