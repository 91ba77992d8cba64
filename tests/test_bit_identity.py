"""The batched code against the loop versions in scalar_reference.

Each checker is compared with its own loop version, with exact equality on
every float and array, over conservative skeletons, perturbed ones, and ones
with a single edge scaled by (1 + eps) for eps at and around the tolerance.
The groupoid layer (arrow sets, membership, cores, group validation and
validate_against) is compared the same way over the fixture mixtures and
random mixtures over the 24-element cube rotation group.
"""
import itertools
import pathlib

import numpy as np
import pytest

import scalar_reference as ref
from ngroupoid import analysis
from ngroupoid.analysis import (
    circuit_steps,
    conservative_oracle,
    core_arrows,
    is_conservative,
    path_weight,
    perturb_edge,
    random_composable_chain,
    random_conservative,
)
from ngroupoid.errors import CompositionError, ConstructionHalted, GroupValidationError
from ngroupoid.groupoid import ConstituentGroupoid, SymmetryGroup
from ngroupoid.hypercube import HypercubeSkeleton
from ngroupoid.matrices import DEFAULT_TOL as TOL
from ngroupoid.matrices import (
    close_to_any,
    identity_deviation,
    identity_deviations,
    random_invertible,
    rel_distance,
    rel_distances,
)
from ngroupoid.mixture import MixtureSpec, load_mixture
from ngroupoid.skeleton import ObjectiveSkeleton, build, compose

DIMENSIONS = range(2, 9)


def population(n):
    """Conservative, perturbed and single-edge (1 + eps)-scaled skeletons."""
    rng = np.random.default_rng(1000 + n)
    T = random_conservative(n, rng)
    out = [T, perturb_edge(T, rng)[0]]
    for eps in (TOL / 10, TOL, 10 * TOL):
        W = T.W.copy()
        W[rng.integers(len(W))] *= 1 + eps
        out.append(ObjectiveSkeleton(n, T.vertices, W))
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


@pytest.mark.parametrize("n", DIMENSIONS)
def test_potential_check_matches_reference(n):
    verdicts = set()
    for T in population(n):
        verdict = ref.conservative_oracle(T)
        assert conservative_oracle(T) == verdict
        for got, want in zip(analysis._potential(T), ref.vertex_potential(T)):
            assert np.array_equal(got, want)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("n", range(1, 9))
def test_spanning_tree_is_the_breadth_first_tree(n):
    skel = HypercubeSkeleton(n)
    assert set(skel.spanning_tree()) == set(ref.bfs_tree(skel))


@pytest.mark.parametrize("n,axis", [(2, 1), (3, 2), (4, 4), (6, 2)])
def test_glue_error_matches_reference(n, axis):
    A, B = random_composable_chain(n, axis, 2, seed=n)
    rng = np.random.default_rng(n)
    tails, axes = B.skel.edge_arrays
    facet = np.flatnonzero((tails & B.skel.axis_bit(axis) == 0) & (axes != axis))
    for eps in (TOL / 10, TOL, 10 * TOL, 1e-3):
        W = B.W.copy()
        W[rng.choice(facet, size=min(3, len(facet)), replace=False)] *= 1 + eps
        B_bad = ObjectiveSkeleton(n, B.vertices, W)
        want = ref.glue_error(B_bad, A, axis)
        if want is None:
            compose(B_bad, A, axis)
            continue
        with pytest.raises(CompositionError) as exc:
            compose(B_bad, A, axis)
        assert str(exc.value) == want


def test_rel_distance_matches_unscaled_formula():
    rng = np.random.default_rng(7)
    for scale in (1e-3, 1.0, 1e3, 1e100):
        a = rng.uniform(-1.0, 1.0, (200, 3, 3)) * scale
        near = a * (1 + rng.uniform(-1e-8, 1e-8, a.shape))
        for b in (near, rng.uniform(-1.0, 1.0, a.shape) * scale, np.zeros_like(a)):
            want = [ref.rel_distance(x, y) for x, y in zip(a, b)]
            assert rel_distances(a, b).tolist() == want
            assert [rel_distance(x, y) for x, y in zip(a, b)] == want
    assert rel_distance(np.zeros((3, 3)), np.zeros((3, 3))) == 0.0


def test_rel_distance_survives_overflowing_squares():
    rng = np.random.default_rng(8)
    a = rng.uniform(-1.0, 1.0, (50, 3, 3))
    b = a * (1 + rng.uniform(-1e-6, 1e-6, a.shape))
    big = 2.0 ** 700  # its square overflows; the power of two keeps the ratio exact
    assert rel_distances(a * big, b * big).tolist() == rel_distances(a, b).tolist()


# -- groupoid layer --------------------------------------------------------------

DATA = pathlib.Path(__file__).parent / "data"


def cube_rotations():
    """The 24 signed permutation matrices with determinant +1, identity first."""
    out = []
    for perm in itertools.permutations(range(3)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            m = np.zeros((3, 3))
            m[range(3), perm] = signs
            if np.linalg.det(m) > 0:
                out.append(m)
    return out


CUBE = cube_rotations()
C30, S30 = np.cos(np.pi / 6), np.sin(np.pi / 6)
TILT = np.array([[C30, -S30, 0.0], [S30, C30, 0.0], [0.0, 0.0, 1.0]])  # not in CUBE


Z4 = [g for g in CUBE if g[2, 2] == 1.0]  # the rotations about the z axis


def random_mixture(seed, n=3, points=4, tolerance=TOL, implant=None, groups=(CUBE,)):
    """Constituents over one placement per point, each implant moved by a
    random cube rotation; some implants are missing, some tilted by 30 deg.
    Constituent i has symmetry group groups[i % len(groups)]."""
    rng = np.random.default_rng(seed)
    base = tuple(f"P{i}" for i in range(points))
    groups = [SymmetryGroup(g) for g in groups]
    K = {p: random_invertible(rng) if implant is None else implant(p) for p in base}
    constituents = []
    for i in range(n):
        implants = {}
        for p in base:
            r = rng.random()
            if r < 0.1:
                continue
            implants[p] = K[p] @ CUBE[rng.integers(len(CUBE))] @ (TILT if r > 0.8 else np.eye(3))
        group = groups[i % len(groups)]
        constituents.append(ConstituentGroupoid(f"c{i}", base, implants, group, tolerance))
    return MixtureSpec(n, base, tuple(constituents), tolerance)


def fixture_mixtures():
    return [load_mixture(str(p)) for p in sorted(DATA.glob("mixture_*.json"))]


def assert_groupoid_matches(mix, members=True):
    pts = mix.base_points
    for X, Y in itertools.product(pts, repeat=2):
        firsts = []
        for c in mix.constituents:
            got, want = c.arrow_set(X, Y), ref.arrow_set(c, X, Y)
            assert got.shape == (len(want), 3, 3)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
            firsts += want[:1]
        core, want = core_arrows(mix, X, Y).arrows, ref.core_arrows(mix, X, Y)
        assert isinstance(core, list) and len(core) == len(want)
        assert all(np.array_equal(g, w) for g, w in zip(core, want))
        if members:
            for w, eps, c in itertools.product(firsts, (0.0, TOL / 2, TOL, 2 * TOL), mix.constituents):
                cand = w * (1 + eps)
                got = close_to_any(cand, c.arrow_set(X, Y), c.tolerance)
                assert got == ref.contains_arrow(c, X, Y, cand)


@pytest.mark.parametrize("mix", fixture_mixtures(), ids=lambda m: "-".join(m.base_points))
def test_groupoid_matches_reference_on_fixtures(mix):
    assert_groupoid_matches(mix)


@pytest.mark.parametrize("seed", range(4))
def test_groupoid_matches_reference_on_cube_mixtures(seed):
    # from seed 2 on, the middle constituent has the 4-element subgroup, so
    # the smallest arrow set is not the first constituent's
    mix = random_mixture(seed, groups=(CUBE,) if seed < 2 else (CUBE, Z4))
    assert_groupoid_matches(mix, members=seed == 0)
    sizes = {len(core_arrows(mix, X, Y).arrows) for X in mix.base_points for Y in mix.base_points}
    assert 0 in sizes and (24 if seed < 2 else 4) in sizes


def test_groupoid_matches_reference_with_commuting_implants():
    # scalar implants commute with the whole group, diag(1, 1, 2) with the
    # eight rotations that keep the z axis
    shapes = [2.0 * np.eye(3), np.diag([1.0, 1.0, 2.0]), 3.0 * np.eye(3), np.diag([1.0, 1.0, 2.0])]
    mix = random_mixture(11, implant=lambda p: shapes[int(p[1:])])
    assert_groupoid_matches(mix, members=False)


@pytest.mark.parametrize("tolerance", [0.5, 1.0, 1.3, 10.0])
def test_arrow_set_dedup_matches_reference(tolerance):
    # wide tolerances make closeness non-transitive; 10 collapses the coset
    mix = random_mixture(21, points=3, tolerance=tolerance)
    assert_groupoid_matches(mix, members=False)
    if tolerance == 10.0:
        c = mix.constituents[0]
        X = next(p for p in mix.base_points if p in c.implants)
        assert len(c.arrow_set(X, X)) == 1


def group_outcome(elements, tol):
    try:
        SymmetryGroup(elements, tol=tol)
    except GroupValidationError as exc:
        return str(exc)
    return None


CLOSEST = min(ref.rel_distance(g, h) for g, h in itertools.combinations(CUBE, 2))


@pytest.mark.parametrize("tol", [TOL, 1e-3, 1.0, CLOSEST, 10.0])
def test_group_validation_matches_reference(tol):
    rng = np.random.default_rng(5)
    wobble = [g.copy() for g in CUBE]
    wobble[7] = wobble[7] * (1 + 3 * TOL)
    cases = [
        [],
        CUBE,
        CUBE[:12],                                    # not closed
        CUBE[1:],                                     # no identity
        [-g for g in CUBE],                           # no identity, not closed
        CUBE + [CUBE[5]],                             # duplicate
        CUBE[:1] + [CUBE[5] @ TILT] + CUBE[2:],       # inverse missing first
        wobble,
        [CUBE[i] for i in rng.permutation(24)],
        [np.eye(3), np.diag([1.0, -1.0, -1.0]), np.diag([-1.0, 1.0, -1.0])],
    ]
    outcomes = set()
    for elements in cases:
        want = ref.group_error(elements, tol)
        assert group_outcome(elements, tol) == want
        outcomes.add(want)
    if tol == TOL:
        assert len(outcomes) == 6  # valid plus all five messages


def test_validate_against_matches_reference():
    mix = random_mixture(3, points=4)
    full = [p for p in mix.base_points if all(p in c.implants for c in mix.constituents)]
    rng = np.random.default_rng(3)
    vertices = [full[i] for i in rng.integers(len(full), size=8)]
    T = build(mix, vertices)
    assert ref.validate_error(T, mix) is None
    T.validate_against(mix)
    for eps in (TOL / 2, 2 * TOL, 1e-3):
        W = T.W.copy()
        W[rng.choice(len(W), size=3, replace=False)] *= 1 + eps
        bad = ObjectiveSkeleton(T.n, T.vertices, W)
        want = ref.validate_error(bad, mix)
        if want is None:
            bad.validate_against(mix)
            continue
        with pytest.raises(ValueError) as exc:
            bad.validate_against(mix)
        assert str(exc.value) == want


# -- walks, construction and deviations ---------------------------------------------

def random_walk(skel, rng):
    """A walk of 0..30 random steps from a random vertex."""
    walk = [int(rng.integers(skel.num_vertices))]
    for _ in range(rng.integers(31)):
        walk.append(walk[-1] ^ skel.axis_bit(int(rng.integers(1, skel.n + 1))))
    return walk


@pytest.mark.parametrize("n", range(2, 7))
def test_path_weight_matches_reference(n):
    rng = np.random.default_rng(300 + n)
    for T in population(n):
        walks = [random_walk(T.skel, rng) for _ in range(50)]
        if n == 3:
            walks += [circuit_steps(T.skel, c) for c in T.skel.simple_cycles()]
        for walk in walks:
            assert np.array_equal(path_weight(T, walk), ref.path_weight(T, walk))


def build_outcome(build_fn, mix, vertices):
    try:
        T = build_fn(mix, vertices)
    except ConstructionHalted as exc:
        return str(exc), exc.edge, exc.axis, exc.source, exc.target
    return T.vertices, T.W.tobytes()


@pytest.mark.parametrize("mix", fixture_mixtures() + [random_mixture(s) for s in range(3)],
                         ids=lambda m: "-".join(map(str, m.base_points)))
def test_build_matches_reference(mix):
    # every other tuple uses only points with an implant in every constituent
    full = [p for p in mix.base_points if all(p in c.implants for c in mix.constituents)]
    rng = np.random.default_rng(len(mix.base_points))
    halted = set()
    for k in range(40):
        pool = full if k % 2 else mix.base_points
        vertices = [pool[i] for i in rng.integers(len(pool), size=2 ** mix.n)]
        want = build_outcome(ref.build, mix, vertices)
        assert build_outcome(build, mix, vertices) == want
        halted.add(isinstance(want[0], str))
    assert halted == ({False} if len(full) == len(mix.base_points) else {True, False})


def test_identity_deviation_matches_unscaled_formula():
    rng = np.random.default_rng(9)
    ms = rng.choice((-1.0, 1.0), (20000, 3, 3)) * 10.0 ** rng.uniform(-12, 12, (20000, 3, 3))
    want = [ref.identity_deviation_unscaled(m) for m in ms]
    assert identity_deviations(ms).tolist() == want
    assert [identity_deviation(m) for m in ms] == want
    huge = identity_deviation(1e200 * np.eye(3))  # squares overflow; no warning either
    assert huge == identity_deviations(1e200 * np.eye(3))[0] and np.isfinite(huge)
