"""The batched code against the loop versions in scalar_reference.

Each checker is compared with its own loop version, with exact equality on
every float and array, over conservative skeletons, perturbed ones, and ones
with a single edge scaled by (1 + eps) for eps at and around the tolerance.
The groupoid layer (arrow sets, membership, cores, group validation and
validate_against) is compared the same way over the fixture mixtures and
random mixtures over the 24-element cube rotation group, the orbit sweep
of is_uniform with the core test of every ordered pair, and close_to_any,
which tests the nearest candidate first, with the test of every pair.
The skeleton file writer is compared with json.dumps(indent=2) by exact
string equality, the skeleton reader with its check-by-check loop on
malformed records by exact error text, and the batched potential draws
with drawing one matrix at a time.  Two property tests draw their cases:
close_to_any at the tolerance edge of stacks whose norms span six decades,
and the reader on files damaged by random record edits.
"""
import collections
import itertools
import json
import pathlib
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

import scalar_reference as ref
from ngroupoid import analysis
from ngroupoid.analysis import (
    circuit_steps,
    conservative_oracle,
    core_arrows,
    is_conservative,
    is_uniform,
    path_weight,
    perturb_edge,
    random_composable_chain,
    random_conservative,
)
from ngroupoid.errors import (
    CompositionError,
    ConstructionHalted,
    FormatError,
    GroupValidationError,
)
from ngroupoid.groupoid import ConstituentGroupoid, SymmetryGroup
from ngroupoid.hypercube import HypercubeSkeleton
from ngroupoid.lean import read_in_child
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
from ngroupoid.skeleton import (
    ObjectiveSkeleton,
    build,
    compose,
    dump_skeleton,
    inverse_axis,
    skeleton_from_dict,
    skeleton_from_parts,
    skeleton_to_dict,
    source_facet,
    target_facet,
    unit_skeleton,
)

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


@given(st.integers(2, 5), st.integers(0, 2**32 - 1), st.data())
def test_face_check_matches_reference_on_random_skeletons(n, seed, data):
    # one edge perturbed: by diag(2, 1, 1), or scaled by 1 + eps for eps around the tolerance
    T = random_conservative(n, seed)
    W = T.W.copy()
    k = data.draw(st.integers(0, len(W) - 1))
    if data.draw(st.booleans()):
        W[k] = analysis.PERTURBATION @ W[k]
    else:
        W[k] *= 1 + TOL * 2.0 ** data.draw(st.integers(-3, 3))
    T = ObjectiveSkeleton(n, T.vertices, W)
    rep = is_conservative(T)
    verdict, witnesses, max_dev = ref.is_conservative(T)
    assert (rep.verdict, rep.max_deviation) == (verdict, max_dev)
    assert witness_fields(rep.witnesses) == witness_fields(witnesses)
    assert all(np.array_equal(got.holonomy, want.holonomy)
               for got, want in zip(rep.witnesses, witnesses))


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


@pytest.mark.parametrize("n", range(0, 9))
def test_squares_table_matches_the_face_enumeration(n):
    skel = HypercubeSkeleton(n)
    corner, lo, hi, edges = skel.squares
    got = list(zip(corner.tolist(), zip(lo.tolist(), hi.tolist())))
    assert got == (sorted(ref.squares(skel)) if n >= 2 else [])
    idx, bit = skel.edge_index, skel.axis_bit
    for (c, (i, j)), row in zip(got, edges.tolist()):
        # the two paths from the corner: axis i then j, and axis j then i
        assert row == [idx[c, i - 1], idx[c | bit(i), j - 1], idx[c, j - 1], idx[c | bit(j), i - 1]]


@pytest.mark.parametrize("n", range(1, 6))
def test_facet_operations_match_reference(n):
    for axis in range(1, n + 1):
        A, B = random_composable_chain(n, axis, 2, seed=10 * n + axis)
        assert source_facet(B, axis) == ref.facet(B, axis, 0)
        assert target_facet(B, axis) == ref.facet(B, axis, 1)
        assert inverse_axis(B, axis) == ref.inverse_axis(B, axis)
        assert compose(B, A, axis) == ref.compose(B, A, axis)
        F = source_facet(A, axis)
        assert unit_skeleton(F, axis) == ref.unit_skeleton(F, axis)


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


def close_to_any_cases():
    rng = np.random.default_rng(9)
    stack = random_invertible(rng, 24)
    eps = np.array([0.0, 1e-16, 1e-12, 1e-9, 2e-9, 1e-3, 0.3])[:, None, None]
    ms = np.concatenate([stack[rng.permutation(24)[:7]] * (1 + eps), random_invertible(rng, 6)])
    a, b, c = np.diag([1.0, 2.0, 3.0]), np.diag([1.0, 2.0, 3.0 + 1e-8]), np.diag([1.0, 2.5, 3.0])
    at = rel_distance(a, b)
    eye, d = np.eye(3), np.diag([0.5, 0.0, 0.0])  # eye -+ d: one squared distance, two ratios
    zero = np.zeros((3, 3))
    big = stack * 1e300  # squared norms overflow
    return [
        *(pytest.param(ms, stack, tol, id=f"random-{tol:g}") for tol in (1e-16, 1e-9, 0.5)),
        pytest.param(np.stack([a]), np.stack([c, b]), at, id="at-tolerance"),
        pytest.param(np.stack([a]), np.stack([c, b]), np.nextafter(at, 0.0), id="below-tolerance"),
        pytest.param(np.stack([eye]), np.stack([eye + d, eye - d]), 0.25, id="tie-passing-first"),
        pytest.param(np.stack([eye]), np.stack([eye - d, eye + d]), 0.25, id="tie-failing-first"),
        # 0.05 I is nearer, at ratio 0.95; 10 I is farther, at ratio 0.9
        pytest.param(np.stack([eye]), np.stack([0.05 * eye, 10.0 * eye]), 0.92,
                     id="nearest-fails-farther-passes"),
        pytest.param(np.stack([zero, eye]), np.stack([zero, 2.0 * eye]), 0.5, id="zero-in-stack"),
        pytest.param(np.stack([zero, zero]), np.stack([eye, -eye]), 1.0, id="zero-rows"),
        pytest.param(np.concatenate([big[:7] * (1 + eps), stack[:3]]),
                     np.concatenate([big[7:], stack[3:5]]), 1e-9, id="entries-near-1e300"),
        pytest.param(ms, np.empty((0, 3, 3)), 0.5, id="empty-stack"),
        pytest.param(np.empty((0, 3, 3)), stack, 0.5, id="empty-rows"),
        pytest.param(ms[3], stack, 1e-9, id="single-member"),
        pytest.param(ms[-1], stack, 1e-9, id="single-stranger"),
        pytest.param(ms[:12].reshape(3, 4, 3, 3), stack, 1e-9, id="k-by-m"),
    ]


@pytest.mark.parametrize("ms, stack, tol", close_to_any_cases())
def test_close_to_any_matches_every_pair(ms, stack, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = close_to_any(ms, stack, tol)
        want = (rel_distances(ms[..., None, :, :], stack) <= tol).any(-1)
    assert type(got) is type(want) and got.shape == want.shape
    assert np.array_equal(got, want)


@st.composite
def stack_and_rows(draw):
    """Rows at the tolerance edge of a stack with norms from 1e-3 to 1e3, far rows, and tol.

    An edge row is a stack element moved by tol * (1 + k * 2**-52) times its
    norm, for k in -4..4, straight toward the origin or off that line by a
    drawn amount: its relative distance lies within a few ulps of tol.  Over
    norms this wide, the candidate nearest in squared distance is at times
    not the one within tol (in about one example in ten), and the test of
    every candidate decides.
    """
    tol = draw(st.sampled_from([1e-9, 1e-3, 0.5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    norms = 10.0 ** np.array(draw(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=8)))
    stack = rng.standard_normal((len(norms), 3, 3))
    stack *= (norms / np.linalg.norm(stack, axis=(1, 2)))[:, None, None]
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.booleans()):
            s = stack[draw(st.integers(0, len(stack) - 1))]
            off = draw(st.just(0.0) | st.floats(0.0, 1.0))  # 0: straight toward the origin
            step = off * rng.standard_normal((3, 3)) - s / np.linalg.norm(s)
            t = tol * (1 + draw(st.integers(-4, 4)) * 2.0**-52)
            rows.append(s + t * np.linalg.norm(s) / np.linalg.norm(step) * step)
        else:
            far = rng.standard_normal((3, 3))
            rows.append(far * 10.0 ** draw(st.floats(-3.0, 3.0)) / np.linalg.norm(far))
    return np.array(rows), stack, tol


@given(stack_and_rows())
def test_close_to_any_matches_every_pair_at_the_tolerance_edge(case):
    rows, stack, tol = case
    want = (rel_distances(rows[:, None], stack) <= tol).any(-1)
    assert close_to_any(rows, stack, tol).tolist() == want.tolist()


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
RZ90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


Z4 = [g for g in CUBE if g[2, 2] == 1.0]  # the rotations about the z axis


def random_mixture(seed, n=3, points=4, tolerance=TOL, implant=None, groups=(CUBE,)):
    """Constituents over one placement per point, each implant moved by a
    random cube rotation; some implants are missing, some tilted by 30 deg.
    Constituent i has symmetry group groups[i % len(groups)]."""
    rng = np.random.default_rng(seed)
    base = tuple(f"P{i}" for i in range(points))
    groups = [SymmetryGroup(g) for g in groups]
    K = {p: random_invertible(rng, 1)[0] if implant is None else implant(p) for p in base}
    constituents = []
    for i in range(n):
        implants = {}
        for p in base:
            r = rng.random()
            if r < 0.1:
                continue
            implants[p] = K[p] @ CUBE[rng.integers(len(CUBE))] @ (TILT if r > 0.8 else np.eye(3))
        group = groups[i % len(groups)]
        constituents.append(ConstituentGroupoid(f"c{i}", implants, group))
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
                got = close_to_any(cand, c.arrow_set(X, Y), mix.tolerance)
                assert got == ref.contains_arrow(c, X, Y, cand, mix.tolerance)


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
    # wide tolerances make closeness non-transitive; every set keeps all
    # |G| arrows at every tolerance
    mix = random_mixture(21, points=3, tolerance=tolerance)
    assert_groupoid_matches(mix, members=False)
    c = mix.constituents[0]
    X = next(p for p in mix.base_points if p in c.implants)
    assert len(c.arrow_set(X, X)) == len(c.group)


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
        # 48 and 72 elements: products are tested a few elements at a time
        CUBE + [-g for g in CUBE],                    # the full octahedral group
        CUBE + [2 * g for g in CUBE],                 # inverse missing at element 24
        CUBE + [2 * g for g in CUBE] + [g / 2 for g in CUBE],  # product fails at element 24
        [np.eye(3), RZ90, RZ90.T, TILT],              # product fails before an inverse is missing
        [np.eye(3), TILT, RZ90, RZ90.T],              # inverse missing before a product fails
    ]
    outcomes = []
    for elements in cases:
        want = ref.group_error(elements, tol)
        assert group_outcome(elements, tol) == want
        outcomes.append(want)
    if tol == TOL:
        assert len(set(outcomes)) == 6  # valid plus all five messages
        assert outcomes[-2:] == ["group not closed under product", "group not closed under inverse"]


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


# -- uniformity -------------------------------------------------------------------

def assert_uniformity_matches(mix, core=ref.core_arrows):
    got, want = is_uniform(mix), ref.is_uniform(mix, core)
    assert got.verdict == want.verdict
    assert got.reference_point == want.reference_point
    assert got.defect_pairs == want.defect_pairs
    assert got.constituent_transitivity == want.constituent_transitivity
    assert got.to_dict() == want.to_dict()


@pytest.mark.parametrize("mix", fixture_mixtures(), ids=lambda m: "-".join(m.base_points))
def test_uniformity_matches_reference_on_fixtures(mix):
    assert_uniformity_matches(mix)


@pytest.mark.parametrize("tolerance", [TOL, 1e-3])
@pytest.mark.parametrize("points", [3, 5, 8])
def test_uniformity_matches_reference_on_random_mixtures(points, tolerance):
    # the P^2 loop runs on the library's core, which the groupoid tests above
    # compare with the scalar core bit for bit; the scalar core over all
    # 3,920 pairs would take about 15 s
    kinds = set()
    for seed in range(20):
        mix = random_mixture(seed, points=points, tolerance=tolerance)
        assert_uniformity_matches(mix, core_arrows)
        full = [p for p in mix.base_points if all(p in c.implants for c in mix.constituents)]
        kinds.add((len(full) == points, mix.base_points[0] in full))
    assert {(False, True), (False, False)} <= kinds  # a point or x0 lacks an implant


def linked_pairs(mix, defects):
    pts = mix.base_points
    return {(x, y) for x in pts for y in pts} - set(defects)


def is_groupoid_relation(linked):
    return (all((y, x) in linked for x, y in linked)
            and all((x, z) in linked
                    for (x, y), (y2, z) in itertools.product(linked, repeat=2) if y == y2))


def test_orbit_defects_stay_a_groupoid_at_wide_tolerance():
    # at tolerance 0.1 closeness is not transitive: the P^2 list has x -> y
    # and y -> z linked but not x -> z, while the orbits stay consistent
    mix = random_mixture(17, points=3, tolerance=0.1)
    got, want = is_uniform(mix), ref.is_uniform(mix)
    assert got.verdict == want.verdict
    assert got.defect_pairs != want.defect_pairs
    assert not is_groupoid_relation(linked_pairs(mix, want.defect_pairs))
    assert is_groupoid_relation(linked_pairs(mix, got.defect_pairs))


@pytest.mark.parametrize("tolerance", [1e-16, 0.1, 0.2, 0.3, 0.5])
def test_uniformity_verdict_is_the_reference_row_at_any_tolerance(tolerance):
    # below rounding a self-core can be empty; the seed tests itself, so the
    # verdict stays the x0 row, also for one point, where it is that self-core
    for seed, points in itertools.product(range(10), (1, 2, 5)):
        mix = random_mixture(seed, points=points, tolerance=tolerance)
        assert is_uniform(mix).verdict == ref.is_uniform(mix, core_arrows).verdict


def counted_core(monkeypatch):
    calls = []

    def core(mix, X, Y):
        calls.append((X, Y))
        return core_arrows(mix, X, Y)

    monkeypatch.setattr(analysis, "core_arrows", core)
    return calls


def test_uniform_mixture_costs_one_core_test_per_point(monkeypatch):
    rng = np.random.default_rng(4)
    base = tuple(f"P{i}" for i in range(8))
    K = {p: random_invertible(rng, 1)[0] for p in base}
    group = SymmetryGroup(CUBE)
    mix = MixtureSpec(3, base, tuple(
        ConstituentGroupoid(f"c{i}", {p: K[p] @ CUBE[rng.integers(24)] for p in base}, group)
        for i in range(3)))
    calls = counted_core(monkeypatch)
    assert is_uniform(mix).verdict
    assert calls == [("P0", p) for p in base]


@pytest.mark.parametrize("points", [5, 8])
def test_core_tests_are_at_most_points_times_orbits(monkeypatch, points):
    calls = counted_core(monkeypatch)
    for seed in range(20):
        mix = random_mixture(seed, points=points)
        calls.clear()
        rep = is_uniform(mix)
        linked = linked_pairs(mix, rep.defect_pairs)
        orbit_of = {x: frozenset(y for x2, y in linked if x2 == x) for x, _ in linked}
        seeds = list(dict.fromkeys(X for X, _ in calls))
        assert set(seeds) == {min(o, key=mix.base_points.index) for o in orbit_of.values()}
        assert len(calls) <= points * len(seeds)
        # a later seed never tests a point an earlier seed's orbit took
        assert not any(Y in orbit_of[s] for X, Y in calls for s in seeds[:seeds.index(X)])


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


@pytest.mark.parametrize("n", [*range(1, 9), 11, 12])  # 11 and 12 split the writer
def test_dump_skeleton_matches_json(n):
    T = random_conservative(n, seed=n)
    assert dump_skeleton(T) == ref.dump_skeleton(T)


def test_dump_skeleton_without_edges_matches_json():
    T = source_facet(random_conservative(1, seed=0), 1)
    assert T.n == 0
    assert dump_skeleton(T) == ref.dump_skeleton(T)
    assert '"edges": []' in dump_skeleton(T)


LABELS = [
    [3, -7, 0, 12],
    [0.5, -0.0, 1e16, 2.5e-7],
    [[1, [2, 3]], [], ["a", [0.1]], [[[]]]],
    ['quote "q"', "back\\slash", "ctl \x00\x1f\t\n", "caf\u00e9 \u03c0 \U0001d11e"],
]


@pytest.mark.parametrize("labels", LABELS, ids=["ints", "floats", "nested", "escaped"])
def test_dump_skeleton_labels_match_json(labels):
    T = ObjectiveSkeleton(2, labels, random_conservative(2, seed=5).W)
    assert dump_skeleton(T) == ref.dump_skeleton(T)


def test_dump_skeleton_extreme_weights_match_json():
    entries = [-0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
               1e16, 1e-7, 0.1, 3.0, -2.0]
    W = np.tile(np.eye(3), (12, 1, 1))  # unit upper triangles: det 1 whatever sits above
    for k in range(12):
        W[k, 0, 1], W[k, 0, 2], W[k, 1, 2] = (entries[(k + j) % 9] for j in range(3))
    T = ObjectiveSkeleton(3, range(8), W)
    text = dump_skeleton(T)
    assert text == ref.dump_skeleton(T)
    for x in entries:
        assert f"        {x!r}," in text


# -- skeleton reader and potential draws ----------------------------------------------

@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("n", [1, 3, 6, 10, 12])
def test_random_invertible_matches_drawing_one_at_a_time(n, seed):
    batch_rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    batch = random_invertible(batch_rng, 1 << n)
    loop = np.array([ref.random_invertible(loop_rng) for _ in range(1 << n)])
    assert batch.shape == (1 << n, 3, 3)
    assert np.array_equal(batch, loop)
    assert batch_rng.integers(2**63) == loop_rng.integers(2**63)


class RecordDict(dict):
    """A dict subclass as an edge record."""


def _set(rec, **fields):
    rec.update(fields)


def _nested(weight):
    """A weight of 9 numbers as a 3x3 nested list."""
    return [weight[:3], weight[3:6], weight[6:]]


# each case edits the edges of a 3-skeleton's document in place; all but
# the ACCEPTED ones make it malformed
ACCEPTED = {"valid", "reordered", "dict subclass", "integers beyond 2**53", "extreme floats",
            "nested weights", "flat and nested weights"}
RECORD_CASES = {
    "valid": lambda e: None,
    "reordered": lambda e: e.reverse(),
    "nested weights": lambda e: [_set(r, weight=_nested(r["weight"])) for r in e],
    "flat and nested weights": lambda e: [_set(r, weight=_nested(r["weight"])) for r in e[1::2]],
    "ragged nested weight": lambda e: _set(e[3], weight=[[1, 2, 3], [4, 5], [6, 7, 8, 9]]),
    "integer above 1e308 in a nested weight": lambda e: _set(
        e[3], weight=[[1, 0, 0], [0, 10**309, 0], [0, 0, 1]]),
    "nested singular weight before a fault": lambda e: (
        _set(e[1], weight=[[1, 2, 3], [2, 4, 6], [0, 0, 1]]), _set(e[3], axis=9)),
    # values whose rounding to float64, or whose sign or subnormal bits, a reader could lose
    "integers beyond 2**53": lambda e: _set(
        e[3], weight=[2**53 + 1, 0, 0, 0, 2**64 + 3, 0, 0, 0, -(2**63) - 1]),
    "extreme floats": lambda e: _set(
        e[3], weight=[1.0, -0.0, 5e-324, -0.0, 1.0, 1.7976931348623157e308, 0.0, -0.0, 1.0]),
    "list record": lambda e: e.__setitem__(2, [e[2]["tail"], e[2]["axis"], e[2]["weight"]]),
    "null record": lambda e: e.__setitem__(5, None),
    "dict subclass": lambda e: e.__setitem__(2, RecordDict(e[2])),
    "defaultdict without weight": lambda e: e.__setitem__(
        2, collections.defaultdict(list, tail=e[2]["tail"], axis=e[2]["axis"])),
    "missing tail": lambda e: e[2].pop("tail"),
    "missing axis": lambda e: e[2].pop("axis"),
    "missing weight": lambda e: e[2].pop("weight"),
    "bool tail": lambda e: _set(e[2], tail=False),
    "bool axis": lambda e: _set(e[2], axis=True),
    "float tail": lambda e: _set(e[2], tail=0.0),
    "float axis": lambda e: _set(e[2], axis=2.0),
    "string axis": lambda e: _set(e[2], axis="2"),
    "huge tail": lambda e: _set(e[2], tail=10**30),
    "huge axis": lambda e: _set(e[2], axis=10**30),
    "negative tail": lambda e: _set(e[2], tail=-1),
    "negative tail, bit clear from the end": lambda e: _set(e[2], tail=-2, axis=3),
    "axis 0": lambda e: _set(e[2], axis=0),
    "axis above n": lambda e: _set(e[2], axis=4),
    "tail and axis out of range": lambda e: _set(e[2], tail=8, axis=4),
    "tail out of range": lambda e: _set(e[2], tail=8),
    "tail with its axis bit": lambda e: _set(e[2], tail=4, axis=1),
    "duplicate appended": lambda e: e.append(dict(e[0])),
    "duplicate in place": lambda e: e.__setitem__(3, dict(e[0])),
    "bad weight before a fault": lambda e: (_set(e[1], weight=[0.0] * 9), _set(e[3], axis=9)),
    "short weight before a fault": lambda e: (_set(e[1], weight=[1.0] * 8), e.append(dict(e[0]))),
    "weights of 8 and 10 entries": lambda e: (_set(e[1], weight=e[1]["weight"][:8]),
                                              _set(e[2], weight=e[2]["weight"] + [1.0])),
    "bad weight after a fault": lambda e: (_set(e[1], axis=9), _set(e[3], weight=[0.0] * 9)),
    "bad weight at the fault": lambda e: _set(e[2], tail=4, axis=1, weight=[0.0] * 9),
    "bad weight, no fault": lambda e: _set(e[4], weight=[1.0] * 9),
    # file order, not edge order, picks the bad weight named: edges[9] comes first by edge
    "two bad weights, records reversed": lambda e: (
        e.reverse(), _set(e[2], weight=[0.0] * 9), _set(e[9], weight=[1.0] * 9)),
    "bad weight, last edge missing": lambda e: (_set(e[4], weight=[1.0] * 9), e.pop()),
    "first edge missing": lambda e: e.pop(0),
    "last edge missing": lambda e: e.pop(),
    "no edges": lambda e: e.clear(),
}


def _read(reader, doc):
    try:
        return reader(doc)
    except FormatError as exc:
        return str(exc)


def read_as_check(doc):
    """The skeleton in doc as check reads it: from a file, through read_in_child's getter."""
    with tempfile.TemporaryDirectory() as directory:
        path = str(pathlib.Path(directory) / "skeleton.json")
        pathlib.Path(path).write_text(json.dumps(doc), encoding="utf-8")
        with read_in_child(path) as read:
            return skeleton_from_parts(*read())


@pytest.mark.parametrize("case", RECORD_CASES)
def test_reader_matches_reference_on_edge_records(case):
    doc = skeleton_to_dict(random_conservative(3, seed=3))
    RECORD_CASES[case](doc["edges"])
    got, want = _read(skeleton_from_dict, doc), _read(ref.skeleton_from_dict, doc)
    as_check = _read(read_as_check, doc)
    assert got == want
    assert as_check == want
    assert isinstance(got, str) == (case not in ACCEPTED)
    if case in ACCEPTED:  # == holds for -0.0 and 0.0; the bits must match as well
        assert got.W.tobytes() == as_check.W.tobytes() == want.W.tobytes()


BAD_WEIGHTS = {
    "nan": lambda w: w[:4] + [float("nan")] + w[5:],
    "inf": lambda w: w[:4] + [float("-inf")] + w[5:],
    "string": lambda w: w[:4] + ["1.0"] + w[5:],
    "8 entries": lambda w: w[:8],
    "singular": lambda w: w[:6] + w[3:6],  # two equal rows
    "nested": _nested,
    "ragged nested": lambda w: [w[:3], w[3:5], w[5:]],
}


@st.composite
def record_edits(draw, edges):
    """One edit of an edge list in place: drop, repeat or swap records, retype or spoil one."""
    if not edges:
        return
    i, j = draw(st.integers(0, len(edges) - 1)), draw(st.integers(0, len(edges) - 1))
    kind = draw(st.sampled_from(["drop", "repeat", "swap", "retype", "weight"]))
    if kind == "drop":
        del edges[i]
    elif kind == "repeat":
        edges.insert(j, dict(edges[i]))
    elif kind == "swap":
        edges[i], edges[j] = edges[j], edges[i]
    elif kind == "retype":
        rec, key = edges[i], draw(st.sampled_from(["tail", "axis"]))
        retype = draw(st.sampled_from([str, float, bool, lambda v: None]))
        rec[key] = retype(rec[key]) if type(rec[key]) is int else None  # retyped before
    else:
        spoil = BAD_WEIGHTS[draw(st.sampled_from(list(BAD_WEIGHTS)))]
        edges[i]["weight"] = spoil(edges[i]["weight"])


@given(st.integers(1, 3), st.integers(0, 3), st.data())
def test_reader_matches_reference_on_damaged_files(n, seed, data):
    doc = skeleton_to_dict(random_conservative(n, seed=seed))
    for _ in range(data.draw(st.integers(1, 4))):
        data.draw(record_edits(doc["edges"]))
    want = _read(ref.skeleton_from_dict, doc)
    assert _read(skeleton_from_dict, doc) == want
    assert _read(read_as_check, doc) == want
