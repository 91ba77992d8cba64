import itertools

import numpy as np
import pytest

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
    skeleton_from_potential,
    theorem_sweep,
)
from ngroupoid.errors import PathError, UnknownBasePointError
from ngroupoid.hypercube import Edge, HypercubeSkeleton
from ngroupoid.matrices import identity_deviation, rel_distance
from ngroupoid.mixture import load_mixture
from ngroupoid.skeleton import ObjectiveSkeleton, compose


def all_unit(n):
    skel = HypercubeSkeleton(n)
    vertices = tuple("X" for _ in skel.vertices)
    return ObjectiveSkeleton(n, vertices, np.tile(np.eye(3), (skel.num_edges, 1, 1)))


def test_path_weight_empty_is_identity():
    T = random_conservative(2, seed=0)
    assert np.array_equal(path_weight(T, []), np.eye(3))
    assert np.array_equal(path_weight(T, [3]), np.eye(3))


def test_path_weight_single_edge():
    T = random_conservative(2, seed=0)
    assert np.array_equal(path_weight(T, [0, 2]), T.weight(Edge(0, 1)))


def test_path_weight_cancellation():
    T = random_conservative(3, seed=1)
    w = path_weight(T, [0, 2, 0])  # along Edge(0, 2) and back
    assert identity_deviation(w) < 1e-12


def test_path_weight_order():
    T = random_conservative(2, seed=5)
    expect = T.weight(Edge(1, 1)) @ T.weight(Edge(0, 2))
    assert np.allclose(path_weight(T, [0, 1, 3]), expect)


def test_path_weight_rejects_broken_chain():
    T = random_conservative(2, seed=0)
    with pytest.raises(PathError):
        path_weight(T, [0, 3])
    with pytest.raises(ValueError, match="^vertex 4 out of range for dimension 2$"):
        path_weight(T, [0, 1 << T.n])


def test_face2_all_units_commutes():
    rep = is_conservative(all_unit(2))
    assert rep.verdict and not rep.witnesses
    assert rep.max_deviation == 0.0


def test_face2_potential_commutes():
    rep = is_conservative(random_conservative(2, seed=11))
    assert rep.verdict and not rep.witnesses
    assert rep.max_deviation < 1e-12


def test_face2_doubled_edge_fails():
    T = random_conservative(2, seed=12)
    W = T.W.copy()
    k = T.skel.edge_index[0, 0]  # the axis-1 edge at the corner
    D = np.diag([2.0, 1.0, 1.0])
    W[k] = W[k] @ D
    bad = ObjectiveSkeleton(2, T.vertices, W)
    rep = is_conservative(bad)
    assert not rep.verdict
    [w] = rep.witnesses
    assert (w.corner, w.axes) == (0, (1, 2))
    # right-multiplying the corner edge conjugates the perturbation away:
    # holonomy = L' R^-1 = (w_J' w_I D) (w_J' w_I)^-1
    base = T.weight(Edge(2, 2)) @ T.weight(Edge(0, 1))
    assert np.allclose(w.holonomy, base @ D @ np.linalg.inv(base))
    assert w.deviation == rep.max_deviation


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_potential_skeletons_conservative(n):
    T = random_conservative(n, seed=n)
    rep = is_conservative(T)
    assert rep.verdict and not rep.witnesses
    assert rep.max_deviation < 1e-10
    assert conservative_oracle(T)


def test_all_unit_conservative_with_identity_potential():
    T = all_unit(3)
    assert is_conservative(T).verdict
    assert conservative_oracle(T)
    for phi in analysis._potential(T):
        assert np.allclose(phi, np.eye(3))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_perturbed_witnesses_are_the_incident_faces(n):
    T = random_conservative(n, seed=100 + n)
    P, edge = perturb_edge(T, seed=n)
    rep = is_conservative(P)
    assert not rep.verdict
    assert len(rep.witnesses) == n - 1
    # the square on the edge and another axis has its corner where that axis is 0
    incident = {
        (edge.tail & ~P.skel.axis_bit(other), tuple(sorted((edge.axis, other))))
        for other in range(1, n + 1) if other != edge.axis
    }
    assert {(w.corner, w.axes) for w in rep.witnesses} == incident
    assert all(w.deviation > 1e-2 for w in rep.witnesses)
    assert not conservative_oracle(P)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0, -1, True])
def test_library_rejects_bad_tolerance(tol):
    T = ObjectiveSkeleton(3, ["X"] * 8, random_conservative(3, seed=1).W)
    other = ObjectiveSkeleton(3, ["X"] * 8, random_conservative(3, seed=2).W)
    calls = [
        lambda: is_conservative(T, tol),
        lambda: conservative_oracle(T, tol),
        lambda: compose(other, T, 1, tol=tol),  # facets differ: no tolerance may glue them
        lambda: T.close_to(T, tol),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="^tolerance must be a finite number > 0"):
            call()
    assert is_conservative(T, np.float64(1e-9)).verdict  # numpy scalars are numbers


def test_checkers_agree_on_sweeps():
    for n in (2, 3, 4):
        res = theorem_sweep(n, 25, seed=n)
        assert res["agree_conservative"] == 25
        assert res["agree_perturbed"] == 25
        assert res["max_deviation_conservative"] < 1e-8


def test_exhaustive_cycles_identity_at_n3():
    T = random_conservative(3, seed=9)
    assert conservative_oracle(T)
    for cycle in T.skel.simple_cycles():
        w = path_weight(T, circuit_steps(T.skel, cycle))
        assert identity_deviation(w) < 1e-8


def test_path_independence_under_conservativity():
    T = random_conservative(3, seed=23)
    top = T.skel.num_vertices - 1
    results = []
    for order in itertools.permutations((1, 2, 3)):
        seq = [0]
        for axis in order:
            seq.append(seq[-1] | T.skel.axis_bit(axis))
        results.append(path_weight(T, seq))
    assert len(results) == 6  # at least 5 distinct paths for one vertex pair
    for w in results[1:]:
        assert rel_distance(w, results[0]) < 1e-9


@pytest.mark.parametrize("n", [2, 3])
def test_composition_preserves_conservativity(n):
    for axis in range(1, n + 1):
        for seed in range(5):
            A, B = random_composable_chain(n, axis, 2, seed=seed)
            assert is_conservative(A).verdict and is_conservative(B).verdict
            assert is_conservative(compose(B, A, axis)).verdict


def test_random_conservative_deterministic():
    a = random_conservative(3, seed=42)
    b = random_conservative(3, seed=42)
    assert a == b
    c = random_conservative(3, seed=43)
    assert not (c == a)


def test_random_conservative_rejects_bad_n():
    with pytest.raises(ValueError):
        random_conservative(0, seed=1)


def test_identity_potential_gives_all_units():
    T = skeleton_from_potential(2, [np.eye(3)] * 4, range(4))
    for e in T.skel.edges():
        assert np.allclose(T.weight(e), np.eye(3))


def test_report_serialization():
    P, _ = perturb_edge(random_conservative(3, seed=3), seed=3)
    doc = is_conservative(P).to_dict()
    assert doc["verdict"] is False
    assert len(doc["witnesses"]) == 2
    w = doc["witnesses"][0]
    assert set(w) == {"corner", "axes", "holonomy", "deviation"}
    assert len(w["holonomy"]) == 9


# -- core groupoid and uniformity ------------------------------------------


def test_core_identical_constituents(data_dir):
    mix = load_mixture(str(data_dir / "mixture_identical.json"))
    core = core_arrows(mix, "X", "Y")
    assert len(core.arrows) == 1
    K = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    assert np.allclose(core.arrows[0], K)


def test_core_rotated_is_empty(data_dir):
    mix = load_mixture(str(data_dir / "mixture_rotated.json"))
    assert not core_arrows(mix, "X", "Y")
    assert core_arrows(mix, "X", "X")


def test_core_with_cyclic_group(data_dir):
    mix = load_mixture(str(data_dir / "mixture_rotated_cyclic.json"))
    core = core_arrows(mix, "X", "Y")
    assert len(core.arrows) == 1
    assert np.allclose(core.arrows[0], np.eye(3))


def test_core_unknown_point(data_dir):
    mix = load_mixture(str(data_dir / "mixture_identical.json"))
    with pytest.raises(UnknownBasePointError):
        core_arrows(mix, "X", "Q")
    with pytest.raises(ValueError, match=r"^axis must lie in 1\.\.2, got 0$"):
        mix.constituent(0)


def test_core_closure_and_inverse(data_dir):
    mix = load_mixture(str(data_dir / "mixture_core4.json"))
    pts = mix.base_points
    sets = {
        (x, y): core_arrows(mix, x, y).arrows for x in pts for y in pts
    }
    assert all(len(s) == 2 for s in sets.values())
    for x, y, z in itertools.product(pts, repeat=3):
        for a in sets[(x, y)]:
            for b in sets[(y, z)]:
                assert any(
                    rel_distance(b @ a, c) < 1e-9 for c in sets[(x, z)]
                )
    for (x, y), s in sets.items():
        for a in s:
            inv = np.linalg.inv(a)
            assert any(rel_distance(inv, c) < 1e-9 for c in sets[(y, x)])


def test_uniform_identical(data_dir):
    rep = is_uniform(load_mixture(str(data_dir / "mixture_identical.json")))
    assert rep.verdict
    assert rep.defect_pairs == []
    assert rep.reference_point == "X"


def test_rotated_misalignment(data_dir):
    rep = is_uniform(load_mixture(str(data_dir / "mixture_rotated.json")))
    assert not rep.verdict
    assert rep.defect_pairs == [("X", "Y"), ("Y", "X")]
    assert rep.constituent_transitivity == {"alpha": True, "beta": True}


def test_cyclic_group_restores_uniformity(data_dir):
    rep = is_uniform(
        load_mixture(str(data_dir / "mixture_rotated_cyclic.json"))
    )
    assert rep.verdict


def test_missing_implant_flags_constituent(data_dir):
    rep = is_uniform(load_mixture(str(data_dir / "mixture_missing.json")))
    assert not rep.verdict
    assert rep.constituent_transitivity["beta"] is False
    assert ("X", "Y") in rep.defect_pairs


def test_single_constituent_reduction():
    from ngroupoid.mixture import mixture_from_dict

    I9 = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    doc = {
        "n": 1,
        "base_points": ["X", "Y"],
        "constituents": [
            {"name": "solo", "symmetry": "trivial", "implants": {"X": I9, "Y": I9}}
        ],
    }
    rep = is_uniform(mixture_from_dict(doc))
    assert rep.verdict == rep.constituent_transitivity["solo"] == True

    doc["constituents"][0]["implants"] = {"X": I9}
    rep2 = is_uniform(mixture_from_dict(doc))
    assert rep2.verdict == rep2.constituent_transitivity["solo"] == False


def test_uniformity_report_serialization(data_dir):
    rep = is_uniform(load_mixture(str(data_dir / "mixture_rotated.json")))
    doc = rep.to_dict()
    assert doc["verdict"] is False
    assert doc["defect_pairs"] == [
        {"source": "X", "target": "Y"},
        {"source": "Y", "target": "X"},
    ]
