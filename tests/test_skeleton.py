import hashlib
import json

import numpy as np
import pytest

from ngroupoid.analysis import (
    random_composable_chain,
    random_conservative,
    random_interchange_quadruple,
)
from ngroupoid.errors import (CompositionError, ConstructionHalted, FormatError,
                              UnknownBasePointError)
from ngroupoid.hypercube import Edge
from ngroupoid.matrices import check_invertible
from ngroupoid.mixture import mixture_from_dict
from ngroupoid.skeleton import (
    ObjectiveSkeleton,
    build,
    compose,
    dump_skeleton,
    interchange_check,
    inverse_axis,
    load_skeleton,
    save_skeleton,
    skeleton_from_dict,
    skeleton_to_dict,
    source_facet,
    target_facet,
    unit_skeleton,
)

I9 = [1, 0, 0, 0, 1, 0, 0, 0, 1]
SHEAR = [1, 1, 0, 0, 1, 0, 0, 0, 1]
UNIT = np.eye(3)[None]  # the weights of a one-edge skeleton with a unit arrow


def one_constituent_mixture():
    return mixture_from_dict(
        {
            "n": 1,
            "base_points": ["X", "Y"],
            "constituents": [
                {"name": "solo", "symmetry": "trivial",
                 "implants": {"X": I9, "Y": SHEAR}},
            ],
        }
    )


def two_constituent_mixture(second_implants=None, second_symmetry="trivial"):
    return mixture_from_dict(
        {
            "n": 2,
            "base_points": ["X", "Y"],
            "constituents": [
                {"name": "alpha", "symmetry": "trivial",
                 "implants": {"X": I9, "Y": SHEAR}},
                {"name": "beta", "symmetry": second_symmetry,
                 "implants": second_implants or {"X": I9, "Y": SHEAR}},
            ],
        }
    )


def test_build_single_unit_edge():
    mix = one_constituent_mixture()
    T = build(mix, ("X", "X"))
    assert T.vertices == ("X", "X")
    assert np.allclose(T.weight(Edge(0, 1)), np.eye(3))
    T.validate_against(mix)


def test_build_halts_on_empty_arrow_set():
    mix = two_constituent_mixture(second_implants={"X": I9})
    with pytest.raises(ConstructionHalted) as exc:
        build(mix, ("X", "Y", "X", "Y"))
    assert exc.value.axis == 2
    assert exc.value.edge == Edge(0, 2)


def test_build_rejects_an_unknown_label_before_any_edge():
    # the Q check comes first, although edge (0, 2) already has an empty arrow set
    mix = two_constituent_mixture(second_implants={"X": I9})
    with pytest.raises(UnknownBasePointError, match="point 'Q' not in the mixture base"):
        build(mix, ("X", "Y", "X", "Q"))


def test_build_coset_weights():
    mix = two_constituent_mixture()
    T = build(mix, ("X", "Y", "X", "Y"))
    K = np.array(SHEAR, float).reshape(3, 3)
    # axis-1 edges join equal labels, axis-2 edges go X -> Y
    assert np.allclose(T.weight(Edge(0, 1)), np.eye(3))
    assert np.allclose(T.weight(Edge(1, 1)), np.eye(3))
    for tail in (0, 2):
        assert np.allclose(T.weight(Edge(tail, 2)), K)
    T.validate_against(mix)


def test_constructor_validation():
    with pytest.raises(ValueError):
        ObjectiveSkeleton(1, ("X",), UNIT)
    with pytest.raises(ValueError):
        ObjectiveSkeleton(1, ("X", "X"), np.empty((0, 3, 3)))
    with pytest.raises(ValueError, match="singular"):
        ObjectiveSkeleton(1, ("X", "Y"), np.zeros((1, 3, 3)))


def test_validate_against_rejects_foreign_arrow():
    mix = two_constituent_mixture()
    T = build(mix, ("X", "Y", "X", "Y"))
    W = T.W.copy()
    W[T.skel.edge_index[0, 1]] *= 2  # edge (0, 2)
    bad = ObjectiveSkeleton(2, T.vertices, W)
    with pytest.raises(ValueError, match="constituent"):
        bad.validate_against(mix)


def test_validate_against_dimension_mismatch():
    mix = one_constituent_mixture()
    T = ObjectiveSkeleton(2, ("X", "X", "X", "X"), random_conservative(2, seed=0).W)
    with pytest.raises(ValueError, match="dimension"):
        T.validate_against(mix)


def test_source_facet_of_edge_is_a_point():
    mix = one_constituent_mixture()
    T = build(mix, ("X", "Y"))
    F = source_facet(T, 1)
    assert F.n == 0
    assert F.vertices == ("X",)
    assert target_facet(T, 1).vertices == ("Y",)


def test_facets_follow_the_bit_convention():
    mix = two_constituent_mixture()
    T = build(mix, ("X", "Y", "X", "Y"))
    # axis 2 pins the least significant of the two bits
    assert source_facet(T, 2).vertices == ("X", "X")
    assert target_facet(T, 2).vertices == ("Y", "Y")
    assert source_facet(T, 1).vertices == ("X", "Y")


def test_unit_skeleton_of_a_point():
    F = ObjectiveSkeleton(0, ("X",), np.empty((0, 3, 3)))
    U = unit_skeleton(F, 1)
    assert U.n == 1
    assert U.vertices == ("X", "X")
    assert np.allclose(U.weight(Edge(0, 1)), np.eye(3))
    assert target_facet(U, 1) == F


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_unit_law(axis):
    T = random_conservative(3, seed=21)
    U = unit_skeleton(source_facet(T, axis), axis)
    assert target_facet(U, axis) == source_facet(T, axis)
    assert compose(T, U, axis).close_to(T, 1e-12)
    V = unit_skeleton(target_facet(T, axis), axis)
    assert compose(V, T, axis).close_to(T, 1e-12)


@pytest.mark.parametrize("axis", [1, 2])
def test_inverse_law(axis):
    T = random_conservative(2, seed=8)
    unit = unit_skeleton(source_facet(T, axis), axis)
    assert compose(inverse_axis(T, axis), T, axis).close_to(unit, 1e-9)
    assert inverse_axis(inverse_axis(T, axis), axis).close_to(T, 1e-9)
    with pytest.raises(ValueError, match=r"^axis must lie in 1\.\.2, got 0$"):
        inverse_axis(T, 0)


def test_compose_multiplies_axis_weights():
    A, B = random_composable_chain(2, 2, 2, seed=4)
    AB = compose(B, A, 2)
    bit = AB.skel.axis_bit(2)
    for e in AB.skel.edges():
        if e.axis == 2:
            assert np.allclose(AB.weight(e), B.weight(e) @ A.weight(e))
        elif e.tail & bit == 0:
            assert np.array_equal(AB.weight(e), A.weight(e))
        else:
            assert np.array_equal(AB.weight(e), B.weight(e))


@pytest.mark.parametrize("axis", [1, 2, 3])
def test_compose_facet_identities_exact(axis):
    A, B = random_composable_chain(3, axis, 2, seed=13)
    AB = compose(B, A, axis)
    assert source_facet(AB, axis) == source_facet(A, axis)
    assert target_facet(AB, axis) == target_facet(B, axis)


@pytest.mark.parametrize("n,axis", [(2, 1), (2, 2), (3, 2)])
def test_compose_associative(n, axis):
    A, B, C = random_composable_chain(n, axis, 3, seed=2)
    left = compose(C, compose(B, A, axis), axis)
    right = compose(compose(C, B, axis), A, axis)
    assert left.close_to(right, 1e-9)


def test_compose_rejects_vertex_mismatch():
    mix = two_constituent_mixture()
    T = build(mix, ("X", "Y", "X", "Y"))
    with pytest.raises(CompositionError, match="facet vertex"):
        compose(T, T, 2)


def test_compose_rejects_weight_mismatch():
    A, B = random_composable_chain(2, 1, 2, seed=5)
    W = B.W.copy()
    W[B.skel.edge_index[0, 1]] *= 2  # edge (0, 2) lives on B's source facet for axis 1
    B_bad = ObjectiveSkeleton(2, B.vertices, W)
    with pytest.raises(CompositionError, match="facet edge"):
        compose(B_bad, A, 1)


def test_compose_rejects_dimension_mismatch():
    A = random_conservative(2, seed=0)
    B = random_conservative(3, seed=0)
    with pytest.raises(CompositionError, match="dimension"):
        compose(B, A, 1)
    with pytest.raises(CompositionError, match=r"^axis must lie in 1\.\.2, got 0$"):
        compose(A, A, 0)


def test_interchange_all_units():
    F = ObjectiveSkeleton(1, ("X", "X"), UNIT)
    U = unit_skeleton(F, 2)
    assert interchange_check(U, U, U, U, 1, 2)


@pytest.mark.parametrize(
    "n,i,j", [(2, 1, 2), (3, 1, 2), (3, 1, 3), (3, 2, 3)]
)
def test_interchange_potential_quadruples(n, i, j):
    for seed in range(5):
        T, Tp, Tpp, Tppp = random_interchange_quadruple(n, i, j, seed=seed)
        assert interchange_check(T, Tp, Tpp, Tppp, i, j, 1e-9)


def test_interchange_coset_built():
    mix = two_constituent_mixture()
    bottom = build(mix, ("X", "Y", "X", "Y"))
    top = build(mix, ("Y", "X", "Y", "X"))
    # rows repeat one block along axis 1; columns stack bottom then top
    assert interchange_check(top, top, bottom, bottom, 1, 2, 1e-9)


def test_interchange_needs_distinct_axes():
    T = random_conservative(2, seed=0)
    with pytest.raises(ValueError):
        interchange_check(T, T, T, T, 1, 1)
    with pytest.raises(ValueError, match="^need two distinct axes$"):
        random_interchange_quadruple(3, 1, 1)


def test_roundtrip_exact():
    T = random_conservative(3, seed=77)
    assert skeleton_from_dict(skeleton_to_dict(T)) == T
    assert T.__eq__(object()) is NotImplemented and T != object()


def test_roundtrip_through_file(tmp_path):
    T = ObjectiveSkeleton(2, ("a", "b", "a", "b"), random_conservative(2, seed=99).W)
    path = tmp_path / "skel.json"
    save_skeleton(T, str(path))
    assert load_skeleton(str(path)) == T
    # byte stability of the serialization itself
    assert dump_skeleton(load_skeleton(str(path))) == path.read_text()


def test_to_dict_layout():
    T = random_conservative(2, seed=1)
    doc = skeleton_to_dict(T)
    assert doc["n"] == 2
    assert doc["vertices"] == [0, 1, 2, 3]
    keys = [(rec["tail"], rec["axis"]) for rec in doc["edges"]]
    assert keys == sorted(keys)
    assert all(len(rec["weight"]) == 9 for rec in doc["edges"])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.pop("edges"),
        lambda d: d["edges"].pop(),
        lambda d: d["edges"].append(dict(d["edges"][0])),
        lambda d: d["edges"][0].update(axis=9),
        lambda d: d["vertices"].pop(),
        lambda d: d.update(n="two"),
        lambda d: d["edges"][0].update(weight=[0.0] * 9),
        # the cases below return the record their error must name, then
        # after ": " the reason where it is pinned
        lambda d: d["edges"][1].update(weight=[1.0] * 8) or "edges[1]",
        lambda d: d["edges"][2].update(weight=["a"] * 9) or "edges[2]",
        lambda d: (d["edges"][1].update(weight=[0.0] * 9)  # singular before short
                   or d["edges"][3].update(weight=[1.0] * 8) or "edges[1]"),
        lambda d: (d["edges"][1].update(weight=[0.0] * 9)  # before a duplicate edge
                   or d["edges"].append(dict(d["edges"][0])) or "edges[1]"),
        lambda d: d.update(n=True, vertices=d["vertices"][:2], edges=d["edges"][:1]),
        lambda d: d["edges"][0]["weight"].__setitem__(0, "-0.03") or "edges[0]",
        lambda d: d["edges"][1].update(weight=[True, False, False, False, True,
                                               False, False, False, True]) or "edges[1]",
        lambda d: (d["edges"][0]["weight"].__setitem__(0, 10 ** 400)  # too large for a float
                   or "edges[0]: has non-finite entries"),
        lambda d: d["edges"][0].update(axis=True),
        lambda d: d["edges"][0].update(tail=True),
        lambda d: d["edges"][0].update(tail=1.0),
    ],
)
def test_from_dict_rejects_malformed(mutate):
    doc = skeleton_to_dict(random_conservative(2, seed=3))
    named = mutate(doc)
    with pytest.raises(FormatError) as exc:
        skeleton_from_dict(json.loads(json.dumps(doc)))
    if isinstance(named, str):
        record, _, reason = named.partition(": ")
        assert str(exc.value).startswith(f"skeleton: {record}: weight {reason}")


@pytest.mark.parametrize("field,value", [("axis", True), ("tail", True), ("tail", 1.0)])
def test_from_dict_names_a_non_integer_tail_or_axis(field, value):
    doc = skeleton_to_dict(random_conservative(2, seed=3))
    doc["edges"][2][field] = value
    with pytest.raises(FormatError) as exc:
        skeleton_from_dict(doc)
    assert str(exc.value) == f"skeleton: edges[2]: {field!r} must be an integer, got {value!r}"


def test_from_dict_mixed_flat_and_nested_weights():
    doc = skeleton_to_dict(random_conservative(2, seed=3))
    flat = skeleton_from_dict(doc)
    for rec in doc["edges"][1::2]:
        rec["weight"] = np.reshape(rec["weight"], (3, 3)).tolist()
    assert skeleton_from_dict(doc) == flat


NESTED_SHEAR = np.reshape(SHEAR, (3, 3)).tolist()
FLOAT_MAX = int(np.finfo(float).max)  # 2**1024 - 2**971; up to 2**1024 - 2**970 rounds to it
NOT_A_MATRIX = "row 1 is not 9 numbers or a 3x3 nested list"
# (rows, the literal error message, or the 9 entries of each matrix read)
INVERTIBLE_CASES = {
    "eight numbers": ([I9, [1.0] * 8], NOT_A_MATRIX),
    "booleans": ([I9, [True, False, False, False, True, False, False, False, True]],
                 NOT_A_MATRIX),
    "string entry": ([I9, [1, 0, 0, 0, 1, 0, 0, 0, "1"]], NOT_A_MATRIX),
    "too large for a float": ([I9, [10**400, 0, 0, 0, 1, 0, 0, 0, 1]],
                              "row 1 has non-finite entries"),
    "beyond 2**1024 beside the largest float": (
        [I9, [2**1024 + 1, FLOAT_MAX + 2**969, 0, 0, 1, 0, 0, 0, 1]],
        "row 1 has non-finite entries"),
    "singular before short": ([I9, [0.0] * 9, [1.0] * 8],
                              "row 1 is numerically singular (det=0.000e+00)"),
    "short before singular": ([I9, [1.0] * 8, [0.0] * 9], NOT_A_MATRIX),
    "flat and nested": ([I9, NESTED_SHEAR, SHEAR], [I9, SHEAR, SHEAR]),
    "tuple": ([I9, tuple(SHEAR)], [I9, SHEAR]),
    "numpy 9 numbers": ([I9, np.array(SHEAR, dtype=float)], [I9, SHEAR]),
    "numpy 3x3": ([I9, np.reshape(SHEAR, (3, 3))], [I9, SHEAR]),
    "numpy float64 entries": ([I9, [np.float64(x) for x in SHEAR]], [I9, SHEAR]),
    "numpy booleans": ([I9, np.array(SHEAR, dtype=bool)], NOT_A_MATRIX),
    "numpy int64 entry": ([I9, [np.int64(1), *SHEAR[1:]]], NOT_A_MATRIX),
}


@pytest.mark.parametrize("case", INVERTIBLE_CASES)
def test_check_invertible_messages(case):
    rows, expected = INVERTIBLE_CASES[case]
    if isinstance(expected, str):
        with pytest.raises(ValueError) as exc:
            check_invertible(rows, lambda i: f"row {i}")
        assert str(exc.value) == expected
        return
    ms = check_invertible(rows, lambda i: f"row {i}")
    assert ms.dtype == np.float64 and ms.flags.writeable
    assert np.array_equal(ms, np.reshape(expected, (-1, 3, 3)))


# SHA-256 of `generate --n 12 --seed 0` stdout, recorded with the json.dumps writer
GENERATE_N12 = {
    "conservative": "64c89863b11d080d7753b94b86b1ad010adf5dd2fe92ca1b4bce1d54b036f750",
    "perturbed": "0c30d4dfd47d6046a372281f059326e21cbdf16d10c6c71c3bd180a0cd74b30d",
}


@pytest.mark.parametrize("mode", ["conservative", "perturbed"])
def test_dump_skeleton_bytes_at_n12(run_cli, mode):
    code, out = run_cli("generate", "--n", 12, "--seed", 0, "--mode", mode)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GENERATE_N12[mode]
