import tracemalloc

import numpy as np
import pytest

from ngroupoid.analysis import is_uniform
from ngroupoid.errors import FormatError, GroupValidationError
from ngroupoid.groupoid import ConstituentGroupoid, SymmetryGroup
from ngroupoid.matrices import DEFAULT_TOL, close_to_any, rel_distance
from ngroupoid.mixture import MixtureSpec, mixture_from_dict

I3 = np.eye(3)
R90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def make_constituent(implants, symmetry="trivial"):
    return ConstituentGroupoid(
        name="c",
        implants=implants,
        group=SymmetryGroup.from_spec(symmetry),
    )


def transitivity(c):
    return is_uniform(MixtureSpec(1, ("X", "Y"), (c,))).constituent_transitivity[c.name]


def test_compose_matrix_product():
    c = make_constituent(
        {"X": I3, "Y": np.diag([2.0, 1.0, 1.0]), "Z": np.diag([2.0, 3.0, 1.0])}
    )
    a = c.arrow_set("X", "Y")[0]
    b = c.arrow_set("Y", "Z")[0]
    assert np.allclose(a, np.diag([2.0, 1.0, 1.0]))
    assert np.allclose(b, np.diag([1.0, 3.0, 1.0]))
    assert np.allclose(b @ a, np.diag([2.0, 3.0, 1.0]))
    assert close_to_any(b @ a, c.arrow_set("X", "Z"), DEFAULT_TOL)


def test_unit_and_inverse_laws():
    A = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    c = make_constituent({"X": I3, "Y": A})
    a = c.arrow_set("X", "Y")[0]
    unit_x, unit_y = c.arrow_set("X", "X")[0], c.arrow_set("Y", "Y")[0]
    assert rel_distance(unit_y @ a, a) <= 1e-12
    assert rel_distance(a @ unit_x, a) <= 1e-12
    assert rel_distance(c.arrow_set("Y", "X")[0] @ a, unit_x) <= 1e-12


def test_singular_weight_rejected():
    # both implants pass the determinant check, the arrow X -> Y does not
    c = make_constituent({"X": 10 * I3, "Y": np.diag([1e-4, 1e-4, 2e-4])})
    with pytest.raises(FormatError, match=r"'c': arrow 'X' -> 'Y' is numerically singular"):
        c.arrow_set("X", "Y")
    assert len(c.arrow_set("Y", "X")) == 1


def test_arrow_set_identity_implants():
    c = make_constituent({"X": I3, "Y": I3})
    arrows = c.arrow_set("X", "Y")
    assert arrows.shape == (1, 3, 3)
    assert np.allclose(arrows[0], I3)


def test_arrow_set_missing_implant_is_empty():
    c = make_constituent({"X": I3})
    assert c.arrow_set("X", "Y").shape == (0, 3, 3)
    assert c.arrow_set("Y", "X").shape == (0, 3, 3)
    assert len(c.arrow_set("X", "X")) == 1


def test_arrow_set_coset_formula():
    c = make_constituent({"X": I3, "Y": R90})
    arrows = c.arrow_set("X", "Y")
    assert len(arrows) == 1
    assert np.allclose(arrows[0], R90)


def test_arrow_set_enumerates_group_cosets():
    c = make_constituent({"X": I3, "Y": I3}, symmetry="cyclic_z_4")
    arrows = c.arrow_set("X", "Y")
    assert len(arrows) == 4
    # canonical first element comes from the identity group element
    assert np.allclose(arrows[0], I3)


def test_arrow_set_keeps_close_arrows():
    # K_Y stretches z so far that the four arrows lie within 0.03 of each
    # other; all four stay, in group order
    ky = np.diag([1.0, 1.0, 100.0])
    c = make_constituent({"X": I3, "Y": ky}, symmetry="cyclic_z_4")
    arrows = c.arrow_set("X", "Y")
    assert np.array_equal(arrows, ky @ c.group.elements)
    assert close_to_any(arrows, arrows[:1], 0.03).all()


def test_membership_does_not_depend_on_group_order(z4_order_case):
    doc, w = z4_order_case
    mix = mixture_from_dict(doc)
    assert close_to_any(w, mix.constituents[0].arrow_set("X", "Y"), mix.tolerance)


def test_arrow_set_label_without_implant_is_empty():
    # labels are the mixture's to check; a constituent sees only its implants
    c = make_constituent({"X": I3, "Y": I3})
    assert c.arrow_set("X", "Q").shape == (0, 3, 3)
    assert c.arrow_set("Q", "Q").shape == (0, 3, 3)


def test_contains_arrow():
    c = make_constituent({"X": I3, "Y": I3})
    assert close_to_any(I3, c.arrow_set("X", "X"), DEFAULT_TOL)
    assert not close_to_any(2 * I3, c.arrow_set("X", "Y"), DEFAULT_TOL)
    wobble = I3 + 1e-12 * np.ones((3, 3))
    assert close_to_any(wobble, c.arrow_set("X", "Y"), DEFAULT_TOL)


def test_is_transitive():
    assert transitivity(make_constituent({"X": I3, "Y": I3}))
    assert not transitivity(make_constituent({"X": I3}))
    unequal = make_constituent({"X": I3, "Y": 2 * I3})
    assert transitivity(unequal)
    assert len(unequal.arrow_set("X", "Y")) and len(unequal.arrow_set("Y", "X"))


def test_transitive_means_no_empty_sets():
    for implants in ({"X": I3, "Y": R90}, {"Y": R90}):
        c = make_constituent(implants, symmetry="cyclic_z_2")
        assert transitivity(c) == all(
            len(c.arrow_set(a, b)) for a in ("X", "Y") for b in ("X", "Y")
        )


def test_group_presets_validate():
    for name, size in [
        ("trivial", 1),
        ("cyclic_z_2", 2),
        ("cyclic_z_4", 4),
        ("orthorhombic", 4),
    ]:
        g = SymmetryGroup.from_spec(name)
        assert len(g) == size


def test_group_rejects_non_closed():
    with pytest.raises(GroupValidationError):
        SymmetryGroup([I3, R90])  # missing the higher powers


def test_group_rejects_missing_identity():
    with pytest.raises(GroupValidationError):
        SymmetryGroup([R90 @ R90])


def test_group_rejects_duplicates():
    with pytest.raises(GroupValidationError):
        SymmetryGroup([I3, I3])


def rotations_about_z(k):
    """The cyclic group C_k: rotations by 2*pi*j/k about z, j = 0..k-1."""
    angles = 2 * np.pi * np.arange(k) / k
    c, s = np.cos(angles), np.sin(angles)
    G = np.zeros((k, 3, 3))
    G[:, 0, 0], G[:, 0, 1], G[:, 1, 0], G[:, 1, 1], G[:, 2, 2] = c, -s, s, c, 1.0
    return G


def test_group_validation_compares_pairs_in_blocks():
    # all |G|**2 pairs at once would hold about 300 bytes each, 79 MB for C_512
    G = rotations_about_z(512)
    tracemalloc.start()
    try:
        assert len(SymmetryGroup(G)) == 512
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20e6
    # a duplicate of the last element is compared in the last block
    with pytest.raises(GroupValidationError, match="^duplicate group elements$"):
        SymmetryGroup([*G, G[-1] * (1 + 1e-12)])


@pytest.mark.parametrize("tol", [-1.0, float("nan")])
def test_mixture_spec_checks_its_tolerance(tol):
    a, b = (ConstituentGroupoid(name, {"X": I3}, SymmetryGroup.from_spec("trivial"))
            for name in "ab")
    with pytest.raises(FormatError, match="^tolerance must be a finite number > 0, got "):
        MixtureSpec(2, ("X",), (a, b), tolerance=tol)


def test_mixture_spec_rejects_an_empty_base():
    with pytest.raises(FormatError, match="^base point set is empty$"):
        MixtureSpec(1, (), (make_constituent({"X": I3}),))


def test_group_checks_its_tolerance():
    with pytest.raises(ValueError, match=r"^tolerance must be a finite number > 0, got -1\.0$"):
        SymmetryGroup([I3], tol=-1.0)


def test_group_unknown_preset():
    with pytest.raises(GroupValidationError):
        SymmetryGroup.from_spec("icosahedral")
    with pytest.raises(GroupValidationError):
        SymmetryGroup.from_spec(42)


def test_group_explicit_element_list():
    g = SymmetryGroup.from_spec([I3.flatten().tolist(), (R90 @ R90).flatten().tolist()])
    assert len(g) == 2


def test_arrow_sets_inverse_images():
    c = make_constituent({"X": I3, "Y": R90}, symmetry="orthorhombic")
    fwd = c.arrow_set("X", "Y")
    back = c.arrow_set("Y", "X")
    assert len(fwd) == len(back)
    for a in fwd:
        inv = np.linalg.inv(a)
        assert any(rel_distance(inv, b) < 1e-9 for b in back)


def test_arrow_sets_closed_under_composition():
    K = {
        "X": I3,
        "Y": np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "Z": np.diag([2.0, 1.0, 1.0]),
    }
    c = make_constituent(K, symmetry="cyclic_z_4")
    for a in c.arrow_set("X", "Y"):
        for b in c.arrow_set("Y", "Z"):
            assert close_to_any(b @ a, c.arrow_set("X", "Z"), DEFAULT_TOL)


def test_implant_at_undeclared_point_rejected():
    message = r"^constituent 'c': implants at undeclared points \['Q'\]$"
    with pytest.raises(FormatError, match=message):
        MixtureSpec(1, ("X", "Y"), (make_constituent({"X": I3, "Q": I3}),))
    with pytest.raises(FormatError, match=message):
        mixture_from_dict({
            "n": 1, "base_points": ["X", "Y"],
            "constituents": [{"name": "c", "symmetry": "trivial",
                              "implants": {"X": I3.ravel().tolist(), "Q": I3.ravel().tolist()}}],
        })


def test_mixture_validates_each_distinct_group_once(monkeypatch):
    calls = []
    validate = SymmetryGroup._validate
    monkeypatch.setattr(SymmetryGroup, "_validate",
                        lambda self, tol: calls.append(len(self)) or validate(self, tol))
    z2 = [I3.ravel().tolist(), (R90 @ R90).ravel().tolist()]
    specs = ["cyclic_z_4", z2, "cyclic_z_4", list(z2), "trivial"]
    mix = mixture_from_dict({
        "n": len(specs), "base_points": ["X"],
        "constituents": [{"name": f"c{i}", "symmetry": s, "implants": {"X": I3.ravel().tolist()}}
                         for i, s in enumerate(specs)],
    })
    groups = [c.group for c in mix.constituents]
    assert calls == [4, 2, 1]
    assert groups[0] is groups[2] and groups[1] is groups[3]
    assert len({id(g) for g in groups}) == 3
