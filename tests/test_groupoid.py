import numpy as np
import pytest

from ngroupoid.errors import (
    FormatError,
    GroupValidationError,
    UnknownBasePointError,
)
from ngroupoid.groupoid import ConstituentGroupoid, SymmetryGroup
from ngroupoid.matrices import close_to_any, rel_distance

I3 = np.eye(3)
R90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])


def make_constituent(implants, symmetry="trivial", base=("X", "Y"), **kw):
    return ConstituentGroupoid(
        name="c",
        base=base,
        implants=implants,
        group=SymmetryGroup.from_spec(symmetry),
        **kw,
    )


def test_compose_matrix_product():
    c = make_constituent(
        {"X": I3, "Y": np.diag([2.0, 1.0, 1.0]), "Z": np.diag([2.0, 3.0, 1.0])},
        base=("X", "Y", "Z"),
    )
    a = c.arrow_set("X", "Y")[0]
    b = c.arrow_set("Y", "Z")[0]
    assert np.allclose(a, np.diag([2.0, 1.0, 1.0]))
    assert np.allclose(b, np.diag([1.0, 3.0, 1.0]))
    assert np.allclose(b @ a, np.diag([2.0, 3.0, 1.0]))
    assert close_to_any(b @ a, c.arrow_set("X", "Z"), c.tolerance)


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


def test_arrow_set_dedupes_within_tolerance():
    # huge tolerance collapses the whole coset onto its first element
    c = make_constituent(
        {"X": I3, "Y": I3}, symmetry="cyclic_z_4", tolerance=10.0
    )
    assert len(c.arrow_set("X", "Y")) == 1


def test_arrow_set_unknown_point():
    c = make_constituent({"X": I3, "Y": I3})
    with pytest.raises(UnknownBasePointError):
        c.arrow_set("X", "Q")


def test_contains_arrow():
    c = make_constituent({"X": I3, "Y": I3})
    assert close_to_any(I3, c.arrow_set("X", "X"), c.tolerance)
    assert not close_to_any(2 * I3, c.arrow_set("X", "Y"), c.tolerance)
    wobble = I3 + 1e-12 * np.ones((3, 3))
    assert close_to_any(wobble, c.arrow_set("X", "Y"), c.tolerance)


def test_is_transitive():
    assert make_constituent({"X": I3, "Y": I3}).is_transitive()
    assert not make_constituent({"X": I3}).is_transitive()
    unequal = make_constituent({"X": I3, "Y": 2 * I3})
    assert unequal.is_transitive()
    assert len(unequal.arrow_set("X", "Y")) and len(unequal.arrow_set("Y", "X"))


def test_transitive_means_no_empty_sets():
    c = make_constituent({"X": I3, "Y": R90}, symmetry="cyclic_z_2")
    assert c.is_transitive() == all(
        len(c.arrow_set(a, b)) for a in c.base for b in c.base
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
    base = ("X", "Y", "Z")
    K = {
        "X": I3,
        "Y": np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
        "Z": np.diag([2.0, 1.0, 1.0]),
    }
    c = make_constituent(K, symmetry="cyclic_z_4", base=base)
    for a in c.arrow_set("X", "Y"):
        for b in c.arrow_set("Y", "Z"):
            assert close_to_any(b @ a, c.arrow_set("X", "Z"), c.tolerance)


def test_implant_at_undeclared_point_rejected():
    with pytest.raises(UnknownBasePointError):
        make_constituent({"X": I3, "Q": I3})
