"""Material groupoids over a finite point set.

An arrow is an invertible 3x3 matrix between two labelled points.  A
constituent groupoid is given generatively: one implant matrix per point
(absent where the constituent is defective) plus a finite symmetry group of
its archetype.  Every arrow set is then the finite coset

    P_XY = { K(Y) @ g @ inv(K(X)) : g in group }

which is empty as soon as either implant is missing.  Since g -> K(Y) g
inv(K(X)) is injective, a nonempty arrow set holds exactly |G| arrows, one
float64 stack of shape (|G|, 3, 3) in group order.  A constituent holds
neither the point set nor a tolerance; both belong to the mixture, which
checks labels and compares arrows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import DEFAULT_TOL, FormatError, GroupValidationError, check_tolerance
from .matrices import (
    _PAIRS,
    IDENTITY,
    check_invertible,
    close_to_any,
    first_invalid,
    inv,
    rel_distances,
)

Label = str | int


def _preset_groups() -> dict[str, list[np.ndarray]]:
    ident = np.eye(3)
    rz90 = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    rz180 = rz90 @ rz90
    rz270 = rz90 @ rz180
    return {
        "trivial": [ident],
        "cyclic_z_2": [ident, rz180],
        "cyclic_z_4": [ident, rz90, rz180, rz270],
        "orthorhombic": [
            ident,
            np.diag([1.0, -1.0, -1.0]),
            np.diag([-1.0, 1.0, -1.0]),
            np.diag([-1.0, -1.0, 1.0]),
        ],
    }


SYMMETRY_PRESETS = tuple(sorted(_preset_groups()))


class SymmetryGroup:
    """Finite group of invertible 3x3 matrices, a read-only (k, 3, 3) stack.

    Validated on construction: contains the identity, is closed under
    product and inverse, and has no duplicate elements, all within the
    comparison tolerance ``tol``, a finite number > 0.
    """

    def __init__(self, elements: Iterable[object], name: str = "",
                 tol: float = DEFAULT_TOL):
        self.name = name
        tol = check_tolerance(tol)
        self.elements = check_invertible(list(elements), lambda i: f"group element {i}")
        self.elements.flags.writeable = False
        self._validate(tol)

    @classmethod
    def from_spec(cls, spec: object, tol: float = DEFAULT_TOL) -> "SymmetryGroup":
        """Accepts a preset name or an explicit element list."""
        if isinstance(spec, str):
            presets = _preset_groups()
            if spec not in presets:
                raise GroupValidationError(
                    f"unknown symmetry preset {spec!r}; "
                    f"known: {', '.join(SYMMETRY_PRESETS)}"
                )
            return cls(presets[spec], name=spec, tol=tol)
        if isinstance(spec, (list, tuple)):
            return cls(spec, tol=tol)
        raise GroupValidationError(
            f"symmetry must be a preset name or a matrix list, got {type(spec).__name__}"
        )

    def _validate(self, tol: float) -> None:
        G = self.elements
        if not len(G):
            raise GroupValidationError("symmetry group is empty")
        if not close_to_any(IDENTITY, G, tol):
            raise GroupValidationError("symmetry group lacks the identity")
        rows = max(1, _PAIRS // len(G))  # elements per duplicate test
        for i in range(0, len(G), rows):  # each pair once: element i + r against those after it
            if np.triu(rel_distances(G[i:i + rows, None], G) <= tol, 1 + i).any():
                raise GroupValidationError("duplicate group elements")
        has_inverse = close_to_any(inv(G), G, tol)
        step = max(1, _PAIRS // len(G) ** 2)  # elements per product test
        for i, ok in enumerate(has_inverse):
            if i % step == 0:
                closed = close_to_any(G[i:i + step, None] @ G, G, tol).all(axis=1)
            if not (ok and closed[i % step]):
                what = "product" if ok else "inverse"
                raise GroupValidationError(f"group not closed under {what}")

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __repr__(self):
        label = self.name or f"{len(self.elements)} elements"
        return f"SymmetryGroup({label})"


@dataclass
class ConstituentGroupoid:
    """One constituent's material groupoid, given by implants and symmetries.

    ``implants`` maps a point label to the transplant matrix from the
    archetype; labels absent from the map have empty arrow sets.  The
    mixture it belongs to checks the labels against its base points and
    decides membership in the arrow sets with its tolerance.
    """

    name: str
    implants: dict[Label, np.ndarray]
    group: SymmetryGroup

    def __post_init__(self):
        points = list(self.implants)
        K = check_invertible(list(self.implants.values()),
                             lambda i: f"implant at {points[i]!r}")
        self.implants = dict(zip(points, K))

    def arrow_set(self, X: Label, Y: Label) -> np.ndarray:
        """The coset P_XY as a read-only (|G|, 3, 3) stack, in group order.

        Empty, of shape (0, 3, 3), when either implant is missing.  A singular
        or non-finite arrow raises FormatError.
        """
        kx = self.implants.get(X)
        ky = self.implants.get(Y)
        if kx is None or ky is None:
            return np.empty((0, 3, 3))
        A = (ky @ self.group.elements) @ inv(kx)
        bad = first_invalid(A)
        if bad:
            raise FormatError(f"constituent {self.name!r}: arrow {X!r} -> {Y!r} {bad[1]}")
        A.flags.writeable = False
        return A
