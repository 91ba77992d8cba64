"""Material groupoids over a finite point set.

An arrow is an invertible 3x3 matrix between two labelled points.  A
constituent groupoid is given generatively: one implant matrix per point
(absent where the constituent is defective) plus a finite symmetry group of
its archetype.  Every arrow set is then the finite coset

    P_XY = { K(Y) @ g @ inv(K(X)) : g in group }

which is empty as soon as either implant is missing.  An arrow set is held
as one float64 stack of shape (k, 3, 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .errors import FormatError, GroupValidationError, UnknownBasePointError
from .matrices import (
    DEFAULT_TOL,
    IDENTITY,
    check_invertible,
    close_to_any,
    first_invalid,
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
    comparison tolerance.
    """

    def __init__(self, elements: Iterable[object], name: str = "",
                 tol: float = DEFAULT_TOL):
        self.name = name
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
        if np.triu(rel_distances(G[:, None], G) <= tol, 1).any():
            raise GroupValidationError("duplicate group elements")
        has_inverse = close_to_any(np.linalg.inv(G), G, tol)
        for g, ok in zip(G, has_inverse):
            if not ok:
                raise GroupValidationError("group not closed under inverse")
            if not close_to_any(g @ G, G, tol).all():
                raise GroupValidationError("group not closed under product")

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
    archetype; points absent from the map have empty arrow sets.
    """

    name: str
    base: tuple[Label, ...]
    implants: dict[Label, np.ndarray]
    group: SymmetryGroup
    tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        self.base = tuple(self.base)
        bad = [p for p in self.implants if p not in self.base]
        if bad:
            raise UnknownBasePointError(
                f"constituent {self.name!r}: implants at undeclared points {bad!r}"
            )
        points = list(self.implants)
        K = check_invertible(list(self.implants.values()),
                             lambda i: f"implant at {points[i]!r}")
        self.implants = dict(zip(points, K))

    def _check_point(self, p: Label) -> None:
        if p not in self.base:
            raise UnknownBasePointError(
                f"point {p!r} not in base of constituent {self.name!r}"
            )

    def arrow_set(self, X: Label, Y: Label) -> np.ndarray:
        """All arrows X -> Y as a read-only (k, 3, 3) stack, in group order.

        Empty, of shape (0, 3, 3), when either implant is missing.  An arrow
        within tolerance of an earlier kept arrow is dropped; distinct group
        elements give distinct arrows, so this matters only for wide
        tolerances or ill-conditioned implants.  A singular or non-finite
        arrow raises FormatError.
        """
        self._check_point(X)
        self._check_point(Y)
        kx = self.implants.get(X)
        ky = self.implants.get(Y)
        if kx is None or ky is None:
            return np.empty((0, 3, 3))
        A = (ky @ self.group.elements) @ np.linalg.inv(kx)
        bad = first_invalid(A)
        if bad:
            raise FormatError(f"constituent {self.name!r}: arrow {X!r} -> {Y!r} {bad[1]}")
        earlier = np.tril(rel_distances(A[:, None], A) <= self.tolerance, -1)
        keep = np.ones(len(A), dtype=bool)
        for i in np.flatnonzero(earlier.any(axis=1)).tolist():
            keep[i] = not (earlier[i] & keep).any()
        A = A[keep]
        A.flags.writeable = False
        return A

    def is_transitive(self) -> bool:
        """True iff every ordered pair has a nonempty arrow set.

        Equivalent to the implant map being total.
        """
        if not self.base:
            raise ValueError(f"constituent {self.name!r} has an empty base")
        return all(p in self.implants for p in self.base)
