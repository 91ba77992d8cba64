"""Problem instances: a base point set plus n constituent groupoids.

Mixtures are ingested from JSON documents:

    {
      "n": 2,
      "base_points": ["X", "Y"],
      "tolerance": 1e-9,
      "constituents": [
        {"name": "alpha",
         "symmetry": "trivial",                  # preset or list of matrices
         "implants": {"X": [9 numbers row-major], "Y": [...]}}
      ]
    }

``tolerance`` is optional; it must be a finite number > 0.  Point labels
are strings or integers, and implant keys must reference declared base
points.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import FormatError, GroupValidationError, UnknownBasePointError, read_json
from .groupoid import ConstituentGroupoid, Label, SymmetryGroup
from .matrices import DEFAULT_TOL, check_tolerance


@dataclass
class MixtureSpec:
    n: int
    base_points: tuple[Label, ...]
    constituents: tuple[ConstituentGroupoid, ...]
    tolerance: float = DEFAULT_TOL

    def __post_init__(self):
        self.base_points = tuple(self.base_points)
        self.constituents = tuple(self.constituents)
        if self.n < 1:
            raise FormatError(f"constituent count must be >= 1, got {self.n}")
        if len(self.constituents) != self.n:
            raise FormatError(
                f"n = {self.n} but {len(self.constituents)} constituents declared"
            )
        if len(set(self.base_points)) != len(self.base_points):
            raise FormatError("duplicate base point labels")
        for c in self.constituents:
            if tuple(c.base) != self.base_points:
                raise FormatError(
                    f"constituent {c.name!r} base differs from the mixture base"
                )

    def constituent(self, axis: int) -> ConstituentGroupoid:
        """Constituent supplying class-``axis`` edges (1-based)."""
        if not 1 <= axis <= self.n:
            raise ValueError(f"axis must lie in 1..{self.n}, got {axis}")
        return self.constituents[axis - 1]


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise FormatError(f"{where}: missing field {key!r}")
    return d[key]


def mixture_from_dict(doc: object) -> MixtureSpec:
    if not isinstance(doc, dict):
        raise FormatError("mixture document must be an object")
    n = _require(doc, "n", "mixture")
    if type(n) is not int:
        raise FormatError(f"mixture: field 'n' must be an integer, got {n!r}")
    points = _require(doc, "base_points", "mixture")
    if not isinstance(points, list) or not points or any(type(p) not in (str, int) for p in points):
        raise FormatError(
            "mixture: field 'base_points' must be a nonempty list of strings or integers")
    try:
        tolerance = check_tolerance(doc.get("tolerance", DEFAULT_TOL))
    except ValueError as exc:
        raise FormatError(f"mixture: field 'tolerance' {exc}") from exc
    raw_constituents = _require(doc, "constituents", "mixture")
    if not isinstance(raw_constituents, list):
        raise FormatError("mixture: field 'constituents' must be a list")

    constituents = []
    for idx, raw in enumerate(raw_constituents):
        where = f"constituent[{idx}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where}: must be an object")
        name = raw.get("name", f"constituent-{idx + 1}")
        if not isinstance(name, str):
            raise FormatError(f"{where}: field 'name' must be a string")
        try:
            group = SymmetryGroup.from_spec(_require(raw, "symmetry", where), tol=tolerance)
        except (GroupValidationError, ValueError) as exc:
            raise FormatError(f"{where} ({name}): {exc}") from exc
        implants_raw = _require(raw, "implants", where)
        if not isinstance(implants_raw, dict):
            raise FormatError(f"{where}: field 'implants' must be an object")
        try:
            constituents.append(ConstituentGroupoid(
                name=name, base=tuple(points), implants=implants_raw, group=group,
                tolerance=tolerance))
        except (ValueError, UnknownBasePointError) as exc:
            raise FormatError(f"{where} ({name}): {exc}") from exc

    return MixtureSpec(n=n, base_points=tuple(points), constituents=tuple(constituents),
                       tolerance=tolerance)


def load_mixture(path: str) -> MixtureSpec:
    return mixture_from_dict(read_json(path))
