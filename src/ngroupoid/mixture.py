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
are strings, and implant keys must reference declared base points.  A
``MixtureSpec`` built in Python may also label points with integers; it
needs a base point and checks its tolerance as the reader does.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DEFAULT_TOL, FormatError, GroupValidationError, check_tolerance, read_json
from .groupoid import ConstituentGroupoid, Label, SymmetryGroup


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
        if not self.base_points:
            raise FormatError("base point set is empty")
        if len(set(self.base_points)) != len(self.base_points):
            raise FormatError("duplicate base point labels")
        try:
            self.tolerance = check_tolerance(self.tolerance)
        except ValueError as exc:
            raise FormatError(str(exc)) from exc
        names = [c.name for c in self.constituents]
        if len(set(names)) != len(names):
            raise FormatError("duplicate constituent names")
        for c in self.constituents:
            bad = [p for p in c.implants if p not in self.base_points]
            if bad:
                raise FormatError(f"constituent {c.name!r}: implants at undeclared points {bad!r}")

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
    if not isinstance(points, list) or not points or any(type(p) is not str for p in points):
        raise FormatError("mixture: field 'base_points' must be a nonempty list of strings, "
                          "as implants are keyed by point and JSON keys are strings")
    try:
        tolerance = check_tolerance(doc.get("tolerance", DEFAULT_TOL), "mixture: field 'tolerance'")
    except ValueError as exc:
        raise FormatError(str(exc)) from exc
    raw_constituents = _require(doc, "constituents", "mixture")
    if not isinstance(raw_constituents, list):
        raise FormatError("mixture: field 'constituents' must be a list")

    constituents = []
    groups: dict[str, SymmetryGroup] = {}  # one validation per distinct spec
    for idx, raw in enumerate(raw_constituents):
        where = f"constituent[{idx}]"
        if not isinstance(raw, dict):
            raise FormatError(f"{where}: must be an object")
        name = raw.get("name", f"constituent-{idx + 1}")
        if not isinstance(name, str):
            raise FormatError(f"{where}: field 'name' must be a string")
        spec = _require(raw, "symmetry", where)
        key = repr(spec)
        if key not in groups:
            try:
                groups[key] = SymmetryGroup.from_spec(spec, tol=tolerance)
            except (GroupValidationError, ValueError) as exc:
                raise FormatError(f"{where} ({name}): {exc}") from exc
        implants_raw = _require(raw, "implants", where)
        if not isinstance(implants_raw, dict):
            raise FormatError(f"{where}: field 'implants' must be an object")
        try:
            constituents.append(ConstituentGroupoid(name, implants_raw, groups[key]))
        except ValueError as exc:
            raise FormatError(f"{where} ({name}): {exc}") from exc

    return MixtureSpec(n=n, base_points=tuple(points), constituents=tuple(constituents),
                       tolerance=tolerance)


def load_mixture(path: str) -> MixtureSpec:
    return mixture_from_dict(read_json(path))
