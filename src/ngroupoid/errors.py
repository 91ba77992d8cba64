"""Exception types shared across the package, the rules of the largest dimension and of a
comparison tolerance, and the two readers of input: the JSON reader raising them, and the
one reader of matrix rows, which every skeleton weight, implant and group element passes
through.  Numpy-free, so that every verb loads it and judges its flags before numpy loads.
"""

from __future__ import annotations

import contextlib
import json
import sys
from itertools import chain

MAX_DIMENSION = 12  # largest accepted n: a 12-cube already has 24576 edges
DEFAULT_TOL = 1e-9
NOT_A_MATRIX = "is not 9 numbers or a 3x3 nested list"
_FLOAT_MAX = sys.float_info.max


class NGroupoidError(Exception):
    """Base class for all package errors."""


class CompositionError(NGroupoidError):
    """Endpoints or facets do not line up tip-to-tail."""


class ConstructionHalted(NGroupoidError):
    """A skeleton edge has an empty arrow set: no skeleton exists.

    Carries the offending edge and its axis.
    """

    def __init__(self, edge, axis: int, source, target):
        self.edge = edge
        self.axis = axis
        self.source = source
        self.target = target
        super().__init__(
            f"no arrows {source!r} -> {target!r} in constituent {axis} "
            f"for edge {tuple(edge)}"
        )

    def __reduce__(self):  # a copy is rebuilt from its four fields, not from its message
        return type(self), (self.edge, self.axis, self.source, self.target)


class GroupValidationError(NGroupoidError):
    """An element list fails the finite-group axioms."""


class UnknownBasePointError(NGroupoidError):
    """A point label is not part of the base set."""


class PathError(NGroupoidError):
    """Path steps are not successively adjacent."""


class FormatError(NGroupoidError):
    """A structured input file fails to parse or validate."""


def check_tolerance(tol: object, name: str = "tolerance") -> float:
    """A comparison tolerance: a finite number > 0, numpy scalars included, not a boolean.

    Anything else raises ValueError, naming the value ``name``.
    """
    np = sys.modules.get("numpy")  # a numpy scalar exists only once numpy is loaded
    if np is not None and isinstance(tol, (np.integer, np.floating)):
        tol = tol.item()
    if type(tol) not in (int, float) or not 0 < tol <= _FLOAT_MAX:
        raise ValueError(f"{name} must be a finite number > 0, got {tol!r}")
    return float(tol)


def read_json(path: str) -> object:
    """Parse a JSON file; an unreadable or malformed file raises FormatError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: line {exc.lineno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an over-long integer, or too deep
        raise FormatError(f"{path}: {exc}") from exc


def packed_rows(rows: list) -> tuple[bytes, int | None]:
    """The rows as float64 bytes, up to the first that is not 9 numbers (not booleans) or a
    3x3 nested list, and its index, else None; an integer beyond the float range is infinite.
    """
    from array import array
    if set(map(type, rows)) == {list} and set(map(len, rows)) == {9} \
            and set(map(type, chain.from_iterable(rows))) <= {int, float}:
        with contextlib.suppress(OverflowError):  # a good file's rows, in one pass
            return array("d", chain.from_iterable(rows)).tobytes(), None
    packed = array("d")
    for idx, row in enumerate(rows):
        if isinstance(row, (list, tuple)) and len(row) == 3 \
                and all(isinstance(r, (list, tuple)) and len(r) == 3 for r in row):
            row = [*chain.from_iterable(row)]
        if not isinstance(row, (list, tuple)) or len(row) != 9 or not (
                set(map(type, row)) <= {int, float}
                or all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in row)):
            return packed.tobytes(), idx
        try:
            packed += array("d", row)
        except OverflowError:
            packed += array("d", [x if abs(x) <= _FLOAT_MAX else float("inf") for x in row])
    return packed.tobytes(), None
