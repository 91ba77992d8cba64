"""Exception types shared across the package, and the JSON reader raising them."""

from __future__ import annotations

import json

MAX_DIMENSION = 12  # largest accepted n: a 12-cube already has 24576 edges


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


class GroupValidationError(NGroupoidError):
    """An element list fails the finite-group axioms."""


class UnknownBasePointError(NGroupoidError):
    """A point label is not part of the base set."""


class PathError(NGroupoidError):
    """Path steps are not successively adjacent."""


class FormatError(NGroupoidError):
    """A structured input file fails to parse or validate."""


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
