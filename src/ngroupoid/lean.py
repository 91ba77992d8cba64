"""Numpy-free code: the skeleton file reader, which names every structural fault of a
file, reads its weights by errors.packed_rows and leaves only their numeric test to numpy,
and forked children that work beside this process and send back what their work returned
or raised: a file's reader, forked only before numpy loads, and a batch's second half.
"""

from __future__ import annotations

import _signal  # signal's C core, already loaded; `import signal` builds enums at each start
import contextlib
import os
import sys
import warnings
from collections.abc import Callable, Iterator
from itertools import islice

from .errors import MAX_DIMENSION, NOT_A_MATRIX, FormatError, packed_rows, read_json


def edge_fault(n: int, tail: int, axis: int) -> str | None:
    """Why (tail, axis) is no edge of the n-cube; None where it is one."""
    if not 1 <= axis <= n:
        return f"edge axis {axis} out of range 1..{n}"
    if not 0 <= tail < 1 << n:
        return f"edge tail {tail} out of range"
    if tail >> (n - axis) & 1:
        return f"edge tail {tail} already has bit set on axis {axis}"
    return None


def _record_fault(n: int, idx: int, rec: object) -> str:
    """Why edges[idx], a record that is no new edge, stopped the reader: the checks in order."""
    where = f"skeleton: edges[{idx}]"
    if not isinstance(rec, dict):
        return f"{where} must be an object"
    for key in ("tail", "axis", "weight"):
        if key not in rec:
            return f"{where} missing field {key!r}"
    for key in ("tail", "axis"):
        if type(rec[key]) is not int:
            return f"{where}: {key!r} must be an integer, got {rec[key]!r}"
    edge = rec["tail"], rec["axis"]
    return f"{where}: {edge_fault(n, *edge) or f'duplicate edge {edge}'}"


def skeleton_parts(doc: object) -> tuple[int, list, bytes, list[int], str | None]:
    """A parsed skeleton document as (n, vertices, weights, order, fault); a bad header raises.

    ``weights``: the records' weights read, as float64 in file order, not tested for
    finiteness or invertibility; ``order``: their record indices in edge order; ``fault``:
    None, or the first structural fault (a malformed weight, where ``weights`` stops, the
    record that stopped the reader, missing edges).
    """
    if not isinstance(doc, dict):
        raise FormatError("skeleton document must be an object")
    for key in ("n", "vertices", "edges"):
        if key not in doc:
            raise FormatError(f"skeleton: missing field {key!r}")
    n, vertices, edges = doc["n"], doc["vertices"], doc["edges"]
    if type(n) is not int or not 1 <= n <= MAX_DIMENSION:
        raise FormatError(f"skeleton: 'n' must be an integer in 1..{MAX_DIMENSION}, got {n!r}")
    if not isinstance(vertices, list) or len(vertices) != 1 << n:
        raise FormatError(f"skeleton: 'vertices' must list exactly {1 << n} labels")
    if not isinstance(edges, list):
        raise FormatError("skeleton: 'edges' must be a list")
    size, rows = 1 << n, []  # rows[idx] is the weight of edges[idx]
    slots = [-1] * (n * size)  # slots[tail * n + axis - 1]: the record of edge (tail, axis)
    for idx, rec in enumerate(edges):  # one combined test per record, up to the first no new edge
        if isinstance(rec, dict) and "tail" in rec and "axis" in rec and "weight" in rec:
            tail, axis = rec["tail"], rec["axis"]
            if type(tail) is int and type(axis) is int and 1 <= axis <= n \
                    and 0 <= tail < size and not tail >> (n - axis) & 1:
                s = tail * n + axis - 1
                if slots[s] < 0:
                    slots[s] = idx
                    rows.append(rec["weight"])
                    continue
        break
    weights, malformed = packed_rows(rows)
    fault = None  # a whole file
    if malformed is not None:
        fault = f"skeleton: edges[{malformed}]: weight {NOT_A_MATRIX}"
    elif len(rows) < len(edges):
        fault = _record_fault(n, len(rows), edges[len(rows)])
    elif len(rows) < n << (n - 1):
        missing = islice(((s // n, s % n + 1) for s, r in enumerate(slots)
                          if r < 0 and not edge_fault(n, s // n, s % n + 1)), 3)
        fault = "skeleton: missing weights for edges [%s]..." % ", ".join(
            "Edge(tail=%d, axis=%d)" % edge for edge in missing)
    return n, vertices, weights, [r for r in slots if r >= 0], fault


# a skeleton file is read in a child only from this size on; below it the
# fork costs more than the parse it overlaps with numpy's import (a generated
# n=9 file holds about 0.75 MB, an n=8 file 0.34 MB)
_LEAN_BYTES = 1 << 19


def read_in_child(path: str) -> contextlib.AbstractContextManager[Callable[[], tuple]]:
    """A getter that returns ``skeleton_parts(read_json(path))`` or raises its FormatError.

    It runs in a child (_in_child) for a file of _LEAN_BYTES or more, and
    only while numpy is not loaded: after that there is no import left to
    overlap, and forking the larger process costs more than it saves.
    Otherwise, and for a file whose size cannot be read, it reads the file here.
    """
    read = lambda: skeleton_parts(read_json(path))
    with contextlib.suppress(OSError):
        if "numpy" not in sys.modules and os.path.getsize(path) >= _LEAN_BYTES:
            return _in_child(read)
    return contextlib.nullcontext(read)


# in_halves splits work with a child only where each half holds at least this
# many items; below that the fork costs more than the half saves (the writer
# splits the edge records of n >= 11, the face check the squares of n >= 10)
_SPLIT_ITEMS = 4096


def in_halves(fn: Callable[[slice], object], size: int) -> list:
    """``[fn(slice(None))]``, or, where each half of [0, size) holds _SPLIT_ITEMS or
    more, ``fn`` of the first half and of the second, the second run in a child.
    """
    half = size // 2
    if half < _SPLIT_ITEMS:
        return [fn(slice(None))]
    with _in_child(lambda: fn(slice(half, None))) as rest:
        return [fn(slice(half)), rest()]


@contextlib.contextmanager
def _in_child(fn: Callable[[], object]) -> Iterator[Callable[[], object]]:
    """Run ``fn`` in a forked child while the block runs; yield a getter of its outcome.

    The getter waits for the child and returns what ``fn`` returned there,
    or raises the Exception it raised.  Only where the child died, this
    platform cannot fork, or the outcome cannot be unpickled does the getter
    run ``fn`` here instead.  Leaving the block before the getter returned,
    by an exception or an interrupt, kills and reaps the child.
    """
    import pickle  # numpy imports it as well: no cost to a parent that loads numpy
    r, w = os.pipe()
    try:
        with warnings.catch_warnings():
            # Python 3.12+ warns on fork while other threads run, and numpy's
            # BLAS pool counts.  That is safe here: the child only formats,
            # parses or computes, then leaves by os._exit, which runs no
            # atexit hook and flushes none of this process's stdio buffers.
            warnings.filterwarnings("ignore", r"This process \(pid=\d+\) is multi-threaded",
                                    DeprecationWarning)
            pid = os.fork()
    except (AttributeError, OSError):  # no os.fork here, or no process to spare
        os.close(r)
        os.close(w)
        yield fn
        return
    if pid == 0:
        status = 1
        try:
            os.close(r)
            try:
                outcome = True, fn()
            except Exception as exc:
                outcome = False, exc
            with open(w, "wb") as out:
                pickle.dump(outcome, out)
            status = 0
        finally:
            os._exit(status)
    reaped = False

    def result() -> object:
        nonlocal reaped
        data = pipe.read()
        os.waitpid(pid, 0)
        reaped = True
        try:
            returned, value = pickle.loads(data)
        except Exception:  # a child that died leaves no whole outcome: run fn here
            return fn()
        if returned:
            return value
        raise value

    try:
        os.close(w)
        with open(r, "rb") as pipe:
            yield result
    finally:
        if not reaped:
            os.kill(pid, _signal.SIGKILL)
            os.waitpid(pid, 0)
