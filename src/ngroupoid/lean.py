"""Numpy-free code: the skeleton reader's record loop, a read of a whole
skeleton file without numpy, and a forked child that runs work beside this
process.  ``check`` forks its reader before numpy loads.
"""

from __future__ import annotations

import _signal  # signal's C core, already loaded; `import signal` builds enums at each start
import contextlib
import os
import warnings
from collections.abc import Callable, Iterator

from .errors import FormatError, read_json


def edge_records(n: int, edges: list) -> tuple[list, list[int]]:
    """(rows, slots) of a skeleton's edge records, read up to the first that is no new n-cube edge.

    ``rows[idx]`` is the weight of ``edges[idx]``; ``slots[tail * n + axis - 1]``
    is the index of edge (tail, axis)'s record, -1 where it has none.  Slots run
    in edge order, so once every edge has its record, the slots >= 0 list them.
    """
    size = 1 << n
    slots = [-1] * (n * size)
    rows: list = []
    for idx, rec in enumerate(edges):
        if isinstance(rec, dict) and "tail" in rec and "axis" in rec and "weight" in rec:
            tail, axis = rec["tail"], rec["axis"]
            if type(tail) is int and type(axis) is int and 1 <= axis <= n \
                    and 0 <= tail < size and not tail >> (n - axis) & 1:
                s = tail * n + axis - 1
                if slots[s] < 0:
                    slots[s] = idx
                    rows.append(rec["weight"])
                    continue
        break  # edges[len(rows)] is no new edge
    return rows, slots


def lean_skeleton(path: str) -> bytes:
    """A whole skeleton file as marshalled (n, vertices, weights), read without numpy.

    The weights are one float64 buffer in edge order, not checked for
    finiteness or invertibility.  A fault, or a weight that is not 9 plain
    ints or floats in the float range, gives b"": the full reader names it.
    """
    import marshal
    from array import array
    from itertools import chain
    try:
        doc = read_json(path)
    except FormatError:
        return b""
    n, vertices, edges = (doc.get(k) for k in ("n", "vertices", "edges")) \
        if isinstance(doc, dict) else (None, None, None)
    # 2**n vertices, tested without computing 2**n for a huge n
    if type(n) is not int or n < 1 or not isinstance(vertices, list) \
            or len(vertices).bit_length() != n + 1 or len(vertices) != 1 << n \
            or not isinstance(edges, list):
        return b""
    rows, slots = edge_records(n, edges)
    weights = [rows[r] for r in slots if r >= 0]
    if not len(rows) == len(edges) == n << (n - 1) \
            or set(map(type, weights)) != {list} or set(map(len, weights)) != {9} \
            or not set(map(type, chain.from_iterable(weights))) <= {int, float}:
        return b""
    try:
        flat = array("d", chain.from_iterable(weights))
    except OverflowError:  # an integer beyond the float range
        return b""
    return marshal.dumps((n, vertices, flat.tobytes()))


# check reads a skeleton file in a child only from this size on; below it the
# fork costs more than the parse it overlaps with numpy's import (a generated
# n=9 file holds about 0.75 MB, an n=8 file 0.34 MB)
_LEAN_BYTES = 1 << 19


def read_in_child(path: str) -> contextlib.AbstractContextManager[Callable[[], bytes]]:
    """``_in_child(lambda: lean_skeleton(path))`` for a file of _LEAN_BYTES or more.

    For a smaller file, or one whose size cannot be read, the getter
    returns b"" at once, which leaves the file to the full reader.
    """
    with contextlib.suppress(OSError):
        if os.path.getsize(path) >= _LEAN_BYTES:
            return _in_child(lambda: lean_skeleton(path))
    return contextlib.nullcontext(lambda: b"")


@contextlib.contextmanager
def _in_child(fn: Callable[[], bytes]) -> Iterator[Callable[[], bytes]]:
    """Run ``fn`` in a forked child while the block runs; yield a getter of its bytes.

    The getter waits for the child and returns the bytes ``fn`` returned
    there.  Where the child failed, or this platform cannot fork, the getter
    runs ``fn`` here instead, so its result or error is that of ``fn``
    alone.  Leaving the block before the getter returned, by an exception or
    an interrupt, kills and reaps the child.
    """
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
            with open(w, "wb") as out:
                out.write(fn())
            status = 0
        finally:
            os._exit(status)
    reaped = False

    def result() -> bytes:
        nonlocal reaped
        data = pipe.read()
        status = os.waitpid(pid, 0)[1]
        reaped = True
        return data if status == 0 else fn()

    try:
        os.close(w)
        with open(r, "rb") as pipe:
            yield result
    finally:
        if not reaped:
            os.kill(pid, _signal.SIGKILL)
            os.waitpid(pid, 0)
