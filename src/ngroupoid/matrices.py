"""Small helpers around invertible 3x3 matrices.

All weights in this package are real 3x3 matrices acting on reference
crystal bases, stored as float64 numpy arrays.  Every matrix read from
input, a skeleton weight, an implant or a group element, is read by
errors.packed_rows and tested here by first_invalid.  Comparisons are
relative Frobenius distances so that tolerances survive rescaling; the
tolerance rule and its default are numpy-free, in errors.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DEFAULT_TOL, NOT_A_MATRIX, packed_rows

DET_THRESHOLD = 1e-12

IDENTITY = np.eye(3)
inv, det = np.linalg.inv, np.linalg.det  # every inverse and determinant; bits vary by BLAS kernel

_SQRT3 = np.sqrt(3.0)
_PAIRS = 2**14  # matrix pairs compared at once by close_to_any and by a group's own tests


def check_invertible(rows: Sequence, name: Callable[[int], str]) -> np.ndarray:
    """Rows read from input as one finite, invertible, writable float64 (k, 3, 3) stack.

    Each row is read by errors.packed_rows, a numpy array by its tolist(),
    and must have |det| > DET_THRESHOLD.  The first bad row in order raises
    ValueError naming it, ``name(i)``, and the reason.
    """
    packed, malformed = packed_rows([r.tolist() if isinstance(r, np.ndarray) else r
                                     for r in rows])
    ms = np.frombuffer(packed).reshape(-1, 3, 3).copy()
    bad = first_invalid(ms)
    if bad:
        raise ValueError(f"{name(bad[0])} {bad[1]}")
    if malformed is not None:
        raise ValueError(f"{name(malformed)} {NOT_A_MATRIX}")
    return ms


def rel_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance scaled by the larger operand norm.

    Zero for two exact zero matrices.
    """
    return float(rel_distances(a, b))


def matrices_close(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return rel_distance(a, b) <= tol


def identity_deviation(m: np.ndarray) -> float:
    """identity_deviations of one matrix."""
    return float(identity_deviations(m)[0])


def random_invertible(rng: np.random.Generator, count: int) -> np.ndarray:
    """A (count, 3, 3) stack of Uniform[-1,1] matrices, each resampled until |det| > 0.1.

    The det floor keeps downstream inversions well conditioned.  Each round
    draws only the matrices still needed and keeps those that pass, in
    order, so the stack and the generator's state afterwards are those of
    drawing one matrix at a time.
    """
    out = np.empty((count, 3, 3))
    done = 0
    while done < count:
        m = rng.uniform(-1.0, 1.0, size=(count - done, 3, 3))
        m = m[np.abs(det(m)) > 0.1]
        out[done:done + len(m)] = m
        done += len(m)
    return out


# -- stacks of (k, 3, 3) matrices, bit-identical to the scalar functions ----
# np.linalg.norm of one matrix is sqrt(f @ f) over its flattened entries f;
# np.linalg.norm(x, axis=(1, 2)) sums in another order, a stacked matmul not.
# Before squaring, a matrix is divided by 2**e, with 2**(e-1) <= its largest
# |entry| < 2**e, so that no square overflows.  The division is exact: where
# nothing overflowed, the result equals the unscaled formula bit for bit.

def _norms(ms: np.ndarray) -> np.ndarray:
    f = ms.reshape(-1, 9)
    return np.sqrt((f[:, None, :] @ f[:, :, None]).reshape(-1))


def frobenius(ms: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a stack, scaled as above."""
    ms = ms.reshape(-1, 3, 3)
    e = np.frexp(np.abs(ms).max(axis=(1, 2), initial=0.0))[1]
    return np.ldexp(_norms(np.ldexp(ms, -e[:, None, None])), e)


def rel_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rel_distance of each pair of 3x3 matrices, broadcast over leading axes.

    Both matrices of a pair are scaled as above, by the power of two of the
    larger largest |entry|.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape[:-2]
    a, b = a.reshape(-1, 3, 3), b.reshape(-1, 3, 3)
    peak = np.maximum(np.abs(a).max(axis=(1, 2), initial=0.0),
                      np.abs(b).max(axis=(1, 2), initial=0.0))
    e = -np.frexp(peak)[1][:, None, None]
    a, b = np.ldexp(a, e), np.ldexp(b, e)
    na, nb = _norms(a), _norms(b)
    scale = np.where(nb > na, nb, na)
    d = np.divide(_norms(a - b), scale, out=np.zeros_like(scale), where=scale != 0.0)
    return d.reshape(shape)


def close_to_any(ms: np.ndarray, stack: np.ndarray, tol: float) -> np.ndarray:
    """Whether each matrix in ``ms`` lies within ``tol`` of some matrix of ``stack``.

    Each is tested first against its nearest matrix in squared Frobenius
    distance, and against all only if that fails, each pair by rel_distances.
    """
    rows, flat = np.asarray(ms, dtype=float).reshape(-1, 3, 3), stack.reshape(-1, 9)
    hit = np.zeros(len(rows), dtype=bool)
    if len(flat):
        step = max(1, _PAIRS // len(flat))  # rows tested at once, each against every candidate
        for i in range(0, len(rows), step):
            part, ok = rows[i:i + step], hit[i:i + step]
            with np.errstate(all="ignore"):  # an overflow only spoils the pick
                near = ((flat * flat).sum(1) - 2.0 * (part.reshape(-1, 9) @ flat.T)).argmin(1)
            ok[:] = rel_distances(part, stack[near]) <= tol
            if not ok.all():
                ok[~ok] = (rel_distances(part[~ok, None], stack) <= tol).any(axis=-1)
    return hit.reshape(np.shape(ms)[:-2])[()]


def identity_deviations(ms: np.ndarray) -> np.ndarray:
    """How far each matrix of a stack sits from the identity: ||m - I||_F / ||I||_F."""
    return frobenius(ms - IDENTITY) / _SQRT3


def first_invalid(ms: np.ndarray) -> tuple[int, str] | None:
    """Position and reason of the first non-finite or singular matrix, or None.

    The reason reads as a predicate: "has non-finite entries" or "is
    numerically singular (det=...)".
    """
    finite = np.isfinite(ms).all(axis=(1, 2))
    with np.errstate(over="ignore"):  # an infinite determinant passes
        dets = det(ms if finite.all() else np.where(finite[:, None, None], ms, IDENTITY))
    bad = np.flatnonzero(~finite | (np.abs(dets) <= DET_THRESHOLD))
    if not len(bad):
        return None
    k = int(bad[0])
    if not finite[k]:
        return k, "has non-finite entries"
    return k, f"is numerically singular (det={dets[k]:.3e})"
