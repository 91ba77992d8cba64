"""Small helpers around invertible 3x3 matrices.

All weights in this package are real 3x3 matrices acting on reference
crystal bases, stored as float64 numpy arrays.  Comparisons are relative
Frobenius distances so that tolerances survive rescaling.
"""

from __future__ import annotations

import numpy as np

DET_THRESHOLD = 1e-12
DEFAULT_TOL = 1e-9

IDENTITY = np.eye(3)

_SQRT3 = np.sqrt(3.0)


def as_matrix(data: object) -> np.ndarray:
    """Coerce nested lists / arrays to a finite float64 3x3 matrix (copy)."""
    m = np.array(data, dtype=float)
    if m.shape == (9,):
        m = m.reshape(3, 3)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if np.count_nonzero(np.isfinite(m)) != 9:  # cheaper than .all() on the hot path
        raise ValueError("matrix has non-finite entries")
    return m


def to_row_major(m: np.ndarray) -> list[float]:
    """Flatten to the 9-float row-major list used in JSON files."""
    return [float(x) for x in np.asarray(m, dtype=float).reshape(9)]


def check_invertible(m: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Return the matrix if |det| clears DET_THRESHOLD, else raise."""
    m = as_matrix(m)
    det = float(np.linalg.det(m))
    if abs(det) <= DET_THRESHOLD:
        raise ValueError(f"{what} is numerically singular (det={det:.3e})")
    return m


def rel_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Frobenius distance scaled by the larger operand norm.

    Zero for two exact zero matrices.
    """
    return float(rel_distances(a, b))


def matrices_close(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    return rel_distance(a, b) <= tol


def identity_deviation(m: np.ndarray) -> float:
    """How far a matrix sits from the identity: ||m - I||_F / ||I||_F."""
    return float(np.linalg.norm(np.asarray(m, dtype=float) - IDENTITY) / _SQRT3)


def random_invertible(
    rng: np.random.Generator, min_det: float = 0.1
) -> np.ndarray:
    """Uniform[-1,1] entries, resampled until |det| > min_det.

    The det floor keeps downstream inversions well conditioned.
    """
    while True:
        m = rng.uniform(-1.0, 1.0, size=(3, 3))
        if abs(np.linalg.det(m)) > min_det:
            return m


# -- stacks of (k, 3, 3) matrices, bit-identical to the scalar functions ----
# np.linalg.norm of one matrix is sqrt(f @ f) over its flattened entries f;
# np.linalg.norm(x, axis=(1, 2)) sums in another order, a stacked matmul not.

def frobenius(ms: np.ndarray) -> np.ndarray:
    """Frobenius norm of every matrix in a stack."""
    f = ms.reshape(-1, 9)
    return np.sqrt((f[:, None, :] @ f[:, :, None]).reshape(-1))


def rel_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """rel_distance of each pair of 3x3 matrices, broadcast over leading axes.

    Each pair is first divided by 2**e, with 2**(e-1) <= its largest |entry|
    < 2**e, so that no square overflows.  The division is exact: where nothing
    overflowed, the result equals the unscaled formula bit for bit.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a.shape[:-2]
    a, b = a.reshape(-1, 3, 3), b.reshape(-1, 3, 3)
    peak = np.maximum(np.abs(a).max(axis=(1, 2), initial=0.0),
                      np.abs(b).max(axis=(1, 2), initial=0.0))
    e = -np.frexp(peak)[1][:, None, None]
    a, b = np.ldexp(a, e), np.ldexp(b, e)
    na, nb = frobenius(a), frobenius(b)
    scale = np.where(nb > na, nb, na)
    d = np.divide(frobenius(a - b), scale, out=np.zeros_like(scale), where=scale != 0.0)
    return d.reshape(shape)


def close_to_any(ms: np.ndarray, stack: np.ndarray, tol: float) -> np.ndarray:
    """Whether each matrix in ``ms`` lies within ``tol`` of some matrix of ``stack``."""
    return (rel_distances(np.asarray(ms)[..., None, :, :], stack) <= tol).any(axis=-1)


def identity_deviations(ms: np.ndarray) -> np.ndarray:
    """identity_deviation of every matrix in a stack."""
    return frobenius(ms - IDENTITY) / _SQRT3


def first_invalid(ms: np.ndarray, what: str) -> tuple[int, str] | None:
    """Position and reason of the first non-finite or singular matrix, or None."""
    finite = np.isfinite(ms).all(axis=(1, 2))
    with np.errstate(over="ignore"):  # an infinite determinant passes
        det = np.linalg.det(ms if finite.all() else np.where(finite[:, None, None], ms, IDENTITY))
    bad = np.flatnonzero(~finite | (np.abs(det) <= DET_THRESHOLD))
    if not len(bad):
        return None
    k = int(bad[0])
    if not finite[k]:
        return k, f"{what} has non-finite entries"
    return k, f"{what} is numerically singular (det={det[k]:.3e})"
