"""Dense complex square-matrix arithmetic with an explicit tolerance policy.

Matrices are plain numpy ``complex128`` arrays; ``as_matrix`` is the sole
validation gate (square, finite entries).  Every "equals zero" judgement in
the package funnels through :func:`is_zero`, which mixes an absolute floor
with a caller-supplied scale: defect expressions multiply many matrix
factors, so the meaningful comparison is relative to a product of input
norms, never to 1.

The Frobenius norm is the canonical magnitude of a defect.  The spectral norm
(``op_norm_estimate``) sets every tolerance scale: ``transforms.defect_scale``
bounds each defining map by the spectral norms of its factors.  Each call is
an SVD, so ``OperatorTuple`` computes all the norms of a tuple, of its
components and of their sum, once and in one batched LAPACK call.

vec convention: column stacking, so vec(A X B) = (B^T kron A) vec(X).

JSON literal format: a matrix is an array of rows, each entry a [re, im]
pair.  Used by the CLI and golden files.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, SingularMatrixError

CMatrix = np.ndarray

#: Condition-number estimate above which inversion is refused.
SINGULARITY_CONDITION_LIMIT = 1e14


@dataclass(frozen=True)
class Tolerance:
    """Absolute + relative zero test parameters: pass iff norm <= abs_eps + rel_eps*scale."""

    abs_eps: float = 1e-10
    rel_eps: float = 1e-8

    def __post_init__(self):
        if self.abs_eps < 0 or self.rel_eps < 0:
            raise InvalidArgumentError("tolerance components must be non-negative")

    def threshold(self, scale: float) -> float:
        return self.abs_eps + self.rel_eps * scale


DEFAULT_TOL = Tolerance()


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    arr = np.asarray(value, dtype=np.complex128)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InvalidArgumentError(f"{name} must be square and non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return arr


def _require_same_shape(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape != b.shape:
        raise InvalidArgumentError(f"dimension mismatch: {a.shape} vs {b.shape}")


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def zero(n: int) -> np.ndarray:
    return np.zeros((n, n), dtype=np.complex128)


def adjoint(a) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(a).conj().T


def conj(a) -> np.ndarray:
    """Entrywise complex conjugation (the standard-basis conjugation C, as C X C)."""
    return as_matrix(a).conj()


def fro_norm(a) -> float:
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128), "fro"))


def op_norm_estimate(a):
    """Spectral norm (largest singular value, by SVD): the factor norm of every tolerance scale.

    A matrix gives a float.  A ``(k, n, n)`` stack gives the array of its k
    norms from one batched LAPACK call; each equals the float its matrix
    gives alone.
    """
    arr = np.asarray(a, dtype=np.complex128)
    if arr.ndim != 3:
        return float(np.linalg.norm(as_matrix(arr), 2))
    if arr.shape[1] != arr.shape[2] or arr.shape[1] == 0:
        raise InvalidArgumentError(
            f"stack must hold square non-empty matrices, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise InvalidArgumentError("stack contains non-finite entries")
    return np.linalg.svd(arr, compute_uv=False)[..., 0]


def inverse(a) -> np.ndarray:
    arr = as_matrix(a)
    try:
        cond = float(np.linalg.cond(arr, 2))
    except np.linalg.LinAlgError:
        cond = float("inf")
    if not np.isfinite(cond) or cond > SINGULARITY_CONDITION_LIMIT:
        raise SingularMatrixError(
            f"matrix is numerically singular (condition estimate {cond:.3e})", condition=cond
        )
    try:
        return np.linalg.inv(arr)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - cond check catches first
        raise SingularMatrixError(f"inversion failed: {exc}", condition=cond) from exc


def is_zero(m, tol: Tolerance = DEFAULT_TOL, scale: float = 1.0) -> bool:
    """True iff ||m||_F <= abs_eps + rel_eps*scale."""
    if scale < 0:
        raise InvalidArgumentError("scale must be non-negative")
    return fro_norm(m) <= tol.threshold(scale)


def max_abs_diff(a, b) -> float:
    """Largest entrywise absolute difference; used by golden comparisons."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    _require_same_shape(a, b)
    return float(np.max(np.abs(a - b)))


def vec(x) -> np.ndarray:
    """Column-stacked vectorization."""
    return np.asarray(x, dtype=np.complex128).flatten(order="F")


def unvec(v, n: int) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.size != n * n:
        raise InvalidArgumentError(f"vector of size {v.size} cannot unvec to {n}x{n}")
    return v.reshape((n, n), order="F")


def matrix_to_json(a) -> list:
    arr = as_matrix(a)
    return [[[float(z.real), float(z.imag)] for z in row] for row in arr]


def matrix_from_json(data) -> np.ndarray:
    try:
        rows = [[complex(entry[0], entry[1]) for entry in row] for row in data]
    except (TypeError, IndexError) as exc:
        raise InvalidArgumentError(f"malformed matrix literal: {exc}") from exc
    return as_matrix(rows)
