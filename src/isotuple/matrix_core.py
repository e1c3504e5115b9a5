"""Dense complex square-matrix arithmetic with an explicit tolerance policy.

Matrices are plain numpy ``complex128`` arrays; ``as_matrix`` validates a
matrix and ``as_stack`` a ``(k, n, n)`` stack of them (square, non-empty,
finite entries), and both refuse, through ``complex_array``, a value that
NumPy cannot read as complex numbers.  An operator tuple stores its
components as one such stack, so a map applied componentwise is one batched
array expression; a sum over a stack runs in index order through
``ordered_sum``, so a stacked kernel gives the same bits as the loop over
components it replaces.

Every "equals zero" judgement in the package compares a Frobenius norm with
:meth:`Tolerance.threshold`, an absolute floor plus a caller-supplied scale:
defect expressions multiply many matrix factors, so the meaningful
comparison is relative to a product of input norms, never to 1.
``transforms.defect_stack_checks`` pairs each defect with the threshold of its
own scale; :func:`is_zero` tests any matrix against a given scale.

The Frobenius norm is the canonical magnitude of a defect; ``fro_norm_array``
gives those of a whole stack of matrices, with the bits of each alone.  The
spectral norm (``op_norm_estimate``) sets every tolerance scale: one helper
in ``transforms`` bounds each defining map by the spectral norms of its
factors.  Each norm is an SVD, so a tuple's norms come in two parts that are
computed only when a scale reads them: its components' (isometric scales)
and its component sum's (symmetric ones).  The parts that a batch of zero
tests reads come from one batched LAPACK call per matrix dimension, and each
tuple keeps its own.

vec convention: column stacking, so vec(A X B) = (B^T kron A) vec(X).

JSON literal format: a matrix is an array of rows of equal length, each
entry exactly a [re, im] pair of numbers.  Used by the CLI and golden files;
any other shape is refused as a malformed literal.
"""

from __future__ import annotations

import math
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
        # NaN fails every comparison and an infinite component passes every
        # defect, so both are refused along with negative values
        for value in (self.abs_eps, self.rel_eps):
            if not (math.isfinite(value) and value >= 0):
                raise InvalidArgumentError(
                    f"tolerance components must be finite and non-negative, got {value!r}"
                )

    def threshold(self, scale: float) -> float:
        return self.abs_eps + self.rel_eps * scale


DEFAULT_TOL = Tolerance()


def complex_array(value, name: str = "matrix") -> np.ndarray:
    """``value`` as a complex128 array, as ``np.asarray`` reads it; a value that NumPy
    cannot read as complex numbers (a string, an object, a ragged list, an int too
    large for a float) is refused with InvalidArgumentError."""
    try:
        return np.asarray(value, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"{name} is not an array of complex numbers: {exc}") from exc


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a square complex128 array with finite entries."""
    arr = complex_array(value, name)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InvalidArgumentError(f"{name} must be square and non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return arr


def as_stack(value, name: str = "stack") -> np.ndarray:
    """Coerce to a C-contiguous complex128 ``(k, n, n)`` stack of square matrices, k, n >= 1,
    with finite entries: one shape check and one finiteness check for the whole stack."""
    arr = np.ascontiguousarray(complex_array(value, name))
    if arr.ndim != 3 or arr.shape[1] != arr.shape[2] or 0 in arr.shape:
        raise InvalidArgumentError(
            f"{name} must hold square non-empty matrices, got shape {arr.shape}"
        )
    if not np.isfinite(arr).all():
        raise InvalidArgumentError(f"{name} contains non-finite entries")
    return arr


def ordered_sum(stack: np.ndarray) -> np.ndarray:
    """0 + stack[0] + stack[1] + ... + stack[-1] for a C-contiguous stack.

    The result has the bits, the sign of zero included, of a loop that adds
    each matrix in index order onto a zero matrix.  Over matrices with more
    than one entry, NumPy's reduction along the first axis does exactly that.
    Over 1 x 1 matrices it sums a contiguous vector pairwise instead, so there
    the stack is accumulated, which is sequential by definition but starts
    from stack[0]; adding +0.0 last turns a -0.0 into the +0.0 that a zero
    start gives and leaves every other value alone.
    """
    if stack.shape[-1] > 1:
        return np.add.reduce(stack, axis=0)
    acc = np.add.accumulate(stack, axis=0)[-1]
    acc += 0.0
    return acc


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


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a (x) b over the last two axes, broadcast over the leading ones.

    Entry ((p, r), (q, s)) of a (x) b is a[p, q] * b[r, s], one product as
    ``np.kron`` forms it, so each result has its bits.
    """
    n = a.shape[-1] * b.shape[-1]
    outer = a[..., :, None, :, None] * b[..., None, :, None, :]
    return outer.reshape(*outer.shape[:-4], n, n)


def fro_norm(a) -> float:
    """Frobenius norm, computed as ``np.linalg.norm(a, "fro")`` computes it for a
    complex matrix (two BLAS dot products over the entries in memory order),
    so it gives the same bits, without that function's dispatch."""
    x = np.asarray(a, dtype=np.complex128).ravel(order="K")
    re, im = x.real, x.imag
    return math.sqrt(re.dot(re) + im.dot(im))


def matrix_powers(S: np.ndarray, k_max: int) -> np.ndarray:
    """The (k_max + 1, ..., n, n) stack [I, S, S^2, ..., S^k_max] of a matrix, or of each
    matrix of a stack: each power is one product from the last."""
    powers = np.empty((k_max + 1, *S.shape), dtype=np.complex128)
    powers[0] = identity(S.shape[-1])
    if k_max:
        powers[1] = S
    for k in range(2, k_max + 1):
        np.matmul(powers[k - 1], S, out=powers[k])
    return powers


def fro_norm_array(stack: np.ndarray) -> np.ndarray:
    """``fro_norm`` of each matrix of a ``(..., n, n)`` array, as an array of its leading
    shape, with its bits: the same two dot products per matrix, from two batched calls."""
    flat = stack.reshape(*stack.shape[:-2], stack.shape[-2] * stack.shape[-1])
    re, im = flat.real, flat.imag
    return np.sqrt(np.vecdot(re, re) + np.vecdot(im, im))


def op_norm_estimate(a):
    """Spectral norm (largest singular value, by SVD): the factor norm of every tolerance scale.

    A matrix gives a float.  A ``(k, n, n)`` stack gives the array of its k
    norms from one batched LAPACK call; each equals the float its matrix
    gives alone.
    """
    if np.ndim(a) != 3:
        return float(np.linalg.norm(as_matrix(a), 2))
    return np.linalg.svd(as_stack(a), compute_uv=False)[..., 0]


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
    # an infinite scale passes every matrix and a NaN one fails every matrix,
    # so both are refused, as Tolerance refuses such components
    if not (math.isfinite(scale) and scale >= 0):
        raise InvalidArgumentError(f"scale must be finite and non-negative, got {scale!r}")
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
    return [[[z.real, z.imag] for z in row] for row in as_matrix(a).tolist()]


def _boolean_part():
    raise InvalidArgumentError("malformed matrix literal: an entry part is a boolean")


def matrix_from_json(data) -> np.ndarray:
    """Parse an array of rows of ``[re, im]`` pairs of numbers; anything else, a boolean
    part included, is a malformed literal."""
    try:
        # unpacking refuses an entry that is not exactly a pair, and complex() would read a
        # JSON true or false as 1 or 0 (the test is on both parts, one chained comparison)
        rows = [[complex(re, im) if type(re) is not bool is not type(im) else _boolean_part() for re, im in row]
                for row in data]
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidArgumentError(f"malformed matrix literal: {exc}") from exc
    lengths = sorted({len(row) for row in rows})
    if len(lengths) > 1:
        raise InvalidArgumentError(
            f"malformed matrix literal: rows have different lengths {lengths}"
        )
    return as_matrix(rows)
