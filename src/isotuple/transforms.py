"""Defect transforms on pairs of tuples, their superoperator lifts, and the Cesaro estimator.

The two central maps on a matrix X, for a pair (A, B) of d-tuples:

* ``sigma_apply``:  X -> sum_i A_i X B_i
* ``triangle``:     the degree-m isometric defect  (I - sigma)^m (X), via the
  binomial sum  sum_j (-1)^j C(m,j) sigma^j(X)
* ``delta``:        the degree-n symmetric defect, the binomial sum
  sum_j (-1)^j C(n,j) (sum A_i)^(n-j) X (sum B_i)^j
* ``isosym_defect``: triangle composed with delta; the order of composition is
  immaterial for internally commuting tuples.

``sigma_power`` carries two evaluation modes: ``iterate`` (the production
path, j successive applications) and ``expand`` (the multinomial expansion
over compositions, retained as an oracle).  ``superop_matrix`` lifts the maps
to dim^2 x dim^2 matrices acting on column-stacked vec(X) — the second,
independent evaluation route used for cross-checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import matrix_core as mc
from .errors import BudgetExceededError, InvalidArgumentError
from .multiindex import binomial, compositions, multinomial
from .tuples import OperatorTuple, commutes_within, max_commutator_within

#: ``expand`` mode is refused once the implied word count d**j exceeds 2**20.
EXPAND_BUDGET_LOG2 = 20.0


def _require_pair(A: OperatorTuple, B: OperatorTuple, X: np.ndarray) -> np.ndarray:
    X = mc.as_matrix(X, name="X")
    if A.d != B.d:
        raise InvalidArgumentError(f"tuple length mismatch: {A.d} vs {B.d}")
    if A.dim != B.dim or A.dim != X.shape[0]:
        raise InvalidArgumentError(
            f"dimension mismatch: A is {A.dim}, B is {B.dim}, X is {X.shape[0]}"
        )
    return X


def iso_scale_factor(A: OperatorTuple, B: OperatorTuple) -> float:
    """1 + sum_i ||A_i|| ||B_i|| (spectral norms): bounds the sigma superoperator."""
    return 1.0 + sum(a * b for a, b in zip(A.op_norms, B.op_norms))


def sym_scale_factor(A: OperatorTuple, B: OperatorTuple) -> float:
    """1 + ||sum A|| + ||sum B|| (spectral norms): bounds the left-minus-right map."""
    return 1.0 + A.sum_op_norm + B.sum_op_norm


def grown_scale(scale: float, factor: float, degree: int) -> float:
    """scale * factor**degree, refused with InvalidArgumentError when it overflows.

    An infinite scale would pass every defect, so no zero test may use one.
    """
    try:
        grown = scale * factor**degree
    except OverflowError:
        grown = math.inf
    if not math.isfinite(grown):
        raise InvalidArgumentError(
            f"tolerance scale overflows: {scale:.3e} * {factor:.3e}**{degree}"
        )
    return grown


def defect_scale(
    A: OperatorTuple, B: OperatorTuple, X, iso_degree: int, sym_degree: int = 0
) -> float:
    """Tolerance scale for the degree-(m, n) defect of (A, B) at X.

    The defining maps satisfy ||(I - sigma)^m (L - R)^n (X)||_F <=
    (1 + sum_i ||A_i|| ||B_i||)^m * (1 + ||sum A|| + ||sum B||)^n * ||X||_F
    in the spectral norm of the factors, so that product is the documented
    scale for every defect zero test: it tracks the defect's own worst-case
    growth without drowning genuinely nonzero defects at higher degrees.
    A factor raised to the power 0 is 1.0 and is skipped, norms and all.
    """
    scale = mc.fro_norm(X)
    if iso_degree:
        scale = grown_scale(scale, iso_scale_factor(A, B), iso_degree)
    if sym_degree:
        scale = grown_scale(scale, sym_scale_factor(A, B), sym_degree)
    return scale


def _sigma(A: OperatorTuple, B: OperatorTuple, Y: np.ndarray) -> np.ndarray:
    """sigma(Y) for a pair already checked against Y's shape, so that iterates are
    not checked again; a non-finite Y is refused as ``sigma_apply`` refuses it."""
    if not np.isfinite(Y).all():
        raise InvalidArgumentError("X contains non-finite entries")
    acc = np.zeros_like(Y)
    for a, b in zip(A, B):
        acc += a @ Y @ b
    return acc


def sigma_apply(A: OperatorTuple, B: OperatorTuple, X) -> np.ndarray:
    """sum_i A_i X B_i."""
    return _sigma(A, B, _require_pair(A, B, X))


def sigma_iterates(A: OperatorTuple, B: OperatorTuple, X, j_max: int) -> list[np.ndarray]:
    """[X, sigma(X), sigma^2(X), ..., sigma^j_max(X)]."""
    if j_max < 0:
        raise InvalidArgumentError("j_max must be non-negative")
    X = _require_pair(A, B, X)
    out = [X.copy()]
    for _ in range(j_max):
        out.append(_sigma(A, B, out[-1]))
    return out


def sigma_power(
    A: OperatorTuple,
    B: OperatorTuple,
    X,
    j: int,
    mode: str = "iterate",
    strict: bool | None = None,
    tol: mc.Tolerance = mc.DEFAULT_TOL,
) -> np.ndarray:
    """sigma^j(X), either by iteration or by the multinomial expansion.

    ``expand`` computes sum over |alpha|=j of (j!/alpha!) A^alpha X B^alpha and
    agrees with ``iterate`` exactly when A and B each commute internally; by
    default it therefore validates commutativity (strict defaults to True for
    expand, False for iterate).
    """
    if not isinstance(j, int) or j < 0:
        raise InvalidArgumentError(f"j must be a non-negative integer, got {j!r}")
    X = _require_pair(A, B, X)
    if mode not in ("iterate", "expand"):
        raise InvalidArgumentError(f"unknown mode {mode!r}")
    if strict is None:
        strict = mode == "expand"
    if strict:
        for name, T in (("A", A), ("B", B)):
            if not commutes_within(T, tol):
                raise InvalidArgumentError(
                    f"tuple {name} does not commute (max residual "
                    f"{max_commutator_within(T):.3e})"
                )
    if mode == "iterate":
        return sigma_iterates(A, B, X, j)[j]

    if j * math.log2(max(A.d, 1)) > EXPAND_BUDGET_LOG2:
        raise BudgetExceededError(
            f"expansion word count d**j = {A.d}**{j} exceeds the 2**{EXPAND_BUDGET_LOG2:.0f} budget"
        )
    pow_a = _component_powers(A, j)
    pow_b = _component_powers(B, j)
    acc = np.zeros_like(X)
    for alpha in compositions(A.d, j):
        coeff = multinomial(j, alpha)
        left = mc.identity(A.dim)
        right = mc.identity(A.dim)
        for i, e in enumerate(alpha):
            if e:
                left = left @ pow_a[i][e]
                right = right @ pow_b[i][e]
        acc += coeff * (left @ X @ right)
    return acc


def _component_powers(T: OperatorTuple, k_max: int) -> list[list[np.ndarray]]:
    pows = []
    for c in T:
        row = [mc.identity(T.dim), np.asarray(c)]
        for _ in range(k_max - 1):
            row.append(row[-1] @ row[1])
        pows.append(row)
    return pows


def triangle(A: OperatorTuple, B: OperatorTuple, X, m: int) -> np.ndarray:
    """Isometric defect of degree m: sum_j (-1)^j C(m,j) sigma^j(X); triangle^0 = X."""
    if not isinstance(m, int) or m < 0:
        raise InvalidArgumentError(f"m must be a non-negative integer, got {m!r}")
    return triangle_of_iterates(sigma_iterates(A, B, X, m), m)


def triangle_of_iterates(sig: list[np.ndarray], m: int) -> np.ndarray:
    """triangle^m(X) from the iterates [X, sigma(X), ..., sigma^j(X)], j >= m.

    The terms are summed in the order ``triangle`` sums them, so callers that
    share one list of iterates across degrees get the same bits.
    """
    acc = np.zeros_like(sig[0])
    for j in range(m + 1):
        acc += ((-1) ** j * binomial(m, j)) * sig[j]
    return acc


def triangle_by_iteration(A: OperatorTuple, B: OperatorTuple, X, m: int) -> np.ndarray:
    """Same defect by m applications of X -> X - sigma(X); cross-check path."""
    if not isinstance(m, int) or m < 0:
        raise InvalidArgumentError(f"m must be a non-negative integer, got {m!r}")
    Y = _require_pair(A, B, X).copy()
    for _ in range(m):
        Y = Y - _sigma(A, B, Y)
    return Y


def sum_powers(T: OperatorTuple, k_max: int) -> list[np.ndarray]:
    """[I, sum T, (sum T)^2, ..., (sum T)^k_max], each power one product from the last."""
    s = T.component_sum()
    out = [mc.identity(T.dim), s]
    for _ in range(k_max - 1):
        out.append(out[-1] @ s)
    return out[: k_max + 1]


def delta(A: OperatorTuple, B: OperatorTuple, X, n: int) -> np.ndarray:
    """Symmetric defect of degree n: sum_j (-1)^j C(n,j) (sum A)^(n-j) X (sum B)^j; delta^0 = X."""
    if not isinstance(n, int) or n < 0:
        raise InvalidArgumentError(f"n must be a non-negative integer, got {n!r}")
    X = _require_pair(A, B, X)
    if n == 0:
        return X.copy()
    pow_a = sum_powers(A, n)
    pow_b = sum_powers(B, n)
    acc = np.zeros_like(X)
    for j in range(n + 1):
        acc += ((-1) ** j * binomial(n, j)) * (pow_a[n - j] @ X @ pow_b[j])
    return acc


def delta_by_iteration(A: OperatorTuple, B: OperatorTuple, X, n: int) -> np.ndarray:
    """Same defect by n applications of X -> (sum A) X - X (sum B); cross-check path."""
    if not isinstance(n, int) or n < 0:
        raise InvalidArgumentError(f"n must be a non-negative integer, got {n!r}")
    Y = _require_pair(A, B, X).copy()
    sa = A.component_sum()
    sb = B.component_sum()
    for _ in range(n):
        Y = sa @ Y - Y @ sb
    return Y


def isosym_defect(A: OperatorTuple, B: OperatorTuple, X, m: int, n: int) -> np.ndarray:
    """triangle^m applied to delta^n(X); equals the swapped composition for commuting tuples."""
    return triangle(A, B, delta(A, B, X, n), m)


def superop_matrix(A: OperatorTuple, B: OperatorTuple, kind: str = "sigma") -> np.ndarray:
    """Kronecker lift acting on column-stacked vec(X).

    * ``sigma``:     sum_i B_i^T (x) A_i      (vec(A_i X B_i) = (B_i^T (x) A_i) vec X)
    * ``left_sum``:  I (x) sum A_i            (vec((sum A_i) X))
    * ``right_sum``: (sum B_i)^T (x) I        (vec(X (sum B_i)))
    """
    if A.d != B.d or A.dim != B.dim:
        raise InvalidArgumentError("A and B must have equal length and dimension")
    n = A.dim
    if kind == "sigma":
        acc = np.zeros((n * n, n * n), dtype=np.complex128)
        for a, b in zip(A, B):
            acc += np.kron(b.T, a)
        return acc
    if kind == "left_sum":
        return np.kron(np.eye(n), A.component_sum())
    if kind == "right_sum":
        return np.kron(B.component_sum().T, np.eye(n))
    raise InvalidArgumentError(f"unknown superoperator kind {kind!r}")


def cesaro_estimate(
    A: OperatorTuple,
    B: OperatorTuple,
    X,
    m: int,
    t_max: int,
    tol: mc.Tolerance = mc.DEFAULT_TOL,
) -> list[tuple[int, float]]:
    """Error sequence of the normalized sigma powers against the degree-(m-1) defect.

    For an (X,m)-isometric pair, sigma^t(X) / C(t, m-1) converges to
    triangle^(m-1)(X); this returns e_t = ||sigma^t(X)/C(t,m-1) - triangle^(m-1)(X)||_F
    for t = m..t_max and leaves the pass/fail judgement to the caller.  A pair
    that is not (X,m)-isometric is refused.  Sigma is applied t_max times.
    """
    _require_cesaro_degrees(m, t_max)
    sig = sigma_iterates(A, B, X, m)
    defect = triangle_of_iterates(sig, m)
    scale = defect_scale(A, B, X, m)
    if not mc.is_zero(defect, tol, scale=scale):
        raise InvalidArgumentError(
            f"pair is not (X,{m})-isometric: defect norm {mc.fro_norm(defect):.3e} "
            f"exceeds threshold {tol.threshold(scale):.3e}"
        )
    return cesaro_errors(A, B, sig, m, t_max)


def _require_cesaro_degrees(m, t_max) -> None:
    if not isinstance(m, int) or m < 1:
        raise InvalidArgumentError(f"m must be a positive integer, got {m!r}")
    if not isinstance(t_max, int) or t_max < m:
        raise InvalidArgumentError(f"t_max must be an integer >= m, got {t_max!r}")


def cesaro_errors(
    A: OperatorTuple, B: OperatorTuple, sig: list[np.ndarray], m: int, t_max: int
) -> list[tuple[int, float]]:
    """The errors of ``cesaro_estimate``, continuing the iterates ``sig`` of (A, B).

    ``sig`` is [X, sigma(X), ..., sigma^j(X)] with j >= m, as ``sigma_iterates``
    returns it; the iteration continues from sigma^m(X) without storing the
    later iterates, so sigma is applied t_max - m more times.  The pair is not
    checked for being (X,m)-isometric.
    """
    _require_cesaro_degrees(m, t_max)
    reference = triangle_of_iterates(sig, m - 1)
    Y = sig[m]
    out = [(m, mc.fro_norm(Y / binomial(m, m - 1) - reference))]
    for t in range(m + 1, t_max + 1):
        Y = _sigma(A, B, Y)
        out.append((t, mc.fro_norm(Y / binomial(t, m - 1) - reference)))
    return out


@dataclass(frozen=True)
class DefectProfile:
    """Per-degree defect norms with minimal vanishing degrees.

    ``triangle_norms[k]`` and ``delta_norms[k]`` hold the Frobenius norms of
    the degree-k defects for k = 0..k_max.  Minimal degrees are judged with
    the per-degree scale ``defect_scale(A, B, X, k)``; ``scale`` records the
    value at k_max.  Degrees above a minimal degree that fail the zero test
    (impossible in exact arithmetic, by degree monotonicity) are recorded as
    tolerance anomalies.
    """

    triangle_norms: tuple[float, ...]
    delta_norms: tuple[float, ...]
    min_isometry_degree: int | None
    min_symmetry_degree: int | None
    scale: float
    isometry_anomalies: tuple[int, ...] = field(default=())
    symmetry_anomalies: tuple[int, ...] = field(default=())

    def __post_init__(self):
        if any(v < 0 for v in self.triangle_norms) or any(v < 0 for v in self.delta_norms):
            raise InvalidArgumentError("defect norms must be non-negative")
        if self.scale < 0:
            raise InvalidArgumentError("scale must be non-negative")

    @property
    def k_max(self) -> int:
        return len(self.triangle_norms) - 1

    def to_json(self) -> dict:
        return {
            "k_max": self.k_max,
            "triangle_norms": list(self.triangle_norms),
            "delta_norms": list(self.delta_norms),
            "min_isometry_degree": self.min_isometry_degree,
            "min_symmetry_degree": self.min_symmetry_degree,
            "scale": self.scale,
            "isometry_anomalies": list(self.isometry_anomalies),
            "symmetry_anomalies": list(self.symmetry_anomalies),
        }
