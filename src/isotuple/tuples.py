"""Commuting d-tuples of matrices and the constructions used on them.

An :class:`OperatorTuple` is an immutable ordered list of equal-dimension
square complex matrices.  Commutativity is a checked predicate, not a
constructor invariant: generators produce exactly-commuting tuples, while
user-supplied tuples are validated at use sites (strict mode raises, lax mode
lets the caller record the residual).

Orderings are pinned for reproducibility:

* ``product_tuple(S, A)`` lists all d1*d2 products S_j A_i row-major in j then i.
* ``tensor_tuple(A, B)`` lists A_i (x) B_j row-major in i then j.
* ``power_tuple(..., word)`` enumerates index words lexicographically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from . import matrix_core as mc
from .errors import BudgetExceededError, InvalidArgumentError, SingularMatrixError
from .multiindex import compositions

#: Word enumerations are refused once d**t exceeds 2**WORD_BUDGET_LOG2.
WORD_BUDGET_LOG2 = 20.0


class PowerConvention(str, Enum):
    """How to raise a tuple to a power: all length-t words, or componentwise."""

    WORD = "word"
    COMPONENTWISE = "componentwise"


@dataclass(frozen=True)
class OperatorTuple:
    """Ordered tuple of same-dimension square complex matrices.

    Components are stored as read-only copies, so quantities derived from them
    alone are computed on first use and kept for the life of the tuple: the
    component sum, and the spectral norms behind every tolerance scale, which
    come from one batched LAPACK call over the components and their sum.
    """

    components: tuple[np.ndarray, ...]

    def __post_init__(self):
        comps = tuple(mc.as_matrix(c, name=f"component {i}") for i, c in enumerate(self.components))
        if len(comps) < 1:
            raise InvalidArgumentError("operator tuple must have at least one component")
        dim = comps[0].shape[0]
        for i, c in enumerate(comps):
            if c.shape[0] != dim:
                raise InvalidArgumentError(
                    f"component {i} has dimension {c.shape[0]}, expected {dim}"
                )
        frozen = []
        for c in comps:
            c = c.copy()
            c.setflags(write=False)
            frozen.append(c)
        object.__setattr__(self, "components", tuple(frozen))

    @classmethod
    def of(cls, *matrices) -> "OperatorTuple":
        return cls(tuple(matrices))

    @property
    def d(self) -> int:
        return len(self.components)

    @property
    def dim(self) -> int:
        return self.components[0].shape[0]

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def component_sum(self) -> np.ndarray:
        """Sum of the components, read-only."""
        return self._sum

    @cached_property
    def _sum(self) -> np.ndarray:
        s = sum(self.components[1:], start=self.components[0].copy())
        s.setflags(write=False)
        return s

    @cached_property
    def _norms(self) -> tuple[float, ...]:
        """Spectral norms of the components, then of their sum."""
        stack = np.stack((*self.components, self._sum))
        return tuple(float(v) for v in mc.op_norm_estimate(stack))

    @property
    def op_norms(self) -> tuple[float, ...]:
        """Spectral norm of each component."""
        return self._norms[:-1]

    @property
    def sum_op_norm(self) -> float:
        """Spectral norm of ``component_sum()``."""
        return self._norms[-1]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "d": self.d,
            "components": [mc.matrix_to_json(c) for c in self.components],
        }

    @classmethod
    def from_json(cls, data) -> "OperatorTuple":
        try:
            comps = [mc.matrix_from_json(m) for m in data["components"]]
        except (KeyError, TypeError) as exc:
            raise InvalidArgumentError(f"malformed tuple literal: {exc}") from exc
        tup = cls(tuple(comps))
        if "d" in data and data["d"] != tup.d:
            raise InvalidArgumentError(f"declared d={data['d']} but found {tup.d} components")
        if "dim" in data and data["dim"] != tup.dim:
            raise InvalidArgumentError(f"declared dim={data['dim']} but found {tup.dim}")
        return tup


def max_commutator_within(T: OperatorTuple) -> float:
    """Largest ||[A_i, A_j]||_F over all pairs."""
    worst = 0.0
    for i in range(T.d):
        for j in range(i + 1, T.d):
            worst = max(worst, mc.fro_norm(T[i] @ T[j] - T[j] @ T[i]))
    return worst


def commutes_within(T: OperatorTuple, tol: mc.Tolerance = mc.DEFAULT_TOL) -> bool:
    """All pairwise commutators vanish, scaled by the factor norms."""
    norms = [mc.fro_norm(c) for c in T]
    for i in range(T.d):
        for j in range(i + 1, T.d):
            comm = T[i] @ T[j] - T[j] @ T[i]
            if not mc.is_zero(comm, tol, scale=norms[i] * norms[j]):
                return False
    return True


def max_commutator_cross(S: OperatorTuple, T: OperatorTuple) -> float:
    if S.dim != T.dim:
        raise InvalidArgumentError(f"dimension mismatch: {S.dim} vs {T.dim}")
    worst = 0.0
    for a in S:
        for b in T:
            worst = max(worst, mc.fro_norm(a @ b - b @ a))
    return worst


def commutes_cross(S: OperatorTuple, T: OperatorTuple, tol: mc.Tolerance = mc.DEFAULT_TOL) -> bool:
    """All cross commutators [S_i, T_j] vanish."""
    if S.dim != T.dim:
        raise InvalidArgumentError(f"dimension mismatch: {S.dim} vs {T.dim}")
    for a in S:
        na = mc.fro_norm(a)
        for b in T:
            if not mc.is_zero(a @ b - b @ a, tol, scale=na * mc.fro_norm(b)):
                return False
    return True


def sum_tuple(A: OperatorTuple, N: OperatorTuple) -> OperatorTuple:
    if A.d != N.d:
        raise InvalidArgumentError(f"tuple length mismatch: {A.d} vs {N.d}")
    if A.dim != N.dim:
        raise InvalidArgumentError(f"dimension mismatch: {A.dim} vs {N.dim}")
    return OperatorTuple(tuple(a + n for a, n in zip(A, N)))


def product_tuple(S: OperatorTuple, A: OperatorTuple) -> OperatorTuple:
    """All products S_j A_i, ordered (S_1 A_1, ..., S_1 A_d1, S_2 A_1, ...)."""
    if S.dim != A.dim:
        raise InvalidArgumentError(f"dimension mismatch: {S.dim} vs {A.dim}")
    return OperatorTuple(tuple(s @ a for s in S for a in A))


def power_tuple(
    A: OperatorTuple, t: int, conv: PowerConvention | str = PowerConvention.WORD
) -> OperatorTuple:
    """Tuple power: all d**t ordered words of length t, or componentwise powers."""
    if not isinstance(t, int) or t < 1:
        raise InvalidArgumentError(f"power must be a positive integer, got {t!r}")
    conv = PowerConvention(conv)
    if conv is PowerConvention.COMPONENTWISE:
        return OperatorTuple(tuple(np.linalg.matrix_power(c, t) for c in A))
    if t * math.log2(max(A.d, 1)) > WORD_BUDGET_LOG2:
        raise BudgetExceededError(
            f"word enumeration d**t = {A.d}**{t} exceeds the 2**{WORD_BUDGET_LOG2:.0f} budget"
        )
    words = []
    for word in itertools.product(range(A.d), repeat=t):
        prod = A[word[0]].copy()
        for idx in word[1:]:
            prod = prod @ A[idx]
        words.append(prod)
    return OperatorTuple(tuple(words))


def inverse_tuple(A: OperatorTuple) -> OperatorTuple:
    comps = []
    for i, c in enumerate(A):
        try:
            comps.append(mc.inverse(c))
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"component {i} is numerically singular (condition estimate {exc.condition:.3e})",
                condition=exc.condition,
            ) from exc
    return OperatorTuple(tuple(comps))


def adjoint_tuple(A: OperatorTuple) -> OperatorTuple:
    return OperatorTuple(tuple(mc.adjoint(c) for c in A))


def conj_tuple(A: OperatorTuple) -> OperatorTuple:
    """Entrywise conjugation of every component (C A_i C for the standard conjugation)."""
    return OperatorTuple(tuple(mc.conj(c) for c in A))


def scalar_tuple(c: complex, d: int, n: int) -> OperatorTuple:
    if d < 1 or n < 1:
        raise InvalidArgumentError("scalar_tuple needs d >= 1 and n >= 1")
    return OperatorTuple(tuple(complex(c) * mc.identity(n) for _ in range(d)))


def tensor_tuple(A: OperatorTuple, B: OperatorTuple) -> OperatorTuple:
    """All Kronecker products A_i (x) B_j, ordered (A_1xB_1, ..., A_1xB_d2, A_2xB_1, ...)."""
    return OperatorTuple(tuple(np.kron(a, b) for a in A for b in B))


def mix_by_unitary(U, T: OperatorTuple, tol: mc.Tolerance = mc.DEFAULT_TOL) -> OperatorTuple:
    """New tuple S with S_j = sum_i U[j,i] T_i for a unitary d x d matrix U."""
    U = mc.as_matrix(U, name="U")
    if U.shape != (T.d, T.d):
        raise InvalidArgumentError(f"U must be {T.d}x{T.d} to mix a {T.d}-tuple, got {U.shape}")
    residual = mc.fro_norm(U.conj().T @ U - np.eye(T.d))
    if residual > tol.threshold(mc.fro_norm(U) ** 2):
        raise InvalidArgumentError(f"U is not unitary: ||U*U - I||_F = {residual:.3e}")
    comps = []
    for j in range(T.d):
        acc = mc.zero(T.dim)
        for i in range(T.d):
            acc = acc + U[j, i] * T[i]
        comps.append(acc)
    return OperatorTuple(tuple(comps))


def nilpotency_order(
    N: OperatorTuple,
    max_order: int,
    tol: mc.Tolerance = mc.DEFAULT_TOL,
    strict: bool = True,
) -> int | None:
    """Least n <= max_order with every order-n word zero and some order-(n-1) word nonzero.

    Commuting components mean words collapse to compositions, which is what
    gets enumerated.  Returns None when no such n exists up to max_order.
    """
    if not isinstance(max_order, int) or max_order < 1:
        raise InvalidArgumentError(f"max_order must be a positive integer, got {max_order!r}")
    if strict and not commutes_within(N, tol):
        raise InvalidArgumentError(
            f"tuple does not commute (max residual {max_commutator_within(N):.3e})"
        )
    norms = [mc.fro_norm(c) for c in N]
    # powers[i][k] = N_i**k
    powers: list[list[np.ndarray]] = [[mc.identity(N.dim), np.asarray(c)] for c in N]
    for i in range(N.d):
        for _ in range(max_order - 1):
            powers[i].append(powers[i][-1] @ powers[i][1])

    def word_is_zero(alpha) -> bool:
        prod = mc.identity(N.dim)
        scale = 1.0
        for i, a in enumerate(alpha):
            if a:
                prod = prod @ powers[i][a]
                scale *= norms[i] ** a
        return mc.is_zero(prod, tol, scale=scale)

    for n in range(1, max_order + 1):
        if all(word_is_zero(alpha) for alpha in compositions(N.d, n)):
            return n
    return None
