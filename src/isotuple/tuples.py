"""Commuting d-tuples of matrices and the constructions used on them.

An :class:`OperatorTuple` is an immutable ordered list of equal-dimension
square complex matrices, stored as one read-only ``(d, n, n)`` stack, so the
constructions below are single array expressions over stacks.
Commutativity is a checked predicate, not a constructor invariant:
generators produce exactly-commuting tuples, while user-supplied tuples are
validated at use sites (strict mode raises, lax mode lets the caller record
the residual).  ``commutator_checks`` judges many tuples' commutators at
once; ``commutes_within``, ``commutes_cross`` and the ``max_commutator_*``
residuals are its batch of one.

Orderings are pinned for reproducibility:

* ``product_tuple(S, A)`` lists all d1*d2 products S_j A_i row-major in j then i.
* ``tensor_tuple(A, B)`` lists A_i (x) B_j row-major in i then j.
* ``power_tuple(..., word)`` enumerates index words lexicographically.
"""

from __future__ import annotations

import itertools
import math
from enum import Enum
from functools import cached_property, lru_cache

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


class OperatorTuple:
    """Ordered tuple of same-dimension square complex matrices.

    The components are stored as one read-only complex128 ``(d, n, n)`` array,
    ``stack``, validated once when it is built: its shape, and one finiteness
    check, since a derived stack (a product, a sum) can overflow.
    ``components`` is the tuple of its read-only views, ``stack[i]``.  A
    tuple built from the caller's arrays holds a copy of them.

    Quantities derived from the components alone are computed on first use
    and kept for the life of the tuple: the component sum and the spectral
    norms behind every tolerance scale, kept as two parts, the components'
    norms and the sum's.  A caller that holds many tuples fills
    them together: ``component_sums`` computes the missing sums per (d, n)
    group in one batched accumulation, and ``fill_spectral_norms`` computes
    only the parts each tuple is asked for, in one batched LAPACK call per
    matrix dimension.
    """

    stack: np.ndarray

    def __init__(self, components):
        if not isinstance(components, (np.ndarray, tuple, list)):
            components = tuple(components)
        try:
            stack = mc.as_stack(np.array(components, dtype=np.complex128), name="operator tuple")
        except (TypeError, ValueError, InvalidArgumentError):
            _check_components(components)
            raise
        self.__dict__["stack"] = _frozen(stack)

    @classmethod
    def _of_stack(cls, stack: np.ndarray) -> "OperatorTuple":
        """A tuple that takes ownership of ``stack``, a freshly computed (d, n, n) array."""
        return cls._of_stacks(stack[None])[0]

    @classmethod
    def _of_stacks(cls, stacks: np.ndarray) -> list["OperatorTuple"]:
        """Tuples that take ownership of the items of ``stacks``, a freshly computed
        (b, d, n, n) array, validated once for all of them."""
        d, n = stacks.shape[-3:-1]
        flat = _frozen(mc.as_stack(stacks.reshape(-1, n, n), name="operator tuple"))
        tuples = []
        for start in range(0, len(flat), d):
            self = object.__new__(cls)
            self.__dict__["stack"] = flat[start : start + d]
            tuples.append(self)
        return tuples

    @classmethod
    def of(cls, *matrices) -> "OperatorTuple":
        return cls(matrices)

    def __setattr__(self, name, value):
        raise AttributeError(f"OperatorTuple is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"OperatorTuple is immutable; cannot delete {name!r}")

    def __repr__(self) -> str:
        return f"OperatorTuple(components={self.components!r})"

    @cached_property
    def components(self) -> tuple[np.ndarray, ...]:
        """The components, as read-only views into ``stack``."""
        return tuple(self.stack)

    @property
    def d(self) -> int:
        return self.stack.shape[0]

    @property
    def dim(self) -> int:
        return self.stack.shape[1]

    def __len__(self) -> int:
        return self.stack.shape[0]

    def __getitem__(self, i: int) -> np.ndarray:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def component_sum(self) -> np.ndarray:
        """Sum of the components in index order, read-only."""
        return self._sum

    @property
    def _sum(self) -> np.ndarray:
        if "_sum" not in self.__dict__:
            _fill_component_sums([self])
        return self.__dict__["_sum"]

    @property
    def op_norms(self) -> tuple[float, ...]:
        """Spectral norm of each component."""
        if "_op_norms" not in self.__dict__:
            fill_spectral_norms([(self, True, False)])
        return self.__dict__["_op_norms"]

    @property
    def sum_op_norm(self) -> float:
        """Spectral norm of ``component_sum()``."""
        if "_sum_op_norm" not in self.__dict__:
            fill_spectral_norms([(self, False, True)])
        return self.__dict__["_sum_op_norm"]

    def to_json(self) -> dict:
        return {
            "dim": self.dim,
            "d": self.d,
            "components": [mc.matrix_to_json(c) for c in self.stack],
        }

    @classmethod
    def from_json(cls, data) -> "OperatorTuple":
        try:
            comps = [mc.matrix_from_json(m) for m in data["components"]]
        except (KeyError, TypeError) as exc:
            raise InvalidArgumentError(f"malformed tuple literal: {exc}") from exc
        tup = cls(comps)
        if "d" in data and data["d"] != tup.d:
            raise InvalidArgumentError(f"declared d={data['d']} but found {tup.d} components")
        if "dim" in data and data["dim"] != tup.dim:
            raise InvalidArgumentError(f"declared dim={data['dim']} but found {tup.dim}")
        return tup


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_components(components) -> None:
    """Raise the error that names the first component a stack cannot be built from."""
    comps = [mc.as_matrix(c, name=f"component {i}") for i, c in enumerate(components)]
    if not comps:
        raise InvalidArgumentError("operator tuple must have at least one component")
    dim = comps[0].shape[0]
    for i, c in enumerate(comps):
        if c.shape[0] != dim:
            raise InvalidArgumentError(
                f"component {i} has dimension {c.shape[0]}, expected {dim}"
            )


def component_sums(tuples) -> np.ndarray:
    """The (b, n, n) stack of each tuple's ``component_sum()``, for tuples of one dimension.

    The tuples that do not hold their sum yet get it from one batched
    accumulation per tuple length, and keep it.
    """
    tuples = list(tuples)
    _fill_component_sums(tuples)
    return np.array([T.__dict__["_sum"] for T in tuples])


def _fill_component_sums(tuples: list) -> None:
    """Give each tuple that lacks it its component sum, one accumulation per tuple length."""
    todo: dict[int, dict[int, OperatorTuple]] = {}
    for T in tuples:
        if "_sum" not in T.__dict__:
            todo.setdefault(T.d, {})[id(T)] = T
    for group in todo.values():
        group = list(group.values())
        # c_0 + c_1 + ... per tuple, from the first component on, not from
        # zero: an accumulation is sequential and starts there
        sums = np.add.accumulate(np.stack([T.stack for T in group]), axis=1)[:, -1]
        for T, total in zip(group, _frozen(np.ascontiguousarray(sums))):
            T.__dict__["_sum"] = total


def fill_spectral_norms(requests) -> None:
    """Give each tuple the spectral norms a request ``(T, components, sum)`` asks for:
    of its components, of its component sum, or both.

    The parts a tuple does not hold yet come from one batched
    ``op_norm_estimate`` call per matrix dimension over all the requested
    stacks and sums, and the tuple keeps them; each norm equals the float its
    matrix gives alone.  A part requested twice is computed once.
    """
    by_dim: dict[int, tuple[dict, dict]] = {}
    for T, components, total in requests:
        if components and "_op_norms" not in T.__dict__:
            by_dim.setdefault(T.dim, ({}, {}))[0][id(T)] = T
        if total and "_sum_op_norm" not in T.__dict__:
            by_dim.setdefault(T.dim, ({}, {}))[1][id(T)] = T
    for stacks, sums in by_dim.values():
        stacks, sums = list(stacks.values()), list(sums.values())
        parts = [T.stack for T in stacks]
        if sums:
            parts.append(component_sums(sums))
        values = mc.op_norm_estimate(np.concatenate(parts)).tolist()
        offset = 0
        for T in stacks:
            T.__dict__["_op_norms"] = tuple(values[offset : offset + T.d])
            offset += T.d
        for T, value in zip(sums, values[offset:]):
            T.__dict__["_sum_op_norm"] = value


@lru_cache(maxsize=None)
def _pair_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j) of all pairs i < j < d, row-major in i then j."""
    return tuple(_frozen(index) for index in np.triu_indices(d, 1))


def max_commutator_within(T: OperatorTuple) -> float:
    """Largest ||[A_i, A_j]||_F over all pairs i < j, 0.0 for one component."""
    return commutator_checks([(T, T)])[0][1]


def commutes_within(T: OperatorTuple, tol: mc.Tolerance = mc.DEFAULT_TOL) -> bool:
    """All pairwise commutators vanish, scaled by the factor norms:
    ``commutator_checks`` of the one query (T, T)."""
    return commutator_checks([(T, T)], tol)[0][0]


def max_commutator_cross(S: OperatorTuple, T: OperatorTuple) -> float:
    """Largest ||[S_a, T_b]||_F over all pairs."""
    return commutator_checks([(S, T)])[0][1]


def commutes_cross(S: OperatorTuple, T: OperatorTuple, tol: mc.Tolerance = mc.DEFAULT_TOL) -> bool:
    """All cross commutators [S_i, T_j] vanish: ``commutator_checks`` of the one query."""
    return commutator_checks([(S, T)], tol)[0][0]


def commutator_checks(queries, tol: mc.Tolerance = mc.DEFAULT_TOL) -> list[tuple[bool, float]]:
    """``(commutes, max residual)`` of each query ``(S, T)``: of the commutators
    [S_i, S_j], i < j, when T is S, else of every [S_a, T_b].

    A commutator vanishes when its Frobenius norm is within the threshold of
    the product of its factors' Frobenius norms; the residual is the largest
    norm, in row-major order of the pairs (0.0 for S of one component, which
    has none within).  Queries of one kind, tuple lengths and dimension are
    stacked, and each commutator is the products and difference of one
    query's, so every norm and threshold has the bits it has alone.  A cross
    query of two dimensions is refused as it is read.
    """
    queries = list(queries)
    groups: dict[tuple, list[int]] = {}
    for k, (S, T) in enumerate(queries):
        if T is not S and S.dim != T.dim:
            raise InvalidArgumentError(f"dimension mismatch: {S.dim} vs {T.dim}")
        groups.setdefault((T is S, S.d, T.d, S.dim), []).append(k)
    checks: list[tuple[bool, float]] = [None] * len(queries)
    for (within, *_), members in groups.items():
        left = np.stack([queries[k][0].stack for k in members])
        norms = mc.fro_norm_array(left)
        if within:
            i, j = _pair_index(left.shape[1])
            left, right, scales = left[:, i], left[:, j], norms[:, i] * norms[:, j]
        else:
            right = np.stack([queries[k][1].stack for k in members])
            scales = norms[:, :, None] * mc.fro_norm_array(right)[:, None]
            left, right = left[:, :, None], right[:, None]
        values = mc.fro_norm_array(left @ right - right @ left).reshape(len(members), -1)
        passed = (values <= tol.threshold(scales.reshape(len(members), -1))).all(axis=1)
        residuals = values.max(axis=1, initial=0.0).tolist()
        for k, ok, residual, row in zip(members, passed.tolist(), residuals, values):
            if residual != residual:  # a NaN norm: the first-wins maximum of the loop
                residual = max(row.tolist())
            checks[k] = (ok, residual)
    return checks


def sum_tuple(A: OperatorTuple, N: OperatorTuple) -> OperatorTuple:
    if A.d != N.d:
        raise InvalidArgumentError(f"tuple length mismatch: {A.d} vs {N.d}")
    if A.dim != N.dim:
        raise InvalidArgumentError(f"dimension mismatch: {A.dim} vs {N.dim}")
    return OperatorTuple._of_stack(A.stack + N.stack)


def product_tuple(S: OperatorTuple, A: OperatorTuple) -> OperatorTuple:
    """All products S_j A_i, ordered (S_1 A_1, ..., S_1 A_d1, S_2 A_1, ...)."""
    if S.dim != A.dim:
        raise InvalidArgumentError(f"dimension mismatch: {S.dim} vs {A.dim}")
    n = S.dim
    return OperatorTuple._of_stack((S.stack[:, None] @ A.stack[None, :]).reshape(-1, n, n))


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
    return OperatorTuple._of_stack(np.conjugate(A.stack.transpose(0, 2, 1), order="C"))


def conj_tuple(A: OperatorTuple) -> OperatorTuple:
    """Entrywise conjugation of every component (C A_i C for the standard conjugation)."""
    return OperatorTuple._of_stack(A.stack.conj())


def scalar_tuple(c: complex, d: int, n: int) -> OperatorTuple:
    if not all(isinstance(k, int) and k >= 1 for k in (d, n)):
        raise InvalidArgumentError(
            f"scalar_tuple needs integers d >= 1 and n >= 1, got {d!r}, {n!r}"
        )
    return OperatorTuple._of_stack(np.repeat((complex(c) * mc.identity(n))[None], d, axis=0))


def tensor_tuple(A: OperatorTuple, B: OperatorTuple) -> OperatorTuple:
    """All Kronecker products A_i (x) B_j, ordered (A_1xB_1, ..., A_1xB_d2, A_2xB_1, ...)."""
    n = A.dim * B.dim
    return OperatorTuple._of_stack(mc.kron(A.stack[:, None], B.stack).reshape(A.d * B.d, n, n))


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
    return nilpotency_orders([(N, max_order)], tol, strict)[0]


def nilpotency_orders(
    queries, tol: mc.Tolerance = mc.DEFAULT_TOL, strict: bool = True
) -> list[int | None]:
    """``nilpotency_order(N, max_order, tol, strict)`` of each query ``(N, max_order)``.

    Queries of one tuple length, dimension and max_order are stacked: each
    power of the components is one batched product from the last, and each
    composition's word is one chain of products from the identity across the
    tuples still undecided at its order, so every word norm has the bits of
    one tuple's.  A tuple leaves the chain at its first nonzero word, as it
    does alone.  A query that is refused (a bad max_order, or in strict mode a
    tuple that does not commute) raises before any word is formed; in strict
    mode every tuple's commutators come from one ``commutator_checks`` call.
    """
    queries = list(queries)
    commuting = commutator_checks([(N, N) for N, _ in queries], tol) if strict else ()
    for k, (N, max_order) in enumerate(queries):
        if not isinstance(max_order, int) or max_order < 1:
            raise InvalidArgumentError(
                f"max_order must be a positive integer, got {max_order!r}"
            )
        if strict and not commuting[k][0]:
            raise InvalidArgumentError(
                f"tuple does not commute (max residual {commuting[k][1]:.3e})"
            )
    groups: dict[tuple, list[int]] = {}
    for i, (N, max_order) in enumerate(queries):
        groups.setdefault((N.d, N.dim, max_order), []).append(i)
    orders: list[int | None] = [None] * len(queries)
    for (d, dim, max_order), members in groups.items():
        tuples = [queries[i][0] for i in members]
        for k, order in zip(members, _group_orders(tuples, d, dim, max_order, tol)):
            orders[k] = order
    return orders


def _group_orders(
    tuples: list[OperatorTuple], d: int, dim: int, max_order: int, tol: mc.Tolerance
) -> list[int | None]:
    """The nilpotency order of each tuple of one length and dimension."""
    # powers[k - 1][b, i] = N_i**k of tuple b, each power stack one batched product from the last
    stack = np.stack([T.stack for T in tuples])
    norms = mc.fro_norm_array(stack).tolist()
    powers = [stack]
    for _ in range(max_order - 1):
        powers.append(powers[-1] @ stack)
    eye = mc.identity(dim)
    orders: list[int | None] = [None] * len(tuples)
    pending = list(range(len(tuples)))
    for n in range(1, max_order + 1):
        zero = pending  # the tuples whose order-n words are all zero so far
        for alpha in compositions(d, n):
            if not zero:
                break
            prod = eye
            for i, a in enumerate(alpha):
                if a:
                    prod = prod @ powers[a - 1][zero, i]
            zero = [
                b for b, value in zip(zero, mc.fro_norms(prod))
                if value <= tol.threshold(_word_scale(norms[b], alpha))
            ]
        for b in zero:
            orders[b] = n
        pending = [b for b in pending if orders[b] is None]
        if not pending:
            break
    return orders


def _word_scale(norms: tuple[float, ...], alpha) -> float:
    """prod_i ||N_i||_F ** alpha_i over the nonzero alpha_i, multiplied in index order."""
    scale = 1.0
    for i, a in enumerate(alpha):
        if a:
            scale *= norms[i] ** a
    return scale
