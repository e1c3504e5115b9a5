"""Commuting d-tuples of matrices and the constructions used on them.

An :class:`OperatorTuple` is an immutable ordered list of equal-dimension
square complex matrices, stored as one read-only ``(d, n, n)`` stack, so the
constructions below are single array expressions over stacks.
Commutativity is a checked predicate, not a constructor invariant:
generators produce exactly-commuting tuples, while user-supplied tuples are
validated at use sites (strict mode raises, lax mode lets the caller record
the residual).

The kernels take ``(b, d, n, n)`` stacks of tuples: ``commutator_stack_checks``,
``nilpotency_stack_orders``, ``stack_spectral_norms``, ``stack_sums``,
``sum_stacks``, ``product_stacks``, ``tensor_stacks`` and ``adjoint_stacks``.
Each API on one tuple or pair calls its kernel on one-row stacks, so each
kernel has one implementation: ``commutes_within`` and ``commutes_cross``
(through ``_commutator_check``, which also gives the largest residual, as
``nilpotency_order`` and ``transforms.sigma_power`` report it),
``nilpotency_order``, ``sum_tuple``, ``product_tuple``, ``tensor_tuple`` and
``adjoint_tuple``.  ``transforms`` keeps the same rule for pairs.

Spectral norms come in two parts, a stack's component norms and its sums'
norms.  A ``stack_spectral_norms`` request ``(stack, components, sums)`` names
a whole stack and, by two booleans, the parts to compute for every row of
it; the parts of every request come from one SVD batch per dimension.  A
tuple keeps its own entry of a zero test's norm table (``transforms``), the
parts of its one-row stack that the kernel or ``op_norms`` and
``sum_op_norm`` have filled.  A tuple's own sum is ``stack_sums`` of its stack.

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
    norms behind every tolerance scale, kept as the tuple's entry of a zero
    test's norm table (``_norm_entry``).
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
        return cls._of_checked(checked_stacks(stack[None]))[0]

    @classmethod
    def _of_checked(cls, stacks: np.ndarray) -> list["OperatorTuple"]:
        """Tuples that share the items of a (b, d, n, n) stack that ``checked_stacks`` made."""
        tuples = [object.__new__(cls) for _ in stacks]
        for self, stack in zip(tuples, stacks):
            self.__dict__["stack"] = stack
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
        """Sum of the components in index order, read-only: ``stack_sums`` of the tuple."""
        if "_sum" not in self.__dict__:
            self.__dict__["_sum"] = _frozen(stack_sums(self.stack[None])[0])
        return self.__dict__["_sum"]

    @property
    def op_norms(self) -> tuple[float, ...]:
        """Spectral norm of each component, read from the tuple's norm entry."""
        return tuple(self._norm_part(1)[0].tolist())

    @property
    def sum_op_norm(self) -> float:
        """Spectral norm of ``component_sum()``, read from the tuple's norm entry."""
        return self._norm_part(2)[0].item()

    def _norm_entry(self) -> list:
        """The tuple's entry of a zero test's norm table, ``[stack[None], (1, d) component
        norms, (1,) sum norms]``, a part None until read: one object for the tuple's life,
        keyed by its one-row stack, which the kernel fills in place."""
        if "_norms" not in self.__dict__:
            self.__dict__["_norms"] = [self.stack[None], None, None]
        return self.__dict__["_norms"]

    def _norm_part(self, part: int) -> np.ndarray:
        """Part 1 (component norms) or 2 (sum norms) of the norm entry, filled alone if unread."""
        entry = self._norm_entry()
        if entry[part] is None:
            entry[part] = stack_spectral_norms([(entry[0], part == 1, part == 2)])[0][part - 1]
        return entry[part]

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
        for key, found in (("d", tup.d), ("dim", tup.dim)):
            # a JSON true or 2.0 equals an int, but declares none
            if key in data and (type(data[key]) is not int or data[key] != found):
                raise InvalidArgumentError(
                    f"declared {key}={data[key]} but found {found}"
                    + (" components" if key == "d" else "")
                )
        return tup


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def checked_stacks(stacks: np.ndarray) -> np.ndarray:
    """A stack of square matrices, such as the (b, d, n, n) stack of b tuples, as one
    C-contiguous read-only complex array, validated once for all of them as
    ``OperatorTuple`` validates one tuple."""
    n = stacks.shape[-1]
    return _frozen(mc.as_stack(stacks.reshape(-1, n, n), name="operator tuple")).reshape(stacks.shape)


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


def stack_sums(stacks: np.ndarray) -> np.ndarray:
    """The (b, n, n) component sums of a (b, d, n, n) stack of tuples, c_0 + c_1 + ...
    added in index order from c_0 (not from zero), as one tuple's loop adds them."""
    total = stacks[:, 0].copy()
    for i in range(1, stacks.shape[1]):
        total += stacks[:, i]
    return total


def stack_spectral_norms(requests) -> list[tuple]:
    """``(component norms, sum norms)`` of each request ``(stack, components, sums)`` on a
    (b, d, n, n) stack of tuples: the (b, d) spectral norms of its components when
    ``components`` and the (b,) norms of its component sums when ``sums``, each part
    not asked for None.

    The parts come from one batched ``op_norm_estimate`` call per matrix
    dimension; each norm equals the float its matrix gives alone.
    """
    parts: dict[int, list] = {}
    for stack, components, sums in requests:
        n = stack.shape[-1]
        if components:
            parts.setdefault(n, []).append(stack.reshape(-1, n, n))
        if sums:
            parts.setdefault(n, []).append(stack_sums(stack))
    values = {
        n: iter(np.split(mc.op_norm_estimate(np.concatenate(p) if len(p) > 1 else p[0]),
                         np.cumsum([len(q) for q in p[:-1]])))
        for n, p in parts.items()
    }
    return [
        (next(values[stack.shape[-1]]).reshape(stack.shape[:2]) if components else None,
         next(values[stack.shape[-1]]) if sums else None)
        for stack, components, sums in requests
    ]


@lru_cache(maxsize=None)
def _pair_index(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only index arrays (i, j) of all pairs i < j < d, row-major in i then j."""
    return tuple(_frozen(index) for index in np.triu_indices(d, 1))


def commutes_within(T: OperatorTuple, tol: mc.Tolerance = mc.DEFAULT_TOL) -> bool:
    """All pairwise commutators vanish, scaled by the factor norms."""
    return _commutator_check(T, T, tol)[0]


def commutes_cross(S: OperatorTuple, T: OperatorTuple, tol: mc.Tolerance = mc.DEFAULT_TOL) -> bool:
    """All cross commutators [S_i, T_j] vanish."""
    return _commutator_check(S, T, tol)[0]


def _commutator_check(S: OperatorTuple, T: OperatorTuple, tol: mc.Tolerance) -> tuple[bool, float]:
    """``(commutes, max residual)`` of ``commutator_stack_checks`` on the one-row stacks
    of S and T: within S when T is S, else across, refused when the dimensions differ."""
    if T is not S and S.dim != T.dim:
        raise InvalidArgumentError(f"dimension mismatch: {S.dim} vs {T.dim}")
    ((passed, residuals),) = commutator_stack_checks([(S.stack[None], None if T is S else T.stack[None])], tol)
    return passed.item(), residuals.item()


def commutator_stack_checks(queries, tol: mc.Tolerance) -> list[tuple[np.ndarray, np.ndarray]]:
    """``(commutes, residuals)`` arrays of each query ``(S, T)`` of (b, d, n, n) stacks:
    of each row's commutators [S_i, S_j], i < j, when T is None, else of every
    [S_a, T_b] against T's (b, d2, n, n) stack of the same n.

    A commutator vanishes when its Frobenius norm is within the threshold of
    the product of its factors' Frobenius norms; the residual is the largest
    norm, in row-major order of the pairs (0.0 for S of one component, which
    has none within).  Each commutator is the products and difference of one
    row's, so every norm and threshold has the bits it has alone.
    """
    out = []
    for left, right in queries:
        norms = mc.fro_norm_array(left)
        if right is None:
            i, j = _pair_index(left.shape[1])
            left, right, scales = left[:, i], left[:, j], norms[:, i] * norms[:, j]
        else:
            scales = norms[:, :, None] * mc.fro_norm_array(right)[:, None]
            left, right = left[:, :, None], right[:, None]
        values = mc.fro_norm_array(left @ right - right @ left).reshape(len(left), -1)
        passed = (values <= tol.threshold(scales.reshape(len(left), -1))).all(axis=1)
        residuals = values.max(axis=1, initial=0.0)
        for b in np.flatnonzero(np.isnan(residuals)):  # the first-wins maximum of a loop
            residuals[b] = max(values[b].tolist())
        out.append((passed, residuals))
    return out


def sum_tuple(A: OperatorTuple, N: OperatorTuple) -> OperatorTuple:
    return OperatorTuple._of_stack(sum_stacks(A.stack[None], N.stack[None])[0])


def sum_stacks(A: np.ndarray, N: np.ndarray) -> np.ndarray:
    """The (b, d, n, n) stack of each row's ``sum_tuple``, refused as ``sum_tuple`` refuses it."""
    if A.shape[1] != N.shape[1]:
        raise InvalidArgumentError(f"tuple length mismatch: {A.shape[1]} vs {N.shape[1]}")
    if A.shape[-1] != N.shape[-1]:
        raise InvalidArgumentError(f"dimension mismatch: {A.shape[-1]} vs {N.shape[-1]}")
    return _finite_tuples(A + N)


def product_tuple(S: OperatorTuple, A: OperatorTuple) -> OperatorTuple:
    """All products S_j A_i, ordered (S_1 A_1, ..., S_1 A_d1, S_2 A_1, ...)."""
    return OperatorTuple._of_stack(product_stacks(S.stack[None], A.stack[None])[0])


def product_stacks(S: np.ndarray, A: np.ndarray) -> np.ndarray:
    """The (b, d1*d2, n, n) stack of each row's ``product_tuple``, refused as it refuses it."""
    b, _, n, m = S.shape
    if n != A.shape[-1]:
        raise InvalidArgumentError(f"dimension mismatch: {n} vs {A.shape[-1]}")
    return _finite_tuples((S[:, :, None] @ A[:, None]).reshape(b, -1, n, m))


def _finite_tuples(stacks: np.ndarray) -> np.ndarray:
    """A freshly computed (b, d, n, n) stack of tuples, refused as a tuple built from it is
    when an entry is non-finite (a derived stack can overflow)."""
    if not np.isfinite(stacks).all():
        raise InvalidArgumentError("operator tuple contains non-finite entries")
    return stacks


def power_tuple(
    A: OperatorTuple, t: int, conv: PowerConvention | str = PowerConvention.WORD
) -> OperatorTuple:
    """Tuple power: all d**t ordered words of length t, or componentwise powers."""
    if type(t) is not int or t < 1:  # a bool is an int, but not a count
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
    return OperatorTuple._of_stack(adjoint_stacks(A.stack[None])[0])


def adjoint_stacks(stacks: np.ndarray) -> np.ndarray:
    """The C-contiguous conjugate transposes of a stack's matrices, such as each row's
    ``adjoint_tuple`` of a (b, d, n, n) stack of tuples."""
    return np.conjugate(stacks.swapaxes(-1, -2), order="C")


def conj_tuple(A: OperatorTuple) -> OperatorTuple:
    """Entrywise conjugation of every component (C A_i C for the standard conjugation)."""
    return OperatorTuple._of_stack(A.stack.conj())


def scalar_tuple(c: complex, d: int, n: int) -> OperatorTuple:
    if not all(type(k) is int and k >= 1 for k in (d, n)):
        raise InvalidArgumentError(
            f"scalar_tuple needs integers d >= 1 and n >= 1, got {d!r}, {n!r}"
        )
    return OperatorTuple._of_stack(np.repeat((complex(c) * mc.identity(n))[None], d, axis=0))


def tensor_tuple(A: OperatorTuple, B: OperatorTuple) -> OperatorTuple:
    """All Kronecker products A_i (x) B_j, ordered (A_1xB_1, ..., A_1xB_d2, A_2xB_1, ...)."""
    return OperatorTuple._of_stack(tensor_stacks(A.stack[None], B.stack[None])[0])


def tensor_stacks(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The (b, d1*d2, nm, nm) stack of each row's ``tensor_tuple``, refused as it refuses it."""
    b, d1, n, _ = A.shape
    d2, m = B.shape[1], B.shape[-1]
    return _finite_tuples(mc.kron(A[:, :, None], B[:, None]).reshape(b, d1 * d2, n * m, n * m))


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
    gets enumerated.  Returns None when no such n exists up to max_order.  A bad
    max_order is refused first, then in strict mode a tuple that does not
    commute; the order is ``nilpotency_stack_orders`` of the one-row stack.

    A word counts as zero when its norm is under the threshold scaled by the
    product of its factors' Frobenius norms, so a word that is nonzero in exact
    arithmetic but small next to that product is read as zero, and the order
    reported can be lower than the tuple's exact order.  At the default
    tolerance, the exactly nilpotent draws of ``nilpotent_commuting(16, 2, 16,
    s)`` measure orders 9 to 13, which is why that call is refused for every
    seed.  Thresholds from rounding rather than from norms are ROADMAP item 2.
    """
    if type(max_order) is not int or max_order < 1:
        raise InvalidArgumentError(f"max_order must be a positive integer, got {max_order!r}")
    if strict:
        commutes, residual = _commutator_check(N, N, tol)
        if not commutes:
            raise InvalidArgumentError(f"tuple does not commute (max residual {residual:.3e})")
    ((order,),) = nilpotency_stack_orders([(N.stack[None], max_order)], tol)
    return order.item() or None


def nilpotency_stack_orders(queries, tol: mc.Tolerance) -> list[np.ndarray]:
    """The int array of nilpotency orders of each query ``(stack, max_order)``: of each
    commuting tuple of a (b, d, n, n) stack up to the positive int max_order, 0 for none.

    Each power of the components is one batched product from the last, and
    each composition's word is one chain of products of its parts, across the
    rows still undecided at its order, so every word norm has the bits of one
    tuple's (a chain from the identity would change at most the sign of a
    zero entry); its threshold multiplies the parts' norms in index order,
    each raised by Python's float power (NumPy's may round differently).  A row
    leaves the chain at its first nonzero word, as it does alone.
    """
    out = []
    for stack, max_order in queries:
        b, d = stack.shape[:2]
        # powers[k - 1][r, i] = N_i**k of row r, each power stack one batched product from the last
        powers = [stack]
        for _ in range(max_order - 1):
            powers.append(powers[-1] @ stack)
        norms = mc.fro_norm_array(stack).T.tolist()  # norms[i][r] = ||N_i||_F of row r
        orders = np.zeros(b, dtype=np.int64)
        pending = np.arange(b)
        for n in range(1, max_order + 1):
            zero = pending  # the rows whose order-n words are all zero so far
            for alpha in compositions(d, n):
                if not len(zero):
                    break
                every = len(zero) == b
                rows = zero.tolist()
                prod = scale = None
                for i, a in enumerate(alpha):
                    if a:
                        factor = powers[a - 1][:, i] if every else powers[a - 1][zero, i]
                        raised = np.array([norms[i][r] ** a for r in rows])
                        prod = factor if prod is None else prod @ factor
                        scale = raised if scale is None else scale * raised
                zero = zero[mc.fro_norm_array(prod) <= tol.threshold(scale)]
            orders[zero] = n
            pending = pending[orders[pending] == 0]
            if not len(pending):
                break
        out.append(orders)
    return out
