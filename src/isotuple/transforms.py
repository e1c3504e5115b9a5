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
over compositions, retained as an oracle).  Both tuples are stacks, so one
sigma application is the batched product ``A.stack @ Y @ B.stack`` summed over
the components in index order, and the spectral norms behind a pair's
tolerance scale come from one LAPACK call over both stacks.  Each stacked
kernel gives the same bits as the loop over components it replaced.

One engine, ``_stacked_defects`` with its sigma loop ``_sigma_run``, forms
every sigma iterate, delta term and binomial sum from stacks of sources, with
the bits of each test alone; zero tests on one source share one run up to
their largest degree.  One kernel judges zero tests: ``defect_stack_checks``
takes them over ``(b, d, n, n)`` stacks with per-item degrees, groups them by
stack object and row (``_stack_items``), turns the spectral norms it keeps
by stack into thresholds (``_thresholds``), and raises the first fault by
test and then by item; it knows nothing of trials.

The norm table holds whole stacks, per part: ``id(stack) -> (stack, (b, d)
component norms, (b,) sum norms)``, a part None until a test reads it.  A
stack's component norms are read when an item on it has m > 0 and its sum
norms when one has n > 0, whichever rows the items name, so the table has
no row flags.  Only this module knows its layout: ``_fill_stack_norms``
asks one ``tuples.stack_spectral_norms`` call for the parts it lacks,
``_growth_factors`` reads every factor from it and ``_component_norms`` the
component norms of one stack.  ``defect_checks`` runs the kernel's two
phases on several degrees of one pair, as items on row 0 of its one-row
stacks, with a table seeded from the norms the tuples hold or fill
(``tuples.spectral_norms``), and ``defect_check`` is its batch of one.
``stack_defects`` gives each row's
``triangle`` or ``delta``, ``triangle``, ``delta`` and ``sigma_iterates`` are
the engine's batch of one, and ``_cesaro_run`` steps stacks of Cesaro runs
from X through its loop.  Only the cross-check paths ``triangle_by_iteration``
and ``delta_by_iteration`` iterate on their own.  Every tolerance scale comes
from one helper, ``_scales``.
``superop_matrix`` lifts the maps to dim^2 x dim^2 matrices acting on
column-stacked vec(X) — the second, independent evaluation route used for
cross-checks.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from . import matrix_core as mc
from .errors import BudgetExceededError, InvalidArgumentError
from .multiindex import binomial, compositions, multinomial
from .tuples import (
    OperatorTuple,
    commutes_within,
    max_commutator_within,
    spectral_norms,
    stack_spectral_norms,
    stack_sums,
)

#: ``expand`` mode is refused once the implied word count d**j exceeds 2**20.
EXPAND_BUDGET_LOG2 = 20.0


def _require_pair(A: OperatorTuple, B: OperatorTuple, X) -> np.ndarray:
    return _require_finite(_require_shapes(A, B, X))


def _require_shapes(A: OperatorTuple, B: OperatorTuple, X) -> np.ndarray:
    """X as a complex array, its shape and the pair's checked as ``_require_pair`` checks them."""
    X = mc.complex_array(X, name="X")
    if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape[0] == 0:
        raise InvalidArgumentError(f"X must be square and non-empty, got shape {X.shape}")
    if A.d != B.d:
        raise InvalidArgumentError(f"tuple length mismatch: {A.d} vs {B.d}")
    if A.dim != B.dim or A.dim != X.shape[0]:
        raise InvalidArgumentError(
            f"dimension mismatch: A is {A.dim}, B is {B.dim}, X is {X.shape[0]}"
        )
    return X


def _require_finite(Y: np.ndarray) -> np.ndarray:
    """Y, refused when an entry is non-finite: a sigma input, named X as in ``sigma_apply``."""
    if not np.isfinite(Y).all():
        raise InvalidArgumentError("X contains non-finite entries")
    return Y


def _require_degree(name: str, k) -> int:
    if type(k) is not int or k < 0:  # a bool is an int, but not a degree
        raise InvalidArgumentError(f"{name} must be a non-negative integer, got {k!r}")
    return k


def grown_scale(scale: float, factor: float, degree: int) -> float:
    """scale * factor**degree, refused with InvalidArgumentError when it overflows.

    An infinite scale would pass every defect, so no zero test may use one.
    """
    (grown,) = _scales([scale], [factor], [1.0], [degree], [0])
    if not math.isfinite(grown):
        raise _overflow(scale, factor, degree)
    return grown


def _overflow(scale, factor, degree) -> InvalidArgumentError:
    return InvalidArgumentError(
        f"tolerance scale overflows: {scale:.3e} * {factor:.3e}**{degree}"
    )


def _iso_factor(a_norms, b_norms):
    """1 + sum_i ||A_i|| ||B_i||, summed in index order: of one pair, from its tuples' norms,
    or of each row of a stack of pairs, from the columns of two (k, d) norm arrays given
    as their (d, k) transposes."""
    total = a_norms[0] * b_norms[0]
    for a, b in zip(a_norms[1:], b_norms[1:]):
        total = total + a * b
    return 1.0 + total


def _scales(x_norms, iso_factors, sym_factors, ms, ns) -> list[float]:
    """The tolerance scale ||X||_F * iso**m * sym**n of each item, from lists; the first
    item whose isometric or then symmetric growth overflows is refused.

    Each growth is ``scale * factor**degree`` in Python floats, whose power
    rounds as C's ``pow`` (NumPy's vectorized power may not), and a factor
    raised to the power 0 is skipped.
    """
    scales = []
    for scale, iso, sym, m, n in zip(x_norms, iso_factors, sym_factors, ms, ns):
        for factor, degree in ((iso, m), (sym, n)):
            if degree:
                try:
                    grown = scale * factor**degree
                except OverflowError:
                    grown = math.inf
                if not grown < math.inf:  # inf or NaN
                    raise _overflow(scale, factor, degree)
                scale = grown
        scales.append(scale)
    return scales


def defect_scale(
    A: OperatorTuple, B: OperatorTuple, X, iso_degree: int, sym_degree: int = 0
) -> float:
    """Tolerance scale for the degree-(m, n) defect of (A, B) at X.

    The defining maps satisfy ||(I - sigma)^m (L - R)^n (X)||_F <=
    (1 + sum_i ||A_i|| ||B_i||)^m * (1 + ||sum A|| + ||sum B||)^n * ||X||_F
    in the spectral norm of the factors, so that product is the documented
    scale for every defect zero test: it tracks the defect's own worst-case
    growth without drowning genuinely nonzero defects at higher degrees.
    A factor raised to the power 0 is 1.0 and is skipped, norms and all: the
    factors read the norms the tuples hold, and ``spectral_norms`` fills the
    parts they lack in one call.  A pair is refused as ``defect_check`` refuses it.
    """
    X = _require_shapes(A, B, X)
    m, n = _require_degree("iso_degree", iso_degree), _require_degree("sym_degree", sym_degree)
    (a_norms, a_sum), (b_norms, b_sum) = spectral_norms([(A, m, n), (B, m, n)])
    iso = _iso_factor(a_norms, b_norms) if m else 1.0
    sym = 1.0 + a_sum + b_sum if n else 1.0
    return _scales([mc.fro_norm(X)], [iso], [sym], [m], [n])[0]


def _sigma(A: OperatorTuple, B: OperatorTuple, Y: np.ndarray) -> np.ndarray:
    """sigma(Y) for a pair already checked against Y's shape, so that iterates are
    not checked again; a non-finite Y is refused as ``sigma_apply`` refuses it."""
    return _sigma_of_stacks(A.stack, _require_finite(Y), B.stack)


def _sigma_of_stacks(a: np.ndarray, Y: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_i a[i] Y b[i], summed over the first axis in index order: sigma of one pair,
    or with (d, batch, n, n) stacks a and b and a (batch, n, n) Y, of each item."""
    return mc.ordered_sum(a @ Y @ b)


@functools.lru_cache(maxsize=None)
def _binomial_coefficients(k: int) -> np.ndarray:
    """Read-only (k + 1,) float array of the signed coefficients (-1)^j C(k, j), j = 0..k.

    Each is the float nearest the int, which is what NumPy multiplies by when
    it scales a complex matrix by the int, so the products keep their bits.
    """
    coeffs = np.array([(-1) ** j * binomial(k, j) for j in range(k + 1)], dtype=np.float64)
    coeffs.setflags(write=False)
    return coeffs


def binomial_sum(terms: np.ndarray, k) -> np.ndarray:
    """sum_j (-1)^j C(k, j) terms[j] for j = 0..k, from a fresh C-contiguous (k + 1, n, n)
    stack, which it scales in place (so no second stack of that size is needed).

    The terms are scaled and added in index order onto a zero matrix, as a
    loop over j adds them, so every defect built on it keeps its bits.  A
    (K + 1, batch, n, n) stack of one item's terms per column takes ``k`` as
    the int K, every item's degree, or as an int array of the items' degrees,
    each at most K: an item's terms above its degree are scaled by zero, and
    adding a zero onto a sum from +0.0 changes no bit of it.
    """
    if not isinstance(k, np.ndarray):
        coeffs = _binomial_coefficients(k)
    else:
        coeffs = np.zeros(terms.shape[:2])
        for degree in set(k.tolist()):
            coeffs[: degree + 1, k == degree] = _binomial_coefficients(degree)[:, None]
    terms *= coeffs.reshape(coeffs.shape + (1,) * (terms.ndim - coeffs.ndim))
    return mc.ordered_sum(terms)


def sigma_apply(A: OperatorTuple, B: OperatorTuple, X) -> np.ndarray:
    """sum_i A_i X B_i."""
    return _sigma(A, B, _require_pair(A, B, X))


def sigma_iterates(A: OperatorTuple, B: OperatorTuple, X, j_max: int) -> list[np.ndarray]:
    """[X, sigma(X), sigma^2(X), ..., sigma^j_max(X)]: the engine's run of one item."""
    _require_degree("j_max", j_max)
    X = _require_pair(A, B, X)
    return [Y[0] for Y in _sigma_run(A.stack[None], B.stack[None], X[None].copy(), j_max, refuse=True)]


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
    _require_degree("j", j)
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
    pow_a = [mc.matrix_powers(c, j) for c in A]
    pow_b = [mc.matrix_powers(c, j) for c in B]
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


def triangle(A: OperatorTuple, B: OperatorTuple, X, m: int) -> np.ndarray:
    """Isometric defect of degree m: sum_j (-1)^j C(m,j) sigma^j(X); triangle^0 = X."""
    _require_degree("m", m)
    return _stacked_defects(A.stack[None], B.stack[None], _require_shapes(A, B, X)[None], [0], [m], [0], refuse=True)[0]


def triangle_by_iteration(A: OperatorTuple, B: OperatorTuple, X, m: int) -> np.ndarray:
    """Same defect by m applications of X -> X - sigma(X); cross-check path."""
    _require_degree("m", m)
    Y = _require_pair(A, B, X).copy()
    for _ in range(m):
        Y = Y - _sigma(A, B, Y)
    return Y


def delta(A: OperatorTuple, B: OperatorTuple, X, n: int) -> np.ndarray:
    """Symmetric defect of degree n: sum_j (-1)^j C(n,j) (sum A)^(n-j) X (sum B)^j; delta^0 = X."""
    _require_degree("n", n)
    if n == 0:
        return _require_pair(A, B, X).copy()
    return _stacked_defects(A.stack[None], B.stack[None], _require_shapes(A, B, X)[None], [0], [0], [n], refuse=True)[0]


def delta_by_iteration(A: OperatorTuple, B: OperatorTuple, X, n: int) -> np.ndarray:
    """Same defect by n applications of X -> (sum A) X - X (sum B); cross-check path."""
    _require_degree("n", n)
    Y = _require_pair(A, B, X).copy()
    sa = A.component_sum()
    sb = B.component_sum()
    for _ in range(n):
        Y = sa @ Y - Y @ sb
    return Y


def isosym_defect(A: OperatorTuple, B: OperatorTuple, X, m: int, n: int) -> np.ndarray:
    """triangle^m applied to delta^n(X); equals the swapped composition for commuting tuples."""
    return triangle(A, B, delta(A, B, X, n), m)


def defect_check(
    A: OperatorTuple, B: OperatorTuple, X, m: int, n: int, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> tuple[float, float]:
    """(norm, threshold) of the degree-(m, n) zero test, ``defect_checks`` of the one degree:
    the norm of ``triangle`` (n = 0), ``delta`` (m = 0) or ``isosym_defect``, and
    ``tol.threshold(defect_scale(A, B, X, m, n))``.  The defect passes iff norm <= threshold.
    """
    return defect_checks(A, B, X, [(m, n)], tol)[0]


def defect_checks(
    A: OperatorTuple, B: OperatorTuple, X, degrees, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> list[tuple[float, float]]:
    """``defect_check(A, B, X, m, n, tol)`` of each degree ``(m, n)``: the phases of
    ``defect_stack_checks``, norms then thresholds, on the one-row stacks of the pair
    and X (one stack serves as A and B when A is B), its items the degrees on row 0,
    which share the runs they form.

    The pair is refused as ``triangle`` refuses it, then each degree in order.
    Every norm comes before every threshold, as in the kernel, so a non-finite
    value is refused before an overflowing spectral norm or scale.  The
    thresholds read a norm table seeded from the tuples' own spectral norms,
    the components' when some m > 0 and the sums' when some n > 0:
    ``spectral_norms`` fills the parts they lack in one call and leaves them
    with the tuples.
    """
    X = _require_shapes(A, B, X)
    degrees = [(_require_degree("m", m), _require_degree("n", n)) for m, n in degrees]
    ms, ns = [m for m, _ in degrees], [n for _, n in degrees]
    a = A.stack[None]
    test = _checked_stack_test(a, a if A is B else B.stack[None], X[None], ms, ns, [0] * len(ms))
    (values,) = _stack_items([test], mc.fro_norm_array)
    held = spectral_norms([(A, any(ms), any(ns)), (B, any(ms), any(ns))])
    norms = {id(stack): (stack, *(None if part is None else np.array([part]) for part in parts))
             for stack, parts in zip(test[:2], held)}
    (thresholds,) = _thresholds([test], norms, tol)
    return list(zip(values.tolist(), thresholds.tolist()))


def defect_stack_checks(tests, tol: mc.Tolerance, norms: dict) -> list[tuple[np.ndarray, np.ndarray]]:
    """The (norms, thresholds) arrays of each zero test ``(A, B, X, ms, ns)`` over stacks:
    A and B (b, d, n, n) stacks of b pairs, X the (b, n, n) stack of their X, and ms and
    ns the degrees of its items, an int array or a sequence each.  Item i is
    ``defect_check(A[i], B[i], X[i], ms[i], ns[i], tol)``, bit for bit.  A test ``(A, B,
    X, ms, ns, rows)`` names the row ``rows[i]`` that item i reads instead (rows may
    repeat); None stands for ``i``.

    The engine runs once per group of one kind, tuple length and dimension;
    the items on one row of the same (A, B, X) stack objects share its runs.
    Faults are raised by test and then by item, one phase at a time: a test
    of ill-matched shapes or a degree that is not a non-negative integer, as
    it is read; then a non-finite value, which runs each item alone; then the
    first overflowing threshold.  The kernel knows nothing of trials: a
    caller with several in one call orders their refusals itself
    (``verify.Theorem.program``).  ``norms`` is the norm table that the
    thresholds read, kept by the caller across calls (``_fill_stack_norms``).
    It holds whole stacks, so a stack whose norms a test reads is refused when
    any row of it is non-finite, whether an item reads that row or not.
    """
    tests = [_checked_stack_test(*test) for test in tests]
    if not tests:
        return []
    values = _stack_items(tests, mc.fro_norm_array)
    _fill_stack_norms(norms, tests)
    return list(zip(values, _thresholds(tests, norms, tol)))


def stack_defects(A, B, X, ms, ns) -> np.ndarray:
    """The (b, n, n) stack of each row's degree-(ms[r], ns[r]) defect of the pair of rows
    A[r], B[r] of two (b, d, n, n) stacks at X[r]: the defect ``triangle`` (n = 0) or
    ``delta`` (m = 0 < n) forms alone, bit for bit, from one engine call per kind.
    When a value is non-finite, each row runs alone, in order, which refuses what
    ``triangle`` refuses: a non-finite X or sigma input."""
    (defects,) = _stack_items([_checked_stack_test(A, B, X, ms, ns)], lambda found: found)
    return defects


def _checked_stack_test(A, B, X, ms, ns, rows=None) -> tuple:
    """A stack test with C-contiguous stacks, lists of int degrees and an index array of
    rows, refused when its shapes do not match, then at its first m and then its first
    n that is not a non-negative integer."""
    X = np.ascontiguousarray(mc.complex_array(X, name="X"))
    if X.ndim != 3 or X.shape[1] != X.shape[2] or X.shape[1] == 0:
        raise InvalidArgumentError(f"X must be square and non-empty, got shape {X.shape[1:]}")
    if A.shape[1] != B.shape[1]:
        raise InvalidArgumentError(f"tuple length mismatch: {A.shape[1]} vs {B.shape[1]}")
    if A.shape[2] != B.shape[2] or A.shape[2] != X.shape[1]:
        raise InvalidArgumentError(
            f"dimension mismatch: A is {A.shape[2]}, B is {B.shape[2]}, X is {X.shape[1]}"
        )
    return (
        np.ascontiguousarray(A), np.ascontiguousarray(B), X, _degrees("m", ms), _degrees("n", ns),
        None if rows is None else np.asarray(rows, dtype=np.intp),
    )


def _degrees(name: str, ks) -> list[int]:
    """Degrees, an int array or a sequence, as a list of ints; the first that is not a
    non-negative integer is refused as ``_require_degree`` refuses it."""
    ks = _listed(ks)
    if not set(map(type, ks)) <= {int}:  # bool and other int types are checked one by one
        ks = [_require_degree(name, k) for k in ks]
    if ks and min(ks) < 0:
        _require_degree(name, next(k for k in ks if k < 0))
    return ks


def _listed(column) -> list:
    """A column of a stack test, an array or a sequence, as a list."""
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def _kinds(ms: list, ns: list) -> dict:
    """The items of each kind (m > 0, n > 0) of a test, by kind: None when one kind has them all."""
    kinds = [(m > 0, n > 0) for m, n in zip(ms, ns)]
    if kinds.count(kinds[0]) == len(kinds):
        return {kinds[0]: None}
    items: dict = {}
    for i, kind in enumerate(kinds):
        items.setdefault(kind, []).append(i)
    return {kind: np.array(found) for kind, found in items.items()}


def _picked(column: list, items) -> list:
    """The entries of a list at the items, every entry for None."""
    return column if items is None else [column[i] for i in items.tolist()]


def _at(part: np.ndarray, rows):
    """The rows of a stack test's part that its items read: every row for None."""
    return part if rows is None else part[rows]


def _stack_items(tests: list, reduce) -> list[np.ndarray]:
    """``reduce`` of the (items, n, n) stack of the defects of each checked stack test's
    items, from one ``_stacked_defects`` call per group of one kind, tuple length and
    dimension.  When a value is non-finite, each item runs alone, by test and then by
    item, which refuses what that item refuses alone."""
    groups: dict[tuple, list] = {}
    for t, (A, _, _, ms, ns, _) in enumerate(tests):
        if ms:
            for kind, items in _kinds(ms, ns).items():
                groups.setdefault((*A.shape[1:3], kind), []).append((t, items))
    out = [np.empty(0) for _ in tests]
    alone = sum(len(test[3]) for test in tests) == 1
    with np.errstate(all="ignore"):  # a non-finite value is refused or redone below
        for members in groups.values():
            a, b, x, sources = _stack_sources(tests, members)
            ms = [m for t, items in members for m in _picked(tests[t][3], items)]
            ns = [n for t, items in members for n in _picked(tests[t][4], items)]
            found = reduce(_stacked_defects(a, b, x, sources, ms, ns, refuse=alone))
            start = 0
            for t, items in members:
                count = len(tests[t][3])
                size = count if items is None else len(items)
                if items is None:
                    out[t] = found[start : start + size]
                else:
                    if len(out[t]) != count:
                        out[t] = np.empty((count, *found.shape[1:]), dtype=found.dtype)
                    out[t][items] = found[start : start + size]
                start += size
    if not alone and not all(np.isfinite(values).all() for values in out):
        for values, (A, B, X, ms, ns, rows) in zip(out, tests):
            for i in range(len(ms)):
                r = i if rows is None else int(rows[i])
                one = (A[r : r + 1], B[r : r + 1], X[r : r + 1], ms[i : i + 1], ns[i : i + 1], None)
                values[i] = _stack_items([one], reduce)[0][0]
    return out


def _stack_sources(tests: list, members: list) -> tuple:
    """(a, b, x, sources) of one group's items ``(test, items)`` (items None for all): the
    stacks of its distinct source rows, a row of a distinct (A, B, X) stack triple each,
    and the list of each item's index in them, numbered in order of first appearance."""
    triples: dict[tuple, list] = {}
    reads = []  # the stack rows each member's items read: None for every row, in order
    for t, items in members:
        A, B, X, _, _, rows = tests[t]
        reads.append(items if rows is None else _at(rows, items))
        triples.setdefault((id(A), id(B), id(X)), [A, B, X, []])[3].append(reads[-1])
    parts, offsets = [], {}
    offset = 0
    for key, (A, B, X, row_sets) in triples.items():
        if any(read is None for read in row_sets):
            used = None
        else:
            flags = np.zeros(len(X), dtype=bool)
            for read in row_sets:
                flags[read] = True
            used = None if flags.all() else np.flatnonzero(flags)
        parts.append((A, B, X) if used is None else (A[used], B[used], X[used]))
        offsets[key] = (offset, used)
        offset += len(X) if used is None else len(used)
    sources = []
    for (t, _), read in zip(members, reads):
        A, B, X = tests[t][:3]
        start, used = offsets[(id(A), id(B), id(X))]
        index = range(len(X)) if read is None else read if used is None else np.searchsorted(used, read)
        sources += [start + i for i in (index if isinstance(index, range) else index.tolist())]
    a, b, x = parts[0] if len(parts) == 1 else (np.concatenate(stacks) for stacks in zip(*parts))
    order = list(dict.fromkeys(sources))
    if order != list(range(len(order))):  # the engine numbers sources by first appearance
        a, b, x = a[order], b[order], x[order]
        position = {source: i for i, source in enumerate(order)}
        sources = [position[source] for source in sources]
    return a, b, x, sources


def _fill_stack_norms(norms: dict, tests: list) -> None:
    """Keep in ``norms``, by stack, the spectral norms the tests' thresholds read, whole
    stacks per part: ``id(stack) -> (stack, (b, d) component norms, (b,) sum norms)``, a
    part None until some test reads it.  A stack's component norms are read when an
    item on it has m > 0 and its sum norms when one has n > 0; the parts read and not
    held come from one ``stack_spectral_norms`` call."""
    wanted: dict[int, list] = {}
    for A, B, _, ms, ns, _ in tests:
        iso, sym = any(ms), any(ns)
        for T in (A, B):
            need = wanted.setdefault(id(T), [T, False, False])
            need[1], need[2] = need[1] or iso, need[2] or sym
    requests = []
    for T, iso, sym in wanted.values():
        _, comps, sums = norms.setdefault(id(T), (T, None, None))
        need = (T, iso and comps is None, sym and sums is None)
        if need[1] or need[2]:
            requests.append(need)
    for (T, _, _), found in zip(requests, stack_spectral_norms(requests)):
        norms[id(T)] = (T, *(new if old is None else old for old, new in zip(norms[id(T)][1:], found)))


def _thresholds(tests: list, norms: dict, tol: mc.Tolerance) -> list[np.ndarray]:
    """The threshold array of each checked stack test's items, from ||X||_F and the
    spectral norms kept in ``norms``; the first overflowing scale, by test and then by
    item, is refused.  The factor sums are array expressions, with each row's
    sum_i ||A_i|| ||B_i|| added in index order, and each growth is ``_scales``'."""
    out = []
    for A, B, X, ms, ns, rows in tests:
        iso, sym = _growth_factors(norms, (A, B), (A, B), ms, ns, rows)
        scales = _scales(_at(mc.fro_norm_array(X), rows).tolist(), iso, sym, ms, ns)
        out.append(tol.threshold(np.array(scales)))
    return out


def _growth_factors(norms: dict, iso_pair: tuple, sym_pair: tuple, ms, ns, rows=None) -> tuple[list, list]:
    """The growth factors of each item, 1 + sum_i ||A_i|| ||B_i|| of the stacks ``iso_pair``
    and 1 + ||sum A|| + ||sum B|| of ``sym_pair`` at row ``rows[i]`` (i for None), from the
    norm table; 1.0 for every item when no degree in ms (or ns) is positive."""
    (_, a_comps, _), (_, b_comps, _) = (norms[id(T)] for T in iso_pair)
    (_, _, a_sums), (_, _, b_sums) = (norms[id(T)] for T in sym_pair)
    iso = _iso_factor(_at(a_comps, rows).T, _at(b_comps, rows).T).tolist() if any(ms) else [1.0] * len(ms)
    sym = (1.0 + _at(a_sums, rows) + _at(b_sums, rows)).tolist() if any(ns) else [1.0] * len(ns)
    return iso, sym


def _component_norms(norms: dict, stack: np.ndarray) -> np.ndarray:
    """The (b, d) spectral norms of a stack's components that the norm table holds, once
    a zero test of degree m > 0 has read them."""
    return norms[id(stack)][1]


def _stacked_defects(a, b, x, sources: list, ms: list, ns: list, refuse: bool) -> np.ndarray:
    """The (items, n, n) stack of each item's degree-(ms[i], ns[i]) defect of the pair of
    rows ``sources[i]`` of the (k, d, n, n) stacks a and b at x[sources[i]], for items of
    one kind (m > 0 alike, n > 0 alike) whose sources are numbered in order of first
    appearance, each row of a, b and x a source of some item.

    The engine: the only code that forms sigma iterates, delta terms and
    their binomial sums.  Items on the same source share one stack of left
    products (sum A)^i X, one delta^n(X) per n and one run of sigma iterates
    from each, up to the largest degree any of them asks for; each defect has
    the products and in-order sums, so the bits, of its item alone.  With
    ``refuse`` it refuses a non-finite X or sigma input (iterates 0..m-1,
    delta^n(X) among them); otherwise it shows in the defect.
    """
    if refuse:
        _require_finite(x)
    Y, runs = x, sources  # the row of Y that each item's sigma iterates start from
    if ns[0]:
        # term j of delta^n(X) is ((sum A)^(n - j) X) (sum B)^j, as in ``delta``
        starts = dict.fromkeys(zip(sources, ns))
        runs = _positions(starts, list(zip(sources, ns)))
        run_sources, run_degrees = (list(column) for column in zip(*starts))
        left = mc.matrix_powers(stack_sums(a), max(ns)) @ x
        right = mc.matrix_powers(stack_sums(b), max(ns))

        def delta_terms(s: list[int] | None, ks: list[int]) -> np.ndarray:
            j = np.arange(max(ks) + 1)[:, None]
            if s is None:  # every source once, in order
                return left[np.maximum(np.array(ks) - j, 0), np.arange(len(ks))] @ right[: len(j)]
            if len(s) == 1:  # views, with no copy of the factors
                s, k = slice(s[0], s[0] + 1), ks[0]
                return left[k::-1, s] @ right[: k + 1, s]
            return left[np.maximum(np.array(ks) - j, 0), s] @ right[j, s]

        Y = _layered_sums(delta_terms, run_sources, run_degrees)
        if not ms[0]:  # each item's defect is its delta^n(X), a row of Y
            return Y if len(Y) == len(runs) else Y[runs]
        if len(run_sources) != len(a):  # a source with several n runs once per n
            a, b = a[run_sources], b[run_sources]
    sig = np.empty((max(ms) + 1, *Y.shape), dtype=np.complex128)
    for k, iterate in enumerate(_sigma_run(a, b, Y, len(sig) - 1, refuse=refuse)):
        sig[k] = iterate

    def sigma_terms(r: list[int] | None, ks: list[int]) -> np.ndarray:
        return sig if r is None else sig[: max(ks) + 1].take(r, axis=1)

    return _layered_sums(sigma_terms, runs, ms)


def _positions(distinct: dict, keys: list) -> list[int]:
    """The position of each key among the keys of ``distinct``."""
    if len(distinct) == len(keys):  # every key once, in order
        return list(range(len(keys)))
    position = {key: i for i, key in enumerate(distinct)}
    return [position[key] for key in keys]


def _layered_sums(terms, keys: list, degrees: list) -> np.ndarray:
    """The (batch, n, n) stack of each item's ``binomial_sum`` of its degree.  The k-th
    item of each run ``keys[i]`` is summed in layer k, over ``terms(layer_keys,
    layer_degrees)``, so no stack of terms holds a run twice; when no run has two
    items, the one layer is ``terms(None, degrees)``, which it may scale in place."""
    if len(set(keys)) == len(keys):
        return binomial_sum(terms(None, degrees), _degree(degrees))
    seen: dict = {}
    layers: dict[int, list[int]] = {}
    for i, key in enumerate(keys):
        seen[key] = seen.get(key, -1) + 1
        layers.setdefault(seen[key], []).append(i)
    out = None
    for rows in layers.values():
        ks = [degrees[i] for i in rows]
        layer = binomial_sum(terms([keys[i] for i in rows], ks), _degree(ks))
        if out is None:
            out = np.empty((len(keys), *layer.shape[1:]), dtype=np.complex128)
        out[rows] = layer
    return out


def _degree(ks: list[int]):
    """``binomial_sum``'s k for items of the degrees ``ks``: one int when they share it."""
    return ks[0] if len(set(ks)) == 1 else np.array(ks)


def _sigma_run(a: np.ndarray, b: np.ndarray, Y: np.ndarray, steps: int, refuse: bool):
    """Yield the (batch, n, n) stacks Y, sigma(Y), ..., sigma^steps(Y), item r under the
    pair of rows a[r], b[r] of two C-contiguous (batch, d, n, n) stacks, each step with
    one item's products and in-order sums: the engine's one sigma loop.  With
    ``refuse``, a non-finite input is refused as by ``sigma_apply``."""
    a, b = a.swapaxes(0, 1), b.swapaxes(0, 1)
    yield Y
    for _ in range(steps):
        Y = _sigma_of_stacks(a, _require_finite(Y) if refuse else Y, b)
        yield Y


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
    norm, threshold = defect_check(A, B, X, m, 0, tol)
    if not norm <= threshold:
        raise InvalidArgumentError(
            f"pair is not (X,{m})-isometric: defect norm {norm:.3e} "
            f"exceeds threshold {threshold:.3e}"
        )
    run = _cesaro_run(A.stack[None], B.stack[None], _require_shapes(A, B, X)[None], [m], t_max)
    return [(t, mc.fro_norm(Y[0] / binomial(t, m - 1) - reference[0])) for t, Y, reference in run]


def _require_cesaro_degrees(m, t_max) -> None:
    if type(m) is not int or m < 1:  # a bool is an int, but not a degree
        raise InvalidArgumentError(f"m must be a positive integer, got {m!r}")
    if type(t_max) is not int or t_max < m:
        raise InvalidArgumentError(f"t_max must be an integer >= m, got {t_max!r}")


def _cesaro_run(a: np.ndarray, b: np.ndarray, Xs: np.ndarray, ms, t_max: int):
    """Yield (t, sigma^t(X), triangle^(m-1)(X)) as (batch, n, n) stacks of the runs of the
    pairs of rows a[r], b[r] of two C-contiguous (batch, d, n, n) stacks at Xs[r] with
    degree ms[r], for t = max(ms)..t_max, from one refusing ``_sigma_run`` whose
    iterates below max(ms) are kept for the reference.  Each run has the bits it has
    alone."""
    M, kept = max(ms), []
    for t, Y in enumerate(_sigma_run(a, b, Xs, t_max, refuse=True)):
        if t < M:
            kept.append(Y)
            continue
        if t == M:
            reference = binomial_sum(np.array(kept), np.array(ms) - 1)
        yield t, Y, reference


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

    def isometric_at(self, m: int) -> bool:
        """Whether the degree-m isometric defect passed its zero test, 0 <= m <= k_max."""
        return self._passed(m, self.min_isometry_degree, self.isometry_anomalies)

    def symmetric_at(self, n: int) -> bool:
        """Whether the degree-n symmetric defect passed its zero test, 0 <= n <= k_max."""
        return self._passed(n, self.min_symmetry_degree, self.symmetry_anomalies)

    def _passed(self, k: int, min_degree: int | None, anomalies: tuple[int, ...]) -> bool:
        # the first passing degree is the minimal one, and every failing degree
        # above it is an anomaly, so these two fields hold every verdict
        if not 0 <= k <= self.k_max:
            raise InvalidArgumentError(f"degree {k} is outside the profile's 0..{self.k_max}")
        return min_degree is not None and k >= min_degree and k not in anomalies

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
