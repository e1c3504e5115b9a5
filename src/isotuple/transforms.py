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

One engine, ``_group_defects`` with its sigma loop ``_sigma_run``, forms
every sigma iterate, delta term and binomial sum, with the bits of each test
alone; zero tests on one (A, B, X) share one run up to their largest degree.
``defect_checks`` evaluates many zero tests through it, ``defect_check``,
``triangle``, ``delta`` and ``sigma_iterates`` are its batch of one, and the
Cesaro kernels step from X through its loop.  Only the cross-check paths
``triangle_by_iteration`` and ``delta_by_iteration`` iterate on their own.
Every tolerance scale comes from one helper, ``_scale``.  ``superop_matrix``
lifts the maps to dim^2 x dim^2 matrices acting on column-stacked vec(X) —
the second, independent evaluation route used for cross-checks.
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
    component_sums,
    fill_spectral_norms,
    max_commutator_within,
)

#: ``expand`` mode is refused once the implied word count d**j exceeds 2**20.
EXPAND_BUDGET_LOG2 = 20.0


def _require_pair(A: OperatorTuple, B: OperatorTuple, X) -> np.ndarray:
    return _require_finite(_require_shapes(A, B, X))


def _require_shapes(A: OperatorTuple, B: OperatorTuple, X) -> np.ndarray:
    """X as a complex array, its shape and the pair's checked as ``_require_pair`` checks them."""
    X = np.asarray(X, dtype=np.complex128)
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
    if not isinstance(k, int) or k < 0:
        raise InvalidArgumentError(f"{name} must be a non-negative integer, got {k!r}")
    return k


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
    A factor raised to the power 0 is 1.0 and is skipped, norms and all: the
    pair's norms come from one ``fill_spectral_norms`` call for the parts read.
    """
    _require_degree("iso_degree", iso_degree)
    _require_degree("sym_degree", sym_degree)
    fill_spectral_norms((T, bool(iso_degree), bool(sym_degree)) for T in (A, B))
    return _scale(mc.fro_norm(X), A, B, iso_degree, sym_degree)


def _scale(
    scale: float, A: OperatorTuple, B: OperatorTuple, iso_degree: int, sym_degree: int
) -> float:
    """``defect_scale`` from ||X||_F and the spectral norms the pair holds:
    scale * (1 + sum_i ||A_i|| ||B_i||)^m * (1 + ||sum A|| + ||sum B||)^n."""
    if iso_degree:
        factor = 1.0 + sum(a * b for a, b in zip(A.op_norms, B.op_norms))
        scale = grown_scale(scale, factor, iso_degree)
    if sym_degree:
        scale = grown_scale(scale, 1.0 + A.sum_op_norm + B.sum_op_norm, sym_degree)
    return scale


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
    return [Y[0] for Y in _sigma_run([A], [B], X[None].copy(), j_max, refuse=True)]


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
    return _group_defects([(A, B, _require_shapes(A, B, X), m, 0)])[2][0]  # a batch of one


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
    return _group_defects([(A, B, _require_shapes(A, B, X), 0, n)])[2][0]  # a batch of one


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
    """(norm, threshold) of the degree-(m, n) zero test, ``defect_checks`` of the one test:
    the norm of ``triangle`` (n = 0), ``delta`` (m = 0) or ``isosym_defect``, and
    ``tol.threshold(defect_scale(A, B, X, m, n))``.  The defect passes iff norm <= threshold.
    """
    return defect_checks([(A, B, X, m, n)], tol)[0]


def defect_checks(tests, tol: mc.Tolerance = mc.DEFAULT_TOL) -> list[tuple[float, float]]:
    """``defect_check(A, B, X, m, n, tol)`` of each zero test ``(A, B, X, m, n)``.

    Each test is refused as it is read, as ``triangle`` or ``delta`` refuses
    it.  Every norm comes before every threshold, so a fault raises what the
    norms and then the thresholds raise in test order.  The thresholds read
    the norms of one ``fill_spectral_norms`` call for the parts the tests
    read: the components' norms for m > 0 and the sums' for n > 0.
    """
    tests = [
        (A, B, _require_shapes(A, B, X), _require_degree("m", m), _require_degree("n", n))
        for A, B, X, m, n in tests
    ]
    norms, x_norms = _defect_norms(tests)
    fill_spectral_norms([(T, bool(m), bool(n)) for A, B, _, m, n in tests for T in (A, B)])
    return [
        (norm, tol.threshold(_scale(x_norm, A, B, m, n)))
        for norm, x_norm, (A, B, _, m, n) in zip(norms, x_norms, tests)
    ]


def _defect_norms(tests: list) -> tuple[list[float], list[float]]:
    """The defect norms and ||X||_F of checked zero tests, a ``_group_defects`` call per
    group of one kind, tuple length and dimension.  A batch of several tests that
    meets a non-finite value runs each test as a batch of one."""
    groups: dict[tuple, list[int]] = {}
    for i, (A, _, _, m, n) in enumerate(tests):
        groups.setdefault((A.d, A.dim, m > 0, n > 0), []).append(i)
    norms, x_norms = [0.0] * len(tests), [0.0] * len(tests)
    with np.errstate(all="ignore"):  # a non-finite value is refused or redone below
        for members in groups.values():
            Xs, sources, defects = _group_defects([tests[i] for i in members])
            x_group = mc.fro_norm_array(Xs)[sources].tolist()
            for i, norm, x_norm in zip(members, mc.fro_norms(defects), x_group):
                norms[i], x_norms[i] = norm, x_norm
    if len(tests) > 1 and not all(map(math.isfinite, norms + x_norms)):
        alone = [_defect_norms([test]) for test in tests]
        return [norm for (norm,), _ in alone], [x_norm for _, (x_norm,) in alone]
    return norms, x_norms


def _group_defects(tests: list) -> tuple[np.ndarray, list[int], np.ndarray]:
    """(Xs, sources, defects) of one group's tests: the stack of its distinct X, each
    test's index in it, and the (batch, n, n) stack of each test's defect.

    The engine: the only code that forms sigma iterates, delta terms and
    their binomial sums.  Tests on the same (A, B, X) objects share one stack
    of left products (sum A)^i X, one delta^n(X) per n and one run of sigma
    iterates from each, up to the largest degree any of them asks for; each
    defect has the products and in-order sums, so the bits, of its test
    alone.  A group of one refuses a non-finite X or sigma input (iterates
    0..m-1, delta^n(X) among them); in a larger group it shows in the norm.
    """
    keys = [(id(A), id(B), id(X)) for A, B, X, _, _ in tests]
    heads = dict(zip(keys, tests))  # a test of each source, in order of first appearance
    sources = _positions(heads, keys)
    As, Bs, Xs, _, _ = zip(*heads.values())
    Y = Xs = np.array(Xs, dtype=np.complex128)
    ms, ns = [test[3] for test in tests], [test[4] for test in tests]
    alone = len(tests) == 1
    if alone:
        _require_finite(Xs)
    runs = sources  # the row of Y that each test's sigma iterates start from
    if ns[0]:
        # term j of delta^n(X) is ((sum A)^(n - j) X) (sum B)^j, as in ``delta``
        starts = dict.fromkeys(zip(sources, ns))
        runs = _positions(starts, list(zip(sources, ns)))
        run_sources, run_degrees = zip(*starts)
        left = mc.matrix_powers(component_sums(As), max(ns)) @ Xs
        right = mc.matrix_powers(component_sums(Bs), max(ns))

        def delta_terms(s: list[int] | None, ks: list[int]) -> np.ndarray:
            j = np.arange(max(ks) + 1)[:, None]
            if s is None:  # every source once, in order
                return left[np.maximum(np.array(ks) - j, 0), np.arange(len(ks))] @ right[: len(j)]
            if len(s) == 1:  # views, with no copy of the factors
                s, k = slice(s[0], s[0] + 1), ks[0]
                return left[k::-1, s] @ right[: k + 1, s]
            return left[np.maximum(np.array(ks) - j, 0), s] @ right[j, s]

        Y = _layered_sums(delta_terms, run_sources, run_degrees)
        As, Bs = [As[s] for s in run_sources], [Bs[s] for s in run_sources]
        if not ms[0]:  # each test's defect is its delta^n(X), a row of Y
            return Xs, sources, Y if len(Y) == len(runs) else Y[runs]
    sig = np.empty((max(ms) + 1, *Y.shape), dtype=np.complex128)
    for k, iterate in enumerate(_sigma_run(As, Bs, Y, len(sig) - 1, refuse=alone)):
        sig[k] = iterate

    def sigma_terms(r: list[int] | None, ks: list[int]) -> np.ndarray:
        return sig if r is None else sig[: max(ks) + 1].take(r, axis=1)

    return Xs, sources, _layered_sums(sigma_terms, runs, ms)


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


def _sigma_run(As, Bs, Y: np.ndarray, steps: int, refuse: bool):
    """Yield the (batch, n, n) stacks Y, sigma(Y), ..., sigma^steps(Y), item b under
    (As[b], Bs[b]), each step with one item's products and in-order sums: the engine's
    one sigma loop.  With ``refuse``, a non-finite input is refused as by ``sigma_apply``."""
    a = np.array([A.stack for A in As]).swapaxes(0, 1)
    b = np.array([B.stack for B in Bs]).swapaxes(0, 1)
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
    run = _cesaro_run([A], [B], _require_shapes(A, B, X)[None], [m], t_max)
    return [(t, mc.fro_norm(Y[0] / binomial(t, m - 1) - reference[0])) for t, Y, reference in run]


def _require_cesaro_degrees(m, t_max) -> None:
    if not isinstance(m, int) or m < 1:
        raise InvalidArgumentError(f"m must be a positive integer, got {m!r}")
    if not isinstance(t_max, int) or t_max < m:
        raise InvalidArgumentError(f"t_max must be an integer >= m, got {t_max!r}")


def _cesaro_run(As, Bs, Xs: np.ndarray, ms, t_max: int):
    """Yield (t, sigma^t(X), triangle^(m-1)(X)) as (batch, n, n) stacks of the runs
    (As[b], Bs[b], Xs[b], ms[b]), for t = max(ms)..t_max, from one refusing
    ``_sigma_run`` whose iterates below max(ms) are kept for the reference."""
    M, kept = max(ms), []
    for t, Y in enumerate(_sigma_run(As, Bs, Xs, t_max, refuse=True)):
        if t < M:
            kept.append(Y)
            continue
        if t == M:
            reference = binomial_sum(np.array(kept), np.array(ms) - 1)
        yield t, Y, reference


def cesaro_error(A: OperatorTuple, B: OperatorTuple, X, m: int, t_max: int) -> float:
    """The last error of ``cesaro_estimate``, e_(t_max), without the check that the pair
    is (X,m)-isometric: ``cesaro_errors`` of the one run."""
    return cesaro_errors([(A, B, X, m, t_max)])[0]


def cesaro_errors(runs) -> list[float]:
    """``cesaro_error(A, B, X, m, t_max)`` of each run ``(A, B, X, m, t_max)``, with its bits:
    runs on tuples of one length and dimension with one t_max step together from X.  A
    batch that meets a refusal runs each run alone, which raises what that run raises."""
    runs = list(runs)
    for *_, m, t_max in runs:
        _require_cesaro_degrees(m, t_max)
    runs = [(A, B, _require_shapes(A, B, X), m, t_max) for A, B, X, m, t_max in runs]
    groups: dict[tuple, list[int]] = {}
    for i, (A, _, _, _, t_max) in enumerate(runs):
        groups.setdefault((A.d, A.dim, t_max), []).append(i)
    errors = [0.0] * len(runs)
    try:
        for (_, _, t_max), members in groups.items():
            As, Bs, Xs, ms, _ = zip(*(runs[i] for i in members))
            for _, Y, reference in _cesaro_run(As, Bs, np.array(Xs), ms, t_max):
                pass
            for i, m, Y_i, reference_i in zip(members, ms, Y, reference):
                errors[i] = mc.fro_norm(Y_i / binomial(t_max, m - 1) - reference_i)
    except InvalidArgumentError:
        if len(runs) == 1:
            raise
        return [cesaro_errors([run])[0] for run in runs]
    return errors


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
