"""Identity-level checkers and randomized campaigns.

Each built-in check tests, in order, the commutators of its instance
(``_noncommuting``), its hypothesis defects (``_failed_hypothesis``) and its
conclusions at the derived degrees (``_verdict``); pro01-pro03 judge bespoke
bounds in their own bodies.  A failed commutator or hypothesis skips the
trial (an invalid instance never refutes an identity).
Conclusion failures inside a small gray band above the threshold count as
tolerance anomalies; decisive failures are serialized as counterexamples
with full inputs and a defect profile for post-mortem.

Each checker has one body, a generator: it yields ``(kernel, items)`` for
each batch of work it would do, and is sent back ``kernel(items, tol)``.
``check_*`` drives its body alone; a campaign generates a chunk of up to
``LOCKSTEP_TRIALS`` instances together (``generators.random_instances``) and
drives their bodies in lock-step (``_lockstep``): each round calls each
kernel once, on the items of every pending body.  Every kernel gives each
item the bits it gets alone, so a trial's result does not depend on the
trials run beside it.

thm05, cor05, cor050, thm06, cor06 and cor062 are column programs: each
body yields once, ``result = yield program, [args]``, so a chunk's trials
meet in one call of the id's program, and a ``check_*`` is the program's
batch of one.  A program splits its trials into classes of one shape
(``_Columns``), stacks each argument over a class's rows, and runs the
check's stages in the order the check is written: commutators
(``tuples.commutator_stack_checks``), nilpotency orders
(``tuples.nilpotency_stack_orders``), hypotheses and conclusions
(``transforms.defect_stack_checks``), each stage one stack-kernel call for
the live rows of every class.  A skip is a row mask, a derived tuple a
stacked expression (``tuples.sum_stacks``, ``tuples.product_stacks``), and
each result comes from ``_verdict`` or ``_skip``.  cor05's combined defect
is a delta stage over every row, then a triangle stage
(``transforms.stack_defects``).  With several refused trials in a chunk,
the first refusing stage raises what its earliest refusing trial raises, as
the lock-step raises its first refusing body's error: a zero-test stage
keys each row by its trial's position, and any other stage that refuses
runs again one trial at a time (``_in_trial_order``).

The other seven ids keep generator bodies over the list kernels:
``tuples.commutator_checks`` for their commutators (``_noncommuting``),
``transforms.defect_checks`` for their zero tests (``_zero_tests``,
``_failed_hypothesis``, sharpness norms included) and
``transforms.cesaro_errors`` for pro01's Cesaro run.  Zero tests on one pair
at one X share one run of sigma iterates in the engine behind both defect
kernels, so pro01's lower-degree norms and the sharpness tests cost no run
of their own.  The bespoke thresholds (pro01's collapse test, pro02's limit,
pro03's right-hand side and cor05's combined scale) read the spectral norms
that their zero tests asked for, so no trial computes norms of its own.

Campaign reports are deterministic functions of (theorem_id, seeds,
tolerance); wall-clock data lives in the ``timestamp`` envelope of the JSON
so two runs with the same seed are byte-identical outside that field.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import time
from collections import Counter
from collections.abc import Callable, Generator
from dataclasses import dataclass, field

import numpy as np

from . import classify, matrix_core as mc, transforms as tf
from .errors import InvalidArgumentError
from .generators import (
    InstanceBundle,
    paper_example_mixing,
    paper_example_squares,
    random_instances,
)
from .transforms import defect_stack_checks
from .tuples import (
    OperatorTuple,
    PowerConvention,
    adjoint_tuple,
    commutator_checks,
    commutator_stack_checks,
    conj_tuple,
    inverse_tuple,
    nilpotency_stack_orders,
    power_tuple,
    product_stacks,
    product_tuple,
    sum_stacks,
    tensor_tuple,
)

#: Conclusion norms within this factor above the pass threshold are tolerance
#: anomalies rather than counterexamples.
ANOMALY_BAND = 1e3

#: A defect one degree below a bound counts as a sharpness witness above this norm.
SHARPNESS_FLOOR = 1e-4

REPORT_SCHEMA_VERSION = "1"


@dataclass(frozen=True)
class TrialResult:
    status: str  # pass | anomaly | counterexample | skip
    reason: str = ""
    defects: dict = field(default_factory=dict)
    sharpness: dict = field(default_factory=dict)
    is_sharp: bool = False
    conclusion: float = 0.0  # the largest conclusion norm judged; max_defect reads it

    def __post_init__(self):
        if self.status not in ("pass", "anomaly", "counterexample", "skip"):
            raise InvalidArgumentError(f"unknown trial status {self.status!r}")


def _judge(norm: float, threshold: float) -> str:
    if norm <= threshold:
        return "pass"
    if norm <= ANOMALY_BAND * threshold:
        return "anomaly"
    return "counterexample"


def _skip(reason: str, **defects) -> TrialResult:
    return TrialResult(status="skip", reason=reason, defects=dict(defects))


_SEVERITY = ("pass", "anomaly", "counterexample")


def _verdict(
    checks: list[tuple[str, float, float]],
    extra: dict | None = None,
    sharpness: dict | None = None,
    is_sharp: bool = False,
) -> TrialResult:
    """The result of a trial's conclusion tests, each ``(name, norm, threshold)``.

    Each test is stored as ``name`` and ``name_threshold``.  The status is the
    worst ``_judge`` verdict, with the reason of the first test that has it,
    and ``conclusion`` is the largest judged norm.
    """
    defects: dict[str, float] = {}
    for name, norm, threshold in checks:
        defects[name], defects[f"{name}_threshold"] = norm, threshold
    defects.update(extra or {})
    verdicts = [_judge(norm, threshold) for _, norm, threshold in checks]
    status = max(verdicts, key=_SEVERITY.index)
    name, norm, threshold = checks[verdicts.index(status)]
    return TrialResult(
        status=status,
        reason="" if status == "pass" else f"{name} = {norm:.3e} vs threshold {threshold:.3e}",
        defects=defects,
        sharpness=sharpness or {},
        is_sharp=is_sharp,
        conclusion=max(norm for _, norm, _ in checks),
    )


def _degrees(kind: str, k: int) -> tuple[int, int]:
    """(m, n) of the degree-k defect of the given kind: isometric or symmetric."""
    return (k, 0) if kind == "iso" else (0, k)


def _args(bundle: InstanceBundle, names: str) -> list:
    """The bundle's tuples, matrices and integer parameters of the given names, in order."""
    found = {**bundle.tuples, **bundle.matrices}
    return [found[k] if k in found else int(bundle.params[k]) for k in names.split()]


def _noncommuting(*pairs: tuple):
    """The skip for the first ``(label, S, T)`` whose commutators do not vanish, or
    None: those within S when T is S, else every [S_i, T_j].  ``label`` is the reason.

    The pairs go to ``commutator_checks`` through the body's driver.  A pair of
    two dimensions, which the kernel refuses, goes in a later batch than the
    pairs before it, so it raises only once they all commute, as in a loop.
    """
    cut = next((k for k, (_, S, T) in enumerate(pairs) if S.dim != T.dim), len(pairs))
    for batch in (pairs[:cut], pairs[cut:]):
        if not batch:
            continue
        checks = yield commutator_checks, [(S, T) for _, S, T in batch]
        for (label, _, _), (commutes, residual) in zip(batch, checks):
            if not commutes:
                return _skip(label, residual=residual)
    return None


def _zero_tests(*tests: tuple):
    """Send the degree-(m, n) zero tests ``(name, A, B, X, m, n)`` to ``tf.defect_checks``
    through the body's driver (``_lockstep``), and return each ``(name, norm, threshold)``."""
    values = yield tf.defect_checks, [test[1:] for test in tests]
    return [(test[0], *value) for test, value in zip(tests, values)]


def _cesaro_errors(runs: list, tol: mc.Tolerance) -> list[float]:
    """The lock-step kernel of pro01's Cesaro runs, which take no tolerance."""
    return tf.cesaro_errors(runs)


def _failed_hypothesis(*hypotheses: tuple):
    """The skip for the first hypothesis ``(reason, A, B, X, m, n)`` whose
    degree-(m, n) zero test fails, or None when every one passes."""
    for reason, norm, threshold in (yield from _zero_tests(*hypotheses)):
        if norm > threshold:
            return _skip(reason, residual=norm)
    return None


def _lockstep(bodies: list, tol: mc.Tolerance) -> list:
    """The value each checker body returns.  A body yields ``(kernel, items)`` and is
    sent back ``kernel(items, tol)``.  The bodies advance together: every round
    calls each kernel once, on the items that all pending bodies yielded for it."""
    results = [None] * len(bodies)
    pending: dict[int, tuple] = {}

    def advance(i: int, answer) -> None:
        try:
            pending[i] = bodies[i].send(answer)
        except StopIteration as stop:
            results[i] = stop.value

    for i in range(len(bodies)):
        advance(i, None)
    while pending:
        waiting = list(pending.items())
        pending.clear()
        by_kernel: dict[Callable, list] = {}
        for i, (kernel, items) in waiting:
            by_kernel.setdefault(kernel, []).append((i, items))
        answers = {}
        for kernel, requests in by_kernel.items():
            values = iter(kernel([item for _, items in requests for item in items], tol))
            for i, items in requests:
                answers[i] = [next(values) for _ in items]
        for i, _ in waiting:
            advance(i, answers[i])
    return results


def _alone(body: Generator, tol: mc.Tolerance) -> TrialResult:
    """The result of one checker body, driven alone."""
    return _lockstep([body], tol)[0]


def _checker(body):
    """The check whose one body is the generator function ``body``: the check drives
    it alone, and ``check.body`` is what a campaign drives in lock-step with others."""
    parameters = inspect.signature(body).parameters
    tol_index, tol_default = list(parameters).index("tol"), parameters["tol"].default

    @functools.wraps(body)
    def check(*args, **kwargs) -> TrialResult:
        gen = body(*args, **kwargs)  # a bad argument raises here, as the check would
        tol = args[tol_index] if len(args) > tol_index else kwargs.get("tol", tol_default)
        return _alone(gen, tol)

    check.body = body
    return check


# ---------------------------------------------------------------------------
# individual checkers


@_checker
def check_pro01(
    bundle: InstanceBundle, t_max: int = 200, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> TrialResult:
    """Cesaro convergence of normalized sigma powers for an (X,m)-isometric pair.

    Passes iff the error at t_max sits under C*(m-1)/t_max (C = 5 * the largest
    defect norm at degrees < m) plus the tolerance floor.  The collapse
    assertion (degree m-1 defect vanishes outright) is additionally applied
    when the sigma superoperator is invertible and unitary-like -- normal with
    no eigenvalue inside the unit circle -- which is the regime where its
    inverse iterates stay bounded.

    The defects of degrees 0..m, and the collapse threshold, come from one
    round of zero tests on one run of sigma iterates; the Cesaro error steps
    from X, across trials in a campaign (``tf.cesaro_errors``).
    """
    A, B, X = bundle.tuples["A"], bundle.tuples["B"], bundle.matrices["X"]
    m = int(bundle.params["m"])
    (_, defect_m, threshold_m), *lower = yield from _zero_tests(
        ("isometry_defect", A, B, X, m, 0), *((f"degree {j}", A, B, X, j, 0) for j in range(m))
    )
    if defect_m > threshold_m:
        return _skip(f"not (X,{m})-isometric", isometry_defect=defect_m)
    (e_final,) = yield _cesaro_errors, [(A, B, X, m, t_max)]
    c_const = 5.0 * max(norm for _, norm, _ in lower)
    bound = c_const * (m - 1) / t_max + threshold_m
    extra = {"t_max": float(t_max)}

    sig_hat = tf.superop_matrix(A, B, "sigma")
    eigs = np.linalg.eigvals(sig_hat)
    normality = mc.fro_norm(sig_hat @ sig_hat.conj().T - sig_hat.conj().T @ sig_hat)
    invertible = bool(np.min(np.abs(eigs)) > 1e-6)
    unitary_like = invertible and normality <= 1e-8 * max(
        mc.fro_norm(sig_hat) ** 2, 1.0
    ) and bool(np.min(np.abs(eigs)) >= 1.0 - 1e-8)
    extra["sigma_invertible"] = float(invertible)
    checks = []
    if unitary_like:
        checks.append(("collapse_defect", *lower[m - 1][1:]))
    checks.append(("cesaro_error", e_final, bound))
    return _verdict(checks, extra)


@_checker
def check_pro02(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Norm-limits of defect-annihilated families keep the combined identity.

    The first family member must satisfy its declared identity (hypothesis);
    the member sequence must converge in norm to the declared limit.  A limit
    that decisively fails while the first member passed is a counterexample
    (a drifting family), not a skip.  Every member's test and the limit's
    are evaluated together, so their scales come from one LAPACK call.
    """
    m1, m2 = int(bundle.params["m1"]), int(bundle.params["m2"])
    degrees = (m1, 0) if bundle.params["kind"] == "triangle" else (0, m2)
    count = int(bundle.params["members"])
    X = bundle.matrices["X"]
    members = [(bundle.tuples[f"A{j}"], bundle.tuples[f"B{j}"]) for j in range(count)]
    A_lim, B_lim = bundle.tuples["A_limit"], bundle.tuples["B_limit"]

    # each member's largest componentwise distance from the limit
    lim = np.concatenate([A_lim.stack, B_lim.stack])
    conv = [max(mc.fro_norm_array(np.concatenate([a.stack, b.stack]) - lim).tolist()) for a, b in members]
    if any(conv[i + 1] > conv[i] + tol.abs_eps for i in range(len(conv) - 1)):
        raise InvalidArgumentError("family does not converge: residuals are not decreasing")

    *judged, (_, norm_lim, _) = yield from _zero_tests(
        *((f"member {j}", A_j, B_j, X, *degrees) for j, (A_j, B_j) in enumerate(members)),
        ("limit_defect", A_lim, B_lim, X, m1, m2),
    )
    (_, first_norm, first_threshold), *later = judged
    if first_norm > first_threshold:
        return _skip("first family member violates its identity", member_defect=first_norm)
    # later members drifting off the identity refute the closure claim; each
    # counts only once the one before it passed
    for j, (_, norm_j, threshold_j) in enumerate(later, start=1):
        verdict = _judge(norm_j, threshold_j)
        if verdict != "pass":
            return TrialResult(
                status=verdict,
                reason=f"member {j} defect drifted to {norm_j:.3e}",
                defects={"member_index": float(j), "member_defect": norm_j},
                conclusion=norm_j,
            )

    scale_lim = tf.defect_scale(A_lim, B_lim, X, m1, m2)
    # convergence slack: the defect is Lipschitz in the tuple within a factor
    # of the degree times the scale, applied to the last residual
    slack = 10.0 * (m1 + m2) * conv[-1] * scale_lim
    threshold = tol.threshold(scale_lim) + slack
    return _verdict([("limit_defect", norm_lim, threshold)], {"last_residual": conv[-1]})


@_checker
def check_pro03(
    bundle: InstanceBundle, m: int | None = None, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> TrialResult:
    """Reduction to the last pair when the first d-1 pairs are degree-1 annihilators.

    Part (a): with (A_i, B_i) degree-1 isometric on X for i < d, the full pair
    is (X,m)-isometric iff ((d-2) I + L_{A_d} R_{B_d})^m (X) = 0.
    Part (b): the symmetric analogue, reducing to the last pair's delta defect.
    The scales of every one-component pair and of the full pair come from one
    LAPACK call: part (a)'s right-hand threshold reads the last components'
    norms, which the full pair's zero test has filled.
    """
    A, B, X = bundle.tuples["A"], bundle.tuples["B"], bundle.matrices["X"]
    if m is None:
        m = int(bundle.params["m"])
    kind = "iso" if bundle.params.get("part", "a") == "a" else "sym"
    d = A.d
    if d < 2:
        return _skip("reduction needs d >= 2")
    pairs = [(OperatorTuple.of(a), OperatorTuple.of(b)) for a, b in zip(A, B)]
    hypotheses = [
        (f"pair {i} is not degree-1 annihilating", Ai, Bi, X, *_degrees(kind, 1))
        for i, (Ai, Bi) in enumerate(pairs[:-1])
    ]
    lhs = ("lhs", A, B, X, *_degrees(kind, m))
    sides = [lhs] if kind == "iso" else [lhs, ("rhs", *pairs[-1], X, 0, m)]
    judged = yield from _zero_tests(*hypotheses, *sides)
    # each pair counts only once the one before it passed
    for reason, norm, threshold in judged[: d - 1]:
        if norm > threshold:
            return _skip(reason, residual=norm)

    if kind == "iso":
        (_, lhs_norm, lhs_thr), = judged[d - 1 :]
        # sum_j C(m, j) (d-2)^(m-j) A_d^j X B_d^j, the terms added in order onto zero
        coeffs = [tf.binomial(m, j) * float((d - 2) ** (m - j)) for j in range(m + 1)]
        terms = np.array(coeffs)[:, None, None] * (
            mc.matrix_powers(A[-1], m) @ X @ mc.matrix_powers(B[-1], m)
        )
        rhs_norm = mc.fro_norm(mc.ordered_sum(terms))
        rhs_thr = tol.threshold(
            tf.grown_scale(mc.fro_norm(X), 1.0 + abs(d - 2) + A.op_norms[-1] * B.op_norms[-1], m)
        )
    else:
        (_, lhs_norm, lhs_thr), (_, rhs_norm, rhs_thr) = judged[d - 1 :]

    lhs_pass, rhs_pass = lhs_norm <= lhs_thr, rhs_norm <= rhs_thr
    defects = {
        "lhs_defect": lhs_norm,
        "rhs_defect": rhs_norm,
        "lhs_threshold": lhs_thr,
        "rhs_threshold": rhs_thr,
    }
    # the equivalence claims neither side is zero, so only a side that passed is a conclusion
    sides = ((lhs_norm, lhs_pass), (rhs_norm, rhs_pass))
    conclusion = max([norm for norm, passed in sides if passed], default=0.0)
    if lhs_pass == rhs_pass:
        return TrialResult(status="pass", defects=defects, conclusion=conclusion)
    # disagreement within the gray band of either side is an anomaly
    gray = (lhs_thr <= lhs_norm <= ANOMALY_BAND * lhs_thr) or (
        rhs_thr <= rhs_norm <= ANOMALY_BAND * rhs_thr
    )
    status = "anomaly" if gray else "counterexample"
    return TrialResult(
        status=status,
        reason=f"equivalence broken: lhs_pass={lhs_pass}, rhs_pass={rhs_pass}",
        defects=defects,
        conclusion=conclusion,
    )


@_checker
def check_pro04(A_hilbert: OperatorTuple, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Degree-2 symmetry of the adjoint pair at I forces a self-adjoint component sum."""
    pair = (adjoint_tuple(A_hilbert), A_hilbert, mc.identity(A_hilbert.dim))
    hypothesis = ("adjoint pair is not (I,2)-symmetric", *pair, 0, 2)
    if skip := (yield from _failed_hypothesis(hypothesis)):
        return skip
    s = A_hilbert.component_sum()
    residual = mc.fro_norm(s - s.conj().T)
    threshold = tol.threshold(mc.fro_norm(s))
    return _verdict([("selfadjoint_residual", residual, threshold)])


@_checker
def check_pro5(
    A_hilbert: OperatorTuple, m_even: int, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> TrialResult:
    """Even symmetric degree of the adjoint pair at I collapses to the odd degree below."""
    if not isinstance(m_even, int) or m_even < 2 or m_even % 2 != 0:
        raise InvalidArgumentError(f"m must be a positive even integer, got {m_even!r}")
    pair = (adjoint_tuple(A_hilbert), A_hilbert, mc.identity(A_hilbert.dim))
    hypothesis = (f"adjoint pair is not (I,{m_even})-symmetric", *pair, 0, m_even)
    if skip := (yield from _failed_hypothesis(hypothesis)):
        return skip
    return _verdict((yield from _zero_tests(("odd_degree_defect", *pair, 0, m_even - 1))))


# ---------------------------------------------------------------------------
# column programs: a check run on a batch of trials, stage by stage


class _Columns:
    """The live trials of one shape class of a column program: ``rows``, their positions
    in the batch, and each argument over them by name: a tuple's (b, d, n, n) stack,
    X's (b, n, n) stack (each stacked on first read), or a parameter's list of values.
    Stages add derived columns, such as a stacked ``sum_tuple``, by name."""

    def __init__(self, rows: np.ndarray, raw: dict):
        self.rows, self._raw, self._columns = rows, raw, {}

    def __getitem__(self, name: str):
        if name not in self._columns:
            values = self._raw.pop(name)
            if isinstance(values[0], OperatorTuple):
                values = np.stack([T.stack for T in values])
            elif name == "X":
                values = np.array([np.asarray(X, dtype=np.complex128) for X in values])
            self._columns[name] = values
        return self._columns[name]

    def __setitem__(self, name: str, column) -> None:
        self._columns[name] = column

    def keep(self, mask: np.ndarray) -> "_Columns | None":
        """The columns of the rows where ``mask`` holds, or None when it holds nowhere."""
        if mask.all():
            return self
        if not mask.any():
            return None
        flags = mask.tolist()
        kept = _Columns(self.rows[mask], {
            name: [value for value, flag in zip(values, flags) if flag]
            for name, values in self._raw.items()
        })
        for name, column in self._columns.items():
            kept[name] = column[mask] if isinstance(column, np.ndarray) else [
                value for value, flag in zip(column, flags) if flag
            ]
        return kept


def _classes(trials: list, names: str, tuples: int) -> list[_Columns]:
    """The trials, each its arguments ``names`` with the tuples first and X next, in
    classes of one shape of the tuples' stacks and X, in order of their first trial."""
    names = names.split()
    by_shape: dict[tuple, list[int]] = {}
    for row, args in enumerate(trials):
        X = args[tuples]
        shape = X.shape if isinstance(X, np.ndarray) else id(X)
        by_shape.setdefault(tuple([T.stack.shape for T in args[:tuples]] + [shape]), []).append(row)
    return [
        _Columns(np.array(rows), {name: [trials[r][i] for r in rows] for i, name in enumerate(names)})
        for rows in by_shape.values()
    ]


def _skip_rows(classes: list, results: list, skipped: list) -> list[_Columns]:
    """Record each class's skips ``(mask, reasons, residuals)``: the rows of ``mask``
    skip with the reason and residual at their position, or None to keep the class
    whole.  Return the classes of the rows still live."""
    live = []
    for cls, skip in zip(classes, skipped):
        if skip is not None:
            mask, reasons, residuals = skip
            for row, reason, residual in zip(cls.rows[mask].tolist(), reasons, residuals):
                results[row] = _skip(reason) if residual is None else _skip(reason, residual=residual)
            cls = cls.keep(~mask)
        if cls is not None:
            live.append(cls)
    return live


def _first_failures(reasons: list, failed: list, residuals: list) -> tuple:
    """``_skip_rows``' skip of the rows where any of the ordered tests ``failed`` (one bool
    array each), each at the first that failed, or None when none did."""
    failed = np.array(failed)
    mask = failed.any(axis=0)
    if not mask.any():
        return None
    first = failed.argmax(axis=0)[mask]
    columns = np.flatnonzero(mask)
    values = np.array(residuals)[first, columns].tolist()
    return mask, [reasons[k] for k in first.tolist()], values


def _merged(cls: _Columns, names: list) -> np.ndarray:
    """The named stacks of a class, of one shape, one after another along the rows."""
    return cls[names[0]] if len(names) == 1 else np.concatenate([cls[name] for name in names])


def _in_trial_order(stage):
    """A stage ``stage(classes, results, *args)`` that, when some trial refuses it, raises
    what the first trial by position in the batch that refuses it alone raises, as
    the lock-step's first refusing body does.  Only a refused stage runs again, each
    trial alone, on scratch results."""

    @functools.wraps(stage)
    def run(classes: list, results: list, *args):
        try:
            return stage(classes, results, *args)
        except InvalidArgumentError:
            trials = sorted((row, k, r) for k, cls in enumerate(classes) for r, row in enumerate(cls.rows.tolist()))
            for _, k, r in trials if len(trials) > 1 else ():
                alone = classes[k].keep(np.arange(len(classes[k].rows)) == r)
                try:
                    stage([alone], [None] * len(results), *args)
                except InvalidArgumentError as first:
                    raise first from None
            raise

    return run


@_in_trial_order
def _commutator_stage(classes: list, results: list, pairs: tuple, kept: tuple,
                      tol: mc.Tolerance) -> list:
    """Skip each row at the first pair ``(label, S, T)`` whose commutators do not vanish:
    within S when T is None, else every [S_i, T_j], as ``_noncommuting`` skips.  The
    commutators within each tuple named in ``kept`` are judged too, and kept for a
    later stage as the columns ``commutes <name>`` and ``residual <name>``.  A class's
    queries of one kind and shapes are one query, and every class's queries go to one
    ``commutator_stack_checks`` call.  A class's first pair of two dimensions is
    refused, once every pair before it commutes in some row."""
    queries, layouts = [], []
    for cls in classes:
        cut = next((k for k, (_, S, T) in enumerate(pairs)
                    if T is not None and cls[S].shape[-1] != cls[T].shape[-1]), len(pairs))
        judged = [(S, T) for _, S, T in pairs[:cut]] + [(name, None) for name in kept]
        merged: dict[tuple, list[int]] = {}
        for k, (S, T) in enumerate(judged):
            merged.setdefault((cls[S].shape, T and cls[T].shape), []).append(k)
        for ks in merged.values():
            right = [judged[k][1] for k in ks]
            queries.append((_merged(cls, [judged[k][0] for k in ks]),
                            None if right[0] is None else _merged(cls, right)))
        layouts.append((cut, len(judged), list(merged.values())))
    checks = iter(commutator_stack_checks(queries, tol))
    skipped = []
    for cls, (cut, count, merged) in zip(classes, layouts):
        b, found = len(cls.rows), [None] * count
        for ks in merged:
            passed, residuals = next(checks)
            for j, k in enumerate(ks):
                found[k] = (passed[j * b : (j + 1) * b], residuals[j * b : (j + 1) * b])
        for name, (passed, residuals) in zip(kept, found[cut:]):
            cls[f"commutes {name}"], cls[f"residual {name}"] = passed, residuals
        found = found[:cut]
        skip = _first_failures(
            [label for label, _, _ in pairs], [~ok for ok, _ in found], [res for _, res in found]
        ) if found else None
        if cut < len(pairs) and (skip is None or not skip[0].all()):
            _, S, T = pairs[cut]
            raise InvalidArgumentError(f"dimension mismatch: {cls[S].shape[-1]} vs {cls[T].shape[-1]}")
        skipped.append(skip)
    return _skip_rows(classes, results, skipped)


@_in_trial_order
def _nilpotent_stage(classes: list, results: list, dim: str, names: tuple, strict: bool,
                     tol: mc.Tolerance) -> list:
    """Give each row the nilpotency orders of the named tuples up to the dimension of
    tuple ``dim``, as columns ``order_<name>``, from one ``nilpotency_stack_orders``
    call; a row with a tuple that is not nilpotent skips.  With ``strict``, a tuple
    whose commutators, kept by ``_commutator_stage``, do not vanish is first refused,
    as ``nilpotency_orders`` refuses it, in order of the rows and then the names."""
    if strict:
        for cls in classes:
            failed = ~np.array([cls[f"commutes {N}"] for N in names])
            if failed.any():
                row, k = divmod(int(np.argmax(failed.T.ravel())), len(names))
                raise InvalidArgumentError(
                    f"tuple does not commute (max residual {cls[f'residual {names[k]}'][row]:.3e})"
                )
    same = [len({cls[N].shape for N in names}) == 1 for cls in classes]
    stacks = [[_merged(cls, list(names))] if one else [cls[N] for N in names]
              for cls, one in zip(classes, same)]
    orders = iter(nilpotency_stack_orders(
        [(S, cls[dim].shape[-1]) for cls, group in zip(classes, stacks) for S in group], tol
    ))
    skipped = []
    for cls, group in zip(classes, stacks):
        found = np.concatenate([next(orders) for _ in group]).reshape(len(names), -1)
        for N, order in zip(names, found):
            cls[f"order_{N}"] = order
        mask = (found == 0).any(axis=0)
        reason = "perturbation tuple is not nilpotent up to the dimension"
        skipped.append((mask, [reason] * int(mask.sum()), [None] * int(mask.sum())) if mask.any() else None)
    return _skip_rows(classes, results, skipped)


def _hypothesis_stage(classes: list, results: list, hypotheses, tol: mc.Tolerance,
                      norms: dict) -> list:
    """Skip each row at the first hypothesis whose zero test fails, as
    ``_failed_hypothesis`` skips: ``hypotheses(cls)`` lists each ``(reason, A, B, X, ms,
    ns)`` of a class, and every class's tests go to one ``defect_stack_checks`` call,
    keyed by the rows' positions in the batch."""
    tests = [hypotheses(cls) for cls in classes]
    judged = iter(defect_stack_checks(
        [(*test[1:], None, cls.rows) for cls, group in zip(classes, tests) for test in group], tol, norms
    ))
    skipped = []
    for group in tests:
        found = [next(judged) for _ in group]
        skipped.append(_first_failures(
            [test[0] for test in group], [norm > threshold for norm, threshold in found],
            [norm for norm, _ in found],
        ))
    return _skip_rows(classes, results, skipped)


@_in_trial_order
def _derived_stage(classes: list, results: list, derive) -> list:
    """Give each class the columns that ``derive(cls)`` sets: its rows' derived tuples,
    as stacked expressions, and degrees."""
    for cls in classes:
        derive(cls)
    return classes


def _degree_column(cls: _Columns, name: str) -> np.ndarray:
    """A parameter column of int degrees as an int array."""
    return np.array(cls[name], dtype=np.int64)


def _kind_degrees(cls: _Columns, degrees: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(m, n) of each row's degree of its kind, per ``_degrees``."""
    iso = np.array([kind == "iso" for kind in cls["kind"]])
    return np.where(iso, degrees, 0), np.where(iso, 0, degrees)


def _sharp_conclusions(classes: list, results: list, name: str, conclusion, below: tuple,
                       extra, tol: mc.Tolerance, norms: dict) -> None:
    """Each row's verdict of its conclusion zero test ``name``, with the norms of its
    sharpness tests on the same pair, the first of ``below`` the witness's.
    ``conclusion(cls)`` is a class's ``(P, Q, X, ms, ns, lower)``, ``lower`` the degrees
    ``(ms, ns)`` of each sharpness name in ``below``, and ``extra(cls)`` the columns of
    the result's extra entries by key.  Every class's tests go to one
    ``defect_stack_checks`` call, keyed by the rows' positions in the batch.  A
    sharpness test of a negative degree is left out of its row's result, and runs at
    that degree clipped to 0."""
    tests, included = [], []
    for cls in classes:
        P, Q, X, ms, ns, lower = conclusion(cls)
        tests += [(P, Q, X, ms, ns, None, cls.rows)] + [
            (P, Q, X, np.maximum(m, 0), np.maximum(n, 0), None, cls.rows) for m, n in lower
        ]
        included.append([(np.minimum(m, n) >= 0).tolist() for m, n in lower])
    judged = iter(defect_stack_checks(tests, tol, norms))
    for cls, keep in zip(classes, included):
        norm, threshold = (column.tolist() for column in next(judged))
        lower = [next(judged)[0].tolist() for _ in below]
        columns = {key: column.tolist() for key, column in extra(cls).items()}
        for r, row in enumerate(cls.rows.tolist()):
            sharpness = {key: values[r] for key, values, kept in zip(below, lower, keep) if kept[r]}
            witness = sharpness.get(below[0], 0.0) if below else 0.0
            results[row] = _verdict(
                [(name, norm[r], threshold[r])],
                {key: float(values[r]) for key, values in columns.items()},
                sharpness=sharpness, is_sharp=witness > SHARPNESS_FLOOR,
            )


def _thm05_program(trials: list, tol: mc.Tolerance) -> list[TrialResult]:
    """``check_thm05`` of each trial ``(A, B, N1, N2, X, m1, m2)``, stage by stage."""
    results: list[TrialResult] = [None] * len(trials)
    norms: dict = {}
    classes = _classes(trials, "A B N1 N2 X m1 m2", 4)
    classes = _commutator_stage(classes, results, (
        *((f"tuple {name} does not commute", name, None) for name in ("A", "B", "N1", "N2")),
        ("[A, N1] != 0", "A", "N1"), ("[B, N2] != 0", "B", "N2"),
    ), (), tol)
    # the commutators within N1 and N2 passed above, so the orders need no second check
    classes = _nilpotent_stage(classes, results, "A", ("N1", "N2"), False, tol)
    classes = _hypothesis_stage(classes, results, lambda cls: [
        ("base pair violates the combined identity", cls["A"], cls["B"], cls["X"], cls["m1"], cls["m2"]),
    ], tol, norms)

    def derive(cls):
        cls["P"], cls["Q"] = sum_stacks(cls["A"], cls["N1"]), sum_stacks(cls["B"], cls["N2"])
        raised = cls["order_N1"] + cls["order_N2"] - 2
        cls["t1"], cls["t2"] = _degree_column(cls, "m1") + raised, _degree_column(cls, "m2") + raised

    _derived_stage(classes, results, derive)
    _sharp_conclusions(
        classes, results, "perturbed_defect",
        lambda cls: (cls["P"], cls["Q"], cls["X"], cls["t1"], cls["t2"],
                     [(cls["t1"] - 1, cls["t2"]), (cls["t1"], cls["t2"] - 1)]),
        ("below_t1", "below_t2"),
        lambda cls: {"t1": cls["t1"], "t2": cls["t2"], "n1": cls["order_N1"], "n2": cls["order_N2"]},
        tol, norms,
    )
    return results


@_checker
def check_thm05(
    A: OperatorTuple,
    B: OperatorTuple,
    N1: OperatorTuple,
    N2: OperatorTuple,
    X,
    m1: int,
    m2: int,
    tol: mc.Tolerance = mc.DEFAULT_TOL,
) -> TrialResult:
    """Commuting nilpotent perturbations raise both vanishing degrees by n1+n2-2."""
    (result,) = yield _thm05_program, [(A, B, N1, N2, X, m1, m2)]
    return result


def _cor05_program(trials: list, tol: mc.Tolerance) -> list[TrialResult]:
    """``check_cor05`` of each trial ``(A1, B1, A2, B2, N1, N2, X, m1, m2)``, stage by
    stage; the combined defect is a delta stage over every row, then a triangle stage."""
    results: list[TrialResult] = [None] * len(trials)
    norms: dict = {}
    classes = _classes(trials, "A1 B1 A2 B2 N1 N2 X m1 m2", 6)
    names = ("A1,N1", "A2,N1", "B1,N2", "B2,N2", "A1,A2", "B1,B2")
    classes = _commutator_stage(
        classes, results, tuple((f"[{name}] != 0", *name.split(",")) for name in names), ("N1", "N2"), tol
    )
    classes = _nilpotent_stage(classes, results, "A1", ("N1", "N2"), True, tol)
    classes = _hypothesis_stage(classes, results, lambda cls: [
        ("first pair violates its isometric identity", cls["A1"], cls["B1"], cls["X"], cls["m1"], [0] * len(cls.rows)),
        ("second pair violates its symmetric identity", cls["A2"], cls["B2"], cls["X"], [0] * len(cls.rows), cls["m2"]),
    ], tol, norms)

    def derive(cls):
        for P, (A, N) in zip(("P1", "Q1", "P2", "Q2"), (("A1", "N1"), ("B1", "N2"), ("A2", "N1"), ("B2", "N2"))):
            cls[P] = sum_stacks(cls[A], cls[N])
        raised = cls["order_N1"] + cls["order_N2"] - 2
        cls["t1"], cls["t2"] = _degree_column(cls, "m1") + raised, _degree_column(cls, "m2") + raised
        cls["zero"] = np.zeros_like(raised)

    _derived_stage(classes, results, derive)
    judged = iter(defect_stack_checks([
        test for cls in classes for test in (
            (cls["P1"], cls["Q1"], cls["X"], cls["t1"], cls["zero"], None, cls.rows),
            (cls["P2"], cls["Q2"], cls["X"], cls["zero"], cls["t2"], None, cls.rows),
        )
    ], tol, norms))
    for cls in classes:
        (cls["triangle"], cls["triangle threshold"]), (cls["delta"], cls["delta threshold"]) = next(judged), next(judged)
        # the norms both combined scales read are the ones the two zero tests asked for
        cls["iso"], cls["sym"] = tf._growth_factors(
            norms, (cls["P1"], cls["Q1"]), (cls["P2"], cls["Q2"]), cls["t1"].tolist(), cls["t2"].tolist()
        )
    _cor05_combined(classes, results, tol)
    return results


@_in_trial_order
def _cor05_combined(classes: list, results: list, tol: mc.Tolerance) -> None:
    """Each row's cor05 verdict: its two conclusion zero tests, judged already, and the
    combined defect, delta^t2(X) of the second pair (X itself at degree 0, as ``delta``
    gives it) for every row, then its triangle^t1 under the first pair, with the scale
    of both degrees."""
    for cls in classes:
        deltas = tf.stack_defects(cls["P2"], cls["Q2"], cls["X"], cls["zero"], cls["t2"])
        cls["delta^t2"] = np.where((cls["t2"] == 0)[:, None, None], cls["X"], deltas)
    for cls in classes:
        cls["combined"] = tf.stack_defects(cls["P1"], cls["Q1"], cls["delta^t2"], cls["t1"], cls["zero"])
    for cls in classes:
        scales, faults = tf._scales(
            mc.fro_norm_array(cls["X"]).tolist(), cls["iso"], cls["sym"],
            cls["t1"].tolist(), cls["t2"].tolist(),
        )
        if faults:
            raise faults[min(faults)]
        tri, tri_thr, dlt, dlt_thr = (cls[name].tolist() for name in (
            "triangle", "triangle threshold", "delta", "delta threshold"
        ))
        combined = mc.fro_norm_array(cls["combined"]).tolist()
        combined_thr = tol.threshold(np.array(scales)).tolist()
        n1, n2 = cls["order_N1"].tolist(), cls["order_N2"].tolist()
        for r, row in enumerate(cls.rows.tolist()):
            results[row] = _verdict([
                ("triangle_perturbed", tri[r], tri_thr[r]),
                ("delta_perturbed", dlt[r], dlt_thr[r]),
                ("combined_perturbed", combined[r], combined_thr[r]),
            ], {"n1": float(n1[r]), "n2": float(n2[r])})


@_checker
def check_cor05(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """The three perturbation implications for two base pairs sharing the nilpotents."""
    (result,) = yield _cor05_program, [tuple(_args(bundle, "A1 B1 A2 B2 N1 N2 X m1 m2"))]
    return result


def _cor050_program(trials: list, tol: mc.Tolerance) -> list[TrialResult]:
    """``check_cor050`` of each trial ``(T, N, X, m1, m2)``, stage by stage."""
    results: list[TrialResult] = [None] * len(trials)
    norms: dict = {}
    classes = _classes(trials, "T N X m1 m2", 2)
    for cls in classes:
        cls["T*"] = np.conjugate(cls["T"].swapaxes(-1, -2), order="C")
    cross = "[T, N] != 0 or [T*, N] != 0"
    classes = _commutator_stage(
        classes, results, (("T does not commute", "T", None), (cross, "T", "N"), (cross, "T*", "N")), ("N",), tol
    )
    classes = _nilpotent_stage(classes, results, "T", ("N",), True, tol)
    classes = _hypothesis_stage(classes, results, lambda cls: [
        ("base adjoint pair violates the combined identity", cls["T*"], cls["T"], cls["X"], cls["m1"], cls["m2"]),
    ], tol, norms)

    def derive(cls):
        cls["P"], cls["Q"] = sum_stacks(cls["T*"], cls["N"]), sum_stacks(cls["T"], cls["N"])
        raised = 2 * cls["order_N"] - 2
        cls["t1"], cls["t2"] = _degree_column(cls, "m1") + raised, _degree_column(cls, "m2") + raised

    _derived_stage(classes, results, derive)
    tests = [(cls["P"], cls["Q"], cls["X"], cls["t1"], cls["t2"], None, cls.rows) for cls in classes]
    for cls, (norm, threshold) in zip(classes, defect_stack_checks(tests, tol, norms)):
        for row, *values, order in zip(cls.rows.tolist(), norm.tolist(), threshold.tolist(),
                                       cls["order_N"].tolist()):
            results[row] = _verdict([("perturbed_defect", *values)], {"order": float(order)})
    return results


@_checker
def check_cor050(
    T_hilbert: OperatorTuple,
    N: OperatorTuple,
    X,
    m1: int,
    m2: int,
    tol: mc.Tolerance = mc.DEFAULT_TOL,
) -> TrialResult:
    """Adjoint specialization: one nilpotent perturbs both sides, degrees rise by 2n-2."""
    (result,) = yield _cor050_program, [(T_hilbert, N, X, m1, m2)]
    return result


def _thm06_program(trials: list, tol: mc.Tolerance) -> list[TrialResult]:
    """``check_thm06`` of each trial ``(A, B, S, T, X, m, n, r, s)``, stage by stage."""
    results: list[TrialResult] = [None] * len(trials)
    norms: dict = {}
    classes = _classes(trials, "A B S T X m n r s", 4)
    classes = _commutator_stage(classes, results, (
        ("[A,S] != 0", "A", "S"), ("[B,S] != 0", "B", "S"), ("[B,T] != 0", "B", "T")
    ), (), tol)
    classes = _hypothesis_stage(classes, results, lambda cls: [
        (f"hypothesis {pair}_{i}{j} fails", cls[pair[0]], cls[pair[1]], cls["X"], cls[i], cls[j])
        for pair, i, j in (("AB", "m", "n"), ("ST", "r", "s"), ("ST", "r", "n"), ("AB", "m", "s"))
    ], tol, norms)

    def derive(cls):
        cls["P"], cls["Q"] = product_stacks(cls["S"], cls["A"]), product_stacks(cls["T"], cls["B"])
        cls["t1"] = _degree_column(cls, "m") + _degree_column(cls, "r") - 1
        cls["t2"] = _degree_column(cls, "n") + _degree_column(cls, "s") - 1

    _derived_stage(classes, results, derive)
    _sharp_conclusions(
        classes, results, "product_defect",
        lambda cls: (cls["P"], cls["Q"], cls["X"], cls["t1"], cls["t2"], [(cls["t1"] - 1, cls["t2"])]),
        ("below_t1",),
        lambda cls: {"t1": cls["t1"], "t2": cls["t2"]},
        tol, norms,
    )
    return results


@_checker
def check_thm06(
    A: OperatorTuple,
    B: OperatorTuple,
    S: OperatorTuple,
    T: OperatorTuple,
    X,
    m: int,
    n: int,
    r: int,
    s: int,
    tol: mc.Tolerance = mc.DEFAULT_TOL,
) -> TrialResult:
    """Products of cross-commuting defect-annihilated pairs vanish at (m+r-1, n+s-1).

    The hypotheses are the commutation of (A, S), (B, S), (B, T) and the four
    cross-assigned combined defects.
    """
    (result,) = yield _thm06_program, [(A, B, S, T, X, m, n, r, s)]
    return result


def _product_program(trials: list, tol: mc.Tolerance, single: bool) -> list[TrialResult]:
    """``check_cor06`` (or with ``single``, ``check_cor062``) of each trial ``(A, B, S, T,
    X, m, n, kind)``, stage by stage: factor pairs whose defects of one kind vanish at
    degrees m and n make the product pair's vanish at degree m+n-1."""
    results: list[TrialResult] = [None] * len(trials)
    norms: dict = {}
    classes = _classes(trials, "A B S T X m n kind", 4)
    if single:
        classes = _skip_rows(classes, results, [
            None if cls["A"].shape[1] == cls["B"].shape[1] == 1 else
            (np.ones(len(cls.rows), bool), ["A and B must be single operators"] * len(cls.rows), [None] * len(cls.rows))
            for cls in classes
        ])
        cross = "[A, S] != 0 or [B, T] != 0"
        pairs = ((cross, "A", "S"), (cross, "B", "T"))
    else:
        pairs = (("[A,S] != 0", "A", "S"), ("[B,S] != 0", "B", "S"), ("[B,T] != 0", "B", "T"))
    classes = _commutator_stage(classes, results, pairs, (), tol)

    def derive(cls):
        cls["P"], cls["Q"] = product_stacks(cls["A"], cls["S"]), product_stacks(cls["B"], cls["T"])

    _derived_stage(classes, results, derive)
    reason = "a factor violates its identity" if single else "a factor pair violates its identity"
    classes = _hypothesis_stage(classes, results, lambda cls: [
        (reason, cls[P], cls[Q], cls["X"], *_kind_degrees(cls, _degree_column(cls, k)))
        for P, Q, k in (("A", "B", "m"), ("S", "T", "n"))
    ], tol, norms)
    for cls in classes:
        cls["degree"] = _degree_column(cls, "m") + _degree_column(cls, "n") - 1
    _sharp_conclusions(
        classes, results, "product_defect",
        lambda cls: (cls["P"], cls["Q"], cls["X"], *_kind_degrees(cls, cls["degree"]),
                     [] if single else [_kind_degrees(cls, cls["degree"] - 1)]),
        () if single else ("below",),
        lambda cls: {"degree": cls["degree"]},
        tol, norms,
    )
    return results


@_checker
def check_cor06(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Single-kind product implication: both pairs isometric (or both symmetric)."""
    (result,) = yield _cor06_program, [(*_args(bundle, "A B S T X m n"), bundle.params["kind"])]
    return result


@_checker
def check_cor061(
    S: OperatorTuple,
    T: OperatorTuple,
    X,
    m: int,
    n: int,
    tol: mc.Tolerance = mc.DEFAULT_TOL,
) -> TrialResult:
    """Conjugation-twisted product implications for pairs (S*, CSC) and (T*, CTC)."""
    S_star, T_star = adjoint_tuple(S), adjoint_tuple(T)
    CSC, CTC = conj_tuple(S), conj_tuple(T)
    if skip := (yield from _noncommuting(("[S, T] != 0", S, T), ("[S*, CTC] != 0", S_star, CTC))):
        return skip
    prod_star = product_tuple(S_star, T_star)
    prod_conj = conj_tuple(product_tuple(S, T))
    deg = m + n - 1
    kinds = ("iso", "sym")
    # both kinds' hypotheses, then the conclusion of each kind whose hypotheses hold
    hypotheses = yield from _zero_tests(*(
        test
        for kind in kinds
        for test in (
            (f"hyp_{kind}_S", S_star, CSC, X, *_degrees(kind, m)),
            (f"hyp_{kind}_T", T_star, CTC, X, *_degrees(kind, n)),
        )
    ))
    defects = {name: norm for name, norm, _ in hypotheses}
    conclusions = [
        (f"product_defect_{kind}", prod_star, prod_conj, X, *_degrees(kind, deg))
        for kind, pair in zip(kinds, (hypotheses[:2], hypotheses[2:]))
        if all(norm <= threshold for _, norm, threshold in pair)
    ]
    if not conclusions:
        return _skip("neither implication has valid hypotheses", **defects)
    return _verdict((yield from _zero_tests(*conclusions)), defects)


@_checker
def check_cor062(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Single operator times tuple: the product inherits degree m+n-1."""
    (result,) = yield _cor062_program, [(*_args(bundle, "A B S T X m n"), bundle.params["kind"])]
    return result


_cor06_program = functools.partial(_product_program, single=False)
_cor062_program = functools.partial(_product_program, single=True)


@_checker
def check_thm07(
    A: OperatorTuple,
    B: OperatorTuple,
    S: OperatorTuple,
    T: OperatorTuple,
    m: int,
    n: int,
    r: int | None = None,
    s: int | None = None,
    variant: str = "i",
    kind: str = "iso",
    tol: mc.Tolerance = mc.DEFAULT_TOL,
) -> TrialResult:
    """Tensor products of defect-annihilated pairs vanish at the combined degrees."""
    X_a = mc.identity(A.dim)
    X_s = mc.identity(S.dim)
    tensor = (tensor_tuple(A, S), tensor_tuple(B, T), mc.identity(A.dim * S.dim))
    if variant == "i":
        # factor pairs whose defects of one kind vanish at degrees m and n make the
        # tensor pair's vanish at degree m+n-1
        reason = "a factor pair violates its identity"
        if skip := (yield from _failed_hypothesis(
            (reason, A, B, X_a, *_degrees(kind, m)), (reason, S, T, X_s, *_degrees(kind, n))
        )):
            return skip
        deg = m + n - 1
        return _verdict(
            (yield from _zero_tests(("tensor_defect", *tensor, *_degrees(kind, deg)))),
            {"degree": float(deg)},
        )

    if variant != "ii":
        raise InvalidArgumentError(f"variant must be 'i' or 'ii', got {variant!r}")
    if r is None or s is None:
        raise InvalidArgumentError("variant ii needs r and s")
    if skip := (yield from _failed_hypothesis(
        ("first pair violates the combined identity", A, B, X_a, m, n),
        ("second pair violates its identities", S, T, X_s, r, 0),
        ("second pair violates its identities", S, T, X_s, 0, s),
    )):
        return skip
    t1, t2 = m + r - 1, n + s - 1
    return _verdict(
        (yield from _zero_tests(("tensor_defect", *tensor, t1, t2))),
        {"t1": float(t1), "t2": float(t2)},
    )


#: The frozen matrices of the mixing example, as JSON matrix literals: S* A0 S,
#: S*^2 A0 S^2 and the degree-2 defect of (S*, S) at A0.
GOLDEN_MATRICES = {
    "S_A0_S": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]],
    "S2_A0_S2": [[[1, 0], [1, -1]], [[1, 1], [2, 0]]],
    "triangle2_S": [[[-1, 0], [-1, -1]], [[-1, 1], [1, 0]]],
}


def golden_suite(golden: dict | None = None, tol_abs: float = 1e-12) -> list[dict]:
    """Every frozen value of the built-in 2x2 examples, as named checks.

    Each check is ``{"name", "max_abs_diff", "passed"}``; it passes when the
    difference is at most ``tol_abs``, or 1e-9 for the two relative checks
    over degrees 1..6.  ``golden`` overrides entries of ``GOLDEN_MATRICES``.
    """
    golden = {**GOLDEN_MATRICES, **(golden or {})}
    T, A0, U, S = paper_example_mixing()
    pair_t = (OperatorTuple.of(mc.adjoint(T)), OperatorTuple.of(T))
    pair_s = (OperatorTuple.of(mc.adjoint(S)), OperatorTuple.of(S))
    A_sq, B_sq = paper_example_squares()
    eye = mc.identity(2)
    checks = []

    def add(name, diff, limit=tol_abs):
        checks.append({"name": name, "max_abs_diff": float(diff), "passed": bool(diff <= limit)})

    def expected(key):
        return mc.matrix_from_json(golden[key])

    add("mixing/triangle2_T_zero", mc.fro_norm(tf.triangle(*pair_t, A0, 2)))
    add("mixing/S_A0_S", mc.max_abs_diff(mc.adjoint(S) @ A0 @ S, expected("S_A0_S")))
    add(
        "mixing/S2_A0_S2",
        mc.max_abs_diff(mc.adjoint(S) @ mc.adjoint(S) @ A0 @ S @ S, expected("S2_A0_S2")),
    )
    tri_s = tf.triangle(*pair_s, A0, 2)
    add("mixing/triangle2_S_value", mc.max_abs_diff(tri_s, expected("triangle2_S")))
    add("mixing/triangle2_S_norm_gt_1", 0.0 if mc.fro_norm(tri_s) > 1.0 else 1.0)

    def worst_relative(A, B, factor):
        # max over degrees 1..6 of the defect's distance from factor^m I, relative to factor^m
        return max(
            mc.max_abs_diff(tf.triangle(A, B, eye, m), factor**m * eye) / abs(factor**m)
            for m in range(1, 7)
        )

    add("squares/base_1_isometric", mc.fro_norm(tf.triangle(A_sq, B_sq, eye, 1)))
    inverse = (inverse_tuple(A_sq), inverse_tuple(B_sq))
    add("squares/inverse_growth_(-3)^m", worst_relative(*inverse, -3.0), limit=1e-9)
    word = [power_tuple(P, 2, PowerConvention.WORD) for P in (A_sq, B_sq)]
    add("squares/word_square_1_isometric", mc.fro_norm(tf.triangle(*word, eye, 1)))
    comp = [power_tuple(P, 2, PowerConvention.COMPONENTWISE) for P in (A_sq, B_sq)]
    add("squares/componentwise_square_2^-m", worst_relative(*comp, 2.0**-1), limit=1e-9)
    return checks


def check_ex00_golden(tol_abs: float = 1e-12) -> TrialResult:
    """Reproduce every frozen value of the built-in 2x2 examples (``golden_suite``).

    Passes only if every check passes; ``defects`` maps each check to its difference.
    """
    checks = golden_suite(tol_abs=tol_abs)
    failed = [c for c in checks if not c["passed"]]
    return TrialResult(
        status="counterexample" if failed else "pass",
        reason=", ".join(f"{c['name']} mismatch {c['max_abs_diff']:.3e}" for c in failed),
        defects={c["name"]: c["max_abs_diff"] for c in checks},
    )


# ---------------------------------------------------------------------------
# the theorem registry


@dataclass(frozen=True)
class Theorem:
    """One campaign id: the generator profile of its instances, ``body(bundle, tol,
    t_max)``, the checker body that tests one instance, and ``pair(bundle)``, the
    (A, B, X) whose defect profile a counterexample record carries."""

    profile: str
    body: Callable[[InstanceBundle, mc.Tolerance, int], Generator]
    pair: Callable[[InstanceBundle], tuple[OperatorTuple, OperatorTuple, np.ndarray]]

    def check(self, bundle: InstanceBundle, tol: mc.Tolerance, t_max: int) -> TrialResult:
        """The result of one instance, its body driven alone."""
        return _alone(self.body(bundle, tol, t_max), tol)


def _pair(names: str = "A B X"):
    return lambda bundle: tuple(_args(bundle, names))


def _adjoint_pair(key: str):
    return lambda bundle: (adjoint_tuple(bundle.tuples[key]), *_args(bundle, f"{key} X"))


def _thm07_body(bundle: InstanceBundle, tol: mc.Tolerance, t_max: int) -> Generator:
    p = bundle.params
    return check_thm07.body(
        *_args(bundle, "A B S T m n"),
        r=int(p["r"]) if "r" in p else None,
        s=int(p["s"]) if "s" in p else None,
        variant=str(p["variant"]),
        kind=str(p.get("kind", "iso")),
        tol=tol,
    )


#: The registry, one entry per theorem id, in campaign order, with the body of
#: each ``check_*`` on a generated bundle.
THEOREMS = {
    "pro01": Theorem("pro01", lambda b, tol, t_max: check_pro01.body(b, t_max, tol), _pair()),
    "pro02": Theorem("pro02-family", lambda b, tol, _: check_pro02.body(b, tol), _pair("A0 B0 X")),
    "pro03": Theorem("pro03", lambda b, tol, _: check_pro03.body(b, tol=tol), _pair()),
    "pro04": Theorem(
        "pro04", lambda b, tol, _: check_pro04.body(*_args(b, "A"), tol), _adjoint_pair("A")
    ),
    "pro5": Theorem(
        "pro5", lambda b, tol, _: check_pro5.body(*_args(b, "A m_even"), tol), _adjoint_pair("A")
    ),
    "thm05": Theorem(
        "thm05", lambda b, tol, _: check_thm05.body(*_args(b, "A B N1 N2 X m1 m2"), tol), _pair()
    ),
    "cor05": Theorem("cor05", lambda b, tol, _: check_cor05.body(b, tol), _pair("A1 B1 X")),
    "cor050": Theorem(
        "cor050",
        lambda b, tol, _: check_cor050.body(*_args(b, "T N X m1 m2"), tol),
        _adjoint_pair("T"),
    ),
    "thm06": Theorem(
        "thm06", lambda b, tol, _: check_thm06.body(*_args(b, "A B S T X m n r s"), tol), _pair()
    ),
    "cor06": Theorem("cor06", lambda b, tol, _: check_cor06.body(b, tol), _pair()),
    "cor061": Theorem(
        "cor061",
        lambda b, tol, _: check_cor061.body(*_args(b, "S T X m n"), tol),
        lambda b: (adjoint_tuple(b.tuples["S"]), conj_tuple(b.tuples["S"]), b.matrices["X"]),
    ),
    "cor062": Theorem("cor062", lambda b, tol, _: check_cor062.body(b, tol), _pair()),
    "thm07": Theorem(
        "thm07", _thm07_body, lambda b: (*_args(b, "A B"), mc.identity(b.tuples["A"].dim))
    ),
}

THEOREM_IDS = tuple(THEOREMS)
CAMPAIGN_IDS = THEOREM_IDS + ("ex00-golden",)


# ---------------------------------------------------------------------------
# campaign runner


@dataclass(frozen=True)
class CampaignConfig:
    theorem_id: str
    trials: int
    seed: int = 0
    seeds: tuple[int, ...] | None = None
    tol: mc.Tolerance = mc.DEFAULT_TOL
    budget_s: float | None = None
    t_max: int = 200  # pro01 only

    def __post_init__(self):
        if self.theorem_id not in CAMPAIGN_IDS:
            raise InvalidArgumentError(
                f"unknown theorem id {self.theorem_id!r}; expected one of {CAMPAIGN_IDS}"
            )
        if self.trials < 0:
            raise InvalidArgumentError("trials must be non-negative")
        # each trial seed seeds NumPy's generator, which refuses a negative one
        negative = [seed for seed in (self.seed, *(self.seeds or ())) if seed < 0]
        if negative:
            raise InvalidArgumentError(f"seed must be non-negative, got {negative[0]}")
        # a NaN deadline never passes, so it would silently mean "no budget", and
        # a negative one has passed before the first trial
        if self.budget_s is not None and not self.budget_s >= 0:
            what = "a number of seconds" if math.isnan(self.budget_s) else "non-negative"
            raise InvalidArgumentError(f"budget must be {what}, got {self.budget_s:g}")

    def trial_seeds(self) -> tuple[int, ...]:
        if self.seeds is not None:
            return tuple(self.seeds)[: self.trials]
        return tuple(self.seed + i for i in range(self.trials))


@dataclass(frozen=True)
class CampaignReport:
    """Aggregated pass/fail/counterexample record for a randomized check campaign.

    ``trials`` counts evaluated (non-skipped) trials, so that
    passes + len(counterexamples) + tolerance_anomalies == trials holds;
    skipped trials are tracked separately and never count against an identity.
    """

    theorem_id: str
    requested_trials: int
    trials: int
    passes: int
    tolerance_anomalies: int
    skipped: int
    counterexamples: tuple[dict, ...]
    sharpness_witnesses: tuple[dict, ...]
    max_defect: float
    seeds: tuple[int, ...]
    budget_exceeded: bool
    wall_time: float

    def __post_init__(self):
        if self.passes + len(self.counterexamples) + self.tolerance_anomalies != self.trials:
            raise InvalidArgumentError(
                "report invariant violated: passes + counterexamples + anomalies != trials"
            )

    def to_json(self) -> dict:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "theorem_id": self.theorem_id,
            "requested_trials": self.requested_trials,
            "trials": self.trials,
            "passes": self.passes,
            "tolerance_anomalies": self.tolerance_anomalies,
            "skipped": self.skipped,
            "counterexamples": list(self.counterexamples),
            "sharpness_witnesses": list(self.sharpness_witnesses),
            "max_defect": self.max_defect,
            "seeds": list(self.seeds),
            "budget_exceeded": self.budget_exceeded,
            "timestamp": {
                "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
                "wall_time_s": self.wall_time,
            },
        }

    @staticmethod
    def csv_header() -> str:
        return "theorem_id,trials,passes,anomalies,max_defect"

    def to_csv_row(self) -> str:
        return (
            f"{self.theorem_id},{self.trials},{self.passes},"
            f"{self.tolerance_anomalies},{self.max_defect:.6e}"
        )


#: Trials a campaign without a budget runs in lock-step at a time; the cap keeps
#: the memory of a chunk flat however many trials the campaign has.
LOCKSTEP_TRIALS = 64


def _run_chunk(
    theorem_id: str, seeds: tuple[int, ...], tol: mc.Tolerance, t_max: int
) -> list[tuple[TrialResult, InstanceBundle]]:
    """The result and the instance of each seed: the instances are generated together
    (``random_instances``), and all their checker bodies run in lock-step."""
    entry = THEOREMS[theorem_id]
    bundles = random_instances(entry.profile, seeds)
    return list(zip(_lockstep([entry.body(b, tol, t_max) for b in bundles], tol), bundles))


def _counterexample_record(
    trial: int, seed: int, result: TrialResult, bundle: InstanceBundle | None,
    entry: Theorem | None, tol: mc.Tolerance,
) -> dict:
    """A counterexample's inputs and defects; a generated one also carries the
    defect profile, judged at the campaign's tolerance, of the pair ``entry`` tests."""
    record = {
        "trial": trial,
        "seed": seed,
        "reason": result.reason,
        "defects": {k: float(v) for k, v in result.defects.items()},
    }
    if bundle is not None:
        record["bundle"] = bundle.to_json()
        profile = classify.defect_profile(*entry.pair(bundle), k_max=12, tol=tol)
        record["defect_profile"] = profile.to_json()
    return record


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run the configured checks; deterministic given the seeds (modulo wall time).

    Trials run in chunks of up to ``LOCKSTEP_TRIALS`` seeds, whose instances are
    generated together and whose checks advance in lock-step (``_lockstep``),
    with the bits each trial gives alone.  A
    budgeted campaign runs chunks of one trial and checks the budget before
    each, so it stops within one trial of its deadline and its report covers
    a prefix of the seeds.  The golden check takes no seed, so it runs once,
    on the first trial, and its result stands for every later one.
    """
    start = time.monotonic()
    deadline = None if config.budget_s is None else start + config.budget_s
    seeds = config.trial_seeds()
    size = LOCKSTEP_TRIALS if deadline is None else 1
    results: list[tuple[TrialResult, InstanceBundle | None]] = []
    budget_exceeded = False
    golden: TrialResult | None = None
    for first in range(0, len(seeds), size):
        if deadline is not None and time.monotonic() > deadline:
            budget_exceeded = True
            break
        chunk = seeds[first : first + size]
        if config.theorem_id == "ex00-golden":
            if golden is None:
                golden = check_ex00_golden()
            results += [(golden, None)] * len(chunk)
        else:
            results += _run_chunk(config.theorem_id, chunk, config.tol, config.t_max)

    counts = Counter(result.status for result, _ in results)
    entry = THEOREMS.get(config.theorem_id)
    counterexamples = tuple(
        _counterexample_record(i, seeds[i], result, bundle, entry, config.tol)
        for i, (result, bundle) in enumerate(results)
        if result.status == "counterexample"
    )
    witnesses = tuple(
        {"trial": i, "seed": seeds[i], "sharpness": dict(result.sharpness)}
        for i, (result, _) in enumerate(results)
        if result.is_sharp
    )
    # a skipped trial judged no conclusion
    concluded = [result.conclusion for result, _ in results if result.status != "skip"]
    return CampaignReport(
        theorem_id=config.theorem_id,
        requested_trials=config.trials,
        trials=len(results) - counts["skip"],
        passes=counts["pass"],
        tolerance_anomalies=counts["anomaly"],
        skipped=counts["skip"],
        counterexamples=counterexamples,
        sharpness_witnesses=witnesses,
        max_defect=max([0.0, *concluded]),
        seeds=seeds,
        budget_exceeded=budget_exceeded,
        wall_time=time.monotonic() - start,
    )


def report_to_json_str(report: CampaignReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True, indent=2)
