"""Identity-level checkers and randomized campaigns.

Each built-in check tests, in order, the commutators of its instance, its
hypothesis defects and its conclusions at the derived degrees (``_verdict``);
pro01-pro03 judge bespoke bounds of their own.  A failed commutator or
hypothesis skips the trial (an invalid instance never refutes an identity).
Conclusion failures inside a small gray band above the threshold count as
tolerance anomalies; decisive failures are serialized as counterexamples
with full inputs and a defect profile for post-mortem.

Each theorem is one column program, ``program(bundles, tol, t_max)``: a
campaign runs it on a chunk of up to ``LOCKSTEP_TRIALS`` instances generated
together (``generators.random_instances``), and ``check_*`` and
``Theorem.check`` are its batch of one.  A program splits its trials into
classes of one shape (``_Columns``), stacks each argument over a class's
rows, and runs the check's stages in the order the check is written, each
one stack-kernel call for the live rows of every class: commutators
(``tuples.commutator_stack_checks``), nilpotency orders
(``tuples.nilpotency_stack_orders``), hypotheses and conclusions
(``transforms.defect_stack_checks``, where ragged tests such as pro01's
degrees 0..m are items on repeated rows).  A skip is a row mask and a
derived tuple a stacked expression.  pro01's Cesaro runs step a class's
stacks from X (``transforms._cesaro_run``); per-trial work with no stack
kernel, such as pro01's superoperator spectrum, runs row by row.

Every kernel gives each item the bits it gets alone, so a trial's result
does not depend on the trials beside it.  With several refused trials in a
chunk, the first refusing stage raises what its earliest refusing trial
raises: zero tests are keyed by trial position, row-by-row work runs in
trial order, and any other refused stage runs again one trial at a time
(``_in_trial_order``).  The bespoke thresholds (pro01's collapse test,
pro02's limit, pro03's right-hand side and cor05's combined scale) read the
spectral norms that their zero tests asked for, from the zero-test kernel's
norm table.

Campaign reports are deterministic functions of (theorem_id, seeds,
tolerance); wall-clock data lives in the ``timestamp`` envelope of the JSON
so two runs with the same seed are byte-identical outside that field.
"""

from __future__ import annotations

import functools
import json
import math
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field, replace

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
    commutator_stack_checks,
    conj_tuple,
    inverse_tuple,
    nilpotency_stack_orders,
    power_tuple,
    product_stacks,
    stack_sums,
    sum_stacks,
    tensor_stacks,
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


def _bundle(**args) -> InstanceBundle:
    """A check's arguments as the bundle its program reads: its tuples, its X and its
    parameters, by name."""
    tuples = {name: value for name, value in args.items() if isinstance(value, OperatorTuple)}
    matrices = {"X": args.pop("X")} if "X" in args else {}
    params = {name: value for name, value in args.items() if name not in tuples}
    return InstanceBundle("", 0, tuples, matrices, params)


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


def _classes(bundles: list, names: str, tuples: int, by: str = "") -> list[_Columns]:
    """The bundles' arguments ``names``, the tuples first, read by name from each bundle's
    tuples, matrices and parameters (None for a parameter it lacks), in classes of one
    shape of the tuples' stacks and of X, and of one value of each parameter named in
    ``by``, in order of their first trial."""
    names = names.split()
    trials, by_key = [], {}
    for row, bundle in enumerate(bundles):
        found = {**bundle.params, **bundle.matrices, **bundle.tuples}
        args = [found.get(name) for name in names]
        X = found.get("X")
        shape = X.shape if isinstance(X, np.ndarray) else id(X)
        key = (*[T.stack.shape for T in args[:tuples]], shape, *[found.get(name) for name in by.split()])
        by_key.setdefault(key, []).append(row)
        trials.append(args)
    return [
        _Columns(np.array(rows), {name: [trials[r][i] for r in rows] for i, name in enumerate(names)})
        for rows in by_key.values()
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


def _trial_order(classes: list) -> list[tuple[int, _Columns, int]]:
    """``(row, class, r)`` of every live trial, r its index in its class, by position."""
    return sorted(((row, k, r) for k, cls in enumerate(classes) for r, row in enumerate(cls.rows.tolist())))


def _in_trial_order(stage):
    """A stage ``stage(classes, results, *args)`` that, when some trial refuses it, raises
    what the first trial by position in the batch that refuses it alone raises.  Only
    a refused stage runs again, each trial alone, on scratch results."""

    @functools.wraps(stage)
    def run(classes: list, results: list, *args):
        try:
            return stage(classes, results, *args)
        except InvalidArgumentError:
            trials = _trial_order(classes)
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
    within S when T is None, else every [S_i, T_j].  The commutators within each tuple
    named in ``kept`` are judged too, and kept for a later stage as the columns
    ``commutes <name>`` and ``residual <name>``.  A class's queries of one kind and
    shapes are one query, and every class's queries go to one
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
    as ``tuples.nilpotency_order`` refuses it, in order of the rows and then the names."""
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
    """Skip each row at the first hypothesis whose zero test fails, with its norm as the
    residual: ``hypotheses(cls)`` lists each ``(reason, A, B, X, ms, ns)`` of a class,
    and every class's tests go to one ``defect_stack_checks`` call, keyed by the rows'
    positions in the batch."""
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


def _kind_degrees(kinds: list, degrees) -> tuple[list, list]:
    """(ms, ns) of each row's degree k of its kind: (k, 0) for "iso", else (0, k)."""
    degrees = degrees.tolist() if isinstance(degrees, np.ndarray) else degrees
    iso = [kind == "iso" for kind in kinds]
    return [k if i else 0 for i, k in zip(iso, degrees)], [0 if i else k for i, k in zip(iso, degrees)]


def _by_row(judged: tuple, counts: list) -> list[list]:
    """Each row's ``(norm, threshold)`` of the items of a zero test, ``counts[r]`` items for
    row r after those of the rows before it."""
    items, ends = list(zip(*(column.tolist() for column in judged))), np.cumsum(counts).tolist()
    return [items[end - count : end] for count, end in zip(counts, ends)]


def _identities(cls: _Columns, name: str) -> np.ndarray:
    """The (b, n, n) stack of identities of the dimension of the class's tuple ``name``."""
    return np.repeat(mc.identity(cls[name].shape[-1])[None], len(cls.rows), axis=0)


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


def _pro01_program(bundles: list, tol: mc.Tolerance, t_max: int) -> list[TrialResult]:
    """``check_pro01`` of each bundle, stage by stage: the zero tests of degree m and of
    degrees 0..m-1 (items on repeated rows), one Cesaro run of each class's stacks,
    then each trial's collapse test on the spectrum of its sigma superoperator."""
    results: list[TrialResult] = [None] * len(bundles)
    classes, tests = _classes(bundles, "A B X m", 2), []
    for cls in classes:
        cls["m"] = ms = _degree_column(cls, "m").tolist()
        own = [r for r, m in enumerate(ms) for _ in range(m)]  # the row of each lower degree
        tests += [(cls["A"], cls["B"], cls["X"], ms, [0] * len(ms), None, cls.rows),
                  (cls["A"], cls["B"], cls["X"], [j for m in ms for j in range(m)], [0] * len(own), own, cls.rows[own])]
    judged, live = iter(defect_stack_checks(tests, tol, {})), []
    for cls in classes:
        (norm, threshold), lower = next(judged), next(judged)
        cls["threshold"], cls["lower"] = threshold.tolist(), _by_row(lower, cls["m"])
        failed = norm > threshold
        for r in np.flatnonzero(failed).tolist():
            results[cls.rows[r]] = _skip(f"not (X,{cls['m'][r]})-isometric", isometry_defect=norm[r].item())
        if (cls := cls.keep(~failed)) is not None:
            live.append(cls)
    for _, k, r in _trial_order(live):  # refused before any run, in trial order
        tf._require_cesaro_degrees(live[k]["m"][r], t_max)
    _cesaro_stage(live, results, t_max)
    for cls in live:
        for r, row in enumerate(cls.rows.tolist()):
            m, lower = cls["m"][r], cls["lower"][r]
            e_final = mc.fro_norm(cls["sigma^t_max"][r] / tf.binomial(t_max, m - 1) - cls["reference"][r])
            bound = 5.0 * max(norm for norm, _ in lower) * (m - 1) / t_max + cls["threshold"][r]
            sig_hat = tf.superop_matrix(bundles[row].tuples["A"], bundles[row].tuples["B"], "sigma")
            eigs = np.linalg.eigvals(sig_hat)
            normality = mc.fro_norm(sig_hat @ sig_hat.conj().T - sig_hat.conj().T @ sig_hat)
            invertible = bool(np.min(np.abs(eigs)) > 1e-6)
            unitary_like = invertible and normality <= 1e-8 * max(
                mc.fro_norm(sig_hat) ** 2, 1.0
            ) and bool(np.min(np.abs(eigs)) >= 1.0 - 1e-8)
            checks = [("collapse_defect", *lower[m - 1])] if unitary_like else []
            results[row] = _verdict(checks + [("cesaro_error", e_final, bound)],
                                    {"t_max": float(t_max), "sigma_invertible": float(invertible)})
    return results


@_in_trial_order
def _cesaro_stage(classes: list, results: list, t_max: int) -> list:
    """Give each class the columns ``sigma^t_max`` and ``reference`` (triangle^(m-1)(X)) of
    its rows' Cesaro runs, from one run of its stacks from X."""
    for cls in classes:
        for _, last, reference in tf._cesaro_run(cls["A"], cls["B"], cls["X"], cls["m"], t_max):
            pass
        cls["sigma^t_max"], cls["reference"] = last, reference
    return classes


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
    """
    return _pro01_program([bundle], tol, t_max)[0]


def _pro02_program(bundles: list, tol: mc.Tolerance, t_max: int) -> list[TrialResult]:
    """``check_pro02`` of each bundle, stage by stage: each trial's convergence residuals,
    in trial order, then the zero tests of every family member (items of one stack of
    the members of a class's rows) and of the limit, then each trial's verdict."""
    convergence = []  # each member's largest componentwise distance from the limit
    for bundle in bundles:
        T = bundle.tuples
        lim = np.concatenate([T["A_limit"].stack, T["B_limit"].stack])
        conv = [max(mc.fro_norm_array(np.concatenate([T[f"A{j}"].stack, T[f"B{j}"].stack]) - lim).tolist())
                for j in range(int(bundle.params["members"]))]
        if any(conv[i + 1] > conv[i] + tol.abs_eps for i in range(len(conv) - 1)):
            raise InvalidArgumentError("family does not converge: residuals are not decreasing")
        convergence.append(conv)
    results: list[TrialResult] = [None] * len(bundles)
    classes, tests, norms = _classes(bundles, "A_limit B_limit X m1 m2 kind members", 2), [], {}
    for cls in classes:
        m1, m2, counts = (_degree_column(cls, name).tolist() for name in ("m1", "m2", "members"))
        cls["m1"], cls["m2"], cls["members"] = m1, m2, counts
        degrees = [(m, 0) if kind == "triangle" else (0, n) for m, n, kind in zip(m1, m2, cls["kind"])]
        own = [r for r, count in enumerate(counts) for _ in range(count)]  # the row of each member
        A, B = (np.stack([bundles[row].tuples[f"{side}{j}"].stack
                          for row, count in zip(cls.rows.tolist(), counts) for j in range(count)]) for side in "AB")
        tests += [(A, B, cls["X"][own], [degrees[r][0] for r in own], [degrees[r][1] for r in own], None, cls.rows[own]),
                  (cls["A_limit"], cls["B_limit"], cls["X"], m1, m2, None, cls.rows)]
    judged = iter(defect_stack_checks(tests, tol, norms))
    for cls in classes:
        members, norm_lim = _by_row(next(judged), cls["members"]), next(judged)[0].tolist()
        m1, m2, limit = cls["m1"], cls["m2"], (cls["A_limit"], cls["B_limit"])
        # the limit's scale reads the norms that its zero test asked for
        scales, _ = tf._scales(mc.fro_norm_array(cls["X"]).tolist(), *tf._growth_factors(norms, limit, limit, m1, m2),
                               m1, m2)
        for r, row in enumerate(cls.rows.tolist()):
            (first_norm, first_threshold), *later = members[r]
            if first_norm > first_threshold:
                results[row] = _skip("first family member violates its identity", member_defect=first_norm)
                continue
            # later members drifting off the identity refute the closure claim; each
            # counts only once the one before it passed
            for j, (norm_j, threshold_j) in enumerate(later, start=1):
                if (verdict := _judge(norm_j, threshold_j)) != "pass":
                    results[row] = TrialResult(
                        status=verdict, reason=f"member {j} defect drifted to {norm_j:.3e}",
                        defects={"member_index": float(j), "member_defect": norm_j}, conclusion=norm_j,
                    )
                    break
            else:
                # convergence slack: the defect is Lipschitz in the tuple within a factor
                # of the degree times the scale, applied to the last residual
                last = convergence[row][-1]
                threshold = tol.threshold(scales[r]) + 10.0 * (m1[r] + m2[r]) * last * scales[r]
                results[row] = _verdict([("limit_defect", norm_lim[r], threshold)], {"last_residual": last})
    return results


def check_pro02(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Norm-limits of defect-annihilated families keep the combined identity.

    The first family member must satisfy its declared identity (hypothesis);
    the member sequence must converge in norm to the declared limit.  A limit
    that decisively fails while the first member passed is a counterexample
    (a drifting family), not a skip.  Every member's test and the limit's
    are evaluated together, so their scales come from one LAPACK call.
    """
    return _pro02_program([bundle], tol, 0)[0]


def _pro03_program(bundles: list, tol: mc.Tolerance, t_max: int) -> list[TrialResult]:
    """``check_pro03`` of each bundle at its degree m, stage by stage: the zero tests of
    the first d-1 one-component pairs (items on a stack of every component pair of a
    class's rows), of the full pair and, for part (b), of the last pair, then each
    trial's verdict in trial order, part (a)'s right-hand side formed row by row."""
    results: list[TrialResult] = [None] * len(bundles)
    classes = _classes(bundles, "A B X m part", 2)
    classes = _skip_rows(classes, results, [
        (np.ones(len(cls.rows), bool), ["reduction needs d >= 2"] * len(cls.rows), [None] * len(cls.rows))
        if cls["A"].shape[1] < 2 else None for cls in classes
    ])
    tests, norms = [], {}
    for cls in classes:
        b, d, n = cls["A"].shape[:3]
        cls["kind"] = kinds = ["iso" if part in ("a", None) else "sym" for part in cls["part"]]
        A1, B1 = (cls[name].reshape(b * d, 1, n, n) for name in "AB")  # row r * d + i: pair i of row r
        X1 = np.repeat(cls["X"], d, axis=0)
        own = np.repeat(np.arange(b), d - 1)  # the row of each hypothesis
        sym = [r for r in range(b) if kinds[r] == "sym"]
        tests += [
            (A1, B1, X1, *_kind_degrees([kinds[r] for r in own], [1] * len(own)),
             [r * d + i for r in range(b) for i in range(d - 1)], cls.rows[own]),
            (cls["A"], cls["B"], cls["X"], *_kind_degrees(kinds, cls["m"]), None, cls.rows),
            (A1, B1, X1, [0] * len(sym), [cls["m"][r] for r in sym], [r * d + d - 1 for r in sym], cls.rows[sym]),
        ]
    judged = iter(defect_stack_checks(tests, tol, norms))
    for cls in classes:
        b, d = cls["A"].shape[:2]
        cls["hypotheses"] = _by_row(next(judged), [d - 1] * b)
        cls["lhs"] = list(zip(*(column.tolist() for column in next(judged))))
        rhs = iter(zip(*(column.tolist() for column in next(judged))))  # of the rows of part (b)
        cls["rhs"] = [next(rhs) if kind == "sym" else None for kind in cls["kind"]]
    for row, k, r in _trial_order(classes):
        cls = classes[k]
        d = cls["A"].shape[1]
        # each pair counts only once the one before it passed
        failed = next(((i, norm) for i, (norm, threshold) in enumerate(cls["hypotheses"][r]) if norm > threshold), None)
        if failed is not None:
            results[row] = _skip(f"pair {failed[0]} is not degree-1 annihilating", residual=failed[1])
            continue
        (lhs_norm, lhs_thr), m, X = cls["lhs"][r], cls["m"][r], cls["X"][r]
        if cls["kind"][r] == "sym":
            rhs_norm, rhs_thr = cls["rhs"][r]
        else:
            # sum_j C(m, j) (d-2)^(m-j) A_d^j X B_d^j, the terms added in order onto zero
            coeffs = [tf.binomial(m, j) * float((d - 2) ** (m - j)) for j in range(m + 1)]
            terms = np.array(coeffs)[:, None, None] * (
                mc.matrix_powers(cls["A"][r, -1], m) @ X @ mc.matrix_powers(cls["B"][r, -1], m)
            )
            rhs_norm = mc.fro_norm(mc.ordered_sum(terms))
            # the last components' norms, which the full pair's zero test asked for
            a_last, b_last = (tf._component_norms(norms, cls[name])[r, -1].item() for name in "AB")
            rhs_thr = tol.threshold(tf.grown_scale(mc.fro_norm(X), 1.0 + abs(d - 2) + a_last * b_last, m))
        lhs_pass, rhs_pass = lhs_norm <= lhs_thr, rhs_norm <= rhs_thr
        defects = {"lhs_defect": lhs_norm, "rhs_defect": rhs_norm, "lhs_threshold": lhs_thr, "rhs_threshold": rhs_thr}
        # the equivalence claims neither side is zero, so only a side that passed is a conclusion
        sides = ((lhs_norm, lhs_pass), (rhs_norm, rhs_pass))
        conclusion = max([norm for norm, passed in sides if passed], default=0.0)
        if lhs_pass == rhs_pass:
            results[row] = TrialResult(status="pass", defects=defects, conclusion=conclusion)
            continue
        # disagreement within the gray band of either side is an anomaly
        gray = (lhs_thr <= lhs_norm <= ANOMALY_BAND * lhs_thr) or (rhs_thr <= rhs_norm <= ANOMALY_BAND * rhs_thr)
        results[row] = TrialResult(
            status="anomaly" if gray else "counterexample",
            reason=f"equivalence broken: lhs_pass={lhs_pass}, rhs_pass={rhs_pass}",
            defects=defects, conclusion=conclusion,
        )
    return results


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
    params = {**bundle.params, "m": int(bundle.params["m"]) if m is None else m}
    return _pro03_program([replace(bundle, params=params)], tol, 0)[0]


def _adjoint_program(bundles: list, tol: mc.Tolerance, t_max: int, even: bool) -> list[TrialResult]:
    """``check_pro04`` (or with ``even``, ``check_pro5``) of each trial ``(A, m_even)``,
    stage by stage: the symmetric hypothesis of the adjoint pair (A*, A) at I, of degree
    2 (or m_even), then its self-adjoint component sum (or its odd degree below)."""
    if even:
        for bundle in bundles:  # refused before any stage, in trial order
            m_even = bundle.params["m_even"]
            if not isinstance(m_even, int) or m_even < 2 or m_even % 2 != 0:
                raise InvalidArgumentError(f"m must be a positive even integer, got {m_even!r}")
    results: list[TrialResult] = [None] * len(bundles)
    norms: dict = {}
    classes = _classes(bundles, "A m_even", 1, by="m_even")
    for cls in classes:
        cls["A*"] = np.conjugate(cls["A"].swapaxes(-1, -2), order="C")
        cls["I"] = _identities(cls, "A")
        cls["zero"] = [0] * len(cls.rows)
    degree = (lambda cls: cls["m_even"]) if even else (lambda cls: [2] * len(cls.rows))
    classes = _hypothesis_stage(classes, results, lambda cls: [(
        f"adjoint pair is not (I,{degree(cls)[0]})-symmetric", cls["A*"], cls["A"], cls["I"], cls["zero"], degree(cls),
    )], tol, norms)
    if even:
        _sharp_conclusions(
            classes, results, "odd_degree_defect",
            lambda cls: (cls["A*"], cls["A"], cls["I"], cls["zero"], [m - 1 for m in cls["m_even"]], []),
            (), lambda cls: {}, tol, norms,
        )
        return results
    for cls in classes:
        s = stack_sums(cls["A"])
        residuals = mc.fro_norm_array(s - np.conjugate(s.swapaxes(-1, -2))).tolist()
        thresholds = tol.threshold(mc.fro_norm_array(s)).tolist()
        for row, residual, threshold in zip(cls.rows.tolist(), residuals, thresholds):
            results[row] = _verdict([("selfadjoint_residual", residual, threshold)])
    return results


_pro04_program = functools.partial(_adjoint_program, even=False)
_pro5_program = functools.partial(_adjoint_program, even=True)


def check_pro04(A_hilbert: OperatorTuple, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Degree-2 symmetry of the adjoint pair at I forces a self-adjoint component sum."""
    return _pro04_program([_bundle(A=A_hilbert)], tol, 0)[0]


def check_pro5(
    A_hilbert: OperatorTuple, m_even: int, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> TrialResult:
    """Even symmetric degree of the adjoint pair at I collapses to the odd degree below."""
    return _pro5_program([_bundle(A=A_hilbert, m_even=m_even)], tol, 0)[0]


def _thm05_program(bundles: list, tol: mc.Tolerance, t_max: int) -> list[TrialResult]:
    """``check_thm05`` of each bundle ``(A, B, N1, N2, X, m1, m2)``, stage by stage."""
    results: list[TrialResult] = [None] * len(bundles)
    norms: dict = {}
    classes = _classes(bundles, "A B N1 N2 X m1 m2", 4)
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
    return _thm05_program([_bundle(A=A, B=B, N1=N1, N2=N2, X=X, m1=m1, m2=m2)], tol, 0)[0]


def _cor05_program(bundles: list, tol: mc.Tolerance, t_max: int) -> list[TrialResult]:
    """``check_cor05`` of each bundle ``(A1, B1, A2, B2, N1, N2, X, m1, m2)``, stage by
    stage; the combined defect is a delta stage over every row, then a triangle stage."""
    results: list[TrialResult] = [None] * len(bundles)
    norms: dict = {}
    classes = _classes(bundles, "A1 B1 A2 B2 N1 N2 X m1 m2", 6)
    names = ("A1,N1", "A2,N1", "B1,N2", "B2,N2", "A1,A2", "B1,B2")
    classes = _commutator_stage(
        classes, results, tuple((f"[{name}] != 0", *name.split(",")) for name in names), ("N1", "N2"), tol
    )
    classes = _nilpotent_stage(classes, results, "A1", ("N1", "N2"), True, tol)
    classes = _hypothesis_stage(classes, results, lambda cls: [
        ("first pair violates its isometric identity", cls["A1"], cls["B1"], cls["X"],
         _degree_column(cls, "m1"), [0] * len(cls.rows)),
        ("second pair violates its symmetric identity", cls["A2"], cls["B2"], cls["X"],
         [0] * len(cls.rows), _degree_column(cls, "m2")),
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


def check_cor05(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """The three perturbation implications for two base pairs sharing the nilpotents."""
    return _cor05_program([bundle], tol, 0)[0]


def _cor050_program(bundles: list, tol: mc.Tolerance, t_max: int) -> list[TrialResult]:
    """``check_cor050`` of each bundle ``(T, N, X, m1, m2)``, stage by stage."""
    results: list[TrialResult] = [None] * len(bundles)
    norms: dict = {}
    classes = _classes(bundles, "T N X m1 m2", 2)
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


def check_cor050(
    T_hilbert: OperatorTuple,
    N: OperatorTuple,
    X,
    m1: int,
    m2: int,
    tol: mc.Tolerance = mc.DEFAULT_TOL,
) -> TrialResult:
    """Adjoint specialization: one nilpotent perturbs both sides, degrees rise by 2n-2."""
    return _cor050_program([_bundle(T=T_hilbert, N=N, X=X, m1=m1, m2=m2)], tol, 0)[0]


def _thm06_program(bundles: list, tol: mc.Tolerance, t_max: int) -> list[TrialResult]:
    """``check_thm06`` of each bundle ``(A, B, S, T, X, m, n, r, s)``, stage by stage."""
    results: list[TrialResult] = [None] * len(bundles)
    norms: dict = {}
    classes = _classes(bundles, "A B S T X m n r s", 4)
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
    return _thm06_program([_bundle(A=A, B=B, S=S, T=T, X=X, m=m, n=n, r=r, s=s)], tol, 0)[0]


def _product_program(bundles: list, tol: mc.Tolerance, t_max: int, single: bool) -> list[TrialResult]:
    """``check_cor06`` (or with ``single``, ``check_cor062``) of each bundle ``(A, B, S, T,
    X, m, n, kind)``, stage by stage: factor pairs whose defects of one kind vanish at
    degrees m and n make the product pair's vanish at degree m+n-1."""
    results: list[TrialResult] = [None] * len(bundles)
    norms: dict = {}
    classes = _classes(bundles, "A B S T X m n kind", 4)
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
        (reason, cls[P], cls[Q], cls["X"], *_kind_degrees(cls["kind"], _degree_column(cls, k)))
        for P, Q, k in (("A", "B", "m"), ("S", "T", "n"))
    ], tol, norms)
    for cls in classes:
        cls["degree"] = _degree_column(cls, "m") + _degree_column(cls, "n") - 1
    _sharp_conclusions(
        classes, results, "product_defect",
        lambda cls: (cls["P"], cls["Q"], cls["X"], *_kind_degrees(cls["kind"], cls["degree"]),
                     [] if single else [_kind_degrees(cls["kind"], cls["degree"] - 1)]),
        () if single else ("below",),
        lambda cls: {"degree": cls["degree"]},
        tol, norms,
    )
    return results


_cor06_program = functools.partial(_product_program, single=False)
_cor062_program = functools.partial(_product_program, single=True)


def check_cor06(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Single-kind product implication: both pairs isometric (or both symmetric)."""
    return _cor06_program([bundle], tol, 0)[0]


def _cor061_program(bundles: list, tol: mc.Tolerance, t_max: int) -> list[TrialResult]:
    """``check_cor061`` of each bundle ``(S, T, X, m, n)``, stage by stage: the hypotheses
    of both kinds, then the conclusion of each kind whose hypotheses hold, at m+n-1."""
    results: list[TrialResult] = [None] * len(bundles)
    classes, norms = _classes(bundles, "S T X m n", 2), {}
    for cls in classes:
        for name in "ST":
            cls[f"{name}*"] = np.conjugate(cls[name].swapaxes(-1, -2), order="C")
            cls[f"C{name}C"] = np.conjugate(cls[name])
    classes = _commutator_stage(
        classes, results, (("[S, T] != 0", "S", "T"), ("[S*, CTC] != 0", "S*", "CTC")), (), tol
    )

    def derive(cls):
        cls["P"], cls["Q"] = product_stacks(cls["S*"], cls["T*"]), np.conjugate(product_stacks(cls["S"], cls["T"]))
        cls["degree"] = [m + n - 1 for m, n in zip(cls["m"], cls["n"])]

    _derived_stage(classes, results, derive)
    # both kinds' hypotheses, then the conclusion of each kind whose hypotheses hold
    kinds = ("iso", "sym")
    names = [f"hyp_{kind}_{side}" for kind in kinds for side in "ST"]
    judged = iter(defect_stack_checks([
        (cls[f"{side}*"], cls[f"C{side}C"], cls["X"], *_kind_degrees([kind] * len(cls.rows), cls[degree]),
         None, cls.rows)
        for cls in classes for kind in kinds for side, degree in (("S", "m"), ("T", "n"))
    ], tol, norms))
    tests = []
    for cls in classes:
        # each row's (norm, threshold) of each hypothesis
        found = list(zip(*[list(zip(*(column.tolist() for column in next(judged)))) for _ in names]))
        cls["defects"] = [{name: norm for name, (norm, _) in zip(names, row)} for row in found]
        cls["holds"] = [[all(norm <= threshold for norm, threshold in row[2 * k : 2 * k + 2]) for k in range(2)]
                        for row in found]
        for k, kind in enumerate(kinds):
            own = [r for r, holds in enumerate(cls["holds"]) if holds[k]]
            degrees = _kind_degrees([kind] * len(own), [cls["degree"][r] for r in own])
            tests.append((cls["P"], cls["Q"], cls["X"], *degrees, own, cls.rows[own]))
    judged = iter(defect_stack_checks(tests, tol, norms))
    for cls in classes:
        found = [iter(zip(*(column.tolist() for column in next(judged)))) for _ in kinds]
        for r, row in enumerate(cls.rows.tolist()):
            checks = [(f"product_defect_{kind}", *next(found[k]))
                      for k, kind in enumerate(kinds) if cls["holds"][r][k]]
            results[row] = _verdict(checks, cls["defects"][r]) if checks else _skip(
                "neither implication has valid hypotheses", **cls["defects"][r]
            )
    return results


def check_cor061(
    S: OperatorTuple,
    T: OperatorTuple,
    X,
    m: int,
    n: int,
    tol: mc.Tolerance = mc.DEFAULT_TOL,
) -> TrialResult:
    """Conjugation-twisted product implications for pairs (S*, CSC) and (T*, CTC)."""
    return _cor061_program([_bundle(S=S, T=T, X=X, m=m, n=n)], tol, 0)[0]


def check_cor062(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Single operator times tuple: the product inherits degree m+n-1."""
    return _cor062_program([bundle], tol, 0)[0]


def _thm07_program(bundles: list, tol: mc.Tolerance, t_max: int) -> list[TrialResult]:
    """``check_thm07`` of each bundle ``(A, B, S, T, m, n, r, s, variant, kind)``, stage by
    stage, in classes of one variant: the tensor pairs, the factor pairs' hypotheses
    at X = I, then the tensor pair's conclusion."""
    results: list[TrialResult] = [None] * len(bundles)
    classes, norms = _classes(bundles, "A B S T m n r s variant kind", 4, by="variant"), {}
    classes = _tensor_stage(classes, results)

    def hypotheses(cls):
        X_a, X_s, zero = _identities(cls, "A"), _identities(cls, "S"), [0] * len(cls.rows)
        if cls["variant"][0] == "i":
            # factor pairs whose defects of one kind vanish at degrees m and n make the
            # tensor pair's vanish at degree m+n-1
            reason = "a factor pair violates its identity"
            return [(reason, cls["A"], cls["B"], X_a, *_kind_degrees(cls["kind"], cls["m"])),
                    (reason, cls["S"], cls["T"], X_s, *_kind_degrees(cls["kind"], cls["n"]))]
        return [("first pair violates the combined identity", cls["A"], cls["B"], X_a, cls["m"], cls["n"]),
                ("second pair violates its identities", cls["S"], cls["T"], X_s, cls["r"], zero),
                ("second pair violates its identities", cls["S"], cls["T"], X_s, zero, cls["s"])]

    classes = _hypothesis_stage(classes, results, hypotheses, tol, norms)
    for cls in classes:
        if cls["variant"][0] == "i":
            cls["degree"] = np.array([m + n - 1 for m, n in zip(cls["m"], cls["n"])])
            cls["t1"], cls["t2"] = _kind_degrees(cls["kind"], cls["degree"])
        else:
            cls["t1"] = np.array([m + r - 1 for m, r in zip(cls["m"], cls["r"])])
            cls["t2"] = np.array([n + s - 1 for n, s in zip(cls["n"], cls["s"])])
    _sharp_conclusions(
        classes, results, "tensor_defect",
        lambda cls: (cls["A(x)S"], cls["B(x)T"], _identities(cls, "A(x)S"), cls["t1"], cls["t2"], []), (),
        lambda cls: {"degree": cls["degree"]} if cls["variant"][0] == "i" else {"t1": cls["t1"], "t2": cls["t2"]},
        tol, norms,
    )
    return results


@_in_trial_order
def _tensor_stage(classes: list, results: list) -> list:
    """Give each class its tensor pair (A (x) S, B (x) T) as columns, and refuse a variant
    other than i, or variant ii without r and s."""
    for cls in classes:
        cls["A(x)S"], cls["B(x)T"] = tensor_stacks(cls["A"], cls["S"]), tensor_stacks(cls["B"], cls["T"])
        variant = cls["variant"][0]
        if variant != "i":
            if variant != "ii":
                raise InvalidArgumentError(f"variant must be 'i' or 'ii', got {variant!r}")
            if any(value is None for value in (*cls["r"], *cls["s"])):
                raise InvalidArgumentError("variant ii needs r and s")
    return classes


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
    bundle = _bundle(A=A, B=B, S=S, T=T, m=m, n=n, r=r, s=s, variant=variant, kind=kind)
    return _thm07_program([bundle], tol, 0)[0]


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
    """One campaign id: the generator profile of its instances, ``program(bundles, tol,
    t_max)``, the column program that gives each instance of a batch its result, and
    ``pair(bundle)``, the (A, B, X) whose defect profile a counterexample record carries."""

    profile: str
    program: Callable[[list, mc.Tolerance, int], list[TrialResult]]
    pair: Callable[[InstanceBundle], tuple[OperatorTuple, OperatorTuple, np.ndarray]]

    def check(self, bundle: InstanceBundle, tol: mc.Tolerance, t_max: int) -> TrialResult:
        """The result of one instance: the program's batch of one."""
        return self.program([bundle], tol, t_max)[0]


def _pair(A: str = "A", B: str = "B"):
    return lambda bundle: (bundle.tuples[A], bundle.tuples[B], bundle.matrices["X"])


def _adjoint_pair(key: str):
    return lambda bundle: (adjoint_tuple(bundle.tuples[key]), bundle.tuples[key], bundle.matrices["X"])


#: The registry, one entry per theorem id, in campaign order.
THEOREMS = {
    "pro01": Theorem("pro01", _pro01_program, _pair()),
    "pro02": Theorem("pro02-family", _pro02_program, _pair("A0", "B0")),
    "pro03": Theorem("pro03", _pro03_program, _pair()),
    "pro04": Theorem("pro04", _pro04_program, _adjoint_pair("A")),
    "pro5": Theorem("pro5", _pro5_program, _adjoint_pair("A")),
    "thm05": Theorem("thm05", _thm05_program, _pair()),
    "cor05": Theorem("cor05", _cor05_program, _pair("A1", "B1")),
    "cor050": Theorem("cor050", _cor050_program, _adjoint_pair("T")),
    "thm06": Theorem("thm06", _thm06_program, _pair()),
    "cor06": Theorem("cor06", _cor06_program, _pair()),
    "cor061": Theorem(
        "cor061", _cor061_program,
        lambda b: (adjoint_tuple(b.tuples["S"]), conj_tuple(b.tuples["S"]), b.matrices["X"]),
    ),
    "cor062": Theorem("cor062", _cor062_program, _pair()),
    "thm07": Theorem(
        "thm07", _thm07_program, lambda b: (b.tuples["A"], b.tuples["B"], mc.identity(b.tuples["A"].dim))
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
        # a bool or a float would pass the sign checks below and run a wrong number of trials
        for name, count in (("trials", self.trials), *(("seed", seed) for seed in (self.seed, *(self.seeds or ())))):
            if type(count) is not int:
                raise InvalidArgumentError(f"{name} must be an integer, got {count!r}")
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


#: Trials a campaign without a budget checks in one program call; the cap keeps
#: the memory of a chunk flat however many trials the campaign has.
LOCKSTEP_TRIALS = 64


def _run_chunk(
    theorem_id: str, seeds: tuple[int, ...], tol: mc.Tolerance, t_max: int
) -> list[tuple[TrialResult, InstanceBundle]]:
    """The result and the instance of each seed: the instances are generated together
    (``random_instances``) and checked together by their id's program."""
    entry = THEOREMS[theorem_id]
    bundles = random_instances(entry.profile, seeds)
    return list(zip(entry.program(bundles, tol, t_max), bundles))


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
    generated together and checked by one call of the id's column program,
    with the bits each trial gives alone.  A budgeted campaign runs chunks of one trial and checks the budget before
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
