"""Identity-level checkers and randomized campaigns.

Each built-in check tests, in order, the commutators of its instance, its
hypothesis defects and its conclusions at the derived degrees (``_verdict``);
pro01-pro03 judge bespoke bounds of their own.  A failed commutator or
hypothesis skips the trial (an invalid instance never refutes an identity).
Conclusion failures inside a small gray band above the threshold count as
tolerance anomalies; decisive failures are serialized as counterexamples
with full inputs and a defect profile for post-mortem, of the pair that
``Theorem.pair`` reads from the entry's rows.

Each theorem is one ``THEOREMS`` entry, written as data under a comment that
states its claim: its profile, whose commutator and hypothesis rows
(``generators._Commutes`` and ``_Vanishes``, kept beside the builder, where
they also give a bundle its residuals) it tests, its nilpotent tuples, its
derived columns (stacked sums, products and conjugates, and degree
expressions such as ``m1+order_N1+order_N2-2``) and its conclusion with its
sharpness tests and extra result keys.  One interpreter runs the entry's
stages on classes of columns (``generators._Columns``, part of the one
reader of rows, which resolves every row name and reads every row's
``kind`` and ``when``), a trial being one row of its class's stacks: a
campaign chunk's classes are the builder's own (``generators._chunk``), so
a chunk builds no per-trial tuple or bundle, and ``Theorem.program(bundles,
tol, t_max)`` makes each bundle a class of one row; ``Theorem.check(bundle,
tol, t_max)``, its batch of one, is the one way to check a single instance.
Each stage is one stack-kernel call over the
live rows of every class: ``_commutator_stage``, ``_nilpotent_stage``,
``_hypothesis_stage`` and ``_sharp_conclusions`` (zero tests through
``transforms.defect_stack_checks``), with ``_derived_stage`` between them.  A
skip is a row mask and a derived tuple a stacked expression.  What is not
rows is a named hook, a stage of the same form: pro01's zero tests, Cesaro
run and collapse test, pro02's member and limit stage, pro03's reduction and
right-hand side, pro04's self-adjoint residual, pro5's degree refusal,
cor05's combined defect, cor061's two kinds, cor062's single-operator skip
and thm07's variant refusal.

Every kernel gives each item the bits it gets alone, so a trial's result
does not depend on the trials beside it, and neither does a refusal: a
refused chunk is checked again as its bundles, and ``Theorem.program`` runs
each trial of a refused batch alone, in order, and raises what the first
refusing trial raises alone, as trials checked one at a time would.  The
bespoke thresholds (pro01's collapse test, pro02's limit, pro03's right-hand
side and cor05's combined scale) read the spectral norms that their zero
tests asked for, from the zero-test kernel's norm table.

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
from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import classify, matrix_core as mc, transforms as tf
from .errors import InvalidArgumentError
from .generators import (
    _BUILDERS,
    InstanceBundle,
    _applies,
    _bundle_class,
    _chunk,
    _Columns,
    _Commutes,
    _degree_values,
    _first_of,
    _kind_degrees,
    _row_degrees,
    _Vanishes,
    _x,
    paper_example_mixing,
    paper_example_squares,
    random_instance,
    random_instances,
)
from .transforms import defect_stack_checks
from .tuples import (
    OperatorTuple,
    PowerConvention,
    commutator_stack_checks,
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


# ---------------------------------------------------------------------------
# the interpreter's stages, run on classes of columns (``generators._Columns``)


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


def _every_row(cls: _Columns, reason: str) -> tuple:
    """``_skip_rows``' skip of every row of a class."""
    b = len(cls.rows)
    return np.ones(b, bool), [reason] * b, [None] * b


def _first_failures(reasons: list, failed: list, residuals: list) -> tuple:
    """``_skip_rows``' skip of the rows where any of the ordered tests ``failed`` (one bool
    array each), each at the first that failed, or None when none did.  A test's
    reason is a string, or a function of the row's index in its class."""
    failed = np.array(failed)
    mask = failed.any(axis=0)
    if not mask.any():
        return None
    first = failed.argmax(axis=0)[mask]
    columns = np.flatnonzero(mask)
    values = np.array(residuals)[first, columns].tolist()
    return mask, [
        reasons[k](c) if callable(reasons[k]) else reasons[k] for k, c in zip(first.tolist(), columns.tolist())
    ], values


def _merged(cls: _Columns, names: list) -> np.ndarray:
    """The named stacks of a class, of one shape, one after another along the rows."""
    return cls[names[0]] if len(names) == 1 else np.concatenate([cls[name] for name in names])


@dataclass
class _Run:
    """One program call: each trial's result by position (None until a stage gives it),
    the tolerance, pro01's step count, and the zero-test kernel's norm table."""

    results: list
    tol: mc.Tolerance
    t_max: int
    norms: dict = field(default_factory=dict)


def _commutator_stage(entry, classes: list, run: _Run) -> list:
    """Skip each row at the first of the entry's commutator rows ``(label, S, T)`` whose
    commutators do not vanish: within S when T is None, else every [S_i, T_j].  With a
    strict nilpotent stage, the commutators within each of its tuples are judged too,
    and kept for it as the columns ``commutes <name>`` and ``residual <name>``.  A
    class's queries of one kind and shapes are one query, and every class's queries go
    to one ``commutator_stack_checks`` call.  A class's first row of two dimensions is
    refused, once every row before it commutes in some trial."""
    pairs = entry.commutators
    kept = entry.nilpotent[1] if entry.nilpotent and entry.nilpotent[2] else ()
    queries, layouts = [], []
    for cls in classes:
        cut = next((k for k, row in enumerate(pairs)
                    if row.T is not None and cls[row.S].shape[-1] != cls[row.T].shape[-1]), len(pairs))
        judged = [(row.S, row.T) for row in pairs[:cut]] + [(name, None) for name in kept]
        merged: dict[tuple, list[int]] = {}
        for k, (S, T) in enumerate(judged):
            merged.setdefault((cls[S].shape, T and cls[T].shape), []).append(k)
        for ks in merged.values():
            right = [judged[k][1] for k in ks]
            queries.append((_merged(cls, [judged[k][0] for k in ks]),
                            None if right[0] is None else _merged(cls, right)))
        layouts.append((cut, len(judged), list(merged.values())))
    checks = iter(commutator_stack_checks(queries, run.tol))
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
            [row.label for row in pairs], [~ok for ok, _ in found], [res for _, res in found]
        ) if found else None
        if cut < len(pairs) and (skip is None or not skip[0].all()):
            row = pairs[cut]
            raise InvalidArgumentError(f"dimension mismatch: {cls[row.S].shape[-1]} vs {cls[row.T].shape[-1]}")
        skipped.append(skip)
    return _skip_rows(classes, run.results, skipped)


def _nilpotent_stage(entry, classes: list, run: _Run) -> list:
    """Give each row the nilpotency orders of the entry's nilpotent tuples ``(dim, names,
    strict)`` up to the dimension of tuple ``dim``, as columns ``order_<name>``, from one
    ``nilpotency_stack_orders`` call; a row with a tuple that is not nilpotent skips.
    With ``strict``, a tuple whose commutators, kept by ``_commutator_stage``, do not
    vanish is first refused, as ``tuples.nilpotency_order`` refuses it, in order of the
    rows and then the names."""
    if entry.nilpotent is None:
        return classes
    dim, names, strict = entry.nilpotent
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
        [(S, cls[dim].shape[-1]) for cls, group in zip(classes, stacks) for S in group], run.tol
    ))
    skipped = []
    for cls, group in zip(classes, stacks):
        found = np.concatenate([next(orders) for _ in group]).reshape(len(names), -1)
        for N, order in zip(names, found):
            cls[f"order_{N}"] = order
        mask = (found == 0).any(axis=0)
        reason = "perturbation tuple is not nilpotent up to the dimension"
        skipped.append((mask, [reason] * int(mask.sum()), [None] * int(mask.sum())) if mask.any() else None)
    return _skip_rows(classes, run.results, skipped)


def _label(label: str, ms, ns):
    """A row's skip reason: its label, or, when it names its degrees, their formatting
    as a function of the row's index in its class."""
    return label if "{" not in label else lambda r: label.format(m=ms[r], n=ns[r])


def _hypothesis_stage(entry, classes: list, run: _Run) -> list:
    """Skip each row at the first of the entry's hypothesis rows that applies to its class
    and whose zero test fails, with its label as the reason and its norm as the residual.
    Every class's tests go to one ``defect_stack_checks`` call."""
    tests = []
    for cls in classes:
        group = []
        for row in entry.hypotheses:
            if _applies(row, cls):
                ms, ns = _row_degrees(cls, row, row.m, row.n)
                group.append((_label(row.label, ms, ns), cls[row.P], cls[row.Q], _x(cls, row), ms, ns))
        tests.append(group)
    judged = iter(defect_stack_checks(
        [test[1:] for group in tests for test in group], run.tol, run.norms
    ))
    skipped = []
    for group in tests:
        found = [next(judged) for _ in group]
        skipped.append(_first_failures(
            [test[0] for test in group], [norm > threshold for norm, threshold in found],
            [norm for norm, _ in found],
        ))
    return _skip_rows(classes, run.results, skipped)


def _derived_stage(entry, classes: list, run: _Run) -> list:
    """Give each class the entry's derived columns ``(name, op, *args)``, in order: ``op``
    of the named columns, a stacked expression over the class's rows."""
    for cls in classes:
        for name, op, *args in entry.derived:
            cls[name] = op(*(cls[arg] for arg in args))
    return classes


def _sharp_conclusions(entry, classes: list, run: _Run) -> list:
    """Each row's verdict of the zero test of its class's conclusion (the first of the
    entry's that applies), with the norms of its sharpness tests ``(name, m, n)`` on
    the same pair, the first the witness's, and the result's extra entries ``(key,
    degree)``.  Every class's tests go to one ``defect_stack_checks`` call.  A sharpness
    test of a negative degree is left out of its row's result, and runs at that degree
    clipped to 0."""
    tests, picked = [], []
    for cls in classes:
        test, sharp, extra = next(conclusion for conclusion in entry.conclusions if _applies(conclusion.test, cls))
        P, Q, X = cls[test.P], cls[test.Q], _x(cls, test)
        lower = [_row_degrees(cls, test, m, n) for _, m, n in sharp]
        tests += [(P, Q, X, *_row_degrees(cls, test, test.m, test.n))] + [
            (P, Q, X, np.maximum(m, 0), np.maximum(n, 0)) for m, n in lower
        ]
        included = [(np.minimum(m, n) >= 0).tolist() for m, n in lower]
        picked.append((test.label, [name for name, _, _ in sharp], included, extra))
    judged = iter(defect_stack_checks(tests, run.tol, run.norms))
    for cls, (name, below, included, extra) in zip(classes, picked):
        norm, threshold = (column.tolist() for column in next(judged))
        lower = [next(judged)[0].tolist() for _ in below]
        columns = {key: np.asarray(_degree_values(cls, degree)).tolist() for key, degree in extra}
        for r, row in enumerate(cls.rows.tolist()):
            sharpness = {key: values[r] for key, values, kept in zip(below, lower, included) if kept[r]}
            witness = sharpness.get(below[0], 0.0) if below else 0.0
            run.results[row] = _verdict(
                [(name, norm[r], threshold[r])],
                {key: float(values[r]) for key, values in columns.items()},
                sharpness=sharpness, is_sharp=witness > SHARPNESS_FLOOR,
            )
    return classes


def _by_row(judged: tuple, counts: list) -> list[list]:
    """Each row's ``(norm, threshold)`` of the items of a zero test, ``counts[r]`` items for
    row r after those of the rows before it."""
    items, ends = list(zip(*(column.tolist() for column in judged))), np.cumsum(counts).tolist()
    return [items[end - count : end] for count, end in zip(counts, ends)]


# ---------------------------------------------------------------------------
# hooks: the stages that are not rows


def _pro01_stage(entry, classes: list, run: _Run) -> list:
    """pro01's tests: its hypothesis row, the zero test of degree m, whose norm a skip keeps
    under the row's residual name, with the zero tests of degrees 0..m-1 (items on
    repeated rows); one Cesaro run of each class's stacks; then each row's collapse test
    on the spectrum of its sigma superoperator, lifted and decomposed once per class."""
    (hypothesis,) = entry.hypotheses
    tests = []
    for cls in classes:
        # the hypothesis test, checked as the kernel reads it before any range(m)
        test = tf._checked_stack_test(cls["A"], cls["B"], cls["X"], cls["m"], [0] * len(cls.rows))
        cls["m"] = ms = test[3]
        own = [r for r, m in enumerate(ms) for _ in range(m)]  # the row of each lower degree
        tests += [test, (*test[:3], [j for m in ms for j in range(m)], [0] * len(own), own)]
    judged, live = iter(defect_stack_checks(tests, run.tol, run.norms)), []
    for cls in classes:
        (norm, threshold), lower = next(judged), next(judged)
        cls["threshold"], cls["lower"] = threshold.tolist(), _by_row(lower, cls["m"])
        failed = norm > threshold
        for r in np.flatnonzero(failed).tolist():
            run.results[cls.rows[r]] = _skip(hypothesis.label.format(m=cls["m"][r], n=0),
                                             **{hypothesis.residual: norm[r].item()})
        if (cls := cls.keep(~failed)) is not None:
            live.append(cls)
    for cls in live:  # refused before any run
        for m in cls["m"]:
            tf._require_cesaro_degrees(m, run.t_max)
    _cesaro_stage(entry, live, run)
    t_max = run.t_max
    for cls in live:
        smallest, normality, size = _sigma_spectra(cls["A"], cls["B"])
        for r, row in enumerate(cls.rows.tolist()):
            m, lower = cls["m"][r], cls["lower"][r]
            e_final = mc.fro_norm(cls["sigma^t_max"][r] / tf.binomial(t_max, m - 1) - cls["reference"][r])
            bound = 5.0 * max(norm for norm, _ in lower) * (m - 1) / t_max + cls["threshold"][r]
            invertible = smallest[r] > 1e-6
            unitary_like = invertible and normality[r] <= 1e-8 * max(size[r] ** 2, 1.0) and smallest[r] >= 1.0 - 1e-8
            checks = [("collapse_defect", *lower[m - 1])] if unitary_like else []
            run.results[row] = _verdict(checks + [("cesaro_error", e_final, bound)],
                                        {"t_max": float(t_max), "sigma_invertible": float(invertible)})
    return live


def _sigma_spectra(A: np.ndarray, B: np.ndarray) -> tuple[list, list, list]:
    """Each row's smallest eigenvalue modulus, normality defect ||S S* - S* S||_F and
    ||S||_F of its sigma superoperator S = sum_i B_i^T (x) A_i, for a class's (b, d, n, n)
    stacks, each lifted as ``superop_matrix`` lifts one pair (its Kronecker products
    added in order onto zero): one lift, one ``eigvals`` call and one product of each
    side for the class."""
    lifts = mc.kron(B.swapaxes(-1, -2), A)
    S = np.zeros((len(A), *lifts.shape[-2:]), dtype=np.complex128)
    for i in range(A.shape[1]):
        S += lifts[:, i]
    S_star = S.conj().swapaxes(-1, -2)
    normality = mc.fro_norm_array(S @ S_star - S_star @ S)
    return np.abs(np.linalg.eigvals(S)).min(axis=1).tolist(), normality.tolist(), mc.fro_norm_array(S).tolist()


def _cesaro_stage(entry, classes: list, run: _Run) -> list:
    """Give each class the columns ``sigma^t_max`` and ``reference`` (triangle^(m-1)(X)) of
    its rows' Cesaro runs, from one run of its stacks from X."""
    for cls in classes:
        for _, last, reference in tf._cesaro_run(cls["A"], cls["B"], cls["X"], cls["m"], run.t_max):
            pass
        cls["sigma^t_max"], cls["reference"] = last, reference
    return classes


def _pro02_stage(entry, classes: list, run: _Run) -> list:
    """pro02's tests: each trial's convergence residuals over its members; the zero tests of
    every family member at the degrees of its hypothesis row (items of one stack of the
    members of a class's rows) and of the limit; then each trial's verdict."""
    (hypothesis,) = entry.hypotheses
    tests = []
    for cls in classes:
        counts = cls["members"]
        if refused := [count for count in counts if type(count) is not int or count < 1]:
            raise InvalidArgumentError(f"members must be a positive integer, got {refused[0]!r}")
        own = [r for r, count in enumerate(counts) for _ in range(count)]  # the row of each member
        A, B = (np.stack([cls[f"{side}{j}"][r] for r, count in enumerate(counts) for j in range(count)])
                for side in "AB")
        # each member's largest componentwise distance from the limit
        limit = np.concatenate([cls["A_limit"], cls["B_limit"]], axis=1)
        distances = mc.fro_norm_array(np.concatenate([A, B], axis=1) - limit[own]).max(axis=1).tolist()
        cls["convergence"] = [distances[end - count : end] for count, end in zip(counts, np.cumsum(counts).tolist())]
        if any(r1 > r0 + run.tol.abs_eps for conv in cls["convergence"] for r0, r1 in zip(conv, conv[1:])):
            raise InvalidArgumentError("family does not converge: residuals are not decreasing")
        ms, ns = _row_degrees(cls, hypothesis, hypothesis.m, hypothesis.n)
        tests += [(A, B, cls["X"][own], [ms[r] for r in own], [ns[r] for r in own]),
                  (cls["A_limit"], cls["B_limit"], cls["X"], cls["m1"], cls["m2"])]
    judged = iter(defect_stack_checks(tests, run.tol, run.norms))
    for cls in classes:
        members, norm_lim = _by_row(next(judged), cls["members"]), next(judged)[0].tolist()
        m1, m2 = cls["m1"], cls["m2"]
        # the limit's scale is its zero test's, from the norms that test asked for
        scales = tf._test_scales((cls["A_limit"], cls["B_limit"], cls["X"], m1, m2, None), run.norms)
        for r, row in enumerate(cls.rows.tolist()):
            (first_norm, first_threshold), *later = members[r]
            if first_norm > first_threshold:
                run.results[row] = _skip(hypothesis.label, member_defect=first_norm)
                continue
            # later members drifting off the identity refute the closure claim; each
            # counts only once the one before it passed
            for j, (norm_j, threshold_j) in enumerate(later, start=1):
                if (verdict := _judge(norm_j, threshold_j)) != "pass":
                    run.results[row] = TrialResult(
                        status=verdict, reason=f"member {j} defect drifted to {norm_j:.3e}",
                        defects={"member_index": float(j), "member_defect": norm_j}, conclusion=norm_j,
                    )
                    break
            else:
                # convergence slack: the defect is Lipschitz in the tuple within a factor
                # of the degree times the scale, applied to the last residual
                last = cls["convergence"][r][-1]
                threshold = run.tol.threshold(scales[r]) + 10.0 * (m1[r] + m2[r]) * last * scales[r]
                run.results[row] = _verdict([("limit_defect", norm_lim[r], threshold)], {"last_residual": last})
    return classes


def _pro03_stage(entry, classes: list, run: _Run) -> list:
    """pro03's reduction at each trial's degree m: the zero tests of the first d-1
    one-component pairs (items on a stack of every component pair of a class's rows), of
    the full pair and, for part (b), of the last pair, then each trial's verdict, part
    (a)'s right-hand side formed row by row."""
    classes = _skip_rows(classes, run.results, [
        _every_row(cls, "reduction needs d >= 2") if cls["A"].shape[1] < 2 else None for cls in classes
    ])
    tests = []
    for cls in classes:
        b, d, n = cls["A"].shape[:3]
        cls["iso"] = iso = _first_of(cls, "part", ("a", "b"))
        A1, B1 = (cls[name].reshape(b * d, 1, n, n) for name in "AB")  # row r * d + i: pair i of row r
        X1 = np.repeat(cls["X"], d, axis=0)
        own = np.repeat(np.arange(b), d - 1)  # the row of each hypothesis
        ones = [1] * len(own)
        on_sym = [r for r in range(b) if not iso[r]]
        tests += [
            (A1, B1, X1, *_kind_degrees([iso[r] for r in own], ones, ones),
             [r * d + i for r in range(b) for i in range(d - 1)]),
            (cls["A"], cls["B"], cls["X"], *_kind_degrees(iso, cls["m"], cls["m"])),
            (A1, B1, X1, [0] * len(on_sym), [cls["m"][r] for r in on_sym], [r * d + d - 1 for r in on_sym]),
        ]
    judged = iter(defect_stack_checks(tests, run.tol, run.norms))
    for cls in classes:
        b, d = cls["A"].shape[:2]
        cls["hypotheses"] = _by_row(next(judged), [d - 1] * b)
        cls["lhs"] = list(zip(*(column.tolist() for column in next(judged))))
        rhs = iter(zip(*(column.tolist() for column in next(judged))))  # of the rows of part (b)
        cls["rhs"] = [None if flag else next(rhs) for flag in cls["iso"]]
    for cls in classes:
        d = cls["A"].shape[1]
        for r, row in enumerate(cls.rows.tolist()):
            # each pair counts only once the one before it passed
            failed = next(((i, norm) for i, (norm, threshold) in enumerate(cls["hypotheses"][r])
                           if norm > threshold), None)
            if failed is not None:
                run.results[row] = _skip(f"pair {failed[0]} is not degree-1 annihilating", residual=failed[1])
                continue
            (lhs_norm, lhs_thr), m, X = cls["lhs"][r], cls["m"][r], cls["X"][r]
            if cls["iso"][r]:
                # sum_j C(m, j) (d-2)^(m-j) A_d^j X B_d^j, the terms added in order onto zero
                coeffs = [tf.binomial(m, j) * float((d - 2) ** (m - j)) for j in range(m + 1)]
                terms = np.array(coeffs)[:, None, None] * (
                    mc.matrix_powers(cls["A"][r, -1], m) @ X @ mc.matrix_powers(cls["B"][r, -1], m)
                )
                rhs_norm = mc.fro_norm(mc.ordered_sum(terms))
                # the last components' norms, which the full pair's zero test asked for
                a_last, b_last = (tf._component_norms(run.norms, cls[name])[r, -1].item() for name in "AB")
                (scale,) = tf._scales([mc.fro_norm(X)], [1.0 + abs(d - 2) + a_last * b_last], [1.0], [m], [0])
                rhs_thr = run.tol.threshold(scale)
            else:
                rhs_norm, rhs_thr = cls["rhs"][r]
            lhs_pass, rhs_pass = lhs_norm <= lhs_thr, rhs_norm <= rhs_thr
            defects = {"lhs_defect": lhs_norm, "rhs_defect": rhs_norm,
                       "lhs_threshold": lhs_thr, "rhs_threshold": rhs_thr}
            # the equivalence claims neither side is zero, so only a side that passed is a conclusion
            sides = ((lhs_norm, lhs_pass), (rhs_norm, rhs_pass))
            conclusion = max([norm for norm, passed in sides if passed], default=0.0)
            if lhs_pass == rhs_pass:
                run.results[row] = TrialResult(status="pass", defects=defects, conclusion=conclusion)
                continue
            # disagreement within the gray band of either side is an anomaly
            gray = (lhs_thr <= lhs_norm <= ANOMALY_BAND * lhs_thr) or (rhs_thr <= rhs_norm <= ANOMALY_BAND * rhs_thr)
            run.results[row] = TrialResult(
                status="anomaly" if gray else "counterexample",
                reason=f"equivalence broken: lhs_pass={lhs_pass}, rhs_pass={rhs_pass}",
                defects=defects, conclusion=conclusion,
            )
    return classes


def _selfadjoint_stage(entry, classes: list, run: _Run) -> list:
    """pro04's conclusion: each row's component sum is self-adjoint."""
    for cls in classes:
        s = stack_sums(cls["A"])
        residuals = mc.fro_norm_array(s - np.conjugate(s.swapaxes(-1, -2))).tolist()
        thresholds = run.tol.threshold(mc.fro_norm_array(s)).tolist()
        for row, residual, threshold in zip(cls.rows.tolist(), residuals, thresholds):
            run.results[row] = _verdict([("selfadjoint_residual", residual, threshold)])
    return classes


def _even_degree_stage(entry, classes: list, run: _Run) -> list:
    """pro5's refusal, before any zero test, of a degree that is not a positive even
    integer."""
    for cls in classes:
        if refused := [m for m in cls["m_even"] if not isinstance(m, int) or m < 2 or m % 2 != 0]:
            raise InvalidArgumentError(f"m must be a positive even integer, got {refused[0]!r}")
    return classes


def _cor05_stage(entry, classes: list, run: _Run) -> list:
    """cor05's conclusions: the zero tests of triangle^t1 of the first perturbed pair and of
    delta^t2 of the second, then each row's combined defect, delta^t2(X) of the second
    pair (X itself at degree 0, as ``delta`` gives it) for every row, then its triangle^t1
    under the first pair, with the scale of both degrees."""
    for cls in classes:
        cls["zero"] = np.zeros_like(cls["t1"])
    judged = iter(defect_stack_checks([
        test for cls in classes for test in (
            (cls["P1"], cls["Q1"], cls["X"], cls["t1"], cls["zero"]),
            (cls["P2"], cls["Q2"], cls["X"], cls["zero"], cls["t2"]),
        )
    ], run.tol, run.norms))
    for cls in classes:
        (cls["triangle"], cls["triangle threshold"]), (cls["delta"], cls["delta threshold"]) = next(judged), next(judged)
        # the norms both combined scales read are the ones the two zero tests asked for
        cls["iso"], cls["sym"] = tf._growth_factors(
            run.norms, (cls["P1"], cls["Q1"]), (cls["P2"], cls["Q2"]), cls["t1"].tolist(), cls["t2"].tolist()
        )
    for cls in classes:
        deltas = tf.stack_defects(cls["P2"], cls["Q2"], cls["X"], cls["zero"], cls["t2"])
        cls["delta^t2"] = np.where((cls["t2"] == 0)[:, None, None], cls["X"], deltas)
    for cls in classes:
        cls["combined"] = tf.stack_defects(cls["P1"], cls["Q1"], cls["delta^t2"], cls["t1"], cls["zero"])
    for cls in classes:
        scales = tf._scales(
            mc.fro_norm_array(cls["X"]).tolist(), cls["iso"], cls["sym"],
            cls["t1"].tolist(), cls["t2"].tolist(),
        )
        tri, tri_thr, dlt, dlt_thr = (cls[name].tolist() for name in (
            "triangle", "triangle threshold", "delta", "delta threshold"
        ))
        combined = mc.fro_norm_array(cls["combined"]).tolist()
        combined_thr = run.tol.threshold(np.array(scales)).tolist()
        n1, n2 = cls["order_N1"].tolist(), cls["order_N2"].tolist()
        for r, row in enumerate(cls.rows.tolist()):
            run.results[row] = _verdict([
                ("triangle_perturbed", tri[r], tri_thr[r]),
                ("delta_perturbed", dlt[r], dlt_thr[r]),
                ("combined_perturbed", combined[r], combined_thr[r]),
            ], {"n1": float(n1[r]), "n2": float(n2[r])})
    return classes


def _cor061_stage(entry, classes: list, run: _Run) -> list:
    """cor061's two kinds: its hypothesis rows, isometric then symmetric, then the
    conclusion of each kind whose hypotheses all hold, at degree m+n-1; a trial where
    neither kind's hold skips with the rows' label and every hypothesis norm, by its
    residual name."""
    rows, kinds = entry.hypotheses, ("iso", "sym")
    judged = iter(defect_stack_checks([
        (cls[row.P], cls[row.Q], _x(cls, row), *_row_degrees(cls, row, row.m, row.n))
        for cls in classes for row in rows
    ], run.tol, run.norms))
    tests = []
    for cls in classes:
        # each row's (norm, threshold) of each hypothesis
        found = list(zip(*[list(zip(*(column.tolist() for column in next(judged)))) for _ in rows]))
        cls["defects"] = [{row.residual: norm for row, (norm, _) in zip(rows, trial)} for trial in found]
        cls["holds"] = [[all(norm <= threshold for norm, threshold in trial[2 * k : 2 * k + 2]) for k in range(2)]
                        for trial in found]
        degree = cls["degree"].tolist()
        for k, kind in enumerate(kinds):
            own = [r for r, holds in enumerate(cls["holds"]) if holds[k]]
            degrees = [degree[r] for r in own]
            tests.append((cls["P"], cls["Q"], cls["X"], *_kind_degrees([kind == "iso"] * len(own), degrees, degrees),
                          own))
    judged = iter(defect_stack_checks(tests, run.tol, run.norms))
    for cls in classes:
        found = [iter(zip(*(column.tolist() for column in next(judged)))) for _ in kinds]
        for r, row in enumerate(cls.rows.tolist()):
            checks = [(f"product_defect_{kind}", *next(found[k]))
                      for k, kind in enumerate(kinds) if cls["holds"][r][k]]
            run.results[row] = _verdict(checks, cls["defects"][r]) if checks else _skip(
                rows[0].label, **cls["defects"][r]
            )
    return classes


def _single_operator_stage(entry, classes: list, run: _Run) -> list:
    """cor062's skip of the trials whose A or B is not a single operator."""
    return _skip_rows(classes, run.results, [
        None if cls["A"].shape[1] == cls["B"].shape[1] == 1 else _every_row(cls, "A and B must be single operators")
        for cls in classes
    ])


def _variant_stage(entry, classes: list, run: _Run) -> list:
    """thm07's refusal, after its tensor pair and before any zero test, of a variant other
    than i, or variant ii without r and s."""
    for cls in classes:
        variant = cls["variant"][0]
        if variant != "i":
            if variant != "ii":
                raise InvalidArgumentError(f"variant must be 'i' or 'ii', got {variant!r}")
            if any(value is None for value in (*cls["r"], *cls["s"])):
                raise InvalidArgumentError("variant ii needs r and s")
    return classes


# ---------------------------------------------------------------------------
# the theorem registry


class _Conclusion(NamedTuple):
    """What a theorem concludes: the zero test ``test``, a ``_Vanishes`` row labelled with
    its result key, the sharpness tests ``(name, m, n)`` on the same pair, the first the
    witness's, and the result's extra entries ``(key, degree)``."""

    test: _Vanishes
    sharp: tuple = ()
    extra: tuple = ()


@dataclass(frozen=True)
class Theorem:
    """One campaign id, as data.

    ``profile`` names the generator profile of its instances, whose rows are its
    commutator and hypothesis rows (``rows``); ``nilpotent`` is ``(dim, names,
    strict)`` of its nilpotent tuples, ``derived`` its derived columns ``(name, op,
    *args)``, ``degrees`` its degree expressions by name, and ``conclusions`` what it
    concludes.  Its ``stages`` run in order on classes of columns: a campaign chunk's
    builder classes (``_run_chunk``), or a batch of bundles, one class each
    (``program(bundles, tol, t_max)``, or ``check(bundle, tol, t_max)`` for one);
    a bundle with a value that is not an ``OperatorTuple`` under a tuple key is
    refused, naming the key.  ``pair(bundle)`` is the pair and X whose defect
    profile a counterexample record carries, read from its rows.
    """

    profile: str
    nilpotent: tuple | None = None
    derived: tuple = ()
    degrees: tuple = ()
    conclusions: tuple = ()
    stages: tuple = (_commutator_stage, _nilpotent_stage, _hypothesis_stage, _derived_stage, _sharp_conclusions)

    @functools.cached_property
    def rows(self) -> tuple:
        """Its profile's hypothesis rows, which also give the profile's bundles their residuals."""
        return _BUILDERS[self.profile].rows

    @functools.cached_property
    def commutators(self) -> tuple:
        """The commutator rows that its program tests."""
        return tuple(row for row in self.rows if isinstance(row, _Commutes) and row.label)

    @functools.cached_property
    def hypotheses(self) -> tuple:
        """The defect rows that its program tests."""
        return tuple(row for row in self.rows if isinstance(row, _Vanishes) and row.label)

    def program(self, bundles: list, tol: mc.Tolerance, t_max: int) -> list[TrialResult]:
        """The result of each instance of a batch: the entry's stages, in order, on a class
        of one row per instance.  A refused batch of several instances raises what its
        first instance that is refused alone raises, as ``check`` of each would."""
        try:
            return self._results([_bundle_class(r, bundle, self.degrees) for r, bundle in enumerate(bundles)],
                                 len(bundles), tol, t_max)
        except InvalidArgumentError:
            for bundle in bundles if len(bundles) > 1 else ():
                try:
                    self.check(bundle, tol, t_max)
                except InvalidArgumentError as first:
                    raise first from None
            raise

    def _results(self, classes: list, trials: int, tol: mc.Tolerance, t_max: int) -> list[TrialResult]:
        """The result of each of ``trials`` trials: the entry's stages, in order, on the
        classes of their columns."""
        run = _Run([None] * trials, tol, t_max)
        for stage in self.stages:
            classes = stage(self, classes, run)
        return run.results

    def check(self, bundle: InstanceBundle, tol: mc.Tolerance, t_max: int) -> TrialResult:
        """The result of one instance: the program's batch of one."""
        return self.program([bundle], tol, t_max)[0]

    def pair(self, bundle: InstanceBundle) -> tuple[OperatorTuple, OperatorTuple, np.ndarray]:
        """The (P, Q, X) of its profile's first defect row on the bundle, or (A, B, X) for a
        profile without one (pro03): the pair whose defect profile a counterexample
        record carries."""
        row = next((row for row in self.rows if isinstance(row, _Vanishes)), _Vanishes(None, "A", "B", "X", 0, 0))
        cls = _bundle_class(0, bundle, self.degrees)
        return OperatorTuple._of_stack(cls[row.P][0]), OperatorTuple._of_stack(cls[row.Q][0]), _x(cls, row)[0]


#: The nilpotent perturbations raise both degrees by n1 + n2 - 2.
_RAISED = (("t1", "m1+order_N1+order_N2-2"), ("t2", "m2+order_N1+order_N2-2"))
_SUMS = (("P", sum_stacks, "A", "N1"), ("Q", sum_stacks, "B", "N2"))
_PRODUCTS = (("P", product_stacks, "A", "S"), ("Q", product_stacks, "B", "T"))
_PRODUCT_STAGES = (_commutator_stage, _derived_stage, _hypothesis_stage, _sharp_conclusions)


def _product(*sharp) -> tuple:
    """cor06's and cor062's conclusion: the product pair's defect of the factors' kind
    vanishes at degree m+n-1."""
    return (_Conclusion(_Vanishes("product_defect", "P", "Q", "X", "degree", "degree", kind=("iso", "sym")), sharp,
                        (("degree", "degree"),)),)


#: The registry, one entry per theorem id, in campaign order, each under the
#: statement of its claim.
THEOREMS = {
    # Cesaro convergence of normalized sigma powers for an (X,m)-isometric pair.
    #
    # Passes iff the error at t_max sits under C*(m-1)/t_max (C = 5 * the largest
    # defect norm at degrees < m) plus the tolerance floor.  The collapse
    # assertion (degree m-1 defect vanishes outright) is additionally applied
    # when the sigma superoperator is invertible and unitary-like -- normal with
    # no eigenvalue inside the unit circle -- which is the regime where its
    # inverse iterates stay bounded.
    "pro01": Theorem("pro01", stages=(_pro01_stage,)),
    # Norm-limits of defect-annihilated families keep the combined identity.
    #
    # The first family member must satisfy its declared identity (hypothesis);
    # the member sequence must converge in norm to the declared limit.  A limit
    # that decisively fails while the first member passed is a counterexample
    # (a drifting family), not a skip.  Every member's test and the limit's
    # are evaluated together, so their scales come from one LAPACK call.
    "pro02": Theorem("pro02-family", stages=(_pro02_stage,)),
    # Reduction to the last pair when the first d-1 pairs are degree-1 annihilators.
    #
    # Part (a): with (A_i, B_i) degree-1 isometric on X for i < d, the full pair
    # is (X,m)-isometric iff ((d-2) I + L_{A_d} R_{B_d})^m (X) = 0.
    # Part (b): the symmetric analogue, reducing to the last pair's delta defect.
    # The scales of every one-component pair and of the full pair come from one
    # LAPACK call: part (a)'s right-hand threshold reads the last components'
    # norms, which the full pair's zero test has filled.
    "pro03": Theorem("pro03", stages=(_pro03_stage,)),
    # Degree-2 symmetry of the adjoint pair at I forces a self-adjoint component sum.
    "pro04": Theorem("pro04", stages=(_hypothesis_stage, _selfadjoint_stage)),
    # Even symmetric degree of the adjoint pair at I collapses to the odd degree below.
    "pro5": Theorem(
        "pro5",
        conclusions=(_Conclusion(_Vanishes("odd_degree_defect", "A*", "A", "I", 0, "m_even-1")),),
        stages=(_even_degree_stage, _hypothesis_stage, _sharp_conclusions),
    ),
    # Commuting nilpotent perturbations raise both vanishing degrees by n1+n2-2.
    "thm05": Theorem(
        "thm05",
        nilpotent=("A", ("N1", "N2"), False), derived=_SUMS, degrees=_RAISED,
        conclusions=(_Conclusion(
            _Vanishes("perturbed_defect", "P", "Q", "X", "t1", "t2"),
            (("below_t1", "t1-1", "t2"), ("below_t2", "t1", "t2-1")),
            (("t1", "t1"), ("t2", "t2"), ("n1", "order_N1"), ("n2", "order_N2")),
        ),),
    ),
    # The three perturbation implications for two base pairs sharing the nilpotents.
    "cor05": Theorem(
        "cor05",
        nilpotent=("A1", ("N1", "N2"), True), degrees=_RAISED,
        derived=(("P1", sum_stacks, "A1", "N1"), ("Q1", sum_stacks, "B1", "N2"),
                 ("P2", sum_stacks, "A2", "N1"), ("Q2", sum_stacks, "B2", "N2")),
        stages=(_commutator_stage, _nilpotent_stage, _hypothesis_stage, _derived_stage, _cor05_stage),
    ),
    # Adjoint specialization: one nilpotent perturbs both sides, degrees rise by 2n-2.
    "cor050": Theorem(
        "cor050",
        nilpotent=("T", ("N",), True),
        derived=(("P", sum_stacks, "T*", "N"), ("Q", sum_stacks, "T", "N")),
        degrees=(("t1", "m1+order_N+order_N-2"), ("t2", "m2+order_N+order_N-2")),
        conclusions=(_Conclusion(_Vanishes("perturbed_defect", "P", "Q", "X", "t1", "t2"), (), (("order", "order_N"),)),),
    ),
    # Products of cross-commuting defect-annihilated pairs vanish at (m+r-1, n+s-1).
    #
    # The hypotheses are the commutation of (A, S), (B, S), (B, T) and the four
    # cross-assigned combined defects.
    "thm06": Theorem(
        "thm06",
        derived=(("P", product_stacks, "S", "A"), ("Q", product_stacks, "T", "B")),
        degrees=(("t1", "m+r-1"), ("t2", "n+s-1")),
        conclusions=(_Conclusion(
            _Vanishes("product_defect", "P", "Q", "X", "t1", "t2"), (("below_t1", "t1-1", "t2"),), (("t1", "t1"), ("t2", "t2")),
        ),),
    ),
    # Single-kind product implication: both pairs isometric (or both symmetric).
    "cor06": Theorem(
        "cor06", derived=_PRODUCTS, degrees=(("degree", "m+n-1"),),
        conclusions=_product(("below", "degree-1", "degree-1")), stages=_PRODUCT_STAGES,
    ),
    # Conjugation-twisted product implications for pairs (S*, CSC) and (T*, CTC).
    "cor061": Theorem(
        "cor061",
        derived=(("P", product_stacks, "S*", "T*"), ("ST", product_stacks, "S", "T"), ("Q", np.conjugate, "ST")),
        degrees=(("degree", "m+n-1"),), stages=(_commutator_stage, _derived_stage, _cor061_stage),
    ),
    # Single operator times tuple: the product inherits degree m+n-1.
    "cor062": Theorem(
        "cor062", derived=_PRODUCTS, degrees=(("degree", "m+n-1"),),
        conclusions=_product(), stages=(_single_operator_stage, *_PRODUCT_STAGES),
    ),
    # Tensor products of defect-annihilated pairs vanish at the combined degrees.
    "thm07": Theorem(
        "thm07",
        derived=(("A(x)S", tensor_stacks, "A", "S"), ("B(x)T", tensor_stacks, "B", "T")),
        degrees=(("degree", "m+n-1"), ("t1", "m+r-1"), ("t2", "n+s-1")),
        conclusions=(
            _Conclusion(_Vanishes("tensor_defect", "A(x)S", "B(x)T", "I", "degree", "degree", kind=("iso", "sym"),
                                  when=("variant", "i")), (), (("degree", "degree"),)),
            _Conclusion(_Vanishes("tensor_defect", "A(x)S", "B(x)T", "I", "t1", "t2", when=("variant", "ii")), (),
                        (("t1", "t1"), ("t2", "t2"))),
        ),
        stages=(_derived_stage, _variant_stage, _hypothesis_stage, _sharp_conclusions),
    ),
}

THEOREM_IDS = tuple(THEOREMS)

#: Each entry's ``check`` under the name ``check_<id>``, in campaign order: the
#: benchmark's tracer (``perfbench/tracing.py``) wraps these names, and nothing in
#: the package calls them.
(check_pro01, check_pro02, check_pro03, check_pro04, check_pro5, check_thm05, check_cor05, check_cor050,
 check_thm06, check_cor06, check_cor061, check_cor062, check_thm07) = (entry.check for entry in THEOREMS.values())


#: The frozen matrices of the mixing example, as JSON matrix literals: S* A0 S,
#: S*^2 A0 S^2 and the degree-2 defect of (S*, S) at A0.
GOLDEN_MATRICES = {
    "S_A0_S": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]],
    "S2_A0_S2": [[[1, 0], [1, -1]], [[1, 1], [2, 0]]],
    "triangle2_S": [[[-1, 0], [-1, -1]], [[-1, 1], [1, 0]]],
}

#: The largest difference a golden check passes with, but for the two relative checks.
GOLDEN_TOL_ABS = 1e-12


def golden_suite(golden: dict | None = None) -> list[dict]:
    """Every frozen value of the built-in 2x2 examples, as named checks.

    Each check is ``{"name", "max_abs_diff", "passed"}``; it passes when the
    difference is at most ``GOLDEN_TOL_ABS``, or 1e-9 for the two relative checks
    over degrees 1..6.  ``golden`` overrides entries of ``GOLDEN_MATRICES``; a key
    that is not one of them is refused.
    """
    if unknown := [key for key in golden or {} if key not in GOLDEN_MATRICES]:
        raise InvalidArgumentError(f"unknown golden key {unknown[0]!r}; known keys: {', '.join(GOLDEN_MATRICES)}")
    golden = {**GOLDEN_MATRICES, **(golden or {})}
    T, A0, U, S = paper_example_mixing()
    pair_t = (OperatorTuple.of(mc.adjoint(T)), OperatorTuple.of(T))
    pair_s = (OperatorTuple.of(mc.adjoint(S)), OperatorTuple.of(S))
    A_sq, B_sq = paper_example_squares()
    eye = mc.identity(2)
    checks = []

    def add(name, diff, limit=GOLDEN_TOL_ABS):
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


def check_ex00_golden() -> TrialResult:
    """Reproduce every frozen value of the built-in 2x2 examples (``golden_suite``).

    Passes only if every check passes; ``defects`` maps each check to its difference.
    """
    checks = golden_suite()
    failed = [c for c in checks if not c["passed"]]
    return TrialResult(
        status="counterexample" if failed else "pass",
        reason=", ".join(f"{c['name']} mismatch {c['max_abs_diff']:.3e}" for c in failed),
        defects={c["name"]: c["max_abs_diff"] for c in checks},
    )


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

    def trial_seeds(self) -> Sequence[int]:
        """The seed of each requested trial: a range for the ``seed``/``trials`` form, so
        that a budgeted campaign builds no seed it does not reach."""
        if self.seeds is not None:
            return tuple(self.seeds)[: self.trials]
        return range(self.seed, self.seed + self.trials)


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


def _run_chunk(theorem_id: str, seeds: Sequence[int], tol: mc.Tolerance, t_max: int) -> list[TrialResult]:
    """The result of each seed: its id's stages on the builder's classes of the chunk's
    instances (``generators._chunk``).  A refused chunk is checked again as bundles,
    so that it raises what its first refusing trial raises alone (``Theorem.program``)."""
    entry = THEOREMS[theorem_id]
    classes = [  # the builder's stacks, and each parameter's values over its class
        _Columns(positions, {**{name: [p[name] for p in params] for name in params[0]}, **matrices, **tuples},
                 entry.degrees)
        for positions, tuples, matrices, params in _chunk(entry.profile, seeds)
    ]
    try:
        return entry._results(classes, len(seeds), tol, t_max)
    except InvalidArgumentError:
        return entry.program(random_instances(entry.profile, seeds), tol, t_max)


def _counterexample_record(
    trial: int, seed: int, result: TrialResult, entry: Theorem | None, tol: mc.Tolerance
) -> dict:
    """A counterexample's inputs and defects; a generated one also carries its instance,
    built again from its seed with the same bits, and the defect profile, judged at the
    campaign's tolerance, of the pair ``entry`` tests."""
    record = {
        "trial": trial,
        "seed": seed,
        "reason": result.reason,
        "defects": {k: float(v) for k, v in result.defects.items()},
    }
    if entry is not None:
        bundle = random_instance(entry.profile, seed)
        record["bundle"] = bundle.to_json()
        profile = classify.defect_profile(*entry.pair(bundle), k_max=12, tol=tol)
        record["defect_profile"] = profile.to_json()
    return record


def run_campaign(config: CampaignConfig) -> CampaignReport:
    """Run the configured checks; deterministic given the seeds (modulo wall time).

    Trials run in chunks of up to ``LOCKSTEP_TRIALS`` seeds, whose instances are
    generated together and checked on their builders' stacks by one call of the
    id's column program, with the bits each trial gives alone; a refused chunk raises what its first
    refusing trial raises alone.  A budgeted campaign runs chunks of one trial
    and checks the budget before each, so it stops within one trial of its
    deadline and its report covers, and lists, a prefix of the seeds.  The
    golden check takes no seed, so it runs once, on the first trial, and its
    result stands for every later one.
    """
    start = time.monotonic()
    deadline = None if config.budget_s is None else start + config.budget_s
    seeds = config.trial_seeds()
    size = LOCKSTEP_TRIALS if deadline is None else 1
    results: list[TrialResult] = []
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
            results += [golden] * len(chunk)
        else:
            results += _run_chunk(config.theorem_id, chunk, config.tol, config.t_max)

    counts = Counter(result.status for result in results)
    entry = THEOREMS.get(config.theorem_id)
    counterexamples = tuple(
        _counterexample_record(i, seeds[i], result, entry, config.tol)
        for i, result in enumerate(results)
        if result.status == "counterexample"
    )
    witnesses = tuple(
        {"trial": i, "seed": seeds[i], "sharpness": dict(result.sharpness)}
        for i, result in enumerate(results)
        if result.is_sharp
    )
    # a skipped trial judged no conclusion
    concluded = [result.conclusion for result in results if result.status != "skip"]
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
        seeds=tuple(seeds[: len(results)]),
        budget_exceeded=budget_exceeded,
        wall_time=time.monotonic() - start,
    )


def report_to_json_str(report: CampaignReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True, indent=2)
