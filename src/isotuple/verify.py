"""Identity-level checkers and randomized campaigns.

Each built-in check tests, in order, the commutators of its instance
(``_noncommuting``), its hypothesis defects (``_failed_hypothesis``) and its
conclusions at the derived degrees (``_verdict``); pro01-pro03 judge bespoke
bounds in their own bodies.  A failed commutator or hypothesis skips the
trial (an invalid instance never refutes an identity).  Each list of zero
tests (``_zero_tests``) takes the spectral norms of its tuples from one call.
Conclusion failures inside a small gray band above the threshold count as
tolerance anomalies; decisive failures are serialized as counterexamples
with full inputs and a defect profile for post-mortem.

Campaign reports are deterministic functions of (theorem_id, seeds,
tolerance); wall-clock data lives in the ``timestamp`` envelope of the JSON
so two runs with the same seed are byte-identical outside that field.
"""

from __future__ import annotations

import json
import math
import time
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import classify, matrix_core as mc, transforms as tf
from .errors import InvalidArgumentError
from .generators import (
    InstanceBundle,
    paper_example_mixing,
    paper_example_squares,
    random_instance,
)
from .tuples import (
    OperatorTuple,
    PowerConvention,
    adjoint_tuple,
    commutes_cross,
    commutes_within,
    conj_tuple,
    inverse_tuple,
    max_commutator_cross,
    max_commutator_within,
    nilpotency_order,
    power_tuple,
    product_tuple,
    spectral_norms,
    sum_tuple,
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


def _noncommuting(tol: mc.Tolerance, *pairs: tuple) -> TrialResult | None:
    """The skip for the first ``(label, S, T)`` whose commutators do not vanish, or
    None: those within S when T is S, else every [S_i, T_j].  ``label`` is the reason."""
    for label, S, T in pairs:
        if T is S:
            if not commutes_within(S, tol):
                return _skip(label, residual=max_commutator_within(S))
        elif not commutes_cross(S, T, tol):
            return _skip(label, residual=max_commutator_cross(S, T))
    return None


def _zero_tests(tol: mc.Tolerance, *tests: tuple) -> list[tuple[str, float, float]]:
    """``(name, norm, threshold)`` of each degree-(m, n) zero test ``(name, A, B, X, m, n)``;
    the spectral norms of all their tuples come from one batched call."""
    spectral_norms(*(T for _, A, B, *_ in tests for T in (A, B)))
    return [(name, *tf.defect_check(A, B, X, m, n, tol)) for name, A, B, X, m, n in tests]


def _failed_hypothesis(tol: mc.Tolerance, *hypotheses: tuple) -> TrialResult | None:
    """The skip for the first hypothesis ``(reason, A, B, X, m, n)`` whose
    degree-(m, n) zero test fails, or None when every one passes."""
    for reason, norm, threshold in _zero_tests(tol, *hypotheses):
        if norm > threshold:
            return _skip(reason, residual=norm)
    return None


def _product_of_one_kind(
    tol: mc.Tolerance, kind: str, reason: str, factors: tuple, product: tuple,
    name: str = "product_defect", sharp: bool = False,
) -> TrialResult:
    """Two factor pairs (A, B, X, k) whose defects of one kind vanish at degrees
    m and n imply that the ``product`` pair (P, Q, Z) vanishes at degree m+n-1.
    A failing factor skips with ``reason``; ``sharp`` records the degree below."""
    hypotheses = ((reason, A, B, X, *_degrees(kind, k)) for A, B, X, k in factors)
    if skip := _failed_hypothesis(tol, *hypotheses):
        return skip
    P, Q, Z = product
    deg = sum(k for *_, k in factors) - 1
    below = {}
    if sharp and deg >= 1:
        below["below"] = mc.fro_norm((tf.triangle if kind == "iso" else tf.delta)(P, Q, Z, deg - 1))
    return _verdict(
        _zero_tests(tol, (name, P, Q, Z, *_degrees(kind, deg))),
        {"degree": float(deg)},
        sharpness=below,
        is_sharp=below.get("below", 0.0) > SHARPNESS_FLOOR,
    )


# ---------------------------------------------------------------------------
# individual checkers


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

    The defects of degrees 0..m and the Cesaro error all come from one run
    of t_max sigma iterates.
    """
    A, B, X = bundle.tuples["A"], bundle.tuples["B"], bundle.matrices["X"]
    m = int(bundle.params["m"])
    scale_m = tf.defect_scale(A, B, X, m)
    sig = tf.sigma_iterates(A, B, X, m)
    defect_m = mc.fro_norm(tf.triangle_of_iterates(sig, m))
    if defect_m > tol.threshold(scale_m):
        return _skip(f"not (X,{m})-isometric", isometry_defect=defect_m)
    e_final = tf.cesaro_error(A, B, sig, m, t_max)
    lower = [mc.fro_norm(tf.triangle_of_iterates(sig, j)) for j in range(m)]
    c_const = 5.0 * max(lower)
    bound = c_const * (m - 1) / t_max + tol.threshold(scale_m)
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
        thr1 = tol.threshold(tf.defect_scale(A, B, X, m - 1))
        checks.append(("collapse_defect", lower[m - 1], thr1))
    checks.append(("cesaro_error", e_final, bound))
    return _verdict(checks, extra)


def check_pro02(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Norm-limits of defect-annihilated families keep the combined identity.

    The first family member must satisfy its declared identity (hypothesis);
    the member sequence must converge in norm to the declared limit.  A limit
    that decisively fails while the first member passed is a counterexample
    (a drifting family), not a skip.
    """
    m1, m2 = int(bundle.params["m1"]), int(bundle.params["m2"])
    degrees = (m1, 0) if bundle.params["kind"] == "triangle" else (0, m2)
    count = int(bundle.params["members"])
    X = bundle.matrices["X"]
    members = [(bundle.tuples[f"A{j}"], bundle.tuples[f"B{j}"]) for j in range(count)]
    A_lim, B_lim = bundle.tuples["A_limit"], bundle.tuples["B_limit"]
    # the scales of every member and of the limit, from one LAPACK call
    spectral_norms(*(T for pair in members for T in pair), A_lim, B_lim)

    # each member's largest componentwise distance from the limit
    lim = np.concatenate([A_lim.stack, B_lim.stack])
    conv = [max(map(mc.fro_norm, np.concatenate([a.stack, b.stack]) - lim)) for a, b in members]
    if any(conv[i + 1] > conv[i] + tol.abs_eps for i in range(len(conv) - 1)):
        raise InvalidArgumentError("family does not converge: residuals are not decreasing")

    first_norm, first_threshold = tf.defect_check(*members[0], X, *degrees, tol)
    if first_norm > first_threshold:
        return _skip("first family member violates its identity", member_defect=first_norm)
    # later members drifting off the identity refute the closure claim
    for j, (A_j, B_j) in enumerate(members[1:], start=1):
        norm_j, threshold_j = tf.defect_check(A_j, B_j, X, *degrees, tol)
        verdict = _judge(norm_j, threshold_j)
        if verdict != "pass":
            return TrialResult(
                status=verdict,
                reason=f"member {j} defect drifted to {norm_j:.3e}",
                defects={"member_index": float(j), "member_defect": norm_j},
                conclusion=norm_j,
            )

    norm_lim = mc.fro_norm(tf.isosym_defect(A_lim, B_lim, X, m1, m2))
    scale_lim = tf.defect_scale(A_lim, B_lim, X, m1, m2)
    # convergence slack: the defect is Lipschitz in the tuple within a factor
    # of the degree times the scale, applied to the last residual
    slack = 10.0 * (m1 + m2) * conv[-1] * scale_lim
    threshold = tol.threshold(scale_lim) + slack
    return _verdict([("limit_defect", norm_lim, threshold)], {"last_residual": conv[-1]})


def check_pro03(
    bundle: InstanceBundle, m: int | None = None, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> TrialResult:
    """Reduction to the last pair when the first d-1 pairs are degree-1 annihilators.

    Part (a): with (A_i, B_i) degree-1 isometric on X for i < d, the full pair
    is (X,m)-isometric iff ((d-2) I + L_{A_d} R_{B_d})^m (X) = 0.
    Part (b): the symmetric analogue, reducing to the last pair's delta defect.
    The scales of every one-component pair and of the full pair come from one
    LAPACK call.
    """
    A, B, X = bundle.tuples["A"], bundle.tuples["B"], bundle.matrices["X"]
    if m is None:
        m = int(bundle.params["m"])
    kind = "iso" if bundle.params.get("part", "a") == "a" else "sym"
    d = A.d
    if d < 2:
        return _skip("reduction needs d >= 2")
    pairs = [(OperatorTuple.of(a), OperatorTuple.of(b)) for a, b in zip(A, B)]
    spectral_norms(*(T for pair in pairs for T in pair), A, B)
    for i, (Ai, Bi) in enumerate(pairs[:-1]):
        res, threshold = tf.defect_check(Ai, Bi, X, *_degrees(kind, 1), tol)
        if res > threshold:
            return _skip(f"pair {i} is not degree-1 annihilating", residual=res)

    lhs_norm, lhs_thr = tf.defect_check(A, B, X, *_degrees(kind, m), tol)
    if kind == "iso":
        # sum_j C(m, j) (d-2)^(m-j) A_d^j X B_d^j, the terms added in order onto zero
        Ad, Bd = pairs[-1]
        coeffs = [tf.binomial(m, j) * float((d - 2) ** (m - j)) for j in range(m + 1)]
        terms = np.array(coeffs)[:, None, None] * (Ad.sum_powers(m) @ X @ Bd.sum_powers(m))
        rhs_norm = mc.fro_norm(mc.ordered_sum(terms))
        rhs_thr = tol.threshold(
            tf.grown_scale(
                mc.fro_norm(X), 1.0 + abs(d - 2) + A.op_norms[d - 1] * B.op_norms[d - 1], m
            )
        )
    else:
        rhs_norm, rhs_thr = tf.defect_check(*pairs[-1], X, 0, m, tol)

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


def check_pro04(A_hilbert: OperatorTuple, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Degree-2 symmetry of the adjoint pair at I forces a self-adjoint component sum."""
    pair = (adjoint_tuple(A_hilbert), A_hilbert, mc.identity(A_hilbert.dim))
    if skip := _failed_hypothesis(tol, ("adjoint pair is not (I,2)-symmetric", *pair, 0, 2)):
        return skip
    s = A_hilbert.component_sum()
    residual = mc.fro_norm(s - s.conj().T)
    threshold = tol.threshold(mc.fro_norm(s))
    return _verdict([("selfadjoint_residual", residual, threshold)])


def check_pro5(
    A_hilbert: OperatorTuple, m_even: int, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> TrialResult:
    """Even symmetric degree of the adjoint pair at I collapses to the odd degree below."""
    if not isinstance(m_even, int) or m_even < 2 or m_even % 2 != 0:
        raise InvalidArgumentError(f"m must be a positive even integer, got {m_even!r}")
    pair = (adjoint_tuple(A_hilbert), A_hilbert, mc.identity(A_hilbert.dim))
    hypothesis = (f"adjoint pair is not (I,{m_even})-symmetric", *pair, 0, m_even)
    if skip := _failed_hypothesis(tol, hypothesis):
        return skip
    return _verdict(_zero_tests(tol, ("odd_degree_defect", *pair, 0, m_even - 1)))


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
    names = ("A", "B", "N1", "N2")
    within = [(f"tuple {name} does not commute", T, T) for name, T in zip(names, (A, B, N1, N2))]
    if skip := _noncommuting(tol, *within, ("[A, N1] != 0", A, N1), ("[B, N2] != 0", B, N2)):
        return skip
    n1 = nilpotency_order(N1, max_order=A.dim, tol=tol)
    n2 = nilpotency_order(N2, max_order=A.dim, tol=tol)
    if n1 is None or n2 is None:
        return _skip("perturbation tuple is not nilpotent up to the dimension")
    base = ("base pair violates the combined identity", A, B, X, m1, m2)
    if skip := _failed_hypothesis(tol, base):
        return skip
    t1, t2 = m1 + n1 + n2 - 2, m2 + n1 + n2 - 2
    A_p, B_p = sum_tuple(A, N1), sum_tuple(B, N2)
    sharp = {}
    if t1 >= 1:
        sharp["below_t1"] = mc.fro_norm(tf.isosym_defect(A_p, B_p, X, t1 - 1, t2))
    if t2 >= 1:
        sharp["below_t2"] = mc.fro_norm(tf.isosym_defect(A_p, B_p, X, t1, t2 - 1))
    return _verdict(
        _zero_tests(tol, ("perturbed_defect", A_p, B_p, X, t1, t2)),
        {"t1": float(t1), "t2": float(t2), "n1": float(n1), "n2": float(n2)},
        sharpness=sharp,
        is_sharp=sharp.get("below_t1", 0.0) > SHARPNESS_FLOOR,
    )


def check_cor05(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """The three perturbation implications for two base pairs sharing the nilpotents."""
    A1, B1, A2, B2, N1, N2, X, m1, m2 = _args(bundle, "A1 B1 A2 B2 N1 N2 X m1 m2")
    names = ("A1,N1", "A2,N1", "B1,N2", "B2,N2", "A1,A2", "B1,B2")
    pairs = ((f"[{name}] != 0", *_args(bundle, name.replace(",", " "))) for name in names)
    if skip := _noncommuting(tol, *pairs):
        return skip
    n1 = nilpotency_order(N1, max_order=A1.dim, tol=tol)
    n2 = nilpotency_order(N2, max_order=A1.dim, tol=tol)
    if n1 is None or n2 is None:
        return _skip("perturbation tuple is not nilpotent up to the dimension")
    if skip := _failed_hypothesis(
        tol,
        ("first pair violates its isometric identity", A1, B1, X, m1, 0),
        ("second pair violates its symmetric identity", A2, B2, X, 0, m2),
    ):
        return skip
    P1, Q1 = sum_tuple(A1, N1), sum_tuple(B1, N2)
    P2, Q2 = sum_tuple(A2, N1), sum_tuple(B2, N2)
    t1, t2 = m1 + n1 + n2 - 2, m2 + n1 + n2 - 2
    checks = _zero_tests(
        tol, ("triangle_perturbed", P1, Q1, X, t1, 0), ("delta_perturbed", P2, Q2, X, 0, t2)
    )
    combined = mc.fro_norm(tf.triangle(P1, Q1, tf.delta(P2, Q2, X, t2), t1))
    combined_scale = tf.grown_scale(tf.defect_scale(P1, Q1, X, t1), tf.sym_scale_factor(P2, Q2), t2)
    checks.append(("combined_perturbed", combined, tol.threshold(combined_scale)))
    return _verdict(checks, {"n1": float(n1), "n2": float(n2)})


def check_cor050(
    T_hilbert: OperatorTuple,
    N: OperatorTuple,
    X,
    m1: int,
    m2: int,
    tol: mc.Tolerance = mc.DEFAULT_TOL,
) -> TrialResult:
    """Adjoint specialization: one nilpotent perturbs both sides, degrees rise by 2n-2."""
    T_star = adjoint_tuple(T_hilbert)
    cross = "[T, N] != 0 or [T*, N] != 0"
    if skip := _noncommuting(
        tol, ("T does not commute", T_hilbert, T_hilbert), (cross, T_hilbert, N), (cross, T_star, N)
    ):
        return skip
    order = nilpotency_order(N, max_order=T_hilbert.dim, tol=tol)
    if order is None:
        return _skip("perturbation tuple is not nilpotent up to the dimension")
    base = ("base adjoint pair violates the combined identity", T_star, T_hilbert, X, m1, m2)
    if skip := _failed_hypothesis(tol, base):
        return skip
    P, Q = sum_tuple(T_star, N), sum_tuple(T_hilbert, N)
    conclusion = ("perturbed_defect", P, Q, X, m1 + 2 * order - 2, m2 + 2 * order - 2)
    return _verdict(_zero_tests(tol, conclusion), {"order": float(order)})


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
    hypotheses = (
        ("hypothesis AB_mn fails", A, B, X, m, n),
        ("hypothesis ST_rs fails", S, T, X, r, s),
        ("hypothesis ST_rn fails", S, T, X, r, n),
        ("hypothesis AB_ms fails", A, B, X, m, s),
    )
    if skip := _noncommuting(
        tol, ("[A,S] != 0", A, S), ("[B,S] != 0", B, S), ("[B,T] != 0", B, T)
    ) or _failed_hypothesis(tol, *hypotheses):
        return skip
    SA = product_tuple(S, A)
    TB = product_tuple(T, B)
    t1, t2 = m + r - 1, n + s - 1
    sharp = {}
    if t1 >= 1:
        sharp["below_t1"] = mc.fro_norm(tf.isosym_defect(SA, TB, X, t1 - 1, t2))
    return _verdict(
        _zero_tests(tol, ("product_defect", SA, TB, X, t1, t2)),
        {"t1": float(t1), "t2": float(t2)},
        sharpness=sharp,
        is_sharp=sharp.get("below_t1", 0.0) > SHARPNESS_FLOOR,
    )


def check_cor06(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Single-kind product implication: both pairs isometric (or both symmetric)."""
    A, B, S, T, X, m, n = _args(bundle, "A B S T X m n")
    if skip := _noncommuting(tol, ("[A,S] != 0", A, S), ("[B,S] != 0", B, S), ("[B,T] != 0", B, T)):
        return skip
    return _product_of_one_kind(
        tol, bundle.params["kind"], "a factor pair violates its identity",
        ((A, B, X, m), (S, T, X, n)), (product_tuple(A, S), product_tuple(B, T), X), sharp=True,
    )


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
    if skip := _noncommuting(tol, ("[S, T] != 0", S, T), ("[S*, CTC] != 0", S_star, CTC)):
        return skip
    prod_star = product_tuple(S_star, T_star)
    prod_conj = conj_tuple(product_tuple(S, T))
    deg = m + n - 1
    defects: dict[str, float] = {}
    checks = []
    for kind in ("iso", "sym"):
        hypotheses = _zero_tests(
            tol,
            (f"hyp_{kind}_S", S_star, CSC, X, *_degrees(kind, m)),
            (f"hyp_{kind}_T", T_star, CTC, X, *_degrees(kind, n)),
        )
        defects.update((name, norm) for name, norm, _ in hypotheses)
        if all(norm <= threshold for _, norm, threshold in hypotheses):
            conclusion = (f"product_defect_{kind}", prod_star, prod_conj, X, *_degrees(kind, deg))
            checks += _zero_tests(tol, conclusion)
    if not checks:
        return _skip("neither implication has valid hypotheses", **defects)
    return _verdict(checks, defects)


def check_cor062(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Single operator times tuple: the product inherits degree m+n-1."""
    A, B, S, T, X, m, n = _args(bundle, "A B S T X m n")
    if A.d != 1 or B.d != 1:
        return _skip("A and B must be single operators")
    cross = "[A, S] != 0 or [B, T] != 0"
    if skip := _noncommuting(tol, (cross, A, S), (cross, B, T)):
        return skip
    return _product_of_one_kind(
        tol, bundle.params["kind"], "a factor violates its identity",
        ((A, B, X, m), (S, T, X, n)), (product_tuple(A, S), product_tuple(B, T), X),
    )


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
        return _product_of_one_kind(
            tol, kind, "a factor pair violates its identity",
            ((A, B, X_a, m), (S, T, X_s, n)), tensor, name="tensor_defect",
        )

    if variant != "ii":
        raise InvalidArgumentError(f"variant must be 'i' or 'ii', got {variant!r}")
    if r is None or s is None:
        raise InvalidArgumentError("variant ii needs r and s")
    if skip := _failed_hypothesis(
        tol,
        ("first pair violates the combined identity", A, B, X_a, m, n),
        ("second pair violates its identities", S, T, X_s, r, 0),
        ("second pair violates its identities", S, T, X_s, 0, s),
    ):
        return skip
    t1, t2 = m + r - 1, n + s - 1
    return _verdict(
        _zero_tests(tol, ("tensor_defect", *tensor, t1, t2)), {"t1": float(t1), "t2": float(t2)}
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
    """One campaign id: the generator profile of its instances, ``check(bundle, tol,
    t_max)`` that tests one instance, and ``pair(bundle)``, the (A, B, X) whose
    defect profile a counterexample record carries."""

    profile: str
    check: Callable[[InstanceBundle, mc.Tolerance, int], TrialResult]
    pair: Callable[[InstanceBundle], tuple[OperatorTuple, OperatorTuple, np.ndarray]]


def _pair(names: str = "A B X"):
    return lambda bundle: tuple(_args(bundle, names))


def _adjoint_pair(key: str):
    return lambda bundle: (adjoint_tuple(bundle.tuples[key]), *_args(bundle, f"{key} X"))


def _check_thm07(bundle: InstanceBundle, tol: mc.Tolerance, t_max: int) -> TrialResult:
    p = bundle.params
    return check_thm07(
        *_args(bundle, "A B S T m n"),
        r=int(p["r"]) if "r" in p else None,
        s=int(p["s"]) if "s" in p else None,
        variant=str(p["variant"]),
        kind=str(p.get("kind", "iso")),
        tol=tol,
    )


#: The registry, one entry per theorem id, in campaign order.  The lambdas
#: look each ``check_*`` up when a trial runs, so a wrapped checker is the one called.
THEOREMS = {
    "pro01": Theorem("pro01", lambda b, tol, t_max: check_pro01(b, t_max, tol), _pair()),
    "pro02": Theorem("pro02-family", lambda b, tol, _: check_pro02(b, tol), _pair("A0 B0 X")),
    "pro03": Theorem("pro03", lambda b, tol, _: check_pro03(b, tol=tol), _pair()),
    "pro04": Theorem(
        "pro04", lambda b, tol, _: check_pro04(*_args(b, "A"), tol), _adjoint_pair("A")
    ),
    "pro5": Theorem(
        "pro5", lambda b, tol, _: check_pro5(*_args(b, "A m_even"), tol), _adjoint_pair("A")
    ),
    "thm05": Theorem(
        "thm05", lambda b, tol, _: check_thm05(*_args(b, "A B N1 N2 X m1 m2"), tol), _pair()
    ),
    "cor05": Theorem("cor05", lambda b, tol, _: check_cor05(b, tol), _pair("A1 B1 X")),
    "cor050": Theorem(
        "cor050", lambda b, tol, _: check_cor050(*_args(b, "T N X m1 m2"), tol), _adjoint_pair("T")
    ),
    "thm06": Theorem(
        "thm06", lambda b, tol, _: check_thm06(*_args(b, "A B S T X m n r s"), tol), _pair()
    ),
    "cor06": Theorem("cor06", lambda b, tol, _: check_cor06(b, tol), _pair()),
    "cor061": Theorem(
        "cor061",
        lambda b, tol, _: check_cor061(*_args(b, "S T X m n"), tol),
        lambda b: (adjoint_tuple(b.tuples["S"]), conj_tuple(b.tuples["S"]), b.matrices["X"]),
    ),
    "cor062": Theorem("cor062", lambda b, tol, _: check_cor062(b, tol), _pair()),
    "thm07": Theorem(
        "thm07", _check_thm07, lambda b: (*_args(b, "A B"), mc.identity(b.tuples["A"].dim))
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
        # a NaN deadline never passes, so it would silently mean "no budget"
        if self.budget_s is not None and math.isnan(self.budget_s):
            raise InvalidArgumentError("budget must be a number of seconds, got nan")

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


def _run_trial(theorem_id: str, seed: int, tol: mc.Tolerance, t_max: int) -> tuple[TrialResult, InstanceBundle]:
    entry = THEOREMS[theorem_id]
    bundle = random_instance(entry.profile, seed)
    return entry.check(bundle, tol, t_max), bundle


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

    Trials run one after another, and the budget is checked before each, so a
    budgeted campaign stops within one trial of its deadline and its report
    covers a prefix of the seeds.  The golden check takes no seed, so it runs
    once, on the first trial, and its result stands for every later one.
    """
    start = time.monotonic()
    deadline = None if config.budget_s is None else start + config.budget_s
    seeds = config.trial_seeds()
    results: list[tuple[TrialResult, InstanceBundle | None]] = []
    budget_exceeded = False
    golden: TrialResult | None = None
    for seed in seeds:
        if deadline is not None and time.monotonic() > deadline:
            budget_exceeded = True
            break
        if config.theorem_id == "ex00-golden":
            if golden is None:
                golden = check_ex00_golden()
            results.append((golden, None))
        else:
            results.append(_run_trial(config.theorem_id, seed, config.tol, config.t_max))

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
