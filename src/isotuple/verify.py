"""Identity-level checkers and randomized campaigns.

Each built-in check validates its hypotheses on a supplied or generated
instance, then tests the conclusion with the scaled zero test.  Hypothesis
violations skip the trial (an invalid instance never refutes an identity);
conclusion failures inside a small gray band above the threshold count as
tolerance anomalies; decisive failures are serialized as counterexamples
with full inputs and a defect profile for post-mortem.

Campaign reports are deterministic functions of (theorem_id, seeds,
tolerance); wall-clock data lives in the ``timestamp`` envelope of the JSON
so two runs with the same seed are byte-identical outside that field.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

import numpy as np

from . import classify, matrix_core as mc, transforms as tf
from .errors import InvalidArgumentError
from .generators import InstanceBundle, paper_example_mixing, random_instance
from .tuples import (
    OperatorTuple,
    adjoint_tuple,
    commutes_cross,
    commutes_within,
    conj_tuple,
    max_commutator_cross,
    max_commutator_within,
    nilpotency_order,
    product_tuple,
    sum_tuple,
    tensor_tuple,
)

#: Conclusion norms within this factor above the pass threshold are tolerance
#: anomalies rather than counterexamples.
ANOMALY_BAND = 1e3

#: A defect one degree below a bound counts as a sharpness witness above this norm.
SHARPNESS_FLOOR = 1e-4

REPORT_SCHEMA_VERSION = "1"

THEOREM_IDS = (
    "pro01",
    "pro02",
    "pro03",
    "pro04",
    "pro5",
    "thm05",
    "cor05",
    "cor050",
    "thm06",
    "cor06",
    "cor061",
    "cor062",
    "thm07",
)

CAMPAIGN_IDS = THEOREM_IDS + ("ex00-golden",)


@dataclass(frozen=True)
class TrialResult:
    status: str  # pass | anomaly | counterexample | skip
    reason: str = ""
    defects: dict = field(default_factory=dict)
    sharpness: dict = field(default_factory=dict)
    is_sharp: bool = False

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


def _conclusion_result(
    name: str, norm: float, threshold: float, extra: dict | None = None, **kw
) -> TrialResult:
    status = _judge(norm, threshold)
    defects = {name: norm, f"{name}_threshold": threshold}
    if extra:
        defects.update(extra)
    reason = "" if status == "pass" else f"{name} = {norm:.3e} vs threshold {threshold:.3e}"
    return TrialResult(status=status, reason=reason, defects=defects, **kw)


def _hypothesis_ok(
    A: OperatorTuple, B: OperatorTuple, X, m: int, n: int, tol: mc.Tolerance
) -> tuple[bool, float]:
    defect = tf.isosym_defect(A, B, X, m, n)
    scale = tf.defect_scale(A, B, X, m, n)
    norm = mc.fro_norm(defect)
    return norm <= tol.threshold(scale), norm


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

    The defects of degrees 0..m and the Cesaro errors all come from one run
    of t_max sigma iterates.
    """
    A, B, X = bundle.tuples["A"], bundle.tuples["B"], bundle.matrices["X"]
    m = int(bundle.params["m"])
    scale_m = tf.defect_scale(A, B, X, m)
    sig = tf.sigma_iterates(A, B, X, m)
    defect_m = mc.fro_norm(tf.triangle_of_iterates(sig, m))
    if defect_m > tol.threshold(scale_m):
        return _skip(f"not (X,{m})-isometric", isometry_defect=defect_m)
    errors = tf.cesaro_errors(A, B, sig, m, t_max)
    lower = [mc.fro_norm(tf.triangle_of_iterates(sig, j)) for j in range(m)]
    c_const = 5.0 * max(lower)
    bound = c_const * (m - 1) / t_max + tol.threshold(scale_m)
    e_final = errors[-1][1]
    extra = {"cesaro_bound": bound, "t_max": float(t_max)}

    sig_hat = tf.superop_matrix(A, B, "sigma")
    eigs = np.linalg.eigvals(sig_hat)
    normality = mc.fro_norm(sig_hat @ sig_hat.conj().T - sig_hat.conj().T @ sig_hat)
    invertible = bool(np.min(np.abs(eigs)) > 1e-6)
    unitary_like = invertible and normality <= 1e-8 * max(
        mc.fro_norm(sig_hat) ** 2, 1.0
    ) and bool(np.min(np.abs(eigs)) >= 1.0 - 1e-8)
    extra["sigma_invertible"] = float(invertible)
    if unitary_like:
        dm1 = lower[m - 1]
        thr1 = tol.threshold(tf.defect_scale(A, B, X, m - 1))
        extra["collapse_defect"] = dm1
        if _judge(dm1, thr1) != "pass":
            return _conclusion_result("collapse_defect", dm1, thr1, extra=extra)
    return _conclusion_result("cesaro_error", e_final, bound, extra=extra)


def check_pro02(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Norm-limits of defect-annihilated families keep the combined identity.

    The first family member must satisfy its declared identity (hypothesis);
    the member sequence must converge in norm to the declared limit.  A limit
    that decisively fails while the first member passed is a counterexample
    (a drifting family), not a skip.
    """
    kind = bundle.params["kind"]
    m1, m2 = int(bundle.params["m1"]), int(bundle.params["m2"])
    count = int(bundle.params["members"])
    X = bundle.matrices["X"]
    members = [(bundle.tuples[f"A{j}"], bundle.tuples[f"B{j}"]) for j in range(count)]
    A_lim, B_lim = bundle.tuples["A_limit"], bundle.tuples["B_limit"]

    conv = []
    for A_j, B_j in members:
        conv.append(
            max(
                mc.fro_norm(a - b)
                for a, b in zip(list(A_j) + list(B_j), list(A_lim) + list(B_lim))
            )
        )
    if any(conv[i + 1] > conv[i] + tol.abs_eps for i in range(len(conv) - 1)):
        raise InvalidArgumentError("family does not converge: residuals are not decreasing")

    def member_defect(A_j, B_j):
        if kind == "triangle":
            return mc.fro_norm(tf.triangle(A_j, B_j, X, m1)), tf.defect_scale(A_j, B_j, X, m1)
        return mc.fro_norm(tf.delta(A_j, B_j, X, m2)), tf.defect_scale(A_j, B_j, X, 0, m2)

    first_norm, first_scale = member_defect(*members[0])
    if first_norm > tol.threshold(first_scale):
        return _skip("first family member violates its identity", member_defect=first_norm)
    # later members drifting off the identity refute the closure claim
    for j, (A_j, B_j) in enumerate(members[1:], start=1):
        norm_j, scale_j = member_defect(A_j, B_j)
        verdict = _judge(norm_j, tol.threshold(scale_j))
        if verdict != "pass":
            return TrialResult(
                status=verdict,
                reason=f"member {j} defect drifted to {norm_j:.3e}",
                defects={"member_index": float(j), "member_defect": norm_j},
            )

    norm_lim = mc.fro_norm(tf.isosym_defect(A_lim, B_lim, X, m1, m2))
    scale_lim = tf.defect_scale(A_lim, B_lim, X, m1, m2)
    # convergence slack: the defect is Lipschitz in the tuple within a factor
    # of the degree times the scale, applied to the last residual
    slack = 10.0 * (m1 + m2) * conv[-1] * scale_lim
    threshold = tol.threshold(scale_lim) + slack
    return _conclusion_result(
        "limit_defect", norm_lim, threshold, extra={"last_residual": conv[-1]}
    )


def check_pro03(
    bundle: InstanceBundle, m: int | None = None, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> TrialResult:
    """Reduction to the last pair when the first d-1 pairs are degree-1 annihilators.

    Part (a): with (A_i, B_i) degree-1 isometric on X for i < d, the full pair
    is (X,m)-isometric iff ((d-2) I + L_{A_d} R_{B_d})^m (X) = 0.
    Part (b): the symmetric analogue, reducing to the last pair's delta defect.
    """
    A, B, X = bundle.tuples["A"], bundle.tuples["B"], bundle.matrices["X"]
    if m is None:
        m = int(bundle.params["m"])
    part = bundle.params.get("part", "a")
    d = A.d
    if d < 2:
        return _skip("reduction needs d >= 2")
    norm_x = mc.fro_norm(X)
    for i in range(d - 1):
        Ai = OperatorTuple.of(A[i])
        Bi = OperatorTuple.of(B[i])
        if part == "a":
            res = mc.fro_norm(tf.triangle(Ai, Bi, X, 1))
            scale = tf.defect_scale(Ai, Bi, X, 1)
        else:
            res = mc.fro_norm(tf.delta(Ai, Bi, X, 1))
            scale = tf.defect_scale(Ai, Bi, X, 0, 1)
        if res > tol.threshold(scale):
            return _skip(f"pair {i} is not degree-1 annihilating", residual=res)

    if part == "a":
        lhs = tf.triangle(A, B, X, m)
        lhs_scale = tf.defect_scale(A, B, X, m)
        rhs = np.zeros_like(X)
        Ad_pow = [mc.identity(A.dim)]
        Bd_pow = [mc.identity(A.dim)]
        for _ in range(m):
            Ad_pow.append(Ad_pow[-1] @ A[d - 1])
            Bd_pow.append(Bd_pow[-1] @ B[d - 1])
        for j in range(m + 1):
            rhs += tf.binomial(m, j) * float((d - 2) ** (m - j)) * (Ad_pow[j] @ X @ Bd_pow[j])
        rhs_scale = tf.grown_scale(
            norm_x, 1.0 + abs(d - 2) + A.op_norms[d - 1] * B.op_norms[d - 1], m
        )
    else:
        lhs = tf.delta(A, B, X, m)
        lhs_scale = tf.defect_scale(A, B, X, 0, m)
        Ad = OperatorTuple.of(A[d - 1])
        Bd = OperatorTuple.of(B[d - 1])
        rhs = tf.delta(Ad, Bd, X, m)
        rhs_scale = tf.defect_scale(Ad, Bd, X, 0, m)

    lhs_norm, rhs_norm = mc.fro_norm(lhs), mc.fro_norm(rhs)
    lhs_thr, rhs_thr = tol.threshold(lhs_scale), tol.threshold(rhs_scale)
    lhs_pass, rhs_pass = lhs_norm <= lhs_thr, rhs_norm <= rhs_thr
    defects = {
        "lhs_defect": lhs_norm,
        "rhs_defect": rhs_norm,
        "lhs_threshold": lhs_thr,
        "rhs_threshold": rhs_thr,
    }
    if lhs_pass == rhs_pass:
        return TrialResult(status="pass", defects=defects)
    # disagreement within the gray band of either side is an anomaly
    gray = (lhs_thr <= lhs_norm <= ANOMALY_BAND * lhs_thr) or (
        rhs_thr <= rhs_norm <= ANOMALY_BAND * rhs_thr
    )
    status = "anomaly" if gray else "counterexample"
    return TrialResult(
        status=status,
        reason=f"equivalence broken: lhs_pass={lhs_pass}, rhs_pass={rhs_pass}",
        defects=defects,
    )


def check_pro04(A_hilbert: OperatorTuple, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Degree-2 symmetry of the adjoint pair at I forces a self-adjoint component sum."""
    A_star = adjoint_tuple(A_hilbert)
    X = mc.identity(A_hilbert.dim)
    hyp = mc.fro_norm(tf.delta(A_star, A_hilbert, X, 2))
    hyp_scale = tf.defect_scale(A_star, A_hilbert, X, 0, 2)
    if hyp > tol.threshold(hyp_scale):
        return _skip("adjoint pair is not (I,2)-symmetric", symmetry_defect=hyp)
    s = A_hilbert.component_sum()
    residual = mc.fro_norm(s - s.conj().T)
    threshold = tol.threshold(mc.fro_norm(s))
    return _conclusion_result("selfadjoint_residual", residual, threshold)


def check_pro5(
    A_hilbert: OperatorTuple, m_even: int, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> TrialResult:
    """Even symmetric degree of the adjoint pair at I collapses to the odd degree below."""
    if not isinstance(m_even, int) or m_even < 2 or m_even % 2 != 0:
        raise InvalidArgumentError(f"m must be a positive even integer, got {m_even!r}")
    A_star = adjoint_tuple(A_hilbert)
    X = mc.identity(A_hilbert.dim)
    hyp = mc.fro_norm(tf.delta(A_star, A_hilbert, X, m_even))
    if hyp > tol.threshold(tf.defect_scale(A_star, A_hilbert, X, 0, m_even)):
        return _skip(f"adjoint pair is not (I,{m_even})-symmetric", symmetry_defect=hyp)
    concl = mc.fro_norm(tf.delta(A_star, A_hilbert, X, m_even - 1))
    threshold = tol.threshold(tf.defect_scale(A_star, A_hilbert, X, 0, m_even - 1))
    return _conclusion_result("odd_degree_defect", concl, threshold)


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
    for name, T in (("A", A), ("B", B), ("N1", N1), ("N2", N2)):
        if not commutes_within(T, tol):
            return _skip(f"tuple {name} does not commute", residual=max_commutator_within(T))
    if not commutes_cross(A, N1, tol):
        return _skip("[A, N1] != 0", residual=max_commutator_cross(A, N1))
    if not commutes_cross(B, N2, tol):
        return _skip("[B, N2] != 0", residual=max_commutator_cross(B, N2))
    n1 = nilpotency_order(N1, max_order=A.dim, tol=tol)
    n2 = nilpotency_order(N2, max_order=A.dim, tol=tol)
    if n1 is None or n2 is None:
        return _skip("perturbation tuple is not nilpotent up to the dimension")
    ok, hyp = _hypothesis_ok(A, B, X, m1, m2, tol)
    if not ok:
        return _skip("base pair violates the combined identity", base_defect=hyp)
    t1 = m1 + n1 + n2 - 2
    t2 = m2 + n1 + n2 - 2
    A_p, B_p = sum_tuple(A, N1), sum_tuple(B, N2)
    concl = mc.fro_norm(tf.isosym_defect(A_p, B_p, X, t1, t2))
    threshold = tol.threshold(tf.defect_scale(A_p, B_p, X, t1, t2))
    sharp = {}
    if t1 >= 1:
        sharp["below_t1"] = mc.fro_norm(tf.isosym_defect(A_p, B_p, X, t1 - 1, t2))
    if t2 >= 1:
        sharp["below_t2"] = mc.fro_norm(tf.isosym_defect(A_p, B_p, X, t1, t2 - 1))
    is_sharp = sharp.get("below_t1", 0.0) > SHARPNESS_FLOOR
    return _conclusion_result(
        "perturbed_defect",
        concl,
        threshold,
        extra={"t1": float(t1), "t2": float(t2), "n1": float(n1), "n2": float(n2)},
        sharpness=sharp,
        is_sharp=is_sharp,
    )


def check_cor05(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """The three perturbation implications for two base pairs sharing the nilpotents."""
    A1, B1 = bundle.tuples["A1"], bundle.tuples["B1"]
    A2, B2 = bundle.tuples["A2"], bundle.tuples["B2"]
    N1, N2 = bundle.tuples["N1"], bundle.tuples["N2"]
    X = bundle.matrices["X"]
    m1, m2 = int(bundle.params["m1"]), int(bundle.params["m2"])
    for name, S, T in (
        ("A1,N1", A1, N1),
        ("A2,N1", A2, N1),
        ("B1,N2", B1, N2),
        ("B2,N2", B2, N2),
        ("A1,A2", A1, A2),
        ("B1,B2", B1, B2),
    ):
        if not commutes_cross(S, T, tol):
            return _skip(f"[{name}] != 0", residual=max_commutator_cross(S, T))
    n1 = nilpotency_order(N1, max_order=A1.dim, tol=tol)
    n2 = nilpotency_order(N2, max_order=A1.dim, tol=tol)
    if n1 is None or n2 is None:
        return _skip("perturbation tuple is not nilpotent up to the dimension")
    shift = n1 + n2 - 2
    defects: dict[str, float] = {"n1": float(n1), "n2": float(n2)}
    worst = ("", 0.0, float("inf"))  # name, norm, threshold

    hyp_tri = mc.fro_norm(tf.triangle(A1, B1, X, m1))
    if hyp_tri > tol.threshold(tf.defect_scale(A1, B1, X, m1)):
        return _skip("first pair violates its isometric identity", defect=hyp_tri)
    hyp_del = mc.fro_norm(tf.delta(A2, B2, X, m2))
    if hyp_del > tol.threshold(tf.defect_scale(A2, B2, X, 0, m2)):
        return _skip("second pair violates its symmetric identity", defect=hyp_del)

    P1, Q1 = sum_tuple(A1, N1), sum_tuple(B1, N2)
    P2, Q2 = sum_tuple(A2, N1), sum_tuple(B2, N2)
    checks = [
        (
            "triangle_perturbed",
            mc.fro_norm(tf.triangle(P1, Q1, X, m1 + shift)),
            tol.threshold(tf.defect_scale(P1, Q1, X, m1 + shift)),
        ),
        (
            "delta_perturbed",
            mc.fro_norm(tf.delta(P2, Q2, X, m2 + shift)),
            tol.threshold(tf.defect_scale(P2, Q2, X, 0, m2 + shift)),
        ),
        (
            "combined_perturbed",
            mc.fro_norm(
                tf.triangle(P1, Q1, tf.delta(P2, Q2, X, m2 + shift), m1 + shift)
            ),
            tol.threshold(
                tf.grown_scale(
                    tf.defect_scale(P1, Q1, X, m1 + shift),
                    tf.sym_scale_factor(P2, Q2),
                    m2 + shift,
                )
            ),
        ),
    ]
    status = "pass"
    for name, norm, thr in checks:
        defects[name] = norm
        verdict = _judge(norm, thr)
        if verdict != "pass" and status != "counterexample":
            status = verdict
            worst = (name, norm, thr)
    if status == "pass":
        return TrialResult(status="pass", defects=defects)
    return TrialResult(
        status=status,
        reason=f"{worst[0]} = {worst[1]:.3e} vs threshold {worst[2]:.3e}",
        defects=defects,
    )


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
    if not commutes_within(T_hilbert, tol):
        return _skip("T does not commute", residual=max_commutator_within(T_hilbert))
    if not commutes_cross(T_hilbert, N, tol) or not commutes_cross(T_star, N, tol):
        return _skip("[T, N] != 0 or [T*, N] != 0")
    order = nilpotency_order(N, max_order=T_hilbert.dim, tol=tol)
    if order is None:
        return _skip("perturbation tuple is not nilpotent up to the dimension")
    ok, hyp = _hypothesis_ok(T_star, T_hilbert, X, m1, m2, tol)
    if not ok:
        return _skip("base adjoint pair violates the combined identity", base_defect=hyp)
    t1 = m1 + 2 * order - 2
    t2 = m2 + 2 * order - 2
    P, Q = sum_tuple(T_star, N), sum_tuple(T_hilbert, N)
    concl = mc.fro_norm(tf.isosym_defect(P, Q, X, t1, t2))
    threshold = tol.threshold(tf.defect_scale(P, Q, X, t1, t2))
    return _conclusion_result(
        "perturbed_defect", concl, threshold, extra={"order": float(order)}
    )


def _thm06_hypotheses(A, B, S, T, X, m, n, r, s, tol):
    """The four cross-assigned combined defects plus the commutation residuals."""
    for name, U, V in (("A,S", A, S), ("B,S", B, S), ("B,T", B, T)):
        if not commutes_cross(U, V, tol):
            return f"[{name}] != 0", max_commutator_cross(U, V)
    hypotheses = (
        ("AB_mn", A, B, m, n),
        ("ST_rs", S, T, r, s),
        ("ST_rn", S, T, r, n),
        ("AB_ms", A, B, m, s),
    )
    for name, U, V, mm, nn in hypotheses:
        ok, norm = _hypothesis_ok(U, V, X, mm, nn, tol)
        if not ok:
            return f"hypothesis {name} fails", norm
    return None, 0.0


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
    """Products of cross-commuting defect-annihilated pairs vanish at (m+r-1, n+s-1)."""
    fail, res = _thm06_hypotheses(A, B, S, T, X, m, n, r, s, tol)
    if fail:
        return _skip(fail, residual=res)
    SA = product_tuple(S, A)
    TB = product_tuple(T, B)
    t1, t2 = m + r - 1, n + s - 1
    concl = mc.fro_norm(tf.isosym_defect(SA, TB, X, t1, t2))
    threshold = tol.threshold(tf.defect_scale(SA, TB, X, t1, t2))
    sharp = {}
    if t1 >= 1:
        sharp["below_t1"] = mc.fro_norm(tf.isosym_defect(SA, TB, X, t1 - 1, t2))
    is_sharp = sharp.get("below_t1", 0.0) > SHARPNESS_FLOOR
    return _conclusion_result(
        "product_defect",
        concl,
        threshold,
        extra={"t1": float(t1), "t2": float(t2)},
        sharpness=sharp,
        is_sharp=is_sharp,
    )


def check_cor06(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Single-kind product implication: both pairs isometric (or both symmetric)."""
    A, B = bundle.tuples["A"], bundle.tuples["B"]
    S, T = bundle.tuples["S"], bundle.tuples["T"]
    X = bundle.matrices["X"]
    m, n = int(bundle.params["m"]), int(bundle.params["n"])
    kind = bundle.params["kind"]
    for name, U, V in (("A,S", A, S), ("B,S", B, S), ("B,T", B, T)):
        if not commutes_cross(U, V, tol):
            return _skip(f"[{name}] != 0", residual=max_commutator_cross(U, V))
    if kind == "iso":
        h1 = mc.fro_norm(tf.triangle(A, B, X, m))
        s1 = tf.defect_scale(A, B, X, m)
        h2 = mc.fro_norm(tf.triangle(S, T, X, n))
        s2 = tf.defect_scale(S, T, X, n)
    else:
        h1 = mc.fro_norm(tf.delta(A, B, X, m))
        s1 = tf.defect_scale(A, B, X, 0, m)
        h2 = mc.fro_norm(tf.delta(S, T, X, n))
        s2 = tf.defect_scale(S, T, X, 0, n)
    if h1 > tol.threshold(s1) or h2 > tol.threshold(s2):
        return _skip("a factor pair violates its identity", h1=h1, h2=h2)
    AS = product_tuple(A, S)
    BT = product_tuple(B, T)
    deg = m + n - 1
    if kind == "iso":
        concl = mc.fro_norm(tf.triangle(AS, BT, X, deg))
        threshold = tol.threshold(tf.defect_scale(AS, BT, X, deg))
    else:
        concl = mc.fro_norm(tf.delta(AS, BT, X, deg))
        threshold = tol.threshold(tf.defect_scale(AS, BT, X, 0, deg))
    sharp = {}
    if deg >= 1:
        if kind == "iso":
            sharp["below"] = mc.fro_norm(tf.triangle(AS, BT, X, deg - 1))
        else:
            sharp["below"] = mc.fro_norm(tf.delta(AS, BT, X, deg - 1))
    return _conclusion_result(
        "product_defect",
        concl,
        threshold,
        extra={"degree": float(deg)},
        sharpness=sharp,
        is_sharp=sharp.get("below", 0.0) > SHARPNESS_FLOOR,
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
    if not commutes_cross(S, T, tol):
        return _skip("[S, T] != 0", residual=max_commutator_cross(S, T))
    if not commutes_cross(S_star, CTC, tol):
        return _skip("[S*, CTC] != 0", residual=max_commutator_cross(S_star, CTC))
    prod_star = product_tuple(S_star, T_star)
    prod_conj = conj_tuple(product_tuple(S, T))
    deg = m + n - 1
    defects: dict[str, float] = {}
    status = "pass"
    reason = ""
    evaluated = 0

    for kind in ("iso", "sym"):
        if kind == "iso":
            h1 = mc.fro_norm(tf.triangle(S_star, CSC, X, m))
            t1 = tol.threshold(tf.defect_scale(S_star, CSC, X, m))
            h2 = mc.fro_norm(tf.triangle(T_star, CTC, X, n))
            t2 = tol.threshold(tf.defect_scale(T_star, CTC, X, n))
        else:
            h1 = mc.fro_norm(tf.delta(S_star, CSC, X, m))
            t1 = tol.threshold(tf.defect_scale(S_star, CSC, X, 0, m))
            h2 = mc.fro_norm(tf.delta(T_star, CTC, X, n))
            t2 = tol.threshold(tf.defect_scale(T_star, CTC, X, 0, n))
        defects[f"hyp_{kind}_S"] = h1
        defects[f"hyp_{kind}_T"] = h2
        if h1 > t1 or h2 > t2:
            continue
        evaluated += 1
        if kind == "iso":
            concl = mc.fro_norm(tf.triangle(prod_star, prod_conj, X, deg))
            thr = tol.threshold(tf.defect_scale(prod_star, prod_conj, X, deg))
        else:
            concl = mc.fro_norm(tf.delta(prod_star, prod_conj, X, deg))
            thr = tol.threshold(tf.defect_scale(prod_star, prod_conj, X, 0, deg))
        defects[f"product_defect_{kind}"] = concl
        verdict = _judge(concl, thr)
        if verdict != "pass" and status != "counterexample":
            status = verdict
            reason = f"{kind} product defect {concl:.3e} vs threshold {thr:.3e}"
    if evaluated == 0:
        return _skip("neither implication has valid hypotheses", **defects)
    return TrialResult(status=status, reason=reason, defects=defects)


def check_cor062(bundle: InstanceBundle, tol: mc.Tolerance = mc.DEFAULT_TOL) -> TrialResult:
    """Single operator times tuple: the product inherits degree m+n-1."""
    A, B = bundle.tuples["A"], bundle.tuples["B"]
    S, T = bundle.tuples["S"], bundle.tuples["T"]
    X = bundle.matrices["X"]
    m, n = int(bundle.params["m"]), int(bundle.params["n"])
    kind = bundle.params["kind"]
    if A.d != 1 or B.d != 1:
        return _skip("A and B must be single operators")
    if not commutes_cross(A, S, tol) or not commutes_cross(B, T, tol):
        return _skip("[A, S] != 0 or [B, T] != 0")
    defect = tf.triangle if kind == "iso" else tf.delta

    def dscale(U, V, deg):
        return tf.defect_scale(U, V, X, deg) if kind == "iso" else tf.defect_scale(U, V, X, 0, deg)

    h1 = mc.fro_norm(defect(A, B, X, m))
    h2 = mc.fro_norm(defect(S, T, X, n))
    if h1 > tol.threshold(dscale(A, B, m)) or h2 > tol.threshold(dscale(S, T, n)):
        return _skip("a factor violates its identity", h1=h1, h2=h2)
    AS = product_tuple(A, S)
    BT = product_tuple(B, T)
    deg = m + n - 1
    concl = mc.fro_norm(defect(AS, BT, X, deg))
    threshold = tol.threshold(dscale(AS, BT, deg))
    return _conclusion_result("product_defect", concl, threshold, extra={"degree": float(deg)})


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
    XX = mc.identity(A.dim * S.dim)
    AxS = tensor_tuple(A, S)
    BxT = tensor_tuple(B, T)
    if variant == "i":
        defect = tf.triangle if kind == "iso" else tf.delta

        def dscale(U, V, Y, deg):
            return (
                tf.defect_scale(U, V, Y, deg)
                if kind == "iso"
                else tf.defect_scale(U, V, Y, 0, deg)
            )

        h1 = mc.fro_norm(defect(A, B, X_a, m))
        h2 = mc.fro_norm(defect(S, T, X_s, n))
        if h1 > tol.threshold(dscale(A, B, X_a, m)) or h2 > tol.threshold(
            dscale(S, T, X_s, n)
        ):
            return _skip("a factor pair violates its identity", h1=h1, h2=h2)
        deg = m + n - 1
        concl = mc.fro_norm(defect(AxS, BxT, XX, deg))
        threshold = tol.threshold(dscale(AxS, BxT, XX, deg))
        return _conclusion_result("tensor_defect", concl, threshold, extra={"degree": float(deg)})

    if variant != "ii":
        raise InvalidArgumentError(f"variant must be 'i' or 'ii', got {variant!r}")
    if r is None or s is None:
        raise InvalidArgumentError("variant ii needs r and s")
    ok, h1 = _hypothesis_ok(A, B, X_a, m, n, tol)
    if not ok:
        return _skip("first pair violates the combined identity", defect=h1)
    h2 = mc.fro_norm(tf.triangle(S, T, X_s, r))
    h3 = mc.fro_norm(tf.delta(S, T, X_s, s))
    if h2 > tol.threshold(tf.defect_scale(S, T, X_s, r)) or h3 > tol.threshold(
        tf.defect_scale(S, T, X_s, 0, s)
    ):
        return _skip("second pair violates its identities", iso_defect=h2, sym_defect=h3)
    t1, t2 = m + r - 1, n + s - 1
    concl = mc.fro_norm(tf.isosym_defect(AxS, BxT, XX, t1, t2))
    threshold = tol.threshold(tf.defect_scale(AxS, BxT, XX, t1, t2))
    return _conclusion_result(
        "tensor_defect", concl, threshold, extra={"t1": float(t1), "t2": float(t2)}
    )


def check_ex00_golden(tol_abs: float = 1e-12) -> TrialResult:
    """Reproduce the 2x2 unitary-mixing counterexample matrices exactly."""
    T, A0, U, S = paper_example_mixing()
    pair_t = (OperatorTuple.of(mc.adjoint(T)), OperatorTuple.of(T))
    pair_s = (OperatorTuple.of(mc.adjoint(S)), OperatorTuple.of(S))
    sas = mc.adjoint(S) @ A0 @ S
    s2as2 = mc.adjoint(S) @ mc.adjoint(S) @ A0 @ S @ S
    expected_sas = np.array([[1, 1], [1, 1]], dtype=np.complex128)
    expected_s2as2 = np.array([[1, 1 - 1j], [1 + 1j, 2]], dtype=np.complex128)
    expected_tri_s = np.array([[-1, -1 - 1j], [-1 + 1j, 1]], dtype=np.complex128)
    checks = {
        "triangle2_T": mc.fro_norm(tf.triangle(pair_t[0], pair_t[1], A0, 2)),
        "SAS_diff": mc.max_abs_diff(sas, expected_sas),
        "S2AS2_diff": mc.max_abs_diff(s2as2, expected_s2as2),
        "triangle2_S_diff": mc.max_abs_diff(
            tf.triangle(pair_s[0], pair_s[1], A0, 2), expected_tri_s
        ),
    }
    worst = max(checks.values())
    status = "pass" if worst <= tol_abs else "counterexample"
    return TrialResult(
        status=status,
        reason="" if status == "pass" else f"golden mismatch {worst:.3e}",
        defects=checks,
    )


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


def _profile_for(theorem_id: str) -> str:
    return "pro02-family" if theorem_id == "pro02" else theorem_id


def _run_trial(theorem_id: str, seed: int, tol: mc.Tolerance, t_max: int) -> tuple[TrialResult, InstanceBundle]:
    bundle = random_instance(_profile_for(theorem_id), seed)
    if theorem_id == "pro01":
        return check_pro01(bundle, t_max=t_max, tol=tol), bundle
    if theorem_id == "pro02":
        return check_pro02(bundle, tol=tol), bundle
    if theorem_id == "pro03":
        return check_pro03(bundle, tol=tol), bundle
    if theorem_id == "pro04":
        return check_pro04(bundle.tuples["A"], tol=tol), bundle
    if theorem_id == "pro5":
        return check_pro5(bundle.tuples["A"], int(bundle.params["m_even"]), tol=tol), bundle
    if theorem_id == "thm05":
        p = bundle.params
        return (
            check_thm05(
                bundle.tuples["A"],
                bundle.tuples["B"],
                bundle.tuples["N1"],
                bundle.tuples["N2"],
                bundle.matrices["X"],
                int(p["m1"]),
                int(p["m2"]),
                tol=tol,
            ),
            bundle,
        )
    if theorem_id == "cor05":
        return check_cor05(bundle, tol=tol), bundle
    if theorem_id == "cor050":
        p = bundle.params
        return (
            check_cor050(
                bundle.tuples["T"],
                bundle.tuples["N"],
                bundle.matrices["X"],
                int(p["m1"]),
                int(p["m2"]),
                tol=tol,
            ),
            bundle,
        )
    if theorem_id == "thm06":
        p = bundle.params
        return (
            check_thm06(
                bundle.tuples["A"],
                bundle.tuples["B"],
                bundle.tuples["S"],
                bundle.tuples["T"],
                bundle.matrices["X"],
                int(p["m"]),
                int(p["n"]),
                int(p["r"]),
                int(p["s"]),
                tol=tol,
            ),
            bundle,
        )
    if theorem_id == "cor06":
        return check_cor06(bundle, tol=tol), bundle
    if theorem_id == "cor061":
        p = bundle.params
        return (
            check_cor061(
                bundle.tuples["S"],
                bundle.tuples["T"],
                bundle.matrices["X"],
                int(p["m"]),
                int(p["n"]),
                tol=tol,
            ),
            bundle,
        )
    if theorem_id == "cor062":
        return check_cor062(bundle, tol=tol), bundle
    if theorem_id == "thm07":
        p = bundle.params
        return (
            check_thm07(
                bundle.tuples["A"],
                bundle.tuples["B"],
                bundle.tuples["S"],
                bundle.tuples["T"],
                int(p["m"]),
                int(p["n"]),
                r=int(p["r"]) if "r" in p else None,
                s=int(p["s"]) if "s" in p else None,
                variant=str(p["variant"]),
                kind=str(p.get("kind", "iso")),
                tol=tol,
            ),
            bundle,
        )
    raise InvalidArgumentError(f"unknown theorem id {theorem_id!r}")


def _counterexample_record(
    trial: int, seed: int, result: TrialResult, bundle: InstanceBundle | None
) -> dict:
    record = {
        "trial": trial,
        "seed": seed,
        "reason": result.reason,
        "defects": {k: float(v) for k, v in result.defects.items()},
    }
    if bundle is not None:
        record["bundle"] = bundle.to_json()
        # defect norms at all degrees for post-mortem, on the primary pair
        pair_keys = [("A", "B"), ("S", "T"), ("T", "T")]
        for ka, kb in pair_keys:
            if ka in bundle.tuples and kb in bundle.tuples and "X" in bundle.matrices:
                profile = classify.defect_profile(
                    bundle.tuples[ka], bundle.tuples[kb], bundle.matrices["X"], k_max=12
                )
                record["defect_profile"] = profile.to_json()
                break
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

    passes = anomalies = skipped = 0
    counterexamples: list[dict] = []
    witnesses: list[dict] = []
    max_defect = 0.0
    for i, (result, bundle) in enumerate(results):
        if result.status != "skip":
            # a skipped trial's defects measure its failed hypothesis, not the identity
            for key, value in result.defects.items():
                if key.endswith("_defect") or key in ("cesaro_error", "limit_defect"):
                    max_defect = max(max_defect, float(value))
        if result.status == "pass":
            passes += 1
        elif result.status == "anomaly":
            anomalies += 1
        elif result.status == "skip":
            skipped += 1
        else:
            counterexamples.append(_counterexample_record(i, seeds[i], result, bundle))
        if result.is_sharp:
            witnesses.append(
                {"trial": i, "seed": seeds[i], "sharpness": dict(result.sharpness)}
            )
    evaluated = passes + anomalies + len(counterexamples)
    return CampaignReport(
        theorem_id=config.theorem_id,
        requested_trials=config.trials,
        trials=evaluated,
        passes=passes,
        tolerance_anomalies=anomalies,
        skipped=skipped,
        counterexamples=tuple(counterexamples),
        sharpness_witnesses=tuple(witnesses),
        max_defect=max_defect,
        seeds=seeds,
        budget_exceeded=budget_exceeded,
        wall_time=time.monotonic() - start,
    )


def report_to_json_str(report: CampaignReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True, indent=2)
