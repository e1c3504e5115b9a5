"""Degree classifiers and minimal-degree searches built on the defect transforms."""

from __future__ import annotations

import numpy as np

from . import matrix_core as mc
from . import transforms as tf
from .errors import InvalidArgumentError
from .tuples import OperatorTuple, adjoint_tuple


def is_isometric(
    A: OperatorTuple, B: OperatorTuple, X, m: int, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> bool:
    """The degree-m isometric defect of (A, B) at X passes the zero test."""
    defect = tf.triangle(A, B, X, m)
    return mc.is_zero(defect, tol, scale=tf.defect_scale(A, B, X, m))


def is_symmetric(
    A: OperatorTuple, B: OperatorTuple, X, n: int, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> bool:
    """The degree-n symmetric defect of (A, B) at X passes the zero test."""
    defect = tf.delta(A, B, X, n)
    return mc.is_zero(defect, tol, scale=tf.defect_scale(A, B, X, 0, n))


def is_isosymmetric(
    A: OperatorTuple, B: OperatorTuple, X, m: int, n: int, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> bool:
    """The combined degree-(m, n) defect passes the zero test."""
    defect = tf.isosym_defect(A, B, X, m, n)
    return mc.is_zero(defect, tol, scale=tf.defect_scale(A, B, X, m, n))


def _triangle_norms(A: OperatorTuple, B: OperatorTuple, X, k_max: int) -> list[float]:
    """||triangle^k(X)||_F for k = 0..k_max, from one list of sigma iterates."""
    sig = tf.sigma_iterates(A, B, X, k_max)
    return [mc.fro_norm(tf.triangle_of_iterates(sig, k)) for k in range(k_max + 1)]


def _delta_norms(A: OperatorTuple, B: OperatorTuple, X, k_max: int) -> list[float]:
    """||delta^k(X)||_F for k = 0..k_max, from one list of left products (sum A)^i X
    and one of powers (sum B)^j, associated as in ``delta``: ((sum A)^i X) (sum B)^j."""
    left = [p @ X for p in tf.sum_powers(A, k_max)]
    pow_b = tf.sum_powers(B, k_max)
    norms = [mc.fro_norm(X)]
    for k in range(1, k_max + 1):
        acc = np.zeros_like(X)
        for j in range(k + 1):
            acc += ((-1) ** j * tf.binomial(k, j)) * (left[k - j] @ pow_b[j])
        norms.append(mc.fro_norm(acc))
    return norms


def defect_profile(
    A: OperatorTuple,
    B: OperatorTuple,
    X,
    k_max: int = 12,
    tol: mc.Tolerance = mc.DEFAULT_TOL,
) -> tf.DefectProfile:
    """Defect norms for degrees 0..k_max plus minimal passing degrees.

    Sigma iterates, component-sum powers and the left products (sum A)^i X
    are computed once and shared by all degrees.  Each norm equals the one the
    per-degree ``triangle`` / ``delta`` gives, bit for bit, because the terms
    are formed and summed in the same order.  The pass-set of each family
    must be upward-closed (a pair that is degree-k isometric is degree-t
    isometric for every t >= k); degrees violating this are reported as
    tolerance anomalies.
    """
    if not isinstance(k_max, int) or k_max < 1:
        raise InvalidArgumentError(f"k_max must be a positive integer, got {k_max!r}")
    X = mc.as_matrix(X, name="X")
    tri_norms = _triangle_norms(A, B, X, k_max)
    delta_norms = _delta_norms(A, B, X, k_max)

    def scan(norms, sym: bool):
        passes = []
        for k, norm in enumerate(norms):
            scale = tf.defect_scale(A, B, X, 0, k) if sym else tf.defect_scale(A, B, X, k)
            passes.append(norm <= tol.threshold(scale))
        min_degree = next((k for k, p in enumerate(passes) if p), None)
        anomalies = ()
        if min_degree is not None:
            anomalies = tuple(
                k for k in range(min_degree + 1, k_max + 1) if not passes[k]
            )
        return min_degree, anomalies

    min_iso, iso_anoms = scan(tri_norms, sym=False)
    min_sym, sym_anoms = scan(delta_norms, sym=True)
    return tf.DefectProfile(
        triangle_norms=tuple(tri_norms),
        delta_norms=tuple(delta_norms),
        min_isometry_degree=min_iso,
        min_symmetry_degree=min_sym,
        scale=tf.defect_scale(A, B, X, k_max),
        isometry_anomalies=iso_anoms,
        symmetry_anomalies=sym_anoms,
    )


def spherical_reduction_check(
    A_hilbert: OperatorTuple, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> dict:
    """For a tuple whose adjoint pair is (I,2)-isometric with invertible gram sum,
    report whether it is already (I,1)-isometric (a spherical isometry).

    Preconditions are errors; a negative answer is a counterexample record,
    not an error.
    """
    A_star = adjoint_tuple(A_hilbert)
    X = mc.identity(A_hilbert.dim)
    gram = sum((a.conj().T @ a for a in A_hilbert), start=mc.zero(A_hilbert.dim))
    try:
        gram_cond = float(np.linalg.cond(gram, 2))
    except np.linalg.LinAlgError:
        gram_cond = float("inf")
    if not np.isfinite(gram_cond) or gram_cond > mc.SINGULARITY_CONDITION_LIMIT:
        raise InvalidArgumentError(
            f"gram sum of squares is numerically singular (condition {gram_cond:.3e})"
        )
    defect2 = tf.triangle(A_star, A_hilbert, X, 2)
    scale2 = tf.defect_scale(A_star, A_hilbert, X, 2)
    if not mc.is_zero(defect2, tol, scale=scale2):
        raise InvalidArgumentError(
            f"adjoint pair is not (I,2)-isometric: defect norm {mc.fro_norm(defect2):.3e}"
        )
    defect1 = tf.triangle(A_star, A_hilbert, X, 1)
    scale1 = tf.defect_scale(A_star, A_hilbert, X, 1)
    return {
        "one_isometric": mc.is_zero(defect1, tol, scale=scale1),
        "defect_norm_degree1": mc.fro_norm(defect1),
        "defect_norm_degree2": mc.fro_norm(defect2),
        "gram_condition": gram_cond,
        "scale": scale1,
    }
