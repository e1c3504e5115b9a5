"""Degree classifiers and minimal-degree searches built on the defect transforms."""

from __future__ import annotations

import numpy as np

from . import matrix_core as mc
from . import transforms as tf
from .errors import InvalidArgumentError
from .tuples import OperatorTuple, adjoint_tuple, fill_spectral_norms


def is_isometric(
    A: OperatorTuple, B: OperatorTuple, X, m: int, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> bool:
    """The degree-m isometric defect of (A, B) at X passes the zero test."""
    norm, threshold = tf.defect_check(A, B, X, m, 0, tol)
    return norm <= threshold


def is_symmetric(
    A: OperatorTuple, B: OperatorTuple, X, n: int, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> bool:
    """The degree-n symmetric defect of (A, B) at X passes the zero test."""
    norm, threshold = tf.defect_check(A, B, X, 0, n, tol)
    return norm <= threshold


def is_isosymmetric(
    A: OperatorTuple, B: OperatorTuple, X, m: int, n: int, tol: mc.Tolerance = mc.DEFAULT_TOL
) -> bool:
    """The combined degree-(m, n) defect passes the zero test."""
    norm, threshold = tf.defect_check(A, B, X, m, n, tol)
    return norm <= threshold


def _triangle_norms(A: OperatorTuple, B: OperatorTuple, X, k_max: int) -> list[float]:
    """||triangle^k(X)||_F for k = 0..k_max, from one list of sigma iterates."""
    sig = tf.sigma_iterates(A, B, X, k_max)
    return [mc.fro_norm(tf.triangle_of_iterates(sig, k)) for k in range(k_max + 1)]


def _delta_norms(A: OperatorTuple, B: OperatorTuple, X, k_max: int) -> list[float]:
    """||delta^k(X)||_F for k = 0..k_max, from one stack of left products (sum A)^i X
    and the powers (sum B)^j, associated as in ``delta``: ((sum A)^i X) (sum B)^j."""
    left = A.sum_powers(k_max) @ X
    pow_b = B.sum_powers(k_max)
    norms = [mc.fro_norm(X)]
    for k in range(1, k_max + 1):
        norms.append(mc.fro_norm(tf.binomial_sum(left[k::-1] @ pow_b[: k + 1], k)))
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
    x_norm = mc.fro_norm(X)
    fill_spectral_norms((T, True, True) for T in (A, B))

    def scan(norms, sym: bool):
        passes = []
        for k, norm in enumerate(norms):
            scale = tf._scale(x_norm, A, B, *((0, k) if sym else (k, 0)))
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
        scale=tf._scale(x_norm, A, B, k_max, 0),
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
    tests = [(A_star, A_hilbert, X, k, 0) for k in (2, 1)]
    (norm2, threshold2), (norm1, threshold1) = tf.defect_checks(tests, tol)
    if not norm2 <= threshold2:
        raise InvalidArgumentError(f"adjoint pair is not (I,2)-isometric: defect norm {norm2:.3e}")
    return {
        "one_isometric": norm1 <= threshold1,
        "defect_norm_degree1": norm1,
        "defect_norm_degree2": norm2,
        "gram_condition": gram_cond,
        "scale": tf.defect_scale(A_star, A_hilbert, X, 1),
    }
