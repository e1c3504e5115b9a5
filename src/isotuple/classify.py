"""Degree classifiers and minimal-degree searches built on the defect transforms.

Every verdict here is a zero test of ``transforms.defect_checks``, whose
degrees of one pair go to the one engine that forms defects in one call: the
classifiers judge one degree each, and ``defect_profile`` judges every degree
up to k_max in one call.  No defect is formed in this module.
"""

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


def defect_profile(
    A: OperatorTuple,
    B: OperatorTuple,
    X,
    k_max: int = 12,
    tol: mc.Tolerance = mc.DEFAULT_TOL,
) -> tf.DefectProfile:
    """Defect norms for degrees 0..k_max plus minimal passing degrees.

    Every degree of both kinds is one zero test of a single ``tf.defect_checks``
    call, whose degrees share one run of sigma iterates and one stack of left
    products (sum A)^i X, so each norm, threshold and verdict is
    the per-degree ``defect_check``'s, bit for bit; degree 0 of both kinds is
    the one test of X itself.  The pass-set of each family must be
    upward-closed (a pair that is degree-k isometric is degree-t isometric
    for every t >= k); degrees violating this are reported as tolerance
    anomalies.
    """
    if type(k_max) is not int or k_max < 1:  # a bool is an int, but not a degree
        raise InvalidArgumentError(f"k_max must be a positive integer, got {k_max!r}")
    X = mc.as_matrix(X, name="X")
    degrees = range(k_max + 1)
    # degree 0 of either kind is X itself: one test serves both
    checks = tf.defect_checks(A, B, X, [(k, 0) for k in degrees] + [(0, k) for k in degrees[1:]], tol)

    def scan(checks):
        passes = [norm <= threshold for norm, threshold in checks]
        first = next((k for k, p in enumerate(passes) if p), None)
        return first, tuple(k for k in degrees if first is not None and k > first and not passes[k])

    iso, sym = checks[: k_max + 1], checks[:1] + checks[k_max + 1 :]
    min_iso, iso_anoms = scan(iso)
    min_sym, sym_anoms = scan(sym)
    return tf.DefectProfile(
        triangle_norms=tuple(norm for norm, _ in iso),
        delta_norms=tuple(norm for norm, _ in sym),
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
    (norm2, threshold2), (norm1, threshold1) = tf.defect_checks(A_star, A_hilbert, X, [(2, 0), (1, 0)], tol)
    if not norm2 <= threshold2:
        raise InvalidArgumentError(f"adjoint pair is not (I,2)-isometric: defect norm {norm2:.3e}")
    return {
        "one_isometric": norm1 <= threshold1,
        "defect_norm_degree1": norm1,
        "defect_norm_degree2": norm2,
        "gram_condition": gram_cond,
        "scale": tf.defect_scale(A_star, A_hilbert, X, 1),
    }
