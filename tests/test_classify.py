import math

import numpy as np
import pytest

from conftest import random_commuting_pair
from isotuple import classify
from isotuple import matrix_core as mc
from isotuple import transforms as tf
from isotuple import verify
from isotuple.errors import InvalidArgumentError
from isotuple.generators import (
    jordan_isometric,
    jordan_symmetric,
    paper_example_squares,
    random_instance,
    random_instances,
    random_unitary,
)
from isotuple.tuples import OperatorTuple, adjoint_tuple, inverse_tuple

T_MAT = np.array([[1, 1], [0, 1]], dtype=complex)


def test_balanced_pair_is_one_isometric():
    A, B = paper_example_squares()
    assert classify.is_isometric(A, B, np.eye(2), 1)


def test_inverse_pair_is_never_isometric_small_degrees():
    A, _ = paper_example_squares()
    inv = inverse_tuple(A)
    eye = np.eye(2)
    for m in range(1, 11):
        assert not classify.is_isometric(inv, inv, eye, m)
        defect = tf.triangle(inv, inv, eye, m)
        assert mc.max_abs_diff(defect, (-3.0) ** m * eye) < 1e-9 * abs(3.0**m)


def test_jordan_symmetric_degrees():
    A = OperatorTuple.of(T_MAT.conj().T)
    B = OperatorTuple.of(T_MAT)
    assert classify.is_symmetric(A, B, np.eye(2), 3)
    assert not classify.is_symmetric(A, B, np.eye(2), 2)


def test_defect_profile_minimal_degrees():
    A, B = paper_example_squares()
    profile = classify.defect_profile(A, B, np.eye(2), k_max=6)
    assert profile.min_isometry_degree == 1
    assert profile.isometry_anomalies == ()

    T = OperatorTuple.of(T_MAT.conj().T), OperatorTuple.of(T_MAT)
    profile = classify.defect_profile(T[0], T[1], np.eye(2), k_max=8)
    assert profile.min_symmetry_degree == 3
    assert profile.min_isometry_degree == 3  # unit eigenvalue Jordan block
    assert profile.symmetry_anomalies == () and profile.isometry_anomalies == ()


def test_defect_profile_absent_degree_for_growing_defects():
    A, _ = paper_example_squares()
    inv = inverse_tuple(A)
    profile = classify.defect_profile(inv, inv, np.eye(2), k_max=12)
    assert profile.min_isometry_degree is None


def test_defect_profile_norms_match_direct_evaluation():
    A, B, X = random_commuting_pair(77, 2, 3)
    profile = classify.defect_profile(A, B, X, k_max=6)
    for k in range(7):
        assert abs(profile.triangle_norms[k] - mc.fro_norm(tf.triangle(A, B, X, k))) < 1e-10
        assert abs(profile.delta_norms[k] - mc.fro_norm(tf.delta(A, B, X, k))) < 1e-10


def test_defect_profile_rejects_bad_kmax():
    A, B = paper_example_squares()
    with pytest.raises(InvalidArgumentError):
        classify.defect_profile(A, B, np.eye(2), k_max=0)


def test_degree_monotonicity_on_generated_instances():
    factories = [
        lambda s: (jordan_isometric(np.exp(2j * np.pi * (s % 7) / 7.0), 2), 3),
        lambda s: (jordan_symmetric(1.0 + 0.1 * (s % 5), 3), 5),
        lambda s: (jordan_isometric(1.0, 3), 5),
    ]
    for s in range(24):
        T, expected = factories[s % 3](s)
        A, B = OperatorTuple.of(T.conj().T), OperatorTuple.of(T)
        profile = classify.defect_profile(A, B, np.eye(T.shape[0]), k_max=12)
        key = "isometry" if s % 3 != 1 else "symmetry"
        min_deg = getattr(profile, f"min_{key}_degree")
        anomalies = getattr(profile, f"{key}_anomalies")
        assert min_deg == expected
        assert anomalies == ()


def test_isosymmetric_classifier():
    T = jordan_isometric(1.0, 2)
    A, B = OperatorTuple.of(T.conj().T), OperatorTuple.of(T)
    assert classify.is_isosymmetric(A, B, np.eye(2), 3, 1)
    # with no symmetric smoothing the degree-1 isometric defect is the full
    # T*T - I, which does not vanish for the Jordan block
    assert not classify.is_isosymmetric(A, B, np.eye(2), 1, 0)


def test_spherical_reduction_for_unitary():
    U = random_unitary(np.random.default_rng(5), 3)
    report = classify.spherical_reduction_check(OperatorTuple.of(U))
    assert report["one_isometric"]
    assert report["gram_condition"] < 10.0


def test_spherical_reduction_for_balanced_unitary_pair():
    U = random_unitary(np.random.default_rng(8), 3)
    A = OperatorTuple.of(U / math.sqrt(2.0), U / math.sqrt(2.0))
    report = classify.spherical_reduction_check(A)
    assert report["one_isometric"]


def test_spherical_reduction_rejects_inverse_tuple():
    A, _ = paper_example_squares()
    with pytest.raises(InvalidArgumentError, match=r"not \(I,2\)-isometric"):
        classify.spherical_reduction_check(inverse_tuple(A))


def test_spherical_reduction_judges_both_degrees_in_one_kernel_call(monkeypatch):
    calls = []
    original = tf.defect_checks
    monkeypatch.setattr(
        tf, "defect_checks",
        lambda A, B, X, degrees, *a: calls.append(list(degrees)) or original(A, B, X, degrees, *a),
    )
    U = OperatorTuple.of(random_unitary(np.random.default_rng(5), 3))
    report = classify.spherical_reduction_check(U)
    assert calls == [[(2, 0), (1, 0)]]
    X = np.eye(3)
    assert report["defect_norm_degree2"] == mc.fro_norm(tf.triangle(adjoint_tuple(U), U, X, 2))
    assert report["defect_norm_degree1"] == mc.fro_norm(tf.triangle(adjoint_tuple(U), U, X, 1))


@pytest.mark.parametrize("tol", [mc.DEFAULT_TOL, mc.Tolerance(abs_eps=0.0, rel_eps=1e-15)])
def test_profile_judges_every_degree_on_the_classifiers_scale(tol):
    T = jordan_symmetric(1.5, 3)
    pairs = [(OperatorTuple.of(T.conj().T), OperatorTuple.of(T), np.eye(3))]
    for seed in range(4):
        bundle = random_instance("pro01", seed)
        pairs.append((bundle.tuples["A"], bundle.tuples["B"], bundle.matrices["X"]))
    for A, B, X in pairs:
        profile = classify.defect_profile(A, B, X, k_max=7, tol=tol)
        assert profile.scale == tf.defect_scale(A, B, X, 7)
        for k in range(8):
            assert profile.isometric_at(k) == classify.is_isometric(A, B, X, k, tol)
            assert profile.symmetric_at(k) == classify.is_symmetric(A, B, X, k, tol)


def test_profile_min_degree_matches_classifier_verdicts():
    bundle = random_instance("pro01", 4)
    A, B, X = bundle.tuples["A"], bundle.tuples["B"], bundle.matrices["X"]
    profile = classify.defect_profile(A, B, X, k_max=8)
    k = profile.min_isometry_degree
    assert k is not None
    assert classify.is_isometric(A, B, X, k)
    if k > 0:
        assert not classify.is_isometric(A, B, X, k - 1)


@pytest.mark.parametrize(
    "seed, d, n", [(0, 1, 2), (1, 2, 3), (2, 3, 5), (3, 2, 8), (4, 4, 12), (5, 3, 16)]
)
def test_profile_norms_equal_per_degree_defects(seed, d, n):
    # the shared-power profile must reproduce the per-degree transforms bit for bit
    A, B, X = random_commuting_pair(seed, d, n)
    k_max = 12
    profile = classify.defect_profile(A, B, X, k_max=k_max)
    assert profile.triangle_norms == tuple(
        mc.fro_norm(tf.triangle(A, B, X, k)) for k in range(k_max + 1)
    )
    assert profile.delta_norms == tuple(
        mc.fro_norm(tf.delta(A, B, X, k)) for k in range(k_max + 1)
    )


#: Every degree that a profile at k_max = 12 judges, in its order: degree 0, the
#: test of X itself, serves both kinds.
PROFILE_DEGREES = [(k, 0) for k in range(13)] + [(0, k) for k in range(1, 13)]


def _profile_checks(pairs, monkeypatch) -> list:
    """The profile at k_max = 12 of each pair, and the (norm, threshold) of each degree it
    judged, from its one ``defect_checks`` call."""
    calls = []
    original = tf.defect_checks
    monkeypatch.setattr(tf, "defect_checks", lambda *a: calls.append(original(*a)) or calls[-1])
    profiles = [classify.defect_profile(A, B, X, k_max=12) for A, B, X in pairs]
    monkeypatch.undo()
    assert len(calls) == len(profiles)
    return list(zip(profiles, calls))


def _assert_profile_is_per_degree(profile, checks, alone) -> None:
    """Norms, thresholds and verdicts of the profile's degrees equal those judged alone."""
    assert checks == alone
    alone = alone[:13] + alone[:1] + alone[13:]  # degrees 0..12 of each kind
    assert list(profile.triangle_norms + profile.delta_norms) == [norm for norm, _ in alone]
    verdicts = [profile.isometric_at(k) for k in range(13)]
    verdicts += [profile.symmetric_at(k) for k in range(13)]
    assert verdicts == [norm <= threshold for norm, threshold in alone]
    assert mc.DEFAULT_TOL.threshold(profile.scale) == alone[12][1]


def _per_degree_checks(pairs) -> list:
    """The (norm, threshold) of each pair's PROFILE_DEGREES, each degree judged for the
    pairs of one shape by one ``defect_stack_checks`` call, a row per pair, so no two
    degrees of a pair share anything."""
    by_shape: dict = {}
    for i, (A, B, _) in enumerate(pairs):
        by_shape.setdefault((A.stack.shape, B.stack.shape), []).append(i)
    out = [[] for _ in pairs]
    for members in by_shape.values():
        a, b = (np.stack([pairs[i][k].stack for i in members]) for k in (0, 1))
        x = np.stack([np.asarray(pairs[i][2], dtype=complex) for i in members])
        norms: dict = {}
        for m, n in PROFILE_DEGREES:
            ((values, thresholds),) = tf.defect_stack_checks(
                [(a, b, x, [m] * len(members), [n] * len(members))], mc.DEFAULT_TOL, norms
            )
            for i, check in zip(members, zip(values.tolist(), thresholds.tolist())):
                out[i].append(check)
    return out


def test_post_mortem_profiles_equal_each_degree_judged_alone(monkeypatch):
    # the pair whose profile a counterexample record carries, for every id at
    # seeds 0-59; a profile shares one run of iterates and one stack of left
    # products over its zero tests, and per degree the tests share nothing, so
    # each gets the bits of its ``defect_check``
    # (test_defect_checks_of_one_pair_equal_one_degree_at_a_time), as the first
    # pair of each id shows
    pairs = [
        entry.pair(bundle)
        for entry in verify.THEOREMS.values()
        for bundle in random_instances(entry.profile, range(60))
    ]
    alone = _per_degree_checks(pairs)
    for first in range(0, len(pairs), 60):
        assert alone[first] == [tf.defect_check(*pairs[first], *d) for d in PROFILE_DEGREES]
    for (profile, checks), checks_alone in zip(_profile_checks(pairs, monkeypatch), alone):
        _assert_profile_is_per_degree(profile, checks, checks_alone)


def _jordan_pair(rng, k: int, lam: complex, n: int, d: int = 3):
    """A_i = w_i T*, B_i = w_i T at a unit X, T = Q (lam I + N) Q* with N a direct sum of
    index-k shifts: exact degrees 2k - 1 or none."""
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    N = np.diag([float((i + 1) % k != 0) for i in range(n - 1)], k=1)
    T = Q @ (lam * np.eye(n) + N) @ Q.conj().T
    w = rng.uniform(0.5, 1.5, d)
    w /= np.linalg.norm(w)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (
        OperatorTuple([wi * T.conj().T for wi in w]),
        OperatorTuple([wi * T for wi in w]),
        X / np.linalg.norm(X),
    )


@pytest.mark.parametrize(
    "k, lam, n", [(2, -1.0, 24), (3, np.exp(2j), 28), (4, 1.7, 36), (3, 1.0, 32)]
)
def test_profile_of_a_jordan_type_pair_equals_each_degree_judged_alone(k, lam, n, monkeypatch):
    A, B, X = _jordan_pair(np.random.default_rng(n), k, lam, n)
    alone = [tf.defect_check(A, B, X, *degrees) for degrees in PROFILE_DEGREES]
    ((profile, checks),) = _profile_checks([(A, B, X)], monkeypatch)
    _assert_profile_is_per_degree(profile, checks, alone)
    if abs(lam) == 1.0:
        assert profile.min_isometry_degree == 2 * k - 1
