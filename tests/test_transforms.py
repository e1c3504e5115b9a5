import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_commuting_pair
from isotuple import matrix_core as mc
from isotuple import transforms as tf
from isotuple import verify
from isotuple.errors import BudgetExceededError, InvalidArgumentError
from isotuple.generators import (
    jordan_isometric,
    paper_example_mixing,
    paper_example_squares,
    random_instance,
)
from isotuple.tuples import OperatorTuple, adjoint_tuple, mix_by_unitary

T_MAT = np.array([[1, 1], [0, 1]], dtype=complex)
JORDAN_PAIR = (OperatorTuple.of(T_MAT.conj().T), OperatorTuple.of(T_MAT))


def test_sigma_apply_on_balanced_pair():
    A, B = paper_example_squares()
    assert mc.max_abs_diff(tf.sigma_apply(A, B, np.eye(2)), np.eye(2)) < 1e-15


def test_sigma_apply_on_inverse_pair():
    inv = OperatorTuple.of(math.sqrt(2) * np.eye(2), math.sqrt(2) * np.eye(2))
    assert mc.max_abs_diff(tf.sigma_apply(inv, inv, np.eye(2)), 4.0 * np.eye(2)) < 1e-14


def test_sigma_apply_single_component():
    rng = np.random.default_rng(1)
    A1, B1, X = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
    got = tf.sigma_apply(OperatorTuple.of(A1), OperatorTuple.of(B1), X)
    assert mc.max_abs_diff(got, A1 @ X @ B1) == 0.0


def test_sigma_apply_shape_mismatch():
    A, B = paper_example_squares()
    with pytest.raises(InvalidArgumentError):
        tf.sigma_apply(A, B, np.eye(3))
    with pytest.raises(InvalidArgumentError):
        tf.sigma_apply(A, OperatorTuple.of(np.eye(2)), np.eye(2))


def test_sigma_power_degree_zero_is_identity_map():
    A, B, X = random_commuting_pair(0, 2, 3)
    for mode in ("iterate", "expand"):
        assert mc.max_abs_diff(tf.sigma_power(A, B, X, 0, mode=mode), X) == 0.0


def test_sigma_power_weights_sum_correctly_on_balanced_pair():
    A, B = paper_example_squares()
    for mode in ("iterate", "expand"):
        got = tf.sigma_power(A, B, np.eye(2), 2, mode=mode)
        assert mc.max_abs_diff(got, np.eye(2)) < 1e-14


@pytest.mark.parametrize("seed", range(12))
def test_sigma_power_iterate_matches_expand(seed):
    d = 1 + seed % 3
    n = 2 + seed % 3
    A, B, X = random_commuting_pair(seed, d, n)
    for j in range(6):
        it = tf.sigma_power(A, B, X, j, mode="iterate")
        ex = tf.sigma_power(A, B, X, j, mode="expand")
        scale = tf.defect_scale(A, B, X, j)
        assert mc.fro_norm(it - ex) <= 1e-10 * max(scale, 1.0)


def test_sigma_power_expand_rejects_noncommuting_input():
    up = np.array([[0, 1], [0, 0]], dtype=complex)
    down = up.T.copy()
    T = OperatorTuple((up, down))
    with pytest.raises(InvalidArgumentError):
        tf.sigma_power(T, T, np.eye(2), 2, mode="expand")


def test_sigma_power_expand_budget():
    T = OperatorTuple.of(*(np.eye(2) for _ in range(3)))
    with pytest.raises(BudgetExceededError):
        tf.sigma_power(T, T, np.eye(2), 20, mode="expand")


def test_triangle_balanced_pair_is_one_isometric():
    A, B = paper_example_squares()
    assert mc.fro_norm(tf.triangle(A, B, np.eye(2), 1)) < 1e-14


def test_triangle_jordan_example_values():
    T, A0, U, S = paper_example_mixing()
    pair_t = (OperatorTuple.of(mc.adjoint(T)), OperatorTuple.of(T))
    assert mc.fro_norm(tf.triangle(pair_t[0], pair_t[1], A0, 2)) < 1e-13
    pair_s = (OperatorTuple.of(mc.adjoint(S)), OperatorTuple.of(S))
    expected = np.array([[-1, -1 - 1j], [-1 + 1j, 1]])
    got = tf.triangle(pair_s[0], pair_s[1], A0, 2)
    assert mc.max_abs_diff(got, expected) < 1e-13
    assert mc.fro_norm(got) > 1.0


def test_delta_hand_values_for_jordan_block():
    A, B = JORDAN_PAIR
    assert mc.fro_norm(tf.delta(A, B, np.eye(2), 3)) < 1e-13
    got = tf.delta(A, B, np.eye(2), 2)
    assert mc.max_abs_diff(got, np.array([[0, 0], [0, -2]])) < 1e-13


def test_delta_degree_one_vanishes_when_sums_agree():
    H = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
    T = OperatorTuple.of(H)
    assert mc.fro_norm(tf.delta(T, T, np.eye(2), 1)) == 0.0


def test_isosym_defect_reductions():
    A, B, X = random_commuting_pair(3, 2, 3)
    assert mc.max_abs_diff(tf.isosym_defect(A, B, X, 0, 2), tf.delta(A, B, X, 2)) < 1e-14
    assert mc.max_abs_diff(tf.isosym_defect(A, B, X, 2, 0), tf.triangle(A, B, X, 2)) < 1e-14


@pytest.mark.parametrize("seed", range(8))
def test_isosym_defect_order_swap(seed):
    A, B, X = random_commuting_pair(seed + 100, 1 + seed % 3, 2 + seed % 3)
    m, n = 1 + seed % 3, 1 + (seed // 2) % 3
    direct = tf.triangle(A, B, tf.delta(A, B, X, n), m)
    swapped = tf.delta(A, B, tf.triangle(A, B, X, m), n)
    scale = tf.defect_scale(A, B, X, m, n)
    assert mc.fro_norm(direct - swapped) <= 1e-10 * max(scale, 1.0)


def test_superop_matrix_identity_case():
    eye = OperatorTuple.of(np.eye(2))
    assert mc.max_abs_diff(tf.superop_matrix(eye, eye, "sigma"), np.eye(4)) == 0.0


def test_superop_matrix_rejects_unknown_kind():
    eye = OperatorTuple.of(np.eye(2))
    with pytest.raises(InvalidArgumentError):
        tf.superop_matrix(eye, eye, "bogus")


@pytest.mark.parametrize("seed", range(10))
def test_triangle_delta_match_superoperator_oracle(seed):
    d = 1 + seed % 3
    n = 2 + seed % 3
    A, B, X = random_commuting_pair(seed + 50, d, n)
    m = 1 + seed % 4
    eye = np.eye(n * n)
    sig_hat = tf.superop_matrix(A, B, "sigma")
    left = tf.superop_matrix(A, B, "left_sum")
    right = tf.superop_matrix(A, B, "right_sum")
    tri_vec = np.linalg.matrix_power(eye - sig_hat, m) @ mc.vec(X)
    del_vec = np.linalg.matrix_power(left - right, m) @ mc.vec(X)
    scale = tf.defect_scale(A, B, X, m, m)
    assert mc.fro_norm(tf.triangle(A, B, X, m) - mc.unvec(tri_vec, n)) <= 1e-10 * max(scale, 1.0)
    assert mc.fro_norm(tf.delta(A, B, X, m) - mc.unvec(del_vec, n)) <= 1e-10 * max(scale, 1.0)


@pytest.mark.parametrize("seed", range(6))
def test_binomial_sum_matches_repeated_application(seed):
    A, B, X = random_commuting_pair(seed + 200, 2, 3)
    for k in range(5):
        scale = max(tf.defect_scale(A, B, X, k, k), 1.0)
        assert (
            mc.fro_norm(tf.triangle(A, B, X, k) - tf.triangle_by_iteration(A, B, X, k))
            <= 1e-10 * scale
        )
        assert (
            mc.fro_norm(tf.delta(A, B, X, k) - tf.delta_by_iteration(A, B, X, k))
            <= 1e-10 * scale
        )


@given(st.integers(min_value=0, max_value=400), st.integers(min_value=1, max_value=3))
@settings(deadline=None, max_examples=25)
def test_telescoping(seed, m):
    A, B, X = random_commuting_pair(seed, 1 + seed % 2, 2 + seed % 2)
    t = m + 2
    direct = tf.triangle(A, B, X, t)
    nested = tf.triangle(A, B, tf.triangle(A, B, X, m), t - m)
    scale = max(tf.defect_scale(A, B, X, t), 1.0)
    assert mc.fro_norm(direct - nested) <= 1e-10 * scale


def test_fixed_point_identity_for_isometric_pair():
    # degree-3 isometric Jordan pair: sigma fixes the degree-2 defect
    T = jordan_isometric(1.0, 2)
    A, B = OperatorTuple.of(mc.adjoint(T)), OperatorTuple.of(T)
    ref = tf.triangle(A, B, np.eye(2), 2)
    Y = ref.copy()
    for _ in range(10):
        Y = tf.sigma_apply(A, B, Y)
        assert mc.fro_norm(Y - ref) < 1e-12


def test_unitary_mixing_invariance_at_identity():
    rng = np.random.default_rng(31)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    T = OperatorTuple.of(M / np.linalg.norm(M), (M @ M) / np.linalg.norm(M @ M))
    U = np.array([[1, 1], [1j, -1j]], dtype=complex) / math.sqrt(2.0)
    S = mix_by_unitary(U, T)
    eye = np.eye(3)
    for m in range(1, 4):
        lhs = tf.triangle(adjoint_tuple(S), S, eye, m)
        rhs = tf.triangle(adjoint_tuple(T), T, eye, m)
        scale = max(tf.defect_scale(adjoint_tuple(T), T, eye, m), 1.0)
        assert mc.fro_norm(lhs - rhs) <= 1e-10 * scale


def test_cesaro_fixed_point_for_degree_one():
    A, B = paper_example_squares()
    errors = tf.cesaro_estimate(A, B, np.eye(2), 1, 20)
    assert all(e < 1e-13 for _, e in errors)


def test_cesaro_decay_for_jordan_three_isometry():
    T = jordan_isometric(1.0, 2)
    A, B = OperatorTuple.of(mc.adjoint(T)), OperatorTuple.of(T)
    errors = dict(tf.cesaro_estimate(A, B, np.eye(2), 3, 200))
    assert errors[200] < errors[50] < errors[10]
    for t in (50, 100, 200):
        assert errors[t] <= 5.0 / t


def test_cesaro_rejects_non_isometric_input():
    inv = OperatorTuple.of(math.sqrt(2) * np.eye(2), math.sqrt(2) * np.eye(2))
    with pytest.raises(InvalidArgumentError) as err:
        tf.cesaro_estimate(inv, inv, np.eye(2), 2, 50)
    assert "defect norm" in str(err.value)


def test_defect_profile_dataclass_validation():
    with pytest.raises(InvalidArgumentError):
        tf.DefectProfile(
            triangle_norms=(-1.0,),
            delta_norms=(0.0,),
            min_isometry_degree=None,
            min_symmetry_degree=None,
            scale=1.0,
        )


def test_defect_scale_formula():
    A, B = paper_example_squares()
    X = np.eye(2)
    iso = 1.0 + sum(mc.op_norm_estimate(a) * mc.op_norm_estimate(b) for a, b in zip(A, B))
    sym = 1.0 + 2.0 * mc.op_norm_estimate(A.component_sum())
    expected = mc.fro_norm(X) * iso**2 * sym**3
    assert abs(tf.defect_scale(A, B, X, 2, 3) - expected) < 1e-12


def test_defect_scale_skips_factors_of_degree_zero(monkeypatch):
    A, B = paper_example_squares()
    X = 2.0 * np.eye(2)

    def no_svds(a):
        raise AssertionError("spectral norm computed for a degree-0 factor")

    monkeypatch.setattr(mc, "op_norm_estimate", no_svds)
    assert tf.defect_scale(A, B, X, 0, 0) == mc.fro_norm(X)


#: Every single-pair function, called on a pair and X with valid degrees.
SINGLE_PAIR_CALLS = [
    lambda A, B, X: tf.defect_check(A, B, X, 1, 1),
    lambda A, B, X: tf.defect_checks(A, B, X, [(2, 0), (0, 1)]),
    *(lambda A, B, X, m=m, n=n: tf.defect_scale(A, B, X, m, n) for m, n in ((1, 0), (0, 1), (1, 1))),
    tf.sigma_apply,
    lambda A, B, X: tf.sigma_iterates(A, B, X, 2),
    lambda A, B, X: tf.sigma_power(A, B, X, 2),
    lambda A, B, X: tf.sigma_power(A, B, X, 2, mode="expand", strict=False),
    lambda A, B, X: tf.triangle(A, B, X, 2),
    lambda A, B, X: tf.triangle_by_iteration(A, B, X, 2),
    *(lambda A, B, X, n=n: tf.delta(A, B, X, n) for n in (0, 2)),
    lambda A, B, X: tf.delta_by_iteration(A, B, X, 2),
    lambda A, B, X: tf.isosym_defect(A, B, X, 1, 1),
    lambda A, B, X: tf.cesaro_estimate(A, B, X, 1, 3),
]


@pytest.mark.parametrize("call", SINGLE_PAIR_CALLS)
def test_every_single_pair_function_refuses_the_pair_defect_check_refuses(call, monkeypatch):
    # one shape check, in one order: X's shape, then tuple length, then dimensions;
    # A's third component used to be dropped by defect_scale's zip: the scale read 5.657
    eye = np.eye(2)
    A, B = OperatorTuple.of(eye, 2 * eye, 3 * eye), OperatorTuple.of(eye, eye)
    C = OperatorTuple.of(np.eye(3), np.eye(3))

    def no_svds(a):
        raise AssertionError("spectral norm read before the pair was checked")

    monkeypatch.setattr(mc, "op_norm_estimate", no_svds)
    for bad, message in (
        ((A, B, eye), "tuple length mismatch: 3 vs 2"),
        ((B, C, eye), "dimension mismatch: A is 2, B is 3, X is 2"),
        ((B, B, np.ones((1, 3))), "X must be square and non-empty, got shape (1, 3)"),
        ((A, C, np.ones((1, 3))), "X must be square and non-empty, got shape (1, 3)"),
        ((A, C, eye), "tuple length mismatch: 3 vs 2"),
    ):
        with pytest.raises(InvalidArgumentError) as refused:
            call(*bad)
        assert str(refused.value) == message


@pytest.mark.parametrize("bad", [-1, 1.5, "2"])
def test_defect_scale_and_sigma_iterates_refuse_a_degree_that_is_not_a_non_negative_integer(bad):
    A, _ = paper_example_squares()
    eye = np.eye(2)
    for call in (
        lambda: tf.defect_scale(A, A, eye, bad),
        lambda: tf.defect_scale(A, A, eye, 1, bad),
        lambda: tf.sigma_iterates(A, A, eye, bad),
    ):
        with pytest.raises(InvalidArgumentError, match="must be a non-negative integer"):
            call()


def test_overflowing_scale_is_refused():
    assert tf._scales([2.0], [3.0], [1.0], [2], [0]) == [18.0]
    with pytest.raises(InvalidArgumentError):
        tf._scales([1.0], [1e200], [1.0], [2], [0])  # float ** overflows
    with pytest.raises(InvalidArgumentError):
        tf._scales([1e200], [1e200], [1.0], [1], [0])  # the product overflows to inf


@pytest.mark.parametrize("theorem_id", verify.THEOREM_IDS)
@pytest.mark.parametrize("tol", [mc.DEFAULT_TOL, mc.Tolerance(abs_eps=0.0, rel_eps=1e-13)])
def test_defect_check_equals_the_expression_it_replaces(theorem_id, tol):
    # the norm and the threshold keep every bit at (m, 0), (0, n) and (m, n)
    expressions = {
        (2, 0): lambda A, B, X: (tf.triangle(A, B, X, 2), tf.defect_scale(A, B, X, 2)),
        (0, 3): lambda A, B, X: (tf.delta(A, B, X, 3), tf.defect_scale(A, B, X, 0, 3)),
        (2, 3): lambda A, B, X: (tf.isosym_defect(A, B, X, 2, 3), tf.defect_scale(A, B, X, 2, 3)),
        (1, 0): lambda A, B, X: (tf.triangle(A, B, X, 1), tf.defect_scale(A, B, X, 1)),
        (0, 1): lambda A, B, X: (tf.delta(A, B, X, 1), tf.defect_scale(A, B, X, 0, 1)),
    }
    entry = verify.THEOREMS[theorem_id]
    for seed in range(3):
        A, B, X = entry.pair(random_instance(entry.profile, seed))
        for (m, n), expression in expressions.items():
            defect, scale = expression(A, B, X)
            norm, threshold = tf.defect_check(A, B, X, m, n, tol)
            assert norm.hex() == mc.fro_norm(defect).hex()
            assert threshold.hex() == tol.threshold(scale).hex()


@pytest.mark.parametrize("bad", ["abc", object(), [[1, 2], [3]]])
def test_an_x_numpy_cannot_read_as_complex_is_refused(bad):
    A, B = JORDAN_PAIR
    for call in (
        lambda: tf.triangle(A, B, bad, 1),
        lambda: tf.delta(A, B, bad, 1),
        lambda: tf.defect_check(A, B, bad, 1, 1),
        lambda: tf.defect_scale(A, B, bad, 1),
        lambda: tf.defect_stack_checks([(A.stack[None], B.stack[None], [bad], [1], [0])], mc.DEFAULT_TOL, {}),
    ):
        with pytest.raises(InvalidArgumentError, match="^X is not an array of complex numbers"):
            call()
