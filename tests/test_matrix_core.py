import json
import math

import numpy as np
import pytest

from isotuple import matrix_core as mc
from isotuple.errors import InvalidArgumentError, SingularMatrixError


def test_adjoint_of_mixing_unitary():
    U = np.array([[0, 1], [1j, 0]])
    expected = np.array([[0, -1j], [1, 0]])
    assert mc.max_abs_diff(mc.adjoint(U), expected) == 0.0


def test_kron_identities():
    # the lift of X -> I X I is the identity on column-stacked vec(X)
    X = np.arange(4.0).reshape(2, 2) + 1j
    lift = np.kron(mc.identity(2).T, mc.identity(2))
    assert mc.max_abs_diff(lift, mc.identity(4)) == 0.0
    assert mc.max_abs_diff(mc.unvec(lift @ mc.vec(X), 2), X) == 0.0


def test_inverse_of_scaled_identity():
    inv = mc.inverse((1.0 / math.sqrt(2.0)) * mc.identity(2))
    assert mc.max_abs_diff(inv, math.sqrt(2.0) * mc.identity(2)) < 1e-14


def test_is_zero_cases():
    assert mc.is_zero(mc.zero(3), mc.DEFAULT_TOL, scale=0.0)
    assert mc.is_zero(1e-12 * mc.identity(2), mc.DEFAULT_TOL, scale=1.0)
    assert not mc.is_zero(mc.identity(2), mc.DEFAULT_TOL, scale=1.0)


def test_is_zero_rejects_negative_scale():
    with pytest.raises(InvalidArgumentError):
        mc.is_zero(mc.zero(2), mc.DEFAULT_TOL, scale=-1.0)


def test_tolerance_validation():
    with pytest.raises(InvalidArgumentError):
        mc.Tolerance(abs_eps=-1e-3)


def test_adjoint_and_conj_are_involutions():
    rng = np.random.default_rng(7)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert mc.max_abs_diff(mc.adjoint(mc.adjoint(M)), M) == 0.0
    assert mc.max_abs_diff(mc.conj(mc.conj(M)), M) == 0.0


def test_kron_norm_is_multiplicative():
    rng = np.random.default_rng(11)
    for _ in range(10):
        A = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        B = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        lhs = mc.fro_norm(np.kron(A, B))
        rhs = mc.fro_norm(A) * mc.fro_norm(B)
        assert abs(lhs - rhs) <= 1e-12 * rhs


def test_inverse_roundtrip_for_well_conditioned():
    rng = np.random.default_rng(3)
    for _ in range(10):
        M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 3.0 * np.eye(4)
        if np.linalg.cond(M) >= 1e6:
            continue
        assert mc.is_zero(mc.inverse(M) @ M - mc.identity(4), scale=1.0)


def test_singular_inverse_carries_condition():
    with pytest.raises(SingularMatrixError) as err:
        mc.inverse(np.array([[0, 1], [0, 0]]))
    assert err.value.condition > mc.SINGULARITY_CONDITION_LIMIT or not np.isfinite(
        err.value.condition
    )


def test_shape_validation():
    with pytest.raises(InvalidArgumentError):
        mc.max_abs_diff(mc.identity(2), mc.identity(3))
    with pytest.raises(InvalidArgumentError):
        mc.as_matrix(np.ones((2, 3)))
    with pytest.raises(InvalidArgumentError):
        mc.as_matrix(np.array([[np.inf, 0], [0, 1]]))


def test_vec_is_column_stacking():
    X = np.array([[1, 2], [3, 4]], dtype=complex)
    assert np.array_equal(mc.vec(X), np.array([1, 3, 2, 4], dtype=complex))
    assert mc.max_abs_diff(mc.unvec(mc.vec(X), 2), X) == 0.0


def test_vec_kron_identity():
    rng = np.random.default_rng(5)
    A, B, X = (rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)) for _ in range(3))
    lhs = mc.vec(A @ X @ B)
    rhs = np.kron(B.T, A) @ mc.vec(X)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_matrix_json_roundtrip():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    data = json.loads(json.dumps(mc.matrix_to_json(M)))
    assert mc.max_abs_diff(mc.matrix_from_json(data), M) == 0.0


def test_matrix_json_rejects_garbage():
    with pytest.raises(InvalidArgumentError):
        mc.matrix_from_json([[1, 2], [3]])


def test_op_norm_estimate_on_shift():
    assert abs(mc.op_norm_estimate(np.array([[0, 2], [0, 0]])) - 2.0) < 1e-12


def test_op_norm_estimate_on_stack_is_one_norm_per_matrix():
    rng = np.random.default_rng(13)
    stack = rng.standard_normal((4, 3, 3)) + 1j * rng.standard_normal((4, 3, 3))
    norms = mc.op_norm_estimate(stack)
    assert norms.shape == (4,)
    assert [float(v) for v in norms] == [mc.op_norm_estimate(m) for m in stack]
    with pytest.raises(InvalidArgumentError):
        mc.op_norm_estimate(np.ones((2, 2, 3)))
    stack[1, 0, 0] = np.nan
    with pytest.raises(InvalidArgumentError):
        mc.op_norm_estimate(stack)
