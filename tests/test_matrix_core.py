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
    # an infinite scale would pass every matrix and a NaN one fail every matrix
    for scale in (math.inf, math.nan):
        with pytest.raises(InvalidArgumentError, match="finite and non-negative"):
            mc.is_zero(1e300 * mc.identity(2), mc.DEFAULT_TOL, scale=scale)


def test_is_zero_rejects_negative_scale():
    with pytest.raises(InvalidArgumentError):
        mc.is_zero(mc.zero(2), mc.DEFAULT_TOL, scale=-1.0)


def test_tolerance_validation():
    with pytest.raises(InvalidArgumentError):
        mc.Tolerance(abs_eps=-1e-3)


@pytest.mark.parametrize("field", ["abs_eps", "rel_eps"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_tolerance_refuses_nan_and_infinite_components(field, value):
    # NaN would fail every zero test and infinity would pass every one
    with pytest.raises(InvalidArgumentError, match="finite and non-negative"):
        mc.Tolerance(**{field: value})


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


@pytest.mark.parametrize(
    "literal",
    [
        [[[1, 0], [0, 0]], [[0, 0]]],  # rows of different lengths
        [[[1, 0, 5]]],  # an entry with a third number
        [[[1]]],
        [[[]]],
        [[[None, 0]]],
        [[["1", "0"]]],
        [[[10**400, 0]]],
        [[[True, False]]],  # complex() would read it as 1 + 0j
        [[[0.5, True]]],
        [[1, 0]],
        5,
    ],
)
def test_matrix_json_refuses_malformed_literals(literal):
    with pytest.raises(InvalidArgumentError, match="malformed matrix literal"):
        mc.matrix_from_json(literal)


def test_matrix_json_parses_valid_literals_to_the_same_bits():
    literal = [
        [[1, 0], [-0.0, 2.5], [1e-300, -3]],
        [[0.1, 0.2], [1, 0], [-7, 1e300]],
        [[2**60 + 1, 0], [0.0, -0.0], [math.pi, -math.e]],
    ]
    expected = np.array([[complex(e[0], e[1]) for e in row] for row in literal])
    parsed = mc.matrix_from_json(literal)
    assert parsed.dtype == np.complex128
    assert parsed.tobytes() == expected.tobytes()


def _layouts(rng, n):
    """An n x n complex matrix as C-ordered, Fortran-ordered, transposed and strided arrays."""
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    big = rng.standard_normal((2 * n, 2 * n)) + 1j * rng.standard_normal((2 * n, 2 * n))
    return [M, np.asfortranarray(M), M.T, M.conj().T, big[::2, ::2], M.real.copy()]


@pytest.mark.parametrize("n", range(1, 10))
def test_fro_norm_equals_numpy_norm_bit_for_bit(n):
    rng = np.random.default_rng(n)
    for M in _layouts(rng, n):
        assert mc.fro_norm(M) == float(np.linalg.norm(np.asarray(M, dtype=complex), "fro"))


@pytest.mark.parametrize("d", range(1, 10))
@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 24])
def test_ordered_sum_adds_in_index_order(d, n):
    rng = np.random.default_rng(100 * d + n)
    stack = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    stack *= 10.0 ** rng.integers(-8, 9, size=(d, 1, 1))  # magnitudes that expose reordering
    stack[:, 0, 0] = complex(-0.0, -0.0)  # a loop from zero turns it into +0.0
    expected = np.zeros((n, n), dtype=complex)
    for term in stack:
        expected += term
    got = mc.ordered_sum(stack)
    assert np.array_equal(got, expected)
    assert np.array_equal(np.signbit(got.view(float)), np.signbit(expected.view(float)))


def test_as_stack_validates_shape_and_finiteness():
    assert mc.as_stack(np.eye(2)[None]).shape == (1, 2, 2)
    for bad in (np.ones((2, 2)), np.ones((2, 2, 3)), np.ones((0, 2, 2)), np.ones((1, 0, 0))):
        with pytest.raises(InvalidArgumentError, match="square non-empty"):
            mc.as_stack(bad)
    with pytest.raises(InvalidArgumentError, match="non-finite"):
        mc.as_stack(np.full((1, 2, 2), np.inf))


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


@pytest.mark.parametrize("bad", [
    pytest.param("abc", id="string"), pytest.param(object(), id="object"), pytest.param({"a": 1}, id="dict"),
    pytest.param([[1, "x"], [2, 3]], id="string-entry"), pytest.param([[1, 2], [3]], id="ragged"),
    pytest.param(10**400, id="int-past-float"),
])
def test_values_numpy_cannot_read_as_complex_are_refused(bad):
    for convert in (mc.as_matrix, mc.as_stack):
        with pytest.raises(InvalidArgumentError, match="is not an array of complex numbers"):
            convert(bad)


def test_values_numpy_reads_as_complex_are_still_accepted():
    for value in ([[1, 2], [3, 4]], [[1 + 2j, "3"], [4.5, "1j"]], np.eye(3, dtype=int), [[True]]):
        assert np.array_equal(mc.as_matrix(value), np.asarray(value, dtype=np.complex128))
        assert np.array_equal(mc.as_stack([value])[0], np.asarray(value, dtype=np.complex128))
