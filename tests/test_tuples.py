import itertools
import math

import numpy as np
import pytest

from isotuple import matrix_core as mc
from isotuple.errors import BudgetExceededError, InvalidArgumentError, SingularMatrixError
from isotuple.generators import (
    PROFILES,
    paper_example_squares,
    random_instance,
    random_instances,
    upper_shift,
)
from isotuple.tuples import (
    OperatorTuple,
    PowerConvention,
    adjoint_tuple,
    commutes_cross,
    commutes_within,
    conj_tuple,
    inverse_tuple,
    mix_by_unitary,
    nilpotency_order,
    nilpotency_stack_orders,
    power_tuple,
    product_tuple,
    scalar_tuple,
    sum_tuple,
    tensor_tuple,
)

SHIFT_UP = np.array([[0, 1], [0, 0]], dtype=complex)
SHIFT_DOWN = np.array([[0, 0], [1, 0]], dtype=complex)


def test_paper_base_tuple_commutes():
    A, _ = paper_example_squares()
    assert commutes_within(A)


def test_polynomials_in_jordan_block_commute():
    J = np.eye(3) + upper_shift(3)
    assert commutes_within(OperatorTuple.of(J, J @ J))


def test_shift_pair_does_not_commute():
    T = OperatorTuple.of(SHIFT_UP, SHIFT_DOWN)
    assert not commutes_within(T)
    comm = SHIFT_UP @ SHIFT_DOWN - SHIFT_DOWN @ SHIFT_UP
    assert mc.max_abs_diff(comm, np.diag([1, -1])) == 0.0


def test_commutes_cross_cases():
    A, _ = paper_example_squares()
    assert commutes_cross(A, A)
    assert commutes_cross(scalar_tuple(2.0, 1, 2), OperatorTuple.of(SHIFT_UP))
    assert not commutes_cross(OperatorTuple.of(SHIFT_UP), OperatorTuple.of(SHIFT_DOWN))
    with pytest.raises(InvalidArgumentError):
        commutes_cross(OperatorTuple.of(np.eye(2)), OperatorTuple.of(np.eye(3)))


def test_sum_tuple():
    A, _ = paper_example_squares()
    zero = OperatorTuple.of(mc.zero(2), mc.zero(2))
    summed = sum_tuple(A, zero)
    assert all(mc.max_abs_diff(a, b) == 0.0 for a, b in zip(summed, A))
    bumped = sum_tuple(OperatorTuple.of(np.eye(2)), OperatorTuple.of(SHIFT_UP))
    assert mc.max_abs_diff(bumped[0], np.array([[1, 1], [0, 1]])) == 0.0
    with pytest.raises(InvalidArgumentError):
        sum_tuple(A, OperatorTuple.of(np.eye(2)))


def test_product_tuple_with_identity():
    A, _ = paper_example_squares()
    prod = product_tuple(scalar_tuple(1.0, 1, 2), A)
    assert prod.d == A.d
    assert all(mc.max_abs_diff(a, b) == 0.0 for a, b in zip(prod, A))


def test_product_tuple_scalars():
    S = scalar_tuple(2.0, 1, 2)
    A = OperatorTuple.of(3.0 * np.eye(2), 5.0 * np.eye(2))
    prod = product_tuple(S, A)
    assert mc.max_abs_diff(prod[0], 6.0 * np.eye(2)) == 0.0
    assert mc.max_abs_diff(prod[1], 10.0 * np.eye(2)) == 0.0


def test_product_tuple_ordering_is_row_major_in_s():
    S = OperatorTuple.of(1.0 * np.eye(2), 2.0 * np.eye(2))
    A = OperatorTuple.of(10.0 * np.eye(2), 20.0 * np.eye(2))
    prod = product_tuple(S, A)
    values = [p[0, 0].real for p in prod]
    assert values == [10.0, 20.0, 20.0, 40.0]  # S1A1, S1A2, S2A1, S2A2


def test_power_tuple_word_square_of_paper_tuple():
    A, _ = paper_example_squares()
    sq = power_tuple(A, 2, PowerConvention.WORD)
    assert sq.d == 4
    for comp in sq:
        assert mc.max_abs_diff(comp, 0.5 * np.eye(2)) < 1e-15


def test_power_tuple_componentwise():
    A, _ = paper_example_squares()
    sq = power_tuple(A, 2, "componentwise")
    assert sq.d == 2
    for comp in sq:
        assert mc.max_abs_diff(comp, 0.5 * np.eye(2)) < 1e-15


def test_power_tuple_t1_is_identity_map():
    A, _ = paper_example_squares()
    for conv in ("word", "componentwise"):
        out = power_tuple(A, 1, conv)
        assert all(mc.max_abs_diff(a, b) == 0.0 for a, b in zip(out, A))


def test_power_tuple_counts():
    T = OperatorTuple.of(np.eye(2), 2 * np.eye(2), 3 * np.eye(2))
    assert power_tuple(T, 3, "word").d == 27
    assert power_tuple(T, 3, "componentwise").d == 3


def test_power_tuple_budget():
    A, _ = paper_example_squares()
    with pytest.raises(BudgetExceededError):
        power_tuple(A, 40, "word")
    with pytest.raises(InvalidArgumentError):
        power_tuple(A, 0, "word")


def test_inverse_tuple_of_paper_base():
    A, _ = paper_example_squares()
    inv = inverse_tuple(A)
    for comp in inv:
        assert mc.max_abs_diff(comp, math.sqrt(2.0) * np.eye(2)) < 1e-14


def test_inverse_tuple_names_singular_index():
    T = OperatorTuple.of(np.eye(2), SHIFT_UP)
    with pytest.raises(SingularMatrixError) as err:
        inverse_tuple(T)
    assert "component 1" in str(err.value)


def test_adjoint_tuple_involution_and_selfadjoint_fixture():
    H = np.array([[1, 2j], [-2j, 0]], dtype=complex)
    T = OperatorTuple.of(H)
    assert mc.max_abs_diff(adjoint_tuple(T)[0], H) == 0.0
    rng = np.random.default_rng(2)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    tup = OperatorTuple.of(M)
    assert mc.max_abs_diff(adjoint_tuple(adjoint_tuple(tup))[0], M) == 0.0


def test_conj_tuple():
    T = OperatorTuple.of(1j * np.eye(2))
    assert mc.max_abs_diff(conj_tuple(T)[0], -1j * np.eye(2)) == 0.0


def test_scalar_tuple():
    T = scalar_tuple(1.0, 3, 2)
    assert T.d == 3 and T.dim == 2
    for comp in T:
        assert mc.max_abs_diff(comp, np.eye(2)) == 0.0


@pytest.mark.parametrize("d, n", [(1.5, 2), (2, "2"), (0, 2), (2, -1)])
def test_scalar_tuple_refuses_a_size_that_is_not_a_positive_integer(d, n):
    with pytest.raises(InvalidArgumentError, match="integers d >= 1 and n >= 1"):
        scalar_tuple(1.0, d, n)


def test_tensor_tuple_identity_and_count():
    eye = OperatorTuple.of(np.eye(2))
    assert mc.max_abs_diff(tensor_tuple(eye, eye)[0], np.eye(4)) == 0.0
    A = OperatorTuple.of(np.eye(2), 2 * np.eye(2))
    B = OperatorTuple.of(np.eye(3), 2 * np.eye(3), 3 * np.eye(3))
    assert tensor_tuple(A, B).d == 6


def test_tensor_with_identity_preserves_defect_profile():
    # (A (x) I) against I (x) I has the same defect norms as (A) against I
    from isotuple import classify
    from isotuple.generators import jordan_block

    T = jordan_block(1.0, 2)
    A = OperatorTuple.of(T.conj().T)
    B = OperatorTuple.of(T)
    eye = OperatorTuple.of(np.eye(2))
    lifted_a = tensor_tuple(A, eye)
    lifted_b = tensor_tuple(B, eye)
    base = classify.defect_profile(A, B, np.eye(2), k_max=6)
    lifted = classify.defect_profile(lifted_a, lifted_b, np.eye(4), k_max=6)
    assert lifted.min_isometry_degree == base.min_isometry_degree == 3
    for k in range(7):
        # Frobenius norms pick up the sqrt(dim) factor of the identity leg
        assert abs(lifted.triangle_norms[k] - np.sqrt(2.0) * base.triangle_norms[k]) < 1e-10


def test_mix_by_unitary_identity_and_permutation():
    A, _ = paper_example_squares()
    mixed = mix_by_unitary(np.eye(2), A)
    assert all(mc.max_abs_diff(a, b) == 0.0 for a, b in zip(mixed, A))
    perm = np.array([[0, 1], [1, 0]], dtype=complex)
    T = OperatorTuple.of(np.eye(2), 2 * np.eye(2))
    swapped = mix_by_unitary(perm, T)
    assert mc.max_abs_diff(swapped[0], 2 * np.eye(2)) == 0.0
    assert mc.max_abs_diff(swapped[1], np.eye(2)) == 0.0


def test_mix_by_unitary_rejects_bad_inputs():
    T = OperatorTuple.of(np.eye(2))
    with pytest.raises(InvalidArgumentError):
        mix_by_unitary(np.array([[0, 1], [1j, 0]]), T)  # shape mismatch for d=1
    T2 = OperatorTuple.of(np.eye(2), 2 * np.eye(2))
    with pytest.raises(InvalidArgumentError) as err:
        mix_by_unitary(2.0 * np.eye(2), T2)
    assert "not unitary" in str(err.value)


def brute_force_nilpotency(N, max_order):
    # every word, not just compositions: independent of the commuting shortcut
    for n in range(1, max_order + 1):
        all_zero = True
        for word in itertools.product(range(N.d), repeat=n):
            prod = np.eye(N.dim, dtype=complex)
            for idx in word:
                prod = prod @ N[idx]
            if np.linalg.norm(prod) > 1e-10:
                all_zero = False
                break
        if all_zero:
            return n
    return None


def test_nilpotency_order_examples():
    single = OperatorTuple.of(SHIFT_UP)
    assert nilpotency_order(single, 5) == 2
    zero = OperatorTuple.of(mc.zero(2), mc.zero(2))
    assert nilpotency_order(zero, 3) == 1
    # (N, N^2) with N the 3x3 shift: the word (2,0) gives N^2 != 0 at length 2,
    # while every length-3 word has total shift power >= 3; order is 3.
    shift3 = upper_shift(3)
    pair = OperatorTuple.of(shift3, shift3 @ shift3)
    assert nilpotency_order(pair, 5) == 3 == brute_force_nilpotency(pair, 5)


def test_nilpotency_order_none_for_invertible():
    assert nilpotency_order(OperatorTuple.of(np.eye(2)), 6) is None


def test_nilpotency_order_strict_mode_rejects_noncommuting():
    T = OperatorTuple.of(SHIFT_UP, SHIFT_DOWN)
    with pytest.raises(InvalidArgumentError):
        nilpotency_order(T, 4)


def test_product_and_tensor_preserve_commutation():
    rng = np.random.default_rng(17)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = OperatorTuple.of(M, M @ M + M)
    B = OperatorTuple.of(np.eye(3) + 0.5 * M, M)
    assert commutes_within(product_tuple(A, B))
    C = OperatorTuple.of(np.eye(2), np.array([[1, 1], [0, 1]], dtype=complex))
    assert commutes_within(tensor_tuple(A, C))


def test_mix_by_unitary_preserves_commutation():
    rng = np.random.default_rng(23)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    T = OperatorTuple.of(M, M @ M)
    U = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
    assert commutes_within(mix_by_unitary(U, T))


def test_tuple_json_roundtrip_and_validation():
    A, _ = paper_example_squares()
    data = A.to_json()
    back = OperatorTuple.from_json(data)
    assert all(mc.max_abs_diff(a, b) == 0.0 for a, b in zip(back, A))
    data_bad = dict(data)
    data_bad["d"] = 5
    with pytest.raises(InvalidArgumentError):
        OperatorTuple.from_json(data_bad)


def test_operator_tuple_validation():
    with pytest.raises(InvalidArgumentError):
        OperatorTuple(())
    with pytest.raises(InvalidArgumentError):
        OperatorTuple.of(np.eye(2), np.eye(3))


def test_operator_tuple_components_are_frozen():
    A, _ = paper_example_squares()
    with pytest.raises(ValueError):
        A[0][0, 0] = 5.0


def _norm_cases():
    """Random tuples at d 1-4 and n 1-16, and one tuple from each generator profile."""
    rng = np.random.default_rng(11)
    for d in range(1, 5):
        for n in (1, 2, 3, 5, 8, 16):
            yield OperatorTuple(
                tuple(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(d))
            )
    for profile in PROFILES:
        bundle = random_instance(profile, 5)
        yield bundle.tuples[sorted(bundle.tuples)[0]]


def test_cached_spectral_norms_equal_fresh_ones(monkeypatch):
    # the batched norms are bit for bit the norms of one matrix at a time
    tuples = list(_norm_cases())
    for A in tuples:
        assert A.op_norms == tuple(float(np.linalg.norm(c, 2)) for c in A)
        assert A.sum_op_norm == float(np.linalg.norm(A.component_sum(), 2))

    def no_more_svds(a):
        raise AssertionError("spectral norm recomputed")

    monkeypatch.setattr(mc, "op_norm_estimate", no_more_svds)
    for A in tuples:
        assert len(A.op_norms) == A.d and A.sum_op_norm >= 0.0


@pytest.mark.parametrize("tol", [mc.DEFAULT_TOL, mc.Tolerance(abs_eps=0, rel_eps=1e-16)])
def test_stacked_nilpotency_orders_equal_one_tuple_at_a_time(tol):
    # the perturbation tuples of every seed of the three nilpotent ids, a stack per shape
    keys = {"thm05": ("N1", "N2"), "cor05": ("N1", "N2"), "cor050": ("N",)}
    by_shape: dict = {}
    for profile, names in keys.items():
        for bundle in random_instances(profile, range(200)):
            for key in names:
                by_shape.setdefault(bundle.tuples[key].stack.shape, []).append(bundle.tuples[key])
    # at the tight tolerance some commutators of these tuples fail the strict check
    strict = tol == mc.DEFAULT_TOL
    alone = [nilpotency_order(N, N.dim, tol, strict) for found in by_shape.values() for N in found]
    assert set(alone) == {2, 3} if strict else len(set(alone)) > 2
    stacked = nilpotency_stack_orders(
        [(np.stack([N.stack for N in found]), shape[-1]) for shape, found in by_shape.items()], tol
    )
    assert [k or None for orders in stacked for k in orders.tolist()] == alone


def test_nilpotency_order_of_a_non_nilpotent_tuple_is_none():
    pair = OperatorTuple.of(upper_shift(3), upper_shift(3) @ upper_shift(3))
    invertible = OperatorTuple.of(np.eye(3), upper_shift(3))
    assert [nilpotency_order(N, k) for N, k in [(pair, 5), (invertible, 5), (pair, 2)]] == [3, None, None]


def test_nilpotency_order_refuses_a_bad_max_order_before_a_non_commuting_tuple():
    good = OperatorTuple.of(SHIFT_UP)
    bad = OperatorTuple.of(SHIFT_UP, SHIFT_DOWN)
    for N in (good, bad):
        for max_order in (0, -1, 1.5, [2]):
            with pytest.raises(InvalidArgumentError, match=r"^max_order must be a positive integer, got "):
                nilpotency_order(N, max_order)
    with pytest.raises(InvalidArgumentError, match=r"^tuple does not commute \(max residual "):
        nilpotency_order(bad, 4)
    assert nilpotency_order(good, 4) == 2


@pytest.mark.parametrize("components", [["abc"], [object()], [np.eye(2), "abc"], [[[1, 2], [3]]]])
def test_components_numpy_cannot_read_as_complex_are_refused(components):
    with pytest.raises(InvalidArgumentError, match="^component [01] is not an array of complex numbers"):
        OperatorTuple(components)
