import json

import numpy as np
import pytest

from isotuple import classify, generators
from isotuple import matrix_core as mc
from isotuple import transforms as tf
from isotuple.errors import InvalidArgumentError
from isotuple.generators import (
    PROFILES,
    InstanceBundle,
    commuting_from_seed,
    conjugation_apply,
    jordan_isometric,
    jordan_symmetric,
    nilpotent_commuting,
    nilpotent_seed,
    paper_example_mixing,
    paper_example_squares,
    poly_eval,
    random_instance,
    upper_shift,
)
from isotuple.tuples import (
    OperatorTuple,
    commutes_within,
    max_commutator_within,
    nilpotency_order,
)


def test_poly_eval_ascending_coefficients():
    M = np.array([[0, 1], [0, 0]], dtype=complex)
    got = poly_eval(M, [2.0, 3.0])  # 2 I + 3 M
    assert mc.max_abs_diff(got, np.array([[2, 3], [0, 2]])) == 0.0


def test_commuting_from_seed_identity_polys():
    M = np.array([[1, 2], [0, 3]], dtype=complex)
    T = commuting_from_seed(M, [[0, 1], [0, 1]])
    assert all(mc.max_abs_diff(c, M) == 0.0 for c in T)


def test_commuting_from_seed_jordan_pair():
    J = np.eye(3) + upper_shift(3)
    T = commuting_from_seed(J, [[1.0], [0.0, 1.0]])
    assert mc.max_abs_diff(T[0], np.eye(3)) == 0.0
    assert mc.max_abs_diff(T[1], J) == 0.0
    assert commutes_within(T)


def test_commuting_from_seed_is_exactly_commuting():
    rng = np.random.default_rng(13)
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    M /= np.linalg.norm(M)
    polys = [[rng.standard_normal() for _ in range(4)] for _ in range(3)]
    T = commuting_from_seed(M, polys)
    assert max_commutator_within(T) <= 1e-13


def test_nilpotent_seed_index():
    for n, idx in [(4, 3), (4, 2), (5, 5), (3, 1)]:
        M = nilpotent_seed(n, idx)
        powers = [np.linalg.matrix_power(M, k) for k in range(idx + 1)]
        assert np.linalg.norm(powers[idx]) == 0.0
        if idx > 1:
            assert np.linalg.norm(powers[idx - 1]) > 0.0


def test_nilpotent_commuting_basic_shapes():
    N = nilpotent_commuting(2, 1, 2, rng_seed=0)
    assert N.d == 1 and N.dim == 2
    assert abs(N[0][0, 1]) > 0.0 and abs(N[0][1, 0]) == 0.0
    assert nilpotency_order(N, 3) == 2


def test_nilpotent_commuting_order_three_at_dim_four():
    N = nilpotent_commuting(4, 2, 3, rng_seed=5)
    assert nilpotency_order(N, 5) == 3
    assert commutes_within(N)


def test_nilpotent_commuting_zero_order_one():
    N = nilpotent_commuting(3, 2, 1, rng_seed=1)
    assert all(mc.fro_norm(c) == 0.0 for c in N)
    assert nilpotency_order(N, 2) == 1


def test_nilpotent_commuting_unachievable_order():
    with pytest.raises(InvalidArgumentError):
        nilpotent_commuting(2, 1, 3, rng_seed=0)


def test_nilpotent_commuting_is_deterministic():
    N1 = nilpotent_commuting(4, 2, 3, rng_seed=9)
    N2 = nilpotent_commuting(4, 2, 3, rng_seed=9)
    assert all(np.array_equal(a, b) for a, b in zip(N1, N2))


def test_jordan_symmetric_matrix_and_degrees():
    T = jordan_symmetric(1.0, 2)
    assert mc.max_abs_diff(T, np.array([[1, 1], [0, 1]])) == 0.0
    A, B = OperatorTuple.of(T.conj().T), OperatorTuple.of(T)
    profile = classify.defect_profile(A, B, np.eye(2), k_max=6)
    assert profile.min_symmetry_degree == 3


def test_jordan_isometric_degrees_via_superoperator_oracle():
    T = jordan_isometric(1.0, 2)
    A, B = OperatorTuple.of(T.conj().T), OperatorTuple.of(T)
    eye_vec = mc.vec(np.eye(2))
    sig_hat = tf.superop_matrix(A, B, "sigma")
    d2 = np.linalg.matrix_power(np.eye(4) - sig_hat, 2) @ eye_vec
    d3 = np.linalg.matrix_power(np.eye(4) - sig_hat, 3) @ eye_vec
    assert np.linalg.norm(d3) < 1e-12
    assert np.linalg.norm(d2) > 1e-3


def test_jordan_factories_collapse_at_size_one():
    assert mc.max_abs_diff(jordan_symmetric(2.0, 1), 2.0 * np.eye(1)) == 0.0
    T = jordan_isometric(1j, 1)
    A, B = OperatorTuple.of(T.conj().T), OperatorTuple.of(T)
    assert classify.is_isometric(A, B, np.eye(1), 1)


def test_jordan_factory_input_validation():
    with pytest.raises(InvalidArgumentError):
        jordan_isometric(2.0, 2)
    with pytest.raises(InvalidArgumentError):
        jordan_symmetric(1.0 + 0.5j, 2)


def test_paper_example_mixing_values():
    T, A0, U, S = paper_example_mixing()
    assert mc.max_abs_diff(S, np.array([[0, 1], [1j, 1j]])) == 0.0
    sas = mc.adjoint(S) @ A0 @ S
    assert mc.max_abs_diff(sas, np.ones((2, 2))) < 1e-14
    s2as2 = mc.adjoint(S) @ mc.adjoint(S) @ A0 @ S @ S
    assert mc.max_abs_diff(s2as2, np.array([[1, 1 - 1j], [1 + 1j, 2]])) < 1e-14


def test_paper_example_squares_is_one_isometric():
    A, B = paper_example_squares()
    assert mc.fro_norm(tf.triangle(A, B, np.eye(2), 1)) < 1e-14


def test_conjugation_apply():
    X = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert mc.max_abs_diff(conjugation_apply(X), X) == 0.0
    Y = 1j * np.eye(2)
    assert mc.max_abs_diff(conjugation_apply(Y), -Y) == 0.0
    rng = np.random.default_rng(21)
    Z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert mc.max_abs_diff(conjugation_apply(conjugation_apply(Z)), Z) == 0.0


@pytest.mark.parametrize("profile", PROFILES)
def test_random_instance_hypothesis_residuals(profile):
    for seed in range(6):
        bundle = random_instance(profile, seed)
        assert bundle.profile == profile
        for name, value in bundle.residuals.items():
            assert value <= 1e-10, f"{profile} seed {seed}: residual {name} = {value:.3e}"


def _count_residual_kernels(monkeypatch) -> list[str]:
    """Record every call of the kernels that residuals are made of."""
    calls: list[str] = []

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for name in ("triangle", "delta", "isosym_defect"):
        counting(tf, name)
    for name in ("max_commutator_within", "max_commutator_cross"):
        counting(generators, name)
    return calls


@pytest.mark.parametrize("profile", PROFILES)
def test_residuals_are_computed_on_first_read_only(monkeypatch, profile):
    calls = _count_residual_kernels(monkeypatch)
    bundles = [random_instance(profile, seed) for seed in range(8)]
    assert calls == [], f"building {profile} bundles computed residuals"
    for bundle in bundles:
        first = bundle.residuals
        assert first and calls, f"{profile} seed {bundle.seed} computed no residuals"
        computed = len(calls)
        assert bundle.residuals is first
        assert len(calls) == computed


@pytest.mark.parametrize("profile", PROFILES)
def test_residuals_describe_the_instance_as_built(profile):
    # the residual function closes over the built objects, not the bundle's dicts
    expected = random_instance(profile, 5).residuals
    bundle = random_instance(profile, 5)
    stranger = OperatorTuple.of(np.diag([1.0, 2.0]))
    for key in bundle.tuples:
        bundle.tuples[key] = stranger
    for key in bundle.matrices:
        bundle.matrices[key] = np.eye(2)
    assert bundle.residuals == expected


@pytest.mark.parametrize("profile", PROFILES)
def test_random_instance_matrices_are_read_only(profile):
    for X in random_instance(profile, 2).matrices.values():
        with pytest.raises(ValueError):
            X[0, 0] = 1.0


def test_bundle_without_residual_function_reads_empty():
    A = OperatorTuple.of(np.eye(2))
    bundle = InstanceBundle(
        profile="pro01", seed=0, tuples={"A": A, "B": A}, matrices={"X": np.eye(2)},
        params={"m": 1},
    )
    assert bundle.residuals == {}
    assert bundle.to_json()["residuals"] == {}


@pytest.mark.parametrize("profile", PROFILES)
def test_random_instance_is_deterministic(profile):
    a = random_instance(profile, 123)
    b = random_instance(profile, 123)
    assert sorted(a.tuples) == sorted(b.tuples)
    for key in a.tuples:
        for x, y in zip(a.tuples[key], b.tuples[key]):
            assert np.array_equal(x, y)
    for key in a.matrices:
        assert np.array_equal(a.matrices[key], b.matrices[key])
    assert a.params == b.params


def test_random_instance_rejects_unknown_profile():
    with pytest.raises(InvalidArgumentError):
        random_instance("bogus", 0)


def test_bundle_json_is_serializable():
    bundle = random_instance("thm05", 3)
    payload = json.dumps(bundle.to_json())
    back = json.loads(payload)
    assert back["profile"] == "thm05"
    assert set(back["tuples"]) == {"A", "B", "N1", "N2"}
