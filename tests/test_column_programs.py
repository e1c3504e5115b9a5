"""Column programs give each trial what its check gives alone.

Every theorem checks a campaign chunk as one column program: every stage
runs once over the stacks of all live trials, through the stack kernels
(``commutator_stack_checks``, ``nilpotency_stack_orders``,
``defect_stack_checks``, ``stack_defects``).  Here each stack kernel is
compared with its single-item API, bit for bit, on every profile's tuples, and
each program with its check run one trial at a time, on chunks that mix
passing trials, a trial for each skip reason and planted trials that are
refused.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from isotuple import matrix_core as mc
from isotuple import transforms as tf
from isotuple import verify
from isotuple.errors import InvalidArgumentError
from isotuple.generators import InstanceBundle, PROFILES, random_instance, random_instances
from isotuple.tuples import (
    OperatorTuple,
    _commutator_check,
    commutator_stack_checks,
    commutes_cross,
    commutes_within,
    nilpotency_order,
    nilpotency_stack_orders,
    product_stacks,
    product_tuple,
    stack_sums,
    sum_stacks,
    sum_tuple,
)

SEEDS = range(200)
TOLERANCES = (mc.DEFAULT_TOL, mc.Tolerance(abs_eps=0, rel_eps=1e-16))
#: Rows of a stack compared with their single-item call: every SAMPLE-th.
SAMPLE = 4


def _same(a, b) -> bool:
    """Equal bits, the sign of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and np.array_equal(a.view(np.uint8), b.view(np.uint8))


@functools.lru_cache(maxsize=None)
def _instances(profile: str) -> tuple:
    return tuple(random_instances(profile, SEEDS))


@functools.lru_cache(maxsize=None)
def _tuples(profile: str) -> dict:
    """Every tuple of the profile's instances at SEEDS, by shape: the tuples, their names
    in the bundles and their stack."""
    by_shape: dict = {}
    for bundle in _instances(profile):
        for name, T in bundle.tuples.items():
            found = by_shape.setdefault(T.stack.shape, ([], []))
            found[0].append(T)
            found[1].append(name)
    return {shape: (found, names, np.stack([T.stack for T in found]))
            for shape, (found, names) in by_shape.items()}


@pytest.mark.parametrize("tol", TOLERANCES)
@pytest.mark.parametrize("profile", PROFILES)
def test_stack_kernels_equal_the_single_item_apis_on_every_profile(profile, tol):
    # the stack kernels read no norm or sum that the tuples keep from the single-item
    # APIs; every SAMPLE-th row of each stack is judged alone
    for (d, n, _), (found, names, stack) in _tuples(profile).items():
        (passed, residuals), (cross_passed, cross_residuals) = commutator_stack_checks(
            [(stack, None), (stack, stack[::-1].copy())], tol
        )
        rows = range(0, len(found), SAMPLE)
        assert list(zip(passed[::SAMPLE].tolist(), residuals[::SAMPLE].tolist())) == [
            (commutes_within(found[b], tol), _commutator_check(found[b], found[b], mc.DEFAULT_TOL)[1]) for b in rows
        ]
        assert list(zip(cross_passed[::SAMPLE].tolist(), cross_residuals[::SAMPLE].tolist())) == [
            (commutes_cross(found[b], found[-1 - b], tol),
             _commutator_check(found[b], found[-1 - b], mc.DEFAULT_TOL)[1])
            for b in rows
        ]
        nilpotent = [b for b, name in enumerate(names) if name.startswith("N")][::SAMPLE]
        if nilpotent:
            orders = nilpotency_stack_orders([(stack[nilpotent], n)], tol)[0]
            assert [k or None for k in orders.tolist()] == [
                nilpotency_order(found[b], n, tol, strict=False) for b in nilpotent
            ]
    # zero tests of every kind, (0, 0) to (2, 1), on the pair each instance's check profiles
    (entry,) = [entry for entry in verify.THEOREMS.values() if entry.profile == profile]
    pairs: dict = {}
    for bundle in _instances(profile):
        A, B, X = entry.pair(bundle)
        pairs.setdefault((A.stack.shape, B.stack.shape), []).append((A, B, X))
    judged = set()
    for found in pairs.values():
        rows = np.arange(len(found))
        ms, ns = rows % 3, rows // 3 % 2
        A, B, X = (np.stack([getattr(T, "stack", T) for T in column]) for column in zip(*found))
        ((norms, thresholds),) = tf.defect_stack_checks([(A, B, X, ms, ns)], tol, {})
        # the first row of each degree, then every SAMPLE-th
        sample = sorted({*rows[:6].tolist(), *rows[::SAMPLE].tolist()})
        assert list(zip(norms[sample].tolist(), thresholds[sample].tolist())) == [
            tf.defect_check(*found[b], int(ms[b]), int(ns[b]), tol) for b in sample
        ]
        judged |= {(int(ms[b]), int(ns[b])) for b in sample}
    assert judged == {(m, n) for m in range(3) for n in range(2)}


@pytest.mark.parametrize("tol", TOLERANCES)
def test_generated_tuples_commute_at_the_default_tolerance_only(tol):
    # every tuple of every profile, a stack per shape: all commute within at the
    # default tolerance, and the tight one fails some of them
    failed = [
        not passed.all()
        for profile in PROFILES
        for passed, _ in commutator_stack_checks(
            [(stack, None) for _, _, stack in _tuples(profile).values()], tol
        )
    ]
    assert any(failed) == (tol.abs_eps == 0)


@pytest.mark.parametrize("profile", PROFILES)
def test_stacked_expressions_equal_each_row_alone(profile):
    for _, (found, _, stack) in _tuples(profile).items():
        found, stack = found[: verify.LOCKSTEP_TRIALS], stack[: verify.LOCKSTEP_TRIALS]  # a chunk's worth
        A, B, X = stack, np.roll(stack, 1, axis=0), stack[:, -1].copy()
        degrees = np.arange(len(stack)) % 4  # each tuple paired with the one before it
        zero = 0 * degrees
        triangles = tf.stack_defects(A, B, X, degrees, zero)
        deltas = tf.stack_defects(A, B, X, zero, degrees + 1)
        sums, products = sum_stacks(A, B), product_stacks(A, B)
        for b in range(0, len(stack), 5):  # a sample of the rows, each alone
            assert _same(triangles[b], tf.triangle(found[b], found[b - 1], X[b], int(degrees[b])))
            assert _same(deltas[b], tf.delta(found[b], found[b - 1], X[b], int(degrees[b]) + 1))
            assert _same(sums[b], sum_tuple(found[b], found[b - 1]).stack)
            assert _same(products[b], product_tuple(found[b], found[b - 1]).stack)


@pytest.mark.parametrize("d", [1, 2, 5])
@pytest.mark.parametrize("n", [1, 3])
def test_stack_sums_equal_the_sum_reduced_in_order(d, n):
    rng = np.random.default_rng(10 * d + n)
    stacks = rng.standard_normal((6, d, n, n)) + 1j * rng.standard_normal((6, d, n, n))
    stacks *= 10.0 ** rng.integers(-8, 9, size=(6, d, 1, 1))
    stacks[0] = -0.0  # every entry a negative zero: a sum from +0.0 would lose the sign
    stacks[1, :, 0, 0] = -0.0
    sums = stack_sums(stacks)
    assert _same(sums, [functools.reduce(np.add, stack) for stack in stacks])
    assert np.signbit(sums[0].real).all()
    T = OperatorTuple(stacks[2])
    assert _same(T.component_sum(), functools.reduce(np.add, T.stack))


def test_stack_kernels_refuse_as_the_list_kernels_refuse():
    A = np.stack([np.eye(2, dtype=complex)[None]] * 3)
    with pytest.raises(InvalidArgumentError, match="^m must be a non-negative integer, got 1.5$"):
        tf.defect_stack_checks([(A, A, A[:, 0], [1, 1.5, 2], [0, 0, 0])], mc.DEFAULT_TOL, {})
    with pytest.raises(InvalidArgumentError, match="^n must be a non-negative integer, got -1$"):
        tf.defect_stack_checks([(A, A, A[:, 0], [1, 1, 1], np.array([0, -1, 0]))], mc.DEFAULT_TOL, {})
    with pytest.raises(InvalidArgumentError, match="^dimension mismatch: A is 2, B is 2, X is 3$"):
        tf.defect_stack_checks([(A, A, np.ones((3, 3, 3)), [1] * 3, [0] * 3)], mc.DEFAULT_TOL, {})
    with pytest.raises(InvalidArgumentError, match="^tolerance scale overflows"):
        tf.defect_stack_checks([(1e200 * A, A, A[:, 0], [2] * 3, [0] * 3)], mc.DEFAULT_TOL, {})
    with pytest.raises(InvalidArgumentError, match="^X contains non-finite entries$"):
        tf.stack_defects(1e200 * A, 1e200 * A, A[:, 0], [3] * 3, [0] * 3)
    with pytest.raises(InvalidArgumentError, match="^operator tuple contains non-finite entries$"):
        with np.errstate(over="ignore"):  # as for sum_tuple, the sum itself overflows
            sum_stacks(1e308 * A, 1e308 * A)
    with pytest.raises(InvalidArgumentError, match="^tuple length mismatch: 1 vs 2$"):
        sum_stacks(A, np.concatenate([A, A], axis=1))


# ---------------------------------------------------------------------------
# chunks of planted trials

EYE = np.eye(4, dtype=complex)
SHIFT = np.diag(np.ones(3), 1).astype(complex)
DIAGONAL = OperatorTuple.of(np.diag([1.0, 2.0, 3.0, 4.0]), np.diag([2.0, 1.0, 1.0, 1.0]))
FULL = OperatorTuple.of(*[np.arange(16.0).reshape(4, 4) + EYE] * 2)
NONCOMMUTING = OperatorTuple.of(SHIFT, SHIFT.T)
SCALAR = OperatorTuple.of(0.5 * EYE, 0.5 * EYE)
ZERO = OperatorTuple.of(0 * EYE, 0 * EYE)


def _scaled(T: OperatorTuple, c: float) -> OperatorTuple:
    return OperatorTuple(c * T.stack)


def _rebundled(bundle: InstanceBundle, params: dict | None = None, X=None, **tuples) -> InstanceBundle:
    """The bundle with the named tuples, its X and the parameters ``params`` replaced."""
    return InstanceBundle(
        profile=bundle.profile, seed=bundle.seed, tuples={**bundle.tuples, **tuples},
        matrices=bundle.matrices if X is None else {**bundle.matrices, "X": X},
        params={**bundle.params, **(params or {})},
    )


def _alone(theorem_id: str, bundle: InstanceBundle) -> verify.TrialResult:
    """The result of one trial, from the id's ``check``."""
    return verify.THEOREMS[theorem_id].check(bundle, mc.DEFAULT_TOL, 200)


def _chunk(theorem_id: str, trials: list, tol: mc.Tolerance = mc.DEFAULT_TOL) -> list:
    """The results of trials, each a bundle, from one call of the id's program."""
    return verify.THEOREMS[theorem_id].program(trials, tol, 200)


def _thm05_trials():
    base = random_instance("thm05", 2)  # d = 2
    skips = {
        "tuple A does not commute": _rebundled(base, A=NONCOMMUTING),
        "tuple B does not commute": _rebundled(base, B=NONCOMMUTING),
        "tuple N1 does not commute": _rebundled(base, N1=NONCOMMUTING),
        "tuple N2 does not commute": _rebundled(base, N2=NONCOMMUTING),
        "[A, N1] != 0": _rebundled(base, A=DIAGONAL, N1=FULL),
        "[B, N2] != 0": _rebundled(base, B=DIAGONAL, N2=FULL),
        "perturbation tuple is not nilpotent up to the dimension": _rebundled(base, N1=SCALAR),
        "base pair violates the combined identity": _rebundled(base, A=_scaled(base.tuples["A"], 2.0)),
    }
    refused = [
        (_rebundled(base, X=np.eye(3)), "dimension mismatch: A is 4, B is 4, X is 3"),
        (_rebundled(base, {"m1": 1.5}), "m must be a non-negative integer, got 1.5"),
        # refused by the commutator stage, an earlier stage than either refusal above
        (_rebundled(base, N1=OperatorTuple.of(np.eye(3), np.eye(3))), "dimension mismatch: 4 vs 3"),
    ]
    return list(random_instances("thm05", range(8))), skips, refused


def _cor05_trials():
    base = random_instance("cor05", 1)  # d = 2
    skips = {
        "[A1,N1] != 0": _rebundled(base, A1=DIAGONAL),
        "[A2,N1] != 0": _rebundled(base, A2=DIAGONAL),
        "[B1,N2] != 0": _rebundled(base, B1=DIAGONAL),
        "[B2,N2] != 0": _rebundled(base, B2=DIAGONAL),
        "[A1,A2] != 0": _rebundled(base, A1=DIAGONAL, A2=FULL, N1=ZERO),
        "[B1,B2] != 0": _rebundled(base, B1=DIAGONAL, B2=FULL, N2=ZERO),
        "perturbation tuple is not nilpotent up to the dimension": _rebundled(base, N2=SCALAR),
        "first pair violates its isometric identity": _rebundled(base, A1=_scaled(base.tuples["A1"], 2.0)),
        "second pair violates its symmetric identity": _rebundled(base, A2=_scaled(base.tuples["A2"], 2.0)),
    }
    refused = [
        (_rebundled(base, {"m2": -1}), "n must be a non-negative integer, got -1"),
        # refused by the nilpotency stage, an earlier stage than the refusal above
        (_rebundled(base, N1=NONCOMMUTING), "tuple does not commute"),
    ]
    return list(random_instances("cor05", range(8))), skips, refused


def _cor050_trials():
    base = random_instance("cor050", 1)  # d = 2
    skips = {
        "T does not commute": _rebundled(base, T=NONCOMMUTING),
        "[T, N] != 0 or [T*, N] != 0": _rebundled(base, T=DIAGONAL),
        "perturbation tuple is not nilpotent up to the dimension": _rebundled(base, N=SCALAR),
        "base adjoint pair violates the combined identity": _rebundled(base, T=_scaled(base.tuples["T"], 2.0)),
    }
    refused = [
        (_rebundled(base, X=np.eye(3)), "dimension mismatch: A is 4, B is 4, X is 3"),
        (_rebundled(base, N=NONCOMMUTING), "tuple does not commute"),
    ]
    return list(random_instances("cor050", range(8))), skips, refused


def _thm06_trials():
    base = random_instance("thm06", 1)  # diag-unitary, d = 2, n = 3
    full = OperatorTuple.of(*[np.arange(9.0).reshape(3, 3) + np.eye(3)] * 2)
    eye, nil = OperatorTuple.of(np.eye(2)), OperatorTuple.of(np.eye(2) + np.diag([1.0], 1))

    def on_eye(A, B, S, T, m, n, r, s):
        return InstanceBundle("thm06", 0, {"A": A, "B": B, "S": S, "T": T}, {"X": np.eye(2)},
                              {"m": m, "n": n, "r": r, "s": s})

    skips = {
        "[A,S] != 0": _rebundled(base, A=full),
        "[B,S] != 0": _rebundled(base, B=full),
        "[B,T] != 0": _rebundled(base, T=full),
        "hypothesis AB_mn fails": _rebundled(base, A=_scaled(base.tuples["A"], 2.0)),
        "hypothesis ST_rs fails": _rebundled(base, S=_scaled(base.tuples["S"], 2.0)),
        # (I + N, I) with N**2 = 0 at X = I vanishes at degrees (r, s) with r + s >= 2 only
        "hypothesis ST_rn fails": on_eye(eye, eye, nil, eye, 1, 0, 1, 1),
        "hypothesis AB_ms fails": on_eye(nil, eye, eye, eye, 1, 1, 1, 0),
    }
    refused = [
        (_rebundled(base, {"r": -2}), "m must be a non-negative integer, got -2"),
        (_rebundled(base, S=OperatorTuple.of(np.eye(2))), "dimension mismatch: 3 vs 2"),
    ]
    return list(random_instances("thm06", range(9))), skips, refused


def _product_trials(theorem_id: str, base_seed: int):
    base = random_instance(theorem_id, base_seed)
    if theorem_id == "cor06":
        skips = {
            "[A,S] != 0": _rebundled(base, A=OperatorTuple.of(FULL[0])),
            "[B,S] != 0": _rebundled(base, B=OperatorTuple.of(FULL[0])),
            "[B,T] != 0": _rebundled(base, T=OperatorTuple.of(FULL[0])),
            "a factor pair violates its identity": _rebundled(base, A=_scaled(base.tuples["A"], 2.0)),
        }
    else:
        skips = {
            "A and B must be single operators": _rebundled(base, A=OperatorTuple.of(EYE, EYE)),
            "[A, S] != 0 or [B, T] != 0": _rebundled(base, A=OperatorTuple.of(FULL[0])),
            "a factor violates its identity": _rebundled(base, A=_scaled(base.tuples["A"], 2.0)),
        }
    refused = [(_rebundled(base, {"m": -1}), "must be a non-negative integer, got -1")]
    return list(random_instances(theorem_id, range(8))), skips, refused


def _embedded(bundle: InstanceBundle) -> InstanceBundle:
    """The bundle with each matrix the direct sum of its own and [[1]]: a pair of
    block-diagonal tuples acts on each block of X alone, so every defect keeps its norm."""
    def grown(M):
        out = np.eye(M.shape[-1] + 1, dtype=complex)
        out[..., :-1, :-1] = M
        return out

    return InstanceBundle(
        profile=bundle.profile, seed=bundle.seed, params=bundle.params,
        tuples={name: OperatorTuple([grown(c) for c in T]) for name, T in bundle.tuples.items()},
        matrices={name: grown(X) for name, X in bundle.matrices.items()},
    )


def _pro01_trials():
    base = random_instance("pro01", 0)  # the Jordan variant, m = 3
    skips = {"not (X,3)-isometric": _rebundled(base, A=_scaled(base.tuples["A"], 2.0))}
    refused = [
        # X = 0 passes its degree-0 test, and the Cesaro stage refuses the degree
        (_rebundled(base, {"m": 0}, X=np.zeros((2, 2))), "m must be a positive integer, got 0"),
        # refused by the zero tests, an earlier stage than the Cesaro stage
        (_rebundled(base, X=np.eye(3)), "dimension mismatch: A is 2, B is 2, X is 3"),
    ]
    return list(random_instances("pro01", range(8))), skips, refused


def _pro02_trials():
    base = random_instance("pro02-family", 0)  # the triangle kind
    skips = {"first family member violates its identity": _rebundled(base, A0=_scaled(base.tuples["A0"], 2.0))}
    refused = [
        (_rebundled(base, X=np.eye(3)), "dimension mismatch: A is 2, B is 2, X is 3"),
        # the limit equal to the first member: refused before any zero test
        (_rebundled(base, A_limit=base.tuples["A0"], B_limit=base.tuples["B0"]), "family does not converge"),
    ]
    # a family of 3 x 3 matrices is a shape class of its own
    passing = [*random_instances("pro02-family", range(8)), _embedded(random_instance("pro02-family", 9))]
    return passing, skips, refused


def _pro03_trials():
    base = random_instance("pro03", 0)  # part (a), d = 2
    one = OperatorTuple.of(np.eye(3))
    skips = {
        "reduction needs d >= 2": _rebundled(base, A=one, B=one),
        "pair 0 is not degree-1 annihilating": _rebundled(
            base, A=OperatorTuple(base.tuples["A"].stack * np.array([2.0, 1.0])[:, None, None])
        ),
    }
    refused = [(_rebundled(base, {"m": -1}), "m must be a non-negative integer, got -1")]
    return list(random_instances("pro03", range(8))), skips, refused


def _adjoint_trials(theorem_id: str):
    rng = np.random.default_rng(0)
    skewed = OperatorTuple.of(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    huge = OperatorTuple(1e200 * np.eye(3)[None])
    bundles = list(random_instances(theorem_id, range(8)))

    def of(A, **params):
        return InstanceBundle(theorem_id, 0, {"A": A}, {}, params)

    if theorem_id == "pro04":
        return bundles, {"adjoint pair is not (I,2)-symmetric": of(skewed)}, [(of(huge), "tolerance scale overflows")]
    skips = {
        "adjoint pair is not (I,2)-symmetric": of(skewed, m_even=2),
        "adjoint pair is not (I,4)-symmetric": of(skewed, m_even=4),
    }
    refused = [
        (of(huge, m_even=2), "tolerance scale overflows"),
        # refused before any zero test
        (_rebundled(bundles[0], {"m_even": 3}), "m must be a positive even integer, got 3"),
    ]
    return bundles, skips, refused


def _cor061_trials():
    lifted = OperatorTuple.of(np.eye(2) + np.diag([1.0], 1))  # real and not normal
    diagonal = OperatorTuple.of(np.diag([1.0, 2.0]))

    def of(S, T, X):
        return InstanceBundle("cor061", 0, {"S": S, "T": T}, {"X": X}, {"m": 1, "n": 1})

    skips = {
        "[S, T] != 0": of(OperatorTuple.of(SHIFT), OperatorTuple.of(SHIFT.T), EYE),
        # S commutes with T = S, but S* = S^T does not commute with conj(T) = S
        "[S*, CTC] != 0": of(lifted, lifted, np.eye(2)),
        # sigma(X) = 2X and [S, X] = -X at X = E_12: no hypothesis of either kind holds
        "neither implication has valid hypotheses": of(diagonal, diagonal, np.diag([1.0], 1)),
    }
    base = random_instance("cor061", 0)
    refused = [
        (_rebundled(base, {"m": -1, "n": 1}), "m must be a non-negative integer, got -1"),
        # refused by the commutator stage, an earlier stage than the refusal above
        (_rebundled(base, T=OperatorTuple.of(np.eye(2))), "dimension mismatch: 3 vs 2"),
    ]
    return list(random_instances("cor061", range(8))), skips, refused


def _thm07_trials():
    first, second = random_instance("thm07", 0), random_instance("thm07", 1)  # variants i and ii
    skips = {
        "a factor pair violates its identity": _rebundled(first, A=_scaled(first.tuples["A"], 2.0)),
        "first pair violates the combined identity": _rebundled(second, A=_scaled(second.tuples["A"], 2.0)),
        "second pair violates its identities": _rebundled(second, S=_scaled(second.tuples["S"], 2.0)),
    }
    refused = [
        (_rebundled(first, {"m": -1}), "m must be a non-negative integer, got -1"),
        # refused before any zero test
        (_rebundled(first, {"variant": "iii"}), "variant must be 'i' or 'ii', got 'iii'"),
    ]
    # seeds 16 and 18 give variant i tuples of length 2, a shape class of their own
    return list(random_instances("thm07", [*range(8), 16, 18])), skips, refused


PLANTED = {
    "pro01": _pro01_trials,
    "pro02": _pro02_trials,
    "pro03": _pro03_trials,
    "pro04": lambda: _adjoint_trials("pro04"),
    "pro5": lambda: _adjoint_trials("pro5"),
    "cor061": _cor061_trials,
    "thm07": _thm07_trials,
    "thm05": _thm05_trials,
    "cor05": _cor05_trials,
    "cor050": _cor050_trials,
    "thm06": _thm06_trials,
    "cor06": lambda: _product_trials("cor06", 0),
    "cor062": lambda: _product_trials("cor062", 0),
}


def test_every_column_program_is_planted():
    assert sorted(verify.THEOREMS) == sorted(PLANTED)


@pytest.mark.parametrize("theorem_id", sorted(PLANTED))
def test_a_chunk_of_planted_trials_gives_each_trial_what_it_gives_alone(theorem_id):
    passing, skips, refused = PLANTED[theorem_id]()
    tol = mc.DEFAULT_TOL
    for reason, bundle in skips.items():
        result = _alone(theorem_id, bundle)
        assert (result.status, result.reason) == ("skip", reason)
    trials = [passing[0], *skips.values(), *passing[1:]]
    alone = [_alone(theorem_id, bundle) for bundle in trials]
    assert [result.status for result in alone].count("skip") == len(skips)
    assert _chunk(theorem_id, trials, tol) == alone
    # a refusing trial refuses the whole chunk with its own error, and the first
    # refusing trial's error comes first, whatever stage refuses the later ones
    for k, (bundle, message) in enumerate(refused):
        with pytest.raises(InvalidArgumentError, match=message):
            _alone(theorem_id, bundle)
        later = [bundle for bundle, _ in refused[k:]]
        chunk = trials[:3] + later[:1] + trials[3:] + later[1:]
        with pytest.raises(InvalidArgumentError, match=message):
            _chunk(theorem_id, chunk, tol)


#: The parameter of each id's instance that is a degree its hypothesis stage reads.
#: pro04 has none, and pro5 refuses a bad one before any stage.
HYPOTHESIS_DEGREE = {
    "thm05": "m1", "cor050": "m1", "thm06": "r", "cor05": "m2", "cor06": "m", "cor062": "m",
    "pro01": "m", "pro02": "m1", "pro03": "m", "pro5": "m_even", "cor061": "m", "thm07": "m",
}


def _shapes(bundle: InstanceBundle) -> tuple:
    """The shapes of a trial's tuples and matrices, which set its class."""
    return tuple(np.shape(value.stack if isinstance(value, OperatorTuple) else value)
                 for value in [*bundle.tuples.values(), *bundle.matrices.values()])


def _widened(T: OperatorTuple) -> OperatorTuple:
    """T with its first component once more: what commutes with T commutes with it."""
    return OperatorTuple(np.concatenate([T.stack, T.stack[:1]]))


@pytest.mark.parametrize("theorem_id", sorted(HYPOTHESIS_DEGREE))
def test_refusals_at_one_stage_in_two_shape_classes_come_in_trial_order(theorem_id):
    passing, _, _ = PLANTED[theorem_id]()
    first = passing[0]
    other = next((bundle for bundle in passing if _shapes(bundle) != _shapes(first)), None)
    if other is None:  # every instance of the id has one shape: widen one pair of it
        other = _rebundled(first, S=_widened(first.tuples["S"]), T=_widened(first.tuples["T"]))
    name = HYPOTHESIS_DEGREE[theorem_id]
    refused = {-1: _rebundled(first, {name: -1}), -2: _rebundled(other, {name: -2})}
    for value, bundle in refused.items():
        with pytest.raises(InvalidArgumentError, match=f"got {value}$"):
            _alone(theorem_id, bundle)
    # each chunk holds a class of two trials and one of one, both refused by the
    # hypothesis stage; the earlier trial's refusal comes first, whatever its class
    for chunk, value in (
        ([first, refused[-1], refused[-2]], -1),
        ([first, refused[-2], refused[-1]], -2),
        ([refused[-2], first, refused[-1]], -2),
    ):
        with pytest.raises(InvalidArgumentError, match=f"got {value}$"):
            _chunk(theorem_id, chunk)


def test_refusals_of_the_commutator_stage_in_two_classes_come_in_trial_order():
    passing, _, _ = PLANTED["thm05"]()
    first = passing[0]
    other = next(bundle for bundle in passing if bundle.tuples["A"].d != first.tuples["A"].d)

    def with_n(bundle, k, **N2):
        # N1 of dimension k: [A, N1] is refused, once every tuple commutes within
        return _rebundled(bundle, N1=OperatorTuple.of(np.eye(k), np.eye(k)), **N2)

    # the class of `other` comes first, by a trial that skips before the refused pair
    chunk = [with_n(other, 3, N2=NONCOMMUTING), with_n(first, 2), with_n(other, 3)]
    assert _alone("thm05", chunk[0]).reason == "tuple N2 does not commute"
    with pytest.raises(InvalidArgumentError, match="dimension mismatch: 4 vs 2"):
        _chunk("thm05", chunk)
    with pytest.raises(InvalidArgumentError, match="dimension mismatch: 4 vs 3"):
        _chunk("thm05", chunk[::2] + chunk[1:2])


def test_refusals_of_the_tensor_stage_in_two_classes_come_in_trial_order():
    passing, _, _ = PLANTED["thm07"]()
    first, second = passing[0], next(bundle for bundle in passing if bundle.params["variant"] == "ii")
    unnamed = _rebundled(second, {"r": None})  # variant ii without r
    unknown = _rebundled(first, {"variant": "iii"})
    # the class of variant ii comes first, by a trial that is not refused
    with pytest.raises(InvalidArgumentError, match="^variant must be 'i' or 'ii', got 'iii'$"):
        _chunk("thm07", [second, unknown, first, unnamed])
    with pytest.raises(InvalidArgumentError, match="^variant ii needs r and s$"):
        _chunk("thm07", [second, unnamed, unknown])
