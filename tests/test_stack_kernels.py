"""Each stacked kernel gives the bits of the per-component loop it replaced.

An operator tuple stores its components as one (d, n, n) stack, and the
componentwise maps run as batched array expressions.  Every test here
compares a kernel with a plain loop over components, under
``np.array_equal``, at d = 1-6 and n = 1-8: a 1 x 1 stack is where a
reordered sum would first show.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from isotuple import matrix_core as mc
from isotuple import transforms as tf
from isotuple import tuples
from isotuple import verify
from isotuple.generators import InstanceBundle, random_instances
from isotuple.multiindex import binomial
from isotuple.tuples import (
    OperatorTuple,
    adjoint_tuple,
    commutes_cross,
    commutes_within,
    conj_tuple,
    max_commutator_cross,
    max_commutator_within,
    product_tuple,
    scalar_tuple,
    sum_tuple,
    tensor_tuple,
)

DS = range(1, 7)
NS = range(1, 9)


def _stack(rng, d, n, scale=True):
    S = rng.standard_normal((d, n, n)) + 1j * rng.standard_normal((d, n, n))
    if scale:
        S *= 10.0 ** rng.integers(-6, 7, size=(d, 1, 1))  # uneven magnitudes expose reordering
    return S


def _pair(d, n, seed=0):
    rng = np.random.default_rng(1000 * d + 10 * n + seed)
    return OperatorTuple(_stack(rng, d, n)), OperatorTuple(_stack(rng, d, n)), _stack(rng, 1, n)[0]


def _loop_sum(mats):
    acc = np.zeros_like(mats[0])
    for M in mats:
        acc += M
    return acc


def _same(a, b) -> bool:
    """Equal bits, the sign of zero included."""
    return np.array_equal(a, b) and np.array_equal(np.signbit(a.view(float)), np.signbit(b.view(float)))


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", NS)
def test_sigma_and_component_sum_match_the_loop(d, n):
    A, B, X = _pair(d, n)
    assert _same(tf.sigma_apply(A, B, X), _loop_sum([a @ X @ b for a, b in zip(A, B)]))
    zeros = np.full((d, n, n), complex(-0.0, -0.0))
    for T in (A, OperatorTuple(zeros)):
        expected = T[0].copy()
        for a in T.components[1:]:
            expected = expected + a
        assert _same(T.component_sum(), expected)


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", NS)
def test_defect_sums_match_the_loop(d, n):
    A, B, X = _pair(d, n)
    sig = [X]
    for _ in range(4):
        sig.append(tf.sigma_apply(A, B, sig[-1]))
    assert all(_same(a, b) for a, b in zip(tf.sigma_iterates(A, B, X, 4), sig, strict=True))
    for m in range(5):
        loop = _loop_sum([((-1) ** j * binomial(m, j)) * sig[j] for j in range(m + 1)])
        assert _same(tf.triangle(A, B, X, m), loop)
    sa, sb = A.component_sum(), B.component_sum()
    pow_a, pow_b = [np.eye(n, dtype=complex), sa], [np.eye(n, dtype=complex), sb]
    for _ in range(3):
        pow_a.append(pow_a[-1] @ sa)
        pow_b.append(pow_b[-1] @ sb)
    for k in range(5):
        loop = _loop_sum(
            [((-1) ** j * binomial(k, j)) * (pow_a[k - j] @ X @ pow_b[j]) for j in range(k + 1)]
        )
        assert _same(tf.delta(A, B, X, k), loop if k else X)


@pytest.mark.parametrize("k", range(4))
def test_binomial_sum_keeps_the_sign_of_zero_that_a_loop_from_zero_gives(k):
    # a loop adds its first term onto +0.0, so a -0.0 entry comes out as +0.0
    terms = np.full((k + 1, 2, 2), complex(-0.0, -0.0))
    terms[:, 0, 1] = 1.0 - 0.5j
    loop = _loop_sum([((-1) ** j * binomial(k, j)) * terms[j] for j in range(k + 1)])
    assert _same(tf.binomial_sum(terms.copy(), k), loop)


@pytest.mark.parametrize("n", NS)
def test_batched_binomial_sum_gives_each_item_the_sum_of_its_own_degree(n):
    rng = np.random.default_rng(n)
    degrees = np.array([0, 5, 2, 5, 0, 3])
    terms = _stack(rng, 6 * len(degrees), n).reshape(6, len(degrees), n, n)
    batched = tf.binomial_sum(terms.copy(), degrees)
    for b, k in enumerate(degrees.tolist()):
        assert _same(batched[b], tf.binomial_sum(terms[: k + 1, b].copy(), k))


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", NS)
def test_tuple_constructions_match_the_loop(d, n):
    A, B, _ = _pair(d, n)
    S = OperatorTuple(_stack(np.random.default_rng(n), 1 + d % 3, n))
    assert _same(product_tuple(S, A).stack, np.array([s @ a for s in S for a in A]))
    assert _same(sum_tuple(A, B).stack, np.array([a + b for a, b in zip(A, B)]))
    assert _same(adjoint_tuple(A).stack, np.array([a.conj().T for a in A]))
    assert _same(conj_tuple(A).stack, np.array([a.conj() for a in A]))
    if n <= 4:
        T = OperatorTuple(_stack(np.random.default_rng(d), 1 + n % 3, 1 + d % 3))
        assert _same(tensor_tuple(A, T).stack, np.array([np.kron(a, t) for a in A for t in T]))


@pytest.mark.parametrize("n", range(1, 5))
@pytest.mark.parametrize("p", range(1, 5))
def test_kron_matches_np_kron(n, p):
    # the generators' Kronecker embeddings: matrices, a real factor, and broadcast stacks
    rng = np.random.default_rng(10 * n + p)
    a, b = _stack(rng, 3, n), _stack(rng, 2, p)
    eye = np.eye(p, dtype=np.complex128)
    assert _same(mc.kron(a[0], b[1]), np.kron(a[0], b[1]))
    assert _same(mc.kron(a[0], eye), np.kron(a[0], eye))
    assert _same(mc.kron(eye, a[1]), np.kron(eye, a[1]))
    assert _same(mc.kron(a[0].real, b[0]), np.kron(a[0].real, b[0]))
    assert _same(mc.kron(a, b[None, 0]), np.array([np.kron(x, b[0]) for x in a]))


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", NS)
def test_commutators_match_the_loop(d, n):
    A, B, _ = _pair(d, n)
    within = [mc.fro_norm(A[i] @ A[j] - A[j] @ A[i]) for i in range(d) for j in range(i + 1, d)]
    assert max_commutator_within(A) == max(within, default=0.0)
    cross = [mc.fro_norm(a @ b - b @ a) for a in A for b in B]
    assert max_commutator_cross(A, B) == max(cross)
    # a loose tolerance passes every commutator that the default fails
    loose = mc.Tolerance(abs_eps=1e300, rel_eps=0.0)
    assert commutes_within(A, loose) and commutes_cross(A, B, loose)
    assert commutes_within(A) == (d == 1 or n == 1)
    assert commutes_cross(A, B) == (n == 1)


def test_each_commutator_is_judged_against_its_own_scale():
    # only [X, Y] is nonzero, and its scale ||X|| ||Y|| is far below the
    # 1e12 scales of the pairs with S_0 = 1e12 I
    rng = np.random.default_rng(8)
    X, Y = rng.standard_normal((2, 3, 3)) + 0j
    S = OperatorTuple.of(1e12 * np.eye(3), X)
    T = OperatorTuple.of(Y, np.eye(3))
    assert not commutes_cross(S, T)
    assert commutes_cross(S, OperatorTuple.of(np.eye(3), np.eye(3)))
    assert not commutes_within(OperatorTuple.of(1e12 * np.eye(3), X, Y))


def _composed_commutators(S, T, tol=mc.DEFAULT_TOL):
    """(commutes, max residual) composed one commutator at a time, as ``commutes_within``
    and ``commutes_cross`` composed them before the kernel: within S when T is S."""
    if T is S:
        pairs = [(S[i], S[j]) for i in range(S.d) for j in range(i + 1, S.d)]
    else:
        pairs = [(a, b) for a in S for b in T]
    norms = [mc.fro_norm(a @ b - b @ a) for a, b in pairs]
    scales = [mc.fro_norm(a) * mc.fro_norm(b) for a, b in pairs]
    return all(v <= tol.threshold(s) for v, s in zip(norms, scales)), max(norms, default=0.0)


def _alone_commutators(S, T, tol=mc.DEFAULT_TOL):
    """(commutes, max residual) from the scalar API."""
    if T is S:
        return commutes_within(S, tol), max_commutator_within(S)
    return commutes_cross(S, T, tol), max_commutator_cross(S, T)


def _bits(checks):
    return [(ok, residual.hex()) for ok, residual in checks]


@pytest.mark.parametrize("tol", [mc.DEFAULT_TOL, mc.Tolerance(abs_eps=0, rel_eps=1e-16)])
def test_commutator_predicates_equal_the_composed_loop_with_planted_noncommuting_pairs(tol):
    # random tuples do not commute unless they have one component or are 1 x 1;
    # scalar tuples commute with everything; lengths and dimensions are mixed
    queries, planted = [], []
    for d in DS:
        for n in NS:
            A, B, _ = _pair(d, n)
            scalar = scalar_tuple(2.0 - 1.0j, d, n)
            queries += [(A, A), (A, B), (B, A), (scalar, scalar), (scalar, A), (B, scalar)]
            planted += [d > 1 and n > 1, n > 1, n > 1, False, False, False]
    checks = [_alone_commutators(S, T, tol) for S, T in queries]
    assert _bits(checks) == _bits(_composed_commutators(S, T, tol) for S, T in queries)
    assert [not ok for ok, _ in checks] == planted


def test_commutator_predicates_of_one_component_tuples():
    rng = np.random.default_rng(9)
    M = rng.standard_normal((3, 3)) + 0j
    S, T, U = OperatorTuple.of(M), OperatorTuple.of(M @ M + 2.0 * M), OperatorTuple.of(M.T)
    queries = [(S, S), (S, T), (T, S), (S, U), (U, U)]
    checks = [_alone_commutators(*query) for query in queries]
    assert [ok for ok, _ in checks] == [True, True, True, False, True]
    assert checks[0] == checks[4] == (True, 0.0)
    assert _bits(checks) == _bits(_composed_commutators(*query) for query in queries)


def test_cross_commutators_refuse_two_dimensions():
    A, _, _ = _pair(2, 3)
    C, _, _ = _pair(2, 4)
    for check in (commutes_cross, max_commutator_cross):
        for S, T, message in ((A, C, "3 vs 4"), (C, A, "4 vs 3")):
            with pytest.raises(mc.InvalidArgumentError, match=f"^dimension mismatch: {message}$"):
                check(S, T)


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_pair_norms_match_one_matrix_at_a_time(d, n, monkeypatch):
    # a zero test reads both tuples' component and sum norms from one call, and
    # the tuples keep them; a lone tuple computes its own, with the same bits
    A, B, X = _pair(d, n)
    calls = _counting_svds(monkeypatch)
    tf.defect_checks(A, B, X, [(1, 1)])
    assert calls == [(2 * (d + 1), n, n)]
    for T in (A, B):
        single = [float(np.linalg.norm(c, 2)) for c in (*T, T.component_sum())]
        assert T.op_norms == tuple(single[:-1]) and T.sum_op_norm == single[-1]
    assert len(calls) == 1
    fresh = _pair(d, n)[0]
    assert (fresh.op_norms, fresh.sum_op_norm) == (A.op_norms, A.sum_op_norm)
    assert calls[1:] == [(d, n, n), (1, n, n)]


def test_stack_and_views_are_read_only_copies():
    rng = np.random.default_rng(3)
    mats = [rng.standard_normal((3, 3)) + 0j for _ in range(2)]
    stack = np.array(mats)
    for source in (mats, tuple(mats), stack):
        T = OperatorTuple(source)
        assert T.stack.dtype == np.complex128 and T.stack.flags.c_contiguous
        assert not T.stack.flags.writeable
        assert all(not c.flags.writeable and np.shares_memory(c, T.stack) for c in T.components)
        assert not any(np.shares_memory(T.stack, m) for m in (*mats, stack))
        before = T.stack.copy()
        mats[0][0, 0] += 1.0
        stack[1, 1, 1] += 1.0
        assert np.array_equal(T.stack, before)
        with pytest.raises(ValueError):
            T.components[0][0, 0] = 5.0
        with pytest.raises(AttributeError):
            T.stack = stack
    derived = (
        sum_tuple(T, T), product_tuple(T, T), adjoint_tuple(T), conj_tuple(T), tensor_tuple(T, T)
    )
    for D in derived:
        assert not D.stack.flags.writeable and D.stack.flags.c_contiguous
    assert not T.component_sum().flags.writeable


def test_derived_stack_that_overflows_is_refused():
    T = OperatorTuple.of(1e200 * np.eye(2))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
        mc.InvalidArgumentError, match="non-finite"
    ):
        product_tuple(T, T)


#: (m, n) of the zero tests of one batch: each kind (triangle, delta, both) with
#: mixed degrees, and the degree-0 test.
MIXED_DEGREES = ((1, 0), (4, 0), (2, 0), (0, 2), (0, 5), (0, 1), (2, 3), (1, 1), (3, 1), (0, 0))


def _composed_check(A, B, X, m, n, tol=mc.DEFAULT_TOL):
    """The zero test composed of the public ``triangle``, ``delta`` and ``isosym_defect``,
    each a batch of one (``isosym_defect`` composes two), and the threshold of
    ``defect_scale``."""
    if not n:
        defect = tf.triangle(A, B, X, m)
    elif not m:
        defect = tf.delta(A, B, X, n)
    else:
        defect = tf.isosym_defect(A, B, X, m, n)
    return mc.fro_norm(defect), tol.threshold(tf.defect_scale(A, B, X, m, n))


@pytest.mark.parametrize("d", DS)
@pytest.mark.parametrize("n", NS)
def test_defect_checks_of_one_pair_equal_one_degree_at_a_time(d, n):
    tol = mc.Tolerance(abs_eps=0.0, rel_eps=1e-13)
    # fresh tuples for each degree alone, so none reads norms or powers another computed
    together = tf.defect_checks(*_pair(d, n), MIXED_DEGREES, tol)
    for check in (tf.defect_check, _composed_check):
        alone = [check(*_pair(d, n), m, k, tol) for m, k in MIXED_DEGREES]
        assert [(a.hex(), b.hex()) for a, b in together] == [(a.hex(), b.hex()) for a, b in alone]


#: (pair seed, m, n) of a group that mixes shared and distinct (A, B, X): pair 0
#: carries every kind, repeated degrees included, and shares each run it forms.
SHARED_RUNS = (
    *((0, m, n) for m, n in MIXED_DEGREES + ((4, 0), (2, 3), (2, 2), (3, 3), (0, 5), (0, 0))),
    *((1, m, n) for m, n in MIXED_DEGREES[::2]),
)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("n", [1, 4])
def test_tests_that_share_runs_get_the_bits_each_gets_alone(d, n):
    def tests(shared: bool) -> list:
        pairs = {seed: _pair(d, n, seed) for seed in (0, 1)}
        pair = (lambda seed: pairs[seed]) if shared else (lambda seed: _pair(d, n, seed))
        return [(*pair(seed), m, k) for seed, m, k in SHARED_RUNS]

    alone = [tf.defect_check(*test) for test in tests(shared=False)]
    pairs = {seed: _pair(d, n, seed) for seed in (0, 1)}
    shared = [
        check for seed, pair in pairs.items()
        for check in tf.defect_checks(*pair, [(m, k) for s, m, k in SHARED_RUNS if s == seed])
    ]
    assert shared == alone
    # each defect, the sign of zero included, within a group of one kind: the items
    # of one stack test that name the rows of the two pairs' stacks
    pairs = [_pair(d, n, seed) for seed in (0, 1)]
    a, b = (np.stack([pair[k].stack for pair in pairs]) for k in (0, 1))
    x = np.stack([pair[2] for pair in pairs])
    for kind in ((False, False), (True, False), (False, True), (True, True)):
        rows, ms, ns = zip(*(item for item in SHARED_RUNS if (item[1] > 0, item[2] > 0) == kind))
        (defects,) = tf._stack_items([tf._checked_stack_test(a, b, x, ms, ns, rows)], lambda found: found)
        each = [
            tf.stack_defects(a[r : r + 1], b[r : r + 1], x[r : r + 1], [m], [k])[0]
            for r, m, k in zip(rows, ms, ns)
        ]
        assert all(_same(p, q) for p, q in zip(defects, each, strict=True))


def _counting_svds(monkeypatch) -> list:
    """The shape of each ``op_norm_estimate`` argument from now on."""
    calls = []
    original = mc.op_norm_estimate

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(mc, "op_norm_estimate", counting)
    return calls


def test_defect_stack_checks_take_every_threshold_from_one_spectral_norms_call(monkeypatch):
    calls = _counting_svds(monkeypatch)
    pairs = {d: [_pair(d, 3, seed) for seed in range(len(MIXED_DEGREES))] for d in (1, 2)}
    ms, ns = zip(*MIXED_DEGREES)
    tests = [
        tuple(np.stack([getattr(T, "stack", T) for T in column]) for column in zip(*found)) + (ms, ns)
        for found in pairs.values()
    ]
    tf.defect_stack_checks(tests, mc.DEFAULT_TOL, {})
    # one table for every test, by whole stacks: both tuples' d component norms
    # in every row, since some m > 0, and their sums' norms in every row, since
    # some n > 0, the rows of degree (0, 0) included
    parts = sum(2 * len(MIXED_DEGREES) * (d + 1) for d in pairs)
    assert calls == [(parts, 3, 3)] and parts == 100


@pytest.mark.parametrize("d", [1, 3])
def test_defect_checks_compute_only_the_norm_parts_their_tests_read(d, monkeypatch):
    calls = _counting_svds(monkeypatch)
    A, B, X = _pair(d, 4)
    # a delta-only test reads the two sums' norms, and no component norm
    (_, delta_threshold), = tf.defect_checks(A, B, X, [(0, 2)])
    assert calls == [(2, 4, 4)]
    assert "_op_norms" not in A.__dict__ and "_op_norms" not in B.__dict__
    # an isometric test now adds only the components' norms, and both parts are kept
    tf.defect_checks(A, B, X, [(3, 0), (1, 1), (0, 2)])
    assert calls == [(2, 4, 4), (2 * d, 4, 4)]
    tf.defect_checks(A, B, X, [(2, 2), (0, 2)])
    assert len(calls) == 2
    # an isometric-only test on fresh tuples reads only the components' norms
    C, D, Y = _pair(d, 4, seed=1)
    tf.defect_checks(C, D, Y, [(2, 0)])
    assert calls[2:] == [(2 * d, 4, 4)] and "_sum_op_norm" not in C.__dict__
    # every threshold equals the one from norms each tuple computes alone
    fresh = _pair(d, 4)
    for T in fresh[:2]:  # held before the zero test reads them
        assert len(T.op_norms) == d and T.sum_op_norm >= 0.0
    assert tf.defect_checks(*fresh, [(0, 2)])[0][1] == delta_threshold
    for T, U in ((A, fresh[0]), (B, fresh[1])):
        assert (T.op_norms, T.sum_op_norm) == (U.op_norms, U.sum_op_norm)


def test_defect_scale_of_fresh_tuples_takes_its_norms_from_one_call(monkeypatch):
    A, B = (OperatorTuple(_stack(np.random.default_rng(seed), 3, 4)) for seed in (1, 2))
    X = _stack(np.random.default_rng(3), 1, 4)[0]
    calls = _counting_svds(monkeypatch)
    scale = tf.defect_scale(A, B, X, 2, 3)
    assert calls == [(8, 4, 4)]
    # the documented bound, from norms of one matrix at a time, in the kernel's float order
    a, b = ([float(np.linalg.norm(c, 2)) for c in T] for T in (A, B))
    a_sum, b_sum = (float(np.linalg.norm(_loop_sum(list(T)), 2)) for T in (A, B))
    iso = a[0] * b[0]
    for p, q in zip(a[1:], b[1:]):
        iso += p * q
    assert scale.hex() == (mc.fro_norm(X) * (1.0 + iso) ** 2 * (1.0 + a_sum + b_sum) ** 3).hex()


def test_defect_checks_of_a_malformed_pair_raise_what_defect_check_raises():
    A, B, X = _pair(2, 3)
    short = OperatorTuple(A.stack[:1])
    for bad in (
        (short, B, X, 1, 0), (A, B, np.eye(2), 0, 1), (A, B, np.ones(3), 1, 1),
        (A, B, X, -1, 0), (A, B, X, 0, -2), (A, B, X, 1.5, 1),
    ):
        with pytest.raises(mc.InvalidArgumentError) as composed:
            _composed_check(*bad)
        # the same refusal when the bad degree follows a good one
        for check in (tf.defect_check, lambda A, B, X, m, n: tf.defect_checks(A, B, X, [(1, 0), (m, n)])):
            with pytest.raises(mc.InvalidArgumentError, match=re.escape(str(composed.value))):
                check(*bad)


_BIG = OperatorTuple(np.repeat(1e120 * np.eye(3, dtype=complex)[None], 2, axis=0))

#: A zero test on 2-tuples of 3 x 3 matrices that its own evaluation refuses.
_PLANTED = {
    "overflowing-iterate": (_BIG, _BIG, np.eye(3, dtype=complex), 3, 0),
    "overflowing-delta": (_BIG, _BIG, np.diag([1.0, 2.0, 3.0]).astype(complex), 1, 3),
    "non-finite-x": (*_pair(2, 3)[:2], np.full((3, 3), complex(np.nan, 0.0)), 2, 1),
    "non-finite-x-of-a-delta": (*_pair(2, 3)[:2], np.full((3, 3), complex(np.inf, 0.0)), 0, 2),
    "overflowing-scale": (_BIG, _BIG, np.eye(3, dtype=complex), 2, 2),
}


@pytest.mark.parametrize("planted", sorted(_PLANTED))
def test_a_group_with_a_planted_item_raises_what_the_item_raises_alone(planted):
    bad = _PLANTED[planted]
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(mc.InvalidArgumentError) as composed:
            _composed_check(*bad)
        for check in (
            tf.defect_check,
            # after the degree-0 test of X, and before a repeat of itself
            lambda A, B, X, m, n: tf.defect_checks(A, B, X, [(0, 0), (m, n), (m, n)]),
        ):
            with pytest.raises(type(composed.value)) as raised:
                check(*bad)
            assert str(raised.value) == str(composed.value)


def test_items_that_share_a_key_raise_the_overflow_of_the_first():
    # one trial's ragged items, such as pro02's family members, in one test: the
    # first item's overflow is raised, not the larger one after it
    eye = np.eye(2, dtype=complex)
    A = np.stack([1e200 * eye[None], 1e250 * eye[None]])
    test = (A, np.stack([eye[None]] * 2), np.stack([eye] * 2), [2, 2], [0, 0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(mc.InvalidArgumentError, match=r"^tolerance scale overflows: .* \* 1\.000e\+200\*\*2$"):
            tf.defect_stack_checks([test], mc.DEFAULT_TOL, {})


def test_batched_cesaro_errors_equal_one_run_at_a_time():
    # both instance shapes of pro01 share one program call, at two step counts
    program = verify.THEOREMS["pro01"].program
    for seeds, t_max in ((range(64), 200), (range(8), 37)):
        bundles = random_instances("pro01", seeds)
        batched = [result.defects["cesaro_error"] for result in program(bundles, mc.DEFAULT_TOL, t_max)]
        alone = [verify.check_pro01(b, t_max).defects["cesaro_error"] for b in random_instances("pro01", seeds)]
        assert [value.hex() for value in batched] == [value.hex() for value in alone]
        # the loop the Cesaro stage replaced: one sigma application per step
        for bundle, value in zip(bundles, batched):
            A, B, X, m = bundle.tuples["A"], bundle.tuples["B"], bundle.matrices["X"], int(bundle.params["m"])
            sig = [X]
            for _ in range(t_max):
                sig.append(tf.sigma_apply(A, B, sig[-1]))
            reference = _loop_sum([((-1) ** j * binomial(m - 1, j)) * sig[j] for j in range(m)])
            assert mc.fro_norm(sig[t_max] / binomial(t_max, m - 1) - reference) == value


def test_batched_cesaro_errors_refuse_a_non_finite_iterate_as_alone():
    # pro01's zero tests refuse a non-finite X before its Cesaro stage, so the stage runs here alone
    good, bad = random_instances("pro01", [0, 2])  # one shape class
    bad = InstanceBundle(bad.profile, bad.seed, bad.tuples, {"X": np.full((2, 2), np.inf)}, bad.params)

    def cesaro_stage(bundles):
        # the bundles as one class, whose columns stack their tuples and X
        columns = {name: np.stack([b.tuples[name].stack for b in bundles]) for name in "AB"}
        columns["X"] = np.stack([b.matrices["X"] for b in bundles]).astype(complex)
        columns["m"] = [b.params["m"] for b in bundles]
        classes = [verify._Columns(np.arange(len(bundles)), columns, {})]
        run = verify._Run([None] * len(bundles), mc.DEFAULT_TOL, 200)
        return verify._cesaro_stage(verify.THEOREMS["pro01"], classes, run)

    with pytest.raises(mc.InvalidArgumentError) as alone:
        cesaro_stage([bad])
    with pytest.raises(mc.InvalidArgumentError) as batched:
        cesaro_stage([good, bad])
    assert str(batched.value) == str(alone.value) == "X contains non-finite entries"


def test_every_spectral_norm_request_names_whole_stacks_by_part(monkeypatch):
    # each request is (stack, components, sums) with two booleans, and each part
    # holds every row of its stack, also where a test's items read only some rows
    # (pro03's one-component pairs, cor061's kinds) or rows of two kinds (cor06, thm07)
    requests = []
    original = tuples.stack_spectral_norms

    def spy(asked):
        found = original(asked)
        requests.extend(zip(asked, found))
        return found

    monkeypatch.setattr(tuples, "stack_spectral_norms", spy)
    monkeypatch.setattr(tf, "stack_spectral_norms", spy)
    for theorem_id in ("cor06", "thm07", "pro03", "cor061", "thm05"):
        requests.clear()
        verify.run_campaign(verify.CampaignConfig(theorem_id=theorem_id, trials=24, seed=0))
        assert requests
        for (stack, components, sums), (component_norms, sum_norms) in requests:
            assert type(components) is bool and type(sums) is bool and (components or sums)
            assert (component_norms is None) != components and (sum_norms is None) != sums
            for part, shape in ((component_norms, stack.shape[:2]), (sum_norms, stack.shape[:1])):
                assert part is None or part.shape == shape and np.isfinite(part).all()
    # a test that reads two rows of four, the first of one kind and the second of the other
    A, B, X = (np.stack(column) for column in zip(*(
        (T.stack if isinstance(T, OperatorTuple) else T for T in _pair(2, 3, seed)) for seed in range(4)
    )))
    requests.clear()
    tf.defect_stack_checks([(A, B, X, [1, 0], [0, 1], [2, 0])], mc.DEFAULT_TOL, {})
    assert [(stack is T, c, s) for T, ((stack, c, s), _) in zip((A, B), requests)] == [(True, True, True)] * 2
    assert [found[0].shape for _, found in requests] == [(4, 2)] * 2
