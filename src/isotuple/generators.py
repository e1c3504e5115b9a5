"""Deterministic and seeded-random construction of verification instances.

Every random family is built from polynomials in a single seed matrix (or
from tensor-factor embeddings), so commutativity hypotheses hold exactly by
construction and floating-point residuals stay at machine level.

Each profile's builder is written once, over a batch: the seeds of one
variant class (the seed bits that change what it stacks or how it draws).
Every seed draws its random numbers from its own ``default_rng(seed)``, in a
fixed order; every later step (QR factorizations, rotations, Horner
polynomial evaluation, Kronecker embeddings) is one stacked expression over
the batch, made of the products and in-order sums of one seed's, so an
instance has the same bits in any batch.  A nilpotent tuple is drawn once and
not checked: its construction fixes its order (``_nilpotent_tuples``), and
only the public ``nilpotent_commuting`` validates its draws and draws again.
A builder returns only its stacks and each seed's parameters.  ``_chunk``
groups a chunk's seeds by class and returns each class as its builder's
stacks, which a campaign's programs read as columns; ``random_instances``
splits them into bundles, and ``random_instance`` is its batch of one.

Beside each builder stand its profile's hypotheses, as rows of data: each
commutator (``_Commutes``) and defect (``_Vanishes``) that its instances
satisfy.  ``verify.THEOREMS`` runs the same rows as its programs'
commutator and hypothesis stages, and a bundle's residuals are the norms of
its rows that carry a residual name, in row order, computed on first read
by one evaluator (``_residuals``) bound to the instance as built (checkers
validate every hypothesis themselves).

Instance shapes:

* scalar-unitary tuples (w_i u I) with sum w_i^2 = 1 supply pairs that are
  degree-1 isometric against every X;
* Jordan blocks lambda*I + N supply single operators whose adjoint pair has
  strict minimal degree 2k-1 (isometric for |lambda| = 1, symmetric for real
  lambda);
* block upper-shift seeds supply commuting nilpotent tuples of prescribed
  order;
* Hermitian-seed polynomial splits supply tuples whose component sum is
  exactly self-adjoint;
* Kronecker embeddings A (x) I and I (x) S supply cross-commuting pairs of
  pairs for the product and tensor checks.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import matrix_core as mc
from . import transforms as tf
from .errors import GenerationFailureError, InvalidArgumentError
from .tuples import (
    OperatorTuple,
    adjoint_tuple,
    checked_stacks,
    conj_tuple,
    max_commutator_cross,
    max_commutator_within,
    nilpotency_order,
)

_RETRY_LIMIT = 20


@dataclass(frozen=True)
class InstanceBundle:
    """A seeded input for one theorem check, built to satisfy its hypotheses.

    ``residuals`` maps each hypothesis defect and commutator of the instance
    that its profile's rows name to its norm.  It is computed on first read,
    by ``residual_fn`` (``_residuals`` bound to the rows and to the tuples,
    matrices and parameters as built), and then kept; a bundle built without
    one reads ``{}``.
    """

    profile: str
    seed: int
    tuples: dict[str, OperatorTuple]
    matrices: dict[str, np.ndarray]
    params: dict
    residual_fn: Callable[[], dict[str, float]] | None = field(
        default=None, repr=False, compare=False
    )

    @cached_property
    def residuals(self) -> dict[str, float]:
        return {} if self.residual_fn is None else self.residual_fn()

    def to_json(self) -> dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "params": dict(self.params),
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "tuples": {k: v.to_json() for k, v in self.tuples.items()},
            "matrices": {k: mc.matrix_to_json(v) for k, v in self.matrices.items()},
        }


# ---------------------------------------------------------------------------
# deterministic building blocks


def poly_eval(M, coeffs) -> np.ndarray:
    """Evaluate a polynomial (ascending coefficients) at a square matrix."""
    return _poly_evals(mc.as_matrix(M), np.array([list(coeffs)], dtype=np.complex128))[0]


def _poly_evals(M: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """The (b, n, n) stack of polynomials with ascending coefficient rows ``coeffs``
    (b, k), at one matrix M or at each matrix of a (b, n, n) stack, by Horner's rule."""
    n = M.shape[-1]
    eye = mc.identity(n)
    acc = np.zeros((len(coeffs), n, n), dtype=np.complex128)
    for c in coeffs.T[::-1]:
        acc = acc @ M + c[:, None, None] * eye
    return acc


def commuting_from_seed(seed_matrix, polys) -> OperatorTuple:
    """Tuple of polynomials in one seed matrix; exactly commuting by construction."""
    polys = list(polys)
    if len(polys) < 1:
        raise InvalidArgumentError("need at least one coefficient list")
    return OperatorTuple(tuple(poly_eval(seed_matrix, p) for p in polys))


def upper_shift(n: int) -> np.ndarray:
    """The n x n nilpotent upper shift (ones on the first superdiagonal)."""
    if n < 1:
        raise InvalidArgumentError("dimension must be positive")
    return np.diag(np.ones(n - 1, dtype=np.complex128), k=1) if n > 1 else mc.zero(1)


def nilpotent_seed(n: int, index: int) -> np.ndarray:
    """Block-diagonal shift with nilpotency index exactly ``index`` at dimension n."""
    if not 1 <= index <= n:
        raise InvalidArgumentError(f"index {index} not achievable at dimension {n}")
    blocks = []
    remaining = n
    size = index
    while remaining > 0:
        size = min(size, remaining)
        blocks.append(upper_shift(size))
        remaining -= size
    out = mc.zero(n)
    pos = 0
    for b in blocks:
        k = b.shape[0]
        out[pos : pos + k, pos : pos + k] = b
        pos += k
    return out


def jordan_block(lam: complex, k: int) -> np.ndarray:
    if k < 1:
        raise InvalidArgumentError("block size must be positive")
    return _jordan_blocks(np.array([complex(lam)]), k)[0]


def _jordan_blocks(lams: np.ndarray, k: int) -> np.ndarray:
    """The (b, k, k) stack of lambda*I + N, one block per entry of ``lams``."""
    return lams[:, None, None] * mc.identity(k) + upper_shift(k)


def jordan_symmetric(lam: float, k: int) -> np.ndarray:
    """lambda*I + N with real lambda; its adjoint pair has minimal symmetric degree 2k-1."""
    lam = complex(lam)
    if abs(lam.imag) > 1e-12:
        raise InvalidArgumentError(f"lambda must be real, got {lam}")
    T = jordan_block(lam.real, k)
    _validate_jordan(T, k, kind="symmetric")
    return T


def jordan_isometric(lam: complex, k: int) -> np.ndarray:
    """lambda*I + N with |lambda| = 1; its adjoint pair has minimal isometric degree 2k-1."""
    lam = complex(lam)
    if abs(abs(lam) - 1.0) > 1e-12:
        raise InvalidArgumentError(f"lambda must have unit modulus, got |{lam}| = {abs(lam)}")
    T = jordan_block(lam, k)
    _validate_jordan(T, k, kind="isometric")
    return T


def _validate_jordan(T: np.ndarray, k: int, kind: str) -> None:
    """The adjoint pair (T*, T) at I must pass the zero test of the given kind at
    degree 2k-1 and, for k > 1, fail it at degree 2k-2."""
    degrees = range(2 * k - 1, max(2 * k - 3, 0), -1)
    checks = tf.defect_checks(
        OperatorTuple.of(mc.adjoint(T)), OperatorTuple.of(T), mc.identity(k),
        [(deg, 0) if kind == "isometric" else (0, deg) for deg in degrees],
    )
    for deg, (norm, threshold) in zip(degrees, checks):
        if (norm <= threshold) != (deg == 2 * k - 1):
            raise GenerationFailureError(
                f"jordan {kind} factory: degree-{deg} defect norm {norm:.3e}, "
                f"threshold {threshold:.3e}"
            )


def conjugation_apply(X) -> np.ndarray:
    """Entrywise conjugation: the standard-basis conjugation C applied as C X C."""
    return mc.conj(X)


def paper_example_squares() -> tuple[OperatorTuple, OperatorTuple]:
    """The commuting invertible pair of equal 2-tuples (I/sqrt2, I/sqrt2)."""
    c = 1.0 / math.sqrt(2.0)
    A = OperatorTuple.of(c * mc.identity(2), c * mc.identity(2))
    return A, A


def paper_example_mixing():
    """The 2x2 unitary-mixing counterexample data: (T, A0, U, S) with S = U T."""
    T = np.array([[1, 1], [0, 1]], dtype=np.complex128)
    A0 = np.array([[0, 0], [0, 1]], dtype=np.complex128)
    U = np.array([[0, 1], [1j, 0]], dtype=np.complex128)
    S = U @ T
    return T, A0, U, S


def nilpotent_commuting(n: int, d: int, target_order: int, rng_seed: int) -> OperatorTuple:
    """Commuting d-tuple of nilpotents with word order exactly ``target_order``.

    Components are zero-constant-term polynomials in a block-shift seed of
    index ``target_order``; the linear coefficient is kept away from zero so
    every word of length target_order-1 retains a nonzero leading term.  Each
    draw from the ``rng_seed`` stream is validated with :func:`nilpotency_order`
    at the default tolerance, and a draw whose float order misses the target
    (which happens at large orders, where the words of length target_order-1
    fall under the threshold) is replaced by the next, up to ``_RETRY_LIMIT``
    draws; a tuple that does not commute at that tolerance is refused as
    :func:`nilpotency_order` refuses it.
    """
    if not isinstance(target_order, int) or target_order < 1:
        raise InvalidArgumentError(f"target_order must be a positive integer, got {target_order!r}")
    if d < 1:
        raise InvalidArgumentError("d must be positive")
    if target_order > n:
        raise InvalidArgumentError(
            f"order {target_order} is not achievable at dimension {n} (needs n >= order)"
        )
    if target_order == 1:
        return OperatorTuple._of_stack(np.zeros((d, n, n), dtype=np.complex128))
    rng, M = np.random.default_rng(rng_seed), nilpotent_seed(n, target_order)
    for _ in range(_RETRY_LIMIT):
        N = OperatorTuple._of_stack(_nilpotent_draws([rng], M, d, target_order)[0])
        if nilpotency_order(N, target_order + 1) == target_order:
            return N
    raise GenerationFailureError(
        f"could not draw a {d}-tuple of order {target_order} at dimension {n}"
    )


def _nilpotent_tuples(n: int, d: int, orders: list[int], rng_seeds: list[int]) -> np.ndarray:
    """The (b, d, n, n) stack of one draw of a commuting d-tuple of nilpotents of word
    order ``orders[i]`` per item, each from its own ``rng_seeds[i]`` stream; items of
    one order are drawn together.

    No order is checked, because the construction fixes it.  A component is
    p(M) = c_1 M + c_2 M^2 + ... with M a block shift of index k = order, and
    every linear coefficient c_1 has modulus at least 0.3 (``_nilpotent_draws``).
    A word of length k is then 0, since it has only powers M^j with j >= k,
    and a word of length k - 1 is (c_1 c_1' ...) M^(k-1) != 0, since its other
    terms have powers of M of at least k.  So the order is exactly k in exact
    arithmetic.  The column programs measure the order of every perturbation
    tuple they read, so a float order that differed would skip its trial, not
    pass it.
    """

    def build(order: int, index: list[int]) -> np.ndarray:
        if order == 1:
            return np.zeros((len(index), d, n, n), dtype=np.complex128)
        rngs = [np.random.default_rng(rng_seeds[i]) for i in index]
        return _nilpotent_draws(rngs, nilpotent_seed(n, order), d, order)

    return _grouped(orders, build)


def _nilpotent_draws(rngs: list, M: np.ndarray, d: int, order: int) -> np.ndarray:
    """One draw per item: the (b, d, n, n) stack of normalized polynomials in M
    with zero constant term and order - 1 random complex coefficients each."""
    # each coefficient is complex(normal, normal), drawn component by component
    draws = _draw(rngs, lambda rng: rng.standard_normal((d, order - 1, 2)))
    coeffs = np.zeros((len(rngs), d, order), dtype=np.complex128)
    coeffs[..., 1:] = draws.view(np.complex128)[..., 0]
    linear = coeffs[..., 1]
    # Python's complex abs, whose bits at the 0.3 boundary NumPy's need not share
    small = np.array([abs(c) < 0.3 for c in linear.ravel().tolist()]).reshape(linear.shape)
    coeffs[..., 1] = np.where(small, linear + np.where(linear.real >= 0, 0.5, -0.5), linear)
    comps = _poly_evals(M, coeffs.reshape(-1, order))
    return _normalized(comps).reshape(len(rngs), d, *M.shape)


# ---------------------------------------------------------------------------
# random building blocks, each over a batch of seeds' generators


def _draw(rngs: list, draw) -> np.ndarray:
    """The stack of ``draw(rng)`` over the generators, each seed drawing from its own stream."""
    return np.array([draw(rng) for rng in rngs])


def _grouped(keys: list, build) -> np.ndarray:
    """The (b, ...) stack whose items of one key come from one ``build(key, index)``
    call, ``index`` listing their positions."""
    groups: dict = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    out = None
    for key, index in groups.items():
        part = build(key, index)
        if out is None:
            out = np.empty((len(keys), *part.shape[1:]), dtype=part.dtype)
        out[index] = part
    return out


def _diagonal(values: np.ndarray) -> np.ndarray:
    """The (b, n, n) stack of diagonal matrices with the rows of ``values`` (b, n), as ``np.diag``."""
    n = values.shape[-1]
    out = np.zeros((*values.shape, n), dtype=values.dtype)
    out[..., range(n), range(n)] = values
    return out


def _adjoints(M: np.ndarray) -> np.ndarray:
    """The C-contiguous conjugate transposes of a stack's matrices."""
    return np.conjugate(M.swapaxes(-1, -2), order="C")


def _complex_normals(rngs: list, n: int) -> np.ndarray:
    """Per seed, normal((n, n)) + 1j * normal((n, n))."""
    g = _draw(rngs, lambda rng: rng.standard_normal((2, n, n)))
    return g[:, 0] + 1j * g[:, 1]


def _normalized(G: np.ndarray) -> np.ndarray:
    """Each matrix of the stack divided by its Frobenius norm."""
    return G / mc.fro_norm_array(G)[:, None, None]


def _unitaries(G: np.ndarray) -> np.ndarray:
    """Haar-ish unitaries from the QR factors of a complex stack, with phase-normalized diagonal."""
    Q, R = np.linalg.qr(G)
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    return Q @ _diagonal(diag / np.abs(diag))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from QR with phase-normalized diagonal."""
    return _unitaries(_complex_normals([rng], n))[0]


def _orthogonals(rngs: list, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(_draw(rngs, lambda rng: rng.standard_normal((n, n))))
    diag = np.diagonal(R, axis1=-2, axis2=-1)
    return (Q @ _diagonal(np.sign(diag))).astype(np.complex128)


def _normalized_complexes(rngs: list, n: int) -> np.ndarray:
    return _normalized(_complex_normals(rngs, n))


def _unit(w: np.ndarray) -> np.ndarray:
    """w / ||w||_2, the norm computed as ``np.linalg.norm`` computes it."""
    return w / math.sqrt(w.dot(w))


def _weights(rngs: list, d: int) -> np.ndarray:
    """(b, d) positive unit weight vectors; each norm is one seed's own dot product."""
    return _draw(rngs, lambda rng: _unit(0.3 + rng.random(d)))


def _phases(rngs: list) -> np.ndarray:
    return np.exp(2j * np.pi * _draw(rngs, lambda rng: rng.random()))


def _rotate(Q: np.ndarray, M: np.ndarray) -> np.ndarray:
    """Q M Q* for each unitary of the (b, n, n) stack Q and its item of M: a
    (b, n, n) stack, or a (b, d, n, n) stack of tuples."""
    if M.ndim == 4:
        Q = Q[:, None]
    return Q @ M @ Q.conj().swapaxes(-1, -2)


def _embedded_pairs(a: np.ndarray, first: bool) -> tuple[np.ndarray, np.ndarray]:
    """(a* (x) I, a (x) I) for a (b, 2, 2) stack of factors, or (I (x) a*, I (x) a) when
    it is not first: two (b, 1, 4, 4) stacks of one-component tuples."""
    pair, eye = np.stack([_adjoints(a), a], axis=1), mc.identity(2)[None]
    stack = mc.kron(pair, eye) if first else mc.kron(eye, pair)
    return stack[:, :1], stack[:, 1:]


def _scaled(weights: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The (b, d, n, n) stack of tuples [w_0 M, w_1 M, ...], one per row of weights (b, d)."""
    return weights[:, :, None, None] * M[:, None]


def _identities(b: int, n: int) -> np.ndarray:
    return np.repeat(mc.identity(n)[None], b, axis=0)


def _scalar_isometric_pairs(rngs: list, d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pairs (A, B) of scalar tuples with sum conj(a_i) b_i = 1: degree-1 isometric for every X."""
    w = _weights(rngs, d)
    u = _phases(rngs)[:, None]
    eye = mc.identity(n)
    return (w * np.conj(u))[:, :, None, None] * eye, (w * u)[:, :, None, None] * eye


def _complex_coefficients(rngs: list, shape: tuple) -> np.ndarray:
    """Per seed, complex(normal, normal) coefficients of the given shape, in row-major order."""
    return _draw(rngs, lambda rng: rng.standard_normal((*shape, 2))).view(np.complex128)[..., 0]


def _hermitian_sum_splits(rngs: list, S: np.ndarray, d: int) -> np.ndarray:
    """Commuting d-tuples of polynomials in each S whose components sum exactly to S."""
    coeffs = _complex_coefficients(rngs, (d - 1, 3)) * 0.3
    comps = []
    total = mc.zero(S.shape[-1])
    for k in range(d - 1):
        q = _poly_evals(S, coeffs[:, k])
        comps.append(q)
        total = total + q
    comps.append(S - total)
    return np.stack(comps, axis=1)


def _hermitian_polys(rngs: list, n: int) -> np.ndarray:
    G = _normalized_complexes(rngs, n)
    H = (G + G.conj().swapaxes(-1, -2)) / 2.0
    S = _poly_evals(H, _draw(rngs, lambda rng: rng.standard_normal(4)).astype(np.complex128))
    return S / np.maximum(mc.fro_norm_array(S), 1e-3)[:, None, None]


def _iso_factors(rngs: list, ks: list[int]) -> np.ndarray:
    """Per item a 2x2 operator whose adjoint pair is strictly (I, 2k-1)-isometric."""

    def build(k: int, index: list[int]) -> np.ndarray:
        sub = [rngs[i] for i in index]
        if k == 1:
            return _unitaries(_complex_normals(sub, 2))
        return _jordan_blocks(_phases(sub), 2)

    return _grouped(ks, build)


def _sym_factors(rngs: list, ks: list[int]) -> np.ndarray:
    """Per item a 2x2 operator whose adjoint pair is strictly (I, 2k-1)-symmetric."""

    def build(k: int, index: list[int]) -> np.ndarray:
        sub = [rngs[i] for i in index]
        if k == 1:
            G = _complex_normals(sub, 2)
            return _normalized((G + G.conj().swapaxes(-1, -2)) / 2.0)
        lams = np.array([complex(0.5 + rng.random()) for rng in sub])
        return _jordan_blocks(lams, 2)

    return _grouped(ks, build)


def _diag_unitary_pairs(rngs: list, d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal-unitary pairs: degree-1 isometric against every diagonal X."""
    D = _diagonal(np.exp(2j * np.pi * _draw(rngs, lambda rng: rng.random(n))))
    square = np.array([int(rng.integers(2)) == 1 for rng in rngs])
    V = np.where(square[:, None, None], D @ D, D)
    w = _weights(rngs, d)
    return _scaled(w, V.conj().swapaxes(-1, -2)), _scaled(w, V)


def _diag_hermitian_tuples(rngs: list, d: int, n: int) -> np.ndarray:
    """Real-diagonal tuples: paired with itself each is degree-1 symmetric against diagonal X."""
    return _diagonal(_draw(rngs, lambda rng: rng.standard_normal((d, n)))).astype(np.complex128)


def _bilinear_involutions(rng: np.random.Generator, n: int, count: int, real: bool):
    """Commuting symmetric involutions I - 2 v v^T / (v^T v) with pairwise v^T w = 0."""
    vs: list[np.ndarray] = []
    attempts = 0
    while len(vs) < count:
        attempts += 1
        if attempts > 50 * count:
            raise GenerationFailureError("could not draw bilinear-orthogonal vectors")
        if real:
            v = rng.standard_normal(n).astype(np.complex128)
        else:
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        for u in vs:
            quo = (u @ v) / (u @ u)
            v = v - quo * u
        norm2 = v @ v
        if abs(norm2) < 0.3 * float(np.sum(np.abs(v) ** 2)):
            continue
        vs.append(v)
    return [mc.identity(n) - 2.0 * np.outer(v, v) / (v @ v) for v in vs]


# ---------------------------------------------------------------------------
# hypotheses as data


class _Commutes(NamedTuple):
    """A commutator hypothesis: the tuple S commutes within itself (T None) or with
    every component of T.  A program skips an instance that fails it with ``label``,
    and ``residual`` names its largest commutator norm among a bundle's residuals.  A
    row without a label is residual-only: no program tests it."""

    label: str | None
    S: str
    T: str | None = None
    residual: str | None = None


class _Vanishes(NamedTuple):
    """A defect hypothesis: the degree-(m, n) defect of the pair (P, Q) at X vanishes.
    Names read an instance's tuples, matrices and parameters, ``T*`` names the adjoint
    and ``CTC`` the conjugate of a tuple T, and the X ``I`` the identities of P's
    dimension; a degree is an int or a parameter.  With ``kind``, a pair of values of
    the ``kind`` parameter, the row tests (m, 0) where it has the first and (0, n)
    where it has the second; with ``when = (param, value)``, only where that parameter
    has that value.  ``label`` (the skip reason) and ``residual`` are formatted with
    the row's degrees ``{m}`` and ``{n}``.
    ``verify`` writes conclusions as rows too, labelled with their result keys and
    with degree expressions such as ``t1-1``."""

    label: str | None
    P: str
    Q: str
    X: str
    m: int | str
    n: int | str
    residual: str | None = None
    kind: tuple | None = None
    when: tuple = ()


def _residuals(rows: tuple, found: dict) -> dict[str, float]:
    """The norm of each row of ``rows`` that names a residual and applies to an instance,
    in row order: a commutator row's largest commutator norm, or a defect row's
    ``triangle`` (n = 0), ``delta`` (m = 0) or ``isosym_defect`` norm.  ``found``
    holds the instance's parameters, matrices and tuples by name, as built; the
    adjoints and conjugates the rows name join it as they are read."""

    def value(name: str):
        if name not in found:
            found[name] = adjoint_tuple(value(name[:-1])) if name.endswith("*") else conj_tuple(value(name[1:-1]))
        return found[name]

    out = {}
    for row in rows:
        if row.residual is None:
            continue
        if isinstance(row, _Commutes):
            S = value(row.S)
            out[row.residual] = max_commutator_within(S) if row.T is None else max_commutator_cross(S, value(row.T))
            continue
        if row.when and found.get(row.when[0]) != row.when[1]:
            continue
        P, Q = value(row.P), value(row.Q)
        m, n = (found[k] if isinstance(k, str) else k for k in (row.m, row.n))
        if row.kind is not None:
            m, n = (m, 0) if found["kind"] == row.kind[0] else (0, n)
        X = mc.identity(P.dim) if row.X == "I" else value(row.X)
        defect = tf.delta(P, Q, X, n) if not m else tf.triangle(P, Q, X, m) if not n else tf.isosym_defect(P, Q, X, m, n)
        out[row.residual.format(m=m, n=n)] = mc.fro_norm(defect)
    return out


# ---------------------------------------------------------------------------
# per-profile builders, each with its hypotheses: a builder takes the
# generators and seeds of one variant class and returns its (b, d, n, n)
# tuple stacks and (b, n, n) matrix stacks by name, and each seed's parameters


_PRO01_ROWS = (
    _Vanishes("not (X,{m})-isometric", "A", "B", "X", "m", 0, "isometry_defect"),
    _Commutes(None, "A", residual="commutes_A"),
    _Commutes(None, "B", residual="commutes_B"),
)


def _build_pro01(rngs: list, seeds: list) -> tuple:
    b = len(seeds)
    if seeds[0] % 2 == 0:
        lams = _phases(rngs)
        T = _rotate(_unitaries(_complex_normals(rngs, 2)), _jordan_blocks(lams, 2))[:, None]
        X, m, variant = _identities(b, 2), 3, "jordan"
    else:
        U = _unitaries(_complex_normals(rngs, 3))
        T = _scaled(_weights(rngs, 2), U)
        X, m, variant = _identities(b, 3), 2, "invertible"
    params = [{"m": m, "variant": variant} for _ in seeds]
    return {"A": _adjoints(T), "B": T}, {"X": X}, params


_PRO02_ROWS = (
    _Vanishes("first family member violates its identity", "A0", "B0", "X", "m1", "m2", "first_member_defect",
              kind=("triangle", "delta")),
)


def _build_pro02(rngs: list, seeds: list) -> tuple:
    kind = "triangle" if seeds[0] % 2 == 0 else "delta"
    k = 2
    if kind == "triangle":
        lams = _phases(rngs)
        m1, m2 = 2 * k - 1, 1 + seeds[0] % 2
    else:
        lams = np.array([complex(0.5 + rng.random()) for rng in rngs])
        m1, m2 = 1 + seeds[0] % 2, 2 * k - 1
    cs = _draw(rngs, lambda rng: 0.5 + rng.random())
    Q = _unitaries(_complex_normals(rngs, k))
    n_members = 6
    # member j has nilpotent part (1 + 1/(j+1)) c N, and the limit (the last) c N
    factors = [(1.0 + 1.0 / (j + 1)) * c for c in cs.tolist() for j in range(n_members)]
    factors = np.array(factors, dtype=np.complex128).reshape(len(rngs), n_members)
    factors = np.concatenate([factors, cs.astype(np.complex128)[:, None]], axis=1)
    lam_eye = lams[:, None, None] * mc.identity(k)
    T = _rotate(Q, lam_eye[:, None] + factors[:, :, None, None] * upper_shift(k))
    T_star = _adjoints(T)
    tuples = {}
    for j in range(n_members):
        tuples[f"A{j}"], tuples[f"B{j}"] = T_star[:, j : j + 1], T[:, j : j + 1]
    tuples["A_limit"], tuples["B_limit"] = T_star[:, n_members:], T[:, n_members:]
    params = [{"kind": kind, "m1": m1, "m2": m2, "members": n_members} for _ in seeds]
    return tuples, {"X": _identities(len(rngs), k)}, params


_PRO03_ROWS = (_Commutes(None, "A", residual="commutes_A"), _Commutes(None, "B", residual="commutes_B"))


def _build_pro03(rngs: list, seeds: list) -> tuple:
    part = "a" if seeds[0] % 2 == 0 else "b"
    zero_side = (seeds[0] // 2) % 2 == 0
    n = 3
    eye = mc.identity(n)
    if part == "a":
        d = 2 if zero_side else 3
        # per pair, c * phase and (1/c) * conj(phase) in scalar arithmetic, one seed at a
        # time, whose bits a batched complex product need not share
        pairs = []
        for rng in rngs:
            row = []
            for _ in range(d - 1):
                c = 0.5 + rng.random()
                phase = complex(np.exp(2j * np.pi * rng.random()))
                row.append((c * phase, (1.0 / c) * np.conj(phase)))
            pairs.append(row)
        scalars = np.array(pairs, dtype=np.complex128)
        if zero_side:
            shift = upper_shift(n)
            heights = _draw(rngs, lambda rng: 0.5 + rng.random()).astype(np.complex128)
            last_a = heights[:, None, None] * (shift @ shift)  # squares to zero
            last_b = _normalized_complexes(rngs, n)
        else:
            last_a = _normalized_complexes(rngs, n)
            last_b = _normalized_complexes(rngs, n)
        A = np.concatenate([scalars[:, :, 0, None, None] * eye, last_a[:, None]], axis=1)
        B = np.concatenate([scalars[:, :, 1, None, None] * eye, last_b[:, None]], axis=1)
        X = _normalized_complexes(rngs, n)
    else:
        d = 3
        gammas = _complex_coefficients(rngs, (d - 1,))
        comps = gammas[:, :, None, None] * eye
        if zero_side:
            M = _normalized_complexes(rngs, n)
            A = np.concatenate([comps, M[:, None]], axis=1)
            B = np.concatenate([comps, M[:, None]], axis=1)
            X = _poly_evals(M, np.repeat([[0.5, 1.0, 0.25]], len(rngs), axis=0).astype(complex))
        else:
            # scalar parts cancel in the left-minus-right map, so the last
            # components may differ between the two tuples
            A = np.concatenate([comps, _normalized_complexes(rngs, n)[:, None]], axis=1)
            B = np.concatenate([comps, _normalized_complexes(rngs, n)[:, None]], axis=1)
            X = _normalized_complexes(rngs, n)
    params = [{"part": part, "m": 2 + (seed // 4) % 2, "zero_side": zero_side} for seed in seeds]
    return {"A": A, "B": B}, {"X": X}, params


def _adjoint_rows(degree) -> tuple:
    """The adjoint pair (A*, A) is symmetric at I at ``degree``, and A commutes."""
    return (
        _Vanishes("adjoint pair is not (I,{n})-symmetric", "A*", "A", "I", 0, degree, "symmetry_defect_{n}"),
        _Commutes(None, "A", residual="commutes_A"),
    )


_PRO04_ROWS = _adjoint_rows(2)


def _build_pro04(rngs: list, seeds: list) -> tuple:
    n = 3 + seeds[0] % 2
    d = 2 + seeds[0] % 2
    A = _hermitian_sum_splits(rngs, _hermitian_polys(rngs, n), d)
    params = [{"d": d} for _ in seeds]
    return {"A": A}, {"X": _identities(len(rngs), n)}, params


_PRO5_ROWS = _adjoint_rows("m_even")


def _build_pro5(rngs: list, seeds: list) -> tuple:
    m_even = 2 if seeds[0] % 2 == 0 else 4
    d = 2
    if m_even == 2:
        S = _hermitian_polys(rngs, 3)
    else:
        G = _complex_normals(rngs, 2)
        H0 = _normalized((G + G.conj().swapaxes(-1, -2)) / 2.0)
        heights = _draw(rngs, lambda rng: 0.5 + rng.random()).astype(np.complex128)
        N0 = heights[:, None, None] * upper_shift(2)
        S = mc.kron(H0, mc.identity(2)) + mc.kron(mc.identity(2), N0)
    A = _hermitian_sum_splits(rngs, S, d)
    X = _identities(len(rngs), S.shape[-1])
    params = [{"m_even": m_even} for _ in seeds]
    return {"A": A}, {"X": X}, params


def _stream_seeds(rngs: list) -> list[int]:
    """One nilpotent tuple's rng_seed per generator."""
    return [int(rng.integers(2**32)) for rng in rngs]


_THM05_ROWS = (
    _Vanishes("base pair violates the combined identity", "A", "B", "X", "m1", "m2", "base_defect"),
    *(_Commutes(f"tuple {name} does not commute", name) for name in ("A", "B", "N1", "N2")),
    _Commutes("[A, N1] != 0", "A", "N1", "cross_A_N1"),
    _Commutes("[B, N2] != 0", "B", "N2", "cross_B_N2"),
)


def _build_thm05(rngs: list, seeds: list) -> tuple:
    adjoint_variant = seeds[0] % 2 == 0
    d = 1 + (seeds[0] // 2) % 2
    dim = 4
    n2s = [2 + (seed // 16) % 2 for seed in seeds]
    n1s = n2s if adjoint_variant else [2 + (seed // 32) % 2 for seed in seeds]
    A_base, B_base = _scalar_isometric_pairs(rngs, d, dim)
    N2 = _nilpotent_tuples(dim, d, n2s, _stream_seeds(rngs))
    if adjoint_variant:
        N1 = _adjoints(N2)
        X = _identities(len(rngs), dim)
    else:
        N1 = _nilpotent_tuples(dim, d, n1s, _stream_seeds(rngs))
        X = _normalized_complexes(rngs, dim)
    Q = _unitaries(_complex_normals(rngs, dim))
    tuples = {key: _rotate(Q, T) for key, T in zip(("A", "B", "N1", "N2"), (A_base, B_base, N1, N2))}
    params = [
        {"m1": 1 + (seed // 4) % 2, "m2": 1 + (seed // 8) % 2, "n1": n1, "n2": n2,
         "adjoint_variant": adjoint_variant}
        for seed, n1, n2 in zip(seeds, n1s, n2s)
    ]
    return tuples, {"X": _rotate(Q, X)}, params


_COR05_ROWS = (
    _Vanishes("first pair violates its isometric identity", "A1", "B1", "X", "m1", 0, "triangle_hypothesis"),
    _Vanishes("second pair violates its symmetric identity", "A2", "B2", "X", 0, "m2", "delta_hypothesis"),
    *(_Commutes(f"[{S},{T}] != 0", S, T)
      for S, T in (("A1", "N1"), ("A2", "N1"), ("B1", "N2"), ("B2", "N2"), ("A1", "A2"), ("B1", "B2"))),
)


def _build_cor05(rngs: list, seeds: list) -> tuple:
    d = 1 + seeds[0] % 2
    dim = 4
    n1s = [2 + (seed // 8) % 2 for seed in seeds]
    n2s = [2 + (seed // 16) % 2 for seed in seeds]
    A1, B1 = _scalar_isometric_pairs(rngs, d, dim)
    gammas = _complex_coefficients(rngs, (d,))
    A2 = gammas[:, :, None, None] * mc.identity(dim)
    N1 = _nilpotent_tuples(dim, d, n1s, _stream_seeds(rngs))
    N2 = _nilpotent_tuples(dim, d, n2s, _stream_seeds(rngs))
    X = _normalized_complexes(rngs, dim)
    Q = _unitaries(_complex_normals(rngs, dim))
    A2 = _rotate(Q, A2)
    tuples = {
        "A1": _rotate(Q, A1), "B1": _rotate(Q, B1), "A2": A2, "B2": A2,
        "N1": _rotate(Q, N1), "N2": _rotate(Q, N2),
    }
    params = [
        {"m1": 1 + (seed // 2) % 2, "m2": 1 + (seed // 4) % 2, "n1": n1, "n2": n2}
        for seed, n1, n2 in zip(seeds, n1s, n2s)
    ]
    return tuples, {"X": _rotate(Q, X)}, params


_COR050_CROSS = "[T, N] != 0 or [T*, N] != 0"
_COR050_ROWS = (
    _Vanishes("base adjoint pair violates the combined identity", "T*", "T", "X", "m1", "m2", "base_defect"),
    # [T*, N] is tested after [T, N], but its residual comes first
    _Commutes(None, "T*", "N", "cross_Tstar_N"),
    _Commutes("T does not commute", "T"),
    _Commutes(_COR050_CROSS, "T", "N", "cross_T_N"),
    _Commutes(_COR050_CROSS, "T*", "N"),
)


def _build_cor050(rngs: list, seeds: list) -> tuple:
    d = 1 + seeds[0] % 2
    dim = 4
    orders = [2 + (seed // 8) % 2 for seed in seeds]
    _, T = _scalar_isometric_pairs(rngs, d, dim)
    N = _nilpotent_tuples(dim, d, orders, _stream_seeds(rngs))
    X = _normalized_complexes(rngs, dim)
    Q = _unitaries(_complex_normals(rngs, dim))
    params = [
        {"m1": 1 + (seed // 2) % 2, "m2": 1 + (seed // 4) % 2, "order": order}
        for seed, order in zip(seeds, orders)
    ]
    tuples = {"T": _rotate(Q, T), "N": _rotate(Q, N)}
    return tuples, {"X": _rotate(Q, X)}, params


_THM06_ROWS = (
    _Vanishes("hypothesis AB_mn fails", "A", "B", "X", "m", "n", "hyp_AB"),
    _Vanishes("hypothesis ST_rs fails", "S", "T", "X", "r", "s", "hyp_ST"),
    _Vanishes("hypothesis ST_rn fails", "S", "T", "X", "r", "n"),
    _Vanishes("hypothesis AB_ms fails", "A", "B", "X", "m", "s"),
    _Commutes("[A,S] != 0", "A", "S", "cross_A_S"),
    _Commutes("[B,S] != 0", "B", "S"),
    _Commutes("[B,T] != 0", "B", "T", "cross_B_T"),
)


def _build_thm06(rngs: list, seeds: list) -> tuple:
    family = seeds[0] % 3
    b = len(rngs)
    if family == 0:
        k1s = [1 + (seed // 3) % 2 for seed in seeds]
        k2s = [1 + (seed // 6) % 2 for seed in seeds]
        A, B = _embedded_pairs(_iso_factors(rngs, k1s), first=True)
        S, T = _embedded_pairs(_iso_factors(rngs, k2s), first=False)
        X = _identities(b, 4)
        family_name = "jordan-tensor"
        degrees = [(2 * k1 - 1, 2 * k2 - 1) for k1, k2 in zip(k1s, k2s)]
    else:
        n_dim, d = 3, 2
        if family == 1:
            A, B = _diag_unitary_pairs(rngs, d, n_dim)
            S, T = _diag_unitary_pairs(rngs, d, n_dim)
            family_name = "diag-unitary"
        else:
            A = B = _diag_hermitian_tuples(rngs, d, n_dim)
            S = T = _diag_hermitian_tuples(rngs, d, n_dim)
            family_name = "diag-hermitian"
        degrees = [(1 + (seed // 3) % 2, 1 + (seed // 6) % 2) for seed in seeds]
        x = _draw(rngs, lambda rng: rng.standard_normal((2, n_dim)))
        X = _normalized(_diagonal(x[:, 0] + 1j * x[:, 1]))
        Q = _unitaries(_complex_normals(rngs, n_dim))
        A, B, S, T = (_rotate(Q, t) for t in (A, B, S, T))
        X = _rotate(Q, X)
    params = [
        {"m": m, "n": 1 + (seed // 12) % 2, "r": r, "s": 1 + (seed // 24) % 2,
         "family": family_name}
        for seed, (m, r) in zip(seeds, degrees)
    ]
    return {"A": A, "B": B, "S": S, "T": T}, {"X": X}, params


def _factor_rows(label: str) -> tuple:
    """The factor pairs (A, B) and (S, T) vanish at degrees m and n of one kind."""
    return (
        _Vanishes(label, "A", "B", "X", "m", "m", "hyp_AB", kind=("iso", "sym")),
        _Vanishes(label, "S", "T", "X", "n", "n", "hyp_ST", kind=("iso", "sym")),
    )


_COR06_ROWS = (
    *_factor_rows("a factor pair violates its identity"),
    _Commutes("[A,S] != 0", "A", "S", "cross_A_S"),
    _Commutes("[B,S] != 0", "B", "S"),
    _Commutes("[B,T] != 0", "B", "T"),
)


def _build_cor06(rngs: list, seeds: list) -> tuple:
    kind = "iso" if seeds[0] % 2 == 0 else "sym"
    factors = _iso_factors if kind == "iso" else _sym_factors
    k1s = [1 + (seed // 2) % 2 for seed in seeds]
    k2s = [1 + (seed // 4) % 2 for seed in seeds]
    A, B = _embedded_pairs(factors(rngs, k1s), first=True)
    S, T = _embedded_pairs(factors(rngs, k2s), first=False)
    params = [
        {"m": 2 * k1 - 1, "n": 2 * k2 - 1, "kind": kind} for k1, k2 in zip(k1s, k2s)
    ]
    tuples = {"A": A, "B": B, "S": S, "T": T}
    return tuples, {"X": _identities(len(rngs), 4)}, params


_COR061_NEITHER = "neither implication has valid hypotheses"
_COR061_ROWS = (
    _Commutes("[S, T] != 0", "S", "T", "cross_S_T"),
    _Commutes("[S*, CTC] != 0", "S*", "CTC", "cross_Sstar_CTC"),
    # both kinds' hypotheses, isometric then symmetric: a trial skips when neither kind's hold
    _Vanishes(_COR061_NEITHER, "S*", "CSC", "X", "m", 0, "hyp_iso_S"),
    _Vanishes(_COR061_NEITHER, "T*", "CTC", "X", "n", 0, "hyp_iso_T"),
    _Vanishes(_COR061_NEITHER, "S*", "CSC", "X", 0, "m", "hyp_sym_S"),
    _Vanishes(_COR061_NEITHER, "T*", "CTC", "X", 0, "n", "hyp_sym_T"),
)


def _build_cor061(rngs: list, seeds: list) -> tuple:
    d = 1 + seeds[0] % 2
    n = 3 + (seeds[0] // 2) % 2
    real_cases = [(seed // 4) % 2 == 0 for seed in seeds]
    V = np.array([
        _bilinear_involutions(rng, n, d, real=real) for rng, real in zip(rngs, real_cases)
    ])
    w = _weights(rngs, d)
    u = _weights(rngs, d)
    Q = _orthogonals(rngs, n)
    S = _rotate(Q, w[:, :, None, None] * V)
    T = _rotate(Q, u[:, :, None, None] * V)
    params = [
        {"m": 1 + (seed // 8) % 2, "n": 1 + (seed // 16) % 2, "real_case": real}
        for seed, real in zip(seeds, real_cases)
    ]
    return {"S": S, "T": T}, {"X": _identities(len(rngs), n)}, params


_COR062_CROSS = "[A, S] != 0 or [B, T] != 0"
_COR062_ROWS = (
    *_factor_rows("a factor violates its identity"),
    _Commutes(_COR062_CROSS, "A", "S", "cross_A_S"),
    _Commutes(_COR062_CROSS, "B", "T", "cross_B_T"),
)


def _build_cor062(rngs: list, seeds: list) -> tuple:
    kind = "iso" if seeds[0] % 2 == 0 else "sym"
    k1s = [1 + (seed // 2) % 2 for seed in seeds]
    d = 2
    factors = _iso_factors if kind == "iso" else _sym_factors
    A, B = _embedded_pairs(factors(rngs, k1s), first=True)
    if kind == "iso":
        Sf, Tf = _diag_unitary_pairs(rngs, d, 2)
    else:
        Sf = Tf = _diag_hermitian_tuples(rngs, d, 2)
    eye2 = mc.identity(2)
    S = mc.kron(eye2, Sf)
    T = mc.kron(eye2, Tf)
    params = [{"m": 2 * k1 - 1, "n": 1, "kind": kind} for k1 in k1s]
    tuples = {"A": A, "B": B, "S": S, "T": T}
    return tuples, {"X": _identities(len(rngs), 4)}, params


_I, _II = ("variant", "i"), ("variant", "ii")
_THM07_ROWS = (
    # variant i: factor pairs whose defects of one kind vanish at degrees m and n
    _Vanishes("a factor pair violates its identity", "A", "B", "I", "m", "m", "hyp_AB", kind=("iso", "sym"), when=_I),
    _Vanishes("a factor pair violates its identity", "S", "T", "I", "n", "n", "hyp_ST", kind=("iso", "sym"), when=_I),
    _Vanishes("first pair violates the combined identity", "A", "B", "I", "m", "n", "hyp_AB", when=_II),
    _Vanishes("second pair violates its identities", "S", "T", "I", "r", 0, "hyp_S_iso", when=_II),
    _Vanishes("second pair violates its identities", "S", "T", "I", 0, "s", "hyp_S_sym", when=_II),
)


def _build_thm07(rngs: list, seeds: list) -> tuple:
    variant = "i" if seeds[0] % 2 == 0 else "ii"
    if variant == "i":
        kind = "iso" if (seeds[0] // 2) % 2 == 0 else "sym"
        factors = _iso_factors if kind == "iso" else _sym_factors
        k1s = [1 + (seed // 4) % 2 for seed in seeds]
        k2s = [1 + (seed // 8) % 2 for seed in seeds]
        a = factors(rngs, k1s)
        s = factors(rngs, k2s)
        d = 1 + (seeds[0] // 16) % 2
        w1 = _weights(rngs, d)
        w2 = _weights(rngs, d)
        A = _scaled(w1, a.conj().swapaxes(-1, -2))
        B = _scaled(w1, a)
        S = _scaled(w2, s.conj().swapaxes(-1, -2))
        T = _scaled(w2, s)
        params = [
            {"variant": variant, "kind": kind, "m": 2 * k1 - 1, "n": 2 * k2 - 1}
            for k1, k2 in zip(k1s, k2s)
        ]
    else:
        k1s = [1 + (seed // 2) % 2 for seed in seeds]
        a = _iso_factors(rngs, k1s)
        k2s = [1 + (seed // 8) % 2 for seed in seeds]
        g = np.array([jordan_block(1.0, 2) if k2 == 2 else mc.identity(2) for k2 in k2s])
        A, B = _adjoints(a)[:, None], a[:, None]
        S, T = _adjoints(g)[:, None], g[:, None]
        params = [
            {"variant": variant, "m": 2 * k1 - 1, "n": 1 + (seed // 4) % 2,
             "r": 2 * k2 - 1, "s": 2 * k2 - 1}
            for seed, k1, k2 in zip(seeds, k1s, k2s)
        ]
    return {"A": A, "B": B, "S": S, "T": T}, {}, params


def _thm07_variant(seed: int) -> tuple:
    """Variant ii, or variant i with its kind and tuple length."""
    if seed % 2:
        return ("ii",)
    return ("i", (seed // 2) % 2, (seed // 16) % 2)


class _Profile(NamedTuple):
    """A profile's builder, the variant class of a seed (the seed bits that change the
    shapes a builder stacks or the kinds of draws it makes) and its hypothesis rows."""

    build: Callable
    variant: Callable
    rows: tuple


_BUILDERS = {
    "pro01": _Profile(_build_pro01, lambda seed: seed % 2, _PRO01_ROWS),
    "pro02-family": _Profile(_build_pro02, lambda seed: seed % 2, _PRO02_ROWS),
    "pro03": _Profile(_build_pro03, lambda seed: seed % 4, _PRO03_ROWS),
    "pro04": _Profile(_build_pro04, lambda seed: seed % 2, _PRO04_ROWS),
    "pro5": _Profile(_build_pro5, lambda seed: seed % 2, _PRO5_ROWS),
    "thm05": _Profile(_build_thm05, lambda seed: seed % 4, _THM05_ROWS),
    "cor05": _Profile(_build_cor05, lambda seed: seed % 2, _COR05_ROWS),
    "cor050": _Profile(_build_cor050, lambda seed: seed % 2, _COR050_ROWS),
    "thm06": _Profile(_build_thm06, lambda seed: seed % 3, _THM06_ROWS),
    "cor06": _Profile(_build_cor06, lambda seed: seed % 2, _COR06_ROWS),
    "cor061": _Profile(_build_cor061, lambda seed: seed % 4, _COR061_ROWS),
    "cor062": _Profile(_build_cor062, lambda seed: seed % 2, _COR062_ROWS),
    "thm07": _Profile(_build_thm07, _thm07_variant, _THM07_ROWS),
}

#: Profiles accepted by :func:`random_instance`; one per campaign family.
PROFILES = tuple(_BUILDERS)


def random_instance(profile: str, rng_seed: int) -> InstanceBundle:
    """Seeded, reproducible instance satisfying the named check's hypotheses exactly.

    Its matrices are read-only, as tuple components are, so the residuals
    computed on first read describe the instance as built.
    """
    return random_instances(profile, (rng_seed,))[0]


def random_instances(profile: str, seeds) -> list[InstanceBundle]:
    """``random_instance(profile, seed)`` for each seed, built together: the classes of
    ``_chunk``, split into one bundle per seed, each with the bits it gets alone."""
    seeds = tuple(seeds)
    bundles = [None] * len(seeds)
    for positions, tuples, matrices, params in _chunk(profile, seeds):
        tuples = {key: OperatorTuple._of_checked(stacks) for key, stacks in tuples.items()}
        for r, (i, p) in enumerate(zip(positions.tolist(), params)):
            own_tuples = {key: items[r] for key, items in tuples.items()}
            own_matrices = {key: X[r] for key, X in matrices.items()}
            residual_fn = functools.partial(_residuals, _BUILDERS[profile].rows, {**p, **own_matrices, **own_tuples})
            bundles[i] = InstanceBundle(profile, int(seeds[i]), own_tuples, own_matrices, p, residual_fn)
    return bundles


def _chunk(profile: str, seeds) -> list[tuple]:
    """The instances of ``seeds`` as the variant classes that built them, each one
    builder call: ``(positions, tuples, matrices, params)``, the positions of its
    seeds, each tuple's (b, d, n, n) stack and each matrix's (b, n, n) stack by name,
    validated once for the class (``checked_stacks``), and each seed's parameters."""
    if profile not in _BUILDERS:
        raise InvalidArgumentError(
            f"unknown profile {profile!r}; expected one of {sorted(_BUILDERS)}"
        )
    build, variant, _ = _BUILDERS[profile]
    seeds = tuple(seeds)
    # each seed seeds NumPy's generator, which takes only a non-negative integer
    for seed in seeds:
        if not isinstance(seed, (int, np.integer)) or seed < 0:
            raise InvalidArgumentError(f"seed must be a non-negative integer, got {seed!r}")
    seeds = tuple(map(int, seeds))  # so that every parameter derived from a seed is an int
    rngs = [np.random.default_rng(seed) for seed in seeds]
    classes: dict = {}
    for i, seed in enumerate(seeds):
        classes.setdefault(variant(seed), []).append(i)
    chunk = []
    for index in classes.values():
        tuples, matrices, params = build([rngs[i] for i in index], [seeds[i] for i in index])
        tuples, matrices = ({key: checked_stacks(S) for key, S in part.items()} for part in (tuples, matrices))
        chunk.append((np.array(index), tuples, matrices, params))
    return chunk
