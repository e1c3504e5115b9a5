"""Deterministic and seeded-random construction of verification instances.

Every random family is built from polynomials in a single seed matrix (or
from tensor-factor embeddings), so commutativity hypotheses hold exactly by
construction and floating-point residuals stay at machine level.  Checkers
validate every hypothesis themselves, so a builder records its hypothesis
residuals on demand: the bundle computes them on first read.  A fixed seed
reproduces the bundle bit for bit.

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

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import matrix_core as mc
from . import transforms as tf
from .errors import GenerationFailureError, InvalidArgumentError
from .tuples import (
    OperatorTuple,
    adjoint_tuple,
    conj_tuple,
    max_commutator_cross,
    max_commutator_within,
    nilpotency_order,
    tensor_tuple,
)

_RETRY_LIMIT = 20


@dataclass(frozen=True)
class InstanceBundle:
    """A seeded input for one theorem check, built to satisfy its hypotheses.

    ``residuals`` maps each hypothesis defect and commutator of the instance
    to its norm.  It is computed on first read, by ``residual_fn`` (which a
    builder closes over the tuples and matrices it built), and then kept; a
    bundle built without one reads ``{}``.
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
    M = mc.as_matrix(M)
    eye = mc.identity(M.shape[0])
    acc = mc.zero(M.shape[0])
    for c in reversed(list(coeffs)):
        acc = acc @ M + complex(c) * eye
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
    return complex(lam) * mc.identity(k) + upper_shift(k)


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
    pair = (OperatorTuple.of(mc.adjoint(T)), OperatorTuple.of(T), mc.identity(k))
    for deg in range(2 * k - 1, max(2 * k - 3, 0), -1):
        norm, threshold = tf.defect_check(*pair, *((deg, 0) if kind == "isometric" else (0, deg)))
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
    every word of length target_order-1 retains a nonzero leading term.
    Post-validated with :func:`nilpotency_order`.
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
        return OperatorTuple(np.zeros((d, n, n), dtype=np.complex128))
    rng = np.random.default_rng(rng_seed)
    M = nilpotent_seed(n, target_order)
    for _ in range(_RETRY_LIMIT):
        comps = []
        for _ in range(d):
            coeffs = [0.0] + [
                complex(rng.standard_normal(), rng.standard_normal())
                for _ in range(target_order - 1)
            ]
            if abs(coeffs[1]) < 0.3:
                coeffs[1] = coeffs[1] + 0.5 * (1.0 if coeffs[1].real >= 0 else -1.0)
            comp = poly_eval(M, coeffs)
            comps.append(comp / mc.fro_norm(comp))
        N = OperatorTuple(tuple(comps))
        if nilpotency_order(N, max_order=target_order + 1) == target_order:
            return N
    raise GenerationFailureError(
        f"could not draw a {d}-tuple of order {target_order} at dimension {n}"
    )


# ---------------------------------------------------------------------------
# random building blocks


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-ish unitary from QR with phase-normalized diagonal."""
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return Q @ np.diag(np.diag(R) / np.abs(np.diag(R)))


def _random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n))
    Q, R = np.linalg.qr(G)
    return (Q @ np.diag(np.sign(np.diag(R)))).astype(np.complex128)


def _normalized_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return G / mc.fro_norm(G)


def _random_weights(rng: np.random.Generator, d: int) -> np.ndarray:
    w = 0.3 + rng.random(d)
    return w / np.linalg.norm(w)


def _random_phase(rng: np.random.Generator) -> complex:
    return complex(np.exp(2j * np.pi * rng.random()))


def _rotate(Q: np.ndarray, M: np.ndarray) -> np.ndarray:
    return Q @ M @ Q.conj().T


def _rotate_tuple(Q: np.ndarray, T: OperatorTuple) -> OperatorTuple:
    return OperatorTuple(_rotate(Q, T.stack))


def _embedded_pair(a: np.ndarray, first: bool) -> tuple[OperatorTuple, OperatorTuple]:
    """(a* (x) I, a (x) I) for a 2x2 factor a, or (I (x) a*, I (x) a) when it is not first."""
    pair, eye = np.array([mc.adjoint(a), a]), mc.identity(2)[None]
    stack = mc.kron(pair, eye) if first else mc.kron(eye, pair)
    return OperatorTuple.of(stack[0]), OperatorTuple.of(stack[1])


def _scaled(weights: np.ndarray, M: np.ndarray) -> np.ndarray:
    """The (d, n, n) stack [w_0 M, w_1 M, ...]."""
    return weights[:, None, None] * M


def _scalar_isometric_pair(
    rng: np.random.Generator, d: int, n: int
) -> tuple[OperatorTuple, OperatorTuple]:
    """Pair (A, B) of scalar tuples with sum conj(a_i) b_i = 1: degree-1 isometric for every X."""
    w = _random_weights(rng, d)
    u = _random_phase(rng)
    B = OperatorTuple(_scaled(w * u, mc.identity(n)))
    A = OperatorTuple(_scaled(w * np.conj(u), mc.identity(n)))
    return A, B


def _hermitian_sum_split(rng: np.random.Generator, S: np.ndarray, d: int) -> OperatorTuple:
    """Commuting d-tuple of polynomials in S whose components sum exactly to S."""
    n = S.shape[0]
    comps = []
    total = mc.zero(n)
    for _ in range(d - 1):
        coeffs = [
            complex(rng.standard_normal(), rng.standard_normal()) * 0.3 for _ in range(3)
        ]
        q = poly_eval(S, coeffs)
        comps.append(q)
        total = total + q
    comps.append(S - total)
    return OperatorTuple(tuple(comps))


# ---------------------------------------------------------------------------
# per-profile builders


def _build_pro01(rng: np.random.Generator, seed: int) -> InstanceBundle:
    if seed % 2 == 0:
        T = jordan_block(_random_phase(rng), 2)
        Q = random_unitary(rng, 2)
        T = _rotate(Q, T)
        A, B = OperatorTuple.of(mc.adjoint(T)), OperatorTuple.of(T)
        X = mc.identity(2)
        m = 3
        variant = "jordan"
    else:
        n, d = 3, 2
        U = random_unitary(rng, n)
        w = _random_weights(rng, d)
        B = OperatorTuple(_scaled(w, U))
        A = adjoint_tuple(B)
        X = mc.identity(n)
        m = 2
        variant = "invertible"

    def residuals():
        return {
            "isometry_defect": mc.fro_norm(tf.triangle(A, B, X, m)),
            "commutes_A": max_commutator_within(A),
            "commutes_B": max_commutator_within(B),
        }

    return InstanceBundle(
        profile="pro01",
        seed=seed,
        tuples={"A": A, "B": B},
        matrices={"X": X},
        params={"m": m, "variant": variant},
        residual_fn=residuals,
    )


def _build_pro02(rng: np.random.Generator, seed: int) -> InstanceBundle:
    kind = "triangle" if seed % 2 == 0 else "delta"
    k = 2
    if kind == "triangle":
        lam = _random_phase(rng)
        m1, m2 = 2 * k - 1, 1 + seed % 2
    else:
        lam = complex(0.5 + rng.random())
        m1, m2 = 1 + seed % 2, 2 * k - 1
    c = 0.5 + rng.random()
    N = upper_shift(k)
    Q = random_unitary(rng, k)
    n_members = 6
    tuples: dict[str, OperatorTuple] = {}
    for j in range(n_members):
        T_j = _rotate(Q, lam * mc.identity(k) + (1.0 + 1.0 / (j + 1)) * c * N)
        tuples[f"A{j}"] = OperatorTuple.of(mc.adjoint(T_j))
        tuples[f"B{j}"] = OperatorTuple.of(T_j)
    T_lim = _rotate(Q, lam * mc.identity(k) + c * N)
    tuples["A_limit"] = OperatorTuple.of(mc.adjoint(T_lim))
    tuples["B_limit"] = OperatorTuple.of(T_lim)
    X = mc.identity(k)
    A0, B0 = tuples["A0"], tuples["B0"]

    def residuals():
        if kind == "triangle":
            return {"first_member_defect": mc.fro_norm(tf.triangle(A0, B0, X, m1))}
        return {"first_member_defect": mc.fro_norm(tf.delta(A0, B0, X, m2))}

    return InstanceBundle(
        profile="pro02-family",
        seed=seed,
        tuples=tuples,
        matrices={"X": X},
        params={"kind": kind, "m1": m1, "m2": m2, "members": n_members},
        residual_fn=residuals,
    )


def _build_pro03(rng: np.random.Generator, seed: int) -> InstanceBundle:
    part = "a" if seed % 2 == 0 else "b"
    zero_side = (seed // 2) % 2 == 0
    m = 2 + (seed // 4) % 2
    n = 3
    if part == "a":
        d = 2 if zero_side else 3
        comps_a, comps_b = [], []
        for _ in range(d - 1):
            c = 0.5 + rng.random()
            phase = _random_phase(rng)
            comps_a.append(c * phase * mc.identity(n))
            comps_b.append((1.0 / c) * np.conj(phase) * mc.identity(n))
        if zero_side:
            shift = upper_shift(n)
            comps_a.append((0.5 + rng.random()) * (shift @ shift))  # squares to zero
            comps_b.append(_normalized_complex(rng, n))
        else:
            comps_a.append(_normalized_complex(rng, n))
            comps_b.append(_normalized_complex(rng, n))
        A, B = OperatorTuple(tuple(comps_a)), OperatorTuple(tuple(comps_b))
        X = _normalized_complex(rng, n)
    else:
        d = 3
        gammas = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(d - 1)]
        comps = [g * mc.identity(n) for g in gammas]
        if zero_side:
            M = _normalized_complex(rng, n)
            A = OperatorTuple(tuple(comps + [M]))
            B = OperatorTuple(tuple(comps + [M]))
            X = poly_eval(M, [0.5, 1.0, 0.25])
        else:
            # scalar parts cancel in the left-minus-right map, so the last
            # components may differ between the two tuples
            A = OperatorTuple(tuple(comps + [_normalized_complex(rng, n)]))
            B = OperatorTuple(tuple(comps + [_normalized_complex(rng, n)]))
            X = _normalized_complex(rng, n)

    def residuals():
        return {
            "commutes_A": max_commutator_within(A),
            "commutes_B": max_commutator_within(B),
        }

    return InstanceBundle(
        profile="pro03",
        seed=seed,
        tuples={"A": A, "B": B},
        matrices={"X": X},
        params={"part": part, "m": m, "zero_side": zero_side},
        residual_fn=residuals,
    )


def _hermitian_poly(rng: np.random.Generator, n: int) -> np.ndarray:
    G = _normalized_complex(rng, n)
    H = (G + G.conj().T) / 2.0
    coeffs = [float(rng.standard_normal()) for _ in range(4)]
    S = poly_eval(H, coeffs)
    return S / max(mc.fro_norm(S), 1e-3)


def _build_pro04(rng: np.random.Generator, seed: int) -> InstanceBundle:
    n = 3 + seed % 2
    d = 2 + seed % 2
    S = _hermitian_poly(rng, n)
    A = _hermitian_sum_split(rng, S, d)
    X = mc.identity(n)

    def residuals():
        return {
            "symmetry_defect_2": mc.fro_norm(tf.delta(adjoint_tuple(A), A, X, 2)),
            "commutes_A": max_commutator_within(A),
        }

    return InstanceBundle(
        profile="pro04",
        seed=seed,
        tuples={"A": A},
        matrices={"X": X},
        params={"d": d},
        residual_fn=residuals,
    )


def _build_pro5(rng: np.random.Generator, seed: int) -> InstanceBundle:
    m_even = 2 if seed % 2 == 0 else 4
    d = 2
    if m_even == 2:
        S = _hermitian_poly(rng, 3)
    else:
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H0 = (G + G.conj().T) / 2.0
        H0 = H0 / mc.fro_norm(H0)
        N0 = (0.5 + rng.random()) * upper_shift(2)
        S = mc.kron(H0, mc.identity(2)) + mc.kron(mc.identity(2), N0)
    A = _hermitian_sum_split(rng, S, d)
    X = mc.identity(S.shape[0])

    def residuals():
        return {
            f"symmetry_defect_{m_even}": mc.fro_norm(tf.delta(adjoint_tuple(A), A, X, m_even)),
            "commutes_A": max_commutator_within(A),
        }

    return InstanceBundle(
        profile="pro5",
        seed=seed,
        tuples={"A": A},
        matrices={"X": X},
        params={"m_even": m_even},
        residual_fn=residuals,
    )


def _build_thm05(rng: np.random.Generator, seed: int) -> InstanceBundle:
    adjoint_variant = seed % 2 == 0
    d = 1 + (seed // 2) % 2
    dim = 4
    m1 = 1 + (seed // 4) % 2
    m2 = 1 + (seed // 8) % 2
    n2 = 2 + (seed // 16) % 2
    n1 = n2 if adjoint_variant else 2 + (seed // 32) % 2
    A_base, B_base = _scalar_isometric_pair(rng, d, dim)
    N2 = nilpotent_commuting(dim, d, n2, rng_seed=int(rng.integers(2**32)))
    if adjoint_variant:
        N1 = adjoint_tuple(N2)
        X = mc.identity(dim)
    else:
        N1 = nilpotent_commuting(dim, d, n1, rng_seed=int(rng.integers(2**32)))
        X = _normalized_complex(rng, dim)
    Q = random_unitary(rng, dim)
    A_base, B_base = _rotate_tuple(Q, A_base), _rotate_tuple(Q, B_base)
    N1, N2 = _rotate_tuple(Q, N1), _rotate_tuple(Q, N2)
    X = _rotate(Q, X)

    def residuals():
        return {
            "base_defect": mc.fro_norm(tf.isosym_defect(A_base, B_base, X, m1, m2)),
            "cross_A_N1": max_commutator_cross(A_base, N1),
            "cross_B_N2": max_commutator_cross(B_base, N2),
        }

    return InstanceBundle(
        profile="thm05",
        seed=seed,
        tuples={"A": A_base, "B": B_base, "N1": N1, "N2": N2},
        matrices={"X": X},
        params={"m1": m1, "m2": m2, "n1": n1, "n2": n2, "adjoint_variant": adjoint_variant},
        residual_fn=residuals,
    )


def _build_cor05(rng: np.random.Generator, seed: int) -> InstanceBundle:
    d = 1 + seed % 2
    dim = 4
    m1 = 1 + (seed // 2) % 2
    m2 = 1 + (seed // 4) % 2
    n1 = 2 + (seed // 8) % 2
    n2 = 2 + (seed // 16) % 2
    A1, B1 = _scalar_isometric_pair(rng, d, dim)
    gammas = [complex(rng.standard_normal(), rng.standard_normal()) for _ in range(d)]
    A2 = OperatorTuple(tuple(g * mc.identity(dim) for g in gammas))
    B2 = A2
    N1 = nilpotent_commuting(dim, d, n1, rng_seed=int(rng.integers(2**32)))
    N2 = nilpotent_commuting(dim, d, n2, rng_seed=int(rng.integers(2**32)))
    X = _normalized_complex(rng, dim)
    Q = random_unitary(rng, dim)
    A1, B1, A2, B2 = (_rotate_tuple(Q, t) for t in (A1, B1, A2, B2))
    N1, N2 = _rotate_tuple(Q, N1), _rotate_tuple(Q, N2)
    X = _rotate(Q, X)

    def residuals():
        return {
            "triangle_hypothesis": mc.fro_norm(tf.triangle(A1, B1, X, m1)),
            "delta_hypothesis": mc.fro_norm(tf.delta(A2, B2, X, m2)),
        }

    return InstanceBundle(
        profile="cor05",
        seed=seed,
        tuples={"A1": A1, "B1": B1, "A2": A2, "B2": B2, "N1": N1, "N2": N2},
        matrices={"X": X},
        params={"m1": m1, "m2": m2, "n1": n1, "n2": n2},
        residual_fn=residuals,
    )


def _build_cor050(rng: np.random.Generator, seed: int) -> InstanceBundle:
    d = 1 + seed % 2
    dim = 4
    m1 = 1 + (seed // 2) % 2
    m2 = 1 + (seed // 4) % 2
    order = 2 + (seed // 8) % 2
    A_star, T = _scalar_isometric_pair(rng, d, dim)
    N = nilpotent_commuting(dim, d, order, rng_seed=int(rng.integers(2**32)))
    X = _normalized_complex(rng, dim)
    Q = random_unitary(rng, dim)
    T, N = _rotate_tuple(Q, T), _rotate_tuple(Q, N)
    X = _rotate(Q, X)

    def residuals():
        T_star = adjoint_tuple(T)
        return {
            "base_defect": mc.fro_norm(tf.isosym_defect(T_star, T, X, m1, m2)),
            "cross_Tstar_N": max_commutator_cross(T_star, N),
            "cross_T_N": max_commutator_cross(T, N),
        }

    return InstanceBundle(
        profile="cor050",
        seed=seed,
        tuples={"T": T, "N": N},
        matrices={"X": X},
        params={"m1": m1, "m2": m2, "order": order},
        residual_fn=residuals,
    )


def _iso_factor(rng: np.random.Generator, k: int) -> tuple[np.ndarray, int]:
    """A 2x2 operator whose adjoint pair is strictly (I, 2k-1)-isometric."""
    if k == 1:
        return random_unitary(rng, 2), 1
    return jordan_block(_random_phase(rng), 2), 3


def _sym_factor(rng: np.random.Generator, k: int) -> tuple[np.ndarray, int]:
    """A 2x2 operator whose adjoint pair is strictly (I, 2k-1)-symmetric."""
    if k == 1:
        G = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        H = (G + G.conj().T) / 2.0
        return H / mc.fro_norm(H), 1
    return jordan_block(complex(0.5 + rng.random()), 2), 3


def _diag_unitary_pair(
    rng: np.random.Generator, d: int, n: int
) -> tuple[OperatorTuple, OperatorTuple]:
    """Diagonal-unitary pair: degree-1 isometric against every diagonal X."""
    D = np.diag(np.exp(2j * np.pi * rng.random(n)))
    p = 1 + int(rng.integers(2))
    V = np.linalg.matrix_power(D, p)
    w = _random_weights(rng, d)
    B = OperatorTuple(_scaled(w, V))
    A = OperatorTuple(_scaled(w, V.conj().T))
    return A, B


def _diag_hermitian_tuple(rng: np.random.Generator, d: int, n: int) -> OperatorTuple:
    """Real-diagonal tuple: paired with itself it is degree-1 symmetric against diagonal X."""
    return OperatorTuple(
        tuple(np.diag(rng.standard_normal(n)).astype(np.complex128) for _ in range(d))
    )


def _build_thm06(rng: np.random.Generator, seed: int) -> InstanceBundle:
    family = seed % 3
    if family == 0:
        k1 = 1 + (seed // 3) % 2
        k2 = 1 + (seed // 6) % 2
        a, m = _iso_factor(rng, k1)
        s, r = _iso_factor(rng, k2)
        A, B = _embedded_pair(a, first=True)
        S, T = _embedded_pair(s, first=False)
        n_exp = 1 + (seed // 12) % 2
        s_exp = 1 + (seed // 24) % 2
        X = mc.identity(4)
        family_name = "jordan-tensor"
    else:
        n_dim, d = 3, 2
        if family == 1:
            A, B = _diag_unitary_pair(rng, d, n_dim)
            S, T = _diag_unitary_pair(rng, d, n_dim)
            family_name = "diag-unitary"
        else:
            A = _diag_hermitian_tuple(rng, d, n_dim)
            B = A
            S = _diag_hermitian_tuple(rng, d, n_dim)
            T = S
            family_name = "diag-hermitian"
        m = 1 + (seed // 3) % 2
        r = 1 + (seed // 6) % 2
        n_exp = 1 + (seed // 12) % 2
        s_exp = 1 + (seed // 24) % 2
        X = np.diag(rng.standard_normal(n_dim) + 1j * rng.standard_normal(n_dim))
        X = X / mc.fro_norm(X)
        Q = random_unitary(rng, n_dim)
        A, B, S, T = (_rotate_tuple(Q, t) for t in (A, B, S, T))
        X = _rotate(Q, X)

    def residuals():
        return {
            "hyp_AB": mc.fro_norm(tf.isosym_defect(A, B, X, m, n_exp)),
            "hyp_ST": mc.fro_norm(tf.isosym_defect(S, T, X, r, s_exp)),
            "cross_A_S": max_commutator_cross(A, S),
            "cross_B_T": max_commutator_cross(B, T),
        }

    return InstanceBundle(
        profile="thm06",
        seed=seed,
        tuples={"A": A, "B": B, "S": S, "T": T},
        matrices={"X": X},
        params={"m": m, "n": n_exp, "r": r, "s": s_exp, "family": family_name},
        residual_fn=residuals,
    )


def _build_cor06(rng: np.random.Generator, seed: int) -> InstanceBundle:
    kind = "iso" if seed % 2 == 0 else "sym"
    k1 = 1 + (seed // 2) % 2
    k2 = 1 + (seed // 4) % 2
    factor = _iso_factor if kind == "iso" else _sym_factor
    a, m = factor(rng, k1)
    s, n = factor(rng, k2)
    A, B = _embedded_pair(a, first=True)
    S, T = _embedded_pair(s, first=False)
    X = mc.identity(4)

    def residuals():
        defect = tf.triangle if kind == "iso" else tf.delta
        return {
            "hyp_AB": mc.fro_norm(defect(A, B, X, m)),
            "hyp_ST": mc.fro_norm(defect(S, T, X, n)),
            "cross_A_S": max_commutator_cross(A, S),
        }

    return InstanceBundle(
        profile="cor06",
        seed=seed,
        tuples={"A": A, "B": B, "S": S, "T": T},
        matrices={"X": X},
        params={"m": m, "n": n, "kind": kind},
        residual_fn=residuals,
    )


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


def _build_cor061(rng: np.random.Generator, seed: int) -> InstanceBundle:
    d = 1 + seed % 2
    n = 3 + (seed // 2) % 2
    real_case = (seed // 4) % 2 == 0
    Vs = _bilinear_involutions(rng, n, d, real=real_case)
    w = _random_weights(rng, d)
    u = _random_weights(rng, d)
    S = OperatorTuple(w[:, None, None] * np.array(Vs))
    T = OperatorTuple(u[:, None, None] * np.array(Vs))
    X = mc.identity(n)
    Q = _random_orthogonal(rng, n)
    S, T = _rotate_tuple(Q, S), _rotate_tuple(Q, T)
    m = 1 + (seed // 8) % 2
    n_exp = 1 + (seed // 16) % 2

    def residuals():
        S_star, CSC = adjoint_tuple(S), conj_tuple(S)
        T_star, CTC = adjoint_tuple(T), conj_tuple(T)
        return {
            "cross_S_T": max_commutator_cross(S, T),
            "cross_Sstar_CTC": max_commutator_cross(S_star, CTC),
            "hyp_iso_S": mc.fro_norm(tf.triangle(S_star, CSC, X, m)),
            "hyp_iso_T": mc.fro_norm(tf.triangle(T_star, CTC, X, n_exp)),
            "hyp_sym_S": mc.fro_norm(tf.delta(S_star, CSC, X, m)),
            "hyp_sym_T": mc.fro_norm(tf.delta(T_star, CTC, X, n_exp)),
        }

    return InstanceBundle(
        profile="cor061",
        seed=seed,
        tuples={"S": S, "T": T},
        matrices={"X": X},
        params={"m": m, "n": n_exp, "real_case": real_case},
        residual_fn=residuals,
    )


def _build_cor062(rng: np.random.Generator, seed: int) -> InstanceBundle:
    kind = "iso" if seed % 2 == 0 else "sym"
    k1 = 1 + (seed // 2) % 2
    d = 2
    factor = _iso_factor if kind == "iso" else _sym_factor
    a, m = factor(rng, k1)
    eye2 = mc.identity(2)
    A, B = _embedded_pair(a, first=True)
    if kind == "iso":
        Sf, Tf = _diag_unitary_pair(rng, d, 2)
    else:
        Sf = _diag_hermitian_tuple(rng, d, 2)
        Tf = Sf
    S = tensor_tuple(OperatorTuple.of(eye2), Sf)
    T = tensor_tuple(OperatorTuple.of(eye2), Tf)
    n = 1
    X = mc.identity(4)

    def residuals():
        defect = tf.triangle if kind == "iso" else tf.delta
        return {
            "hyp_AB": mc.fro_norm(defect(A, B, X, m)),
            "hyp_ST": mc.fro_norm(defect(S, T, X, n)),
            "cross_A_S": max_commutator_cross(A, S),
            "cross_B_T": max_commutator_cross(B, T),
        }

    return InstanceBundle(
        profile="cor062",
        seed=seed,
        tuples={"A": A, "B": B, "S": S, "T": T},
        matrices={"X": X},
        params={"m": m, "n": n, "kind": kind},
        residual_fn=residuals,
    )


def _build_thm07(rng: np.random.Generator, seed: int) -> InstanceBundle:
    variant = "i" if seed % 2 == 0 else "ii"
    if variant == "i":
        kind = "iso" if (seed // 2) % 2 == 0 else "sym"
        factor = _iso_factor if kind == "iso" else _sym_factor
        a, m = factor(rng, 1 + (seed // 4) % 2)
        s, n = factor(rng, 1 + (seed // 8) % 2)
        d = 1 + (seed // 16) % 2
        w1 = _random_weights(rng, d)
        w2 = _random_weights(rng, d)
        A = OperatorTuple(_scaled(w1, mc.adjoint(a)))
        B = OperatorTuple(_scaled(w1, a))
        S = OperatorTuple(_scaled(w2, mc.adjoint(s)))
        T = OperatorTuple(_scaled(w2, s))
        params = {"variant": variant, "kind": kind, "m": m, "n": n}

        def residuals():
            defect = tf.triangle if kind == "iso" else tf.delta
            return {
                "hyp_AB": mc.fro_norm(defect(A, B, mc.identity(A.dim), m)),
                "hyp_ST": mc.fro_norm(defect(S, T, mc.identity(S.dim), n)),
            }
    else:
        a, m = _iso_factor(rng, 1 + (seed // 2) % 2)
        n_exp = 1 + (seed // 4) % 2
        k2 = 1 + (seed // 8) % 2
        g = jordan_block(1.0, 2) if k2 == 2 else mc.identity(2)
        r = s_exp = 2 * k2 - 1
        A = OperatorTuple.of(mc.adjoint(a))
        B = OperatorTuple.of(a)
        S = OperatorTuple.of(mc.adjoint(g))
        T = OperatorTuple.of(g)
        params = {"variant": variant, "m": m, "n": n_exp, "r": r, "s": s_exp}

        def residuals():
            return {
                "hyp_AB": mc.fro_norm(tf.isosym_defect(A, B, mc.identity(A.dim), m, n_exp)),
                "hyp_S_iso": mc.fro_norm(tf.triangle(S, T, mc.identity(S.dim), r)),
                "hyp_S_sym": mc.fro_norm(tf.delta(S, T, mc.identity(S.dim), s_exp)),
            }

    return InstanceBundle(
        profile="thm07",
        seed=seed,
        tuples={"A": A, "B": B, "S": S, "T": T},
        matrices={},
        params=params,
        residual_fn=residuals,
    )


_BUILDERS = {
    "pro01": _build_pro01,
    "pro02-family": _build_pro02,
    "pro03": _build_pro03,
    "pro04": _build_pro04,
    "pro5": _build_pro5,
    "thm05": _build_thm05,
    "cor05": _build_cor05,
    "cor050": _build_cor050,
    "thm06": _build_thm06,
    "cor06": _build_cor06,
    "cor061": _build_cor061,
    "cor062": _build_cor062,
    "thm07": _build_thm07,
}

#: Profiles accepted by :func:`random_instance`; one per campaign family.
PROFILES = tuple(_BUILDERS)


def random_instance(profile: str, rng_seed: int) -> InstanceBundle:
    """Seeded, reproducible instance satisfying the named check's hypotheses exactly.

    Its matrices are read-only, as tuple components are, so the residuals
    computed on first read describe the instance as built.
    """
    if profile not in _BUILDERS:
        raise InvalidArgumentError(
            f"unknown profile {profile!r}; expected one of {sorted(_BUILDERS)}"
        )
    rng = np.random.default_rng(rng_seed)
    bundle = _BUILDERS[profile](rng, rng_seed)
    for X in bundle.matrices.values():
        X.setflags(write=False)
    return bundle
