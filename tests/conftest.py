import numpy as np
from hypothesis import settings

from isotuple.generators import commuting_from_seed
from isotuple.tuples import OperatorTuple

# the property tests draw the same examples on every run, so a failure reproduces
settings.register_profile("derandomized", derandomize=True)
settings.load_profile("derandomized")


def random_commuting_pair(seed: int, d: int, n: int, degree: int = 2):
    """Pair of internally commuting tuples: polynomials in one random seed matrix."""
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    M = M / np.linalg.norm(M)

    def draw_polys():
        return [
            [0.6 * complex(rng.standard_normal(), rng.standard_normal()) for _ in range(degree + 1)]
            for _ in range(d)
        ]

    A = commuting_from_seed(M, draw_polys())
    B = commuting_from_seed(M, draw_polys())
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X = X / np.linalg.norm(X)
    return A, B, X


def random_tuple(seed: int, d: int, n: int) -> OperatorTuple:
    A, _, _ = random_commuting_pair(seed, d, n)
    return A
