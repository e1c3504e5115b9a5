"""Multi-index combinatorics: compositions and exact binomial/multinomial coefficients.

A multi-index is a tuple of non-negative integers.  Its order is the sum of
its entries.  Every weighted expansion in the defect transforms is driven by
the enumeration and coefficient functions below, so they are exact-integer
and deterministic: compositions are listed in lexicographic descending order,
and coefficients above ``COEFFICIENT_BOUND`` raise instead of silently losing
precision once converted to floating point.
"""

from __future__ import annotations

import math

from .errors import CoefficientOverflowError, InvalidArgumentError

MultiIndex = tuple[int, ...]

#: Largest coefficient we hand out. Anything representable below 2**63 keeps
#: integer exactness on every platform; comfortably covers m, j <= 30, d <= 6.
COEFFICIENT_BOUND = 2**63 - 1

#: Largest k whose binomial coefficients C(k, j) all stay within the bound (66):
#: every defect of a higher degree needs one that does not.
MAX_EXACT_DEGREE = max(k for k in range(128) if math.comb(k, k // 2) <= COEFFICIENT_BOUND)


def _validate_entries(alpha) -> MultiIndex:
    entries = tuple(alpha)
    if len(entries) < 1:
        raise InvalidArgumentError("multi-index must have at least one entry")
    for a in entries:
        if not isinstance(a, (int,)) or isinstance(a, bool) or a < 0:
            raise InvalidArgumentError(f"multi-index entries must be non-negative integers, got {a!r}")
    return entries


def index_factorial(alpha) -> int:
    """Product of the factorials of the entries."""
    result = 1
    for a in _validate_entries(alpha):
        result *= math.factorial(a)
    return result


def compositions(d: int, j: int) -> list[MultiIndex]:
    """All multi-indices of length ``d`` with order exactly ``j``.

    Listed in lexicographic descending order, e.g. (2,0), (1,1), (0,2) for
    d=2, j=2.  The count is C(j+d-1, d-1).
    """
    if not isinstance(d, int) or d < 1:
        raise InvalidArgumentError(f"d must be a positive integer, got {d!r}")
    if not isinstance(j, int) or j < 0:
        raise InvalidArgumentError(f"j must be a non-negative integer, got {j!r}")
    out: list[MultiIndex] = []

    def rec(prefix: list[int], remaining: int, slots: int) -> None:
        if slots == 1:
            out.append(tuple(prefix) + (remaining,))
            return
        for head in range(remaining, -1, -1):
            prefix.append(head)
            rec(prefix, remaining - head, slots - 1)
            prefix.pop()

    rec([], j, d)
    return out


def multinomial(j: int, alpha) -> int:
    """The coefficient j!/alpha! for a multi-index of order ``j``, exactly."""
    entries = _validate_entries(alpha)
    if not isinstance(j, int) or j < 0:
        raise InvalidArgumentError(f"j must be a non-negative integer, got {j!r}")
    if sum(entries) != j:
        raise InvalidArgumentError(
            f"multi-index order {sum(entries)} does not match j={j}"
        )
    result = math.factorial(j) // index_factorial(entries)
    if result > COEFFICIENT_BOUND:
        raise CoefficientOverflowError(
            f"multinomial({j}, {entries}) = {result} exceeds the exact-coefficient bound"
        )
    return result


def binomial(m: int, j: int) -> int:
    """C(m, j) with the convention C(m, j) = 0 for j > m, exactly."""
    if not isinstance(m, int) or m < 0:
        raise InvalidArgumentError(f"m must be a non-negative integer, got {m!r}")
    if not isinstance(j, int) or j < 0:
        raise InvalidArgumentError(f"j must be a non-negative integer, got {j!r}")
    if j > m:
        return 0
    result = math.comb(m, j)
    if result > COEFFICIENT_BOUND:
        raise CoefficientOverflowError(
            f"binomial({m}, {j}) = {result} exceeds the exact-coefficient bound"
        )
    return result
