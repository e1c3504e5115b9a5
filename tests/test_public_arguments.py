"""Public functions refuse an argument of the wrong kind with the package's error, naming
the argument: a bool where a count goes (a bool is an int to ``isinstance``), a float
where an integer goes, a negative seed, or a value that is not a number.  One row per
case; a new count parameter is one more row."""

import re

import numpy as np
import pytest

from isotuple import generators
from isotuple.errors import InvalidArgumentError
from isotuple.generators import (
    commuting_from_seed,
    jordan_isometric,
    jordan_symmetric,
    nilpotent_commuting,
    random_instance,
)
from isotuple.tuples import OperatorTuple, nilpotency_order, power_tuple, scalar_tuple

N = OperatorTuple.of(np.array([[0, 1], [0, 0]]))

#: (call, the exact message, or the message's start when it ends with "...")
CASES = [
    (lambda: nilpotency_order(N, True), "max_order must be a positive integer, got True"),
    (lambda: power_tuple(N, True), "power must be a positive integer, got True"),
    (lambda: scalar_tuple(1, True, 2), "scalar_tuple needs integers d >= 1 and n >= 1, got True, 2"),
    (lambda: scalar_tuple(1, 2, True), "scalar_tuple needs integers d >= 1 and n >= 1, got 2, True"),
    (lambda: nilpotent_commuting(4, 2, True, 0), "target_order must be a positive integer, got True"),
    (lambda: nilpotent_commuting(4, True, 2, 0), "d must be an integer, got True"),
    (lambda: nilpotent_commuting(4, 2.0, 2, 0), "d must be an integer, got 2.0"),
    (lambda: nilpotent_commuting(2.5, 2, 2, 0), "n must be an integer, got 2.5"),
    (lambda: nilpotent_commuting(4, 2, 2, -1), "rng_seed must be a non-negative integer, got -1"),
    (lambda: nilpotent_commuting(4, 2, 2, True), "rng_seed must be a non-negative integer, got True"),
    (lambda: random_instance("thm05", True), "seed must be a non-negative integer, got True"),
    (lambda: jordan_isometric(1, 2.0), "block size k must be an integer, got 2.0"),
    (lambda: generators.jordan_block(1.0, True), "block size k must be an integer, got True"),
    (lambda: jordan_symmetric("a", 2), "lambda must be a number, got 'a'"),
    (lambda: jordan_isometric("1", 2), "lambda must be a number, got '1'"),
    (lambda: commuting_from_seed(np.eye(2), [["a"]]), "coefficients is not an array of complex numbers: ..."),
]


@pytest.mark.parametrize("call, message", CASES)
def test_public_function_refuses_the_argument_by_name(call, message):
    pattern = re.escape(message.removesuffix("...")) + ("" if message.endswith("...") else "$")
    with pytest.raises(InvalidArgumentError, match="^" + pattern):
        call()
