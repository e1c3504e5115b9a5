"""Workloads: the inputs each op gets, made from the workload seed, and how its output is checked.

A workload is a *round*: a fixed list of ops, each one CLI command.  A run
repeats whole rounds, so every run does the same mix of work whatever its
length, per-op call counts repeat exactly for a seed, and every op after the
first round is also a determinism check against its first output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

#: Trials per campaign op, chosen so that every op costs about 75 ms with the
#: default two-thread pool on the reference machine: per-trial cost differs
#: about 15x between ids, and a median over ops that far apart would land in
#: the gap between cost classes.  pro01 alternates two instance shapes by
#: seed parity, so its even count gives every seed block the same mix.
CAMPAIGN_TRIALS = {
    "pro01": 8,
    "pro02": 22,
    "pro03": 42,
    "pro04": 64,
    "pro5": 51,
    "thm05": 19,
    "cor05": 15,
    "cor050": 25,
    "thm06": 18,
    "cor06": 35,
    "cor061": 19,
    "cor062": 31,
    "thm07": 35,
    "ex00-golden": 212,
}

#: Tuple length of every ``check`` op, and matrix dimension of the sqrt(lambda) op.
CHECK_D = 3
CHECK_DIM = 32

#: (nilpotent index k, kind of lambda, dimension) of the Jordan-type ``check``
#: ops.  Dimensions 24-36 are well past the 2-4 of campaign instances, and the
#: largest Kronecker lift (1296 x 1296) is small enough to recompute a defect
#: norm independently.  The dimensions differ so that op costs are spread
#: (about 2x) rather than equal: the reference machine's speed flips between
#: two states about 1.5x apart, and over ops of equal cost the median latency
#: jumps between the two states' values with the share of the run spent in
#: each.  Measured spreads do not yet show a gain (see README.md).
CHECK_FAMILIES = ((2, "sign", 24), (3, "phase", 28), (4, "real", 36), (3, "sign", 32))

#: The scalar pair A = B = sqrt(lambda) I at X = I: its isometric defect
#: (1 - lambda)^k ||X|| never vanishes, yet the program reports degree 9.
SQRT_LAMBDA = 0.8
SQRT_LAMBDA_FALSE_DEGREE = 9


@dataclass
class CampaignOp:
    """``campaign --theorem ID --trials N --seed S --out F --quiet``."""

    theorem_id: str
    trials: int
    seed: int
    out: Path

    @property
    def label(self) -> str:
        return self.theorem_id

    @property
    def argv(self) -> list[str]:
        return ["campaign", "--theorem", self.theorem_id, "--trials", str(self.trials),
                "--seed", str(self.seed), "--out", str(self.out), "--quiet"]

    def output(self, stdout: str) -> str:
        return self.out.read_text()

    def judge(self, output: str, exit_code: int, first: str | None) -> tuple[bool, list[str]]:
        """(failed, problems): a campaign op fails exactly when it has a problem."""
        found = checks.campaign_problems(output, exit_code, self.theorem_id, self.trials, self.seed)
        if first is not None:
            found += checks.determinism_problems(first, output)
        return bool(found), found


@dataclass
class CheckOp:
    """``check --json --m M --n N`` on tuples and X written as JSON files."""

    label: str
    A: list
    B: list
    X: np.ndarray
    iso_degree: int | None
    sym_degree: int | None
    degree_arg: int
    kron_degree: int
    paths: tuple[Path, Path, Path]
    #: The false minimal isometric degree a named fault makes the program report.
    false_iso_degree: int | None = None
    _kron_norm: float | None = field(default=None, repr=False)

    @property
    def argv(self) -> list[str]:
        a, b, x = self.paths
        return ["check", "--json", "--m", str(self.degree_arg), "--n", str(self.degree_arg),
                "--tuple-a", str(a), "--tuple-b", str(b), "--x", str(x)]

    def write(self) -> None:
        a, b, x = self.paths
        a.write_text(json.dumps(_tuple_json(self.A)))
        b.write_text(json.dumps(_tuple_json(self.B)))
        x.write_text(json.dumps(_matrix_json(self.X)))

    def output(self, stdout: str) -> str:
        return stdout

    def judge(self, output: str, exit_code: int, first: str | None) -> tuple[bool, list[str]]:
        """(failed, problems).  Output showing exactly the named fault's symptom, the
        false isometric degree and the verdict that follows from it, fails with no
        problem; any other departure from the exact degrees is a problem."""
        if self._kron_norm is None:
            self._kron_norm = checks.kron_triangle_norm(self.A, self.B, self.X, self.kron_degree)
        repeat = [] if first is None or first == output else ["repeated check output differs"]

        def against(iso_degree: int | None) -> list[str]:
            return repeat + checks.check_problems(
                output, exit_code, iso_degree, self.sym_degree,
                self.degree_arg, self.degree_arg, self.kron_degree, self._kron_norm,
            )

        found = against(self.iso_degree)
        if found and self.false_iso_degree is not None and not against(self.false_iso_degree):
            return True, []
        return bool(found), found


def _matrix_json(M: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def _tuple_json(components: list) -> dict:
    n = components[0].shape[0]
    return {"dim": n, "d": len(components), "components": [_matrix_json(c) for c in components]}


def _shift_sum(n: int, k: int) -> np.ndarray:
    """Direct sum of upper shifts of index k (the last block may be shorter)."""
    N = np.zeros((n, n), dtype=np.complex128)
    for start in range(0, n, k):
        for i in range(start, min(start + k, n) - 1):
            N[i, i + 1] = 1.0
    return N


def _lambda(rng: np.random.Generator, kind: str) -> complex:
    sign = float(rng.choice([-1.0, 1.0]))
    if kind == "sign":
        return sign
    if kind == "phase":
        # |Im lambda| >= sin(pi/3) keeps the nonzero symmetric defects far above the threshold
        return complex(np.exp(1j * sign * rng.uniform(math.pi / 3, 2 * math.pi / 3)))
    low, high = (0.4, 0.6) if rng.random() < 0.5 else (1.5, 2.0)
    return sign * rng.uniform(low, high)


def _jordan_op(
    rng: np.random.Generator, index: int, k: int, kind: str, n: int, workdir: Path
) -> CheckOp:
    """A_i = w_i T*, B_i = w_i T with T = Q(lambda I + N)Q*, sum w_i^2 = 1.

    sigma is then X -> T* X T, whose exact isometric degree is 2k-1 when
    |lambda| = 1 (Bermudez-Martinon-Noda 2013) and none otherwise; the sum
    map is (sum w_i)(L_{T*} - R_T), of exact degree 2k-1 when lambda is real
    and none otherwise.
    """
    lam = _lambda(rng, kind)
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    T = Q @ (lam * np.eye(n) + _shift_sum(n, k)) @ Q.conj().T
    w = rng.uniform(0.5, 1.5, CHECK_D)
    w /= np.linalg.norm(w)
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    X /= np.linalg.norm(X)
    exact = 2 * k - 1
    return CheckOp(
        label=f"k{k}-{kind}-n{n}",
        A=[wi * T.conj().T for wi in w],
        B=[wi * T for wi in w],
        X=X,
        iso_degree=exact if kind == "sign" or kind == "phase" else None,
        sym_degree=exact if kind == "sign" or kind == "real" else None,
        degree_arg=exact,
        kron_degree=exact - 1,
        paths=tuple(workdir / f"op{index}-{part}.json" for part in ("a", "b", "x")),
    )


def _sqrt_lambda_op(index: int, workdir: Path) -> CheckOp:
    n = CHECK_DIM
    c = math.sqrt(SQRT_LAMBDA / CHECK_D)
    comps = [c * np.eye(n, dtype=np.complex128) for _ in range(CHECK_D)]
    return CheckOp(
        label="sqrt-lambda",
        A=comps,
        B=comps,
        X=np.eye(n, dtype=np.complex128),
        iso_degree=None,
        sym_degree=1,
        degree_arg=SQRT_LAMBDA_FALSE_DEGREE,
        kron_degree=1,
        paths=tuple(workdir / f"op{index}-{part}.json" for part in ("a", "b", "x")),
        false_iso_degree=SQRT_LAMBDA_FALSE_DEGREE,
    )


def campaign_mix(seed: int, workdir: Path) -> tuple[list, list]:
    """Every campaign id once per round, each with its own seed block."""
    rng = np.random.default_rng(seed)
    ops = [
        CampaignOp(tid, trials, int(rng.integers(0, 2**30)), workdir / f"{tid}.json")
        for tid, trials in CAMPAIGN_TRIALS.items()
    ]
    warm_up = [CampaignOp(tid, 2, 0, workdir / "warm-up.json") for tid in CAMPAIGN_TRIALS]
    return ops, warm_up


def check_dim(seed: int, workdir: Path) -> tuple[list, list]:
    """Four Jordan-type checks of known exact degree, then the sqrt(lambda) pair."""
    rng = np.random.default_rng(seed)
    ops = [_jordan_op(rng, i, k, kind, n, workdir) for i, (k, kind, n) in enumerate(CHECK_FAMILIES)]
    ops.append(_sqrt_lambda_op(len(ops), workdir))
    for op in ops:
        op.write()
    return ops, ops[:1]


WORKLOADS = {
    "campaign-mix": campaign_mix,
    "check-dim": check_dim,
}
