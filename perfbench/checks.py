"""Correctness checks on the program's outputs, made apart from the program.

Each function takes the raw output of one command plus what the inputs were
built to satisfy, and returns a list of problems (empty when the output is
right).  Nothing here calls into ``isotuple``: campaign reports are checked
against the CLI contract and the report schema, ``check`` output against the
degrees the theory gives for the generated inputs and against a defect norm
recomputed in plain numpy through the Kronecker lift.
"""

from __future__ import annotations

import json
import re

import numpy as np

#: A budgeted campaign may overrun its budget by this much before it fails:
#: one trial in flight plus serializing a report of every requested seed.
BUDGET_SLACK_S = 0.1

#: Relative agreement asked of a defect norm against its Kronecker-lift value.
KRON_RTOL = 1e-8

# Reports are written with sort_keys and indent=2, so the envelope is one
# top-level block whose closing brace sits at indent 2.
_TIMESTAMP = re.compile(r'\n  "timestamp": \{.*?\n  \}', re.DOTALL)


def strip_timestamp(text: str) -> str | None:
    """The report text with its ``timestamp`` block blanked, or None if it has none."""
    stripped, count = _TIMESTAMP.subn('\n  "timestamp": {}', text)
    return stripped if count == 1 else None


def determinism_problems(first: str, again: str) -> list[str]:
    """An op repeated with identical arguments must repeat every byte outside ``timestamp``."""
    a, b = strip_timestamp(first), strip_timestamp(again)
    if a is None or b is None:
        return ["report has no single timestamp block"]
    if a != b:
        return ["repeated report differs outside timestamp"]
    return []


def campaign_problems(
    text: str,
    exit_code: int,
    theorem_id: str,
    trials: int,
    seed: int,
    budget_s: float | None = None,
    wall_s: float | None = None,
) -> list[str]:
    """Check one campaign report against the CLI contract and the report invariants.

    Without a budget the theorems are proven and every instance satisfies its
    hypotheses by construction, so the command exits 0 with no counterexample
    and no tolerance anomaly.  With a budget the command exits 3 with a partial
    report and must end within ``budget_s + BUDGET_SLACK_S``.
    """
    try:
        report = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []

    def want(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    want(report.get("schema_version") == "1", "schema_version is not '1'")
    want(report.get("theorem_id") == theorem_id, f"theorem_id is not {theorem_id}")
    want(report.get("requested_trials") == trials, f"requested_trials is not {trials}")
    want(report.get("seeds") == list(range(seed, seed + trials)), "seeds are not the requested ones")
    want(strip_timestamp(text) is not None, "report has no single timestamp block")
    counts = [report.get(k) for k in ("trials", "passes", "tolerance_anomalies", "skipped")]
    cex = report.get("counterexamples")
    if not all(isinstance(c, int) and c >= 0 for c in counts) or not isinstance(cex, list):
        return problems + ["counts are missing or not non-negative integers"]
    evaluated, passes, anomalies, skipped = counts
    want(passes + anomalies + len(cex) == evaluated, "passes + anomalies + counterexamples != trials")
    want(not cex, f"{len(cex)} counterexample(s) to a proven theorem")
    want(anomalies == 0, f"{anomalies} tolerance anomal(ies)")
    if budget_s is None:
        want(exit_code == 0, f"exit code {exit_code}, expected 0")
        want(report.get("budget_exceeded") is False, "budget_exceeded is not false")
        want(evaluated + skipped == trials, "trials + skipped != requested trials")
    else:
        want(exit_code == 3, f"exit code {exit_code}, expected 3")
        want(report.get("budget_exceeded") is True, "budget_exceeded is not true")
        want(evaluated + skipped < trials, "budget stop ran every requested trial")
        if wall_s is not None:
            want(
                wall_s <= budget_s + BUDGET_SLACK_S,
                f"took {wall_s:.3f} s on a {budget_s} s budget",
            )
    return problems


def kron_triangle_norm(A: list, B: list, X: np.ndarray, degree: int) -> float:
    """||(I - L)^degree vec(X)|| with the lift L = sum_i B_i^T (x) A_i on column-stacked X."""
    lift = sum(np.kron(b.T, a) for a, b in zip(A, B))
    v = X.flatten(order="F")
    for _ in range(degree):
        v = v - lift @ v
    return float(np.linalg.norm(v))


def check_problems(
    stdout: str,
    exit_code: int,
    iso_degree: int | None,
    sym_degree: int | None,
    m: int,
    n: int,
    kron_degree: int,
    kron_norm: float,
) -> list[str]:
    """Check ``check --json --m M --n N`` output against the exact degrees of its inputs."""
    if exit_code != 0:
        return [f"exit code {exit_code}, expected 0"]
    try:
        out = json.loads(stdout)
        profile = out["profile"]
        verdicts = out["verdicts"]
        commuting = out["commuting"]
    except (json.JSONDecodeError, KeyError, TypeError) as exc:
        return [f"output is not a check report: {exc!r}"]
    problems = []
    got = (profile.get("min_isometry_degree"), profile.get("min_symmetry_degree"))
    if got != (iso_degree, sym_degree):
        problems.append(f"minimal degrees (iso, sym) = {got}, exact {(iso_degree, sym_degree)}")
    if profile.get("isometry_anomalies") or profile.get("symmetry_anomalies"):
        problems.append("profile reports tolerance anomalies")
    expected_verdicts = {
        f"isometric at m={m}": iso_degree is not None and m >= iso_degree,
        f"symmetric at n={n}": sym_degree is not None and n >= sym_degree,
    }
    if verdicts != expected_verdicts:
        problems.append(f"verdicts {verdicts}, exact {expected_verdicts}")
    if commuting != {"A": True, "B": True}:
        problems.append(f"commuting {commuting}, expected both true")
    norms = profile.get("triangle_norms") or []
    if len(norms) <= kron_degree:
        problems.append(f"no triangle norm at degree {kron_degree}")
    elif abs(norms[kron_degree] - kron_norm) > KRON_RTOL * kron_norm:
        problems.append(
            f"|triangle^{kron_degree}| = {norms[kron_degree]!r}, Kronecker lift gives {kron_norm!r}"
        )
    return problems
