"""Tests of the benchmark's own checks: right outputs pass, planted wrong ones are rejected.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def report_text(theorem_id="thm05", requested=4, seed=10, **overrides) -> str:
    """A report laid out as the program writes it (sort_keys, indent=2)."""
    report = {
        "schema_version": "1",
        "theorem_id": theorem_id,
        "requested_trials": requested,
        "trials": requested,
        "passes": requested,
        "tolerance_anomalies": 0,
        "skipped": 0,
        "counterexamples": [],
        "sharpness_witnesses": [],
        "max_defect": 1e-15,
        "seeds": list(range(seed, seed + requested)),
        "budget_exceeded": False,
        "timestamp": {"generated_at": "2026-01-01T00:00:00+0000", "wall_time_s": 0.01},
    }
    report.update(overrides)
    return json.dumps(report, sort_keys=True, indent=2)


def check_output(iso=5, sym=None, m=5, n=5, norm2=3.0, **profile_overrides) -> str:
    profile = {
        "k_max": 12,
        "triangle_norms": [1.0, 2.0, norm2] + [0.0] * 10,
        "delta_norms": [1.0] * 13,
        "min_isometry_degree": iso,
        "min_symmetry_degree": sym,
        "scale": 1.0,
        "isometry_anomalies": [],
        "symmetry_anomalies": [],
    }
    profile.update(profile_overrides)
    verdicts = {
        f"isometric at m={m}": iso is not None and m >= iso,
        f"symmetric at n={n}": sym is not None and n >= sym,
    }
    return json.dumps({"profile": profile, "verdicts": verdicts,
                       "commuting": {"A": True, "B": True}}, indent=2)


def test_valid_campaign_report_passes():
    assert checks.campaign_problems(report_text(), 0, "thm05", 4, 10) == []


def test_counterexample_is_rejected():
    text = report_text(passes=3, counterexamples=[{"trial": 1, "seed": 11}])
    problems = checks.campaign_problems(text, 1, "thm05", 4, 10)
    assert any("counterexample" in p for p in problems)


@pytest.mark.parametrize(
    "overrides, exit_code",
    [
        ({"passes": 3, "tolerance_anomalies": 1}, 0),
        ({"passes": 2}, 0),
        ({"seeds": [10, 11, 12, 14]}, 0),
        ({"budget_exceeded": True}, 0),
        ({"trials": 3, "passes": 3}, 0),
        ({}, 3),
    ],
)
def test_broken_report_invariants_are_rejected(overrides, exit_code):
    assert checks.campaign_problems(report_text(**overrides), exit_code, "thm05", 4, 10)


def test_changed_byte_outside_timestamp_is_rejected():
    first = report_text()
    assert checks.determinism_problems(first, first.replace('"wall_time_s": 0.01', '"wall_time_s": 9.5')) == []
    changed = first.replace('"max_defect": 1e-15', '"max_defect": 2e-15')
    assert checks.determinism_problems(first, changed)


def test_overshot_budget_is_rejected():
    partial = report_text(trials=1, passes=1, budget_exceeded=True)
    kwargs = dict(theorem_id="thm05", trials=4, seed=10, budget_s=0.2)
    assert checks.campaign_problems(partial, 3, wall_s=0.25, **kwargs) == []
    problems = checks.campaign_problems(partial, 3, wall_s=2.5, **kwargs)
    assert any("budget" in p for p in problems)


def test_wrong_minimal_degree_is_rejected():
    args = dict(exit_code=0, iso_degree=5, sym_degree=None, m=5, n=5, kron_degree=2, kron_norm=3.0)
    assert checks.check_problems(check_output(), **args) == []
    assert checks.check_problems(check_output(iso=4, m=5), **args)
    assert checks.check_problems(check_output(sym=9), **args)
    assert checks.check_problems(check_output(isometry_anomalies=[7]), **args)
    assert checks.check_problems(check_output(norm2=3.0 + 1e-6), **args)


def test_kron_lift_matches_direct_iteration():
    rng = np.random.default_rng(0)
    n, d = 4, 2
    A = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(d)]
    B = [rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)) for _ in range(d)]
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Y = X
    for _ in range(3):
        Y = Y - sum(a @ Y @ b for a, b in zip(A, B))
    assert checks.kron_triangle_norm(A, B, X, 3) == pytest.approx(np.linalg.norm(Y), rel=1e-12)


@pytest.fixture
def cli():
    sys.path.insert(0, str(SRC))
    try:
        from isotuple import cli
        yield cli
    finally:
        sys.path.remove(str(SRC))


def run(cli, op) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(op.argv)
    return code, op.output(buf.getvalue())


def test_program_outputs_pass_and_sqrt_lambda_fails(cli, tmp_path):
    ops, _ = workloads.check_dim(3, tmp_path)
    for op in ops:
        code, output = run(cli, op)
        expected = (op.false_iso_degree is not None, [])
        assert op.judge(output, code, None) == expected, op.label
        assert op.judge(output, code, output) == expected, op.label
    campaign = workloads.CampaignOp("cor050", 3, 7, tmp_path / "r.json")
    first = run(cli, campaign)[1]
    code, again = run(cli, campaign)
    assert campaign.judge(again, code, first) == (False, [])


def test_sqrt_lambda_fails_only_for_its_false_degree(cli, tmp_path):
    ops, _ = workloads.check_dim(3, tmp_path)
    op = ops[-1]
    code, output = run(cli, op)
    exact = checks.check_problems(output, code, op.iso_degree, op.sym_degree, op.degree_arg,
                                  op.degree_arg, op.kron_degree, checks.kron_triangle_norm(
                                      op.A, op.B, op.X, op.kron_degree))
    assert len(exact) == 2
    assert exact[0].startswith(f"minimal degrees (iso, sym) = ({op.false_iso_degree}, 1)")
    assert exact[1].startswith(f"verdicts {{'isometric at m={op.degree_arg}': True")

    out = json.loads(output)
    out["profile"]["min_isometry_degree"] = None
    out["verdicts"][f"isometric at m={op.degree_arg}"] = False
    assert op.judge(json.dumps(out), code, None) == (False, []), "a threshold fix passes"

    out = json.loads(output)
    out["profile"]["min_symmetry_degree"] = 2
    failed, problems = op.judge(json.dumps(out), code, None)
    assert failed and problems, "any other symptom is a problem"
    failed, problems = op.judge(output, 1, None)
    assert failed and problems
    failed, problems = op.judge(output, code, output.replace("true", "false", 1))
    assert failed and "repeated check output differs" in problems
