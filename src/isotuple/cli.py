"""Batch entry point: golden reproduction, tuple classification, check campaigns.

Exit codes, stable across versions:

* 0 success
* 1 golden or campaign failure
* 2 usage / parse error
* 3 campaign budget exhausted (partial report written)

NumPy's overflow and invalid-value warnings are silenced while a command
runs: on hostile input, the refusal that follows an overflow (a non-finite
sigma iterate, an overflowing tolerance scale) exits 2 with its own message,
and the warnings would only print library source lines before it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import classify, matrix_core as mc, transforms as tf, verify
from .errors import InvalidArgumentError, IsotupleError
from .generators import paper_example_mixing, paper_example_squares
from .tuples import (
    OperatorTuple,
    PowerConvention,
    commutes_within,
    inverse_tuple,
    power_tuple,
)

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

SQUARE_CONVENTION_NOTE = (
    "note: the squared-tuple computation is convention-dependent: the all-words "
    "square of the balanced pair stays degree-1 isometric, while the componentwise "
    "square has defect 2^-m at every degree m; both are reported."
)


def _golden_checks(golden: dict):
    """The golden suite: every frozen value of the built-in 2x2 examples."""
    T, A0, U, S = paper_example_mixing()
    pair_t = (OperatorTuple.of(mc.adjoint(T)), OperatorTuple.of(T))
    pair_s = (OperatorTuple.of(mc.adjoint(S)), OperatorTuple.of(S))
    A_sq, B_sq = paper_example_squares()
    eye = mc.identity(2)

    checks = []

    def add(name, diff, limit=1e-12):
        checks.append({"name": name, "max_abs_diff": float(diff), "passed": bool(diff <= limit)})

    add("mixing/triangle2_T_zero", mc.fro_norm(tf.triangle(pair_t[0], pair_t[1], A0, 2)))
    add(
        "mixing/S_A0_S",
        mc.max_abs_diff(mc.adjoint(S) @ A0 @ S, mc.matrix_from_json(golden["S_A0_S"])),
    )
    add(
        "mixing/S2_A0_S2",
        mc.max_abs_diff(
            mc.adjoint(S) @ mc.adjoint(S) @ A0 @ S @ S,
            mc.matrix_from_json(golden["S2_A0_S2"]),
        ),
    )
    tri_s = tf.triangle(pair_s[0], pair_s[1], A0, 2)
    add("mixing/triangle2_S_value", mc.max_abs_diff(tri_s, mc.matrix_from_json(golden["triangle2_S"])))
    add("mixing/triangle2_S_norm_gt_1", 0.0 if mc.fro_norm(tri_s) > 1.0 else 1.0)

    add("squares/base_1_isometric", mc.fro_norm(tf.triangle(A_sq, B_sq, eye, 1)))
    inv_a = inverse_tuple(A_sq)
    inv_b = inverse_tuple(B_sq)
    worst = 0.0
    for m in range(1, 7):
        defect = tf.triangle(inv_a, inv_b, eye, m)
        expected = (-3.0) ** m * eye
        worst = max(worst, mc.max_abs_diff(defect, expected) / abs((-3.0) ** m))
    add("squares/inverse_growth_(-3)^m", worst, limit=1e-9)
    word_a = power_tuple(A_sq, 2, PowerConvention.WORD)
    word_b = power_tuple(B_sq, 2, PowerConvention.WORD)
    add("squares/word_square_1_isometric", mc.fro_norm(tf.triangle(word_a, word_b, eye, 1)))
    comp_a = power_tuple(A_sq, 2, PowerConvention.COMPONENTWISE)
    comp_b = power_tuple(B_sq, 2, PowerConvention.COMPONENTWISE)
    worst = 0.0
    for m in range(1, 7):
        defect = tf.triangle(comp_a, comp_b, eye, m)
        worst = max(worst, mc.max_abs_diff(defect, 2.0 ** (-m) * eye) / 2.0 ** (-m))
    add("squares/componentwise_square_2^-m", worst, limit=1e-9)
    return checks


def _golden_matrices() -> dict:
    return {
        "S_A0_S": [[[1, 0], [1, 0]], [[1, 0], [1, 0]]],
        "S2_A0_S2": [[[1, 0], [1, -1]], [[1, 1], [2, 0]]],
        "triangle2_S": [[[-1, 0], [-1, -1]], [[-1, 1], [1, 0]]],
    }


def _cmd_repro_paper(args) -> int:
    golden = _golden_matrices()
    if args.golden:
        try:
            golden.update(json.loads(Path(args.golden).read_text()))
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: cannot read golden file: {exc}", file=sys.stderr)
            return EXIT_USAGE
    checks = _golden_checks(golden)
    all_passed = all(c["passed"] for c in checks)
    if args.json:
        print(json.dumps({"checks": checks, "all_passed": all_passed, "note": SQUARE_CONVENTION_NOTE}, indent=2))
    else:
        width = max(len(c["name"]) for c in checks)
        for c in checks:
            mark = "PASS" if c["passed"] else "FAIL"
            print(f"{c['name']:<{width}}  {mark}  max_abs_diff={c['max_abs_diff']:.3e}")
        print(SQUARE_CONVENTION_NOTE)
        if not all_passed:
            for c in checks:
                if not c["passed"]:
                    print(f"mismatch in {c['name']}: max abs diff {c['max_abs_diff']:.6e}")
    return EXIT_OK if all_passed else EXIT_FAILURE


def _load_tuple(path: str) -> OperatorTuple:
    data = json.loads(Path(path).read_text())
    return OperatorTuple.from_json(data)


def _load_matrix(path: str):
    return mc.matrix_from_json(json.loads(Path(path).read_text()))


def _tolerance(args) -> mc.Tolerance:
    if getattr(args, "tol", None) is None:
        return mc.DEFAULT_TOL
    return mc.Tolerance(abs_eps=mc.DEFAULT_TOL.abs_eps, rel_eps=float(args.tol))


def _cmd_check(args) -> int:
    tol = _tolerance(args)
    A = _load_tuple(args.tuple_a)
    B = _load_tuple(args.tuple_b)
    X = _load_matrix(args.x)
    commuting = {"A": commutes_within(A, tol), "B": commutes_within(B, tol)}
    for name, ok in commuting.items():
        if not ok:
            # lax mode: defects are still well-defined binomial sums
            print(f"warning: tuple {name} does not commute within tolerance", file=sys.stderr)
    profile = classify.defect_profile(A, B, X, k_max=args.k_max, tol=tol)
    # a degree the profile scanned is judged there, by the same norm and threshold
    verdicts = {}
    if args.m is not None:
        verdicts[f"isometric at m={args.m}"] = (
            profile.isometric_at(args.m)
            if 0 <= args.m <= profile.k_max
            else classify.is_isometric(A, B, X, args.m, tol)
        )
    if args.n is not None:
        verdicts[f"symmetric at n={args.n}"] = (
            profile.symmetric_at(args.n)
            if 0 <= args.n <= profile.k_max
            else classify.is_symmetric(A, B, X, args.n, tol)
        )
    if args.json:
        print(
            json.dumps(
                {"profile": profile.to_json(), "verdicts": verdicts, "commuting": commuting},
                indent=2,
            )
        )
        return EXIT_OK
    print(f"{'k':>3}  {'|triangle^k|':>14}  {'|delta^k|':>14}")
    for k in range(profile.k_max + 1):
        print(f"{k:>3}  {profile.triangle_norms[k]:>14.6e}  {profile.delta_norms[k]:>14.6e}")
    iso = profile.min_isometry_degree
    sym = profile.min_symmetry_degree
    print(f"min isometry degree: {iso if iso is not None else f'none <= {profile.k_max}'}")
    print(f"min symmetry degree: {sym if sym is not None else f'none <= {profile.k_max}'}")
    for label, value in verdicts.items():
        print(f"{label}: {str(value).lower()}")
    return EXIT_OK


def _cmd_min_degree(args) -> int:
    A = _load_tuple(args.tuple_a)
    B = _load_tuple(args.tuple_b)
    X = _load_matrix(args.x)
    profile = classify.defect_profile(A, B, X, k_max=args.k_max)
    iso = profile.min_isometry_degree
    sym = profile.min_symmetry_degree
    sym_text = str(sym) if sym is not None else f"none <= {args.k_max}"
    iso_text = str(iso) if iso is not None else f"none <= {args.k_max}"
    print(f"symmetry: {sym_text}, isometry: {iso_text}")
    return EXIT_OK


def _merge_config(args) -> dict:
    settings = {}
    if args.config:
        try:
            settings = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise InvalidArgumentError(f"cannot read config file: {exc}")
        if not isinstance(settings, dict):
            raise InvalidArgumentError(
                f"config file must hold a JSON object, got {type(settings).__name__}"
            )
    merged = {
        "theorem": args.theorem if args.theorem is not None else settings.get("theorem"),
        "trials": args.trials if args.trials is not None else settings.get("trials", 20),
        "seed": args.seed if args.seed is not None else settings.get("seed", 0),
        "budget": args.budget if args.budget is not None else settings.get("budget"),
        "out": args.out if args.out is not None else settings.get("out"),
        "csv": args.csv if args.csv is not None else settings.get("csv"),
        "tol": args.tol if args.tol is not None else settings.get("tol"),
    }
    if merged["theorem"] is None:
        raise InvalidArgumentError("campaign needs --theorem (or a config file with one)")
    return merged


def _number(merged: dict, key: str, kind: type):
    """``kind(merged[key])``; a value that is not a number is a usage error."""
    try:
        return kind(merged[key])
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{key} must be a number, got {merged[key]!r}") from exc


def _cmd_campaign(args) -> int:
    merged = _merge_config(args)
    tol = mc.DEFAULT_TOL
    if merged["tol"] is not None:
        tol = mc.Tolerance(abs_eps=mc.DEFAULT_TOL.abs_eps, rel_eps=_number(merged, "tol", float))
    config = verify.CampaignConfig(
        theorem_id=merged["theorem"],
        trials=_number(merged, "trials", int),
        seed=_number(merged, "seed", int),
        tol=tol,
        budget_s=_number(merged, "budget", float) if merged["budget"] is not None else None,
    )
    report = verify.run_campaign(config)
    payload = verify.report_to_json_str(report)
    if merged["out"]:
        Path(merged["out"]).write_text(payload + "\n")
    else:
        print(payload)
    if merged["csv"]:
        Path(merged["csv"]).write_text(
            verify.CampaignReport.csv_header() + "\n" + report.to_csv_row() + "\n"
        )
    if not args.quiet and merged["out"]:
        print(
            f"{report.theorem_id}: trials={report.trials} passes={report.passes} "
            f"anomalies={report.tolerance_anomalies} skipped={report.skipped} "
            f"counterexamples={len(report.counterexamples)}"
        )
    if report.budget_exceeded:
        return EXIT_BUDGET
    return EXIT_OK if not report.counterexamples else EXIT_FAILURE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isotuple",
        description="Verify isometric/symmetric defect identities of commuting matrix tuples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_repro = sub.add_parser("repro-paper", help="run the golden example suite")
    p_repro.add_argument("--json", action="store_true", help="machine-readable report")
    p_repro.add_argument("--golden", help="override the golden matrices with a JSON file")
    p_repro.set_defaults(func=_cmd_repro_paper)

    p_check = sub.add_parser("check", help="classify a supplied pair of tuples")
    p_check.add_argument("--tuple-a", required=True)
    p_check.add_argument("--tuple-b", required=True)
    p_check.add_argument("--x", required=True)
    p_check.add_argument("--m", type=int)
    p_check.add_argument("--n", type=int)
    p_check.add_argument("--tol", type=float, help="relative tolerance (default 1e-8)")
    p_check.add_argument("--k-max", type=int, default=12)
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(func=_cmd_check)

    p_camp = sub.add_parser("campaign", help="run a randomized check campaign")
    p_camp.add_argument("--theorem", help=f"one of {', '.join(verify.CAMPAIGN_IDS)}")
    p_camp.add_argument("--trials", type=int)
    p_camp.add_argument("--seed", type=int)
    p_camp.add_argument("--budget", type=float, help="wall-clock budget in seconds")
    p_camp.add_argument("--out", help="write the JSON report here instead of stdout")
    p_camp.add_argument("--csv", help="also write a one-line CSV summary here")
    p_camp.add_argument("--tol", type=float, help="relative tolerance (default 1e-8)")
    p_camp.add_argument("--config", help="JSON config file; flags override its keys")
    p_camp.add_argument("--quiet", action="store_true")
    p_camp.set_defaults(func=_cmd_campaign)

    p_min = sub.add_parser("min-degree", help="minimal isometry/symmetry degrees")
    p_min.add_argument("--tuple-a", required=True)
    p_min.add_argument("--tuple-b", required=True)
    p_min.add_argument("--x", required=True)
    p_min.add_argument("--k-max", type=int, default=12)
    p_min.set_defaults(func=_cmd_min_degree)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IsotupleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
