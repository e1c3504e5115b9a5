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
import functools
import json
import sys
from pathlib import Path

import numpy as np

from . import classify, matrix_core as mc, verify
from .errors import InvalidArgumentError, IsotupleError
from .multiindex import MAX_EXACT_DEGREE
from .tuples import OperatorTuple, commutes_within

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

SQUARE_CONVENTION_NOTE = (
    "note: the squared-tuple computation is convention-dependent: the all-words "
    "square of the balanced pair stays degree-1 isometric, while the componentwise "
    "square has defect 2^-m at every degree m; both are reported."
)


def _read_json(path):
    """The JSON value in the file at ``path``.  Text that ``json.loads`` cannot decode,
    including text nested deeper than the recursion limit and an integer literal
    too long to convert, is refused with the decoder's message."""
    text = Path(path).read_text()
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError is a ValueError
        raise InvalidArgumentError(str(exc)) from None


def _cmd_repro_paper(args) -> int:
    golden = {}
    if args.golden:
        try:
            golden = _read_json(args.golden)
        except (OSError, InvalidArgumentError) as exc:
            print(f"error: cannot read golden file: {exc}", file=sys.stderr)
            return EXIT_USAGE
        if not isinstance(golden, dict):
            raise InvalidArgumentError(
                f"golden file must hold a JSON object, got {type(golden).__name__}"
            )
    checks = verify.golden_suite(golden)
    all_passed = all(c["passed"] for c in checks)
    if args.json:
        print(json.dumps({"checks": checks, "all_passed": all_passed, "note": SQUARE_CONVENTION_NOTE}, indent=2))
    else:
        width = max(len(c["name"]) for c in checks)
        for c in checks:
            mark = "PASS" if c["passed"] else "FAIL"
            print(f"{c['name']:<{width}}  {mark}  max_abs_diff={c['max_abs_diff']:.3e}")
        print(SQUARE_CONVENTION_NOTE)
        for c in checks:
            if not c["passed"]:
                print(f"mismatch in {c['name']}: max abs diff {c['max_abs_diff']:.6e}")
    return EXIT_OK if all_passed else EXIT_FAILURE


def _load_inputs(args) -> tuple[OperatorTuple, OperatorTuple, np.ndarray]:
    """The tuples and the matrix named by --tuple-a, --tuple-b and --x, read in that order."""
    return (
        OperatorTuple.from_json(_read_json(args.tuple_a)),
        OperatorTuple.from_json(_read_json(args.tuple_b)),
        mc.matrix_from_json(_read_json(args.x)),
    )


def _tolerance(rel_eps: float | None) -> mc.Tolerance:
    """The default tolerance, or its absolute floor with the given relative part."""
    if rel_eps is None:
        return mc.DEFAULT_TOL
    return mc.Tolerance(abs_eps=mc.DEFAULT_TOL.abs_eps, rel_eps=rel_eps)


def _require_exact_degrees(args, *flags: str) -> None:
    """Refuse a degree flag above ``MAX_EXACT_DEGREE`` before any defect is computed:
    every defect of that degree needs a binomial coefficient past the exact bound."""
    for flag in flags:
        degree = getattr(args, flag[2:].replace("-", "_"))
        if degree is not None and degree > MAX_EXACT_DEGREE:
            raise InvalidArgumentError(
                f"{flag} {degree} exceeds {MAX_EXACT_DEGREE}, the largest degree whose "
                "binomial coefficients stay within the exact-coefficient bound"
            )


def _degree_text(degree: int | None, k_max: int) -> str:
    return str(degree) if degree is not None else f"none <= {k_max}"


def _cmd_check(args) -> int:
    _require_exact_degrees(args, "--k-max", "--m", "--n")
    tol = _tolerance(args.tol)
    A, B, X = _load_inputs(args)
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
    print(f"min isometry degree: {_degree_text(profile.min_isometry_degree, profile.k_max)}")
    print(f"min symmetry degree: {_degree_text(profile.min_symmetry_degree, profile.k_max)}")
    for label, value in verdicts.items():
        print(f"{label}: {str(value).lower()}")
    return EXIT_OK


def _cmd_min_degree(args) -> int:
    _require_exact_degrees(args, "--k-max")
    profile = classify.defect_profile(*_load_inputs(args), k_max=args.k_max)
    iso_text = _degree_text(profile.min_isometry_degree, args.k_max)
    sym_text = _degree_text(profile.min_symmetry_degree, args.k_max)
    print(f"symmetry: {sym_text}, isometry: {iso_text}")
    return EXIT_OK


#: Campaign settings and their defaults; a flag overrides the config file's key.
_CAMPAIGN_DEFAULTS = dict(theorem=None, trials=20, seed=0, budget=None, out=None, csv=None, tol=None)


def _merge_config(args) -> dict:
    settings = {}
    if args.config:
        try:
            settings = _read_json(args.config)
        except (OSError, InvalidArgumentError) as exc:
            raise InvalidArgumentError(f"cannot read config file: {exc}")
        if not isinstance(settings, dict):
            raise InvalidArgumentError(
                f"config file must hold a JSON object, got {type(settings).__name__}"
            )
        unknown = [key for key in settings if key not in _CAMPAIGN_DEFAULTS]
        if unknown:
            raise InvalidArgumentError(f"unknown config key {unknown[0]!r}; known keys: {', '.join(_CAMPAIGN_DEFAULTS)}")
    merged = {
        key: getattr(args, key) if getattr(args, key) is not None else settings.get(key, default)
        for key, default in _CAMPAIGN_DEFAULTS.items()
    }
    if merged["theorem"] is None:
        raise InvalidArgumentError("campaign needs --theorem (or a config file with one)")
    # the report is written after every trial has run, so a bad path is refused first
    for key in ("out", "csv"):
        if merged[key] is not None and not isinstance(merged[key], str):
            raise InvalidArgumentError(f"{key} must be a file path, got {merged[key]!r}")
        if merged[key] and (Path(merged[key]).is_dir() or not Path(merged[key]).parent.is_dir()):
            problem = "is a directory" if Path(merged[key]).is_dir() else "names no existing directory"
            raise InvalidArgumentError(f"{key} path {merged[key]!r} {problem}")
    return merged


def _number(merged: dict, key: str, kind: type):
    """``kind(merged[key])``; a value that is not a number (true in a config file,
    which ``float`` reads as 1.0, or a string such as "1e-8", which it parses), or
    for ``int`` not an integer (2.7 or true), is a usage error."""
    value = merged[key]
    try:
        number = kind(value)
    except (TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"{key} must be a number, got {value!r}") from exc
    if kind is int and type(value) is not int:
        raise InvalidArgumentError(f"{key} must be an integer, got {value!r}")
    if isinstance(value, (bool, str)):
        raise InvalidArgumentError(f"{key} must be a number, got {value!r}")
    return number


def _cmd_campaign(args) -> int:
    merged = _merge_config(args)
    tol = _tolerance(_number(merged, "tol", float) if merged["tol"] is not None else None)
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


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; each ``parse_args`` call returns
    a fresh namespace."""
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
    except (OSError, InvalidArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IsotupleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
