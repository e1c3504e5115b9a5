"""Benchmark of the isotuple CLI: one closed-loop client, one workload per process.

    python3 perfbench/run.py --workload campaign-mix --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from its
``src`` directory, never from an installed copy.  The client calls
``isotuple.cli.main`` in-process, one command at a time, with the program's
default settings (``ISOTUPLE_THREADS`` is removed from the environment).
It repeats whole rounds of the workload's ops until ``--seconds`` have passed,
checks every output, and prints one
JSON object as its last line: with ``--trace 0`` the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run.  Full results,
and the spans of the latest traced run's first round, go to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: Set-up (importing the program, generating the inputs and the warm-up) is
#: timed this many times per run, each in a fresh interpreter, and its median
#: reported.  The set-ups are spread evenly over the run, so that they sample
#: the machine's speed across it rather than in one moment.
SETUP_REPEATS = 5


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program():
    """Import ``isotuple`` from this checkout's ``src``; exit with an error when it is not there."""
    if not (SRC / "isotuple" / "__init__.py").is_file():
        sys.exit(f"error: no isotuple sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    os.environ.pop("ISOTUPLE_THREADS", None)
    from isotuple import cli

    if Path(cli.__file__).resolve().parent != SRC / "isotuple":
        sys.exit(f"error: imported isotuple from {cli.__file__}, not from {SRC}")
    return cli


def setup_seconds(args: argparse.Namespace) -> float:
    """Time one cold set-up in a fresh interpreter (``--setup-only``)."""
    argv = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", "0", "--setup-only"]
    return float(subprocess.run(argv, capture_output=True, text=True, check=True).stdout)


def run_op(cli, op) -> tuple[int, str, float]:
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(op.argv)
    return code, buf.getvalue(), time.perf_counter() - start


def main(argv=None) -> int:
    args = parse_args(argv)
    setup_start = time.perf_counter()
    cli = import_program()
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    build = workloads.WORKLOADS[args.workload]
    workdir = STATE / f"work-{os.getpid()}"
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        ops, warm_up = build(args.seed, workdir)
        for op in warm_up:
            run_op(cli, op)
        if args.setup_only:
            print(time.perf_counter() - setup_start)
            return 0
        tracer = tracing.Tracer() if args.trace else None
        if tracer:
            tracer.install()
            tracer.record_spans = True
        samples = []  # (op index in round, exit code, output, wall s)
        setups = []
        start = time.perf_counter()
        deadline = start + args.seconds
        while True:
            if len(setups) < SETUP_REPEATS and (
                time.perf_counter() >= start + len(setups) * args.seconds / SETUP_REPEATS
            ):
                # set-up time is not measured time: the run is lengthened by it
                before = time.perf_counter()
                setups.append(setup_seconds(args))
                spent = time.perf_counter() - before
                start += spent
                deadline += spent
            for i, op in enumerate(ops):
                if tracer:
                    tracer.op = len(samples)
                code, stdout, wall = run_op(cli, op)
                samples.append((i, code, op.output(stdout), wall))
            if tracer:
                tracer.record_spans = False
            if time.perf_counter() >= deadline:
                break
        if tracer:
            tracer.uninstall()
        while len(setups) < SETUP_REPEATS:
            setups.append(setup_seconds(args))
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        first: dict[int, str] = {}
        latencies, problems = [], []  # a failed op counts as infinitely slow
        for i, code, output, wall in samples:
            op = ops[i]
            failed, found = op.judge(output, code, first.get(i))
            first.setdefault(i, output)
            latencies.append(math.inf if failed else wall)
            if found:
                problems.append(f"{op.label}: {'; '.join(found)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = latencies.count(math.inf)
    busy_s = sum(s[3] for s in samples)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": ((len(samples) - failed) / busy_s, "ops/s"),
        "op_ms.p50": (statistics.median(latencies) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    per_layer = {}
    if tracer:
        per_layer = {
            name: (value, "count" if name.endswith(".calls") else "ms")
            for name, value in tracer.per_op(len(samples)).items()
        }
    shown = per_layer if tracer else end_to_end
    result = {
        "correct": not problems,
        "attempted": len(samples),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in shown.items()},
    }
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = dict(
        result,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        rounds=len(samples) // len(ops),
        ops_per_round=[op.label for op in ops],
        end_to_end={name: {"value": v, "unit": u} for name, (v, u) in end_to_end.items()},
        per_layer={name: {"value": v, "unit": u} for name, (v, u) in per_layer.items()},
        op_ms_by_label={
            op.label: statistics.median(s[3] for s in samples if s[0] == i) * 1e3
            for i, op in enumerate(ops)
        },
        setup_runs_s=setups,
        problems=problems[:20],
    )
    (results / f"{tag}.json").write_text(json.dumps(detail, indent=2) + "\n")
    if tracer:
        spans = [dict(zip(("id", "parent", "op", "name", "start", "end", "thread"), s))
                 for s in tracer.spans]
        (results / f"{args.workload}-spans.json").write_text(json.dumps(spans) + "\n")
    for line in problems[:5]:
        print(f"problem: {line}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
