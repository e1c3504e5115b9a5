"""Byte-identity of the program's output against a recorded fixture.

The fixture holds the JSON report of every campaign id at fixed seeds, with
its ``timestamp`` envelope removed, the output of ``repro-paper --json``, and
the JSON form of ``random_instance(profile, seed)`` for every generator
profile at a few fixed seeds.  No fixture campaign records a counterexample,
so the bundle section is what pins the bundles' residuals.
A change that is meant to keep outputs the same (a refactor, a speed-up) must
keep this test passing unchanged.  A change that alters outputs on purpose
regenerates the fixture and says why:

    PYTHONPATH=src python tests/test_output_identity.py --write
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import sys
from pathlib import Path

import pytest

from isotuple.cli import main
from isotuple.generators import PROFILES, random_instance
from isotuple.verify import CAMPAIGN_IDS

FIXTURE = Path(__file__).parent / "data" / "output_identity.json"

#: Trials per campaign id; id number i uses trial seeds SEED_STRIDE*i onwards.
TRIALS = 30
SEED_STRIDE = 1000

#: Bundle seeds; between them they set every variant bit the builders read
#: (seed parity, seed // 2 ... seed // 16, and seed % 3 for thm06).
BUNDLE_SEEDS = (0, 7, 29)

#: The wall-clock envelope of a report, which is never the last key.
_TIMESTAMP = re.compile(r'\n  "timestamp": \{[^{}]*\},')


def _stdout(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    assert code == 0, f"{argv} exited {code}"
    return buf.getvalue()


def campaign_output(index: int, theorem_id: str) -> str:
    """The report text of one campaign, without its timestamp."""
    argv = ["campaign", "--theorem", theorem_id, "--trials", str(TRIALS),
            "--seed", str(SEED_STRIDE * index), "--quiet"]
    text, count = _TIMESTAMP.subn("", _stdout(argv))
    assert count == 1, f"no timestamp envelope in the {theorem_id} report"
    return text


def bundle_output(profile: str, seed: int) -> str:
    """The JSON text of one generated bundle, residuals included."""
    return json.dumps(random_instance(profile, seed).to_json())


def current_outputs() -> dict:
    return {
        "bundle": {
            profile: {str(seed): bundle_output(profile, seed) for seed in BUNDLE_SEEDS}
            for profile in PROFILES
        },
        "campaign": {tid: campaign_output(i, tid) for i, tid in enumerate(CAMPAIGN_IDS)},
        "repro_paper_json": _stdout(["repro-paper", "--json"]),
    }


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(FIXTURE.read_text())


def test_fixture_covers_every_campaign_id(recorded):
    assert sorted(recorded["campaign"]) == sorted(CAMPAIGN_IDS)


@pytest.mark.parametrize("index,theorem_id", list(enumerate(CAMPAIGN_IDS)))
def test_campaign_report_matches_fixture(recorded, index, theorem_id):
    assert campaign_output(index, theorem_id) == recorded["campaign"][theorem_id]


@pytest.mark.parametrize("profile", PROFILES)
@pytest.mark.parametrize("seed", BUNDLE_SEEDS)
def test_bundle_json_matches_fixture(recorded, profile, seed):
    assert bundle_output(profile, seed) == recorded["bundle"][profile][str(seed)]


def test_repro_paper_json_matches_fixture(recorded):
    assert _stdout(["repro-paper", "--json"]) == recorded["repro_paper_json"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_output_identity.py --write")
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(current_outputs(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
