"""Every trial result of every theorem id, hashed, against recorded hashes.

Each theorem id runs seeds 0-199 as a campaign does, in chunks of
``LOCKSTEP_TRIALS`` trials (``verify._run_chunk``), at the default tolerance
and at a tight one where most ids skip some trials and several report
anomalies.  The hash covers every field of every result, each float by its
bits (``float.hex``) and each dict in its key order, so a refactor that is
meant to keep results the same must keep these 26 hashes.  A change that
alters results on purpose records the new hashes and says why:

    PYTHONPATH=src python tests/test_trial_hashes.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import pytest

from isotuple import matrix_core as mc
from isotuple import verify

RECORDED = Path(__file__).parent / "data" / "trial_hashes.json"

SEEDS = tuple(range(200))
TOLERANCES = {"default": mc.DEFAULT_TOL, "tight": mc.Tolerance(abs_eps=0, rel_eps=1e-16)}


def _record(result: verify.TrialResult) -> list:
    return [
        result.status, result.reason,
        [[key, float(value).hex()] for key, value in result.defects.items()],
        [[key, float(value).hex()] for key, value in result.sharpness.items()],
        bool(result.is_sharp), float(result.conclusion).hex(),
    ]


def trial_hash(theorem_id: str, tolerance: str) -> str:
    """The sha256 of the results of one id's campaign over ``SEEDS``."""
    digest = hashlib.sha256()
    size = verify.LOCKSTEP_TRIALS
    for first in range(0, len(SEEDS), size):
        for result in verify._run_chunk(theorem_id, SEEDS[first : first + size], TOLERANCES[tolerance], 200):
            digest.update(json.dumps(_record(result)).encode())
    return digest.hexdigest()


def current_hashes() -> dict:
    return {f"{tid}/{tolerance}": trial_hash(tid, tolerance) for tid in verify.THEOREM_IDS for tolerance in TOLERANCES}


@pytest.fixture(scope="module")
def recorded() -> dict:
    return json.loads(RECORDED.read_text())


def test_hashes_cover_every_theorem_at_every_tolerance(recorded):
    assert sorted(recorded) == sorted(f"{tid}/{tol}" for tid in verify.THEOREM_IDS for tol in TOLERANCES)


@pytest.mark.parametrize("tolerance", sorted(TOLERANCES))
@pytest.mark.parametrize("theorem_id", verify.THEOREM_IDS)
def test_trial_results_hash_as_recorded(recorded, theorem_id, tolerance):
    assert trial_hash(theorem_id, tolerance) == recorded[f"{theorem_id}/{tolerance}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_trial_hashes.py --write")
    previous = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}
    hashes = current_hashes()
    RECORDED.write_text(json.dumps(hashes, indent=1) + "\n")
    print(f"wrote {RECORDED}")
    for key, value in hashes.items():
        if previous.get(key) != value:
            print(f"changed: {key}")
