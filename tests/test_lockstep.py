"""A campaign's chunks give each trial the bits it gives alone.

``run_campaign`` checks up to ``LOCKSTEP_TRIALS`` trials together, in one call
of the id's column program, whose stages run each stack kernel once across
the chunk.  Here every theorem's chunks are compared with its ``check`` run
one trial at a time, on 200 seeds at the default tolerance and at a tight
one, where most ids skip some trials and several report anomalies.  Each path
gets instances of its own, so that neither reads spectral norms or powers
that the other computed.
"""

from __future__ import annotations

import pytest

from isotuple import matrix_core as mc
from isotuple import verify
from isotuple.errors import InvalidArgumentError
from isotuple.generators import InstanceBundle, random_instance

SEEDS = tuple(range(200))
TOLERANCES = (mc.DEFAULT_TOL, mc.Tolerance(abs_eps=0, rel_eps=1e-16))

#: pro01's Cesaro steps run one trial at a time alone and across the chunk in
#: its program's Cesaro stage; fewer of them keep the test fast.
T_MAX = 20


@pytest.mark.parametrize("theorem_id", verify.THEOREM_IDS)
def test_lockstep_chunks_equal_one_trial_at_a_time(theorem_id):
    entry = verify.THEOREMS[theorem_id]
    alone_bundles = [random_instance(entry.profile, seed) for seed in SEEDS]
    chunk_bundles = [random_instance(entry.profile, seed) for seed in SEEDS]
    size = verify.LOCKSTEP_TRIALS
    for tol in TOLERANCES:
        alone = [entry.check(bundle, tol, T_MAX) for bundle in alone_bundles]
        chunked = []
        for first in range(0, len(SEEDS), size):
            chunk = chunk_bundles[first : first + size]
            chunked += entry.program(chunk, tol, T_MAX)
        assert chunked == alone


def test_run_campaign_runs_unbudgeted_trials_in_capped_chunks(monkeypatch):
    sizes = []
    original = verify._run_chunk

    def recording(theorem_id, seeds, tol, t_max):
        sizes.append(len(seeds))
        return original(theorem_id, seeds, tol, t_max)

    monkeypatch.setattr(verify, "_run_chunk", recording)
    trials = 2 * verify.LOCKSTEP_TRIALS + 5
    report = verify.run_campaign(verify.CampaignConfig(theorem_id="pro04", trials=trials))
    assert sizes == [verify.LOCKSTEP_TRIALS, verify.LOCKSTEP_TRIALS, 5]
    assert report.passes + report.tolerance_anomalies + report.skipped == trials
    sizes.clear()
    budgeted = verify.CampaignConfig(theorem_id="pro04", trials=3, budget_s=60.0)
    assert verify.run_campaign(budgeted).trials == 3 and sizes == [1, 1, 1]


def test_an_error_in_one_body_aborts_the_chunk():
    # pro02 refuses a family that does not converge; its chunk does not swallow it
    good = random_instance("pro02-family", 0)
    tuples = dict(good.tuples)
    # declare the limit equal to the first member: residuals increase
    tuples["A_limit"], tuples["B_limit"] = tuples["A0"], tuples["B0"]
    broken = InstanceBundle(
        profile=good.profile, seed=0, tuples=tuples, matrices=good.matrices, params=good.params
    )
    with pytest.raises(InvalidArgumentError, match="family does not converge"):
        verify.THEOREMS["pro02"].program([good, broken], mc.DEFAULT_TOL, 200)
