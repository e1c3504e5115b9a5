import json
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from isotuple import matrix_core as mc
from isotuple import transforms as tf
from isotuple import verify
from isotuple.errors import InvalidArgumentError
from isotuple.generators import (
    InstanceBundle,
    jordan_block,
    random_instance,
    upper_shift,
)
from isotuple.tuples import (
    OperatorTuple,
    adjoint_tuple,
    conj_tuple,
    max_commutator_cross,
    max_commutator_within,
    scalar_tuple,
)
from isotuple.verify import (
    CampaignConfig,
    CampaignReport,
    TrialResult,
    check_cor050,
    check_cor061,
    check_cor062,
    check_ex00_golden,
    check_pro01,
    check_pro02,
    check_pro03,
    check_pro04,
    check_pro5,
    check_thm05,
    check_thm06,
    check_thm07,
    run_campaign,
)


def test_pro01_jordan_instance_passes_decay_band():
    bundle = random_instance("pro01", 0)  # jordan variant
    result = check_pro01(bundle, t_max=500)
    assert result.status == "pass"
    assert result.defects["cesaro_error"] <= result.defects["cesaro_error_threshold"]


def test_pro01_invertible_instance_confirms_collapse():
    bundle = random_instance("pro01", 1)  # invertible unitary variant
    result = check_pro01(bundle, t_max=200)
    assert result.status == "pass"
    assert result.defects["sigma_invertible"] == 1.0
    assert result.defects["collapse_defect"] < 1e-9


def test_pro01_skips_non_isometric_input():
    A = scalar_tuple(2.0, 1, 2)
    bundle = InstanceBundle(
        profile="pro01",
        seed=0,
        tuples={"A": A, "B": A},
        matrices={"X": np.eye(2)},
        params={"m": 2},
    )
    result = check_pro01(bundle, t_max=50)
    assert result.status == "skip"


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("t_max", [3, 50, 200])
def test_pro01_applies_sigma_t_max_times(monkeypatch, seed, t_max):
    # degrees 0..m, the constant C and the Cesaro errors share one run of iterates
    applied = []
    original = tf._sigma

    def counting(A, B, Y):
        applied.append(1)
        return original(A, B, Y)

    bundle = random_instance("pro01", seed)
    monkeypatch.setattr(tf, "_sigma", counting)
    assert check_pro01(bundle, t_max=t_max).status == "pass"
    assert len(applied) == t_max


def test_pro02_exact_family_passes():
    for seed in range(4):
        bundle = random_instance("pro02-family", seed)
        assert check_pro02(bundle).status == "pass"


def _drifting_family(defect_size: float):
    # members converge to a limit whose defect is decisively nonzero
    T0 = jordan_block(1.0, 2)
    E = np.diag([0.0, 1.0]).astype(complex)
    T_inf = T0 + defect_size * E
    tuples = {}
    count = 6
    for j in range(count):
        T_j = T_inf + (T0 - T_inf) / (j + 1.0) ** 2
        tuples[f"A{j}"] = OperatorTuple.of(mc.adjoint(T_j))
        tuples[f"B{j}"] = OperatorTuple.of(T_j)
    tuples["A0"] = OperatorTuple.of(mc.adjoint(T0))
    tuples["B0"] = OperatorTuple.of(T0)
    tuples["A_limit"] = OperatorTuple.of(mc.adjoint(T_inf))
    tuples["B_limit"] = OperatorTuple.of(T_inf)
    return InstanceBundle(
        profile="pro02-family",
        seed=0,
        tuples=tuples,
        matrices={"X": np.eye(2)},
        params={"kind": "triangle", "m1": 3, "m2": 1, "members": count},
    )


def test_pro02_drifting_family_is_a_counterexample():
    result = check_pro02(_drifting_family(0.4))
    assert result.status == "counterexample"
    assert "drift" in result.reason


def test_pro02_constant_family_reduces_to_single_check():
    T = jordan_block(1.0, 2)
    tuples = {}
    for j in range(4):
        tuples[f"A{j}"] = OperatorTuple.of(mc.adjoint(T))
        tuples[f"B{j}"] = OperatorTuple.of(T)
    tuples["A_limit"] = OperatorTuple.of(mc.adjoint(T))
    tuples["B_limit"] = OperatorTuple.of(T)
    bundle = InstanceBundle(
        profile="pro02-family",
        seed=0,
        tuples=tuples,
        matrices={"X": np.eye(2)},
        params={"kind": "triangle", "m1": 3, "m2": 1, "members": 4},
    )
    result = check_pro02(bundle)
    assert result.status == "pass"
    assert result.defects["last_residual"] == 0.0


def test_pro02_rejects_non_convergent_family():
    bundle = random_instance("pro02-family", 0)
    tuples = dict(bundle.tuples)
    # declare the limit equal to the first member: residuals increase
    tuples["A_limit"] = tuples["A0"]
    tuples["B_limit"] = tuples["B0"]
    broken = InstanceBundle(
        profile="pro02-family",
        seed=0,
        tuples=tuples,
        matrices=bundle.matrices,
        params=bundle.params,
    )
    with pytest.raises(InvalidArgumentError):
        check_pro02(broken)


def test_pro03_both_parts_pass():
    for seed in range(8):
        bundle = random_instance("pro03", seed)
        assert check_pro03(bundle).status == "pass"


def test_pro03_needs_two_components():
    bundle = InstanceBundle(
        profile="pro03",
        seed=0,
        tuples={"A": scalar_tuple(1.0, 1, 2), "B": scalar_tuple(1.0, 1, 2)},
        matrices={"X": np.eye(2)},
        params={"m": 2, "part": "a"},
    )
    assert check_pro03(bundle).status == "skip"


def test_pro03_d2_reduces_to_last_pair_power():
    # with d = 2 the reduction is (L R)^m(X) = A2^m X B2^m = 0
    bundle = random_instance("pro03", 0)
    assert bundle.params["part"] == "a" and bundle.tuples["A"].d == 2
    A, B, X = bundle.tuples["A"], bundle.tuples["B"], bundle.matrices["X"]
    m = int(bundle.params["m"])
    A2, B2 = A[1], B[1]
    rhs = np.linalg.matrix_power(A2, m) @ X @ np.linalg.matrix_power(B2, m)
    lhs = tf.triangle(A, B, X, m)
    assert mc.fro_norm(lhs - (-1.0) ** m * rhs) < 1e-10


def test_pro04_passes_and_skips():
    bundle = random_instance("pro04", 2)
    assert check_pro04(bundle.tuples["A"]).status == "pass"
    # a tuple whose adjoint pair is not (I,2)-symmetric is skipped
    rng = np.random.default_rng(0)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    assert check_pro04(OperatorTuple.of(M)).status == "skip"


def test_pro04_self_adjoint_tuple_trivially_passes():
    H = np.array([[1.0, 2.0], [2.0, -3.0]], dtype=complex)
    result = check_pro04(OperatorTuple.of(H, H @ H))
    assert result.status == "pass"
    assert result.defects["selfadjoint_residual"] < 1e-12


def test_pro5_even_degrees():
    for seed in range(6):
        bundle = random_instance("pro5", seed)
        result = check_pro5(bundle.tuples["A"], int(bundle.params["m_even"]))
        assert result.status == "pass"


def test_pro5_rejects_odd_degree():
    bundle = random_instance("pro5", 0)
    with pytest.raises(InvalidArgumentError):
        check_pro5(bundle.tuples["A"], 3)


def test_thm05_zero_nilpotents_reduce_to_hypothesis():
    A = scalar_tuple(1.0, 1, 3)
    zero = OperatorTuple.of(mc.zero(3))
    result = check_thm05(A, A, zero, zero, np.eye(3), 1, 1)
    assert result.status == "pass"
    assert result.defects["t1"] == 1.0 and result.defects["t2"] == 1.0


def test_thm05_identity_plus_single_nilpotent():
    # base pair ((I), (I)), one order-2 nilpotent on each side: degrees rise to 3
    N = upper_shift(2)
    A = scalar_tuple(1.0, 1, 2)
    N1 = OperatorTuple.of(N.conj().T)
    N2 = OperatorTuple.of(N)
    result = check_thm05(A, A, N1, N2, np.eye(2), 1, 1)
    assert result.status == "pass"
    assert result.defects["t1"] == 3.0
    # the bound is attained in the pure isometric direction: degree 2 fails
    perturbed_a = OperatorTuple.of(np.eye(2) + N.conj().T)
    perturbed_b = OperatorTuple.of(np.eye(2) + N)
    assert mc.fro_norm(tf.triangle(perturbed_a, perturbed_b, np.eye(2), 2)) > 1.0
    assert mc.fro_norm(tf.triangle(perturbed_a, perturbed_b, np.eye(2), 3)) < 1e-12


def test_thm05_skips_non_commuting_perturbation():
    A = scalar_tuple(1.0, 1, 2)
    up, down = upper_shift(2), upper_shift(2).T.copy()
    bad = OperatorTuple.of(up + down)  # not nilpotent
    result = check_thm05(A, A, bad, bad, np.eye(2), 1, 1)
    assert result.status == "skip"


def test_thm06_identity_factors_collapse():
    A = scalar_tuple(1.0, 1, 2)
    result = check_thm06(A, A, A, A, np.eye(2), 1, 1, 1, 1)
    assert result.status == "pass"
    assert result.defects["t1"] == 1.0


def test_thm06_jordan_tensor_bundle_is_sharp_at_degree_five():
    a = jordan_block(1.0, 2)
    eye2 = mc.identity(2)
    A = OperatorTuple.of(np.kron(mc.adjoint(a), eye2))
    B = OperatorTuple.of(np.kron(a, eye2))
    S = OperatorTuple.of(np.kron(eye2, mc.adjoint(a)))
    T = OperatorTuple.of(np.kron(eye2, a))
    result = check_thm06(A, B, S, T, np.eye(4), 3, 1, 3, 1)
    assert result.status == "pass"
    assert result.defects["t1"] == 5.0
    # pure isometric sharpness of the product pair: degree 4 fails decisively
    from isotuple.tuples import product_tuple

    SA, TB = product_tuple(S, A), product_tuple(T, B)
    assert mc.fro_norm(tf.triangle(SA, TB, np.eye(4), 4)) > 1.0
    assert mc.fro_norm(tf.triangle(SA, TB, np.eye(4), 5)) < 1e-10


def test_cor050_scalar_base():
    bundle = random_instance("cor050", 4)
    result = check_cor050(
        bundle.tuples["T"],
        bundle.tuples["N"],
        bundle.matrices["X"],
        int(bundle.params["m1"]),
        int(bundle.params["m2"]),
    )
    assert result.status == "pass"


def test_cor050_zero_nilpotent_reduces_to_hypothesis():
    bundle = random_instance("cor050", 4)
    T = bundle.tuples["T"]
    zero = OperatorTuple(tuple(mc.zero(T.dim) for _ in range(T.d)))
    result = check_cor050(T, zero, bundle.matrices["X"], 2, 2)
    assert result.status == "pass"
    assert result.defects["order"] == 1.0  # degrees stay at m1, m2


def test_cor061_real_diagonal_involutions_trivially_pass():
    S = OperatorTuple.of(np.diag([1.0, -1.0]).astype(complex))
    T = OperatorTuple.of(np.diag([-1.0, 1.0]).astype(complex))
    result = check_cor061(S, T, np.eye(2), 1, 1)
    assert result.status == "pass"


def test_cor061_skips_non_commuting():
    up, down = upper_shift(2), upper_shift(2).T.copy()
    result = check_cor061(OperatorTuple.of(up), OperatorTuple.of(down), np.eye(2), 1, 1)
    assert result.status == "skip"


def test_cor062_requires_single_operators():
    bundle = random_instance("cor062", 0)
    two = bundle.tuples["S"]
    result = check_cor062(
        InstanceBundle(
            profile="cor062",
            seed=0,
            tuples={"A": two, "B": two, "S": two, "T": two},
            matrices={"X": np.eye(4)},
            params={"m": 1, "n": 1, "kind": "iso"},
        )
    )
    assert result.status == "skip"


def test_thm07_unitary_tensor_unitary_stays_degree_one():
    rng = np.random.default_rng(3)
    from isotuple.generators import random_unitary

    U, V = random_unitary(rng, 2), random_unitary(rng, 3)
    A, B = OperatorTuple.of(mc.adjoint(U)), OperatorTuple.of(U)
    S, T = OperatorTuple.of(mc.adjoint(V)), OperatorTuple.of(V)
    result = check_thm07(A, B, S, T, 1, 1, variant="i", kind="iso")
    assert result.status == "pass"
    assert result.defects["degree"] == 1.0


def test_thm07_variant_ii_bundles():
    for seed in (1, 3, 5, 7):
        bundle = random_instance("thm07", seed)
        assert bundle.params["variant"] == "ii"
        result = check_thm07(
            bundle.tuples["A"],
            bundle.tuples["B"],
            bundle.tuples["S"],
            bundle.tuples["T"],
            int(bundle.params["m"]),
            int(bundle.params["n"]),
            r=int(bundle.params["r"]),
            s=int(bundle.params["s"]),
            variant="ii",
        )
        assert result.status == "pass"


def test_ex00_golden_check():
    assert check_ex00_golden().status == "pass"


def test_trial_result_validates_status():
    with pytest.raises(InvalidArgumentError):
        TrialResult(status="bogus")


def test_report_invariant_enforced():
    with pytest.raises(InvalidArgumentError):
        CampaignReport(
            theorem_id="thm05",
            requested_trials=2,
            trials=2,
            passes=2,
            tolerance_anomalies=1,
            skipped=0,
            counterexamples=(),
            sharpness_witnesses=(),
            max_defect=0.0,
            seeds=(0, 1),
            budget_exceeded=False,
            wall_time=0.0,
        )


def test_run_campaign_zero_trials_is_empty():
    report = run_campaign(CampaignConfig(theorem_id="thm05", trials=0))
    assert report.trials == 0 and report.passes == 0
    assert report.counterexamples == ()


def test_run_campaign_rejects_unknown_id():
    with pytest.raises(InvalidArgumentError):
        CampaignConfig(theorem_id="bogus", trials=3)


def test_run_campaign_deterministic_modulo_timestamp():
    def stripped():
        report = run_campaign(CampaignConfig(theorem_id="thm06", trials=6, seed=42))
        data = report.to_json()
        data.pop("timestamp")
        return json.dumps(data, sort_keys=True)

    assert stripped() == stripped()


def test_run_campaign_explicit_seeds_and_csv():
    report = run_campaign(CampaignConfig(theorem_id="pro04", trials=3, seeds=(5, 9, 13)))
    assert report.seeds == (5, 9, 13)
    assert report.passes == 3
    row = report.to_csv_row()
    assert row.startswith("pro04,3,3,0,")
    assert CampaignReport.csv_header() == "theorem_id,trials,passes,anomalies,max_defect"


def test_run_campaign_budget_partial():
    start = time.monotonic()
    report = run_campaign(
        CampaignConfig(theorem_id="pro01", trials=100000, seed=0, budget_s=0.2, t_max=2000)
    )
    assert time.monotonic() - start < 0.2 + 1.0
    assert report.budget_exceeded
    assert report.trials < 100000


def test_counterexample_record_carries_bundle_and_profile():
    bundle = random_instance("thm05", 7)
    result = TrialResult(status="counterexample", reason="synthetic", defects={"x": 1.0})
    entry = verify.THEOREMS["thm05"]
    record = verify._counterexample_record(0, 7, result, bundle, entry, mc.DEFAULT_TOL)
    assert record["reason"] == "synthetic"
    assert record["bundle"]["profile"] == "thm05"
    norms = record["defect_profile"]["triangle_norms"]
    assert len(norms) == 13  # degrees 0..12 for post-mortem


def test_campaign_counterexamples_serialized_on_forced_failure(monkeypatch):
    # force the checker to fail so the serialization path is exercised end to end
    def failing_trial(theorem_id, seed, tol, t_max):
        bundle = random_instance("thm05", seed)
        return TrialResult(status="counterexample", reason="forced", defects={"d": 1.0}), bundle

    monkeypatch.setattr(verify, "_run_trial", failing_trial)
    report = run_campaign(CampaignConfig(theorem_id="thm05", trials=2, seed=0))
    assert len(report.counterexamples) == 2
    assert report.passes == 0
    payload = json.loads(verify.report_to_json_str(report))
    assert payload["counterexamples"][0]["bundle"]["profile"] == "thm05"


def test_threads_env_is_ignored(monkeypatch):
    def stripped():
        data = run_campaign(CampaignConfig(theorem_id="cor06", trials=4, seed=1)).to_json()
        data.pop("timestamp")
        return json.dumps(data, sort_keys=True)

    monkeypatch.delenv("ISOTUPLE_THREADS", raising=False)
    unset = stripped()
    monkeypatch.setenv("ISOTUPLE_THREADS", "zebra")
    assert stripped() == unset


def test_serial_budget_partial(monkeypatch):
    # the deadline is checked before every trial, so a budgeted campaign ends
    # within one trial of it and has run a prefix of its seeds
    seen = []

    def slow_trial(theorem_id, seed, tol, t_max):
        seen.append(seed)
        time.sleep(0.05)
        return TrialResult(status="pass"), None

    monkeypatch.setattr(verify, "_run_trial", slow_trial)
    config = CampaignConfig(theorem_id="pro04", trials=1000, seed=3, budget_s=0.2)
    start = time.monotonic()
    report = run_campaign(config)
    assert time.monotonic() - start < 0.2 + 0.05 + 0.5
    assert report.budget_exceeded and 0 < report.trials < 1000
    assert seen == list(config.trial_seeds()[: report.trials])


def test_max_defect_ignores_skipped_trials(monkeypatch):
    def skipped_trial(theorem_id, seed, tol, t_max):
        return verify._skip("synthetic", base_defect=5.0), None

    monkeypatch.setattr(verify, "_run_trial", skipped_trial)
    report = run_campaign(CampaignConfig(theorem_id="thm05", trials=3, seed=0))
    assert report.skipped == 3 and report.trials == 0
    assert report.max_defect == 0.0


def test_golden_campaign_runs_the_golden_check_once(monkeypatch):
    calls = []
    original = verify.check_ex00_golden

    def counting():
        calls.append(1)
        return original()

    monkeypatch.setattr(verify, "check_ex00_golden", counting)
    report = run_campaign(CampaignConfig(theorem_id="ex00-golden", trials=50, seed=4))
    assert len(calls) == 1
    assert report.passes == report.trials == 50
    assert report.max_defect == 0.0  # the golden check judges no conclusion defect
    assert report.seeds == tuple(range(4, 54))


def test_golden_campaign_checks_the_budget_before_every_trial(monkeypatch):
    # the reused golden result does not bypass the deadline check
    clock = iter(range(100))
    monkeypatch.setattr(verify, "time", SimpleNamespace(monotonic=lambda: float(next(clock))))
    report = run_campaign(
        CampaignConfig(theorem_id="ex00-golden", trials=50, seed=0, budget_s=3.5)
    )
    assert report.budget_exceeded
    assert report.trials == 3


def test_campaign_config_rejects_negative_trials():
    with pytest.raises(InvalidArgumentError):
        CampaignConfig(theorem_id="thm05", trials=-1)


def test_cor05_skips_on_broken_cross_commutation():
    bundle = random_instance("cor05", 0)
    up = upper_shift(bundle.tuples["A1"].dim)
    bad = OperatorTuple(tuple(up + up.T for _ in range(bundle.tuples["N1"].d)))
    result = verify.check_cor05(
        InstanceBundle(
            profile="cor05",
            seed=0,
            tuples={**bundle.tuples, "N1": bad},
            matrices=bundle.matrices,
            params=bundle.params,
        )
    )
    assert result.status == "skip"


def test_thm06_skips_on_invalid_hypothesis():
    # with A != B both defect parts survive: the combined hypothesis fails
    two = scalar_tuple(2.0, 1, 2)
    one = scalar_tuple(1.0, 1, 2)
    result = check_thm06(two, one, two, one, np.eye(2), 1, 1, 1, 1)
    assert result.status == "skip"
    assert "hypothesis" in result.reason


def test_registry_has_one_entry_per_theorem_in_campaign_order():
    from isotuple.generators import PROFILES

    order = ("pro01", "pro02", "pro03", "pro04", "pro5", "thm05", "cor05", "cor050",
             "thm06", "cor06", "cor061", "cor062", "thm07")
    assert tuple(verify.THEOREMS) == verify.THEOREM_IDS == order
    assert verify.CAMPAIGN_IDS == order + ("ex00-golden",)
    profiles = [entry.profile for entry in verify.THEOREMS.values()]
    assert all(profile in PROFILES for profile in profiles)
    assert len(set(profiles)) == len(profiles)


def _declared_pair(theorem_id, bundle):
    """The pair each theorem tests, spelled out independently of the registry."""
    t, X = bundle.tuples, bundle.matrices.get("X")
    if theorem_id in ("pro04", "pro5"):
        return adjoint_tuple(t["A"]), t["A"], X
    if theorem_id == "cor050":
        return adjoint_tuple(t["T"]), t["T"], X
    if theorem_id == "cor061":
        return adjoint_tuple(t["S"]), conj_tuple(t["S"]), X
    if theorem_id == "pro02":
        return t["A0"], t["B0"], X
    if theorem_id == "cor05":
        return t["A1"], t["B1"], X
    if theorem_id == "thm07":
        return t["A"], t["B"], np.eye(t["A"].dim)
    return t["A"], t["B"], X


@pytest.mark.parametrize("theorem_id", verify.THEOREM_IDS)
def test_planted_counterexample_profiles_the_declared_pair(theorem_id):
    from isotuple import classify

    profile = "pro02-family" if theorem_id == "pro02" else theorem_id
    for seed in range(4):
        bundle = random_instance(profile, seed)
        planted = TrialResult(status="counterexample", reason="planted", defects={"d": 1.0})
        record = verify._counterexample_record(
            0, seed, planted, bundle, verify.THEOREMS[theorem_id], mc.DEFAULT_TOL
        )
        A, B, X = _declared_pair(theorem_id, random_instance(profile, seed))
        assert record["defect_profile"] == classify.defect_profile(A, B, X, k_max=12).to_json()


def test_pro03_takes_all_its_spectral_norms_in_one_call(monkeypatch):
    # every one-component pair and the full pair are 3 x 3, so one SVD batch serves them
    calls = []
    original = mc.op_norm_estimate

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    for seed in range(40):
        bundle = random_instance("pro03", seed)
        monkeypatch.setattr(mc, "op_norm_estimate", counting)
        calls.clear()
        check_pro03(bundle)
        monkeypatch.undo()
        # d one-component pairs (two norms per tuple) and the full pair (d + 1 per tuple)
        d = bundle.tuples["A"].d
        assert calls == [(4 * d + 2 * (d + 1), 3, 3)]


@pytest.mark.parametrize("seed", range(8))
def test_pro01_cesaro_error_is_the_last_of_the_estimate(seed):
    bundle = random_instance("pro01", seed)
    A, B, X = bundle.tuples["A"], bundle.tuples["B"], bundle.matrices["X"]
    m = int(bundle.params["m"])
    last = tf.cesaro_estimate(A, B, X, m, 60)[-1]
    assert last[0] == 60
    assert tf.cesaro_error(A, B, tf.sigma_iterates(A, B, X, m), m, 60).hex() == last[1].hex()
    with pytest.raises(InvalidArgumentError):
        tf.cesaro_error(A, B, tf.sigma_iterates(A, B, X, m), m, m - 1)


def test_golden_check_runs_the_whole_suite():
    result = check_ex00_golden()
    names = [c["name"] for c in verify.golden_suite()]
    assert list(result.defects) == names and len(names) == 9
    assert any(name.startswith("squares/") for name in names)


def test_golden_campaign_fails_when_a_squares_check_fails(monkeypatch):
    # the squared-tuple checks are part of the golden campaign, not only of repro-paper
    def doubled():
        A = OperatorTuple.of(np.eye(2), np.eye(2))
        return A, A

    monkeypatch.setattr(verify, "paper_example_squares", doubled)
    result = check_ex00_golden()
    assert result.status == "counterexample"
    assert "squares/base_1_isometric" in result.reason
    report = run_campaign(CampaignConfig(theorem_id="ex00-golden", trials=2, seed=0))
    assert report.passes == 0 and len(report.counterexamples) == 2


def test_golden_campaign_fails_on_a_wrong_frozen_matrix(monkeypatch):
    monkeypatch.setitem(verify.GOLDEN_MATRICES, "S2_A0_S2", [[[1, 0], [1, -1]], [[1, 1], [2, 1]]])
    result = check_ex00_golden()
    assert result.status == "counterexample"
    assert result.reason.startswith("mixing/S2_A0_S2 mismatch")


def test_campaign_config_refuses_a_nan_budget():
    with pytest.raises(InvalidArgumentError, match="budget"):
        CampaignConfig(theorem_id="pro04", trials=3, budget_s=float("nan"))
    assert CampaignConfig(theorem_id="pro04", trials=3, budget_s=float("inf")).budget_s == math.inf


def test_verdict_is_the_worst_status_with_the_reason_of_its_first_test():
    checks = [("a", 0.5, 1.0), ("b", 2.0, 1.0), ("c", 5e3, 1.0), ("d", 3.0, 1.0), ("e", 1e4, 1.0)]
    result = verify._verdict(checks, {"n": 7.0})
    assert result.status == "counterexample"
    assert result.reason == "c = 5.000e+03 vs threshold 1.000e+00"
    assert result.conclusion == 1e4
    assert result.defects == {
        **{name: norm for name, norm, _ in checks},
        **{f"{name}_threshold": thr for name, _, thr in checks},
        "n": 7.0,
    }
    anomaly = verify._verdict([checks[0], checks[3], checks[1]])
    assert anomaly.status == "anomaly" and anomaly.reason.startswith("d = 3.000e+00")
    passed = verify._verdict([checks[0], ("f", 0.25, 0.5)], sharpness={"below": 1.0}, is_sharp=True)
    assert (passed.status, passed.reason, passed.conclusion) == ("pass", "", 0.5)
    assert passed.sharpness == {"below": 1.0} and passed.is_sharp


def _recorded_campaign(monkeypatch, theorem_id, trials=50):
    """The report of a campaign from seed 0 and the result of each of its trials."""
    results = []
    original = verify._run_trial

    def recording(*args):
        result, bundle = original(*args)
        results.append(result)
        return result, bundle

    monkeypatch.setattr(verify, "_run_trial", recording)
    report = run_campaign(CampaignConfig(theorem_id=theorem_id, trials=trials, seed=0))
    return report, results


@pytest.mark.parametrize("theorem_id", verify.THEOREM_IDS)
def test_max_defect_is_the_largest_judged_conclusion(monkeypatch, theorem_id):
    report, results = _recorded_campaign(monkeypatch, theorem_id)
    assert len(results) == 50
    judged = [result.conclusion for result in results if result.status != "skip"]
    assert report.max_defect == max(judged, default=0.0)
    if theorem_id in ("pro04", "cor05", "cor061"):
        assert report.max_defect > 0.0
    if theorem_id == "pro03":
        # the two sides of the equivalence are nonzero by design; only a passing side counts
        passing = [
            result.defects[f"{side}_threshold"]
            for result in results
            for side in ("lhs", "rhs")
            if result.defects[f"{side}_defect"] <= result.defects[f"{side}_threshold"]
        ]
        assert report.max_defect <= max(passing)


def test_counterexample_profile_is_judged_at_the_campaign_tolerance(monkeypatch):
    from isotuple import classify

    tol = mc.Tolerance(abs_eps=0.0, rel_eps=1e-16)

    def planted(theorem_id, seed, tol, t_max):
        bundle = random_instance("thm05", seed)
        return TrialResult(status="counterexample", reason="planted"), bundle

    monkeypatch.setattr(verify, "_run_trial", planted)
    report = run_campaign(CampaignConfig(theorem_id="thm05", trials=20, seed=0, tol=tol))
    differs = 0
    for record in report.counterexamples:
        A, B, X = _declared_pair("thm05", random_instance("thm05", record["seed"]))
        assert record["defect_profile"] == classify.defect_profile(A, B, X, tol=tol).to_json()
        differs += record["defect_profile"] != classify.defect_profile(A, B, X).to_json()
    assert len(report.counterexamples) == 20 and differs > 0


def test_noncommuting_skips_on_the_first_failing_pair():
    up, down = upper_shift(2), upper_shift(2).T.copy()
    S, T = OperatorTuple.of(up), OperatorTuple.of(down)
    mixed = OperatorTuple.of(up, down)
    tol = mc.DEFAULT_TOL
    # a tuple paired with itself is checked within; one of length 1 always commutes
    assert verify._noncommuting(tol, ("S", S, S), ("T", T, T)) is None
    within = verify._noncommuting(tol, ("S", S, S), ("mixed", mixed, mixed), ("S, T", S, T))
    assert within.status == "skip" and within.reason == "mixed"
    assert within.defects == {"residual": max_commutator_within(mixed)}
    cross = verify._noncommuting(
        tol, ("S, T*", S, adjoint_tuple(T)), ("S, T", S, T), ("T, S", T, S)
    )
    assert cross.reason == "S, T" and cross.defects == {"residual": max_commutator_cross(S, T)}


def test_failed_hypothesis_skips_on_the_first_failing_test(monkeypatch):
    one, two = scalar_tuple(1.0, 1, 2), scalar_tuple(2.0, 1, 2)
    wide = scalar_tuple(math.sqrt(0.5), 2, 3)
    X, Y = np.eye(2), np.eye(3)
    calls = []
    original = mc.op_norm_estimate

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(mc, "op_norm_estimate", counting)
    tol = mc.DEFAULT_TOL
    skip = verify._failed_hypothesis(
        tol,
        ("one", one, one, X, 1, 1),
        ("two", two, two, X, 1, 0),
        ("wide", wide, wide, Y, 0, 1),
        ("two, degree 2", two, two, X, 2, 0),
    )
    # the norms of every tuple come first, from one call per dimension
    assert calls == [(4, 2, 2), (3, 3, 3)]
    assert skip.status == "skip" and skip.reason == "two"
    assert skip.defects == {"residual": mc.fro_norm(tf.triangle(two, two, X, 1))}
    passing = (("one", one, one, X, 1, 1), ("wide", wide, wide, Y, 2, 0))
    assert verify._failed_hypothesis(tol, *passing) is None
    assert len(calls) == 2


def test_zero_tests_are_the_defect_checks_in_order():
    bundle = random_instance("thm06", 0)
    A, B, S, T = (bundle.tuples[k] for k in "ABST")
    X = bundle.matrices["X"]
    tests = verify._zero_tests(mc.DEFAULT_TOL, ("ab", A, B, X, 1, 2), ("st", S, T, X, 0, 1))
    assert tests == [
        ("ab", *tf.defect_check(A, B, X, 1, 2)),
        ("st", *tf.defect_check(S, T, X, 0, 1)),
    ]
