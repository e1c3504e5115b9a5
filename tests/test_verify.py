import inspect
import json
import math
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest

from isotuple import classify
from isotuple import matrix_core as mc
from isotuple import transforms as tf
from isotuple import verify
from isotuple.errors import InvalidArgumentError
from isotuple.generators import (
    InstanceBundle,
    _Commutes,
    _Vanishes,
    jordan_block,
    random_instance,
    upper_shift,
)
from isotuple.tuples import (
    OperatorTuple,
    adjoint_tuple,
    conj_tuple,
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
    # degrees 0..m, the constant C and the Cesaro errors share one run of iterates;
    # the isometry zero test runs m steps of its own
    applied = []
    original = tf._sigma_of_stacks

    def counting(a, Y, b):
        applied.append(1)
        return original(a, Y, b)

    bundle = random_instance("pro01", seed)
    monkeypatch.setattr(tf, "_sigma_of_stacks", counting)
    assert check_pro01(bundle, t_max=t_max).status == "pass"
    assert len(applied) == t_max + int(bundle.params["m"])


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


@pytest.mark.parametrize("m", ["3", -1, 1.5])
def test_pro03_refuses_a_degree_that_is_not_a_non_negative_integer(m):
    bundle = random_instance("pro03", 0)
    with pytest.raises(InvalidArgumentError, match="m must be a non-negative integer"):
        check_pro03(bundle, m=m)


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


def test_thm07_refuses_an_unknown_variant_and_variant_ii_without_its_degrees():
    A = scalar_tuple(1.0, 1, 2)
    with pytest.raises(InvalidArgumentError, match="^variant must be 'i' or 'ii', got 'iii'$"):
        check_thm07(A, A, A, A, 1, 1, variant="iii")
    with pytest.raises(InvalidArgumentError, match="^variant ii needs r and s$"):
        check_thm07(A, A, A, A, 1, 1, r=1, variant="ii")


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
    record = verify._counterexample_record(0, 7, result, entry, mc.DEFAULT_TOL)
    assert record["bundle"] == bundle.to_json()
    assert record["reason"] == "synthetic"
    assert record["bundle"]["profile"] == "thm05"
    norms = record["defect_profile"]["triangle_norms"]
    assert len(norms) == 13  # degrees 0..12 for post-mortem


def test_campaign_counterexamples_serialized_on_forced_failure(monkeypatch):
    # force the checker to fail so the serialization path is exercised end to end
    def failing_chunk(theorem_id, seeds, tol, t_max):
        return [TrialResult(status="counterexample", reason="forced", defects={"d": 1.0}) for _ in seeds]

    monkeypatch.setattr(verify, "_run_chunk", failing_chunk)
    report = run_campaign(CampaignConfig(theorem_id="thm05", trials=2, seed=0))
    assert len(report.counterexamples) == 2
    assert report.passes == 0
    payload = json.loads(verify.report_to_json_str(report))
    assert payload["counterexamples"][0]["bundle"]["profile"] == "thm05"
    # a counterexample's instance is its seed's, built again
    for record, seed in zip(report.counterexamples, (0, 1)):
        assert record["bundle"] == random_instance("thm05", seed).to_json()


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

    def slow_chunk(theorem_id, seeds, tol, t_max):
        seen.extend(seeds)
        time.sleep(0.05 * len(seeds))
        return [TrialResult(status="pass") for _ in seeds]

    monkeypatch.setattr(verify, "_run_chunk", slow_chunk)
    config = CampaignConfig(theorem_id="pro04", trials=1000, seed=3, budget_s=0.2)
    start = time.monotonic()
    report = run_campaign(config)
    assert time.monotonic() - start < 0.2 + 0.05 + 0.5
    assert report.budget_exceeded and 0 < report.trials < 1000
    assert seen == list(config.trial_seeds()[: report.trials])


def test_max_defect_ignores_skipped_trials(monkeypatch):
    def skipped_chunk(theorem_id, seeds, tol, t_max):
        return [verify._skip("synthetic", base_defect=5.0) for _ in seeds]

    monkeypatch.setattr(verify, "_run_chunk", skipped_chunk)
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


@pytest.mark.parametrize("counts, message", [
    ({"trials": True}, "trials must be an integer, got True"),
    ({"trials": 2.5}, "trials must be an integer, got 2.5"),
    ({"trials": 2, "seed": 1.0}, "seed must be an integer, got 1.0"),
    ({"trials": 2, "seeds": ("a", "b")}, "seed must be an integer, got 'a'"),
    ({"trials": 2, "seeds": (1, False)}, "seed must be an integer, got False"),
])
def test_campaign_config_refuses_a_count_that_is_not_an_int(counts, message):
    # trials=True ran one trial; 2.5 and a string seed raised TypeError
    with pytest.raises(InvalidArgumentError, match=f"^{message}$"):
        CampaignConfig(theorem_id="pro04", **counts)


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
def test_a_numpy_integer_seed_gives_the_instance_and_result_of_its_int(theorem_id):
    # thm05, cor05 and cor050 refused their own nilpotency bound, a NumPy integer
    entry = verify.THEOREMS[theorem_id]
    bundle, same = random_instance(entry.profile, np.int64(5)), random_instance(entry.profile, 5)
    assert bundle.to_json() == same.to_json()
    assert entry.check(bundle, mc.DEFAULT_TOL, 50) == entry.check(same, mc.DEFAULT_TOL, 50)


@pytest.mark.parametrize("theorem_id", verify.THEOREM_IDS)
def test_planted_counterexample_profiles_the_declared_pair(theorem_id):
    from isotuple import classify

    profile = "pro02-family" if theorem_id == "pro02" else theorem_id
    for seed in range(4):
        planted = TrialResult(status="counterexample", reason="planted", defects={"d": 1.0})
        record = verify._counterexample_record(0, seed, planted, verify.THEOREMS[theorem_id], mc.DEFAULT_TOL)
        A, B, X = _declared_pair(theorem_id, random_instance(profile, seed))
        assert record["defect_profile"] == classify.defect_profile(A, B, X, k_max=12).to_json()


def test_pro02_takes_all_its_spectral_norms_in_one_call(monkeypatch):
    # every member pair and the limit pair are 2 x 2, so one SVD batch serves them
    calls = []
    original = mc.op_norm_estimate

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    for seed in range(40):
        bundle = random_instance("pro02-family", seed)
        monkeypatch.setattr(mc, "op_norm_estimate", counting)
        calls.clear()
        check_pro02(bundle)
        monkeypatch.undo()
        # the members and the limit: two one-component tuples each, whose component
        # norm a test of degree m > 0 reads and whose sum norm one of n > 0 reads
        m1, m2 = int(bundle.params["m1"]), int(bundle.params["m2"])
        member = (m1, 0) if bundle.params["kind"] == "triangle" else (0, m2)
        tests = [member] * int(bundle.params["members"]) + [(m1, m2)]
        assert calls == [(sum(2 * ((m > 0) + (n > 0)) for m, n in tests), 2, 2)]


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
        # part (a) reads component norms: of the whole stacks of the d one-component
        # pairs, whose first d - 1 its hypotheses read, and the d of each tuple of
        # the full pair, whose last ones its right-hand side reads; part (b) reads
        # sum norms: of the d pairs (the last one in its right-hand test) and of the
        # full pair
        d = bundle.tuples["A"].d
        iso = bundle.params["part"] == "a"
        assert calls == [(4 * d if iso else 2 * d + 2, 3, 3)]


@pytest.mark.parametrize("seed", range(8))
def test_pro01_cesaro_error_is_the_last_of_the_estimate(seed):
    bundle = random_instance("pro01", seed)
    A, B, X = bundle.tuples["A"], bundle.tuples["B"], bundle.matrices["X"]
    m = int(bundle.params["m"])
    last = tf.cesaro_estimate(A, B, X, m, 60)[-1]
    assert last[0] == 60
    assert check_pro01(bundle, t_max=60).defects["cesaro_error"].hex() == last[1].hex()
    with pytest.raises(InvalidArgumentError, match=f"^t_max must be an integer >= m, got {m - 1}$"):
        check_pro01(bundle, t_max=m - 1)


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


@pytest.mark.parametrize("budget", [-1.0, -1e-9, -math.inf])
def test_campaign_config_refuses_a_negative_budget(budget):
    with pytest.raises(InvalidArgumentError, match="budget must be non-negative"):
        CampaignConfig(theorem_id="pro04", trials=3, budget_s=budget)
    assert CampaignConfig(theorem_id="pro04", trials=3, budget_s=0.0).budget_s == 0.0


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
    original = verify._run_chunk

    def recording(*args):
        chunk = original(*args)
        results.extend(chunk)
        return chunk

    monkeypatch.setattr(verify, "_run_chunk", recording)
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

    def planted(theorem_id, seeds, tol, t_max):
        return [TrialResult(status="counterexample", reason="planted") for _ in seeds]

    monkeypatch.setattr(verify, "_run_chunk", planted)
    report = run_campaign(CampaignConfig(theorem_id="thm05", trials=20, seed=0, tol=tol))
    differs = 0
    for record in report.counterexamples:
        A, B, X = _declared_pair("thm05", random_instance("thm05", record["seed"]))
        assert record["defect_profile"] == classify.defect_profile(A, B, X, tol=tol).to_json()
        differs += record["defect_profile"] != classify.defect_profile(A, B, X).to_json()
    assert len(report.counterexamples) == 20 and differs > 0


def test_campaigns_check_commutators_through_one_kernel_call_per_round(monkeypatch):
    from isotuple import tuples

    def per_pair(*args, **kwargs):
        raise AssertionError("per-pair commutator check")

    stack_calls = []
    stack_original = tuples.commutator_stack_checks
    for name in ("commutes_within", "commutes_cross", "_commutator_check"):
        monkeypatch.setattr(tuples, name, per_pair)
    monkeypatch.setattr(
        verify, "commutator_stack_checks",
        lambda q, tol: stack_calls.append(sum(len(S) for S, _ in q)) or stack_original(q, tol),
    )
    for theorem_id in ("thm05", "cor05", "cor050", "thm06", "cor06", "cor061", "cor062"):
        stack_calls.clear()
        report = run_campaign(CampaignConfig(theorem_id=theorem_id, trials=40, seed=3))
        assert report.trials + report.skipped == 40
        # one chunk: every trial's commutators in one call of the stack kernel, none
        # through the single-pair predicates
        assert len(stack_calls) == 1 and stack_calls[0] >= 40


#: The bundle seeds of ``tests/data/output_identity.json``, which set every variant bit.
REGISTRY_SEEDS = (0, 7, 29)


def _names_read(entry, applies) -> set:
    """Every name an entry reads: in its rows, nilpotent tuples, derived columns and the
    conclusions that ``applies`` admits, each degree expression by its terms, and the
    parameters that decide which rows apply."""
    degrees, names = dict(entry.degrees), set()

    def degree(spec):
        for term in re.split("[+-]", spec) if isinstance(spec, str) else ():
            if not term.isdigit() and term not in names:
                names.add(term)
                degree(degrees.get(term))

    def row(found):
        if isinstance(found, _Commutes):
            names.update({found.S, found.T} - {None})
        elif applies(found):
            names.update({found.P, found.Q, found.X} - {"I"} | ({"kind"} if found.kind else set()))
            degree(found.m), degree(found.n)
        if isinstance(found, _Vanishes):
            names.update(found.when[:1])

    for found in entry.rows:
        row(found)
    for test, sharp, extra in entry.conclusions:
        if applies(test):
            row(test)
            for _, *specs in (*sharp, *extra):
                for spec in specs:
                    degree(spec)
    for _, _, *args in entry.derived:
        names.update(args)
    if entry.nilpotent:
        names.update({entry.nilpotent[0], *entry.nilpotent[1]})
    return names


@pytest.mark.parametrize("seed", REGISTRY_SEEDS)
@pytest.mark.parametrize("theorem_id", verify.THEOREM_IDS)
def test_the_registry_reads_only_what_its_profile_builds(theorem_id, seed):
    entry = verify.THEOREMS[theorem_id]
    bundle = random_instance(entry.profile, seed)
    built = {**bundle.params, **bundle.matrices, **bundle.tuples}

    def applies(row):
        return not row.when or built.get(row.when[0]) == row.when[1]

    formed = {name for name, *_ in entry.derived} | set(dict(entry.degrees))
    formed |= {f"order_{name}" for name in (entry.nilpotent or ("", ()))[1]}

    def resolves(name: str) -> bool:
        if name.endswith("*"):  # an adjoint
            return resolves(name[:-1])
        if len(name) > 2 and name[0] == name[-1] == "C":  # a conjugate
            return resolves(name[1:-1])
        return name in formed or name in built

    unknown = sorted(name for name in _names_read(entry, applies) if not resolves(name))
    assert not unknown, f"{theorem_id} reads {unknown}, which seed {seed} of {entry.profile} does not build"
    named = []
    for found in entry.rows:
        if found.residual is None or isinstance(found, _Vanishes) and not applies(found):
            continue
        m, n = (built[k] if isinstance(k, str) else k for k in (found.m, found.n)) if isinstance(found, _Vanishes) else (0, 0)
        if isinstance(found, _Vanishes) and found.kind:
            m, n = (m, 0) if built["kind"] == found.kind[0] else (0, n)
        named.append(found.residual.format(m=m, n=n))
    assert named == list(bundle.residuals), f"{theorem_id}'s residual rows do not name seed {seed}'s residuals"
    # the stages read the other names, such as pro02's members, by name, and a name the
    # bundle lacks is refused
    entry.check(bundle, mc.DEFAULT_TOL, 20)


@pytest.mark.parametrize("theorem_id,name", [
    ("cor05", "m1"), ("cor06", "m"), ("cor062", "n"),
    ("pro01", "m"), ("pro02", "m1"), ("pro02", "members"), ("pro03", "m"),
])
def test_a_degree_parameter_that_is_not_an_integer_is_refused(theorem_id, name):
    # every check reads its degrees, and pro02 its member count, as given, so 1.5 is
    # refused, not run as 1
    bundle = random_instance(verify.THEOREMS[theorem_id].profile, 0)
    bundle = InstanceBundle(bundle.profile, 0, bundle.tuples, bundle.matrices, {**bundle.params, name: 1.5})
    kind = "positive" if name == "members" else "non-negative"
    with pytest.raises(InvalidArgumentError, match=f"must be a {kind} integer, got 1.5$"):
        getattr(verify, f"check_{theorem_id}")(bundle)


def test_a_bool_is_not_a_degree():
    A = B = OperatorTuple.of(np.eye(2))
    X = np.eye(2)
    bundle = random_instance("pro01", 1)
    refusals = [
        (lambda: tf.triangle(A, B, X, True), "m must be a non-negative integer, got True"),
        (lambda: tf.delta(A, B, X, True), "n must be a non-negative integer, got True"),
        (lambda: tf.defect_check(A, B, X, 0, True), "n must be a non-negative integer, got True"),
        (lambda: tf.cesaro_estimate(A, B, X, True, 10), "m must be a positive integer, got True"),
        (lambda: tf.cesaro_estimate(A, B, X, 1, True), "t_max must be an integer >= m, got True"),
        (lambda: classify.defect_profile(A, B, X, k_max=True), "k_max must be a positive integer, got True"),
        (lambda: check_pro01(InstanceBundle(bundle.profile, 1, bundle.tuples, bundle.matrices,
                                            {**bundle.params, "m": True})),
         "m must be a non-negative integer, got True"),
    ]
    for refused, message in refusals:
        with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
            refused()


def _as_chunk(bundles: list) -> list[tuple]:
    """Bundles as ``generators._chunk`` gives a chunk's classes: here one class each."""
    return [
        (np.array([i]), {name: T.stack[None] for name, T in bundle.tuples.items()},
         {name: np.array(X, dtype=complex)[None] for name, X in bundle.matrices.items()}, [bundle.params])
        for i, bundle in enumerate(bundles)
    ]


def test_a_chunk_refuses_as_its_trials_checked_one_at_a_time(monkeypatch):
    # the third trial is refused by an earlier stage than the second, yet a campaign
    # without a budget (one chunk, whose classes refuse first, then its bundles) raises
    # the second's error, as a budgeted one (chunks of one trial) does
    base = random_instance("thm05", 2)  # A, B, N1 and N2 of dimension 4
    planted = [
        base,
        InstanceBundle(base.profile, 1, base.tuples, {"X": np.eye(3)}, base.params),
        InstanceBundle(base.profile, 2, {**base.tuples, "N1": OperatorTuple.of(np.eye(3), np.eye(3))},
                       base.matrices, base.params),
    ]
    monkeypatch.setattr(verify, "random_instances", lambda profile, seeds: [planted[seed] for seed in seeds])
    monkeypatch.setattr(verify, "_chunk", lambda profile, seeds: _as_chunk([planted[seed] for seed in seeds]))
    with pytest.raises(InvalidArgumentError, match="^dimension mismatch: 4 vs 3$"):
        verify.THEOREMS["thm05"].check(planted[2], mc.DEFAULT_TOL, 0)
    for budget in (None, 1e6):
        with pytest.raises(InvalidArgumentError, match="^dimension mismatch: A is 4, B is 4, X is 3$"):
            run_campaign(CampaignConfig(theorem_id="thm05", trials=3, budget_s=budget))


def _with_params(bundle: InstanceBundle, **params) -> InstanceBundle:
    return InstanceBundle(bundle.profile, bundle.seed, bundle.tuples, bundle.matrices, {**bundle.params, **params})


def _thm07_with_kind(kind: str) -> TrialResult:
    bundle = random_instance("thm07", 0)  # variant i, whose factor rows split by kind
    T, p = bundle.tuples, bundle.params
    return check_thm07(T["A"], T["B"], T["S"], T["T"], p["m"], p["n"], kind=kind)


@pytest.mark.parametrize("refused,message", [
    pytest.param(lambda: check_pro02(_with_params(random_instance("pro02-family", 0), kind="zebra")),
                 "kind must be 'triangle' or 'delta', got 'zebra'", id="pro02"),
    pytest.param(lambda: verify.check_cor06(_with_params(random_instance("cor06", 1), kind="zebra")),
                 "kind must be 'iso' or 'sym', got 'zebra'", id="cor06"),
    pytest.param(lambda: check_cor062(_with_params(random_instance("cor062", 1), kind="zebra")),
                 "kind must be 'iso' or 'sym', got 'zebra'", id="cor062"),
    pytest.param(lambda: _thm07_with_kind("zebra"), "kind must be 'iso' or 'sym', got 'zebra'", id="thm07"),
    pytest.param(lambda: check_pro03(_with_params(random_instance("pro03", 1), part="zebra")),
                 "part must be 'a' or 'b', got 'zebra'", id="pro03"),
])
def test_a_kind_or_part_outside_a_rows_two_values_is_refused(refused, message):
    # each kind-split row names both of its kinds, and pro03 both of its parts; any
    # other value is refused, where it ran as the second
    with pytest.raises(InvalidArgumentError, match=f"^{re.escape(message)}$"):
        refused()


def test_a_name_the_bundle_lacks_is_refused():
    # pro02 reads members A0..A{members-1}, and pro03 its part, by name
    family = _with_params(random_instance("pro02-family", 0), members=7)  # a six-member family
    with pytest.raises(InvalidArgumentError, match="^the instance has no 'A6'$"):
        check_pro02(family)
    bundle = random_instance("pro03", 1)  # part (b)
    partless = InstanceBundle(bundle.profile, 1, bundle.tuples, bundle.matrices,
                              {key: value for key, value in bundle.params.items() if key != "part"})
    with pytest.raises(InvalidArgumentError, match="^the instance has no 'part'$"):
        check_pro03(partless)


@pytest.mark.parametrize("check,profile", [
    (check_thm05, "thm05"), (check_cor050, "cor050"), (check_thm06, "thm06"), (check_cor061, "cor061"),
    (check_thm07, "thm07"), (check_pro04, "pro04"), (check_pro5, "pro5"),
])
def test_a_check_refuses_an_array_in_place_of_a_tuple_naming_the_argument(check, profile):
    bundle = random_instance(profile, 0)
    args = {}  # the check's arguments from its instance, A_hilbert being the bundle's A
    for name in inspect.signature(check).parameters:
        key = name.removesuffix("_hilbert")
        for found in (bundle.tuples, bundle.matrices, bundle.params):
            if key in found:
                args[name] = found[key]
    assert check(**args).status in ("pass", "skip")
    tuples = [name for name, value in args.items() if isinstance(value, OperatorTuple)]
    assert tuples
    for name in tuples:
        with pytest.raises(InvalidArgumentError, match=f"^{name} must be an OperatorTuple, got ndarray$"):
            check(**{**args, name: args[name].stack})


def test_an_unbudgeted_campaign_builds_no_bundle_or_tuple_per_trial(monkeypatch):
    # a chunk runs on its builder's stacks; only a counterexample builds its bundle
    built = []

    def spy(cls, name):
        original = getattr(cls, name)

        def counting(*args, **kwargs):
            built.append(f"{cls.__name__}.{name}")
            return original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counting)

    for cls, name in ((InstanceBundle, "__init__"), (OperatorTuple, "__init__"), (OperatorTuple, "_of_checked")):
        spy(cls, name)
    for theorem_id in verify.THEOREM_IDS:
        report = run_campaign(CampaignConfig(theorem_id=theorem_id, trials=12, seed=0))
        assert not report.counterexamples and report.trials + report.skipped == 12
    assert built == []
    # the spies see what they spy on
    random_instance("pro04", 0)
    assert built == ["OperatorTuple._of_checked", "InstanceBundle.__init__"]
