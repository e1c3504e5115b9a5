import json
import time
import warnings

import numpy as np
import pytest

from isotuple import classify, matrix_core as mc, verify
from isotuple.cli import build_parser, main
from isotuple.tuples import OperatorTuple


@pytest.fixture
def jordan_files(tmp_path):
    T = np.array([[1, 1], [0, 1]], dtype=complex)
    A0 = np.diag([0.0, 1.0]).astype(complex)
    paths = {}
    for name, payload in (
        ("tuple_a", OperatorTuple.of(mc.adjoint(T)).to_json()),
        ("tuple_b", OperatorTuple.of(T).to_json()),
        ("x", mc.matrix_to_json(A0)),
        ("eye", mc.matrix_to_json(np.eye(2))),
        ("eye3", mc.matrix_to_json(np.eye(3))),
    ):
        p = tmp_path / f"{name}.json"
        p.write_text(json.dumps(payload))
        paths[name] = str(p)
    return paths


def test_repro_paper_passes(capsys):
    assert main(["repro-paper"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "convention-dependent" in out  # the documented discrepancy note


def test_repro_paper_json(capsys):
    assert main(["repro-paper", "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["all_passed"] is True
    assert len(payload["checks"]) == 9


def test_repro_paper_corrupted_golden_fails(tmp_path, capsys):
    bad = tmp_path / "golden.json"
    bad.write_text(json.dumps({"S_A0_S": [[[9, 0], [1, 0]], [[1, 0], [1, 0]]]}))
    assert main(["repro-paper", "--golden", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "mismatch in mixing/S_A0_S" in out


def test_check_jordan_example(jordan_files, capsys):
    code = main(
        [
            "check",
            "--tuple-a",
            jordan_files["tuple_a"],
            "--tuple-b",
            jordan_files["tuple_b"],
            "--x",
            jordan_files["x"],
            "--m",
            "2",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "isometric at m=2: true" in out


def test_check_json_output_and_k_max(jordan_files, capsys):
    code = main(
        [
            "check",
            "--tuple-a",
            jordan_files["tuple_a"],
            "--tuple-b",
            jordan_files["tuple_b"],
            "--x",
            jordan_files["eye"],
            "--n",
            "3",
            "--k-max",
            "5",
            "--json",
        ]
    )
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["profile"]["k_max"] == 5
    assert payload["verdicts"]["symmetric at n=3"] is True


def test_check_dimension_mismatch_exits_2(jordan_files, capsys):
    code = main(
        [
            "check",
            "--tuple-a",
            jordan_files["tuple_a"],
            "--tuple-b",
            jordan_files["tuple_b"],
            "--x",
            jordan_files["eye3"],
        ]
    )
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_check_unparseable_file_exits_2(tmp_path, jordan_files, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(
        [
            "check",
            "--tuple-a",
            str(bad),
            "--tuple-b",
            jordan_files["tuple_b"],
            "--x",
            jordan_files["x"],
        ]
    )
    assert code == 2


def test_min_degree_jordan(jordan_files, capsys):
    code = main(
        [
            "min-degree",
            "--tuple-a",
            jordan_files["tuple_a"],
            "--tuple-b",
            jordan_files["tuple_b"],
            "--x",
            jordan_files["eye"],
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "symmetry: 3, isometry: 3"


def test_min_degree_none_for_growing_defect(tmp_path, capsys):
    inv = OperatorTuple.of(np.sqrt(2) * np.eye(2), np.sqrt(2) * np.eye(2))
    t_path = tmp_path / "inv.json"
    t_path.write_text(json.dumps(inv.to_json()))
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps(mc.matrix_to_json(np.eye(2))))
    code = main(
        ["min-degree", "--tuple-a", str(t_path), "--tuple-b", str(t_path), "--x", str(x_path)]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "isometry: none <= 12" in out


def test_campaign_writes_report_and_exits_0(tmp_path, capsys):
    out_file = tmp_path / "report.json"
    csv_file = tmp_path / "report.csv"
    code = main(
        [
            "campaign",
            "--theorem",
            "thm05",
            "--trials",
            "5",
            "--seed",
            "42",
            "--out",
            str(out_file),
            "--csv",
            str(csv_file),
        ]
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["theorem_id"] == "thm05"
    assert report["passes"] == 5
    assert csv_file.read_text().splitlines()[0] == "theorem_id,trials,passes,anomalies,max_defect"


def test_campaign_unknown_theorem_exits_2(capsys):
    assert main(["campaign", "--theorem", "bogus", "--trials", "2"]) == 2


def test_campaign_byte_identical_modulo_timestamp(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code = main(
            ["campaign", "--theorem", "cor06", "--trials", "4", "--seed", "42", "--out", str(p), "--quiet"]
        )
        assert code == 0

    def stripped(p):
        data = json.loads(p.read_text())
        data.pop("timestamp")
        return json.dumps(data, sort_keys=True).encode()

    assert stripped(paths[0]) == stripped(paths[1])


def test_campaign_budget_partial_exits_3(tmp_path):
    out_file = tmp_path / "partial.json"
    start = time.monotonic()
    code = main(
        [
            "campaign",
            "--theorem",
            "pro01",
            "--trials",
            "100000",
            "--seed",
            "0",
            "--budget",
            "0.2",
            "--out",
            str(out_file),
            "--quiet",
        ]
    )
    assert time.monotonic() - start < 0.2 + 1.0
    assert code == 3
    report = json.loads(out_file.read_text())
    assert report["budget_exceeded"] is True


def test_campaign_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "cor062", "trials": 3, "seed": 7}))
    out_file = tmp_path / "rep.json"
    code = main(["campaign", "--config", str(cfg), "--trials", "2", "--out", str(out_file), "--quiet"])
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["theorem_id"] == "cor062"
    assert report["trials"] == 2  # flag overrides the config file


def test_campaign_requires_theorem(capsys):
    assert main(["campaign", "--trials", "2"]) == 2


def test_usage_error_exits_2():
    assert main(["check"]) == 2  # missing required flags
    assert main(["no-such-command"]) == 2


def test_campaign_tol_flag(tmp_path):
    out_file = tmp_path / "rep.json"
    code = main(
        [
            "campaign",
            "--theorem",
            "pro04",
            "--trials",
            "4",
            "--seed",
            "3",
            "--tol",
            "1e-6",
            "--out",
            str(out_file),
            "--quiet",
        ]
    )
    assert code == 0
    assert json.loads(out_file.read_text())["passes"] == 4


def test_check_warns_on_noncommuting_tuple(tmp_path, jordan_files, capsys):
    up = np.array([[0, 1], [0, 0]], dtype=complex)
    noncomm = OperatorTuple.of(up, up.T.copy())
    t_path = tmp_path / "noncomm.json"
    t_path.write_text(json.dumps(noncomm.to_json()))
    code = main(
        ["check", "--tuple-a", str(t_path), "--tuple-b", str(t_path), "--x", jordan_files["eye"]]
    )
    assert code == 0  # lax mode: classified anyway
    err = capsys.readouterr().err
    assert "does not commute" in err


@pytest.mark.parametrize("extra", [[], ["--m", "2", "--n", "3"]])
def test_check_computes_each_spectral_norm_once(tmp_path, monkeypatch, extra):
    # one batched call for the pair, over both tuples' d components and their
    # sums, however many degrees are scanned
    d = 3
    rng = np.random.default_rng(4)
    paths = []
    for name in ("a", "b"):
        tup = OperatorTuple(tuple(rng.standard_normal((5, 5)) + 0j for _ in range(d)))
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(tup.to_json()))
        paths.append(str(path))
    x_path = tmp_path / "x.json"
    x_path.write_text(json.dumps(mc.matrix_to_json(rng.standard_normal((5, 5)))))
    calls = []
    original = mc.op_norm_estimate

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(mc, "op_norm_estimate", counting)
    argv = ["check", "--tuple-a", paths[0], "--tuple-b", paths[1], "--x", str(x_path), *extra]
    assert main(argv) == 0
    assert calls == [(2 * (d + 1), 5, 5)]


def test_profile_of_a_tuple_with_itself_computes_its_norms_once(monkeypatch):
    # A is B: the pair's one call covers the tuple's d components and their sum once
    d = 3
    rng = np.random.default_rng(5)
    A = OperatorTuple(rng.standard_normal((d, 5, 5)) + 0j)
    calls = []
    original = mc.op_norm_estimate

    def counting(a):
        calls.append(np.shape(a))
        return original(a)

    monkeypatch.setattr(mc, "op_norm_estimate", counting)
    classify.defect_profile(A, A, np.eye(5), k_max=6)
    assert calls == [(d + 1, 5, 5)]


def _write_inputs(tmp_path, a, b, x):
    paths = []
    for name, payload in (
        ("a", OperatorTuple.of(a).to_json()),
        ("b", OperatorTuple.of(b).to_json()),
        ("x", mc.matrix_to_json(x)),
    ):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(payload))
        paths.append(str(path))
    return ["--tuple-a", paths[0], "--tuple-b", paths[1], "--x", paths[2]]


@pytest.mark.parametrize(
    "declared", [{"d": True}, {"dim": True}, {"dim": 2.0}, {"d": 1.0}, {"d": "1"}, {"dim": None}]
)
def test_tuple_literal_declaring_a_size_that_is_not_an_int_exits_2(tmp_path, capsys, declared):
    # True == 1 and 2.0 == 2 in Python, so a mere comparison would accept these
    files = _write_inputs(tmp_path, np.eye(2), np.eye(2), np.eye(2))
    literal = {**OperatorTuple.of(np.eye(2)).to_json(), **declared}
    (tmp_path / "a.json").write_text(json.dumps(literal))
    assert main(["check", *files]) == 2
    assert "error: declared" in capsys.readouterr().err
    # the same literal declaring ints is accepted
    (tmp_path / "a.json").write_text(json.dumps({**literal, "d": 1, "dim": 2}))
    assert main(["check", *files]) == 0


@pytest.mark.parametrize("command", ["check", "min-degree"])
def test_overflowing_tolerance_scale_exits_2(tmp_path, capsys, command):
    # finite input whose scale (1 + 1e200)**2 overflows: refused, never passed as inf
    files = _write_inputs(tmp_path, np.diag([1e200, 0.0]), np.diag([0.0, 1.0]), np.eye(2))
    assert main([command, *files]) == 2
    assert "tolerance scale overflows" in capsys.readouterr().err


def test_check_refuses_overflowing_iterate(tmp_path, capsys):
    # sigma^2(I) = 1e480 I overflows; applying sigma to it is refused
    files = _write_inputs(tmp_path, 1e120 * np.eye(2), 1e120 * np.eye(2), np.eye(2))
    assert main(["check", *files]) == 2
    assert "X contains non-finite entries" in capsys.readouterr().err


_HOSTILE = {
    "overflowing-scale": (
        (np.diag([1e200, 0.0]), np.diag([0.0, 1.0]), np.eye(2)),
        "tolerance scale overflows",
    ),
    "overflowing-iterate": (
        (1e120 * np.eye(2), 1e120 * np.eye(2), np.eye(2)),
        "X contains non-finite entries",
    ),
}


@pytest.mark.parametrize("command", ["check", "min-degree"])
@pytest.mark.parametrize("case", sorted(_HOSTILE))
def test_hostile_input_prints_only_the_error(tmp_path, capsys, command, case):
    # the products overflow on the way to the refusal; NumPy must not warn about it
    matrices, message = _HOSTILE[case]
    files = _write_inputs(tmp_path, *matrices)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main([command, *files]) == 2
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


def test_check_refuses_a_pair_whose_component_sums_overflow(tmp_path, capsys):
    # sum A = sum B = 2e308 I overflows, and so do the iterates and the
    # commutators (which only warn): the profile judges every norm before any
    # spectral norm, so the iterates' refusal comes first
    paths = []
    for name, payload in (
        ("a", OperatorTuple.of(*[1e308 * np.eye(2)] * 2).to_json()),
        ("b", OperatorTuple.of(*[1e308 * np.eye(2)] * 2).to_json()),
        ("x", mc.matrix_to_json(np.eye(2))),
    ):
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
        paths += [f"--{'x' if name == 'x' else 'tuple-' + name}", str(tmp_path / f"{name}.json")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check", *paths]) == 2
    assert [str(w.message) for w in caught] == []
    *warned, error = capsys.readouterr().err.splitlines()
    assert error == "error: X contains non-finite entries"
    assert warned == [f"warning: tuple {name} does not commute within tolerance" for name in "AB"]


def _single_error_line(capsys, message: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert err.count("\n") == 1


_RAGGED = [[[1, 0], [0, 0]], [[0, 0]]]


@pytest.mark.parametrize("command", ["check", "min-degree"])
@pytest.mark.parametrize("where", ["x", "component"])
def test_ragged_matrix_literal_exits_2(tmp_path, capsys, command, where):
    files = _write_inputs(tmp_path, np.eye(2), np.eye(2), np.eye(2))
    if where == "x":
        (tmp_path / "x.json").write_text(json.dumps(_RAGGED))
    else:
        (tmp_path / "a.json").write_text(json.dumps({"components": [_RAGGED]}))
    assert main([command, *files]) == 2
    _single_error_line(capsys, "malformed matrix literal")


@pytest.mark.parametrize("entry", [[1, 0, 5], [1], [], "ab", None, ["1", "0"]])
def test_matrix_entry_that_is_not_a_pair_exits_2(tmp_path, capsys, entry):
    files = _write_inputs(tmp_path, np.eye(1), np.eye(1), np.eye(1))
    (tmp_path / "x.json").write_text(json.dumps([[entry]]))
    assert main(["check", *files]) == 2
    _single_error_line(capsys, "malformed matrix literal")


#: A matrix literal whose first entry is [true, false], which complex() reads as 1 + 0j.
_BOOLEAN = [[[True, False], [0, 0]], [[0, 0], [1, 0]]]


@pytest.mark.parametrize("command", ["check", "min-degree"])
def test_matrix_literal_with_a_boolean_part_exits_2(tmp_path, capsys, command):
    files = _write_inputs(tmp_path, np.eye(2), np.eye(2), np.eye(2))
    (tmp_path / "a.json").write_text(json.dumps({"dim": 2, "d": 1, "components": [_BOOLEAN]}))
    assert main([command, *files]) == 2
    _single_error_line(capsys, "malformed matrix literal: an entry part is a boolean")


def test_golden_matrix_with_a_boolean_part_exits_2(tmp_path, capsys):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"S_A0_S": _BOOLEAN}))
    assert main(["repro-paper", "--golden", str(golden)]) == 2
    _single_error_line(capsys, "malformed matrix literal: an entry part is a boolean")


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_check_refuses_bad_tolerance(jordan_files, capsys, value):
    argv = ["check", "--tuple-a", jordan_files["tuple_a"], "--tuple-b", jordan_files["tuple_b"],
            "--x", jordan_files["x"], "--m", "1", "--tol", value]
    assert main(argv) == 2
    _single_error_line(capsys, "tolerance components must be finite and non-negative")


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_campaign_refuses_bad_tolerance(capsys, value):
    assert main(["campaign", "--theorem", "pro04", "--trials", "3", "--tol", value]) == 2
    _single_error_line(capsys, "tolerance components must be finite and non-negative")


def test_campaign_config_holding_a_list_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(["pro04", 3]))
    assert main(["campaign", "--config", str(cfg)]) == 2
    _single_error_line(capsys, "config file must hold a JSON object")


@pytest.mark.parametrize("key", ["trials", "tol", "budget", "seed"])
@pytest.mark.parametrize("value", ["many", None, [3], True, False])
def test_campaign_config_non_numeric_value_exits_2(tmp_path, capsys, key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "pro04", "trials": 3, key: value}))
    code = main(["campaign", "--config", str(cfg), "--quiet"])
    if value is None and key in ("tol", "budget"):
        # null is the documented "not set" for these two keys
        assert code == 0
        return
    assert code == 2
    # a boolean count is refused as not an integer, as the next test pins
    count = isinstance(value, bool) and key in ("trials", "seed")
    _single_error_line(capsys, f"{key} must be {'an integer' if count else 'a number'}")


@pytest.mark.parametrize("key", ["trials", "seed"])
@pytest.mark.parametrize("value", [2.7, True, 3.0, "3", False])
def test_campaign_config_count_that_is_not_a_json_integer_exits_2(tmp_path, capsys, key, value):
    # int() would run 2.7 as 2 trials and true as 1
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "pro04", "trials": 3, key: value}))
    assert main(["campaign", "--config", str(cfg), "--quiet"]) == 2
    _single_error_line(capsys, f"{key} must be an integer")


@pytest.mark.parametrize("key", ["out", "csv"])
@pytest.mark.parametrize("value", [5, True, ["a"]])
def test_campaign_config_path_that_is_not_a_string_exits_2(tmp_path, capsys, key, value):
    # refused before any trial runs, not after the whole campaign
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "pro04", "trials": 2, key: value}))
    assert main(["campaign", "--config", str(cfg), "--quiet"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {key} must be a file path, got {value!r}\n"


@pytest.mark.parametrize("key", ["trails", "theorem_id", "quiet", "Seed"])
def test_campaign_config_with_an_unknown_key_exits_2_before_any_trial(tmp_path, capsys, monkeypatch, key):
    # a misspelt key used to be ignored: {"trails": 500} ran the default 20 trials
    monkeypatch.setattr(verify, "run_campaign", lambda config: pytest.fail("a trial ran"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "thm05", key: 500, "seed": 3}))
    assert main(["campaign", "--config", str(cfg), "--trials", "2"]) == 2
    _single_error_line(capsys, f"unknown config key {key!r}")


@pytest.mark.parametrize("flag", ["--out", "--csv"])
@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_campaign_refuses_an_unwritable_report_path_before_any_trial(tmp_path, capsys, monkeypatch, flag, where):
    # a bad path used to be refused only once every trial had run, and a bad --csv
    # only once the --out file had been written
    monkeypatch.setattr(verify, "run_campaign", lambda config: pytest.fail("a trial ran"))
    bad = tmp_path / "missing" / "report" if where == "missing directory" else tmp_path
    written = tmp_path / "written.txt"
    other = "--csv" if flag == "--out" else "--out"
    argv = ["campaign", "--theorem", "thm05", "--trials", "3000", other, str(written), flag, str(bad), "--quiet"]
    assert main(argv) == 2
    _single_error_line(capsys, f"{flag[2:]} path {str(bad)!r}")
    assert not written.exists()


def test_campaign_refuses_a_negative_seed_flag(capsys):
    assert main(["campaign", "--theorem", "pro04", "--trials", "2", "--seed", "-5"]) == 2
    _single_error_line(capsys, "seed must be non-negative, got -5")


def test_campaign_refuses_a_negative_seed_in_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "pro04", "trials": 2, "seed": -3}))
    assert main(["campaign", "--config", str(cfg), "--quiet"]) == 2
    _single_error_line(capsys, "seed must be non-negative, got -3")


#: JSON text that ``json.loads`` refuses with an error other than a decode error.
_UNDECODABLE = {
    "too-deep": ("[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
    "long-integer": ("[" + "7" * 5000 + "]", "integer string conversion"),
}


@pytest.mark.parametrize("site", ["check --x", "min-degree --x", "campaign --config",
                                  "repro-paper --golden"])
@pytest.mark.parametrize("case", sorted(_UNDECODABLE))
def test_json_that_cannot_be_decoded_exits_2(tmp_path, capsys, site, case):
    text, message = _UNDECODABLE[case]
    files = _write_inputs(tmp_path, np.eye(2), np.eye(2), np.eye(2))
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    command, flag = site.split()
    if command in ("check", "min-degree"):
        argv = [command, *files[:-2], "--x", str(bad)]
    else:
        argv = [command, flag, str(bad)]
    assert main(argv) == 2
    _single_error_line(capsys, message)


def test_parser_built_once_keeps_no_state_between_calls(jordan_files, capsys):
    inputs = ["--tuple-a", jordan_files["tuple_a"], "--tuple-b", jordan_files["tuple_b"],
              "--x", jordan_files["x"]]
    first, second = ["check", "--json", *inputs], ["check", "--m", "3", *inputs]
    alone = []
    for argv in (first, second):
        build_parser.cache_clear()  # each on a parser of its own
        assert main(argv) == 0
        alone.append(capsys.readouterr().out)
    assert alone[0].startswith("{") and not alone[1].startswith("{")
    build_parser.cache_clear()
    for argv, expected in zip((first, second), alone):
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
    assert build_parser() is build_parser()


def test_check_reads_scanned_verdicts_from_the_profile(tmp_path, capsys, monkeypatch):
    # m, n <= k_max are judged from the profile, one kernel call for all its
    # degrees, with no further defect evaluation; above k_max the per-degree
    # classifiers still run.  T = I + N
    # (a 3 x 3 Jordan block) gives the pair (T*, T) exact degree 5 in both families.
    from isotuple import transforms as tf

    k_max = 5
    T = np.eye(3) + np.diag([1.0, 1.0], k=1)
    A, B, X = OperatorTuple.of(T.T), OperatorTuple.of(T), np.eye(3)
    files = _write_inputs(tmp_path, T.T, T, X)
    calls = []
    original = tf.defect_checks
    monkeypatch.setattr(
        tf, "defect_checks",
        lambda A, B, X, degrees, *a: calls.append(list(degrees)) or original(A, B, X, degrees, *a),
    )
    for deg in range(k_max + 3):
        expected = {
            f"isometric at m={deg}": classify.is_isometric(A, B, X, deg),
            f"symmetric at n={deg}": classify.is_symmetric(A, B, X, deg),
        }
        assert list(expected.values()) == [deg >= 5] * 2
        calls.clear()
        argv = ["check", "--json", "--k-max", str(k_max), "--m", str(deg), "--n", str(deg), *files]
        assert main(argv) == 0
        assert json.loads(capsys.readouterr().out)["verdicts"] == expected
        profile = [(k, 0) for k in range(k_max + 1)] + [(0, k) for k in range(1, k_max + 1)]
        assert calls == [profile] + ([] if deg <= k_max else [[(deg, 0)], [(0, deg)]])


def test_check_refuses_negative_degree(jordan_files, capsys):
    argv = ["check", "--tuple-a", jordan_files["tuple_a"], "--tuple-b", jordan_files["tuple_b"],
            "--x", jordan_files["x"], "--m", "-1"]
    assert main(argv) == 2
    _single_error_line(capsys, "m must be a non-negative integer")


@pytest.mark.parametrize(
    "command, flag",
    [("check", "--k-max"), ("check", "--m"), ("check", "--n"), ("min-degree", "--k-max")],
)
@pytest.mark.parametrize("degree", [67, 1100])
def test_degree_past_the_exact_coefficient_bound_is_a_usage_error(
    jordan_files, capsys, monkeypatch, command, flag, degree
):
    # C(67, 33) is the first binomial coefficient past 2**63 - 1; the degree is
    # refused before any defect is computed
    def no_profile(*args, **kwargs):
        raise AssertionError("defect profile computed")

    monkeypatch.setattr(classify, "defect_profile", no_profile)
    argv = [command, "--tuple-a", jordan_files["tuple_a"], "--tuple-b", jordan_files["tuple_b"],
            "--x", jordan_files["x"], flag, str(degree)]
    assert main(argv) == 2
    _single_error_line(capsys, f"{flag} {degree} exceeds 66, the largest degree")


@pytest.mark.parametrize("flag", ["--k-max", "--m", "--n"])
def test_check_at_the_largest_exact_degree_runs(jordan_files, capsys, flag):
    argv = ["check", "--tuple-a", jordan_files["tuple_a"], "--tuple-b", jordan_files["tuple_b"],
            "--x", jordan_files["x"], flag, "66"]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""


def test_campaign_refuses_a_nan_budget_flag(capsys):
    # a NaN deadline never passes, so it must not silently mean "no budget"
    assert main(["campaign", "--theorem", "pro04", "--trials", "3", "--budget", "nan"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no trial ran, so no report
    assert captured.err == "error: budget must be a number of seconds, got nan\n"


def test_campaign_refuses_a_nan_budget_in_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "pro04", "trials": 3, "budget": float("nan")}))
    assert "NaN" in cfg.read_text()
    assert main(["campaign", "--config", str(cfg), "--quiet"]) == 2
    _single_error_line(capsys, "budget must be a number of seconds")


def test_campaign_refuses_a_negative_budget_flag(capsys):
    # a negative deadline has passed before the first trial, so it is an input error
    assert main(["campaign", "--theorem", "pro04", "--trials", "3", "--budget", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # no trial ran, so no report
    assert captured.err == "error: budget must be non-negative, got -1\n"


def test_campaign_refuses_a_negative_budget_in_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theorem": "pro04", "trials": 3, "budget": -0.5}))
    assert main(["campaign", "--config", str(cfg), "--quiet"]) == 2
    _single_error_line(capsys, "budget must be non-negative, got -0.5")


def test_campaign_with_an_infinite_budget_runs_every_trial(tmp_path):
    out_file = tmp_path / "rep.json"
    argv = ["campaign", "--theorem", "pro04", "--trials", "3", "--budget", "inf",
            "--out", str(out_file), "--quiet"]
    assert main(argv) == 0
    report = json.loads(out_file.read_text())
    assert report["trials"] == 3
    assert report["budget_exceeded"] is False


def test_repro_paper_golden_file_holding_a_list_exits_2(tmp_path, capsys):
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps([[[1, 0], [1, 0]], [[1, 0], [1, 0]]]))
    assert main(["repro-paper", "--golden", str(golden)]) == 2
    _single_error_line(capsys, "golden file must hold a JSON object")
