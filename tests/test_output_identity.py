"""Byte-identity of the program's output against a recorded fixture.

The fixture holds the JSON report of every campaign id at fixed seeds, with
its ``timestamp`` envelope removed, the output of ``repro-paper`` and
``repro-paper --json``, the JSON form of ``random_instance(profile, seed)`` for every generator profile
at a few fixed seeds, and the output of ``check --json``, plain-text
``check`` and ``min-degree`` on seeded Jordan-type pairs and the sqrt(lambda)
pair.  No fixture campaign records a counterexample, so the bundle section is
what pins the bundles' residuals.
A change that is meant to keep outputs the same (a refactor, a speed-up) must
keep this test passing unchanged.  A change that alters outputs on purpose
regenerates the fixture and says why:

    PYTHONPATH=src python tests/test_output_identity.py --write

which prints the key of every entry whose text changed, such as
``campaign/pro03``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
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

#: (nilpotent index k, kind of lambda, dimension n, tuple length d) of the
#: Jordan-type ``check`` inputs: A_i = w_i T*, B_i = w_i T for
#: T = Q (lambda I + N) Q*, with N a direct sum of index-k shifts and
#: sum w_i^2 = 1, so the exact degrees are 2k-1 or none.
CHECK_CASES = (
    (2, "sign", 6, 1),
    (3, "phase", 8, 2),
    (2, "real", 10, 3),
    (4, "sign", 12, 2),
    (3, "real", 14, 1),
    (5, "phase", 16, 3),
)

#: A = B = sqrt(lambda/d) I at X = I, whose isometric defect never vanishes.
SQRT_LAMBDA_CASE = (0.8, 8, 3)

#: The three commands run on every ``check`` input; {deg} is the degree argument.
CHECK_COMMANDS = {
    "json": ["check", "--json", "--m", "{deg}", "--n", "{deg}"],
    "text": ["check", "--m", "{deg}", "--n", "{deg}"],
    "min_degree": ["min-degree"],
}

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


def _matrix_json(M) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in M]


def check_inputs() -> dict:
    """name -> (A components, B components, X, degree argument) of every ``check`` input."""
    inputs = {}
    for index, (k, kind, n, d) in enumerate(CHECK_CASES):
        rng = np.random.default_rng(4000 + index)
        sign = float(rng.choice([-1.0, 1.0]))
        if kind == "sign":
            lam = sign
        elif kind == "phase":
            lam = complex(np.exp(1j * sign * rng.uniform(math.pi / 3, 2 * math.pi / 3)))
        else:
            lam = sign * rng.uniform(0.4, 0.6)
        G = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        Q, _ = np.linalg.qr(G)
        N = np.zeros((n, n), dtype=np.complex128)
        for start in range(0, n, k):
            for i in range(start, min(start + k, n) - 1):
                N[i, i + 1] = 1.0
        T = Q @ (lam * np.eye(n) + N) @ Q.conj().T
        w = rng.uniform(0.5, 1.5, d)
        w /= np.linalg.norm(w)
        X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X /= np.linalg.norm(X)
        inputs[f"k{k}-{kind}-n{n}-d{d}"] = (
            [wi * T.conj().T for wi in w], [wi * T for wi in w], X, 2 * k - 1
        )
    lam, n, d = SQRT_LAMBDA_CASE
    comps = [math.sqrt(lam / d) * np.eye(n, dtype=np.complex128) for _ in range(d)]
    inputs["sqrt-lambda"] = (comps, comps, np.eye(n, dtype=np.complex128), 9)
    return inputs


def check_outputs() -> dict:
    """{input name: {command: stdout}} for every ``check`` input and command."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (A, B, X, deg) in check_inputs().items():
            files = []
            for part, payload in (
                ("a", {"dim": X.shape[0], "d": len(A), "components": [_matrix_json(c) for c in A]}),
                ("b", {"dim": X.shape[0], "d": len(B), "components": [_matrix_json(c) for c in B]}),
                ("x", _matrix_json(X)),
            ):
                path = Path(tmp) / f"{name}-{part}.json"
                path.write_text(json.dumps(payload))
                files.append(str(path))
            paths = ["--tuple-a", files[0], "--tuple-b", files[1], "--x", files[2]]
            out[name] = {
                command: _stdout([arg.format(deg=deg) for arg in argv] + paths)
                for command, argv in CHECK_COMMANDS.items()
            }
    return out


def current_outputs() -> dict:
    return {
        "bundle": {
            profile: {str(seed): bundle_output(profile, seed) for seed in BUNDLE_SEEDS}
            for profile in PROFILES
        },
        "campaign": {tid: campaign_output(i, tid) for i, tid in enumerate(CAMPAIGN_IDS)},
        "check": check_outputs(),
        "repro_paper_json": _stdout(["repro-paper", "--json"]),
        "repro_paper_text": _stdout(["repro-paper"]),
    }


def changed_keys(old, new, prefix: str = ""):
    """Slash-joined keys of the entries that differ between two fixtures,
    added and removed ones included."""
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from changed_keys(old.get(key), new.get(key), f"{prefix}{key}/")
    elif old != new:
        yield prefix.rstrip("/")


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


@pytest.fixture(scope="module")
def checked() -> dict:
    return check_outputs()


def test_fixture_covers_every_check_input(recorded):
    assert sorted(recorded["check"]) == sorted(check_inputs())


@pytest.mark.parametrize("name", [f"k{k}-{kind}-n{n}-d{d}" for k, kind, n, d in CHECK_CASES]
                         + ["sqrt-lambda"])
@pytest.mark.parametrize("command", sorted(CHECK_COMMANDS))
def test_check_output_matches_fixture(recorded, checked, name, command):
    assert checked[name][command] == recorded["check"][name][command]


def test_repro_paper_json_matches_fixture(recorded):
    assert _stdout(["repro-paper", "--json"]) == recorded["repro_paper_json"]


def test_repro_paper_text_matches_fixture(recorded):
    assert _stdout(["repro-paper"]) == recorded["repro_paper_text"]


def test_changed_keys_names_each_differing_entry():
    old = {"campaign": {"pro03": "a", "pro04": "b"}, "repro_paper_text": "t", "gone": {"x": "1"}}
    new = {"campaign": {"pro03": "a", "pro04": "c"}, "repro_paper_text": "u", "added": "v"}
    assert list(changed_keys(old, new)) == [
        "added", "campaign/pro04", "gone", "repro_paper_text"
    ]
    assert list(changed_keys(old, old)) == []


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_output_identity.py --write")
    previous = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    outputs = current_outputs()
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}")
    for key in changed_keys(previous, outputs):
        print(f"changed: {key}")
