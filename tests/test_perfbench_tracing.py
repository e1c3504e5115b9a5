"""The benchmark's traced run still wraps every function it names.

``perfbench/tracing.py`` patches functions by module and name, so renaming or
removing one breaks ``perfbench/run.py --trace 1`` without failing any other
test.  This test loads the tracer from its file, without changing it, and runs
a two-trial campaign of every id under it, as the traced run does.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from isotuple import cli
from isotuple.verify import CAMPAIGN_IDS

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _package_modules() -> list:
    return [module for name, module in sys.modules.items() if name.startswith("isotuple.")]


def test_traced_campaigns_wrap_every_target_and_uninstall_cleanly(capsys):
    tracing = _load_tracing()
    targets = [(sys.modules[f"isotuple.{mod}"], fn) for mod, fn, _ in tracing.TARGETS]
    originals = {id(getattr(module, fn)) for module, fn in targets}
    bindings = {
        (module, attr): value
        for module in _package_modules()
        for attr, value in vars(module).items()
        if id(value) in originals
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = {(module, fn): getattr(module, fn) for module, fn in targets}
        for theorem_id in CAMPAIGN_IDS:
            argv = ["campaign", "--theorem", theorem_id, "--trials", "2", "--quiet"]
            assert cli.main(argv) == 0, theorem_id
    finally:
        tracer.uninstall()
    capsys.readouterr()

    for (module, fn), wrapper in wrapped.items():
        assert wrapper is not bindings[(module, fn)], f"{module.__name__}.{fn} is not wrapped"
        assert wrapper.__wrapped__ is bindings[(module, fn)]
    # two trials of each theorem id, and the golden check once
    assert tracer.stats["verify.check"][0] == 2 * (len(CAMPAIGN_IDS) - 1) + 1 == 27
    assert all(getattr(module, attr) is value for (module, attr), value in bindings.items())
