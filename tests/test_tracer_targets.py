"""The traced benchmark run (``perfbench/run.py --trace 1``) finds every
function it wraps.

``perfbench/tracing.py`` names its targets as ``(module, attribute)`` pairs
under ``pdacfg`` and rebinds them in the modules loaded once the CLI and
the scripts are imported.  A target that moves, or a command that stops
reaching it through a rebound name, would leave its span empty without any
error, so this runs the tracer's own set-up in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pdacfg
from pdacfg import P1_TEXT

ROOT = Path(pdacfg.__file__).resolve().parent.parent.parent
PERFBENCH = ROOT / "perfbench"

_TRACED = """
import contextlib, io, json, sys
sys.path.insert(0, {perfbench!r})
import tracing

runner = tracing.InProcess()
from pdacfg import engine

missing = [f"{{module}}.{{attr}}" for places in tracing.TARGETS.values()
           for module, attr in places
           if not callable(getattr(sys.modules.get("pdacfg." + module), attr, None))]
assert callable(engine._Recognizer.member)
tracer = tracing.Tracer()
codes = []
with tracing.instrumented(tracer, runner.modules), \\
        contextlib.redirect_stdout(io.StringIO()):
    for argv in {commands!r}:
        codes.append(runner.mains[tracing.CLI](argv))
print(json.dumps({{"missing": missing, "codes": codes,
                  "spans": sorted({{span[3] for span in tracer.spans}})}}))
"""


def test_every_tracing_target_resolves_and_is_reached(tmp_path):
    pda, cfg = tmp_path / "P1.pda", tmp_path / "P1.cfg"
    pda.write_text(P1_TEXT)
    commands = [["convert", str(pda), "-o", str(cfg)],
                ["enum", str(cfg), "--max-len", "4"],
                ["check", str(pda), "--classical", "--max-len", "4"]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _TRACED.format(perfbench=str(PERFBENCH), commands=commands)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
    traced = json.loads(done.stdout.splitlines()[-1])
    assert traced["missing"] == []
    assert traced["codes"] == [0, 0, 0]
    assert {"textio.parse", "textio.render", "singlestate.to_single_state",
            "grammar.sspda_to_cfg", "grammar.classical", "engine.enum",
            "harness.differential_check"} <= set(traced["spans"])
