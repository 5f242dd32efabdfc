"""What a fresh CLI process loads: no ``dataclasses`` (and so no
``inspect``) on any path, and only the layers its command calls."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdacfg
from pdacfg import P1_TEXT
from pdacfg.cli import main

SRC = str(Path(pdacfg.__file__).resolve().parent.parent)


def _python(*args: str, check: bool = True) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports this source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=60, check=check)


def _loaded_after(code: str) -> set:
    """The modules loaded in a fresh interpreter after running ``code``."""
    done = _python("-c", code + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))")
    return set(json.loads(done.stdout.splitlines()[-1]))


def test_importing_the_package_loads_no_layer():
    loaded = _loaded_after("import pdacfg")
    assert "pdacfg" in loaded
    assert not {name for name in loaded if name.startswith("pdacfg.")}


def test_dir_lists_every_public_name():
    assert set(dir(pdacfg)) >= set(pdacfg.__all__)


def test_importing_the_cli_loads_no_dataclasses():
    # Compared with a bare interpreter under the same environment, since
    # start-up hooks (``.pth`` files) may import either module themselves.
    added = _loaded_after("import pdacfg.cli") - _loaded_after("pass")
    assert "pdacfg.cli" in added
    assert not added & {"dataclasses", "inspect"}


def _loaded_by_command(tmp_path, argv) -> set:
    """The modules a fresh interpreter loads to run ``pdacfg ARGV``, which
    must exit 0, where ``{pda}`` and ``{cfg}`` in ``argv`` name P1's
    automaton and its staged grammar, and ``{out}`` a file to write."""
    pda, cfg = tmp_path / "P1.pda", tmp_path / "P1.cfg"
    pda.write_text(P1_TEXT)
    assert main(["convert", str(pda), "-o", str(cfg)]) == 0
    argv = [arg.format(pda=pda, cfg=cfg, out=tmp_path / "out") for arg in argv]
    return _loaded_after(
        "from pdacfg import cli\n"
        f"try:\n    code = cli.main({argv!r})\nexcept SystemExit as exit_:\n"
        "    code = exit_.code\nassert code == 0, code")


@pytest.mark.parametrize("argv", [
    ["enum", "{cfg}", "--max-len", "3"],
    ["member", "{cfg}", "aabb"],
    ["run", "{pda}", "aabb"],
])
def test_query_commands_load_no_conversion_or_harness(tmp_path, argv):
    loaded = _loaded_by_command(tmp_path, argv)
    assert ("pdacfg.engine" in loaded) == (argv[0] != "enum")
    assert not loaded & {"pdacfg.harness", "pdacfg.grammar", "pdacfg.singlestate"}


@pytest.mark.parametrize("argv", [
    ["convert", "{pda}", "-o", "{out}"],
    ["convert", "{pda}", "--classical", "-o", "{out}"],
    ["convert", "{pda}", "--stage", "sspda", "-o", "{out}"],
    ["--help"],
])
def test_conversions_and_help_load_no_simulator(tmp_path, argv):
    assert "pdacfg.engine" not in _loaded_by_command(tmp_path, argv)


def test_enumerating_an_automaton_loads_the_simulator(tmp_path):
    loaded = _loaded_by_command(tmp_path, ["enum", "{pda}", "--max-len", "3"])
    assert {"pdacfg.engine", "pdacfg.language"} <= loaded


def test_check_loads_no_corpus(tmp_path):
    loaded = _loaded_by_command(tmp_path, ["check", "{pda}", "--max-len", "3"])
    assert "pdacfg.harness" in loaded
    assert "pdacfg.corpus" not in loaded


def test_importing_the_bounded_languages_loads_no_simulator():
    loaded = _loaded_after("import pdacfg.language")
    assert "pdacfg.language" in loaded
    assert "pdacfg.engine" not in loaded


def test_running_the_cli_module_runs_its_command(tmp_path):
    done = _python("-m", "pdacfg.cli", "stats", str(tmp_path / "missing.pda"),
                   check=False)
    assert done.returncode == 65
    assert done.stdout == ""
    assert done.stderr.startswith("error:")
