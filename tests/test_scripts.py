import importlib.util
from pathlib import Path

import pytest

from pdacfg import builtin_corpus, parse_pda

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"script_{name}", SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def run_differential():
    return _load("run_differential")


def test_small_sweep_agrees(run_differential, capsys):
    assert run_differential.main(["--max-len", "2", "--random", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    names = [line.split()[0] for line in lines[:-1]]
    assert names == ["P0", "P1", "P2", "P3", "P4", "P5", "seed1", "seed2"]
    assert lines[-1] == "all routes agree"


@pytest.mark.parametrize("flag, value", [
    ("--max-len", "-1"),
    ("--random", "-3"),
    ("--max-configs", "0"),
    ("--max-depth", "0"),
])
def test_bad_flag_values_are_usage_errors(run_differential, capsys, flag, value):
    with pytest.raises(SystemExit) as exit_:
        run_differential.main([flag, value])
    assert exit_.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert flag in captured.err


def test_write_corpus_writes_each_entry_so_it_parses_back(tmp_path, capsys):
    assert _load("write_corpus").main([str(tmp_path)]) == 0
    entries = builtin_corpus()
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"{e.name}.pda" for e in entries]
    assert capsys.readouterr().out.splitlines() == [
        str(tmp_path / f"{e.name}.pda") for e in entries]
    for entry in entries:
        assert parse_pda((tmp_path / f"{entry.name}.pda").read_text()) == entry.pda, entry.name
