import os
import resource
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

import pdacfg
from pdacfg import P1_TEXT, builtin_corpus, parse_cfg, parse_source, render
from pdacfg.cli import main


@pytest.fixture()
def p1_file(tmp_path):
    path = tmp_path / "P1.pda"
    path.write_text(P1_TEXT)
    return str(path)


def test_convert_emits_a_fourteen_production_grammar(p1_file, capsys):
    assert main(["convert", p1_file]) == 0
    out = capsys.readouterr().out
    assert len(parse_cfg(out).productions) == 14


def test_convert_sspda_stage_emits_the_intermediate(p1_file, capsys):
    assert main(["convert", p1_file, "--stage", "sspda"]) == 0
    sspda = parse_source(capsys.readouterr().out)
    assert len(sspda.transitions) == 14


def test_convert_classical_and_prune_flags(p1_file, capsys):
    assert main(["convert", p1_file, "--classical"]) == 0
    classical = parse_cfg(capsys.readouterr().out)
    assert classical.start == "S"
    assert main(["convert", p1_file, "--prune"]) == 0
    pruned = parse_cfg(capsys.readouterr().out)
    assert len(pruned.productions) <= 14


def test_convert_writes_files_and_keeps_stdout_clean(p1_file, tmp_path, capsys):
    out_path = tmp_path / "P1.cfg"
    assert main(["convert", p1_file, "-o", str(out_path)]) == 0
    assert capsys.readouterr().out == ""
    assert len(parse_cfg(out_path.read_text()).productions) == 14


def test_run_prints_an_indexed_witness(p1_file, capsys):
    assert main(["run", p1_file, "ab"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "1: q0 a Z -> q0 A Z",
        "2: q0 b A -> q1 eps",
        "3: q1 eps Z -> q1 eps",
    ]


def test_run_rejection_goes_to_stderr_with_exit_1(p1_file, capsys):
    assert main(["run", p1_file, "aab"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "rejected" in captured.err


def test_run_inconclusive_exits_2(tmp_path, capsys):
    entry = next(e for e in builtin_corpus() if e.name == "P5")
    path = tmp_path / "P5.pda"
    path.write_text(render(entry.pda))
    assert main(["run", str(path), "ab"]) == 2
    assert "inconclusive" in capsys.readouterr().err


def test_run_accepts_the_converted_single_state_automaton(p1_file, tmp_path, capsys):
    ss_path = tmp_path / "P1.sspda"
    assert main(["convert", p1_file, "--stage", "sspda", "-o", str(ss_path)]) == 0
    assert main(["run", str(ss_path), "aabb"]) == 0
    assert main(["run", str(ss_path), "aab"]) == 1
    capsys.readouterr()


def test_member_exit_codes(p1_file, tmp_path, capsys):
    out_path = tmp_path / "P1.cfg"
    main(["convert", p1_file, "-o", str(out_path)])
    assert main(["member", str(out_path), "aabb"]) == 0
    assert main(["member", str(out_path), "aba"]) == 1
    capsys.readouterr()


def test_member_keeps_letters_that_pruning_dropped(tmp_path, capsys):
    # the only move reading 'b' pops X, which is never on the stack
    pda = tmp_path / "dead-b.pda"
    pda.write_text("states: p\ninput: a b\nstack: Z X\nstart: p\nstartstack: Z\n"
                   "p a Z -> p eps\np b X -> p eps\n")
    pruned = tmp_path / "dead-b.cfg"
    assert main(["convert", str(pda), "--prune", "-o", str(pruned)]) == 0
    assert "terminals: a b" in pruned.read_text()
    assert main(["member", str(pruned), "a"]) == 0
    assert main(["member", str(pruned), "b"]) == 1
    assert capsys.readouterr() == ("", "member\nnot a member\n")


def test_enum_lists_the_bounded_language(p1_file, capsys):
    assert main(["enum", p1_file, "--max-len", "6"]) == 0
    assert capsys.readouterr().out == "\nab\naabb\naaabbb\n"


def test_enum_answers_a_finite_language_at_a_huge_bound(tmp_path, capsys):
    entry = next(e for e in builtin_corpus() if e.name == "P0")
    pda, cfg = tmp_path / "P0.pda", tmp_path / "P0.cfg"
    pda.write_text(render(entry.pda))
    assert main(["convert", str(pda), "-o", str(cfg)]) == 0
    # A has a string at every length, but S never reaches it.
    unused = tmp_path / "unused.cfg"
    unused.write_text("S -> a\nA -> d A\nA -> d\n")
    capsys.readouterr()
    for path in (cfg, unused):
        assert main(["enum", str(path), "--max-len", "99999999999999999999"]) == 0
        assert capsys.readouterr().out == "a\n"


def test_enum_on_an_inconclusive_automaton_exits_2(tmp_path, capsys):
    entry = next(e for e in builtin_corpus() if e.name == "P5")
    path = tmp_path / "P5.pda"
    path.write_text(render(entry.pda))
    assert main(["enum", str(path), "--max-len", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "incomplete" in captured.err


# At a bound no set of strings could hold, enum keeps only the prefixes the
# walk could not settle: P1's pushes stop at the default stack depth of 64,
# and P5's push loop is pruned at the root.  A fresh process with at most
# 1 GiB of address space runs it, so a walk that lists strings fails alone.
@pytest.mark.parametrize("name, out", [
    ("P1", "".join("a" * n + "b" * n + "\n" for n in range(64))),
    ("P5", ""),
])
def test_enum_on_an_automaton_at_a_huge_bound_exits_2(name, out, tmp_path):
    entry = next(e for e in builtin_corpus() if e.name == name)
    path = tmp_path / f"{name}.pda"
    path.write_text(render(entry.pda))
    src = str(Path(pdacfg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    gib = 1 << 30
    done = subprocess.run(
        [sys.executable, "-m", "pdacfg.cli", "enum", str(path),
         "--max-len", "99999999999999999999"],
        env=env, capture_output=True, text=True, timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (gib, gib)))
    assert (done.returncode, done.stdout) == (2, out)
    assert "incomplete" in done.stderr


def test_a_pruned_root_whose_strings_are_all_accepted_is_complete(tmp_path, capsys):
    # The push loop is pruned at the root, yet every a^n pops its way out.
    path = tmp_path / "pruned-root.pda"
    path.write_text("states: q\ninput: a\nstack: Z\nstart: q\nstartstack: Z\n"
                    "q eps Z -> q Z Z\nq a Z -> q eps\nq eps Z -> q eps\n")
    assert main(["enum", str(path), "--max-len", "5"]) == 0
    assert capsys.readouterr().out == "".join("a" * n + "\n" for n in range(6))
    assert main(["check", str(path), "--classical", "--max-len", "5"]) == 0
    assert capsys.readouterr().out == "checked=6 agree=6 mismatch=0 inconclusive=0\n"


def test_check_reports_zero_mismatches(p1_file, capsys):
    assert main(["check", p1_file, "--max-len", "6", "--classical"]) == 0
    out = capsys.readouterr().out
    assert "mismatch=0" in out
    assert "checked=127" in out


@pytest.fixture()
def a_wrong_grammar_route(monkeypatch):
    from pdacfg import Cfg, harness

    routes = harness.routes

    def with_a_wrong_grammar(pda, classical):
        # P1's staged grammar without [q1,Z,q1] -> eps derives only "".
        sources = routes(pda, classical)
        staged = dict(sources)["cfg"]
        kept = staged.productions - {("[q1,Z,q1]", ())}
        wrong = Cfg(staged.variables, staged.terminals, kept, staged.start)
        return sources + [("wrong", wrong)]

    monkeypatch.setattr(harness, "routes", with_a_wrong_grammar)


def test_check_exits_1_on_a_mismatch(p1_file, a_wrong_grammar_route, capsys):
    assert main(["check", p1_file, "--max-len", "4"]) == 1
    assert capsys.readouterr().out == (
        "mismatches:\n"
        "  'ab'  pda=yes sspda=yes cfg=yes wrong=no\n"
        "  'aabb'  pda=yes sspda=yes cfg=yes wrong=no\n"
        "checked=31 agree=29 mismatch=2 inconclusive=0\n")


def test_check_prints_mismatches_and_inconclusive_strings_together(
        p1_file, a_wrong_grammar_route, capsys):
    assert main(["check", p1_file, "--max-len", "6",
                 "--max-configs", "40", "--max-depth", "5"]) == 1
    assert capsys.readouterr().out == (
        "mismatches:\n"
        "  'ab'  pda=yes sspda=yes cfg=yes wrong=no\n"
        "  'aabb'  pda=yes sspda=yes cfg=yes wrong=no\n"
        "  'aaabbb'  pda=yes sspda=inconclusive cfg=yes wrong=no\n"
        "inconclusive strings: 'aaaa' 'aaaaa' 'aaaab' 'aaabb' 'aaaaaa' 'aaaaab' 'aaaaba'"
        " 'aaaabb' 'aaabba'\n"
        "checked=127 agree=115 mismatch=3 inconclusive=9\n")


# A push loop at the root that no move pops leaves every string of the
# automaton inconclusive, and its grammars reject them all.
@pytest.mark.parametrize("max_len, more", [("9", ""), ("10", " ...")], ids=["ten", "eleven"])
def test_check_marks_inconclusive_strings_past_the_tenth(max_len, more, tmp_path, capsys):
    path = tmp_path / "loop.pda"
    path.write_text("states: q\ninput: a\nstack: Z\nstart: q\nstartstack: Z\n"
                    "q eps Z -> q Z Z\nq a Z -> q Z\n")
    assert main(["check", str(path), "--classical", "--max-len", max_len]) == 2
    count = int(max_len) + 1
    assert capsys.readouterr().out == (
        "inconclusive strings: " + " ".join(f"'{'a' * n}'" for n in range(10)) + more
        + f"\nchecked={count} agree=0 mismatch=0 inconclusive={count}\n")


def _check_in_a_fresh_process(path, max_len):
    """Exit code, stdout and peak RSS in KiB of `check --classical` run in a
    child interpreter, which reads its own peak before it exits.  The peak
    is the kernel's VmHWM: Linux carries ``ru_maxrss`` over from the parent
    across exec, so in a child of this test process it would read at least
    the test process's own peak."""
    src = str(Path(pdacfg.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import re, sys\n"
            "from pdacfg.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "sys.stdout.flush()\n"
            "with open('/proc/self/status') as status:\n"
            "    peak = re.search(r'VmHWM:\\s+(\\d+) kB', status.read()).group(1)\n"
            "print(peak, file=sys.stderr)\n"
            "sys.exit(code)\n")
    done = subprocess.run(
        [sys.executable, "-c", code, "check", str(path), "--classical", "--max-len", max_len],
        env=env, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, int(done.stderr.split()[-1])


def test_check_memory_does_not_grow_with_the_bound(tmp_path):
    entry = next(e for e in builtin_corpus() if e.name == "P5")
    path = tmp_path / "P5.pda"
    path.write_text(render(entry.pda))
    code, out, long_kib = _check_in_a_fresh_process(path, "16")
    assert code == 2
    assert out.splitlines()[-1] == "checked=131071 agree=0 mismatch=0 inconclusive=131071"
    _, _, short_kib = _check_in_a_fresh_process(path, "8")
    assert long_kib - short_kib <= 2048


AGREED_511 = "checked=511 agree=511 mismatch=0 inconclusive=0\n"

# Exit code and stdout of `check --classical --max-len 8` and of
# `enum --max-len 8` on each corpus automaton; enum prints the same for the
# automaton and for its single-state form.
CORPUS_AT_LENGTH_8 = {
    "P0": (0, "checked=9 agree=9 mismatch=0 inconclusive=0\n", 0, "a\n"),
    "P1": (0, AGREED_511, 0, "\nab\naabb\naaabbb\naaaabbbb\n"),
    "P2": (0, AGREED_511, 0,
           "\n()\n(())\n()()\n((()))\n(()())\n(())()\n()(())\n()()()\n(((())))\n"
           "((()()))\n((())())\n((()))()\n(()(()))\n(()()())\n(()())()\n(())(())\n"
           "(())()()\n()((()))\n()(()())\n()(())()\n()()(())\n()()()()\n"),
    "P3": (0, AGREED_511, 0,
           "\naa\nbb\naaaa\nabba\nbaab\nbbbb\naaaaaa\naabbaa\nabaaba\nabbbba\n"
           "baaaab\nbabbab\nbbaabb\nbbbbbb\naaaaaaaa\naaabbaaa\naabaabaa\naabbbbaa\n"
           "abaaaaba\nababbaba\nabbaabba\nabbbbbba\nbaaaaaab\nbaabbaab\nbabaabab\n"
           "babbbbab\nbbaaaabb\nbbabbabb\nbbbaabbb\nbbbbbbbb\n"),
    "P4": (0, AGREED_511, 0, ""),
    "P5": (2, "inconclusive strings: '' 'a' 'b' 'aa' 'ab' 'ba' 'bb' 'aaa' 'aab' 'aba' ...\n"
              "checked=511 agree=0 mismatch=0 inconclusive=511\n", 2, ""),
}


@pytest.mark.parametrize("name", sorted(CORPUS_AT_LENGTH_8))
def test_corpus_output_at_length_8_is_pinned(name, tmp_path, capsys):
    check_code, check_out, enum_code, enum_out = CORPUS_AT_LENGTH_8[name]
    entry = next(e for e in builtin_corpus() if e.name == name)
    pda = tmp_path / f"{name}.pda"
    pda.write_text(render(entry.pda))
    sspda = tmp_path / f"{name}.sspda"
    assert main(["convert", str(pda), "--stage", "sspda", "-o", str(sspda)]) == 0
    capsys.readouterr()
    assert main(["check", str(pda), "--classical", "--max-len", "8"]) == check_code
    assert capsys.readouterr().out == check_out
    for path in (pda, sspda):
        assert main(["enum", str(path), "--max-len", "8"]) == enum_code
        assert capsys.readouterr().out == enum_out


# Expected stdout of each command on each corpus automaton, byte for byte,
# in tests/pinned/<name>.<label>.txt.
PINNED = Path(__file__).parent / "pinned"
PINNED_COMMANDS = {
    "sspda-verbose": ["convert", "--stage", "sspda", "--verbose"],
    "cfg-verbose": ["convert", "--verbose"],
    "classical-verbose": ["convert", "--classical", "--verbose"],
    "prune-verbose": ["convert", "--prune", "--verbose"],
    "classical-prune-verbose": ["convert", "--classical", "--prune", "--verbose"],
    "stats": ["stats"],
}


@pytest.mark.parametrize("label", sorted(PINNED_COMMANDS))
@pytest.mark.parametrize("name", sorted(CORPUS_AT_LENGTH_8))
def test_convert_and_stats_output_is_pinned(name, label, tmp_path, capsys):
    entry = next(e for e in builtin_corpus() if e.name == name)
    pda = tmp_path / f"{name}.pda"
    pda.write_text(render(entry.pda))
    command, *flags = PINNED_COMMANDS[label]
    assert main([command, str(pda), *flags]) == 0
    expected = (PINNED / f"{name}.{label}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_stats_prints_key_value_lines(p1_file, capsys):
    assert main(["stats", p1_file]) == 0
    out = capsys.readouterr().out
    assert "predicted_ss_transitions=14" in out
    assert "actual_ss_transitions=14" in out
    assert "triple_count=8" in out


def test_usage_errors_exit_64(capsys):
    assert main(["frobnicate"]) == 64
    assert main([]) == 64
    assert main(["convert"]) == 64
    capsys.readouterr()
    assert main(["enum", "any.pda", "--max-len", "1.5"]) == 64
    assert "usage error: argument --max-len: invalid int value: '1.5'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["check", "{p1}", "--max-len", "-1"],
    ["enum", "{p1}", "--max-len", "-1"],
    ["run", "{p1}", "ab", "--max-configs", "-1"],
    ["run", "{p1}", "ab", "--max-configs", "0"],
    ["run", "{p1}", "ab", "--max-depth", "0"],
    ["check", "{p1}", "--max-depth", "-3"],
    ["enum", "{p1}", "--max-len", "2", "--max-configs", "0"],
])
def test_out_of_range_numbers_are_usage_errors(p1_file, capsys, argv):
    assert main([arg.format(p1=p1_file) for arg in argv]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage error" in captured.err


def test_zero_length_bound_checks_the_empty_string(p1_file, capsys):
    assert main(["check", p1_file, "--max-len", "0"]) == 0
    assert "checked=1 agree=1" in capsys.readouterr().out


def test_flag_conflicts_are_usage_errors(p1_file, capsys):
    assert main(["convert", p1_file, "--stage", "sspda", "--prune"]) == 64
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("flags", [["-o", ""], ["--output=", "--stage", "sspda"]])
def test_an_empty_output_path_is_a_usage_error(p1_file, capsys, flags):
    assert main(["convert", p1_file, *flags]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "usage error: -o/--output needs a file name\n"


def test_parse_error_exits_65_with_empty_stdout(tmp_path, capsys):
    bad = tmp_path / "bad.pda"
    bad.write_text(P1_TEXT.replace("q1 eps Z -> q1 eps", "q1 eps Z -> q9 eps"))
    assert main(["convert", str(bad)]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "q9" in captured.err


def test_wrong_kind_of_file_exits_65(p1_file, tmp_path, capsys):
    cfg_path = tmp_path / "P1.cfg"
    sspda_path = tmp_path / "P1.sspda"
    main(["convert", p1_file, "-o", str(cfg_path)])
    main(["convert", p1_file, "--stage", "sspda", "-o", str(sspda_path)])
    for command, path, message in [
        ("run", cfg_path, "holds a grammar; this command needs an automaton"),
        ("member", p1_file, "holds a multistate PDA; this command needs a grammar"),
        ("member", sspda_path,
         "holds a single-state automaton; this command needs a grammar"),
    ]:
        assert main([command, str(path), "ab"]) == 65
        assert capsys.readouterr() == ("", f"error: {path} {message}\n")


def test_member_keeps_the_grammar_parser_diagnostics(tmp_path, capsys):
    # A broken grammar is reported by the grammar parser; a broken PDA file
    # by the PDA parser, which names the real fault rather than the header.
    for name, text, message in [
        ("bad.cfg", "variables: S\nS -> -> a\n", "line 2: invalid symbol '->'"),
        ("bad.pda", P1_TEXT.replace("q1 eps Z -> q1 eps", "q1 eps Z -> q9 eps"),
         "line 11: undeclared state 'q9'"),
    ]:
        path = tmp_path / name
        path.write_text(text)
        assert main(["member", str(path), "ab"]) == 65
        assert capsys.readouterr() == ("", f"error: {message}\n")


def test_convert_output_is_deterministic(p1_file, capsys):
    main(["convert", p1_file])
    first = capsys.readouterr().out
    main(["convert", p1_file])
    assert capsys.readouterr().out == first


@pytest.mark.parametrize("command", [["convert"], ["check", "--max-len", "2"], ["stats"]])
@pytest.mark.parametrize("flags, kind", [
    (["--stage", "sspda"], "a single-state automaton"),
    ([], "a grammar"),
])
def test_pda_commands_name_the_kind_of_file_they_were_given(
        p1_file, tmp_path, capsys, command, flags, kind):
    converted = tmp_path / "P1.out"
    assert main(["convert", p1_file, *flags, "-o", str(converted)]) == 0
    assert main([command[0], str(converted), *command[1:]]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {converted} holds {kind}; this command needs a multistate PDA\n")


@pytest.mark.parametrize("command", ["convert", "check", "stats"])
def test_pda_commands_keep_the_pda_parser_diagnostics(tmp_path, capsys, command):
    # A well-formed triple makes the file single-state; the PDA parser
    # still names the fault for a command that takes only a PDA.
    path = tmp_path / "bad.pda"
    path.write_text(P1_TEXT.replace("stack: Z A", "stack: Z [q0,A,q0]"))
    assert main([command, str(path)]) == 65
    assert capsys.readouterr() == ("", "error: line 3: invalid stack symbol '[q0,A,q0]'\n")


EVERY_COMMAND = [
    ["run", "ab"], ["enum", "--max-len", "2"], ["convert"], ["check"], ["stats"],
    ["member", "ab"],
]


@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_missing_file_exits_65(tmp_path, capsys, command):
    missing = tmp_path / "no-such-file"
    assert main([command[0], str(missing), *command[1:]]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1 and captured.err.endswith("\n")
    assert str(missing) in captured.err


@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_a_malformed_bracketed_stack_token_is_reported_by_every_command(
        tmp_path, capsys, command):
    # "[A" decodes to no triple, so the file is a PDA with a bad symbol
    path = tmp_path / "bad.pda"
    path.write_text(P1_TEXT.replace("stack: Z A", "stack: Z [A"))
    assert main([command[0], str(path), *command[1:]]) == 65
    assert capsys.readouterr() == ("", "error: line 3: invalid stack symbol '[A'\n")


@pytest.mark.parametrize("command", EVERY_COMMAND)
def test_a_pda_file_without_its_states_header_is_reported_by_every_command(
        tmp_path, capsys, command):
    # its other PDA headers still mark it as a PDA
    path = tmp_path / "bad.pda"
    path.write_text(P1_TEXT.replace("states: q0 q1\n", ""))
    assert main([command[0], str(path), *command[1:]]) == 65
    assert capsys.readouterr() == ("", "error: missing header 'states'\n")


TWELVE_STATES_ONE_LONG_PUSH = (
    "states: " + " ".join(f"q{i}" for i in range(12)) + "\n"
    "input: a\nstack: Z\nstart: q0\nstartstack: Z\n"
    "q0 a Z -> q0 Z Z Z Z Z Z\n")


@pytest.mark.parametrize("command", [
    ["convert"], ["convert", "--classical"], ["convert", "--stage", "sspda"],
    ["check"], ["stats"],
])
def test_automata_over_the_conversion_budget_exit_65(tmp_path, capsys, command):
    # 12 + 12**6 predicted rows; refused before anything is built
    path = tmp_path / "big.pda"
    path.write_text(TWELVE_STATES_ONE_LONG_PUSH)
    started = time.perf_counter()
    assert main([command[0], str(path), *command[1:]]) == 65
    assert time.perf_counter() - started < 1
    assert capsys.readouterr() == (
        "", "error: conversion would build 2985996 rows, over the budget of 250000\n")


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_quick_start_runs_as_written(tmp_path, monkeypatch, capsys):
    # Writes the README's anbn.pda, then runs each `$ pdacfg ...` line of
    # the quick start and compares its stdout with the lines printed under it.
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("$ cat > anbn.pda <<'EOF'")
    end = lines.index("EOF", start)
    monkeypatch.chdir(tmp_path)
    Path("anbn.pda").write_text("\n".join(lines[start + 1:end]) + "\n")
    first = next(i for i in range(end, len(lines)) if lines[i].startswith("$ pdacfg "))
    sessions = []
    for line in lines[first:lines.index("```", first)]:
        if line.startswith("$ pdacfg "):
            command = line[len("$ pdacfg "):].split("#")[0].split("&&")[0]
            sessions.append((shlex.split(command), []))
        else:
            sessions[-1][1].append(line)
    assert len(sessions) == 7
    for argv, expected in sessions:
        assert main(argv) == 0, argv
        if expected:
            assert capsys.readouterr().out.splitlines() == expected, argv
        capsys.readouterr()
    witnessed = {tuple(argv): expected for argv, expected in sessions}
    assert len(witnessed[("run", "anbn.pda", "aabb")]) == 5
    assert witnessed[("check", "anbn.pda", "--max-len", "8", "--classical")] == [
        "checked=511 agree=511 mismatch=0 inconclusive=0"]


def test_readme_library_example_runs_as_written(capsys):
    # README's only python block, executed as it stands.
    lines = README.read_text(encoding="utf-8").splitlines()
    start = lines.index("```python")
    assert "```python" not in lines[start + 1:]
    exec("\n".join(lines[start + 1:lines.index("```", start)]), {})
    assert capsys.readouterr().out == "checked=511 agree=511 mismatch=0 inconclusive=0\n"
