import pytest
from hypothesis import given

from pdacfg import (
    Cfg,
    P1_TEXT,
    ParseError,
    Pda,
    SingleStatePda,
    Transition,
    Triple,
    builtin_corpus,
    classical_pda_to_cfg,
    parse_cfg,
    parse_pda,
    parse_source,
    parse_sspda,
    pda_to_cfg,
    prune_useless,
    render,
    to_single_state,
)

from strategies import cfgs, pdas


def test_p1_file_counts():
    pda = parse_pda(P1_TEXT)
    assert len(pda.states) == 2
    assert len(pda.input_alphabet) == 2
    assert len(pda.stack_alphabet) == 2
    assert len(pda.transitions) == 6
    assert pda.start_state == "q0"
    assert pda.start_stack == "Z"


def test_eps_keyword_makes_epsilon_move_with_empty_push():
    pda = parse_pda("states: q0\ninput: a\nstack: Z\nstart: q0\nstartstack: Z\n"
                    "q0 eps Z -> q0 eps\n")
    assert pda.transitions == {Transition("q0", None, "Z", "q0", ())}


def test_undeclared_state_reports_line_and_token():
    text = P1_TEXT.replace("q0 b A -> q1 eps", "q0 b A -> q9 eps")
    with pytest.raises(ParseError) as err:
        parse_pda(text)
    assert "q9" in str(err.value)
    assert err.value.line == 8


def test_comments_and_blank_lines_are_ignored():
    text = "# automaton\n\n" + P1_TEXT.replace(
        "q0 a Z -> q0 A Z", "q0 a Z -> q0 A Z  # push")
    assert parse_pda(text) == parse_pda(P1_TEXT)


@pytest.mark.parametrize("text, fragment", [
    ("states: q0 q1\n" + P1_TEXT, "duplicate header"),
    (P1_TEXT.replace("startstack: Z\n", ""), "missing header"),
    (P1_TEXT + "q0 a\n", "malformed transition"),
    (P1_TEXT.replace("states: q0 q1", "states:"), "empty state set"),
    (P1_TEXT + "q0 a Z -> q0 W\n", "undeclared stack symbol"),
    (P1_TEXT.replace("start: q0", "begin: q0"), "unknown header"),
])
def test_parse_pda_failures(text, fragment):
    with pytest.raises(ParseError) as err:
        parse_pda(text)
    assert fragment in str(err.value)


def test_render_is_idempotent_on_the_corpus():
    for entry in builtin_corpus():
        once = render(entry.pda)
        assert render(parse_pda(once)) == once


def test_render_ignores_construction_order():
    moves = [Transition("q0", "a", "Z", "q0", ("A", "Z")),
             Transition("q0", None, "Z", "q0", ())]
    one = Pda(["q0"], ["a"], ["Z", "A"], moves, "q0", "Z")
    other = Pda(["q0"], ["a"], ["A", "Z"], reversed(moves), "q0", "Z")
    assert one == other
    assert render(one) == render(other)


def test_epsilon_production_renders_as_eps():
    assert render(Cfg({"S"}, set(), {("S", ())}, "S")) == "S -> eps\n"
    with pytest.raises(TypeError, match="cannot render int"):
        render(42)


def test_parse_cfg_expands_alternatives():
    cfg = parse_cfg("S -> a S b | eps\n")
    assert cfg.start == "S"
    assert cfg.productions == {("S", ("a", "S", "b")), ("S", ())}
    assert cfg.terminals == {"a", "b"}
    assert cfg.variables == {"S"}


def test_bracketed_tokens_are_always_variables():
    cfg = parse_cfg("S -> [q0,Z,q1] a\n")
    assert "[q0,Z,q1]" in cfg.variables
    assert cfg.terminals == {"a"}


def test_undeclared_terminal_with_explicit_header_fails():
    with pytest.raises(ParseError) as err:
        parse_cfg("terminals: a\nS -> a b\n")
    assert "'b'" in str(err.value)


def test_undeclared_variable_with_explicit_header_fails():
    # single-character body tokens fall back to terminals, so the undeclared
    # reference must be a head or a multi-character token
    with pytest.raises(ParseError):
        parse_cfg("variables: S\nS -> Loop a\n")
    with pytest.raises(ParseError):
        parse_cfg("variables: S\nA -> a\n")


def test_cfg_headers_cover_unreferenced_symbols():
    cfg = Cfg({"S", "Dead"}, {"a", "b"}, {("S", ("a",))}, "S")
    text = render(cfg)
    assert "variables:" in text and "terminals:" in text
    assert parse_cfg(text) == cfg


def test_grammar_without_productions_needs_a_start_header():
    with pytest.raises(ParseError):
        parse_cfg("# nothing here\n")
    cfg = parse_cfg("variables: S\nstart: S\n")
    assert cfg.start == "S"
    assert cfg.productions == frozenset()


def test_verbose_sspda_render_carries_provenance_comments():
    sspda = to_single_state(parse_pda(P1_TEXT))
    text = render(sspda, verbose=True)
    assert "# from: rule2 q0 a Z -> q0 A Z" in text
    assert "# from: rule3" in text
    assert parse_sspda(text) == sspda


def test_verbose_notes_depend_only_on_the_automaton(corpus):
    # a parsed single-state file is noted as the automaton it equals
    for name, entry in corpus.items():
        sspda = to_single_state(entry.pda)
        noted = render(sspda, verbose=True)
        assert render(parse_sspda(render(sspda)), verbose=True) == noted, name


def test_rows_no_move_builds_render_without_a_note():
    # no move builds a chain that does not link, or a row popping Zs that
    # reads input
    text = ("states: qm\ninput: a\nstack: Zs [p,X,s] [r,A,q] [t,B,s]\n"
            "start: qm\nstartstack: Zs\n"
            "qm eps Zs -> qm [p,X,s]\nqm a Zs -> qm [p,X,s]\n"
            "qm a [p,X,s] -> qm [r,A,q] [t,B,s]\n")
    lines = render(parse_sspda(text), verbose=True).splitlines()
    assert lines[-3:] == ["qm a Zs -> qm [p,X,s]",
                          "qm a [p,X,s] -> qm [r,A,q] [t,B,s]",
                          "qm eps Zs -> qm [p,X,s]  # from: rule3"]
    # nor a row pushing Zs, which only a directly built automaton can hold
    pushes = Transition("qm", "a", Triple("p", "X", "s"), "qm", ("Zs",))
    built = SingleStatePda(frozenset("a"), frozenset({"Zs", pushes.pop}), frozenset({pushes}))
    assert render(built, verbose=True).splitlines()[-1] == "qm a [p,X,s] -> qm Zs"


def test_verbose_cfg_render_carries_provenance_comments():
    cfg = pda_to_cfg(parse_pda(P1_TEXT))
    text = render(cfg, verbose=True)
    assert "# from: qm" in text
    assert parse_cfg(text) == cfg


def test_verbose_notes_depend_only_on_the_grammar(corpus):
    # a parsed grammar is noted as the grammar it equals, on either route,
    # pruned or not
    for name, entry in corpus.items():
        for built in (pda_to_cfg(entry.pda), classical_pda_to_cfg(entry.pda)):
            for cfg in (built, prune_useless(built)):
                noted = render(cfg, verbose=True)
                assert render(parse_cfg(render(cfg)), verbose=True) == noted, name


def test_productions_no_construction_builds_render_without_a_note():
    # a unit production between plain variables, in a grammar started by S
    cfg = parse_cfg("S -> A | [p,X,q]\nA -> a\n[p,X,q] -> b\n")
    assert render(cfg, verbose=True).splitlines() == [
        "start: S", "A -> a", "S -> A", "S -> [p,X,q]  # from: start seeding",
        "[p,X,q] -> b  # from: p b X -> q eps"]
    # a production pushing Zs, in a grammar started by Zs
    cfg = parse_cfg("Zs -> [p,X,q]\n[p,X,q] -> a Zs\n")
    assert render(cfg, verbose=True).splitlines() == [
        "Zs -> [p,X,q]  # from: qm eps Zs -> qm [p,X,q]", "[p,X,q] -> a Zs"]


def test_parse_source_distinguishes_the_three_formats():
    pda = parse_pda(P1_TEXT)
    assert parse_source(P1_TEXT) == pda
    sspda = to_single_state(pda)
    assert parse_source(render(sspda)) == sspda
    cfg = parse_cfg("S -> a\n")
    assert parse_source(render(cfg)) == cfg


@pytest.mark.parametrize("header", ["states", "input", "stack", "startstack"])
def test_any_header_only_a_pda_has_marks_a_pda_file(header):
    kept = [line for line in P1_TEXT.splitlines(keepends=True)
            if " -> " in line or line.startswith(f"{header}:")]
    with pytest.raises(ParseError, match="missing header"):
        parse_source("".join(kept))
    # start: is a grammar header too
    assert parse_source("start: S\nS -> a\n") == parse_cfg("S -> a\n")


def test_sspda_parser_rejects_pushing_the_start_marker():
    pda = Pda({"p"}, {"a"}, {"Z"}, {Transition("p", "a", "Z", "p", ())},
              "p", "Z")
    text = render(to_single_state(pda))
    broken = text.replace("qm eps Zs -> qm [p,Z,p]", "qm eps Zs -> qm Zs")
    with pytest.raises(ParseError) as err:
        parse_sspda(broken)
    assert "Zs" in str(err.value)


@given(pdas())
def test_pda_round_trip(pda):
    assert parse_pda(render(pda)) == pda


@given(pdas())
def test_sspda_round_trip(pda):
    sspda = to_single_state(pda)
    assert parse_sspda(render(sspda)) == sspda


@given(cfgs())
def test_cfg_round_trip(cfg):
    assert parse_cfg(render(cfg)) == cfg


def _edit(text, old, new):
    assert old in text
    return text.replace(old, new, 1)


# One fault per case: (edited text, line of the ParseError, exact message).
PDA_FAULTS = {
    "bad state token": (_edit(P1_TEXT, "states: q0 q1", "states: q0 q,1"),
                        1, "invalid state name 'q,1'"),
    "bad input token": (_edit(P1_TEXT, "input: a b", "input: a bb"),
                        2, "invalid input symbol 'bb'"),
    "bad stack token": (_edit(P1_TEXT, "stack: Z A", "stack: Z A eps"),
                        3, "invalid stack symbol 'eps'"),
    "undeclared start": (_edit(P1_TEXT, "start: q0", "start: q9"),
                         4, "undeclared state 'q9'"),
    "undeclared startstack": (_edit(P1_TEXT, "startstack: Z", "startstack: W"),
                              5, "undeclared stack symbol 'W'"),
    "two-token start": (_edit(P1_TEXT, "start: q0", "start: q0 q1"),
                        4, "header 'start' needs exactly one symbol"),
    "undeclared from": (P1_TEXT + "q9 a Z -> q0 eps\n", 12, "undeclared state 'q9'"),
    "undeclared to": (P1_TEXT + "q0 a Z -> q9 eps\n", 12, "undeclared state 'q9'"),
    "undeclared input": (P1_TEXT + "q0 c Z -> q0 eps\n", 12,
                         "undeclared input symbol 'c'"),
    "undeclared pop": (P1_TEXT + "q0 a W -> q0 eps\n", 12,
                       "undeclared stack symbol 'W'"),
    "eps inside push": (P1_TEXT + "q0 a Z -> q0 A eps\n", 12,
                        "eps cannot appear inside a push sequence"),
    "empty state set": (_edit(P1_TEXT, "states: q0 q1", "states:"), 1, "empty state set"),
}


@pytest.mark.parametrize("case", sorted(PDA_FAULTS))
def test_parse_pda_fault_table(case):
    text, line, message = PDA_FAULTS[case]
    with pytest.raises(ParseError) as err:
        parse_pda(text)
    assert (err.value.line, err.value.message) == (line, message)


# One fault per case: (text, line of the ParseError, exact message).
CFG_FAULTS = {
    "malformed line": ("S a b\n", 1,
                       "malformed production line (want: HEAD -> BODY | BODY ...)"),
    "invalid head": ("[p,X -> a\n", 1, "invalid variable '[p,X'"),
    "empty alternative": ("S -> a | | b\n", 1, "empty alternative"),
    "eps inside body": ("S -> a eps\n", 1, "eps cannot appear inside a body"),
    "invalid start": ("start: [x\nS -> a\n", 1, "invalid variable '[x'"),
    "undeclared start": ("variables: S\nstart: T\nS -> a\n", 2, "undeclared variable 'T'"),
    "variable and terminal": ("variables: S a\nterminals: a\nS -> S\n", None,
                              "symbol 'a' declared both variable and terminal"),
}


@pytest.mark.parametrize("case", sorted(CFG_FAULTS))
def test_parse_cfg_fault_table(case):
    text, line, message = CFG_FAULTS[case]
    with pytest.raises(ParseError) as err:
        parse_cfg(text)
    assert (err.value.line, err.value.message) == (line, message)


SSPDA_TEXT = """\
states: qm
input: a
stack: Zs [p,Z,p]
start: qm
startstack: Zs
qm eps Zs -> qm [p,Z,p]
qm a [p,Z,p] -> qm eps
"""

# One fault per case: (edited text, line of the ParseError).  The messages
# are not pinned: where a check shared with the PDA format reports the
# fault, its wording is the PDA format's.
SSPDA_FAULTS = {
    "other state": (_edit(SSPDA_TEXT, "states: qm", "states: q0"), 1),
    "no state": (_edit(SSPDA_TEXT, "states: qm", "states:"), 1),
    "second state": (_edit(SSPDA_TEXT, "states: qm", "states: qm q1"), 1),
    "bad input symbol": (_edit(SSPDA_TEXT, "input: a", "input: a bb"), 2),
    "plain stack symbol": (_edit(SSPDA_TEXT, "stack: Zs [p,Z,p]", "stack: Zs [p,Z,p] W"), 3),
    "Zs not declared": (_edit(SSPDA_TEXT, "stack: Zs [p,Z,p]", "stack: [p,Z,p]"), 3),
    "other start state": (_edit(SSPDA_TEXT, "start: qm", "start: q0"), 4),
    "triple as startstack": (_edit(SSPDA_TEXT, "startstack: Zs", "startstack: [p,Z,p]"), 5),
    "malformed line": (SSPDA_TEXT + "qm a Zs\n", 8),
    "move leaves qm": (SSPDA_TEXT + "q1 a Zs -> qm eps\n", 8),
    "move enters q1": (SSPDA_TEXT + "qm a Zs -> q1 eps\n", 8),
    "undeclared input": (SSPDA_TEXT + "qm b Zs -> qm eps\n", 8),
    "invalid input": (SSPDA_TEXT + "qm ab Zs -> qm eps\n", 8),
    "undeclared pop": (SSPDA_TEXT + "qm a [p,A,p] -> qm eps\n", 8),
    "undeclared push": (SSPDA_TEXT + "qm a Zs -> qm [p,A,p]\n", 8),
    "eps inside push": (SSPDA_TEXT + "qm a Zs -> qm [p,Z,p] eps\n", 8),
    "pushed Zs": (SSPDA_TEXT + "qm a Zs -> qm Zs\n", 8),
    "duplicate header": (SSPDA_TEXT + "input: a\n", 8),
    "missing header": (_edit(SSPDA_TEXT, "start: qm\n", ""), None),
}


@pytest.mark.parametrize("case", sorted(SSPDA_FAULTS))
def test_parse_sspda_fault_table(case):
    text, line = SSPDA_FAULTS[case]
    with pytest.raises(ParseError) as err:
        parse_sspda(text)
    assert err.value.line == line


def test_sspda_fault_table_base_text_parses():
    sspda = parse_sspda(SSPDA_TEXT)
    assert len(sspda.transitions) == 2


FAULT_FILES = {**{f"pda {case}": (text, line) for case, (text, line, _) in PDA_FAULTS.items()},
               **{f"sspda {case}": fault for case, fault in SSPDA_FAULTS.items()}}


@pytest.mark.parametrize("case", sorted(FAULT_FILES))
def test_fault_table_through_the_cli(case, tmp_path, capsys):
    from pdacfg.cli import main

    text, line = FAULT_FILES[case]
    path = tmp_path / "fault.pda"
    path.write_text(text)
    assert main(["enum", str(path), "--max-len", "1"]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    if line is not None:
        assert captured.err.startswith(f"error: line {line}: ")
