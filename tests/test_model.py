import pytest

from pdacfg import Pda, Transition, validate_pda
from pdacfg.model import is_input_symbol, is_token


def test_corpus_p1_is_valid(corpus):
    assert validate_pda(corpus["P1"].pda) == []


def test_undeclared_start_state_is_one_violation():
    pda = Pda({"q0"}, {"a"}, {"Z"}, set(), "q9", "Z")
    problems = validate_pda(pda)
    assert len(problems) == 1
    assert "q9" in problems[0]


def test_undeclared_pop_symbol_is_one_violation():
    pda = Pda({"q0"}, {"a"}, {"Z"},
              {Transition("q0", "a", "W", "q0", ())}, "q0", "Z")
    problems = validate_pda(pda)
    assert len(problems) == 1
    assert "'W'" in problems[0]


def test_every_component_gets_checked():
    pda = Pda({"q,0"}, {"ab"}, {"Z"}, set(), "q,0", "Z")
    problems = validate_pda(pda)
    assert any("state name" in p for p in problems)
    assert any("input symbol" in p for p in problems)
    # One row per further component: (automaton, the problems it has).
    stray = Transition("q9", "c", "Z", "q8", ())
    rows = [
        (Pda(set(), {"a"}, {"Z"}, set(), "q0", "Z"),
         ["state set is empty", "start state 'q0' is not a declared state"]),
        (Pda({"q0"}, {"a"}, {"Z"}, set(), "q0", "W"),
         ["start stack symbol 'W' is not a declared stack symbol"]),
        (Pda({"q0"}, {"a"}, {"Z,"}, set(), "q0", "Z,"),
         ["stack symbol 'Z,' is not a valid token"]),
        (Pda({"q0"}, {"a"}, {"Z"}, {stray}, "q0", "Z"),
         [f"transition '{stray}' leaves undeclared state 'q9'",
          f"transition '{stray}' enters undeclared state 'q8'",
          f"transition '{stray}' reads undeclared input symbol 'c'"]),
    ]
    for pda, problems in rows:
        assert validate_pda(pda) == problems


def test_undeclared_push_symbol_is_reported():
    pda = Pda({"q0"}, {"a"}, {"Z"},
              {Transition("q0", "a", "Z", "q0", ("Q",))}, "q0", "Z")
    assert any("pushes" in p and "'Q'" in p for p in validate_pda(pda))


@pytest.mark.parametrize("name, ok", [
    ("q0", True), ("Z", True), ("loop_9", True),
    ("", False), ("eps", False), ("->", False), ("a b", False),
    ("q,0", False), ("[x]", False), ("a:b", False), ("x|y", False),
])
def test_token_rule(name, ok):
    assert is_token(name) is ok


@pytest.mark.parametrize("ch, ok", [
    ("a", True), ("(", True), ("0", True),
    ("ab", False), (" ", False), ("#", False), ("|", False), ("", False),
])
def test_input_symbol_rule(ch, ok):
    assert is_input_symbol(ch) is ok
