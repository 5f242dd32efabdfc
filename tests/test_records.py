"""Value semantics of the record types: equality, hashing, repr,
immutability and copying, as each type's callers rely on them."""

import copy

import pytest

from pdacfg import (
    Cfg,
    Configuration,
    EquivalenceReport,
    Limits,
    Pda,
    SingleStatePda,
    Transition,
    Triple,
    Verdict,
)
from pdacfg.harness import CorpusEntry
from pdacfg.singlestate import SizeStats

MOVE = "Transition(from_state='q0', input='a', pop='Z', to_state='q0', push=('A',))"
PDA = ("Pda(states=frozenset({'q0'}), input_alphabet=frozenset({'a'}), "
       "stack_alphabet=frozenset({'Z'}), transitions=frozenset(), "
       "start_state='q0', start_stack='Z')")


def _pda():
    return Pda({"q0"}, {"a"}, {"Z"}, set(), "q0", "Z")


# A builder per record type, called twice to get two equal values, and the
# repr each value has always had.
RECORDS = [
    (lambda: Transition("q0", "a", "Z", "q0", ("A",)), MOVE),
    (lambda: Triple("p", "X", "q"), "Triple(from_state='p', base='X', to_state='q')"),
    (lambda: Configuration("q0", 1, ("Z",)),
     "Configuration(state='q0', input_pos=1, stack=('Z',))"),
    (_pda, PDA),
    (lambda: SingleStatePda(frozenset({"a"}), frozenset({"Zs"}), frozenset()),
     "SingleStatePda(input_alphabet=frozenset({'a'}), stack_alphabet=frozenset({'Zs'}), "
     "transitions=frozenset())"),
    (lambda: Cfg({"S"}, {"a"}, {("S", ("a",))}, "S"),
     "Cfg(variables=frozenset({'S'}), terminals=frozenset({'a'}), "
     "productions=frozenset({('S', ('a',))}), start='S', origins=None)"),
    (lambda: Limits(7, 3), "Limits(max_configs=7, max_stack_depth=3)"),
    (lambda: Verdict("accepted", witness=(Transition("q0", "a", "Z", "q0", ("A",)),)),
     f"Verdict(kind='accepted', witness=({MOVE},), reason='')"),
    (lambda: SizeStats(1, 2, 3, 4, 5, 6, 7, 8, 9),
     "SizeStats(q_count=1, gamma_count=2, source_transition_count=3, triple_count=4, "
     "ss_symbol_count=5, referenced_ss_symbol_count=6, predicted_ss_transitions=7, "
     "actual_ss_transitions=8, collision_count=9)"),
    (lambda: EquivalenceReport(("pda", "cfg"), frozenset({"a"}), 1, 2, (),
                               (("a", "pda"),), 0.5),
     "EquivalenceReport(sources=('pda', 'cfg'), alphabet=frozenset({'a'}), max_len=1, "
     "agreements=2, mismatches=(), inconclusive=(('a', 'pda'),), elapsed=0.5)"),
    (lambda: CorpusEntry("P0", _pda(), frozenset({"a"}), "n", 4),
     f"CorpusEntry(name='P0', pda={PDA}, expected_members=frozenset({{'a'}}), "
     "notes='n', sample_max_len=4)"),
]

KINDS = [text.split("(")[0] for _, text in RECORDS]


@pytest.mark.parametrize("build, text", RECORDS, ids=KINDS)
def test_a_rebuilt_record_is_equal_hashes_alike_and_keeps_its_repr(build, text):
    first, second = build(), build()
    assert first is not second
    assert first == second
    assert hash(first) == hash(second)
    assert repr(first) == text
    assert copy.deepcopy(first) == first


@pytest.mark.parametrize("build, text", RECORDS, ids=KINDS)
def test_records_are_immutable(build, text):
    record = build()
    first_field = text[text.index("(") + 1:text.index("=")]
    assert hasattr(record, first_field)
    with pytest.raises(AttributeError):
        setattr(record, first_field, None)


def test_a_record_hashes_as_the_tuple_of_its_compared_fields():
    move = Transition("q0", "a", "Z", "q0", ("A",))
    assert hash(move) == hash(("q0", "a", "Z", "q0", ("A",)))
    pda = _pda()
    assert hash(pda) == hash((pda.states, pda.input_alphabet, pda.stack_alphabet,
                              pda.transitions, pda.start_state, pda.start_stack))


def test_diagnostic_maps_stay_out_of_equality_and_hashing():
    productions = {("S", ("a",))}
    plain = Cfg({"S"}, {"a"}, productions, "S")
    noted = Cfg({"S"}, {"a"}, productions, "S", origins={("S", ("a",)): ("x",)})
    assert plain == noted and hash(plain) == hash(noted)
    assert noted.origins == {("S", ("a",)): ("x",)}

    assert Cfg({"S"}, {"a"}, productions, "S") != Cfg({"S"}, {"a"}, set(), "S")
    # A single-state automaton keeps no diagnostic map: each row spells its
    # source move, so equality reads every field.
    assert SingleStatePda._compared == SingleStatePda._fields
    with pytest.raises(TypeError):
        SingleStatePda(frozenset({"a"}), frozenset({"Zs"}), frozenset(), {"row": ("record",)})


def test_a_pda_freezes_the_sets_it_is_given():
    move = Transition("q", "a", "Z", "q", ())
    built = Pda(["q"], "a", {"Z"}, [move], "q", "Z")
    frozen = Pda(frozenset({"q"}), frozenset({"a"}), frozenset({"Z"}),
                 frozenset({move}), "q", "Z")
    assert built == frozen and hash(built) == hash(frozen)
    assert isinstance(built.transitions, frozenset)


def test_a_grammar_freezes_the_sets_it_is_given():
    built = Cfg(["S", "A"], ["a"], [("S", ("A", "a")), ("A", ())], "S")
    frozen = Cfg(frozenset({"S", "A"}), frozenset({"a"}),
                 frozenset({("S", ("A", "a")), ("A", ())}), "S")
    assert built == frozen and hash(built) == hash(frozen)
    assert isinstance(built.productions, frozenset)


def test_records_of_different_types_are_unequal():
    parts = (frozenset({"a"}), frozenset({"Z"}), frozenset())
    pda = Pda(frozenset({"qm"}), *parts, "qm", "Z")
    assert pda != SingleStatePda(*parts)
    assert Limits(7, 3) != (7, 3)


@pytest.mark.parametrize("limits", [(0, 5), (5, 0), (-1, 1)])
def test_limits_must_be_positive(limits):
    with pytest.raises(ValueError, match="limits must be positive"):
        Limits(*limits)


def test_limits_defaults():
    assert Limits() == Limits(100_000, 64)
    assert Limits(max_stack_depth=5).max_configs == 100_000
