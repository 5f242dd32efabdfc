from collections import Counter

import pytest
from hypothesis import given

from pdacfg import (
    P1_TEXT,
    QM,
    START,
    Pda,
    SingleStatePda,
    Transition,
    Triple,
    classical_pda_to_cfg,
    parse_pda,
    size_stats,
    to_single_state,
)
from pdacfg import singlestate

from strategies import pdas


@pytest.fixture()
def p1():
    return parse_pda(P1_TEXT)


def test_triple_renders_bracketed():
    assert str(Triple("q0", "Z", "q1")) == "[q0,Z,q1]"


def test_triples_compare_by_components():
    assert Triple("q0", "Z", "q0") != Triple("q0", "Z", "q1")


def _rows_of(pda, move):
    return {tr for tr, records in to_single_state(pda).provenance.items()
            if records[0].source == move}


def test_single_symbol_push_has_exactly_one_chain():
    move = Transition("p", "a", "X", "t", ("B",))
    pda = Pda({"p", "q", "t"}, {"a"}, {"X", "B"}, {move}, "p", "X")
    assert _rows_of(pda, move) == {
        Transition(QM, "a", Triple("p", "X", s), QM, (Triple("t", "B", s),))
        for s in ("p", "q", "t")}


def test_two_symbol_push_enumerates_the_intermediate_state():
    move = Transition("q0", "a", "Z", "q0", ("A", "Z"))
    pda = Pda({"q0", "q1"}, {"a"}, {"Z", "A"}, {move}, "q0", "Z")
    assert _rows_of(pda, move) == {
        Transition(QM, "a", Triple("q0", "Z", outer), QM, chain)
        for outer in ("q0", "q1")
        for chain in ((Triple("q0", "A", "q0"), Triple("q0", "Z", outer)),
                      (Triple("q0", "A", "q1"), Triple("q1", "Z", outer)))}


def test_three_symbol_push_over_two_states_gives_four_chains():
    move = Transition("p", None, "X", "p", ("A", "B", "C"))
    pda = Pda({"p", "q"}, set(), {"X", "A", "B", "C"}, {move}, "p", "X")
    rows = _rows_of(pda, move)
    assert len(rows) == 8
    chains = {tr.push for tr in rows if tr.pop == Triple("p", "X", "q")}
    assert len(chains) == 4
    for chain in chains:
        assert chain[0].from_state == "p"
        assert chain[-1].to_state == "q"
        assert [t.base for t in chain] == ["A", "B", "C"]
        for left, right in zip(chain, chain[1:]):
            assert left.to_state == right.from_state


def test_one_state_one_pop_move_gives_exactly_two_transitions():
    p0 = Pda({"p"}, {"a"}, {"Z"}, {Transition("p", "a", "Z", "p", ())},
             "p", "Z")
    sspda = to_single_state(p0)
    assert sspda.transitions == {
        Transition(QM, "a", Triple("p", "Z", "p"), QM, ()),
        Transition(QM, None, START, QM, (Triple("p", "Z", "p"),)),
    }


def test_p1_count_matches_the_hand_formula(p1):
    # independent oracle: |Q| start seedings plus |Q|**push_len per move;
    # P1 has two push-2 moves (4 each), four pops (1 each), |Q| = 2
    n = len(p1.states)
    predicted = n + sum(n ** len(t.push) for t in p1.transitions)
    assert predicted == 14
    assert len(to_single_state(p1).transitions) == 14


def test_no_moves_leaves_only_start_seeding():
    pda = Pda({"p", "q"}, {"a", "b"}, {"Z"}, set(), "p", "Z")
    assert to_single_state(pda).transitions == {
        Transition(QM, None, START, QM, (Triple("p", "Z", "p"),)),
        Transition(QM, None, START, QM, (Triple("p", "Z", "q"),)),
    }


def test_declared_stack_alphabet_is_every_triple_plus_marker(p1):
    sspda = to_single_state(p1)
    assert len(sspda.stack_alphabet) == 2 * 2 * 2 + 1
    assert START in sspda.stack_alphabet


def test_transitions_stay_in_the_single_state(p1):
    for tr in to_single_state(p1).transitions:
        assert type(tr) is Transition
        assert tr.from_state == QM
        assert tr.to_state == QM


def test_single_state_rows_render_as_pda_moves():
    push = Transition(QM, "a", Triple("q0", "Z", "q1"), QM,
                      (Triple("q0", "A", "q0"), Triple("q0", "Z", "q1")))
    assert str(push) == "qm a [q0,Z,q1] -> qm [q0,A,q0] [q0,Z,q1]"
    assert str(Transition(QM, None, START, QM, ())) == "qm eps Zs -> qm eps"


def test_a_single_state_pda_has_the_start_attributes_of_a_pda(p1):
    sspda = to_single_state(p1)
    assert sspda.states == {"qm"}
    assert (sspda.start_state, sspda.start_stack) == ("qm", "Zs")
    # fixed for the kind, so they are not fields
    assert list(SingleStatePda._fields) == [
        "input_alphabet", "stack_alphabet", "transitions", "provenance"]


def test_invalid_automata_are_refused():
    bad = Pda({"p"}, {"a"}, {"Z"}, set(), "missing", "Z")
    with pytest.raises(ValueError):
        to_single_state(bad)


@pytest.mark.parametrize("convert", [to_single_state, classical_pda_to_cfg])
def test_conversions_refuse_automata_over_the_budget(p1, monkeypatch, convert):
    # P1 predicts exactly 14 rows (see the hand formula above)
    monkeypatch.setattr(singlestate, "_TRANSITION_BUDGET", 14)
    convert(p1)
    monkeypatch.setattr(singlestate, "_TRANSITION_BUDGET", 13)
    with pytest.raises(ValueError, match="would build 14 rows, over the budget of 13"):
        convert(p1)


def test_size_stats_on_p1(p1):
    stats = size_stats(p1)
    assert stats.q_count == 2
    assert stats.gamma_count == 2
    assert stats.source_transition_count == 6
    assert stats.triple_count == 8
    assert stats.ss_symbol_count == 9
    assert stats.predicted_ss_transitions == 14
    assert stats.actual_ss_transitions == 14
    assert stats.collision_count == 0


def test_size_stats_without_moves():
    pda = Pda({"p", "q"}, {"a", "b"}, {"Z"}, set(), "p", "Z")
    stats = size_stats(pda)
    assert stats.predicted_ss_transitions == 2
    assert stats.actual_ss_transitions == 2


@given(pdas())
def test_rule2_chains_are_well_formed(pda):
    sspda = to_single_state(pda)
    for tr, records in sspda.provenance.items():
        for record in records:
            if record.rule != 2:
                continue
            chain = tr.push
            assert len(chain) == len(record.source.push)
            assert chain[0].from_state == record.source.to_state
            assert chain[-1].to_state == tr.pop.to_state
            assert tuple(t.base for t in chain) == record.source.push
            for left, right in zip(chain, chain[1:]):
                assert left.to_state == right.from_state


@given(pdas())
def test_per_move_cardinalities(pda):
    sspda = to_single_state(pda)
    n = len(pda.states)
    per_move = Counter()
    seeded = 0
    for records in sspda.provenance.values():
        for record in records:
            if record.rule == 3:
                seeded += 1
            else:
                per_move[record.source] += 1
    assert seeded == n
    for move in pda.transitions:
        assert per_move[move] == n ** len(move.push)


@given(pdas())
def test_provenance_is_total_and_replays(pda):
    # each row is rebuilt from its record and the states its own triples
    # spell: the outer state, and the chain's link states for a push
    sspda = to_single_state(pda)
    assert set(sspda.provenance) == set(sspda.transitions)
    seeded = set()
    for tr, records in sspda.provenance.items():
        assert len(records) == 1
        record = records[0]
        if record.rule == 3:
            assert record.source is None
            outer = tr.push[0].to_state
            assert tr == Transition(
                QM, None, START, QM, (Triple(pda.start_state, pda.start_stack, outer),))
            seeded.add(outer)
            continue
        move = record.source
        assert record.rule == (2 if move.push else 1)
        links = (move.to_state, *(link.to_state for link in tr.push))
        assert tr == Transition(
            QM, move.input, Triple(move.from_state, move.pop, links[-1]), QM,
            tuple(Triple(links[i], symbol, links[i + 1])
                  for i, symbol in enumerate(move.push)))
    assert seeded == pda.states


@given(pdas())
def test_start_marker_only_pops_in_rule3(pda):
    sspda = to_single_state(pda)
    for tr, records in sspda.provenance.items():
        assert START not in tr.push
        if tr.pop == START:
            assert all(record.rule == 3 for record in records)
        else:
            assert all(record.rule != 3 for record in records)


@given(pdas())
def test_predicted_count_decomposes_into_actual_plus_collisions(pda):
    stats = size_stats(pda)
    assert stats.predicted_ss_transitions == (
        stats.actual_ss_transitions + stats.collision_count)
