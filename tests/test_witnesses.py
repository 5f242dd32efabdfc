"""Witness translation: the construction maps runs, not only languages.

A PDA run maps forward to single-state rows.  A cell pushed as ``Y``
becomes the triple ``[p,Y,q]``, where ``p`` is the state when the cell
reaches the top and ``q`` the state when the cell below it is on top
again; the bottom cell's ``q`` is the run's last state.  The first row is
the seeding row ``Zs -> [start, Z, last state]``.  Single-state rows map
backward to PDA moves: each row after the seeding row becomes the move
``source_move`` reads off it, and a row that reads back to no move fails
the translation.  Either way, the translated run must replay on the other
form and end on an empty stack with the whole string read.

Both maps are tried on every accepted string of a fixed window, the corpus
plus ``random_pda(1..60)``, at L=4; ``test_mutants.py`` measures how many
construction faults they catch.
"""

import pytest

from pdacfg import (QM, START, Limits, Transition, Triple, accepts, builtin_corpus,
                    enumerate_language, random_pda, replay_configurations, to_single_state)
from pdacfg.singlestate import source_move

MAX_LEN = 4
LIMITS = Limits(5000, 48)


def window():
    """The automata every translation check is tried on, in a fixed order."""
    return ([(entry.name, entry.pda) for entry in builtin_corpus()]
            + [(f"r{seed}", random_pda(seed)) for seed in range(1, 61)])


def forward(pda, witness) -> tuple:
    """The single-state rows of an accepting PDA run."""
    cells = [(pda.start_stack, None)]  # per cell: its symbol and the cell below it
    stack, popped, reached = [0], [], {}
    for t in witness:
        cell = stack.pop()
        reached[cell] = t.from_state
        pushed = range(len(cells), len(cells) + len(t.push))
        under = stack[-1] if stack else None
        cells.extend((sym, pushed[i + 1] if i + 1 < len(pushed) else under)
                     for i, sym in enumerate(t.push))
        stack.extend(reversed(pushed))
        popped.append((cell, pushed))
    last = witness[-1].to_state

    def triple(cell):
        sym, under = cells[cell]
        return Triple(reached[cell], sym, last if under is None else reached[under])

    return ((Transition(QM, None, START, QM, (triple(0),)),)
            + tuple(Transition(QM, t.input, triple(cell), QM, tuple(map(triple, pushed)))
                    for t, (cell, pushed) in zip(witness, popped)))


def backward(witness) -> tuple:
    """The PDA moves of an accepting single-state run, each read off its
    row; ValueError if a row reads back to no move."""
    return tuple(map(source_move, witness[1:]))


def witnesses(m) -> dict:
    """Each accepted string up to ``MAX_LEN`` with its witness."""
    accepted, _ = enumerate_language(m, MAX_LEN, LIMITS)
    return {w: accepts(m, w, LIMITS).witness for w in sorted(accepted)}


def replays(m, w, translate) -> bool:
    """Whether the run ``translate()`` returns applies to ``m`` from its
    start and ends on an empty stack with all of ``w`` read.  A run that
    cannot be translated does not replay."""
    try:
        end = replay_configurations(m, w, translate())[-1]
    except ValueError:
        return False
    return end.input_pos == len(w) and not end.stack


def translation_failures(pda, sspda, pda_runs, sspda_runs) -> list[tuple[str, str]]:
    """Every ``(direction, string)`` whose witness does not replay once
    translated: ``pda``'s runs forward onto ``sspda``, and ``sspda``'s runs
    backward onto ``pda``.  The runs map accepted strings to witnesses."""
    return ([("forward", w) for w, run in pda_runs.items()
             if not replays(sspda, w, lambda: forward(pda, run))]
            + [("backward", w) for w, run in sspda_runs.items()
               if not replays(pda, w, lambda: backward(run))])


@pytest.fixture(scope="module")
def accepted():
    """Per automaton of the window: its label, the automaton, its
    single-state form, and each form's accepted strings with witnesses."""
    rows = []
    for label, pda in window():
        sspda = to_single_state(pda)
        rows.append((label, pda, sspda, witnesses(pda), witnesses(sspda)))
    return rows


def test_witnesses_translate_both_ways(accepted):
    assert [(label, failure) for label, *forms in accepted
            for failure in translation_failures(*forms)] == []
    assert sum(len(pda_runs) for *_, pda_runs, _ in accepted) == 90
    assert sum(len(sspda_runs) for *_, sspda_runs in accepted) == 90


def test_backward_undoes_forward(accepted):
    for label, pda, _, pda_runs, _ in accepted:
        for w, run in pda_runs.items():
            rows = forward(pda, run)
            assert source_move(rows[0]) is None, (label, w)
            assert backward(rows) == run, (label, w)


def test_a_run_maps_to_the_rows_the_construction_names(corpus):
    # P1 on "ab": push A over Z, pop A into q1, pop Z.
    p1 = corpus["P1"].pda
    run = (Transition("q0", "a", "Z", "q0", ("A", "Z")),
           Transition("q0", "b", "A", "q1", ()),
           Transition("q1", None, "Z", "q1", ()))
    assert forward(p1, run) == (
        Transition(QM, None, START, QM, (Triple("q0", "Z", "q1"),)),
        Transition(QM, "a", Triple("q0", "Z", "q1"), QM,
                   (Triple("q0", "A", "q1"), Triple("q1", "Z", "q1"))),
        Transition(QM, "b", Triple("q0", "A", "q1"), QM, ()),
        Transition(QM, None, Triple("q1", "Z", "q1"), QM, ()))
