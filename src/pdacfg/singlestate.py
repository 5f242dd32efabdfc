"""Collapse a multistate PDA into an equivalent single-state PDA.

A move popping X from p to r and pushing Y_1..Y_l becomes |Q|**l rows, one
per choice of states s_1..s_l: the row pops ``[p,X,s_l]`` and pushes the
chain ``[r,Y_1,s_1] [s_1,Y_2,s_2] .. [s_{l-1},Y_l,s_l]`` (a pop move, l = 0,
gives the one row popping ``[p,X,r]``).  The fresh start symbol ``Zs`` seeds
one triple per state.  Rows are ordinary transitions from ``qm`` to ``qm``.
A row spells both its source move and the states chosen for it, so
``source_move`` reads the move back off the row; nothing else is recorded.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .model import QM, START, Pda, SingleStatePda, Transition, Triple, validate_pda


class SizeStats(NamedTuple):
    """Size accounting for one conversion.

    ``predicted_ss_transitions`` is the closed-form count |Q| + sum over
    source moves of |Q|**l (push length l; a pop move contributes 1); the
    measured ``actual_ss_transitions`` counts distinct rows, and
    ``collision_count`` is the difference, 0 because ``source_move`` reads
    each row back to one move and one choice of states.  ``ss_symbol_count``
    counts declared symbols (all triples plus the start marker) while
    ``referenced_ss_symbol_count`` counts those actually used by transitions.
    """

    q_count: int
    gamma_count: int
    source_transition_count: int
    triple_count: int
    ss_symbol_count: int
    referenced_ss_symbol_count: int
    predicted_ss_transitions: int
    actual_ss_transitions: int
    collision_count: int


def to_single_state(pda: Pda) -> SingleStatePda:
    """The single-state PDA accepting the same language as ``pda``.

    The stack alphabet is declared in full: every triple over states and
    stack symbols plus the start marker, whether or not a transition uses it.
    """
    _check_convertible(pda)
    rows = {Transition(QM, None, START, QM, (Triple(pda.start_state, pda.start_stack, s),))
            for s in pda.states}
    for move in pda.transitions:
        for choice in itertools.product(pda.states, repeat=len(move.push)):
            links = (move.to_state, *choice)
            chain = tuple(Triple(links[i], symbol, links[i + 1])
                          for i, symbol in enumerate(move.push))
            pop = Triple(move.from_state, move.pop, links[-1])
            rows.add(Transition(QM, move.input, pop, QM, chain))

    symbols = {START} | {
        Triple(p, base, q)
        for p in pda.states for base in pda.stack_alphabet for q in pda.states}
    return SingleStatePda(pda.input_alphabet, frozenset(symbols), frozenset(rows))


def source_move(row: Transition) -> Optional[Transition]:
    """The move ``row`` was built from: ``[p,X,q] -> a [r,Y1,s1] ..
    [s_{l-1},Yl,q]`` reads back to ``p a X -> r Y1..Yl`` (``[p,X,r] -> a``
    to ``p a X -> r eps``), and a seeding row ``Zs -> [p,X,q]`` to None.
    Raise ValueError for a row no move builds: a chain that does not link
    up or end in ``q``, or a row using ``Zs`` other than as a seeding row."""
    if START in row.push or (row.pop == START and (row.input is not None or len(row.push) != 1)):
        raise ValueError(f"no move builds the row '{row}': only seeding rows use Zs")
    if row.pop == START:
        return None
    p, base, q = row.pop
    links = [t.from_state for t in row.push] + [q]
    if [t.to_state for t in row.push] != links[1:]:
        raise ValueError(f"no move builds the row '{row}': its chain must link up "
                         f"and end in {q!r}")
    return Transition(p, row.input, base, links[0], tuple(t.base for t in row.push))


def predicted_transition_count(pda: Pda) -> int:
    """Closed-form count of generated single-state transitions."""
    n = len(pda.states)
    return n + sum(n ** len(move.push) for move in pda.transitions)


# The most rows a conversion may build.  `convert` peaks at roughly 2-3 KB
# per row and the count grows as |Q|**l per push move, so a larger automaton
# is refused before anything is built.
_TRANSITION_BUDGET = 250_000


def _check_convertible(pda: Pda) -> None:
    """Raise ValueError if ``pda`` is ill formed or converting it would
    build more rows than ``_TRANSITION_BUDGET``; shared by the staged and
    classical routes."""
    problems = validate_pda(pda)
    if problems:
        raise ValueError("invalid automaton: " + problems[0])
    rows = predicted_transition_count(pda)
    if rows > _TRANSITION_BUDGET:
        raise ValueError(f"conversion would build {rows} rows, "
                         f"over the budget of {_TRANSITION_BUDGET}")


def size_stats(pda: Pda) -> SizeStats:
    """Run the construction and collect its size accounting."""
    sspda = to_single_state(pda)
    predicted = predicted_transition_count(pda)
    referenced = {symbol for t in sspda.transitions for symbol in (t.pop, *t.push)}
    n = len(pda.states)
    triple_count = n * n * len(pda.stack_alphabet)
    return SizeStats(
        q_count=n,
        gamma_count=len(pda.stack_alphabet),
        source_transition_count=len(pda.transitions),
        triple_count=triple_count,
        ss_symbol_count=triple_count + 1,
        referenced_ss_symbol_count=len(referenced),
        predicted_ss_transitions=predicted,
        actual_ss_transitions=len(sspda.transitions),
        collision_count=predicted - len(sspda.transitions),
    )
