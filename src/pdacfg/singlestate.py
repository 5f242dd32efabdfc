"""Collapse a multistate PDA into an equivalent single-state PDA.

A move popping X from p to r and pushing Y_1..Y_l becomes |Q|**l rows, one
per choice of states s_1..s_l: the row pops ``[p,X,s_l]`` and pushes the
chain ``[r,Y_1,s_1] [s_1,Y_2,s_2] .. [s_{l-1},Y_l,s_l]`` (a pop move, l = 0,
gives the one row popping ``[p,X,r]``).  The fresh start symbol ``Zs`` seeds
one triple per state.  Rows are ordinary transitions from ``qm`` to ``qm``.
Every row records the source move it came from; the states chosen for it
are spelled by its own triples.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional

from .model import QM, START, Pda, SingleStatePda, Transition, Triple, validate_pda


class Provenance(NamedTuple):
    """Why a single-state row exists.

    Rule 1 wraps the pop move ``source``, rule 2 expands the push move
    ``source`` for one choice of chain states, and rule 3 (no source) seeds
    the start marker.
    """

    rule: int
    source: Optional[Transition]

    def __str__(self) -> str:
        if self.source is None:
            return f"rule{self.rule}"
        return f"rule{self.rule} {self.source}"


class SizeStats(NamedTuple):
    """Size accounting for one conversion.

    ``predicted_ss_transitions`` is the closed-form count |Q| + sum over
    source moves of |Q|**l (push length l; a pop move contributes 1); the
    measured ``actual_ss_transitions`` counts distinct rows, and
    ``collision_count`` is the difference, 0 because each row spells its
    move and chosen states.  ``ss_symbol_count`` counts declared
    symbols (all triples plus the start marker) while
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

    # A row spells its move and its chosen states, so no two records share
    # one; each row keeps its one record as a 1-tuple.
    provenance: dict[Transition, tuple[Provenance]] = {}
    for move in pda.transitions:
        record = (Provenance(2 if move.push else 1, move),)
        for choice in itertools.product(pda.states, repeat=len(move.push)):
            links = (move.to_state, *choice)
            chain = tuple(Triple(links[i], symbol, links[i + 1])
                          for i, symbol in enumerate(move.push))
            pop = Triple(move.from_state, move.pop, links[-1])
            provenance[Transition(QM, move.input, pop, QM, chain)] = record
    for s in pda.states:
        row = Transition(QM, None, START, QM, (Triple(pda.start_state, pda.start_stack, s),))
        provenance[row] = (Provenance(3, None),)

    symbols = {START} | {
        Triple(p, base, q)
        for p in pda.states for base in pda.stack_alphabet for q in pda.states}
    return SingleStatePda(
        input_alphabet=pda.input_alphabet,
        stack_alphabet=frozenset(symbols),
        transitions=frozenset(provenance),
        provenance=provenance,
    )


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
    referenced = set()
    for t in sspda.transitions:
        referenced.add(t.pop)
        referenced.update(t.push)
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
