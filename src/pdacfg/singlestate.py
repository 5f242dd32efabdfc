"""Collapse a multistate PDA into an equivalent single-state PDA.

Pop moves map one-to-one onto triple symbols, push moves fan out over every
choice of outer and intermediate states, and the fresh start marker seeds one
triple per state.  Every produced transition carries provenance describing
exactly which source move and state choices generated it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .model import (
    START,
    Pda,
    SingleStatePda,
    SsTransition,
    Transition,
    Triple,
    validate_pda,
)


@dataclass(frozen=True)
class Provenance:
    """Why a single-state transition exists.

    rule 1 wraps a pop move, rule 2 expands a push move for one choice of
    outer state and intermediate chain, rule 3 seeds the start marker.
    ``outer`` is the end state of the popped triple (rules 1 and 2) or the
    chosen landing state (rule 3); ``intermediates`` holds the chain states
    s_1..s_{l-1} of rule 2.
    """

    rule: int
    source: Optional[Transition]
    outer: Optional[str] = None
    intermediates: tuple[str, ...] = ()

    def __str__(self) -> str:
        if self.source is None:
            return f"rule{self.rule}"
        return f"rule{self.rule} {self.source}"


@dataclass(frozen=True)
class SizeStats:
    """Size accounting for one conversion.

    ``predicted_ss_transitions`` is the closed-form count |Q| + sum over
    source moves of |Q|**l (push length l; a pop move contributes 1), and it
    always equals the raw number of generated transitions; the measured
    ``actual_ss_transitions`` is the deduplicated count, with any merges
    recorded in ``collision_count``.  ``ss_symbol_count`` counts declared
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


def expand_push(landing: str, push: Sequence[str], outer: str,
                states: Iterable[str]) -> set[tuple[Triple, ...]]:
    """All triple chains spelling ``push`` from ``landing`` to ``outer``.

    For push length l there are exactly |states|**(l-1) chains, one per
    choice of intermediate states; adjacent triples share their linking
    state, the first starts at ``landing``, and the last ends at ``outer``.
    """
    push = tuple(push)
    if not push:
        raise ValueError("push sequence must be nonempty; pop moves have no chain")
    names = sorted(set(states))
    if landing not in names or outer not in names:
        raise ValueError("landing and outer states must belong to the state set")
    chains = set()
    for mids in itertools.product(names, repeat=len(push) - 1):
        links = (landing, *mids, outer)
        chains.add(tuple(
            Triple(links[i], push[i], links[i + 1]) for i in range(len(push))))
    return chains


def to_single_state(pda: Pda) -> SingleStatePda:
    """The single-state PDA accepting the same language as ``pda``.

    The stack alphabet is declared in full: every triple over states and
    stack symbols plus the start marker, whether or not a transition uses it.
    """
    problems = validate_pda(pda)
    if problems:
        raise ValueError("invalid automaton: " + problems[0])
    _check_budget(pda)

    states = sorted(pda.states)
    produced: dict[SsTransition, list[Provenance]] = {}

    def add(tr: SsTransition, record: Provenance) -> None:
        produced.setdefault(tr, []).append(record)

    for move in sorted(pda.transitions, key=str):
        if not move.push:
            tr = SsTransition(
                move.input, Triple(move.from_state, move.pop, move.to_state), ())
            add(tr, Provenance(1, move, outer=move.to_state))
        else:
            for outer in states:
                chains = expand_push(move.to_state, move.push, outer, states)
                for chain in sorted(chains, key=lambda c: tuple(map(str, c))):
                    tr = SsTransition(
                        move.input, Triple(move.from_state, move.pop, outer), chain)
                    mids = tuple(link.to_state for link in chain[:-1])
                    add(tr, Provenance(2, move, outer=outer, intermediates=mids))
    for s in states:
        tr = SsTransition(None, START, (Triple(pda.start_state, pda.start_stack, s),))
        add(tr, Provenance(3, None, outer=s))

    symbols = {START} | {
        Triple(p, base, q)
        for p in pda.states for base in pda.stack_alphabet for q in pda.states}
    return SingleStatePda(
        input_alphabet=pda.input_alphabet,
        stack_alphabet=frozenset(symbols),
        transitions=frozenset(produced),
        provenance={tr: tuple(records) for tr, records in produced.items()},
    )


def transition_from_provenance(pda: Pda, record: Provenance) -> SsTransition:
    """Rebuild the transition a provenance record describes."""
    if record.rule == 3:
        return SsTransition(
            None, START, (Triple(pda.start_state, pda.start_stack, record.outer),))
    move = record.source
    if record.rule == 1:
        return SsTransition(
            move.input, Triple(move.from_state, move.pop, move.to_state), ())
    if record.rule == 2:
        links = (move.to_state, *record.intermediates, record.outer)
        chain = tuple(
            Triple(links[i], move.push[i], links[i + 1])
            for i in range(len(move.push)))
        return SsTransition(
            move.input, Triple(move.from_state, move.pop, record.outer), chain)
    raise ValueError(f"unknown rule {record.rule}")


def predicted_transition_count(pda: Pda) -> int:
    """Closed-form count of generated single-state transitions."""
    n = len(pda.states)
    return n + sum(n ** len(move.push) for move in pda.transitions)


# The most rows a conversion may build.  `convert` peaks at roughly 2-3 KB
# per row and the count grows as |Q|**l per push move, so a larger automaton
# is refused before anything is built.
_TRANSITION_BUDGET = 250_000


def _check_budget(pda: Pda) -> None:
    """Raise ValueError if converting ``pda`` would build more rows than
    ``_TRANSITION_BUDGET``; shared by the staged and classical routes."""
    rows = predicted_transition_count(pda)
    if rows > _TRANSITION_BUDGET:
        raise ValueError(f"conversion would build {rows} rows, "
                         f"over the budget of {_TRANSITION_BUDGET}")


def size_stats(pda: Pda) -> SizeStats:
    """Run the construction and collect its size accounting."""
    sspda = to_single_state(pda)
    generated = sum(len(records) for records in sspda.provenance.values())
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
        predicted_ss_transitions=predicted_transition_count(pda),
        actual_ss_transitions=len(sspda.transitions),
        collision_count=generated - len(sspda.transitions),
    )
