"""Data model for pushdown automata, single-state automata, and grammars.

Automata accept by empty stack and carry a set-valued (nondeterministic)
transition relation.  Epsilon is modeled as ``None`` in transition inputs and
as an empty push sequence; the text formats spell it ``eps``.  A single-state
automaton is a PDA whose one state is ``qm``: its moves are the same
``Transition`` type, and its stack symbols are the start symbol ``Zs`` and
``[p,X,q]`` triples.  Every type is immutable and hashable, so structural
equality and use as set elements work throughout.

Every record is a named tuple: it compares, hashes and orders as the tuple
of its fields.  ``Pda``, ``SingleStatePda`` and ``Cfg`` freeze their sets,
and the simulator's ``Limits`` checks its bounds, in ``__new__``, which
``_make``, ``_replace``, copy and pickle all go through.  No record stores
where its parts came from: a construction's rows and productions spell it,
and ``render`` reads it back off them.
"""

from __future__ import annotations

from collections import namedtuple
from typing import NamedTuple, Optional, Union

QM = "qm"  # canonical name of the sole state of a single-state PDA

_FORBIDDEN_IN_TOKENS = set(", \t\r\n[]#|:")
_RESERVED_TOKENS = {"eps", "->"}


def is_token(name: str) -> bool:
    """True if ``name`` can serve as a state name or stack-symbol name."""
    if not name or name in _RESERVED_TOKENS:
        return False
    return not any(ch in _FORBIDDEN_IN_TOKENS for ch in name)


def is_input_symbol(ch: str) -> bool:
    """True if ``ch`` is a single printable character usable as input."""
    return len(ch) == 1 and ch.isprintable() and not ch.isspace() and ch not in "#|"


class _Checked:
    """Base of the named tuples that freeze or check their fields in
    ``__new__``: ``_make``, and so ``_replace``, builds through it too."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class Limits(_Checked, namedtuple("Limits", "max_configs max_stack_depth")):
    """Search bounds for the PDA simulator; both must be positive.  They
    live here so that the CLI reads their defaults without ``engine``."""

    __slots__ = ()

    def __new__(cls, max_configs: int = 100_000, max_stack_depth: int = 64):
        if max_configs <= 0 or max_stack_depth <= 0:
            raise ValueError("limits must be positive")
        return super().__new__(cls, max_configs, max_stack_depth)


DEFAULT_LIMITS = Limits()


class Transition(NamedTuple):
    """One move of a PDA.

    ``input`` is ``None`` for an epsilon move.  ``push`` is top-first: its
    first element ends up on top of the stack and is popped first.  Stack
    symbols are names in a multistate PDA and ``SsSymbol`` values in a
    single-state one.
    """

    from_state: str
    input: Optional[str]
    pop: SsSymbol
    to_state: str
    push: tuple[SsSymbol, ...] = ()

    def __str__(self) -> str:
        inp = "eps" if self.input is None else self.input
        rhs = " ".join(map(str, self.push)) if self.push else "eps"
        return f"{self.from_state} {inp} {self.pop} -> {self.to_state} {rhs}"


class Pda(_Checked, namedtuple("Pda", "states input_alphabet stack_alphabet transitions "
                                      "start_state start_stack")):
    """Nondeterministic pushdown automaton accepting by empty stack.

    The four sets may be given as any iterables; they are stored as
    frozensets.  No validation happens here: ill-formed automata are
    constructible and reported by ``validate_pda``.
    """

    __slots__ = ()

    def __new__(cls, states, input_alphabet, stack_alphabet, transitions,
                start_state, start_stack):
        return super().__new__(cls, frozenset(states), frozenset(input_alphabet),
                               frozenset(stack_alphabet), frozenset(transitions),
                               start_state, start_stack)


class Triple(NamedTuple):
    """Composite stack symbol [p,X,q]: starting in state p with X on top of
    the stack, the automaton can consume some input, pop X off, and end in
    state q."""

    from_state: str
    base: str
    to_state: str

    def __str__(self) -> str:
        return f"[{self.from_state},{self.base},{self.to_state}]"


START = "Zs"  # fresh start symbol of a single-state PDA

SsSymbol = Union[str, Triple]


class SingleStatePda(_Checked, namedtuple("SingleStatePda",
                                          "input_alphabet stack_alphabet transitions")):
    """PDA whose only state is ``qm``; all bookkeeping lives in the triple
    stack symbols.

    Its moves are ordinary transitions from ``qm`` to ``qm`` over the stack
    symbols ``Zs`` and triples, and it answers ``states``, ``start_state``
    and ``start_stack`` as a ``Pda`` does; those are fixed, so they are class
    attributes rather than fields.  The three sets may be given as any
    iterables; they are stored as frozensets.
    """

    __slots__ = ()

    states = frozenset({QM})
    start_state = QM
    start_stack = START

    def __new__(cls, input_alphabet, stack_alphabet, transitions):
        return super().__new__(cls, frozenset(input_alphabet), frozenset(stack_alphabet),
                               frozenset(transitions))

    @property
    def provenance(self) -> dict:
        """``{row: (source move,)}``, kept only for ``perfbench/tracing.py``."""
        from .singlestate import source_move
        return {row: (source_move(row),) for row in self.transitions}


Production = tuple[str, tuple[str, ...]]


class Cfg(_Checked, namedtuple("Cfg", "variables terminals productions start")):
    """Context-free grammar over string symbols.

    Variables and terminals are disjoint; a production body is a tuple of
    symbols, and the empty tuple denotes an epsilon production.  The three
    sets may be given as any iterables; they are stored as frozensets, and
    no validation happens here.
    """

    __slots__ = ()

    def __new__(cls, variables, terminals, productions, start):
        return super().__new__(cls, frozenset(variables), frozenset(terminals),
                               frozenset(productions), start)


class Configuration(NamedTuple):
    """Instantaneous description: control state, input offset, stack.

    ``stack[0]`` is the top.  For single-state automata the state is ``qm``
    and the stack holds SsSymbol values instead of plain names.
    """

    state: str
    input_pos: int
    stack: tuple


def validate_pda(pda: Pda) -> list[str]:
    """Return one human-readable description per violated Pda invariant.

    An empty list means the automaton is well formed.  Violations are data,
    not exceptions, so ill-formed automata can be built and inspected.
    """
    problems: list[str] = []
    for name in sorted(pda.states):
        if not is_token(name):
            problems.append(f"state name {name!r} is not a valid token")
    for ch in sorted(pda.input_alphabet):
        if not is_input_symbol(ch):
            problems.append(f"input symbol {ch!r} is not a single printable character")
    for name in sorted(pda.stack_alphabet):
        if not is_token(name):
            problems.append(f"stack symbol {name!r} is not a valid token")
    if not pda.states:
        problems.append("state set is empty")
    if pda.start_state not in pda.states:
        problems.append(f"start state {pda.start_state!r} is not a declared state")
    if pda.start_stack not in pda.stack_alphabet:
        problems.append(f"start stack symbol {pda.start_stack!r} is not a declared stack symbol")
    for t in sorted(pda.transitions, key=str):
        if t.from_state not in pda.states:
            problems.append(f"transition '{t}' leaves undeclared state {t.from_state!r}")
        if t.to_state not in pda.states:
            problems.append(f"transition '{t}' enters undeclared state {t.to_state!r}")
        if t.input is not None and t.input not in pda.input_alphabet:
            problems.append(f"transition '{t}' reads undeclared input symbol {t.input!r}")
        if t.pop not in pda.stack_alphabet:
            problems.append(f"transition '{t}' pops undeclared stack symbol {t.pop!r}")
        for sym in t.push:
            if sym not in pda.stack_alphabet:
                problems.append(f"transition '{t}' pushes undeclared stack symbol {sym!r}")
    return problems
