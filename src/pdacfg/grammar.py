"""Grammar construction and cleanup.

The main route turns a single-state PDA into a grammar one production per
transition.  The direct multistate route builds the same kind of triple
grammar in one step and serves as an independent cross-check, so it shares
no conversion code with the staged route.  Pruning removes useless symbols
without changing the language.  Neither route records where a production
came from: each spells its row or move, and ``render`` reads it back.
"""

from __future__ import annotations

import itertools

from .language import _useful_productions
from .model import Cfg, Pda, Production, SingleStatePda, START
from .singlestate import _check_convertible, to_single_state


def sspda_to_cfg(sspda: SingleStatePda) -> Cfg:
    """One production per transition: a transition reading a, popping Z and
    pushing gamma becomes ``Z -> a gamma`` (a omitted for epsilon moves).

    Variables are the stack symbols, terminals the input alphabet, and the
    start variable the start marker ``Zs``.
    """
    productions = {
        (str(t.pop), ((t.input,) if t.input is not None else ()) + tuple(map(str, t.push)))
        for t in sspda.transitions}
    return Cfg(map(str, sspda.stack_alphabet), sspda.input_alphabet, productions, START)


def pda_to_cfg(pda: Pda) -> Cfg:
    """Staged conversion: collapse to a single state, then read off the grammar."""
    return sspda_to_cfg(to_single_state(pda))


def classical_pda_to_cfg(pda: Pda) -> Cfg:
    """Direct one-step conversion used as an independent cross-check.

    Same triple variables, but a fresh start symbol and its own chain
    enumeration.  The start symbol is ``S`` unless that character is an
    input symbol, in which case ``S0`` (terminals are single characters, so
    no further clash is possible).
    """
    _check_convertible(pda)
    start = "S" if "S" not in pda.input_alphabet else "S0"
    states = sorted(pda.states)

    productions: set[Production] = {
        (start, (f"[{pda.start_state},{pda.start_stack},{s}]",)) for s in states}
    # A pop move is the l = 0 case: one empty choice, so its head ends in
    # the move's own target state and its body is the input alone.
    for move in sorted(pda.transitions, key=str):
        prefix = (move.input,) if move.input is not None else ()
        for choice in itertools.product(states, repeat=len(move.push)):
            links = (move.to_state, *choice)
            body = prefix + tuple(f"[{links[i]},{sym},{links[i + 1]}]"
                                  for i, sym in enumerate(move.push))
            prod = (f"[{move.from_state},{move.pop},{links[-1]}]", body)
            productions.add(prod)

    variables = {start} | {
        f"[{p},{base},{q}]"
        for p in pda.states for base in pda.stack_alphabet for q in pda.states}
    return Cfg(variables, pda.input_alphabet, productions, start)


def prune_useless(cfg: Cfg) -> Cfg:
    """Keep only the useful productions, the ones some derivation of a
    terminal string from the start can use, and the variables heading them.
    Non-generating symbols go first and unreachable ones second, the same
    trim ``derivable_strings`` makes.  The language is unchanged; the start
    variable survives even when useless, leaving a grammar for the empty
    language.  The terminal alphabet is kept whole, so the pruned grammar
    answers questions over the same letters as the original."""
    productions = _useful_productions(cfg)
    return Cfg({head for head, _ in productions} | {cfg.start}, cfg.terminals,
               productions, cfg.start)
