"""Grammar construction and cleanup.

The main route turns a single-state PDA into a grammar one production per
transition.  The direct multistate route builds the same kind of triple
grammar in one step and serves as an independent cross-check, so it shares
no conversion code with the staged route.  Pruning removes useless symbols
without changing the language.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from .engine import _generating_rules, _heads_derived_from
from .model import Cfg, Pda, Production, SingleStatePda, START
from .singlestate import _check_convertible, to_single_state


def sspda_to_cfg(sspda: SingleStatePda) -> Cfg:
    """One production per transition: a transition reading a, popping Z and
    pushing gamma becomes ``Z -> a gamma`` (a omitted for epsilon moves).

    Variables are the stack symbols, terminals the input alphabet, and the
    start variable the start marker ``Zs``.
    """
    productions: set[Production] = set()
    origins: dict[Production, tuple[str, ...]] = {}
    for t in sspda.transitions:
        head = str(t.pop)
        body = ((t.input,) if t.input is not None else ()) \
            + tuple(str(s) for s in t.push)
        productions.add((head, body))
        origins[(head, body)] = (str(t),)
    return Cfg((str(s) for s in sspda.stack_alphabet), sspda.input_alphabet, productions,
               START, origins)


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

    productions: set[Production] = set()
    origins: dict[Production, tuple[str, ...]] = {}
    for s in states:
        prod = (start, (f"[{pda.start_state},{pda.start_stack},{s}]",))
        productions.add(prod)
        origins[prod] = ("start seeding",)
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
            origins.setdefault(prod, (str(move),))

    variables = {start} | {
        f"[{p},{base},{q}]"
        for p in pda.states for base in pda.stack_alphabet for q in pda.states}
    return Cfg(variables, pda.input_alphabet, productions, start, origins)


def generating_variables(cfg: Cfg) -> frozenset[str]:
    """Variables that derive at least one terminal string (least fixpoint)."""
    return _heads_derived_from(cfg.productions, cfg.terminals)


def reachable_symbols(cfg: Cfg) -> frozenset[str]:
    """Symbols occurring in some sentential form derivable from the start."""
    by_head = defaultdict(list)
    for head, body in cfg.productions:
        by_head[head].append(body)
    reached = {cfg.start}
    frontier = [cfg.start]
    while frontier:
        head = frontier.pop()
        for body in by_head.get(head, ()):
            for sym in body:
                if sym not in reached:
                    reached.add(sym)
                    if sym in cfg.variables:
                        frontier.append(sym)
    return frozenset(reached)


def prune_useless(cfg: Cfg) -> Cfg:
    """Drop non-generating variables and their productions, then everything
    unreachable from the start.  The language is unchanged; the start
    variable survives even when useless, leaving a grammar for the empty
    language.  The terminal alphabet is kept whole, so the pruned grammar
    answers questions over the same letters as the original."""
    kept = _generating_rules(cfg)
    gen = {head for head, _ in kept}
    reached = reachable_symbols(Cfg(gen | {cfg.start}, cfg.terminals, kept, cfg.start))
    productions = frozenset((h, b) for h, b in kept if h in reached)
    origins = None
    if cfg.origins is not None:
        origins = {p: cfg.origins[p] for p in productions if p in cfg.origins}
    return Cfg((gen & reached) | {cfg.start}, cfg.terminals, productions, cfg.start, origins)
