"""Bounded languages: the strings up to a length bound that a grammar or an
automaton accepts.

A grammar's is the least solution of its equations, evaluated bottom up over
strings bucketed by length (``derivable_strings``); it shares no code with
the Earley recognizer in ``engine``, so each checks the other.  An
automaton's is one walk of the bounded simulator in ``engine``, imported
only when an automaton is asked, so a process that reads only grammars
never compiles the simulator.  The recognizer and grammar pruning share
the variable fixpoints here.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from typing import Iterator, Union

from .model import DEFAULT_LIMITS, Cfg, Limits, Pda, SingleStatePda

LanguageSource = Union[Pda, SingleStatePda, Cfg]


def strings_up_to(alphabet, max_len: int) -> Iterator[str]:
    """Every string over the alphabet with length <= max_len, shortest first
    and lexicographic within a length."""
    symbols = sorted(alphabet)
    for n in range(max_len + 1):
        for letters in itertools.product(symbols, repeat=n):
            yield "".join(letters)


def _heads_derived_from(productions, given: frozenset) -> frozenset:
    """The least set of variables holding every head whose body's symbols
    are all in it or in ``given``: with the terminals given, the variables
    that derive some terminal string; with nothing given, the nullable
    ones."""
    derived: set[str] = set()
    grew = True
    while grew:
        grew = False
        for head, body in productions:
            if head not in derived and all(sym in derived or sym in given
                                           for sym in body):
                derived.add(head)
                grew = True
    return frozenset(derived)


def _generating_rules(cfg: Cfg) -> list:
    """The productions whose bodies hold only terminals and variables that
    derive some terminal string: the rules that can ever complete."""
    generating = _heads_derived_from(cfg.productions, cfg.terminals)
    return [(head, body) for head, body in cfg.productions
            if all(sym in generating or sym in cfg.terminals for sym in body)]


def derivable_strings(cfg: Cfg, max_len: int) -> set[str]:
    """Every terminal string of length <= max_len the grammar derives.

    This is the one bounded enumerator of a grammar: ``enum``, ``check``
    and ``differential_check`` read grammar languages from it.  A grammar's
    language is the least solution of its equations (Ginsburg and Rice,
    1962), computed bottom up after two small fixpoints trim the grammar.
    The first gives each variable its least yield, the length of its
    shortest string; a variable with none within the bound derives nothing
    here.  The second, from the start, caps each variable it reaches at
    ``max_len`` less the least yield of the symbols around each of its
    uses, so a variable used only after a long fixed prefix computes no
    strings it cannot use.  Rules the start never reaches, or that cannot
    fit under their head's cap, are dropped.

    Each variable's strings are kept in buckets by length, and bodies are
    concatenated bucket by bucket, never forming a string longer than the
    head's cap less the least yield of the symbols still to come.  Rounds
    are semi-naive: a round puts the strings new since the last round at
    one body position, the older strings at the positions before it and
    all strings at those after it, so no tuple of strings is concatenated
    twice; round 0 counts every letter and every empty body as new.  The
    rounds stop when one finds nothing new.  A body symbol that is neither
    a variable nor a terminal derives nothing.  Shares no code with the
    chart recognizer, so Earley ``member`` cross-checks it.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    variables, terminals = cfg.variables, cfg.terminals
    least: dict[str, int] = {}

    def body_yield(body):
        total = 0
        for sym in body:
            if sym in terminals:
                total += 1
            elif sym in variables and sym in least:
                total += least[sym]
            else:
                return None
        return total

    grew = True
    while grew:
        grew = False
        for head, body in cfg.productions:
            n = body_yield(body)
            if n is not None and n < least.get(head, max_len + 1):
                least[head] = n
                grew = True

    by_head = defaultdict(list)
    for head, body in cfg.productions:
        need = body_yield(body)
        if need is not None:
            by_head[head].append((body, need))
    cap = {cfg.start: max_len} if cfg.start in least else {}
    agenda = list(cap)
    while agenda:
        head = agenda.pop()
        for body, need in by_head[head]:
            slack = cap[head] - need
            if slack < 0:
                continue
            for sym in body:
                if sym in variables and least[sym] + slack > cap.get(sym, -1):
                    cap[sym] = least[sym] + slack
                    agenda.append(sym)

    # Each kept rule as its head and, per body position, the symbol and the
    # longest concatenation up to and including it that can still be used.
    rules = []
    for head in cap:
        for body, need in by_head[head]:
            if need <= cap[head]:
                bound, positions = cap[head] - need, []
                for sym in body:
                    bound += 1 if sym in terminals else least[sym]
                    positions.append((sym, bound))
                rules.append((head, positions))

    # Strings by symbol and length: ``known`` before the last round, and
    # ``fresh`` new in it.
    known: dict[str, dict[int, set]] = {sym: {} for sym in (*cap, *terminals)}
    fresh: dict[str, dict[int, set]] = {sym: {} for sym in known}
    for sym in terminals:
        fresh[sym][1] = {sym}
    for head, positions in rules:
        if not positions:
            fresh[head][0] = {""}
    while any(fresh.values()):
        found: dict[str, dict[int, set]] = {head: {} for head in cap}
        for head, positions in rules:
            older = {0: {""}}
            for i, (sym, bound) in enumerate(positions):
                if fresh[sym]:
                    joined = _concatenations(older, bound, fresh[sym])
                    for later, later_bound in positions[i + 1:]:
                        joined = _concatenations(joined, later_bound,
                                                 known[later], fresh[later])
                    for n, strings in joined.items():
                        found[head].setdefault(n, set()).update(strings)
                older = _concatenations(older, bound, known[sym])
                if not older:
                    break
        for sym, strings_by_len in fresh.items():
            for n, strings in strings_by_len.items():
                known[sym].setdefault(n, set()).update(strings)
            strings_by_len.clear()
        for head, strings_by_len in found.items():
            for n, strings in strings_by_len.items():
                strings -= known[head].get(n, set())
                if strings:
                    fresh[head][n] = strings
    return set().union(*known[cfg.start].values()) if cap else set()


def _concatenations(prefixes: dict, bound: int, *parts: dict) -> dict:
    """Every string of ``prefixes`` followed by one of some part's, up to
    ``bound`` long; every argument and the result map a length to the
    strings of that length."""
    joined: dict[int, set] = {}
    for n, heads in prefixes.items():
        for part in parts:
            for m, tails in part.items():
                if n + m <= bound:
                    joined.setdefault(n + m, set()).update(
                        [u + v for u in heads for v in tails])
    return joined


def _language(source: LanguageSource, max_len: int,
              limits: Limits) -> tuple[set[str], set[str]]:
    """The strings up to ``max_len`` the source accepts, and those it is
    inconclusive on; every other string is rejected.  A grammar's come from
    its exact least fixpoint, so none is inconclusive; an automaton's from
    one walk of the bounded simulator over the string trie, with the
    verdicts per-string searches would give."""
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if isinstance(source, Cfg):
        return derivable_strings(source, max_len), set()
    from .engine import _simulate_language
    return _simulate_language(source, max_len, limits)


def _source_alphabet(source: LanguageSource) -> frozenset[str]:
    return source.terminals if isinstance(source, Cfg) else source.input_alphabet


def enumerate_language(source: LanguageSource, max_len: int,
                       limits: Limits = DEFAULT_LIMITS) -> tuple[set[str], bool]:
    """Members of the source's language up to ``max_len``, and whether the
    list is complete: False when some verdict was inconclusive (such
    strings are excluded rather than guessed at).  Grammars are always
    complete; automata are walked by the bounded simulator.
    """
    accepted, inconclusive = _language(source, max_len, limits)
    return accepted, not inconclusive
