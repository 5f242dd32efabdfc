"""Bounded languages: the strings up to a length bound that a grammar or an
automaton accepts.

A grammar's is the least solution of its equations, evaluated one length
at a time over its two-symbol rules (``derivable_strings``); it shares no
code with the Earley recognizer in ``engine``, so each checks the other.  An
automaton's is one walk of the bounded simulator in ``engine``, imported
only when an automaton is asked, so a process that reads only grammars
never compiles the simulator.  Enumeration and grammar pruning share the
one variable fixpoint here, ``_heads_derived_from``, and the one
reachability walk, ``_reached_from``; the recognizer needs neither, so the
two grammar deciders share no code by construction.
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


def _reached_from(start, bodies) -> set:
    """``start`` and every symbol reachable from it, where ``bodies`` maps a
    symbol to the bodies it may be replaced by; a symbol it does not map is
    reached but leads nowhere."""
    reached, agenda = {start}, [start]
    while agenda:
        for body in bodies.get(agenda.pop(), ()):
            new = set(body) - reached
            reached |= new
            agenda.extend(new)
    return reached


def derivable_strings(cfg: Cfg, max_len: int) -> set[str]:
    """Every terminal string of length <= max_len the grammar derives.

    This is the one bounded enumerator of a grammar: ``enum``, ``check``
    and ``differential_check`` read grammar languages from it.  A grammar's
    language is the least solution of its equations (Ginsburg and Rice,
    1962), computed here one length at a time over the grammar in two-symbol
    rules, as CYK fills its table (Younger, 1967).  A body longer than two
    symbols becomes a chain of two-symbol rules over fresh variables, each
    the tuple of the symbols it stands for, so none clashes with a string
    symbol.  The strings of length 0 are those of the nullable symbols.  At
    each length n >= 1 in turn, every two-symbol body joins its symbols'
    strings of lengths i and n - i for 0 < i < n, all already final; then
    the strings of length n pass from a body symbol to its head wherever
    the rest of the body is nullable, until nothing grows.  No join reaches
    past twice the longest length that holds a string, so the walk stops
    there.  Only the rules the start reaches through rules that can complete
    are kept, so a finite language is answered at once at any bound, and a
    variable the start cannot use costs nothing.  A body symbol that is
    neither a variable nor a terminal derives nothing.
    Shares no code with the chart recognizer, so Earley ``member``
    cross-checks it.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    generating = cfg.terminals | _heads_derived_from(cfg.productions, cfg.terminals)
    split = defaultdict(set)  # each head's bodies, in two-symbol rules
    for head, body in cfg.productions:
        if all(sym in generating for sym in body):
            while len(body) > 2:
                split[head].add((body[0], body[1:]))
                head, body = body[1:], body[1:]
            split[head].add(body)
    # Only the rules the start can use: a variable it never reaches could
    # hold strings at every length and so hold off the stop below.
    rules = [(head, body) for head in _reached_from(cfg.start, split) for body in split[head]]
    nullable = _heads_derived_from(rules, frozenset())

    # ``feeds[sym]``: the heads that derive every string ``sym`` does.
    feeds = defaultdict(set)
    for head, body in rules:
        for i, sym in enumerate(body):
            if all(other in nullable for other in body[:i] + body[i + 1:]):
                feeds[sym].add(head)
    pairs = [(head, body) for head, body in rules if len(body) == 2]

    # ``by_len[n]`` maps each symbol to its strings of length n.
    by_len = [{sym: {""} for sym in nullable}]
    longest = 1  # every letter is a string of length 1
    n = 1
    while n <= max_len and n <= 2 * longest:
        layer = defaultdict(set)
        if n == 1:
            layer.update((sym, {sym}) for sym in cfg.terminals)
        for head, (left, right) in pairs:
            for i in range(1, n):
                lefts, rights = by_len[i].get(left), by_len[n - i].get(right)
                if lefts and rights:
                    layer[head].update(u + v for u in lefts for v in rights)
        agenda = list(layer.items())
        while agenda:
            sym, strings = agenda.pop()
            for head in feeds[sym]:
                new = strings - layer[head]
                if new:
                    layer[head] |= new
                    agenda.append((head, new))
        if any(layer.values()):
            longest = n
        by_len.append(layer)
        n += 1
    return set().union(*(layer.get(cfg.start, ()) for layer in by_len))


def _language(source: LanguageSource, max_len: int,
              limits: Limits) -> tuple[set[str], set[str]]:
    """The strings up to ``max_len`` the source accepts, and the prefixes it
    could not settle: a string that is not accepted is inconclusive when one
    of them, ``""`` or itself included, is a prefix of it, and rejected
    otherwise.  A grammar's strings come from its exact least fixpoint, so
    it leaves no prefix unsettled; an automaton's from one walk of the
    bounded simulator over the string trie, with the verdicts per-string
    searches would give."""
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
    complete; automata are walked by the bounded simulator, and the list is
    complete exactly when every string up to ``max_len`` below each prefix
    the walk could not settle is accepted, checked up to the first that is
    not.
    """
    accepted, unsettled = _language(source, max_len, limits)
    return accepted, all(prefix + tail in accepted for prefix in unsettled for tail in
                         strings_up_to(_source_alphabet(source), max_len - len(prefix)))
