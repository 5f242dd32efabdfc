"""Membership deciders and bounded enumeration.

PDA membership runs as a bounded breadth-first search over configurations
and answers Accepted, Rejected, or Inconclusive; the search never lies, it
forfeits Rejected the moment a limit prunes anything.  Each automaton's
transitions are indexed once, at its first query, with states and stack
symbols interned to ints; the index is cached for as long as the automaton
lives, so repeated queries pay only for the search.  Grammar membership
uses an Earley chart recognizer that handles epsilon productions, unit
cycles, and left recursion natively and always terminates, so exact
questions are best routed through grammars.  Bounded questions about a
grammar (enumeration, differential checks) walk the string trie depth
first with one chart column per prefix, so strings share the columns of
their common prefixes and a prefix no member extends ends its subtree;
the simulator still answers each string on its own.
"""

from __future__ import annotations

import itertools
import math
import weakref
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Union

from .model import QM, START, Cfg, Configuration, Pda, SingleStatePda

Automaton = Union[Pda, SingleStatePda]
LanguageSource = Union[Pda, SingleStatePda, Cfg]


@dataclass(frozen=True)
class Limits:
    """Search bounds for the PDA simulator; both must be positive."""

    max_configs: int = 100_000
    max_stack_depth: int = 64

    def __post_init__(self):
        if self.max_configs <= 0 or self.max_stack_depth <= 0:
            raise ValueError("limits must be positive")


DEFAULT_LIMITS = Limits()


@dataclass(frozen=True)
class Verdict:
    """Simulator answer: accepted with a replayable witness, rejected after
    exhausting the frontier, or inconclusive naming the limit that got in
    the way."""

    kind: str  # "accepted" | "rejected" | "inconclusive"
    witness: tuple = ()
    reason: str = ""

    @property
    def is_accepted(self) -> bool:
        return self.kind == "accepted"

    @property
    def is_rejected(self) -> bool:
        return self.kind == "rejected"

    @property
    def is_inconclusive(self) -> bool:
        return self.kind == "inconclusive"


def _accepted(witness) -> Verdict:
    return Verdict("accepted", witness=tuple(witness))


_REJECTED = Verdict("rejected")


def _inconclusive(reason: str) -> Verdict:
    return Verdict("inconclusive", reason=reason)


def _start(m: Automaton) -> tuple:
    """Start state and start stack symbol of either automaton kind."""
    if isinstance(m, Pda):
        return m.start_state, m.start_stack
    if isinstance(m, SingleStatePda):
        return QM, START
    raise TypeError(f"not an automaton: {type(m).__name__}")


class _Compiled(NamedTuple):
    """An automaton with states and stack symbols interned to ints.

    ``moves[state id][top id]`` lists ``(input, push ids, to id,
    Transition)`` in ``sorted(..., key=str)`` order, the order the search
    explores moves in.  The start state and start symbol both have id 0.
    Nothing here refers back to the automaton, so the cache can drop it.
    """

    alphabet: frozenset
    states: dict
    symbols: dict
    moves: list


def _compile(m: Automaton) -> _Compiled:
    state, symbol = _start(m)
    states = {state: 0}
    symbols = {symbol: 0}
    rows = defaultdict(list)
    for t in sorted(m.transitions, key=str):
        key = (states.setdefault(t.from_state, len(states)),
               symbols.setdefault(t.pop, len(symbols)))
        push = tuple(symbols.setdefault(s, len(symbols)) for s in t.push)
        rows[key].append((t.input, push, states.setdefault(t.to_state, len(states)), t))
    moves = [[() for _ in symbols] for _ in states]
    for (from_id, top_id), row in rows.items():
        moves[from_id][top_id] = tuple(row)
    return _Compiled(m.input_alphabet, states, symbols, moves)


# One compiled form per automaton, built at its first query.  Keys are held
# weakly, so the index lives exactly as long as the automaton; automata that
# compare equal share one.
_COMPILED: "weakref.WeakKeyDictionary[Automaton, _Compiled]" = weakref.WeakKeyDictionary()


def _compiled(m: Automaton) -> _Compiled:
    compiled = _COMPILED.get(m)
    if compiled is None:
        compiled = _COMPILED[m] = _compile(m)
    return compiled


def accepts(m: Automaton, w: str, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Bounded breadth-first membership for empty-stack acceptance.

    Accepted as soon as some configuration has consumed all input on an
    empty stack; the witness is the move-minimal transition sequence.
    Rejected only when the frontier empties with nothing ever pruned;
    otherwise the verdict is Inconclusive naming the limit hit.

    Configurations are ``(state id, input position, stack of symbol ids)``
    tuples over the automaton's compiled index.
    """
    alphabet, _, _, moves = _compiled(m)
    for ch in w:
        if ch not in alphabet:
            raise ValueError(f"input character {ch!r} is not in the alphabet")

    n = len(w)
    max_configs = limits.max_configs
    max_depth = limits.max_stack_depth
    start = (0, 0, (0,))
    queue = deque([start])
    # Doubles as the seen set: every configuration ever queued has a parent.
    parents: dict[tuple, tuple] = {start: None}
    explored = 0
    pruned = False
    while queue:
        if explored >= max_configs:
            return _inconclusive("max_configs")
        config = queue.popleft()
        explored += 1
        state, pos, stack = config
        if not stack:
            if pos == n:
                witness = []
                while parents[config] is not None:
                    config, move = parents[config]
                    witness.append(move)
                return _accepted(reversed(witness))
            continue
        ch = w[pos] if pos < n else None
        rest = stack[1:]
        for inp, push, to, t in moves[state][stack[0]]:
            if inp is None:
                at = pos
            elif inp == ch:
                at = pos + 1
            else:
                continue
            successor_stack = push + rest
            if len(successor_stack) > max_depth:
                pruned = True
                continue
            successor = (to, at, successor_stack)
            if successor in parents:
                continue
            parents[successor] = (config, t)
            queue.append(successor)
    return _inconclusive("max_stack_depth") if pruned else _REJECTED


def replay_configurations(m: Automaton, w: str, witness) -> list[Configuration]:
    """Apply a transition sequence strictly from the start configuration,
    returning every configuration along the way.

    Raises ValueError if any move does not apply, making this an independent
    check on witnesses rather than a re-search.
    """
    state, symbol = _start(m)
    configs = [Configuration(state, 0, (symbol,))]
    for t in witness:
        config = configs[-1]
        if config.state != t.from_state or not config.stack or config.stack[0] != t.pop:
            raise ValueError(f"witness move '{t}' does not apply at {config}")
        if t.input is None:
            pos = config.input_pos
        else:
            if config.input_pos >= len(w) or w[config.input_pos] != t.input:
                raise ValueError(f"witness move '{t}' does not match the input")
            pos = config.input_pos + 1
        configs.append(Configuration(t.to_state, pos, t.push + config.stack[1:]))
    return configs


class _Recognizer:
    """Earley chart recognizer over one grammar, read one column at a time.

    A dotted rule is a production with a dot in its body; they are numbered
    so that advancing the dot adds one.  An item is ``(dotted rule,
    origin)``.  ``_column`` closes column k from its seed items and files
    every item whose dot stands before a symbol under that symbol, so
    completion reads ``columns[origin][head]`` and scanning letter c reads
    column k's ``c`` entry.  Epsilon follows Aycock and Horspool, "Practical
    Earley Parsing" (2002): nullable variables are computed once, and an
    item waiting on one is advanced past it as soon as it is filed, so an
    empty completion never needs to revisit its own column.

    ``member`` walks the builder along one string; ``language`` walks it
    depth first over every string up to a length, one column per prefix,
    and skips the subtree under any prefix whose seed set is empty.
    """

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        productions = sorted(cfg.productions)
        nullable: set[str] = set()
        grew = True
        while grew:
            grew = False
            for head, body in productions:
                if head not in nullable and all(sym in nullable for sym in body):
                    nullable.add(head)
                    grew = True
        self.nullable = frozenset(nullable)
        # Per dotted rule: the symbol after the dot (None when complete) and
        # the production's head; per variable: its rules with the dot first.
        self.next_symbol: list = []
        self.heads: list[str] = []
        predict = defaultdict(list)
        for head, body in productions:
            predict[head].append(len(self.next_symbol))
            self.next_symbol.extend(body)
            self.next_symbol.append(None)
            self.heads.extend([head] * (len(body) + 1))
        self.predict = {v: tuple(rules) for v, rules in predict.items()}
        self.seeds = [(rule, 0) for rule in self.predict.get(cfg.start, ())]

    def _column(self, seeds, columns: list[dict]) -> tuple[dict, bool]:
        """Close column ``len(columns)`` from its seed items, given the
        finished columns before it.  Returns the column's items filed by
        the symbol they wait on, and whether the start variable completed
        over the whole prefix."""
        k = len(columns)
        next_symbol, heads, predict = self.next_symbol, self.heads, self.predict
        nullable, variables, start = self.nullable, self.cfg.variables, self.cfg.start
        seen = set()
        waiting: dict = {}
        accepting = False
        agenda = list(seeds)
        while agenda:
            item = agenda.pop()
            if item in seen:
                continue
            seen.add(item)
            rule, origin = item
            sym = next_symbol[rule]
            if sym is None:
                head = heads[rule]
                if origin == 0 and head == start:
                    accepting = True
                # An empty completion (origin == k) found every waiting
                # parent already advanced past the nullable head.
                if origin != k:
                    agenda.extend([(parent + 1, at) for parent, at
                                   in columns[origin].get(head, ())])
                continue
            filed = waiting.get(sym)
            if filed is None:
                waiting[sym] = [item]
                if sym in variables:
                    agenda.extend([(rule0, k) for rule0 in predict.get(sym, ())])
            else:
                filed.append(item)
            if sym in nullable:
                agenda.append((rule + 1, origin))
        return waiting, accepting

    def member(self, w: str) -> bool:
        for ch in w:
            if ch not in self.cfg.terminals:
                raise ValueError(f"character {ch!r} is not a terminal")
        columns: list[dict] = []
        seeds = self.seeds
        for ch in w:
            waiting, _ = self._column(seeds, columns)
            columns.append(waiting)
            seeds = [(rule + 1, origin) for rule, origin in waiting.get(ch, ())]
            if not seeds:
                return False
        return self._column(seeds, columns)[1]

    def language(self, max_len: int) -> set[str]:
        """Every string of length <= max_len the grammar derives."""
        letters = sorted(self.cfg.terminals, reverse=True)  # popped in sorted order
        members: set[str] = set()
        columns: list[dict] = []
        pending = [("", self.seeds)]
        while pending:
            prefix, seeds = pending.pop()
            del columns[len(prefix):]
            waiting, accepting = self._column(seeds, columns)
            if accepting:
                members.add(prefix)
            if len(prefix) == max_len:
                continue
            columns.append(waiting)
            for ch in letters:
                scanned = waiting.get(ch)
                # No seeds: no extension of prefix + ch is a member either.
                if scanned:
                    pending.append((prefix + ch, [(rule + 1, origin)
                                                  for rule, origin in scanned]))
        return members


def cfg_member(cfg: Cfg, w: str) -> bool:
    """True iff the grammar derives ``w``.  Always terminates."""
    return _Recognizer(cfg).member(w)


def derivable_strings(cfg: Cfg, max_len: int, max_forms: int = 1_000_000) -> set[str]:
    """Every terminal string of length <= max_len the grammar derives,
    computed by exhaustive breadth-first expansion of leftmost sentential
    forms.

    Pruning is exact: forms whose terminal content already exceeds the
    bound, whose minimum remaining yield cannot fit it, or whose length
    exceeds what any minimal derivation of a bounded string can need are
    dropped.  Independent of the chart recognizer and used to cross-check
    it.  Raises RuntimeError instead of answering if the form space
    explodes; it never guesses.
    """
    bodies = defaultdict(list)
    max_body = 1
    for head, body in sorted(cfg.productions):
        bodies[head].append(body)
        max_body = max(max_body, len(body))

    # Least number of terminals derivable per variable; inf = generates nothing.
    min_yield: dict[str, float] = {v: math.inf for v in cfg.variables}
    changed = True
    while changed:
        changed = False
        for head, body in cfg.productions:
            total = 0.0
            for sym in body:
                total += 1 if sym in cfg.terminals else min_yield.get(sym, math.inf)
            if total < min_yield[head]:
                min_yield[head] = total
                changed = True

    # In a minimal leftmost derivation of a string of length <= max_len the
    # pending suffix is bounded by tree depth times branching, and the depth
    # by |V| distinct variables per nesting level; anything longer is
    # derivable some shorter way.
    cap = max_len + 2 + max(1, len(cfg.variables)) * (2 * max_len + 2) * max(1, max_body - 1)

    start_form = (cfg.start,)
    seen = {start_form}
    queue = deque([start_form])
    found: set[str] = set()
    while queue:
        form = queue.popleft()
        leftmost = next(
            (j for j, sym in enumerate(form) if sym in cfg.variables), None)
        if leftmost is None:
            found.add("".join(form))
            continue
        for body in bodies.get(form[leftmost], ()):
            expanded = form[:leftmost] + body + form[leftmost + 1:]
            if len(expanded) > cap or expanded in seen:
                continue
            budget = 0.0
            for sym in expanded:
                budget += 1 if sym in cfg.terminals else min_yield.get(sym, math.inf)
                if budget > max_len:
                    break
            if budget > max_len:
                continue
            seen.add(expanded)
            if len(seen) > max_forms:
                raise RuntimeError(
                    "sentential form search exploded; raise max_forms or shrink the grammar")
            queue.append(expanded)
    return found


def _membership(source: LanguageSource, max_len: int, limits: Limits):
    """Membership function for strings up to ``max_len`` returning
    True/False, or None for inconclusive: a lookup in the grammar's walked
    language, built here once, or the bounded simulator for automata."""
    if isinstance(source, Cfg):
        return _Recognizer(source).language(max_len).__contains__

    def query(w: str):
        verdict = accepts(source, w, limits)
        if verdict.is_accepted:
            return True
        if verdict.is_rejected:
            return False
        return None

    return query


def _source_alphabet(source: LanguageSource) -> frozenset[str]:
    return source.terminals if isinstance(source, Cfg) else source.input_alphabet


def strings_up_to(alphabet, max_len: int) -> Iterator[str]:
    """Every string over the alphabet with length <= max_len, shortest first
    and lexicographic within a length."""
    symbols = sorted(alphabet)
    for n in range(max_len + 1):
        for letters in itertools.product(symbols, repeat=n):
            yield "".join(letters)


def enumerate_language(source: LanguageSource, max_len: int,
                       limits: Limits = DEFAULT_LIMITS) -> tuple[set[str], bool]:
    """Members of the source's language up to ``max_len``.

    A grammar's members come from one exact walk of its string trie;
    automaton membership uses the bounded simulator per string, and
    ``complete`` is False when any verdict was inconclusive (such strings
    are excluded rather than guessed at).
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    if isinstance(source, Cfg):
        return _Recognizer(source).language(max_len), True
    members: set[str] = set()
    complete = True
    query = _membership(source, max_len, limits)
    for w in strings_up_to(source.input_alphabet, max_len):
        member = query(w)
        if member:
            members.add(w)
        elif member is None:
            complete = False
    return members, complete
