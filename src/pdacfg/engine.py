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
grammar or an automaton (enumeration, differential checks) walk the
string trie depth first, so strings share the work of their common
prefixes: a grammar gets one chart column per prefix, and an automaton one
set of configurations per prefix, the set the search reaches at that input
position.  The grammar walk does only work that can change an answer: the
recognizer drops every rule that can never complete when it is built, and
the last column of a walk predicts nothing, since nothing predicted there
can complete except empty, which the nullable advance already covers.  The
automaton walk gives exactly the verdict kinds of per-string
searches: while the configurations along a path stay within the budget,
a string is decided from them and from whether any tried move was pruned;
once they exceed it, every string under that prefix gets its own search.
A prefix with no successors settles its whole subtree at once.
"""

from __future__ import annotations

import itertools
import weakref
from collections import defaultdict, deque
from typing import Iterator, NamedTuple, Union

from .model import Cfg, Configuration, Pda, SingleStatePda, _Record

Automaton = Union[Pda, SingleStatePda]
LanguageSource = Union[Pda, SingleStatePda, Cfg]


class Limits(_Record):
    """Search bounds for the PDA simulator; both must be positive."""

    __slots__ = _fields = _compared = ("max_configs", "max_stack_depth")

    max_configs: int
    max_stack_depth: int

    def __init__(self, max_configs: int = 100_000, max_stack_depth: int = 64):
        if max_configs <= 0 or max_stack_depth <= 0:
            raise ValueError("limits must be positive")
        self._set(max_configs, max_stack_depth)


DEFAULT_LIMITS = Limits()


class Verdict(NamedTuple):
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


class _Compiled(NamedTuple):
    """An automaton's moves, indexed by state and stack symbol interned to
    ints; both automaton kinds compile the same way.

    ``moves[state id][top id]`` lists ``(input, push ids, to id,
    Transition)`` in ``sorted(..., key=str)`` order, the order the search
    explores moves in.  ``epsilon`` and ``reading`` split the same moves
    into ``(push ids, to id)`` and ``(input, push ids, to id)`` for the
    trie walk.  The start state and start symbol both have id 0, and the
    other ids are needed only while compiling.  Nothing here refers back to
    the automaton, so the cache can drop it.
    """

    alphabet: frozenset
    moves: list
    epsilon: list
    reading: list


def _compile(m: Automaton) -> _Compiled:
    states = {m.start_state: 0}
    symbols = {m.start_stack: 0}
    rows = defaultdict(list)
    for t in sorted(m.transitions, key=str):
        key = (states.setdefault(t.from_state, len(states)),
               symbols.setdefault(t.pop, len(symbols)))
        push = tuple(symbols.setdefault(s, len(symbols)) for s in t.push)
        rows[key].append((t.input, push, states.setdefault(t.to_state, len(states)), t))
    moves = [[() for _ in symbols] for _ in states]
    epsilon = [[() for _ in symbols] for _ in states]
    reading = [[() for _ in symbols] for _ in states]
    for (from_id, top_id), row in rows.items():
        moves[from_id][top_id] = tuple(row)
        epsilon[from_id][top_id] = tuple(
            (push, to) for inp, push, to, _ in row if inp is None)
        reading[from_id][top_id] = tuple(
            (inp, push, to) for inp, push, to, _ in row if inp is not None)
    return _Compiled(m.input_alphabet, moves, epsilon, reading)


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
    alphabet, moves, _, _ = _compiled(m)
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
            return Verdict("inconclusive", reason="max_configs")
        config = queue.popleft()
        explored += 1
        state, pos, stack = config
        if not stack:
            if pos == n:
                witness = []
                while parents[config] is not None:
                    config, move = parents[config]
                    witness.append(move)
                return Verdict("accepted", witness=tuple(reversed(witness)))
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
    if pruned:
        return Verdict("inconclusive", reason="max_stack_depth")
    return Verdict("rejected")


def _close(compiled: _Compiled, seeds, budget: int, max_depth: int, read: bool):
    """The configurations ``accepts`` reaches at one input position.

    ``seeds`` are the ``(state id, stack)`` pairs the previous letter led
    to; they are closed under epsilon moves.  Returns None as soon as the
    position holds more than ``budget`` configurations.  Otherwise returns
    how many it holds, whether one has an empty stack, whether an epsilon
    move pushed past ``max_depth``, and, when ``read`` is set, the seeds
    each letter's reading moves lead to and the letters whose reading
    moves pushed past ``max_depth``.
    """
    epsilon, reading = compiled.epsilon, compiled.reading
    configs = set(seeds)
    if len(configs) > budget:
        return None
    agenda = list(configs)
    pruned = False
    while agenda:
        state, stack = agenda.pop()
        for push, to in epsilon[state][stack[0]] if stack else ():
            successor_stack = push + stack[1:]
            if len(successor_stack) > max_depth:
                pruned = True
                continue
            successor = (to, successor_stack)
            if successor not in configs:
                configs.add(successor)
                if len(configs) > budget:
                    return None
                agenda.append(successor)
    # Filed only once the position is known to fit the budget.
    successors = {ch: set() for ch in compiled.alphabet} if read else {}
    overflows = set()
    accepting = False
    for state, stack in configs:
        if not stack:
            accepting = True
        elif read:
            rest = stack[1:]
            for inp, push, to in reading[state][stack[0]]:
                successor_stack = push + rest
                if len(successor_stack) > max_depth:
                    overflows.add(inp)
                else:
                    successors[inp].add((to, successor_stack))
    return len(configs), accepting, pruned, successors, overflows


def _simulate_language(m: Automaton, max_len: int,
                       limits: Limits) -> tuple[set[str], set[str]]:
    """The strings up to ``max_len`` that ``accepts`` would call accepted,
    and those it would call inconclusive; every other string is rejected.

    The configurations ``accepts`` reaches at input position k depend only
    on the first k letters, so the string trie is walked depth first with
    one configuration set per prefix.  Each path carries the number of
    configurations reached so far and whether a tried move was pruned.
    While that number is within ``max_configs``, the search of a string
    would reach everything and stop: accepted if a configuration at its end
    has an empty stack, else inconclusive if anything was pruned, else
    rejected.  Past it, the search may still accept before its budget runs
    out, so every string under that prefix is asked of ``accepts`` itself.
    """
    compiled = _compiled(m)
    alphabet = m.input_alphabet
    max_configs, max_depth = limits.max_configs, limits.max_stack_depth
    accepted: set[str] = set()
    inconclusive: set[str] = set()
    pending = [("", {(0, (0,))}, 0, False)]
    while pending:
        prefix, seeds, explored, pruned = pending.pop()
        closed = _close(compiled, seeds, max_configs - explored, max_depth,
                        len(prefix) < max_len)
        if closed is None:
            for tail in strings_up_to(alphabet, max_len - len(prefix)):
                w = prefix + tail
                verdict = accepts(m, w, limits)
                if verdict.is_accepted:
                    accepted.add(w)
                elif verdict.is_inconclusive:
                    inconclusive.add(w)
            continue
        count, accepting, epsilon_pruned, successors, overflows = closed
        explored += count
        pruned = pruned or epsilon_pruned
        if accepting:
            accepted.add(prefix)
        elif pruned:
            inconclusive.add(prefix)
        for ch, child_seeds in successors.items():
            child_pruned = pruned or ch in overflows
            if child_seeds:
                pending.append((prefix + ch, child_seeds, explored, child_pruned))
            elif child_pruned:
                # Nothing left to reach: the whole subtree is as pruned as
                # its root.
                inconclusive.update(prefix + ch + tail for tail in
                                    strings_up_to(alphabet, max_len - len(prefix) - 1))
    return accepted, inconclusive


def replay_configurations(m: Automaton, w: str, witness) -> list[Configuration]:
    """Apply a transition sequence strictly from the start configuration,
    returning every configuration along the way.

    Raises ValueError if any move is not one of the automaton's or does not
    apply, making this an independent check on witnesses rather than a
    re-search.
    """
    configs = [Configuration(m.start_state, 0, (m.start_stack,))]
    for t in witness:
        if t not in m.transitions:
            raise ValueError(f"witness move '{t}' is not a move of the automaton")
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
    empty completion never needs to revisit its own column.  A rule whose
    body holds a variable that derives no terminal string can never
    complete, so it is dropped when the recognizer is built; unreachable
    rules need no such step, since they are never predicted.

    ``member`` walks the builder along one string; ``language`` walks it
    depth first over every string up to a length, one column per prefix,
    and skips the subtree under any prefix whose seed set is empty.
    """

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        productive = _heads_derived_from(cfg.productions, cfg.terminals)
        productions = sorted((head, body) for head, body in cfg.productions
                             if all(sym in productive or sym in cfg.terminals
                                    for sym in body))
        self.nullable = _heads_derived_from(productions, frozenset())
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

    def _column(self, seeds, columns: list[dict], last: bool) -> tuple[dict, bool]:
        """Close column ``len(columns)`` from its seed items, given the
        finished columns before it.  Returns the column's items filed by
        the symbol they wait on, and whether the start variable completed
        over the whole prefix.

        The ``last`` column of a walk predicts nothing.  An item predicted
        there has origin k, so it could complete only empty, and the
        nullable advance already moves every item waiting on a nullable
        variable past it.  Column 0 is no exception: its seeds are the
        start variable's own rules, so advancing them decides ``""``."""
        k = len(columns)
        next_symbol, heads = self.next_symbol, self.heads
        predict = {} if last else self.predict
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
            waiting, _ = self._column(seeds, columns, False)
            columns.append(waiting)
            seeds = [(rule + 1, origin) for rule, origin in waiting.get(ch, ())]
            if not seeds:
                return False
        return self._column(seeds, columns, True)[1]

    def language(self, max_len: int) -> set[str]:
        """Every string of length <= max_len the grammar derives."""
        letters = sorted(self.cfg.terminals, reverse=True)  # popped in sorted order
        members: set[str] = set()
        columns: list[dict] = []
        pending = [("", self.seeds)]
        while pending:
            prefix, seeds = pending.pop()
            del columns[len(prefix):]
            last = len(prefix) == max_len
            waiting, accepting = self._column(seeds, columns, last)
            if accepting:
                members.add(prefix)
            if last:
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


def derivable_strings(cfg: Cfg, max_len: int) -> set[str]:
    """Every terminal string of length <= max_len the grammar derives.

    A grammar's language is the least solution of its equations (Ginsburg
    and Rice, 1962).  Each variable holds the strings up to ``max_len`` it
    derives, and grows by the concatenations its bodies allow until nothing
    grows.  A partial concatenation over the bound is dropped, which loses
    nothing: every prefix of a yield is within the bound.  Shares no code
    with the chart recognizer, so it cross-checks it, and always answers.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    derives: dict[str, set[str]] = defaultdict(set)
    grew = True
    while grew:
        grew = False
        for head, body in cfg.productions:
            partial = {""}
            for sym in body:
                parts = derives[sym] if sym in cfg.variables else {sym}
                partial = {u + v for u in partial for v in parts
                           if len(u) + len(v) <= max_len}
            if not partial <= derives[head]:
                derives[head] |= partial
                grew = True
    return derives[cfg.start]


def _language(source: LanguageSource, max_len: int,
              limits: Limits) -> tuple[set[str], set[str]]:
    """The strings up to ``max_len`` the source accepts, and those it is
    inconclusive on; every other string is rejected.  A grammar's come from
    one exact walk of its string trie, so none is inconclusive; an
    automaton's from one walk of the bounded simulator over the trie, with
    the verdicts per-string searches would give."""
    if isinstance(source, Cfg):
        return _Recognizer(source).language(max_len), set()
    return _simulate_language(source, max_len, limits)


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
    """Members of the source's language up to ``max_len``, and whether the
    list is complete: False when some verdict was inconclusive (such
    strings are excluded rather than guessed at).  Grammars are always
    complete; automata are walked by the bounded simulator.
    """
    if max_len < 0:
        raise ValueError("max_len must be nonnegative")
    accepted, inconclusive = _language(source, max_len, limits)
    return accepted, not inconclusive
