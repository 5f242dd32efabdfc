"""Membership deciders and bounded enumeration.

PDA membership runs as a bounded breadth-first search over configurations
and answers Accepted, Rejected, or Inconclusive; the search never lies, it
forfeits Rejected the moment a limit prunes anything.  An automaton's
transitions are indexed once per query, with states and stack symbols
interned to ints, and a bounded language is one query; no call leaves state
behind.  Grammar membership goes to an Earley chart recognizer that handles
epsilon productions, unit cycles, and left recursion natively and always
terminates, so exact questions are best routed through grammars.  A
membership query builds the columns of the one path its string spells; the
recognizer drops every rule that can never complete when it is built.

A grammar's bounded language, which enumeration and differential checks
read, is the least solution of its equations, evaluated bottom up over
strings bucketed by length (``derivable_strings``); it shares no code with
the recognizer, whose ``member`` is its independent cross-check.  An
automaton's bounded language walks the string trie depth first with the
configurations the search reaches at each prefix, grouped by state, top
and height so that a move applies once per group; strings share the work
of their common prefixes.  The walk gives exactly the verdict kinds of
per-string searches: while the configurations along a path stay within
the budget, a string is decided from them and from whether any tried move
was pruned; once they exceed it, every string under that prefix gets its
own search.  A prefix with no successors settles its whole subtree at
once.
"""

from __future__ import annotations

import itertools
from collections import defaultdict, deque
from typing import Iterator, NamedTuple, Union

from .model import Cfg, Configuration, Pda, SingleStatePda, _Record

Automaton = Union[Pda, SingleStatePda]
LanguageSource = Union[Pda, SingleStatePda, Cfg]


class Limits(_Record):
    """Search bounds for the PDA simulator; both must be positive."""

    __slots__ = _fields = ("max_configs", "max_stack_depth")

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
    ints; both automaton kinds compile the same way, once per query.

    ``steps[state id][top id]`` lists ``(input, to id, new top id, tail,
    growth, Transition)`` in ``sorted(..., key=str)`` order, the order the
    search explores moves in; ``tail`` is the push ids after the new top,
    ``growth`` the change in stack height, and a pop's new top and tail
    are None.  ``epsilon`` keeps only the steps that read nothing.  The
    start state and start symbol both have id 0; the other ids matter only
    while compiling.
    """

    steps: list
    epsilon: list


def _compile(m: Automaton) -> _Compiled:
    states = {m.start_state: 0}
    symbols = {m.start_stack: 0}
    rows = defaultdict(list)
    for t in sorted(m.transitions, key=str):
        key = (states.setdefault(t.from_state, len(states)),
               symbols.setdefault(t.pop, len(symbols)))
        push = tuple(symbols.setdefault(s, len(symbols)) for s in t.push)
        to = states.setdefault(t.to_state, len(states))
        rows[key].append((t.input, to, push[0], push[1:], len(push) - 1, t) if push
                         else (t.input, to, None, None, -1, t))
    steps = [[() for _ in symbols] for _ in states]
    epsilon = [[() for _ in symbols] for _ in states]
    for (from_id, top_id), row in rows.items():
        steps[from_id][top_id] = tuple(row)
        epsilon[from_id][top_id] = tuple(step for step in row if step[0] is None)
    return _Compiled(steps, epsilon)


def accepts(m: Automaton, w: str, limits: Limits = DEFAULT_LIMITS) -> Verdict:
    """Bounded breadth-first membership for empty-stack acceptance.

    Accepted as soon as some configuration has consumed all input on an
    empty stack; the witness is the move-minimal transition sequence.
    Rejected only when the frontier empties with nothing ever pruned;
    otherwise the verdict is Inconclusive naming the limit hit.

    Configurations are ``(state id, input position, stack of symbol ids)``
    tuples over the automaton's compiled index.
    """
    for ch in w:
        if ch not in m.input_alphabet:
            raise ValueError(f"input character {ch!r} is not in the alphabet")

    steps = _compile(m).steps
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
        height = len(stack)
        for inp, to, new_top, tail, growth, t in steps[state][stack[0]]:
            if inp is None:
                at = pos
            elif inp == ch:
                at = pos + 1
            else:
                continue
            if height + growth > max_depth:
                pruned = True
                continue
            successor = (to, at, rest if new_top is None else (new_top, *tail, *rest))
            if successor in parents:
                continue
            parents[successor] = (config, t)
            queue.append(successor)
    if pruned:
        return Verdict("inconclusive", reason="max_stack_depth")
    return Verdict("rejected")


def _step(table, groups: dict, max_depth: int, filed: dict, over: set) -> bool:
    """Apply each move of ``table`` once to a whole group, filing the
    groups it leads to under ``filed[input]`` as new sets: a push sets its
    tail above every rest, and a pop regroups the rests by their own tops.
    The inputs of moves that would push past ``max_depth`` go to ``over``.
    Returns whether one of ``groups`` is an empty stack."""
    emptied = False
    for (state, top, height), rests in groups.items():
        if not height:
            emptied = True
            continue
        for inp, to, new_top, tail, growth, _ in table[state][top]:
            if height + growth > max_depth:
                over.add(inp)
                continue
            landed = filed[inp]
            if new_top is not None:
                key = (to, new_top, height + growth)
                new = {tail + rest for rest in rests} if tail else set(rests)
                have = landed.get(key)
                if have is None:
                    landed[key] = new
                else:
                    have |= new
            elif height == 1:
                landed[to, None, 0] = {()}
            else:
                for rest in rests:
                    key = (to, rest[0], height - 1)
                    have = landed.get(key)
                    if have is None:
                        landed[key] = {rest[1:]}
                    else:
                        have.add(rest[1:])
    return emptied


def _close(compiled: _Compiled, seeds: dict, budget: int, max_depth: int, letters):
    """The configurations ``accepts`` reaches at one input position, as
    groups ``{(state id, top id, height): set of rests}``, a rest being the
    ids below the top; an empty stack is ``(state id, None, 0): {()}``.
    ``seeds``, the groups the previous letter led to, grow in place into
    the position's groups in semi-naive rounds, each moving only the rests
    new in the round before: epsilon moves file into the position, reading
    moves into the seeds of the next.  Returns None once the position
    holds more than ``budget`` configurations; otherwise how many it holds,
    whether one has an empty stack, whether an epsilon move pushed past
    ``max_depth``, the seeds each of ``letters`` leads to, and the letters
    whose moves pushed past it.  ``letters`` is empty at the last position.
    """
    count = sum(map(len, seeds.values()))
    if count > budget:
        return None
    table = compiled.steps if letters else compiled.epsilon
    groups = new_groups = seeds
    filed: dict = {ch: {} for ch in letters}
    over: set = set()
    accepting = False
    while new_groups:
        filed[None] = stepped = {}
        accepting = _step(table, new_groups, max_depth, filed, over) or accepting
        new_groups = {}
        for key, new in stepped.items():
            have = groups.get(key)
            if have is None:
                groups[key] = new
            else:
                new -= have
                have |= new
            if new:
                new_groups[key] = new
                count += len(new)
        if count > budget:
            return None
    del filed[None]
    return count, accepting, None in over, filed, over


def _simulate_language(m: Automaton, max_len: int,
                       limits: Limits) -> tuple[set[str], set[str]]:
    """The strings up to ``max_len`` that ``accepts`` would call accepted,
    and those it would call inconclusive; every other string is rejected.

    The configurations ``accepts`` reaches at input position k depend only
    on the first k letters, so the string trie is walked depth first with
    one position's groups of configurations per prefix.  Each path carries
    the number of distinct configurations, not groups, reached so far and
    whether a tried move was pruned.  While that number is within
    ``max_configs``, the search of a string would reach everything and
    stop: accepted if a configuration at its end has an empty stack, else
    inconclusive if anything was pruned, else rejected.  Past it, the search
    may still accept before its budget runs out, so every string under that
    prefix is asked of ``accepts`` itself.
    """
    compiled = _compile(m)
    alphabet = m.input_alphabet
    max_configs, max_depth = limits.max_configs, limits.max_stack_depth
    accepted: set[str] = set()
    inconclusive: set[str] = set()
    pending = [("", {(0, 0, 1): {()}}, 0, False)]
    while pending:
        prefix, seeds, explored, pruned = pending.pop()
        closed = _close(compiled, seeds, max_configs - explored, max_depth,
                        alphabet if len(prefix) < max_len else ())
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


def _generating_rules(cfg: Cfg) -> list:
    """The productions whose bodies hold only terminals and variables that
    derive some terminal string: the rules that can ever complete."""
    generating = _heads_derived_from(cfg.productions, cfg.terminals)
    return [(head, body) for head, body in cfg.productions
            if all(sym in generating or sym in cfg.terminals for sym in body)]


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

    ``member`` builds the columns of its string's one path.  Bounded
    enumeration is ``derivable_strings``, which shares no code with this
    class, so each checks the other.
    """

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        productions = sorted(_generating_rules(cfg))
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
        """Whether the grammar derives ``w``: one column per prefix of
        ``w``, stopping at the first letter no item waits on."""
        for ch in w:
            if ch not in self.cfg.terminals:
                raise ValueError(f"character {ch!r} is not a terminal")
        columns: list[dict] = []
        seeds = self.seeds
        for ch in w:
            waiting, _ = self._column(seeds, columns)
            scanned = waiting.get(ch)
            if not scanned:
                return False
            columns.append(waiting)
            seeds = [(rule + 1, origin) for rule, origin in scanned]
        return self._column(seeds, columns)[1]


def cfg_member(cfg: Cfg, w: str) -> bool:
    """True iff the grammar derives ``w``.  Always terminates."""
    return _Recognizer(cfg).member(w)


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
    accepted, inconclusive = _language(source, max_len, limits)
    return accepted, not inconclusive
