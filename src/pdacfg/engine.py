"""Membership deciders: the bounded simulator and the Earley recognizer.

PDA membership runs as a bounded breadth-first search over configurations
and answers Accepted, Rejected, or Inconclusive; the search never lies, it
forfeits Rejected the moment a limit prunes anything.  An automaton's
transitions are indexed once per query, with states and stack symbols
interned to ints, and a bounded language is one query, save that each
string past the configuration budget gets its own ``accepts`` search,
which indexes the automaton again; no call leaves state behind.  Grammar
membership goes to an Earley chart recognizer that handles epsilon
productions, unit cycles, and left recursion natively and always
terminates, so exact questions are best routed through grammars.  A
membership query builds the columns of the one path its string spells.

An automaton's bounded language, which ``language`` asks of this module,
walks the string trie depth first with the configurations the search
reaches at each prefix, grouped by state, top and height so that a move
applies once per group; strings share the work of their common prefixes.
The walk gives exactly the verdict kinds of per-string searches: while the
configurations along a path stay within the budget, a string is decided
from them and from whether any tried move on its path was pruned; once they
exceed it, every string under that prefix gets its own search, asked only
whether it accepts.  The walk returns the strings accepted and the prefixes
it could not settle, not every inconclusive string below them, and stops
below a prefix with no successors.  A grammar's bounded language
is ``language.derivable_strings``, which shares no code with the
recognizer, so each checks the other.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import NamedTuple, Union

# ``enumerate_language`` is not called here: it is bound for
# ``perfbench/tracing.py``, whose enumeration span wraps
# ``engine.enumerate_language``.
from .language import enumerate_language, strings_up_to
from .model import DEFAULT_LIMITS, Cfg, Configuration, Limits, Pda, SingleStatePda

Automaton = Union[Pda, SingleStatePda]


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


def _compile(m: Automaton) -> list:
    """An automaton's moves as ``steps[state id][top id]``, with states and
    stack symbols interned to ints; both automaton kinds compile the same
    way, once per query.

    Each entry lists ``(input, to id, new top id, tail, growth, Transition)``
    in ``sorted(..., key=str)`` order, the order the search explores moves
    in; ``tail`` is the push ids after the new top, ``growth`` the change in
    stack height, and a pop's new top and tail are None.  The start state
    and start symbol both have id 0; the other ids matter only while
    compiling.
    """
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
    for (from_id, top_id), row in rows.items():
        steps[from_id][top_id] = tuple(row)
    return steps


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

    steps = _compile(m)
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


def _close(steps, seeds: dict, budget: int, max_depth: int, letters):
    """The configurations ``accepts`` reaches at one input position, as
    groups ``{(state id, top id, height): set of rests}``, a rest being the
    ids below the top; an empty stack is ``(state id, None, 0): {()}``.
    ``seeds``, the groups the previous letter led to, grow in place into
    the position's groups in semi-naive rounds, each moving only the rests
    new in the round before.  Each move applies once to a whole group and
    is filed under its input, if the position has a slot for it: epsilon
    moves under None, into the position, and reading moves under the next
    letter, into the seeds of the next position.  A push sets its tail
    above every rest, and a pop regroups the rests by their own tops.
    Returns None once the position holds more than ``budget``
    configurations; otherwise how many it holds, whether one has an empty
    stack, the seeds each of ``letters`` leads to, and the inputs, None
    for epsilon, whose moves pushed past ``max_depth``.  ``letters`` is
    empty at the last position.
    """
    count = sum(map(len, seeds.values()))
    if count > budget:
        return None
    groups = new_groups = seeds
    filed: dict = {ch: {} for ch in letters}
    over: set = set()
    accepting = False
    while new_groups:
        filed[None] = stepped = {}
        for (state, top, height), rests in new_groups.items():
            if not height:
                accepting = True
                continue
            for inp, to, new_top, tail, growth, _ in steps[state][top]:
                landed = filed.get(inp)
                if landed is None:
                    continue
                if height + growth > max_depth:
                    over.add(inp)
                    continue
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
    return count, accepting, filed, over


def _simulate_language(m: Automaton, max_len: int,
                       limits: Limits) -> tuple[set[str], set[str]]:
    """The strings up to ``max_len`` that ``accepts`` would call accepted,
    and the prefixes the walk could not settle: ``accepts`` would call
    inconclusive every string up to ``max_len`` that is not accepted and
    extends one of them, the prefix itself included, and rejected every
    other string.

    The configurations ``accepts`` reaches at input position k depend only
    on the first k letters, so the string trie is walked depth first with
    one position's groups of configurations per prefix.  Each path carries
    the number of distinct configurations, not groups, reached so far.
    While that number is within ``max_configs``, the search of a string
    would reach everything and stop: accepted if a configuration at its end
    has an empty stack, else inconclusive if a tried move on its path was
    pruned, else rejected.  So a prefix p is unsettled when an epsilon move
    at p pushed past ``max_depth``, and p + ch when a move reading ch did.
    Past the budget at p, a search below p may still accept before its
    budget runs out but can never end rejected, so p is unsettled and
    ``accepts`` itself is asked only which strings below p it accepts.
    """
    steps = _compile(m)
    alphabet = m.input_alphabet
    max_configs, max_depth = limits.max_configs, limits.max_stack_depth
    accepted: set[str] = set()
    unsettled: set[str] = set()
    pending = [("", {(0, 0, 1): {()}}, 0)]
    while pending:
        prefix, seeds, explored = pending.pop()
        closed = _close(steps, seeds, max_configs - explored, max_depth,
                        alphabet if len(prefix) < max_len else ())
        if closed is None:
            unsettled.add(prefix)
            below = (prefix + tail for tail in strings_up_to(alphabet, max_len - len(prefix)))
            accepted.update(w for w in below if accepts(m, w, limits).is_accepted)
            continue
        count, accepting, successors, overflows = closed
        if accepting:
            accepted.add(prefix)
        unsettled.update(prefix + (ch or "") for ch in overflows)
        pending.extend((prefix + ch, child_seeds, explored + count)
                       for ch, child_seeds in successors.items() if child_seeds)
    return accepted, unsettled


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


class _Recognizer:
    """Earley chart recognizer over one grammar, read one column at a time.

    A dotted rule is a production with a dot in its body; they are numbered
    so that advancing the dot adds one.  An item is ``(dotted rule,
    origin)``.  ``_column`` closes column k from its seed items and files
    every item whose dot stands before a symbol under that symbol, so
    completion reads ``columns[origin][head]`` and scanning letter c reads
    column k's ``c`` entry.  Epsilon is settled inside the column, with no
    nullable set computed beforehand: when a variable completes over no
    input, the items already waiting on it in the column advance past it,
    and the column remembers the variable, so an item filed on it later
    advances at once.  No rule is trimmed: one whose body holds a variable
    that derives no terminal string never gets past it, and one the start
    cannot reach is never predicted.

    ``member`` builds the columns of its string's one path.  Bounded
    enumeration is ``language.derivable_strings``, which shares no code
    with this class, so each checks the other.
    """

    def __init__(self, cfg: Cfg):
        self.cfg = cfg
        productions = sorted(cfg.productions)
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
        variables, start = self.cfg.variables, self.cfg.start
        seen = set()
        waiting: dict = {}
        empty = set()  # the variables completed over no input in this column
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
                if origin == k:
                    empty.add(head)
                parents = waiting if origin == k else columns[origin]
                agenda.extend([(parent + 1, at) for parent, at in parents.get(head, ())])
                continue
            filed = waiting.get(sym)
            if filed is None:
                waiting[sym] = [item]
                if sym in variables:
                    agenda.extend([(rule0, k) for rule0 in predict.get(sym, ())])
            else:
                filed.append(item)
            if sym in empty:
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
