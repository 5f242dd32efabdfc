"""Differential language checking across automata and grammar routes.

A check computes each labeled source's bounded language once, then reads
every string over the alphabet up to the length bound off those languages.
Two conclusive verdicts that differ make a mismatch; inconclusive simulator
verdicts are reported separately and never counted as disagreement.  The
module also ships a small corpus of automata with known languages and seeded
random generators for automata and grammars.
"""

from __future__ import annotations

import random
import time
from typing import NamedTuple, Sequence

from .engine import (DEFAULT_LIMITS, LanguageSource, Limits, _language, _source_alphabet,
                     strings_up_to)
from .grammar import classical_pda_to_cfg, sspda_to_cfg
from .model import Cfg, Pda, Transition
from .singlestate import to_single_state
from .textio import parse_pda


class EquivalenceReport(NamedTuple):
    """Outcome of one differential run.

    ``mismatches`` holds (string, per-source verdicts) pairs and
    ``inconclusive`` (string, source label) pairs.  Every tested string falls
    into exactly one bucket: agreement, mismatch, or inconclusive-affected,
    so the counts always add up to the number of strings checked.
    """

    sources: tuple[str, ...]
    alphabet: frozenset[str]
    max_len: int
    agreements: int
    mismatches: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    inconclusive: tuple[tuple[str, str], ...]
    elapsed: float

    @property
    def checked(self) -> int:
        return sum(len(self.alphabet) ** k for k in range(self.max_len + 1))

    @property
    def inconclusive_strings(self) -> tuple[str, ...]:
        flagged = {w for w, _ in self.inconclusive}
        return tuple(sorted(flagged, key=lambda w: (len(w), w)))

    def summary_line(self) -> str:
        return (f"checked={self.checked} agree={self.agreements} "
                f"mismatch={len(self.mismatches)} "
                f"inconclusive={len(self.inconclusive_strings)}")

    def table(self) -> str:
        lines = []
        if self.mismatches:
            lines.append("mismatches:")
            for w, verdicts in self.mismatches:
                cells = " ".join(f"{label}={v}" for label, v in verdicts)
                lines.append(f"  '{w}'  {cells}")
        if self.inconclusive_strings:
            lines.append(
                "inconclusive strings: "
                + " ".join(f"'{w}'" for w in self.inconclusive_strings[:10])
                + (" ..." if len(self.inconclusive_strings) > 10 else ""))
        lines.append(self.summary_line())
        return "\n".join(lines)


def routes(pda: Pda, classical: bool) -> list[tuple[str, LanguageSource]]:
    """The labeled language sources a differential check compares for
    ``pda``: the automaton, its single-state form, and the staged grammar,
    plus the direct one-step grammar when ``classical`` is set."""
    sspda = to_single_state(pda)
    sources = [("pda", pda), ("sspda", sspda), ("cfg", sspda_to_cfg(sspda))]
    if classical:
        sources.append(("classical", classical_pda_to_cfg(pda)))
    return sources


def differential_check(sources: Sequence[tuple[str, LanguageSource]], max_len: int,
                       limits: Limits = DEFAULT_LIMITS) -> EquivalenceReport:
    """Compare labeled language sources on every string up to ``max_len``
    over the first source's alphabet, which every source must share."""
    if len(sources) < 2:
        raise ValueError("need at least two sources to compare")
    alpha = _source_alphabet(sources[0][1])
    for label, source in sources[1:]:
        if _source_alphabet(source) != alpha:
            raise ValueError(f"source {label!r} does not share the alphabet")

    # Timed from here: every source's language is computed up front.
    started = time.perf_counter()
    languages = [(label, *_language(source, max_len, limits)) for label, source in sources]
    agreements = 0
    mismatches = []
    inconclusive = []
    for w in strings_up_to(alpha, max_len):
        verdicts = [(label, True if w in accepted else None if w in unsettled else False)
                    for label, accepted, unsettled in languages]
        conclusive = {v for _, v in verdicts if v is not None}
        pending = [label for label, v in verdicts if v is None]
        if len(conclusive) > 1:
            text = {True: "yes", False: "no", None: "inconclusive"}
            mismatches.append((w, tuple((label, text[v]) for label, v in verdicts)))
        elif pending:
            inconclusive.extend((w, label) for label in pending)
        else:
            agreements += 1
    return EquivalenceReport(
        sources=tuple(label for label, _ in sources),
        alphabet=alpha,
        max_len=max_len,
        agreements=agreements,
        mismatches=tuple(mismatches),
        inconclusive=tuple(inconclusive),
        elapsed=time.perf_counter() - started,
    )


class CorpusEntry(NamedTuple):
    """A named automaton with its expected bounded language:
    ``expected_members`` is exhaustive up to ``sample_max_len``."""

    name: str
    pda: Pda
    expected_members: frozenset[str]
    notes: str
    sample_max_len: int


P1_TEXT = """\
states: q0 q1
input: a b
stack: Z A
start: q0
startstack: Z
q0 a Z -> q0 A Z
q0 a A -> q0 A A
q0 b A -> q1 eps
q1 b A -> q1 eps
q0 eps Z -> q0 eps
q1 eps Z -> q1 eps
"""


def _matched_pairs(w: str) -> bool:
    depth = 0
    for ch in w:
        depth += 1 if ch == "(" else -1
        if depth < 0:
            return False
    return depth == 0


def _mirrored(w: str) -> bool:
    return len(w) % 2 == 0 and w == w[::-1]


def _entry(name: str, pda: Pda, predicate, sample_max_len: int, notes: str) -> CorpusEntry:
    members = frozenset(
        w for w in strings_up_to(pda.input_alphabet, sample_max_len) if predicate(w))
    return CorpusEntry(name, pda, members, notes, sample_max_len)


def builtin_corpus() -> list[CorpusEntry]:
    """Six small automata with known languages, exercised by every suite.

    P0 accepts exactly "a"; P1 is the a^n b^n automaton; P2 matches balanced
    parentheses with one state; P3 guesses the midpoint of an even-length
    palindrome; P4 has no transitions at all; P5 loops pushing forever, so
    its empty language is invisible to the bounded simulator but plain to
    the grammar routes.
    """
    p0 = Pda(
        states={"p"}, input_alphabet={"a"}, stack_alphabet={"Z"},
        transitions={Transition("p", "a", "Z", "p", ())},
        start_state="p", start_stack="Z")
    p1 = parse_pda(P1_TEXT)
    p2 = Pda(
        states={"q"}, input_alphabet={"(", ")"}, stack_alphabet={"Z", "P"},
        transitions={
            Transition("q", "(", "Z", "q", ("P", "Z")),
            Transition("q", "(", "P", "q", ("P", "P")),
            Transition("q", ")", "P", "q", ()),
            Transition("q", None, "Z", "q", ()),
        },
        start_state="q", start_stack="Z")
    p3 = Pda(
        states={"q0", "q1"}, input_alphabet={"a", "b"},
        stack_alphabet={"Z", "A", "B"},
        transitions={
            Transition("q0", "a", "Z", "q0", ("A", "Z")),
            Transition("q0", "b", "Z", "q0", ("B", "Z")),
            Transition("q0", "a", "A", "q0", ("A", "A")),
            Transition("q0", "b", "A", "q0", ("B", "A")),
            Transition("q0", "a", "B", "q0", ("A", "B")),
            Transition("q0", "b", "B", "q0", ("B", "B")),
            Transition("q0", "a", "A", "q1", ()),
            Transition("q0", "b", "B", "q1", ()),
            Transition("q1", "a", "A", "q1", ()),
            Transition("q1", "b", "B", "q1", ()),
            Transition("q0", None, "Z", "q0", ()),
            Transition("q1", None, "Z", "q1", ()),
        },
        start_state="q0", start_stack="Z")
    p4 = Pda(
        states={"p", "q"}, input_alphabet={"a", "b"}, stack_alphabet={"Z"},
        transitions=set(), start_state="p", start_stack="Z")
    p5 = Pda(
        states={"q"}, input_alphabet={"a", "b"}, stack_alphabet={"Z"},
        transitions={Transition("q", None, "Z", "q", ("Z", "Z"))},
        start_state="q", start_stack="Z")
    return [
        _entry("P0", p0, lambda w: w == "a", 4, "singleton language {a}"),
        _entry("P1", p1,
               lambda w: len(w) % 2 == 0 and w == "a" * (len(w) // 2) + "b" * (len(w) // 2),
               8, "a^n b^n, n >= 0"),
        _entry("P2", p2, _matched_pairs, 6, "balanced parentheses"),
        _entry("P3", p3, _mirrored, 6, "even-length palindromes w w^R over {a,b}"),
        _entry("P4", p4, lambda w: False, 6, "no transitions; empty language"),
        _entry("P5", p5, lambda w: False, 6,
               "epsilon push loop; empty language the simulator cannot settle"),
    ]


# Size limits of the random generators.
_PDA_MAX_STATES = 3
_PDA_MAX_STACK_SYMS = 3
_PDA_MAX_MOVES = 6
_PDA_MAX_PUSH_LEN = 3
_CFG_MAX_PRODUCTIONS = 6
_CFG_MAX_BODY_LEN = 3


def random_pda(seed: int) -> Pda:
    """Deterministically generate a valid PDA over the alphabet {a,b}.

    Roughly half of the moves are pops so the generated language has a
    fighting chance of being nonempty.
    """
    rng = random.Random(seed)
    states = tuple(f"q{i}" for i in range(rng.randint(1, _PDA_MAX_STATES)))
    stack = ("Z",) + tuple(
        f"X{i}" for i in range(1, rng.randint(1, _PDA_MAX_STACK_SYMS)))
    moves = set()
    for _ in range(rng.randint(0, _PDA_MAX_MOVES)):
        frm = rng.choice(states)
        to = rng.choice(states)
        inp = rng.choice(("a", "b", None))
        pop = rng.choice(stack)
        if rng.random() < 0.5:
            push: tuple[str, ...] = ()
        else:
            push = tuple(
                rng.choice(stack)
                for _ in range(rng.randint(1, _PDA_MAX_PUSH_LEN)))
        moves.add(Transition(frm, inp, pop, to, push))
    return Pda(states, ("a", "b"), stack, moves, states[0], "Z")


def random_cfg(seed: int) -> Cfg:
    """Deterministically generate a small grammar over terminals {a,b}.

    Bodies are unconstrained draws, so epsilon productions, unit chains, and
    left recursion all occur.
    """
    rng = random.Random(seed)
    variables = ("S", "A", "B", "C")[: rng.randint(1, 4)]
    symbols = variables + ("a", "b")
    productions = set()
    for _ in range(rng.randint(1, _CFG_MAX_PRODUCTIONS)):
        head = rng.choice(variables)
        body = tuple(
            rng.choice(symbols) for _ in range(rng.randint(0, _CFG_MAX_BODY_LEN)))
        productions.add((head, body))
    return Cfg(variables, ("a", "b"), productions, "S")
