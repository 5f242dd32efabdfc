"""Differential language checking across automata and grammar routes.

A check computes each labeled source's bounded language once, then reads
every string over the alphabet up to the length bound off those languages.
Two conclusive verdicts that differ make a mismatch; inconclusive simulator
verdicts are reported separately and never counted as disagreement.  The
automata and grammars checked in the suites and scripts come from
``corpus``, which a check never loads.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Sequence

from .grammar import classical_pda_to_cfg, sspda_to_cfg
from .language import LanguageSource, _language, _source_alphabet, strings_up_to
from .model import DEFAULT_LIMITS, Limits, Pda
from .singlestate import to_single_state


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
        # A string that is not accepted is inconclusive under an unsettled
        # prefix, ``""`` and itself included; most routes leave none.
        verdicts = [(label, True if w in accepted else
                     None if unsettled and any(w[:i] in unsettled for i in range(len(w) + 1))
                     else False)
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
