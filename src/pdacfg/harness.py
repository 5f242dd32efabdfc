"""Differential language checking across automata and grammar routes.

A check computes each labeled source's bounded language once, then reads
every string over the alphabet up to the length bound off those languages.
Two conclusive verdicts that differ make a mismatch; inconclusive simulator
verdicts are reported separately and never counted as disagreement.  A
report keeps what ``check`` prints: every mismatch, the number of
inconclusive strings and the first ten of them, so its size does not grow
with the length bound.  The automata and grammars checked in the suites and
scripts come from ``corpus``, which a check never loads.
"""

from __future__ import annotations

import time
from typing import NamedTuple, Sequence

from .grammar import classical_pda_to_cfg, sspda_to_cfg
from .language import LanguageSource, _language, _source_alphabet, strings_up_to
from .model import DEFAULT_LIMITS, Limits, Pda
from .singlestate import to_single_state


# A report keeps the first this many inconclusive strings.
_KEPT_INCONCLUSIVE = 10


class EquivalenceReport(NamedTuple):
    """Outcome of one differential run.

    ``mismatches`` holds (string, per-source verdicts) pairs, and
    ``inconclusive`` the first ten inconclusive strings in shortlex order:
    strings no two conclusive verdicts split that some source could not
    settle.  Every tested string falls into exactly one bucket: agreement,
    mismatch or inconclusive, so ``inconclusive_count`` is what the other
    two leave of the strings checked.
    """

    sources: tuple[str, ...]
    alphabet: frozenset[str]
    max_len: int
    agreements: int
    mismatches: tuple[tuple[str, tuple[tuple[str, str], ...]], ...]
    inconclusive: tuple[str, ...]
    elapsed: float

    @property
    def checked(self) -> int:
        return sum(len(self.alphabet) ** k for k in range(self.max_len + 1))

    @property
    def inconclusive_count(self) -> int:
        return self.checked - self.agreements - len(self.mismatches)

    def summary_line(self) -> str:
        return (f"checked={self.checked} agree={self.agreements} "
                f"mismatch={len(self.mismatches)} "
                f"inconclusive={self.inconclusive_count}")

    def table(self) -> str:
        lines = []
        if self.mismatches:
            lines.append("mismatches:")
            for w, verdicts in self.mismatches:
                cells = " ".join(f"{label}={v}" for label, v in verdicts)
                lines.append(f"  '{w}'  {cells}")
        if self.inconclusive:
            lines.append(
                "inconclusive strings: "
                + " ".join(f"'{w}'" for w in self.inconclusive)
                + (" ..." if self.inconclusive_count > _KEPT_INCONCLUSIVE else ""))
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
    labels = tuple(label for label, _ in sources)
    languages = [_language(source, max_len, limits) for _, source in sources]
    text = {True: "yes", False: "no", None: "inconclusive"}
    agreements = 0
    mismatches = []
    inconclusive = []
    for w in strings_up_to(alpha, max_len):
        # A string that is not accepted is inconclusive under an unsettled
        # prefix, ``""`` and itself included; most routes leave none.
        verdicts = [True if w in accepted else
                    None if unsettled and any(w[:i] in unsettled for i in range(len(w) + 1))
                    else False
                    for accepted, unsettled in languages]
        if True in verdicts and False in verdicts:
            mismatches.append((w, tuple(zip(labels, map(text.get, verdicts)))))
        elif None not in verdicts:
            agreements += 1
        elif len(inconclusive) < _KEPT_INCONCLUSIVE:
            inconclusive.append(w)
    return EquivalenceReport(
        sources=labels,
        alphabet=alpha,
        max_len=max_len,
        agreements=agreements,
        mismatches=tuple(mismatches),
        inconclusive=tuple(inconclusive),
        elapsed=time.perf_counter() - started,
    )
