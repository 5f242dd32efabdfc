"""The four benchmark workloads: their inputs, the program steps of one pass,
and the answers each step's output is checked against.

Every answer is computed here, independently of the program: the corpus
languages are restated as predicates, string counts and single-state row
counts come from closed forms, and the convert-scaled automata are built by
this module's own generator.  A step is one program invocation, either the
CLI (``pdacfg ARGS``) or one of the repository's scripts.  ``run.py`` runs
steps as subprocesses through ``run_subprocess`` and ``tracing.py`` runs the
same steps in-process; both judge them with ``Tally``.
"""

from __future__ import annotations

import itertools
import os
import random
import re
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
CLI = "cli"
WRITE_CORPUS = "scripts/write_corpus.py"
RUN_DIFFERENTIAL = "scripts/run_differential.py"


def _balanced(w: str) -> bool:
    depth = 0
    for ch in w:
        depth += 1 if ch == "(" else -1
        if depth < 0:
            return False
    return depth == 0


# The corpus written by scripts/write_corpus.py, restated: input alphabet and
# language of each entry.  P4 has no moves and P5 only an epsilon push loop,
# so both languages are empty.
CORPUS = {
    "P0": ("a", lambda w: w == "a"),
    "P1": ("ab", lambda w: w == "a" * (len(w) // 2) + "b" * (len(w) // 2)),
    "P2": ("()", _balanced),
    "P3": ("ab", lambda w: len(w) % 2 == 0 and w == w[::-1]),
    "P4": ("ab", lambda w: False),
    "P5": ("ab", lambda w: False),
}

CHECK_MAX_LEN = 8
SWEEP_MAX_LEN = 3
SWEEP_RANDOM = 25
ENUM_MAX_LEN = 12
ENUM_ENTRIES = ("P1", "P2", "P3")
ENUM_VARIANTS = {"staged": (), "classical": ("--classical",), "pruned": ("--prune",)}
SCALED_STATES = (2, 4, 8)
SCALED_PUSH_LENGTHS = (2, 3, 4)
SCALED_PUSH_MOVES = 3

STEP_TIMEOUT_S = 170

_SUMMARY = re.compile(
    r"checked=(\d+) agree=(\d+) mismatch=(\d+) inconclusive=(\d+)")


class CheckFailed(Exception):
    """A step's output disagrees with the benchmark's own answer."""


@dataclass
class Outcome:
    """What one checked step contributed: candidate strings every route
    settled (or rows emitted), strings checked, inconclusive strings, and
    exact counts that must repeat between passes."""

    items: int = 0
    checked: int = 0
    inconclusive: int = 0
    counts: dict = field(default_factory=dict)


@dataclass
class Step:
    program: str  # CLI or a script path relative to the repository root
    args: list
    expected_exit: int
    check: Callable[[str, str], Outcome]
    label: str


def strings_up_to(alphabet: str, max_len: int):
    for n in range(max_len + 1):
        for letters in itertools.product(sorted(alphabet), repeat=n):
            yield "".join(letters)


def string_count(alphabet_size: int, max_len: int) -> int:
    return sum(alphabet_size ** k for k in range(max_len + 1))


def _summary(text: str, alphabet_size: int, max_len: int, label: str) -> Outcome:
    found = _SUMMARY.findall(text)
    if not found:
        raise CheckFailed(f"{label}: no summary line")
    checked, agree, mismatch, inconclusive = map(int, found[-1])
    want = string_count(alphabet_size, max_len)
    if checked != want:
        raise CheckFailed(f"{label}: checked={checked}, expected {want}")
    if mismatch:
        raise CheckFailed(f"{label}: mismatch={mismatch}")
    if agree + inconclusive != checked:
        raise CheckFailed(f"{label}: agree+inconclusive != checked")
    return Outcome(items=agree, checked=checked, inconclusive=inconclusive,
                   counts={f"{label}.checked": checked, f"{label}.agree": agree,
                           f"{label}.inconclusive": inconclusive})


def ready_step() -> Step:
    """A no-work CLI start: proves the program runs and fills its bytecode
    cache before anything is timed."""
    def check(out, err):
        if "usage:" not in out:
            raise CheckFailed("pdacfg --help printed no usage")
        return Outcome()
    return Step(CLI, ["--help"], 0, check, "ready")


# -- check-corpus ---------------------------------------------------------

def _check_step(path: Path, name: str) -> Step:
    alphabet, _ = CORPUS[name]
    return Step(CLI, ["check", str(path), "--classical", "--max-len", str(CHECK_MAX_LEN)],
                2 if name == "P5" else 0,
                lambda out, err: _summary(out, len(alphabet), CHECK_MAX_LEN, name),
                f"check {name}")


def _corpus_step(directory: Path) -> Step:
    def check(out, err):
        written = {Path(line).stem for line in out.split()}
        if written != set(CORPUS):
            raise CheckFailed(f"write_corpus wrote {sorted(written)}")
        return Outcome()
    return Step(WRITE_CORPUS, [str(directory)], 0, check, "write corpus")


# -- enum-grammar ---------------------------------------------------------

def _enum_step(path: Path, name: str, variant: str) -> Step:
    alphabet, member = CORPUS[name]
    expected = [w for w in strings_up_to(alphabet, ENUM_MAX_LEN) if member(w)]
    expected.sort(key=lambda w: (len(w), w))
    candidates = string_count(len(alphabet), ENUM_MAX_LEN)
    label = f"enum {name} {variant}"

    def check(out, err):
        got = out.splitlines()
        if got != expected:
            missing = sorted(set(expected) - set(got))[:3]
            extra = sorted(set(got) - set(expected))[:3]
            raise CheckFailed(f"{label}: missing {missing} extra {extra}")
        return Outcome(items=candidates, checked=candidates,
                       counts={f"{label}.members": len(got)})
    return Step(CLI, ["enum", str(path), "--max-len", str(ENUM_MAX_LEN)], 0, check, label)


def _convert_to_file(source: Path, target: Path, flags) -> Step:
    def check(out, err):
        if not target.is_file() or not target.stat().st_size:
            raise CheckFailed(f"convert wrote no {target.name}")
        return Outcome()
    return Step(CLI, ["convert", str(source), *flags, "-o", str(target)], 0, check,
                f"convert {target.name}")


# -- convert-scaled -------------------------------------------------------

@dataclass(frozen=True)
class ScaledPda:
    name: str
    states: int
    text: str
    rows: int  # closed form |Q| + sum over moves of |Q|**len(push)
    moves: int


def scaled_pda(seed: int, n: int, push_len: int) -> ScaledPda:
    """A seeded automaton with ``n`` states whose size depends only on
    ``n`` and ``push_len``, so every seed converts to the same row count.

    ``q0 a Z -> q0 A^l`` and ``q0 b A -> q0 eps`` accept ``a b^l``, so the
    language is never empty and pruning keeps a derivation; two more push
    moves and 2n pop moves are drawn at random, which leaves pruning
    useless symbols to drop.
    """
    rng = random.Random(f"{seed}/{n}/{push_len}")
    states = [f"q{i}" for i in range(n)]
    stack = ["Z", "A", "B"]
    push_moves = {("q0", "a", "Z", "q0", ("A",) * push_len)}
    while len(push_moves) < SCALED_PUSH_MOVES:
        push_moves.add((rng.choice(states), rng.choice(("a", "b", "eps")),
                        rng.choice(stack), rng.choice(states),
                        tuple(rng.choice(stack) for _ in range(push_len))))
    pop_moves = {("q0", "b", "A", "q0", ())}
    while len(pop_moves) < 2 * n + 1:
        pop_moves.add((rng.choice(states), rng.choice(("a", "b", "eps")),
                       rng.choice(stack), rng.choice(states), ()))
    moves = sorted(push_moves | pop_moves)
    lines = [f"states: {' '.join(states)}", "input: a b", f"stack: {' '.join(stack)}",
             "start: q0", "startstack: Z"]
    for frm, inp, pop, to, push in moves:
        lines.append(f"{frm} {inp} {pop} -> {to} {' '.join(push) or 'eps'}")
    rows = n + sum(n ** len(m[4]) for m in moves)
    return ScaledPda(f"scaled-q{n}-l{push_len}", n, "\n".join(lines) + "\n", rows,
                     len(moves))


def _count_rows(text: str) -> int:
    """Transition lines of a rendered automaton, or productions of a
    rendered grammar (one per ``|``-separated body)."""
    return sum(line.count(" | ") + 1 for line in text.splitlines() if " -> " in line)


def _scaled_steps(path: Path, pda: ScaledPda) -> list:
    def rows_equal(label):
        def check(out, err):
            got = _count_rows(out)
            if got != pda.rows:
                raise CheckFailed(f"{label}: {got} rows, expected {pda.rows}")
            return Outcome(items=got, counts={label: got})
        return check

    def pruned(out, err):
        kept = _count_rows(out)
        if not 3 <= kept <= pda.rows:
            raise CheckFailed(f"prune {pda.name}: kept {kept} of {pda.rows}")
        return Outcome(items=kept, counts={f"prune {pda.name}": kept})

    def stats(out, err):
        values = dict(line.split("=", 1) for line in out.split())
        want = {"q_count": pda.states, "source_transition_count": pda.moves,
                "predicted_ss_transitions": pda.rows,
                "actual_ss_transitions": pda.rows, "collision_count": 0}
        for key, value in want.items():
            if values.get(key) != str(value):
                raise CheckFailed(f"stats {pda.name}: {key}={values.get(key)}, "
                                  f"expected {value}")
        return Outcome(counts={f"stats {pda.name}": out})

    p = str(path)
    return [
        Step(CLI, ["convert", p, "--stage", "sspda"], 0, rows_equal(f"sspda {pda.name}"),
             f"sspda {pda.name}"),
        Step(CLI, ["convert", p], 0, rows_equal(f"cfg {pda.name}"), f"cfg {pda.name}"),
        Step(CLI, ["convert", p, "--classical"], 0, rows_equal(f"classical {pda.name}"),
             f"classical {pda.name}"),
        Step(CLI, ["convert", p, "--prune"], 0, pruned, f"prune {pda.name}"),
        Step(CLI, ["stats", p], 0, stats, f"stats {pda.name}"),
    ]


# -- sweep-random ---------------------------------------------------------

def _sweep_step() -> Step:
    names = list(CORPUS) + [f"seed{s}" for s in range(1, SWEEP_RANDOM + 1)]

    def check(out, err):
        lines = [line for line in out.splitlines() if _SUMMARY.search(line)]
        if [line.split()[0] for line in lines] != names:
            raise CheckFailed("run_differential.py swept other machines than expected")
        if out.splitlines()[-1:] != ["all routes agree"]:
            raise CheckFailed("run_differential.py did not report agreement")
        total = Outcome()
        for name, line in zip(names, lines):
            size = len(CORPUS[name][0]) if name in CORPUS else 2
            part = _summary(line, size, SWEEP_MAX_LEN, name)
            total.items += part.items
            total.checked += part.checked
            total.inconclusive += part.inconclusive
            total.counts.update(part.counts)
            total.counts[f"{name}.ss_moves"] = int(
                re.search(r"ss_moves=\s*(\d+)", line).group(1))
        return total
    return Step(RUN_DIFFERENTIAL,
                ["--seed-base", "1", "--random", str(SWEEP_RANDOM),
                 "--max-len", str(SWEEP_MAX_LEN)],
                0, check, "sweep")


# -- workloads ------------------------------------------------------------

@dataclass
class Inputs:
    """One set-up's inputs: the steps that create them (run and timed as
    set-up) and the steps of one timed pass over them."""

    setup: list
    passes: list
    unit: str  # what ``items`` counts


def build(workload: str, seed: int, work: Path) -> Inputs:
    """Write the benchmark-generated inputs under ``work`` and return the
    program steps.  File order within a pass is shuffled by ``seed``."""
    rng = random.Random(seed)
    corpus = work / "corpus"
    if workload == "check-corpus":
        names = list(CORPUS)
        rng.shuffle(names)
        return Inputs([ready_step(), _corpus_step(corpus)],
                      [_check_step(corpus / f"{n}.pda", n) for n in names],
                      "strings")
    if workload == "sweep-random":
        return Inputs([ready_step()], [_sweep_step()], "strings")
    if workload == "enum-grammar":
        setup = [ready_step(), _corpus_step(corpus)]
        steps = []
        for name in ENUM_ENTRIES:
            for variant, flags in ENUM_VARIANTS.items():
                target = work / f"{name}-{variant}.cfg"
                setup.append(_convert_to_file(corpus / f"{name}.pda", target, flags))
                steps.append(_enum_step(target, name, variant))
        rng.shuffle(steps)
        return Inputs(setup, steps, "strings")
    if workload == "convert-scaled":
        work.mkdir(parents=True, exist_ok=True)
        steps = []
        for n in SCALED_STATES:
            for push_len in SCALED_PUSH_LENGTHS:
                pda = scaled_pda(seed, n, push_len)
                path = work / f"{pda.name}.pda"
                path.write_text(pda.text, encoding="utf-8")
                steps.extend(_scaled_steps(path, pda))
        return Inputs([ready_step()], steps, "rows")
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("check-corpus", "sweep-random", "enum-grammar", "convert-scaled")


def judge(step: Step, code: int, out: str, err: str) -> tuple[Optional[str], Outcome]:
    """(None, outcome) when the step exited as documented and its output
    checks out, else (one-line reason, empty outcome)."""
    if code != step.expected_exit:
        tail = err.strip().splitlines()[-1:] or [""]
        return (f"{step.label}: exit {code}, expected {step.expected_exit} {tail[0]}",
                Outcome())
    try:
        return None, step.check(out, err)
    except CheckFailed as failure:
        return str(failure), Outcome()


def program_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_subprocess(step: Step, env: dict):
    """(seconds, exit code, stdout, stderr) of one program step run as its
    own process; the CLI starts through the interpreter with ``src`` on the
    path, since the package has no ``__main__``."""
    if step.program == CLI:
        argv = [sys.executable, "-c", "from pdacfg.cli import app; app()", *step.args]
    else:
        argv = [sys.executable, str(ROOT / step.program), *step.args]
    started = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=STEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return time.perf_counter() - started, None, "", "timed out"
    return time.perf_counter() - started, done.returncode, done.stdout, done.stderr


def fits(started: float, durations: list, seconds: float) -> bool:
    """Whether one more unit of the median duration so far ends within
    ``seconds`` of ``started``, so that a run measures close to ``seconds``
    without overshooting it by a whole pass."""
    return time.perf_counter() - started + statistics.median(durations) <= seconds


class Tally:
    """Operations attempted and failed, with the reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, step: Step, code, out: str, err: str) -> Outcome:
        self.attempted += 1
        reason, outcome = judge(step, code, out, err)
        if reason:
            self.failures.append(reason)
        return outcome

    def check_repeats(self, label: str, passes: list) -> None:
        """Exact counts must repeat between passes over the same inputs."""
        self.failures += [f"determinism break: {label} pass {i} counts differ from pass 0"
                          for i, counts in enumerate(passes) if counts != passes[0]]
