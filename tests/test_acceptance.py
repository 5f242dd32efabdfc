"""Acceptance suite: one test per criterion, each printing a PASS line.

Run ``pytest tests/test_acceptance.py -v -s`` to see the lines as they go.
The bounds here are the contract: corpus checks run at length 8 with default
simulator limits, random differential at length 6, recognizer-vs-oracle at
length 5.
"""

import sys
import time
from collections import Counter

import pytest

from pdacfg import (
    Limits,
    accepts,
    classical_pda_to_cfg,
    derivable_strings,
    differential_check,
    enumerate_language,
    generating_variables,
    pda_to_cfg,
    prune_useless,
    random_cfg,
    random_pda,
    reachable_symbols,
    render,
    replay_configurations,
    size_stats,
    sspda_to_cfg,
    strings_up_to,
    to_single_state,
)
from pdacfg.cli import main
from pdacfg.engine import _Recognizer
from pdacfg.singlestate import source_move

RANDOM_SEEDS = tuple(range(1, 101))
GRAMMAR_SEEDS = tuple(range(1, 51))
RANDOM_LIMITS = Limits(max_configs=2000, max_stack_depth=32)


@pytest.fixture(scope="module")
def random_suite():
    suite = []
    for seed in RANDOM_SEEDS:
        pda = random_pda(seed)
        sspda = to_single_state(pda)
        suite.append(
            (seed, pda, sspda, sspda_to_cfg(sspda), classical_pda_to_cfg(pda)))
    return suite


def _ok(number: int, title: str) -> None:
    print(f"criterion {number} ({title}): PASS", file=sys.__stdout__)


def test_criterion_1_corpus_language_equality(corpus):
    started = time.perf_counter()
    for name in ("P0", "P1", "P2", "P3", "P4"):
        pda = corpus[name].pda
        sspda = to_single_state(pda)
        report = differential_check(
            [("pda", pda), ("sspda", sspda), ("cfg", sspda_to_cfg(sspda)),
             ("classical", classical_pda_to_cfg(pda))], 8)
        assert report.mismatches == (), name
        assert report.inconclusive == (), name
        assert report.agreements == report.checked, name
    assert time.perf_counter() - started < 60.0
    _ok(1, "all four routes agree on P0-P4 at length 8 inside 60s")


def test_criterion_2_count_formulas(random_suite):
    for seed, pda, sspda, cfg, _ in random_suite:
        stats = size_stats(pda)
        assert stats.predicted_ss_transitions == stats.actual_ss_transitions, seed
        assert stats.collision_count == 0, seed
        assert len(cfg.productions) == len(sspda.transitions), seed
    _ok(2, "transition count formula and production bijection on 100 random automata")


def test_criterion_3_random_differential(random_suite):
    for seed, pda, _, staged, classical in random_suite:
        staged_route = _Recognizer(staged)
        classical_route = _Recognizer(classical)
        for w in strings_up_to(("a", "b"), 6):
            member = staged_route.member(w)
            assert member == classical_route.member(w), (seed, w)
            verdict = accepts(pda, w, RANDOM_LIMITS)
            if not verdict.is_inconclusive:
                assert verdict.is_accepted == member, (seed, w)
    _ok(3, "grammar routes agree everywhere and the simulator agrees where conclusive")


def test_criterion_4_chain_well_formedness(corpus, random_suite):
    machines = [entry.pda for entry in corpus.values()]
    machines += [pda for _, pda, *_ in random_suite]
    for pda in machines:
        n = len(pda.states)
        per_move = Counter()
        for tr in to_single_state(pda).transitions:
            move = source_move(tr)  # ValueError if the chain does not link up
            per_move[move] += 1
            chain = tr.push
            if move is None or not chain:
                continue
            assert chain[0].from_state == move.to_state
            assert chain[-1].to_state == tr.pop.to_state
            assert tuple(t.base for t in chain) == move.push
            assert all(left.to_state == right.from_state
                       for left, right in zip(chain, chain[1:]))
        assert per_move.pop(None) == n
        assert per_move == {move: n ** len(move.push) for move in pda.transitions}
    _ok(4, "every rule-2 chain links correctly and per-move counts are |Q|**l")


def test_criterion_5_pruning(corpus):
    for name in ("P0", "P1", "P2", "P3", "P4"):
        cfg = pda_to_cfg(corpus[name].pda)
        pruned = prune_useless(cfg)
        assert enumerate_language(pruned, 8)[0] == enumerate_language(cfg, 8)[0], name
        gen = generating_variables(pruned)
        reached = reachable_symbols(pruned)
        # the start variable is retained even when useless (P4's case)
        for var in pruned.variables - {pruned.start}:
            assert var in gen, (name, var)
            assert var in reached, (name, var)
        assert pruned.start in reached
    _ok(5, "pruning preserves the length-8 language and leaves no useless variable")


def test_criterion_6_recognizer_against_the_derivation_oracle():
    for seed in GRAMMAR_SEEDS:
        cfg = random_cfg(seed)
        expected = derivable_strings(cfg, 5)
        recognizer = _Recognizer(cfg)
        for w in strings_up_to(cfg.terminals, 5):
            assert recognizer.member(w) == (w in expected), (seed, w)
    _ok(6, "Earley matches the least-fixpoint oracle, which always answers, "
           "on 50 random grammars at length 5")


def test_criterion_7_witness_replay(corpus, random_suite):
    tasks = [(corpus[name].pda, corpus[name].sample_max_len, None)
             for name in ("P0", "P1", "P2", "P3", "P4")]
    tasks += [(to_single_state(corpus[name].pda), 5, None)
              for name in ("P0", "P1", "P2")]
    tasks += [(pda, 4, RANDOM_LIMITS) for _, pda, *_ in random_suite]
    replayed = 0
    for machine, bound, limits in tasks:
        alphabet = machine.input_alphabet
        for w in strings_up_to(alphabet, bound):
            verdict = (accepts(machine, w) if limits is None
                       else accepts(machine, w, limits))
            if not verdict.is_accepted:
                continue
            configs = replay_configurations(machine, w, verdict.witness)
            assert configs[-1].input_pos == len(w), w
            assert configs[-1].stack == (), w
            positions = [c.input_pos for c in configs]
            assert positions == sorted(positions), w
            replayed += 1
    assert replayed > 100
    _ok(7, f"{replayed} accepted witnesses replay to full consumption and empty stack")


def test_criterion_8_convert_determinism(corpus, tmp_path, capsys):
    for name, entry in sorted(corpus.items()):
        path = tmp_path / f"{name}.pda"
        path.write_text(render(entry.pda))
        for stage in ("cfg", "sspda"):
            assert main(["convert", str(path), "--stage", stage]) == 0
            first = capsys.readouterr().out
            assert main(["convert", str(path), "--stage", stage]) == 0
            assert capsys.readouterr().out == first, (name, stage)
            assert first
    _ok(8, "convert output is byte-identical across runs for every corpus file")


def test_criterion_9_inconclusive_honesty(corpus, tmp_path, capsys):
    entry = corpus["P5"]
    path = tmp_path / "P5.pda"
    path.write_text(render(entry.pda))
    for w in ["", "a", "b", "ab", "ba", "aa", "bb", "aba"]:
        assert main(["run", str(path), w]) == 2, w
        capsys.readouterr()
    staged = pda_to_cfg(entry.pda)
    classical = classical_pda_to_cfg(entry.pda)
    assert enumerate_language(staged, 8) == (set(), True)
    assert enumerate_language(classical, 8) == (set(), True)
    report = differential_check([("cfg", staged), ("classical", classical)], 8)
    assert report.mismatches == ()
    assert report.agreements == report.checked
    _ok(9, "the push loop yields exit 2 while both grammar routes prove the empty language")
