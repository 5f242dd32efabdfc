#!/usr/bin/env python3
"""Sweep the built-in corpus and seeded random automata through every
conversion route, printing one summary line per machine.

Each machine is compared as four language sources: the automaton itself,
its single-state form, the staged grammar, and the direct one-step grammar.
Exits nonzero if any mismatch shows up anywhere.
"""

import argparse
import sys

from pdacfg import (
    Limits,
    builtin_corpus,
    differential_check,
    random_pda,
    routes,
    size_stats,
)
from pdacfg.cli import _int_at_least


def sweep_one(name, pda, max_len, limits):
    report = differential_check(routes(pda, True), pda.input_alphabet, max_len, limits)
    stats = size_stats(pda)
    print(f"{name:8} moves={stats.source_transition_count:2} "
          f"ss_moves={stats.actual_ss_transitions:3} "
          f"{report.summary_line()} ({report.elapsed:.2f}s)")
    if report.mismatches:
        print(report.table())
    return len(report.mismatches)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-len", type=_int_at_least(0), default=6,
                        help="string length bound (default 6)")
    parser.add_argument("--random", type=_int_at_least(0), default=25,
                        help="number of seeded random automata (default 25)")
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--max-configs", type=_int_at_least(1), default=5000)
    parser.add_argument("--max-depth", type=_int_at_least(1), default=48)
    args = parser.parse_args(argv)

    limits = Limits(args.max_configs, args.max_depth)
    mismatches = 0
    for entry in builtin_corpus():
        mismatches += sweep_one(entry.name, entry.pda, args.max_len, limits)
    for i in range(args.random):
        seed = args.seed_base + i
        mismatches += sweep_one(f"seed{seed}", random_pda(seed), args.max_len, limits)
    if mismatches:
        print(f"FAIL: {mismatches} mismatching string(s)")
        return 1
    print("all routes agree")
    return 0


if __name__ == "__main__":
    sys.exit(main())
