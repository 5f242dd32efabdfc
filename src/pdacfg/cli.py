"""Command-line front end.

Subcommands: convert (automaton to single-state automaton or grammar), run
(simulate a string), member (grammar membership), enum (bounded language
listing), check (differential comparison of the conversion routes), and
stats (construction size accounting).

Exit codes: 0 success (for run/member: the string is accepted), 1 rejected
or mismatches found, 2 inconclusive, 64 usage error, 65 parse or validation
error.  Diagnostics go to stderr; payload goes to stdout, and nothing is
written on a parse error.  Every command reads its file through ``_load``,
and ``main`` maps every usage, parse, file and validation error to its exit
code in one place.

Each command imports the layers it calls when it runs, so a process
compiles only those: the top imports only ``model`` and ``textio``.  ``run``
and ``member`` load the deciders in ``engine``; ``enum`` loads
``language``, which loads ``engine`` only for an automaton; ``convert``
loads the conversions, and ``check`` the harness and the simulator.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .model import DEFAULT_LIMITS, Cfg, Limits, Pda, SingleStatePda
from .textio import ParseError, parse_pda, parse_source, render

EXIT_OK = 0
EXIT_NO = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would sys.exit(2); we want 64
        raise _UsageError(message)


def _int_at_least(low: int):
    """An argparse type for integers >= ``low``; anything else is a usage
    error rather than a data error."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return convert


_LENGTH = _int_at_least(0)
_POSITIVE = _int_at_least(1)


def _add_limit_flags(parser):
    parser.add_argument("--max-configs", type=_POSITIVE,
                        default=DEFAULT_LIMITS.max_configs,
                        help="simulator configuration budget (default %(default)s)")
    parser.add_argument("--max-depth", type=_POSITIVE,
                        default=DEFAULT_LIMITS.max_stack_depth,
                        help="simulator stack depth bound (default %(default)s)")


def build_parser() -> _Parser:
    parser = _Parser(prog="pdacfg",
                     description="Pushdown automata to grammars, with checking tools.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("convert", help="convert an automaton file")
    p.add_argument("input", help="multistate PDA file")
    p.add_argument("--stage", choices=("sspda", "cfg"), default="cfg",
                   help="emit the single-state automaton or the grammar (default cfg)")
    p.add_argument("--prune", action="store_true",
                   help="drop useless grammar symbols (cfg stage only)")
    p.add_argument("--classical", action="store_true",
                   help="use the direct one-step construction (cfg stage only)")
    p.add_argument("--verbose", action="store_true",
                   help="annotate output with provenance comments")
    p.add_argument("-o", "--output", help="output file (default stdout)")
    p.set_defaults(handle=_cmd_convert)

    p = sub.add_parser("run", help="simulate an automaton on a string")
    p.add_argument("pda", help="PDA file (multistate or single-state)")
    p.add_argument("string", help="query string; one character per input symbol")
    _add_limit_flags(p)
    p.set_defaults(handle=_cmd_run)

    p = sub.add_parser("member", help="grammar membership for a string")
    p.add_argument("cfg", help="grammar file")
    p.add_argument("string", help="query string")
    p.set_defaults(handle=_cmd_member)

    p = sub.add_parser("enum", help="list the bounded language of a file")
    p.add_argument("source", help="PDA, single-state PDA, or grammar file")
    p.add_argument("--max-len", type=_LENGTH, required=True, help="length bound")
    _add_limit_flags(p)
    p.set_defaults(handle=_cmd_enum)

    p = sub.add_parser("check", help="differential-check the conversion routes")
    p.add_argument("pda", help="multistate PDA file")
    p.add_argument("--max-len", type=_LENGTH, default=6, help="length bound (default 6)")
    p.add_argument("--classical", action="store_true",
                   help="also compare against the direct one-step construction")
    _add_limit_flags(p)
    p.set_defaults(handle=_cmd_check)

    p = sub.add_parser("stats", help="construction size accounting")
    p.add_argument("pda", help="multistate PDA file")
    p.set_defaults(handle=_cmd_stats)
    return parser


_KIND_NAMES = {Pda: "a multistate PDA", SingleStatePda: "a single-state automaton",
               Cfg: "a grammar"}


def _load(path: str, needs: str, *kinds: type):
    """Read and parse the file for any command, as whichever format it
    holds, and refuse any kind but ``kinds``, which the message calls
    ``needs``; ``enum`` takes all three kinds.  A file that fails to
    parse is reported by the parser ``parse_source`` picked, except that a
    command taking only multistate PDAs re-reads it with ``parse_pda``: a
    broken single-state file, or a file with no PDA header at all, then
    gets the diagnostic meant for a PDA."""
    text = Path(path).read_text(encoding="utf-8")
    try:
        source = parse_source(text)
    except ParseError:
        if kinds == (Pda,):
            parse_pda(text)
        raise
    if not isinstance(source, kinds):
        raise ValueError(
            f"{path} holds {_KIND_NAMES[type(source)]}; this command needs {needs}")
    return source


def _cmd_convert(args) -> int:
    from .grammar import classical_pda_to_cfg, pda_to_cfg, prune_useless
    from .singlestate import to_single_state

    if args.stage == "sspda" and (args.prune or args.classical):
        raise _UsageError("--prune and --classical apply only to --stage cfg")
    if args.output == "":
        raise _UsageError("-o/--output needs a file name")
    pda = _load(args.input, "a multistate PDA", Pda)
    if args.stage == "sspda":
        payload = render(to_single_state(pda), verbose=args.verbose)
    else:
        cfg = classical_pda_to_cfg(pda) if args.classical else pda_to_cfg(pda)
        if args.prune:
            cfg = prune_useless(cfg)
        payload = render(cfg, verbose=args.verbose)
    if args.output:
        Path(args.output).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _cmd_run(args) -> int:
    from .engine import accepts

    automaton = _load(args.pda, "an automaton", Pda, SingleStatePda)
    limits = Limits(args.max_configs, args.max_depth)
    verdict = accepts(automaton, args.string, limits)
    if verdict.is_accepted:
        for i, move in enumerate(verdict.witness, start=1):
            print(f"{i}: {move}")
        return EXIT_OK
    if verdict.is_rejected:
        print("rejected", file=sys.stderr)
        return EXIT_NO
    print(f"inconclusive: {verdict.reason} limit hit", file=sys.stderr)
    return EXIT_INCONCLUSIVE


def _cmd_member(args) -> int:
    from .engine import cfg_member

    cfg = _load(args.cfg, "a grammar", Cfg)
    if cfg_member(cfg, args.string):
        print("member", file=sys.stderr)
        return EXIT_OK
    print("not a member", file=sys.stderr)
    return EXIT_NO


def _cmd_enum(args) -> int:
    from .language import enumerate_language

    source = _load(args.source, "an automaton or a grammar", Pda, SingleStatePda, Cfg)
    limits = Limits(args.max_configs, args.max_depth)
    members, complete = enumerate_language(source, args.max_len, limits)
    sys.stdout.write("".join(
        w + "\n" for w in sorted(members, key=lambda w: (len(w), w))))
    if not complete:
        print("incomplete: some verdicts were inconclusive", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_check(args) -> int:
    from .harness import differential_check, routes

    pda = _load(args.pda, "a multistate PDA", Pda)
    limits = Limits(args.max_configs, args.max_depth)
    report = differential_check(routes(pda, args.classical), args.max_len, limits)
    print(report.table())
    if report.mismatches:
        return EXIT_NO
    if report.inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_stats(args) -> int:
    from .singlestate import size_stats

    stats = size_stats(_load(args.pda, "a multistate PDA", Pda))
    for name, value in stats._asdict().items():
        print(f"{name}={value}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handle(args)
    except _UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, OSError, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DATA


def app() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    app()
