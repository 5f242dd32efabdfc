"""pdacfg: pushdown automata to context-free grammars, checked differentially.

A multistate PDA accepting by empty stack is collapsed to a single-state PDA
over triple stack symbols, and the grammar is read off one production per
transition.  A direct one-step construction, a bounded simulator, and an
Earley recognizer provide independent routes to the same language, and the
harness compares them exhaustively on all strings up to a length bound.
"""

from .engine import (
    DEFAULT_LIMITS,
    Limits,
    Verdict,
    accepts,
    cfg_member,
    derivable_strings,
    enumerate_language,
    replay_configurations,
    strings_up_to,
)
from .grammar import (
    classical_pda_to_cfg,
    generating_variables,
    pda_to_cfg,
    prune_useless,
    reachable_symbols,
    sspda_to_cfg,
)
from .harness import (
    EquivalenceReport,
    P1_TEXT,
    builtin_corpus,
    differential_check,
    random_cfg,
    random_pda,
    routes,
)
from .model import (
    QM,
    START,
    Cfg,
    Configuration,
    Pda,
    SingleStatePda,
    Transition,
    Triple,
    validate_pda,
)
from .singlestate import size_stats, to_single_state
from .textio import (
    ParseError,
    parse_cfg,
    parse_pda,
    parse_source,
    parse_sspda,
    render,
)

__version__ = "0.1.0"

__all__ = [
    "QM",
    "START",
    "Cfg",
    "Configuration",
    "DEFAULT_LIMITS",
    "EquivalenceReport",
    "Limits",
    "P1_TEXT",
    "ParseError",
    "Pda",
    "SingleStatePda",
    "Transition",
    "Triple",
    "Verdict",
    "accepts",
    "builtin_corpus",
    "cfg_member",
    "classical_pda_to_cfg",
    "derivable_strings",
    "differential_check",
    "enumerate_language",
    "generating_variables",
    "parse_cfg",
    "parse_pda",
    "parse_source",
    "parse_sspda",
    "pda_to_cfg",
    "prune_useless",
    "random_cfg",
    "random_pda",
    "reachable_symbols",
    "render",
    "replay_configurations",
    "routes",
    "size_stats",
    "sspda_to_cfg",
    "strings_up_to",
    "to_single_state",
    "validate_pda",
]
