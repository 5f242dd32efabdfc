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
    replay,
    replay_configurations,
    step,
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
    CorpusEntry,
    EquivalenceReport,
    P1_TEXT,
    RandomPdaBounds,
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
    SsSymbol,
    SsTransition,
    StartMarker,
    Transition,
    Triple,
    validate_pda,
)
from .singlestate import (
    Provenance,
    SizeStats,
    expand_push,
    make_triple,
    predicted_transition_count,
    size_stats,
    to_single_state,
    transition_from_provenance,
)
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
    "CorpusEntry",
    "DEFAULT_LIMITS",
    "EquivalenceReport",
    "Limits",
    "P1_TEXT",
    "ParseError",
    "Pda",
    "Provenance",
    "RandomPdaBounds",
    "SingleStatePda",
    "SizeStats",
    "SsSymbol",
    "SsTransition",
    "StartMarker",
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
    "expand_push",
    "generating_variables",
    "make_triple",
    "parse_cfg",
    "parse_pda",
    "parse_source",
    "parse_sspda",
    "pda_to_cfg",
    "predicted_transition_count",
    "prune_useless",
    "random_cfg",
    "random_pda",
    "reachable_symbols",
    "render",
    "replay",
    "replay_configurations",
    "routes",
    "size_stats",
    "sspda_to_cfg",
    "step",
    "strings_up_to",
    "to_single_state",
    "transition_from_provenance",
    "validate_pda",
]
