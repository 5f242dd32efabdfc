"""pdacfg: pushdown automata to context-free grammars, checked differentially.

A multistate PDA accepting by empty stack is collapsed to a single-state PDA
over triple stack symbols, and the grammar is read off one production per
transition.  A direct one-step construction, a bounded simulator, and an
Earley recognizer provide independent routes to the same language, and the
harness compares them exhaustively on all strings up to a length bound.  A
grammar's bounded language is enumerated as the least fixpoint of its
equations, and the Earley recognizer answers membership one string at a
time, so each cross-checks the other.
"""

import importlib

# Every public name, under the module defining it; ``__all__`` is read off
# this table.  A name is imported on first use, so a process loads only the
# layers it touches: grammar-side names never load the simulator in
# ``engine``, and checking names never load ``corpus``.
_EXPORTS = {
    "corpus": ("P1_TEXT", "builtin_corpus", "random_cfg", "random_pda"),
    "engine": ("Verdict", "accepts", "cfg_member", "replay_configurations"),
    "grammar": ("classical_pda_to_cfg", "generating_variables", "pda_to_cfg",
                "prune_useless", "reachable_symbols", "sspda_to_cfg"),
    "harness": ("EquivalenceReport", "differential_check", "routes"),
    "language": ("derivable_strings", "enumerate_language", "strings_up_to"),
    "model": ("DEFAULT_LIMITS", "QM", "START", "Cfg", "Configuration", "Limits", "Pda",
              "SingleStatePda", "Transition", "Triple", "validate_pda"),
    "singlestate": ("size_stats", "to_single_state"),
    "textio": ("ParseError", "parse_cfg", "parse_pda", "parse_source", "parse_sspda",
               "render"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
