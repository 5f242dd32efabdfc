"""A standing mutant matrix: how much the route checks catch.

Each mutant is a one-line edit of the triple construction in
``to_single_state``, given as an (anchor, replacement) pair over the text
of ``singlestate.py``.  Its paired form makes the same edit in
``classical_pda_to_cfg`` too, so both grammar routes share the fault.  A
mutant is exec'd into a fresh module object that no import can reach;
nothing under ``src/`` is written.

Three checks are measured over a fixed window, the corpus plus
``random_pda(1..60)``:

- structural identity: the staged grammar equals the classical one once
  ``Zs`` is renamed.  It kills every single-route mutant, and cannot see a
  paired one, since both routes then make the same mistake;
- the four-route sweep: ``differential_check`` of the PDA, the single-state
  PDA and both grammars at L=4.  It kills every paired mutant;
- witness translation (``test_witnesses.py``): every accepted run at L=4,
  mapped forward from the PDA and backward from the single-state PDA, must
  replay on the other form.  It never reads the classical route, so it
  treats single and paired mutants alike, and it kills every mutant.

Run as a script, ``PYTHONPATH=src python tests/test_mutants.py`` prints the
whole matrix: for each mutant and check, how many automata flag it and the
first that does.  The ``forward`` and ``backward`` rows split translation
by direction: backward reads each row's move off the row, so it also
catches rows that no move builds.
"""

import functools
import types
from pathlib import Path

import pytest

import pdacfg
from pdacfg import Limits, differential_check
from pdacfg.grammar import classical_pda_to_cfg, sspda_to_cfg
from pdacfg.singlestate import to_single_state
from test_grammar import _renamed_start
from test_witnesses import LIMITS, MAX_LEN, translation_failures, window, witnesses

SOURCES = (Path(pdacfg.__file__).parent / "singlestate.py",
           Path(pdacfg.__file__).parent / "grammar.py")

# name: (edit of to_single_state, the same edit of classical_pda_to_cfg)
MUTANTS = {
    "pop-end-first": (
        ("pop = Triple(move.from_state, move.pop, links[-1])",
         "pop = Triple(move.from_state, move.pop, links[0])"),
        ('prod = (f"[{move.from_state},{move.pop},{links[-1]}]", body)',
         'prod = (f"[{move.from_state},{move.pop},{links[0]}]", body)')),
    "chain-link-same": (
        ("chain = tuple(Triple(links[i], symbol, links[i + 1])",
         "chain = tuple(Triple(links[i], symbol, links[i])"),
        ('body = prefix + tuple(f"[{links[i]},{sym},{links[i + 1]}]"',
         'body = prefix + tuple(f"[{links[i]},{sym},{links[i]}]"')),
    "chain-link-swap": (
        ("chain = tuple(Triple(links[i], symbol, links[i + 1])",
         "chain = tuple(Triple(links[i + 1], symbol, links[i])"),
        ('body = prefix + tuple(f"[{links[i]},{sym},{links[i + 1]}]"',
         'body = prefix + tuple(f"[{links[i + 1]},{sym},{links[i]}]"')),
    "chain-from-source": (
        ("links = (move.to_state, *choice)", "links = (move.from_state, *choice)"),
        ("links = (move.to_state, *choice)", "links = (move.from_state, *choice)")),
    "pop-from-target": (
        ("pop = Triple(move.from_state, move.pop, links[-1])",
         "pop = Triple(move.to_state, move.pop, links[-1])"),
        ('prod = (f"[{move.from_state},{move.pop},{links[-1]}]", body)',
         'prod = (f"[{move.to_state},{move.pop},{links[-1]}]", body)')),
    "seed-diagonal": (
        ("(Triple(pda.start_state, pda.start_stack, s),)",
         "(Triple(s, pda.start_stack, s),)"),
        ('(f"[{pda.start_state},{pda.start_stack},{s}]",)',
         '(f"[{s},{pda.start_stack},{s}]",)')),
    "seed-one-state": (
        ("(Triple(pda.start_state, pda.start_stack, s),)",
         "(Triple(pda.start_state, pda.start_stack, pda.start_state),)"),
        ('(f"[{pda.start_state},{pda.start_stack},{s}]",)',
         '(f"[{pda.start_state},{pda.start_stack},{pda.start_state}]",)')),
    "push-reversed": (
        ("for i, symbol in enumerate(move.push))",
         "for i, symbol in enumerate(move.push[::-1]))"),
        ("for i, sym in enumerate(move.push))",
         "for i, sym in enumerate(move.push[::-1]))")),
    "chain-reversed": (
        ("for i, symbol in enumerate(move.push))",
         "for i, symbol in enumerate(move.push))[::-1]"),
        ("for i, sym in enumerate(move.push))",
         "for i, sym in enumerate(move.push))[::-1]")),
    # Moves that read no input get no rows.
    "drop-eps-input": (
        ("for move in pda.transitions:",
         "for move in [m for m in pda.transitions if m.input is not None]:"),
        ("for move in sorted(pda.transitions, key=str):",
         "for move in sorted((m for m in pda.transitions if m.input is not None),"
         " key=str):")),
}

SWEEP_LEN = 4
SWEEP_LIMITS = Limits(5000, 48)


def _mutated(path: Path, edit):
    """A fresh module holding ``path``'s source with one edit applied."""
    anchor, replacement = edit
    module = types.ModuleType(f"pdacfg.{path.stem}_mutant")
    module.__package__ = "pdacfg"
    exec(compile(path.read_text().replace(anchor, replacement), str(path), "exec"),
         module.__dict__)
    return module


def _routes(single_edit, classical_edit=None):
    """The single-state route with ``single_edit``, and the classical route
    it is checked against: with ``classical_edit`` when one is given, else
    the real one."""
    single = _mutated(SOURCES[0], single_edit).to_single_state
    if classical_edit is None:
        return single, classical_pda_to_cfg
    return single, _mutated(SOURCES[1], classical_edit).classical_pda_to_cfg


def _identity_kills(single, classical, pda) -> bool:
    direct = classical(pda)
    return _renamed_start(sspda_to_cfg(single(pda)), direct.start) != direct


def _sweep_kills(single, classical, pda) -> bool:
    sspda = single(pda)
    sources = [("pda", pda), ("sspda", sspda), ("cfg", sspda_to_cfg(sspda)),
               ("classical", classical(pda))]
    return bool(differential_check(sources, SWEEP_LEN, SWEEP_LIMITS).mismatches)


@functools.lru_cache(maxsize=None)
def _failed_directions(single, pda) -> frozenset:
    """The directions in which some accepted run fails to translate;
    cached, so the matrix's three translation rows share one run."""
    sspda = single(pda)
    failures = translation_failures(pda, sspda, witnesses(pda), witnesses(sspda))
    return frozenset(direction for direction, _ in failures)


def _translation_kills(single, classical, pda) -> bool:
    return bool(_failed_directions(single, pda))


CHECKS = {"identity": _identity_kills, "sweep": _sweep_kills,
          "translation": _translation_kills,
          "forward": lambda single, _, pda: "forward" in _failed_directions(single, pda),
          "backward": lambda single, _, pda: "backward" in _failed_directions(single, pda)}


@pytest.mark.parametrize("name", MUTANTS)
def test_each_anchor_occurs_exactly_once(name):
    for path, (anchor, replacement) in zip(SOURCES, MUTANTS[name]):
        assert path.read_text().count(anchor) == 1, (name, path.name)
        assert replacement != anchor


def test_unedited_sources_build_the_real_routes():
    # Replacing "" by "" leaves the text as it is.
    single, classical = _routes(("", ""), ("", ""))
    for label, pda in window():
        assert single(pda) == to_single_state(pda), label
        assert classical(pda) == classical_pda_to_cfg(pda), label


@pytest.mark.parametrize("name", MUTANTS)
def test_structural_identity_kills_every_single_route_mutant(name):
    single, classical = _routes(MUTANTS[name][0])
    assert any(_identity_kills(single, classical, pda) for _, pda in window())


@pytest.mark.parametrize("name", MUTANTS)
def test_the_sweep_kills_every_paired_mutant(name):
    single, classical = _routes(*MUTANTS[name])
    assert any(_sweep_kills(single, classical, pda) for _, pda in window())


@pytest.mark.parametrize("name", MUTANTS)
def test_translation_kills_every_mutant(name):
    single, _ = _routes(MUTANTS[name][0])
    assert any(_translation_kills(single, None, pda) for _, pda in window())


def _matrix() -> None:
    automata = window()
    print(f"window: {len(automata)} automata; sweep at L={SWEEP_LEN}, "
          f"limits {SWEEP_LIMITS.max_configs}/{SWEEP_LIMITS.max_stack_depth}; "
          f"translation at L={MAX_LEN}, limits {LIMITS.max_configs}/{LIMITS.max_stack_depth}")
    print(f"{'mutant':<18} {'routes':<7} {'check':<11} {'flagged':>8}  first")
    for name in MUTANTS:
        for paired in (False, True):
            single, classical = _routes(*MUTANTS[name][:1 + paired])
            for check, kills in CHECKS.items():
                flagged = [label for label, pda in automata if kills(single, classical, pda)]
                print(f"{name:<18} {'paired' if paired else 'single':<7} {check:<11} "
                      f"{len(flagged):>3} of {len(automata)}  {flagged[0] if flagged else '-'}")


if __name__ == "__main__":
    _matrix()
