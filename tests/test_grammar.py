from hypothesis import given

from pdacfg import (
    Cfg,
    P1_TEXT,
    QM,
    Pda,
    START,
    Transition,
    Triple,
    builtin_corpus,
    classical_pda_to_cfg,
    enumerate_language,
    parse_pda,
    pda_to_cfg,
    prune_useless,
    random_pda,
    sspda_to_cfg,
    to_single_state,
)
from pdacfg.model import SingleStatePda

from strategies import pdas


def _tiny_sspda(*transitions):
    symbols = {START}
    for tr in transitions:
        symbols.add(tr.pop)
        symbols.update(tr.push)
    return SingleStatePda(
        input_alphabet=frozenset("ab"),
        stack_alphabet=frozenset(symbols),
        transitions=frozenset(transitions),
    )


def test_pop_transition_becomes_a_terminal_production():
    cfg = sspda_to_cfg(_tiny_sspda(Transition(QM, "a", Triple("p", "Z", "p"), QM, ())))
    assert ("[p,Z,p]", ("a",)) in cfg.productions


def test_start_seeding_becomes_a_unit_production():
    cfg = sspda_to_cfg(
        _tiny_sspda(Transition(QM, None, START, QM, (Triple("q0", "Z", "q1"),))))
    assert ("Zs", ("[q0,Z,q1]",)) in cfg.productions


def test_p1_grammar_has_fourteen_productions_and_start_zs():
    sspda = to_single_state(parse_pda(P1_TEXT))
    cfg = sspda_to_cfg(sspda)
    assert len(cfg.productions) == len(sspda.transitions) == 14
    assert cfg.start == "Zs"


def test_one_move_automaton_composes_to_a_two_rule_grammar():
    p0 = Pda({"p"}, {"a"}, {"Z"}, {Transition("p", "a", "Z", "p", ())},
             "p", "Z")
    cfg = pda_to_cfg(p0)
    assert cfg.productions == {("Zs", ("[p,Z,p]",)), ("[p,Z,p]", ("a",))}
    assert enumerate_language(cfg, 3) == ({"a"}, True)


def test_p1_bounded_language_is_matched_as_and_bs():
    cfg = pda_to_cfg(parse_pda(P1_TEXT))
    members, complete = enumerate_language(cfg, 8)
    assert complete
    assert members == {"a" * n + "b" * n for n in range(5)}


def test_empty_automaton_grammar_generates_nothing():
    pda = Pda({"p", "q"}, {"a", "b"}, {"Z"}, set(), "p", "Z")
    cfg = pda_to_cfg(pda)
    assert len(cfg.productions) == 2
    assert enumerate_language(cfg, 4) == (set(), True)


def test_classical_route_on_the_singleton_language():
    p0 = Pda({"p"}, {"a"}, {"Z"}, {Transition("p", "a", "Z", "p", ())},
             "p", "Z")
    cfg = classical_pda_to_cfg(p0)
    assert cfg.productions == {("S", ("[p,Z,p]",)), ("[p,Z,p]", ("a",))}
    assert enumerate_language(cfg, 3) == ({"a"}, True)


def test_routes_agree_on_p1_at_length_eight():
    p1 = parse_pda(P1_TEXT)
    staged, _ = enumerate_language(pda_to_cfg(p1), 8)
    direct, _ = enumerate_language(classical_pda_to_cfg(p1), 8)
    assert staged == direct == {"a" * n + "b" * n for n in range(5)}


def _renamed_start(staged, start):
    """The staged grammar with its start variable ``Zs`` renamed to
    ``start``."""
    def rename(sym):
        return start if sym == START else sym

    return Cfg({rename(v) for v in staged.variables}, staged.terminals,
               {(rename(head), tuple(map(rename, body)))
                for head, body in staged.productions},
               start)


def _classical_from_staged(pda):
    """The staged grammar with its start variable ``Zs`` renamed to the
    classical route's start, and the classical grammar itself."""
    staged, direct = pda_to_cfg(pda), classical_pda_to_cfg(pda)
    return _renamed_start(staged, direct.start), direct


def test_staged_and_classical_grammars_are_equal_up_to_the_start():
    automata = [(entry.name, entry.pda) for entry in builtin_corpus()]
    automata += [(f"seed{seed}", random_pda(seed)) for seed in range(1, 200)]
    for name, pda in automata:
        renamed, direct = _classical_from_staged(pda)
        assert renamed.productions == direct.productions, name
        assert renamed.variables == direct.variables, name
        assert renamed.terminals == direct.terminals, name


def test_classical_start_symbol_dodges_the_input_alphabet():
    pda = Pda({"p"}, {"S"}, {"Z"}, {Transition("p", "S", "Z", "p", ())},
              "p", "Z")
    cfg = classical_pda_to_cfg(pda)
    assert cfg.start == "S0"
    assert enumerate_language(cfg, 2) == ({"S"}, True)


def test_prune_drops_an_unreachable_variable():
    cfg = Cfg({"S", "A"}, {"a", "b"}, {("S", ("a",)), ("A", ("b",))}, "S")
    pruned = prune_useless(cfg)
    assert pruned.productions == {("S", ("a",))}
    assert pruned.variables == {"S"}
    # the alphabet is kept whole, so 'b' is still a letter the grammar rejects
    assert pruned.terminals == {"a", "b"}


def test_prune_drops_non_generating_symbols_before_unreachable_ones():
    # S reaches A only beside B, which derives nothing, so A is useless too;
    # trimming for reachability first would keep A's productions.
    cfg = Cfg({"S", "A", "B"}, {"a", "d"},
              {("S", ("a",)), ("S", ("B", "A")), ("B", ("B",)), ("A", ("d", "A")),
               ("A", ("d",))},
              "S")
    pruned = prune_useless(cfg)
    assert pruned.productions == {("S", ("a",))}
    assert pruned.variables == {"S"}


def test_prune_keeps_a_useless_start_and_an_empty_language():
    cfg = Cfg({"S", "A"}, set(), {("S", ("A",)), ("A", ("A",))}, "S")
    pruned = prune_useless(cfg)
    assert pruned.productions == frozenset()
    assert pruned.variables == {"S"}
    assert pruned.start == "S"
    assert enumerate_language(pruned, 3) == (set(), True)


def test_prune_preserves_p1_and_survives_its_own_fixpoints():
    cfg = pda_to_cfg(parse_pda(P1_TEXT))
    pruned = prune_useless(cfg)
    assert enumerate_language(pruned, 8)[0] == enumerate_language(cfg, 8)[0]
    # every variable left but the start is generating and reachable
    assert prune_useless(pruned) == pruned


@given(pdas())
def test_productions_mirror_transitions_one_to_one(pda):
    sspda = to_single_state(pda)
    cfg = sspda_to_cfg(sspda)
    assert len(cfg.productions) == len(sspda.transitions)
    for tr in sspda.transitions:
        body = ((tr.input,) if tr.input is not None else ()) \
            + tuple(str(s) for s in tr.push)
        assert (str(tr.pop), body) in cfg.productions


@given(pdas())
def test_staged_grammar_is_the_classical_one_renamed(pda):
    renamed, direct = _classical_from_staged(pda)
    assert renamed == direct


@given(pdas())
def test_bodies_carry_at_most_one_leading_terminal(pda):
    cfg = sspda_to_cfg(to_single_state(pda))
    for _, body in cfg.productions:
        terminal_slots = [i for i, sym in enumerate(body) if sym in cfg.terminals]
        assert terminal_slots in ([], [0])


@given(pdas())
def test_prune_preserves_small_bounded_languages(pda):
    cfg = pda_to_cfg(pda)
    pruned = prune_useless(cfg)
    assert enumerate_language(cfg, 3)[0] == enumerate_language(pruned, 3)[0]
