from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pdacfg import (
    DEFAULT_LIMITS,
    QM,
    START,
    Cfg,
    Configuration,
    Limits,
    P1_TEXT,
    Pda,
    Transition,
    Verdict,
    accepts,
    builtin_corpus,
    cfg_member,
    classical_pda_to_cfg,
    derivable_strings,
    differential_check,
    enumerate_language,
    parse_pda,
    pda_to_cfg,
    prune_useless,
    random_cfg,
    random_pda,
    replay_configurations,
    sspda_to_cfg,
    strings_up_to,
    to_single_state,
)
from pdacfg import engine

from strategies import cfgs, pdas


@pytest.fixture()
def p1():
    return parse_pda(P1_TEXT)


def test_empty_string_is_accepted_in_one_move(p1):
    verdict = accepts(p1, "")
    assert verdict.is_accepted
    assert [str(t) for t in verdict.witness] == ["q0 eps Z -> q0 eps"]


def test_ab_is_accepted_with_a_three_move_witness(p1):
    verdict = accepts(p1, "ab")
    assert verdict.is_accepted
    assert [str(t) for t in verdict.witness] == [
        "q0 a Z -> q0 A Z",
        "q0 b A -> q1 eps",
        "q1 eps Z -> q1 eps",
    ]


def test_aab_is_rejected_exhaustively(p1):
    assert accepts(p1, "aab").is_rejected


def test_pure_push_loop_is_inconclusive():
    p5 = Pda({"q"}, {"a"}, {"Z"},
             {Transition("q", None, "Z", "q", ("Z", "Z"))}, "q", "Z")
    verdict = accepts(p5, "a")
    assert verdict.is_inconclusive
    assert verdict.reason in ("max_configs", "max_stack_depth")


def test_alphabet_is_enforced(p1):
    with pytest.raises(ValueError):
        accepts(p1, "abc")


def test_witnesses_replay_and_consume_monotonically(p1):
    for w in ["", "ab", "aabb", "aaabbb"]:
        verdict = accepts(p1, w)
        assert verdict.is_accepted
        configs = replay_configurations(p1, w, verdict.witness)
        assert configs[-1].input_pos == len(w)
        assert configs[-1].stack == ()
        positions = [c.input_pos for c in configs]
        assert positions == sorted(positions)
        assert positions[-1] == len(w)


def test_single_state_witnesses_never_leave_qm(p1):
    sspda = to_single_state(p1)
    verdict = accepts(sspda, "aabb")
    assert verdict.is_accepted
    for config in replay_configurations(sspda, "aabb", verdict.witness):
        assert config.state == "qm"


def test_tampered_witness_is_refused(p1):
    verdict = accepts(p1, "ab")
    witness = tuple(verdict.witness)[::-1]
    with pytest.raises(ValueError):
        replay_configurations(p1, "ab", witness)
    # The witness of "ab" replayed against "bb": its first move reads a.
    with pytest.raises(ValueError, match="does not match the input"):
        replay_configurations(p1, "bb", verdict.witness)


def test_foreign_witness_move_is_refused(p1):
    # q0 a Z -> q0 eps would consume "a" and empty the stack, but P1 has no
    # such move and rejects "a".
    foreign = Transition("q0", "a", "Z", "q0", ())
    assert foreign not in p1.transitions and accepts(p1, "a").is_rejected
    with pytest.raises(ValueError, match="not a move of the automaton"):
        replay_configurations(p1, "a", (foreign,))


def test_rejection_is_stable_under_doubled_limits():
    doubled = Limits(DEFAULT_LIMITS.max_configs * 2,
                     DEFAULT_LIMITS.max_stack_depth * 2)
    for entry in builtin_corpus():
        for w in strings_up_to(entry.pda.input_alphabet, 4):
            if accepts(entry.pda, w).is_rejected:
                assert not accepts(entry.pda, w, doubled).is_accepted


def test_epsilon_grammar_membership():
    cfg = Cfg({"S"}, {"a"}, {("S", ())}, "S")
    assert cfg_member(cfg, "") is True
    assert cfg_member(cfg, "a") is False


def test_p1_grammar_membership(p1):
    cfg = pda_to_cfg(p1)
    assert cfg_member(cfg, "aabb") is True
    assert cfg_member(cfg, "aba") is False


def test_left_recursion_is_recognized():
    cfg = Cfg({"S"}, {"a"}, {("S", ("S", "a")), ("S", ("a",))}, "S")
    assert cfg_member(cfg, "aaa") is True
    assert cfg_member(cfg, "") is False


def test_nullable_chains_and_unit_cycles():
    cfg = Cfg(
        {"S", "A", "B"}, {"a"},
        {("S", ("A", "B")), ("A", ("B",)), ("B", ("A",)), ("A", ()),
         ("B", ("a",))},
        "S")
    assert cfg_member(cfg, "") and cfg_member(cfg, "a") and cfg_member(cfg, "aa")
    assert derivable_strings(cfg, 2) == {"", "a", "aa"}


def test_terminal_set_is_enforced():
    cfg = Cfg({"S"}, {"a"}, {("S", ("a",))}, "S")
    with pytest.raises(ValueError):
        cfg_member(cfg, "b")


def test_oracle_enumerates_nested_pairs():
    cfg = Cfg({"S"}, {"a", "b"},
              {("S", ("a", "b")), ("S", ("a", "S", "b"))}, "S")
    assert derivable_strings(cfg, 6) == {"ab", "aabb", "aaabbb"}


def test_oracle_survives_nullable_self_concatenation():
    cfg = Cfg({"S"}, {"a"},
              {("S", ("S", "S")), ("S", ()), ("S", ("a",))}, "S")
    assert derivable_strings(cfg, 3) == {"", "a", "aa", "aaa"}
    # S -> eps | S S | S a S: nullable, so its sentential forms grow unboundedly.
    cfg = Cfg({"S"}, {"1", "a"},
              {("S", ()), ("S", ("S", "S")), ("S", ("S", "a", "S"))}, "S")
    assert derivable_strings(cfg, 4) == {"", "a", "aa", "aaa", "aaaa"}
    # B -> eps | A A B, A -> eps | B: mutually nullable, with growing forms too.
    cfg = Cfg({"A", "B"}, set(),
              {("A", ()), ("A", ("B",)), ("B", ()), ("B", ("A", "A", "B"))}, "B")
    assert derivable_strings(cfg, 4) == {""}


def test_oracle_refuses_a_negative_bound():
    cfg = Cfg({"S"}, {"a"}, {("S", ("a",))}, "S")
    with pytest.raises(ValueError):
        derivable_strings(cfg, -1)


@given(cfgs())
@settings(max_examples=30)
def test_recognizer_matches_the_derivation_oracle(cfg):
    expected = derivable_strings(cfg, 4)
    for w in strings_up_to(cfg.terminals, 4):
        assert cfg_member(cfg, w) == (w in expected)
    assert enumerate_language(cfg, 4) == (expected, True)


def _grammars(pda):
    staged = pda_to_cfg(pda)
    return {"staged": staged, "classical": classical_pda_to_cfg(pda),
            "pruned": prune_useless(staged)}


def _member_loop(cfg, max_len):
    """The language up to ``max_len`` by one member query per string."""
    recognizer = engine._Recognizer(cfg)
    return {w for w in strings_up_to(cfg.terminals, max_len) if recognizer.member(w)}


def test_walk_matches_a_member_loop_on_the_corpus_grammars(corpus):
    for entry in corpus.values():
        for kind, cfg in _grammars(entry.pda).items():
            derived = derivable_strings(cfg, 8)
            assert derived == _member_loop(cfg, 8), (entry.name, kind)
            known = {w for w in derived if len(w) <= entry.sample_max_len}
            assert known == entry.expected_members, (entry.name, kind)


@given(cfgs())
@settings(max_examples=40)
def test_walk_matches_a_member_loop_on_random_grammars(cfg):
    assert derivable_strings(cfg, 6) == _member_loop(cfg, 6)


@pytest.mark.parametrize("cfg, language", [
    # Mutually nullable variables: A -> B B, B -> eps | A.
    (Cfg({"A", "B"}, {"a"}, {("A", ("B", "B")), ("B", ()), ("B", ("A",))}, "A"),
     {""}),
    (Cfg({"S"}, {"a"}, {("S", ("S", "S")), ("S", ()), ("S", ("a",))}, "S"),
     {"", "a", "aa", "aaa", "aaaa"}),
    (Cfg({"S"}, {"a", "b"}, set(), "S"), set()),
    (Cfg({"S"}, set(), {("S", ("S", "S")), ("S", ())}, "S"), {""}),
    (Cfg({"S"}, set(), {("S", ("S",))}, "S"), set()),
    # S -> a X never completes, since X -> b X derives no terminal string.
    (Cfg({"S", "X"}, {"a", "b"}, {("S", ("a",)), ("S", ("a", "X")), ("X", ("b", "X"))}, "S"),
     {"a"}),
])
def test_walk_on_nullable_cycles_and_degenerate_grammars(cfg, language):
    assert _member_loop(cfg, 4) == language
    assert enumerate_language(cfg, 4) == (language, True)


def _star(*letters):
    """``X -> X X | eps`` plus ``X -> c`` for each letter c."""
    return {("X", ("X", "X")), ("X", ())} | {("X", (c,)) for c in letters}


@pytest.mark.parametrize("cfg, max_len, language", [
    (Cfg({"S"}, {"a", "b"},
         {("S", ("S", "S")), ("S", ("a",)), ("S", ("b",)), ("S", ())}, "S"),
     12, set(strings_up_to("ab", 12))),
    (Cfg({"S", "X"}, {"a", "b", "c"}, {("S", ("c",) * 6 + ("X",))} | _star("a", "b"), "S"),
     12, {"cccccc" + w for w in strings_up_to("ab", 6)}),
    # A is unreachable from S.
    (random_cfg(665), 10, {"b"}),
    # The second row with rules for A, which S never reaches.
    (Cfg({"S", "X", "A"}, {"a", "b", "c", "d"},
         {("S", ("c",) * 6 + ("X",)), ("A", ("d", "A")), ("A", ("d",))} | _star("a", "b"),
         "S"),
     12, {"cccccc" + w for w in strings_up_to("ab", 6)}),
    # P0's staged grammar: no string is longer than 1, so no join past
    # length 2 can form one.
    (pda_to_cfg(next(e for e in builtin_corpus() if e.name == "P0").pda), 10**20, {"a"}),
    # A has a string at every length, but S never reaches it.
    (Cfg({"S", "A"}, {"a", "d"}, {("S", ("a",)), ("A", ("d", "A")), ("A", ("d",))}, "S"),
     10**20, {"a"}),
    # S reaches A only beside B, which derives nothing.
    (Cfg({"S", "A", "B"}, {"a", "d"},
         {("S", ("a",)), ("S", ("B", "A")), ("B", ("B",)), ("A", ("d", "A")), ("A", ("d",))},
         "S"),
     10**20, {"a"}),
])
def test_the_fixpoint_on_families_that_blow_up_bottom_up(cfg, max_len, language):
    assert derivable_strings(cfg, max_len) == language


@pytest.mark.parametrize("name, w, member, columns", [
    ("P3", "abba", True, 5),
    ("P3", "", True, 1),
    ("P3", "abbaab", False, 7),
    # Every prefix of a palindrome extends to one, so P3 never stops early;
    # P1 does, once a prefix leaves a* b*.
    ("P1", "aabb", True, 5),
    ("P1", "abab", False, 3),
    ("P1", "ba", False, 1),
])
def test_member_builds_the_columns_of_one_path(corpus, monkeypatch, name, w, member,
                                               columns):
    built = []
    column = engine._Recognizer._column
    monkeypatch.setattr(engine._Recognizer, "_column",
                        lambda self, seeds, done:
                        built.append(len(done)) or column(self, seeds, done))
    assert cfg_member(pda_to_cfg(corpus[name].pda), w) == member
    assert built == list(range(columns))


@pytest.mark.parametrize("productions, language", [
    ({("S", ("A",)), ("A", ())}, {""}),
    ({("S", ("A",)), ("A", ("a",))}, set()),
])
def test_a_last_column_0_decides_the_empty_string(productions, language):
    cfg = Cfg({"S", "A"}, {"a"}, productions, "S")
    assert enumerate_language(cfg, 0) == (language, True)
    assert cfg_member(cfg, "") == ("" in language)


@given(cfgs())
@settings(max_examples=40)
def test_pruning_a_grammar_leaves_its_walk_unchanged(cfg):
    pruned = prune_useless(cfg)
    derived = derivable_strings(cfg, 5)
    assert derived == derivable_strings(pruned, 5) == _member_loop(pruned, 5)


def test_enumerate_epsilon_grammar():
    cfg = Cfg({"S"}, {"a"}, {("S", ())}, "S")
    assert enumerate_language(cfg, 3) == ({""}, True)


def test_enumerate_p1_grammar(p1):
    assert enumerate_language(pda_to_cfg(p1), 6) == (
        {"", "ab", "aabb", "aaabbb"}, True)


def test_enumerate_empty_automaton_is_complete():
    pda = Pda({"p", "q"}, {"a", "b"}, {"Z"}, set(), "p", "Z")
    assert enumerate_language(pda, 5) == (set(), True)


def test_enumerate_works_on_the_single_state_form(p1):
    assert enumerate_language(to_single_state(p1), 4) == ({"", "ab", "aabb"}, True)


def reference_accepts(m, w, limits=DEFAULT_LIMITS):
    """Reference simulator: breadth-first search over plain
    Configuration values, with the moves sorted and indexed per query."""
    if isinstance(m, Pda):
        start = Configuration(m.start_state, 0, (m.start_stack,))
    else:
        start = Configuration(QM, 0, (START,))
    index = {}
    for t in sorted(m.transitions, key=str):
        index.setdefault((t.from_state, t.pop), []).append(t)
    queue = deque([start])
    parents = {start: None}
    explored = 0
    pruned = False
    while queue:
        if explored >= limits.max_configs:
            return Verdict("inconclusive", reason="max_configs")
        config = queue.popleft()
        explored += 1
        if config.input_pos == len(w) and not config.stack:
            witness = []
            while parents[config] is not None:
                config, move = parents[config]
                witness.append(move)
            return Verdict("accepted", witness=tuple(reversed(witness)))
        if not config.stack:
            continue
        for t in index.get((config.state, config.stack[0]), ()):
            pos = config.input_pos
            if t.input is not None:
                if pos >= len(w) or w[pos] != t.input:
                    continue
                pos += 1
            stack = t.push + config.stack[1:]
            if len(stack) > limits.max_stack_depth:
                pruned = True
                continue
            successor = Configuration(t.to_state, pos, stack)
            if successor not in parents:
                parents[successor] = (config, t)
                queue.append(successor)
    return Verdict("inconclusive", reason="max_stack_depth") if pruned else Verdict("rejected")


def _assert_matches_reference(m, max_len, limits):
    for w in strings_up_to(m.input_alphabet, max_len):
        assert accepts(m, w, limits) == reference_accepts(m, w, limits), w


# max_configs=40 cuts P3's longer strings off mid-search; depth 5 prunes P1's.
@pytest.mark.parametrize("limits", [DEFAULT_LIMITS, Limits(max_configs=40, max_stack_depth=5)])
def test_simulator_matches_the_reference_on_the_corpus(corpus, limits):
    for entry in corpus.values():
        _assert_matches_reference(entry.pda, 6, limits)
        _assert_matches_reference(to_single_state(entry.pda), 6, limits)


def test_small_limits_pin_both_cut_off_reasons(corpus):
    p3 = to_single_state(corpus["P3"].pda)
    assert accepts(p3, "abba", Limits(max_configs=70)).reason == "max_configs"
    assert len(accepts(p3, "abba", Limits(max_configs=71)).witness) == 6
    p1 = corpus["P1"].pda
    assert accepts(p1, "aaabbb", Limits(max_stack_depth=3)).reason == "max_stack_depth"
    assert accepts(p1, "aaabbb", Limits(max_stack_depth=4)).is_accepted


@given(pdas())
@settings(max_examples=40)
def test_simulator_matches_the_reference_on_random_automata(pda):
    for limits in (Limits(300, 12), Limits(max_configs=7, max_stack_depth=4)):
        _assert_matches_reference(pda, 3, limits)
        _assert_matches_reference(to_single_state(pda), 2, limits)


def test_differential_check_compiles_each_automaton_once(corpus, monkeypatch):
    compiled = []
    compile_ = engine._compile
    monkeypatch.setattr(engine, "_compile", lambda m: compiled.append(m) or compile_(m))
    p3 = corpus["P3"].pda
    sspda = to_single_state(p3)
    sources = [("pda", p3), ("sspda", sspda), ("cfg", sspda_to_cfg(sspda)),
               ("classical", classical_pda_to_cfg(p3))]
    report = differential_check(sources, 4)
    assert report.agreements == report.checked == 31
    assert len(compiled) == 2
    assert compiled[0] is p3 and compiled[1] is sspda
    # A walk that sends strings over the budget back to accepts compiles
    # once for the walk and once per search.
    walks, searches = [], []
    simulate, accepts_ = engine._simulate_language, engine.accepts
    monkeypatch.setattr(engine, "_simulate_language",
                        lambda *args: walks.append(args) or simulate(*args))
    monkeypatch.setattr(engine, "accepts",
                        lambda *args: searches.append(args) or accepts_(*args))
    compiled.clear()
    for m in (p3, sspda):
        assert not enumerate_language(m, 6, Limits(40, 5))[1]
    assert len(walks) == 2 and searches
    assert len(compiled) == len(walks) + len(searches)


def test_seeded_random_automata_match_the_reference():
    limits = Limits(200, 12)
    for seed in range(150):
        pda = random_pda(seed)
        for m in (pda, to_single_state(pda)):
            _assert_matches_reference(m, 2, limits)


def _per_string(m, max_len, limits):
    """Accepted and inconclusive strings, by one ``accepts`` search each."""
    verdicts = {w: accepts(m, w, limits) for w in strings_up_to(m.input_alphabet, max_len)}
    return ({w for w, v in verdicts.items() if v.is_accepted},
            {w for w, v in verdicts.items() if v.is_inconclusive})


def _walk(m, max_len, limits):
    """The walk's accepted strings, and its unsettled prefixes expanded into
    the strings they leave inconclusive."""
    accepted, unsettled = engine._simulate_language(m, max_len, limits)
    below = {prefix + tail for prefix in unsettled
             for tail in strings_up_to(m.input_alphabet, max_len - len(prefix))}
    return accepted, below - accepted


def _assert_walk_matches_per_string(m, max_len, limits):
    assert _walk(m, max_len, limits) == _per_string(m, max_len, limits)


# Limits(40, 5) and Limits(37, 9) send P3's longer strings over the budget
# and prune P1's and P5's pushes.
@pytest.mark.parametrize("max_len, limits", [
    (8, DEFAULT_LIMITS), (6, Limits(40, 5)), (6, Limits(37, 9))])
def test_simulator_walk_matches_per_string_searches_on_the_corpus(corpus, max_len, limits):
    for entry in corpus.values():
        for m in (entry.pda, to_single_state(entry.pda)):
            _assert_walk_matches_per_string(m, max_len, limits)


def test_simulator_walk_matches_per_string_searches_on_random_automata():
    # The limits of scripts/run_differential.py; seeds 12 and 13 exhaust the budget.
    limits = Limits(5000, 48)
    for seed in range(1, 200):
        pda = random_pda(seed)
        for m in (pda, to_single_state(pda)):
            assert _walk(m, 3, limits) == _per_string(m, 3, limits), seed


def test_simulator_walk_matches_per_string_searches_under_tight_limits():
    # At L=6, Limits(300, 8) both prunes pushes and sends long strings over
    # the budget on the mutant matrix's window of random automata.
    limits = Limits(300, 8)
    for seed in range(1, 61):
        pda = random_pda(seed)
        for m in (pda, to_single_state(pda)):
            assert _walk(m, 6, limits) == _per_string(m, 6, limits), seed


@given(pdas())
@settings(max_examples=40)
def test_simulator_walk_matches_per_string_searches_on_hypothesis_automata(pda):
    for limits in (Limits(300, 12), Limits(max_configs=7, max_stack_depth=4)):
        for m, max_len in ((pda, 3), (to_single_state(pda), 2)):
            accepted, inconclusive = _per_string(m, max_len, limits)
            assert _walk(m, max_len, limits) == (accepted, inconclusive)
            # Complete exactly when no search is inconclusive.
            assert enumerate_language(m, max_len, limits) == (accepted, not inconclusive)


@given(pdas(), st.integers(5, 400), st.integers(2, 6))
def test_grouped_walk_matches_per_string_searches_on_single_state_forms(
        pda, max_configs, max_stack_depth):
    _assert_walk_matches_per_string(to_single_state(pda), 3,
                                    Limits(max_configs, max_stack_depth))


def test_the_walk_skips_a_move_that_reads_an_undeclared_letter():
    # No string over the alphabet can take the move on "c", so every search
    # skips it, and so must the walk.
    pda = Pda({"q"}, {"a"}, {"Z"}, {Transition("q", "c", "Z", "q", ()),
                                    Transition("q", "a", "Z", "q", ())}, "q", "Z")
    assert enumerate_language(pda, 2) == ({"a"}, True)
    _assert_walk_matches_per_string(pda, 2, DEFAULT_LIMITS)


def reachable(m, w, max_depth):
    """How many configurations a search of ``w`` reaches if it never stops
    at acceptance and has no configuration budget."""
    if isinstance(m, Pda):
        start = Configuration(m.start_state, 0, (m.start_stack,))
    else:
        start = Configuration(QM, 0, (START,))
    seen = {start}
    frontier = [start]
    while frontier:
        config = frontier.pop()
        for t in m.transitions:
            if not config.stack or (t.from_state, t.pop) != (config.state, config.stack[0]):
                continue
            pos = config.input_pos
            if t.input is not None:
                if pos >= len(w) or w[pos] != t.input:
                    continue
                pos += 1
            stack = t.push + config.stack[1:]
            successor = Configuration(t.to_state, pos, stack)
            if len(stack) <= max_depth and successor not in seen:
                seen.add(successor)
                frontier.append(successor)
    return len(seen)


def _recording_accepts(monkeypatch):
    """Make ``accepts`` note every string it is asked about."""
    asked = []
    accepts_ = engine.accepts
    monkeypatch.setattr(engine, "accepts",
                        lambda m, w, limits: asked.append(w) or accepts_(m, w, limits))
    return asked


def test_walk_decides_within_the_budget_and_asks_accepts_past_it(corpus, monkeypatch):
    p3 = to_single_state(corpus["P3"].pda)
    # Accepts the empty string beside a push loop, so its search accepts
    # long before it has reached everything.
    loop = Pda({"q"}, {"a"}, {"Z"}, {Transition("q", None, "Z", "q", ("Z", "Z")),
                                     Transition("q", None, "Z", "q", ())}, "q", "Z")
    counts = {w: reachable(m, w, DEFAULT_LIMITS.max_stack_depth)
              for m, w in [(p3, "abab"), (p3, "aab"), (p3, "ba"), (loop, "")]}
    for w in ("abab", "aab", "ba"):
        # A rejected string's search reaches everything, so its count is
        # the least budget under which it is conclusive.
        assert accepts(p3, w, Limits(counts[w])).is_rejected
        assert accepts(p3, w, Limits(counts[w] - 1)).reason == "max_configs"
    assert counts[""] == 65
    assert accepts(loop, "", Limits(64)).is_accepted
    # The walk counts every distinct configuration, however it groups them:
    # a string is asked of accepts exactly when its own search could run
    # over the budget.
    automata = [loop] + [m for entry in corpus.values()
                         for m in (entry.pda, to_single_state(entry.pda))]
    asked = _recording_accepts(monkeypatch)
    for m in automata:
        for w in strings_up_to(m.input_alphabet, 4):
            count = reachable(m, w, DEFAULT_LIMITS.max_stack_depth)
            for budget in (count, count - 1) if count > 1 else (count,):
                limits = Limits(budget)
                asked.clear()
                accepted, inconclusive = _walk(m, len(w), limits)
                kind = ("accepted" if w in accepted else
                        "inconclusive" if w in inconclusive else "rejected")
                assert kind == accepts(m, w, limits).kind, (m, w, budget)
                assert (w in asked) == (budget < count), (m, w, budget)


# Configurations the walk reaches at L=8 with default limits, summed over
# every prefix it closes, for each corpus automaton and its single-state
# form; the per-configuration walk counted the same.
WALK_CONFIGURATIONS = {"P0": (2, 3), "P1": (30, 1360), "P2": (171, 172),
                       "P3": (992, 199_734), "P4": (1, 3), "P5": (64, 65)}


def test_the_walk_counts_every_configuration_it_reaches(corpus, monkeypatch):
    counts = []
    close = engine._close

    def counting_close(*args):
        closed = close(*args)
        counts.append(closed[0])
        return closed

    monkeypatch.setattr(engine, "_close", counting_close)
    for name, expected in WALK_CONFIGURATIONS.items():
        pda = corpus[name].pda
        for m, configurations in zip((pda, to_single_state(pda)), expected):
            counts.clear()
            engine._simulate_language(m, 8, DEFAULT_LIMITS)
            assert sum(counts) == configurations, (name, m)


def test_push_loop_is_settled_from_the_root_alone(corpus, monkeypatch):
    asked = _recording_accepts(monkeypatch)
    closed = []
    close = engine._close
    monkeypatch.setattr(engine, "_close", lambda *args: closed.append(args) or close(*args))
    p5 = corpus["P5"].pda
    for m in (p5, to_single_state(p5)):
        closed.clear()
        assert engine._simulate_language(m, 8, DEFAULT_LIMITS) == (set(), {""})
        assert len(closed) == 1
        accepted, inconclusive = _walk(m, 8, DEFAULT_LIMITS)
        assert accepted == set()
        assert inconclusive == set(strings_up_to(p5.input_alphabet, 8))
        assert len(inconclusive) == 511
    assert asked == []
