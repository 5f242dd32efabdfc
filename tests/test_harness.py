import time

import pytest

from pdacfg import (
    Cfg,
    EquivalenceReport,
    Limits,
    accepts,
    classical_pda_to_cfg,
    differential_check,
    enumerate_language,
    pda_to_cfg,
    prune_useless,
    random_cfg,
    random_pda,
    routes,
    size_stats,
    sspda_to_cfg,
    strings_up_to,
    to_single_state,
    validate_pda,
)
from pdacfg import engine, harness


def test_all_routes_agree_on_p1(corpus):
    p1 = corpus["P1"].pda
    report = differential_check(
        [("pda", p1), ("sspda", to_single_state(p1)), ("cfg", pda_to_cfg(p1))], 6)
    assert report.mismatches == ()
    assert report.inconclusive == ()
    assert report.agreements == report.checked == 127


def test_a_constructed_disagreement_surfaces_at_ab(corpus):
    p1 = corpus["P1"].pda
    empty_only = Cfg({"S"}, {"a", "b"}, {("S", ())}, "S")
    report = differential_check([("pda", p1), ("cfg", empty_only)], 2)
    assert len(report.mismatches) == 1
    assert report.mismatches[0][0] == "ab"
    verdicts = dict(report.mismatches[0][1])
    assert verdicts == {"pda": "yes", "cfg": "no"}


def test_one_move_automaton_agrees_with_its_grammar(corpus):
    p0 = corpus["P0"].pda
    report = differential_check([("pda", p0), ("cfg", pda_to_cfg(p0))], 3)
    assert report.mismatches == ()
    assert report.agreements == report.checked == 4


def test_all_four_routes_agree_on_random_automata():
    limits = Limits(max_configs=1500, max_stack_depth=24)
    for seed in range(1, 13):
        pda = random_pda(seed)
        sspda = to_single_state(pda)
        report = differential_check(
            [("pda", pda), ("sspda", sspda), ("cfg", sspda_to_cfg(sspda)),
             ("classical", classical_pda_to_cfg(pda))], 6, limits)
        assert report.mismatches == (), seed
        assert report.agreements + len(report.mismatches) \
            + len(report.inconclusive_strings) == report.checked


def test_corpus_expectations_match_local_oracles(corpus):
    def balanced(w):
        depth = 0
        for ch in w:
            depth += 1 if ch == "(" else -1
            if depth < 0:
                return False
        return depth == 0

    oracles = {
        "P0": lambda w: w == "a",
        "P1": lambda w: len(w) % 2 == 0
        and w == "a" * (len(w) // 2) + "b" * (len(w) // 2),
        "P2": balanced,
        "P3": lambda w: len(w) % 2 == 0 and w == w[::-1],
        "P4": lambda w: False,
        "P5": lambda w: False,
    }
    assert set(corpus) == set(oracles)
    for name, entry in corpus.items():
        everything = set(strings_up_to(entry.pda.input_alphabet, entry.sample_max_len))
        expected = {w for w in everything if oracles[name](w)}
        assert set(entry.expected_members) == expected, name


def test_corpus_automata_are_valid(corpus):
    for entry in corpus.values():
        assert validate_pda(entry.pda) == [], entry.name


def test_simulator_reproduces_corpus_membership(corpus):
    for name in ("P0", "P1", "P2", "P3", "P4"):
        entry = corpus[name]
        members, complete = enumerate_language(entry.pda, entry.sample_max_len)
        assert complete, name
        assert members == set(entry.expected_members), name


def test_grammar_routes_see_through_the_push_loop(corpus):
    entry = corpus["P5"]
    members, complete = enumerate_language(entry.pda, 4)
    assert members == set()
    assert not complete
    assert enumerate_language(pda_to_cfg(entry.pda), 6) == (set(), True)


def test_report_arithmetic_with_inconclusive_strings(corpus):
    p5 = corpus["P5"].pda
    report = differential_check(
        [("pda", p5), ("cfg", pda_to_cfg(p5))], 3,
        Limits(max_configs=500, max_stack_depth=16))
    assert report.mismatches == ()
    assert len(report.inconclusive_strings) == report.checked == 15
    assert report.agreements + len(report.mismatches) \
        + len(report.inconclusive_strings) == report.checked
    assert report.summary_line() == "checked=15 agree=0 mismatch=0 inconclusive=15"


def test_report_table_shows_mismatches(corpus):
    p1 = corpus["P1"].pda
    empty_only = Cfg({"S"}, {"a", "b"}, {("S", ())}, "S")
    table = differential_check([("pda", p1), ("cfg", empty_only)], 2).table()
    assert "mismatches:" in table
    assert "'ab'" in table
    assert "mismatch=1" in table


def test_longer_bounds_never_flip_verdicts(corpus):
    cfg = pda_to_cfg(corpus["P1"].pda)
    small, _ = enumerate_language(cfg, 4)
    large, _ = enumerate_language(cfg, 6)
    assert small == {w for w in large if len(w) <= 4}


def test_differential_needs_two_sources(corpus):
    with pytest.raises(ValueError):
        differential_check([("pda", corpus["P0"].pda)], 2)


def test_differential_rejects_alphabet_mismatch(corpus):
    with pytest.raises(ValueError, match="'p1' does not share the alphabet"):
        differential_check([("p0", corpus["P0"].pda), ("p1", corpus["P1"].pda)], 2)


def test_differential_rejects_a_negative_length_bound(corpus):
    p1 = corpus["P1"].pda
    with pytest.raises(ValueError):
        differential_check([("pda", p1), ("cfg", pda_to_cfg(p1))], -1)


def test_random_pda_is_deterministic_and_valid():
    for seed in range(1, 101):
        pda = random_pda(seed)
        assert random_pda(seed) == pda
        assert validate_pda(pda) == []
        assert pda.input_alphabet == {"a", "b"}


def test_random_pda_counts_decompose():
    for seed in range(1, 31):
        stats = size_stats(random_pda(seed))
        assert stats.predicted_ss_transitions == stats.actual_ss_transitions
        assert stats.collision_count == 0


def test_random_cfg_is_deterministic_and_well_formed():
    for seed in range(1, 51):
        cfg = random_cfg(seed)
        assert random_cfg(seed) == cfg
        assert cfg.start in cfg.variables
        assert cfg.variables.isdisjoint(cfg.terminals)
        for head, body in cfg.productions:
            assert head in cfg.variables
            assert all(s in cfg.variables or s in cfg.terminals for s in body)


def reference_check(sources, alphabet, max_len, limits):
    """Reference differential check that queries every source once per
    string: Earley's ``member`` for grammars, the simulator for automata."""
    def query(source):
        if isinstance(source, Cfg):
            return engine._Recognizer(source).member

        def simulate(w):
            verdict = accepts(source, w, limits)
            return None if verdict.is_inconclusive else verdict.is_accepted
        return simulate

    queries = [(label, query(source)) for label, source in sources]
    text = {True: "yes", False: "no", None: "inconclusive"}
    agreements, mismatches, inconclusive = 0, [], []
    for w in strings_up_to(alphabet, max_len):
        verdicts = [(label, q(w)) for label, q in queries]
        if len({v for _, v in verdicts if v is not None}) > 1:
            mismatches.append((w, tuple((label, text[v]) for label, v in verdicts)))
        elif any(v is None for _, v in verdicts):
            inconclusive.extend((w, label) for label, v in verdicts if v is None)
        else:
            agreements += 1
    return EquivalenceReport(tuple(label for label, _ in sources), frozenset(alphabet),
                             max_len, agreements, tuple(mismatches), tuple(inconclusive), 0.0)


def _assert_report_matches_reference(sources, alphabet, max_len, limits):
    report = differential_check(sources, max_len, limits)
    expected = reference_check(sources, alphabet, max_len, limits)
    assert report._replace(elapsed=0.0) == expected


def test_reports_match_a_per_string_reference_on_the_corpus(corpus):
    for entry in corpus.values():
        _assert_report_matches_reference(
            routes(entry.pda, True), entry.pda.input_alphabet, 8, Limits())


def test_reports_match_a_per_string_reference_on_random_automata():
    limits = Limits(max_configs=5000, max_stack_depth=48)
    for seed in range(1, 26):
        pda = random_pda(seed)
        _assert_report_matches_reference(routes(pda, True), pda.input_alphabet, 3, limits)


def _with_pruned_route(pda):
    return routes(pda, True) + [("pruned", prune_useless(pda_to_cfg(pda)))]


def test_a_pruned_grammar_route_agrees_on_the_corpus(corpus):
    for entry in corpus.values():
        report = differential_check(_with_pruned_route(entry.pda), 8)
        assert report.mismatches == (), entry.name


def test_a_pruned_grammar_route_agrees_on_random_automata():
    limits = Limits(max_configs=5000, max_stack_depth=48)
    for seed in range(1, 26):
        pda = random_pda(seed)
        report = differential_check(_with_pruned_route(pda), 3, limits)
        assert report.mismatches == (), seed


def test_elapsed_includes_building_the_queries(corpus, monkeypatch):
    language = harness._language

    def slow_language(*args):
        time.sleep(0.05)
        return language(*args)

    monkeypatch.setattr(harness, "_language", slow_language)
    p0 = corpus["P0"].pda
    report = differential_check([("pda", p0), ("cfg", pda_to_cfg(p0))], 1)
    assert report.elapsed >= 0.1
