import pdacfg


def test_public_names_are_exactly_these():
    # a new export has to be added here on purpose
    assert sorted(pdacfg.__all__) == [
        "Cfg",
        "Configuration",
        "DEFAULT_LIMITS",
        "EquivalenceReport",
        "Limits",
        "P1_TEXT",
        "ParseError",
        "Pda",
        "QM",
        "START",
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


def test_every_public_name_resolves():
    for name in pdacfg.__all__:
        assert getattr(pdacfg, name) is not None, name
