"""Hypothesis strategies shared by the property tests."""

import hypothesis.strategies as st

from pdacfg.model import Cfg, Pda, Transition, is_token

tokens = st.text(alphabet="abqstzAZ09_", min_size=1, max_size=4).filter(is_token)

input_chars = st.sampled_from("ab()01x")


@st.composite
def pdas(draw, max_states=3, max_stack=3, max_moves=6, max_push=3):
    """Valid automata with small alphabets; languages are arbitrary."""
    states = tuple(sorted(draw(st.sets(tokens, min_size=1, max_size=max_states))))
    stack = tuple(sorted(draw(st.sets(tokens, min_size=1, max_size=max_stack))))
    alphabet = tuple(sorted(draw(st.sets(input_chars, min_size=0, max_size=2))))
    moves = set()
    for _ in range(draw(st.integers(0, max_moves))):
        inp = draw(st.sampled_from(alphabet + (None,)))
        if draw(st.booleans()):
            push = ()
        else:
            push = tuple(draw(st.lists(
                st.sampled_from(stack), min_size=1, max_size=max_push)))
        moves.add(Transition(
            draw(st.sampled_from(states)), inp, draw(st.sampled_from(stack)),
            draw(st.sampled_from(states)), push))
    return Pda(states, alphabet, stack, moves,
               draw(st.sampled_from(states)), draw(st.sampled_from(stack)))


@st.composite
def cfgs(draw, max_productions=6, max_body=3):
    """Small grammars mixing plain, bracketed, and single-letter variables."""
    variables = tuple(sorted(draw(st.sets(
        st.sampled_from(("S", "A", "B", "Zs", "[q0,Z,q1]", "Loop")),
        min_size=1, max_size=4))))
    terminals = tuple(sorted(draw(st.sets(
        st.sampled_from("ab01"), min_size=0, max_size=2))))
    symbols = variables + terminals
    productions = set()
    for _ in range(draw(st.integers(0, max_productions))):
        head = draw(st.sampled_from(variables))
        body = tuple(draw(st.lists(
            st.sampled_from(symbols), min_size=0, max_size=max_body)))
        productions.add((head, body))
    start = draw(st.sampled_from(variables))
    return Cfg(variables, terminals, productions, start)
