"""Line-oriented text formats for automata and grammars.

Both formats are UTF-8; ``#`` starts a comment running to end of line and
blank lines are ignored.  Rendering is canonical: symbols and rules come out
in lexicographic order of their textual form, so structurally equal objects
render byte-identically and ``parse(render(x)) == x``.

PDA files carry five headers (states, input, stack, start, startstack)
followed by transition lines ``FROM INPUT POP -> TO PUSH...`` where INPUT is
one character or ``eps`` and PUSH is a top-first symbol sequence or the
single token ``eps``.  Single-state PDA files use the same headers and lines
and the same parser, with their own token decoders, and are read into the
same ``Transition`` type: the only state is ``qm``, stack symbols are ``Zs``
or ``[p,X,q]`` triples, the start stack is ``Zs`` (which must be declared),
and ``Zs`` is never pushed.  Both automaton kinds render through one writer
that reads their states and start headers off the automaton.  Grammar files
carry optional headers (variables, terminals, start) and production lines
``HEAD -> BODY | BODY ...``.
"""

from __future__ import annotations

import re
from collections import defaultdict
from typing import Optional, Union

from .model import (
    QM,
    START,
    Cfg,
    Pda,
    SingleStatePda,
    SsSymbol,
    Transition,
    Triple,
    is_input_symbol,
    is_token,
)

PDA_HEADERS = ("states", "input", "stack", "start", "startstack")
CFG_HEADERS = ("variables", "terminals", "start")
_PDA_ONLY_HEADERS = {f"{name}:" for name in PDA_HEADERS if name not in CFG_HEADERS}

_TRIPLE_RE = re.compile(r"\[([^,\s\[\]]+),([^,\s\[\]]+),([^,\s\[\]]+)\]")


class ParseError(Exception):
    """Input text could not be parsed; ``line`` is 1-based when known."""

    def __init__(self, line: Optional[int], message: str):
        self.line = line
        self.message = message
        super().__init__(f"line {line}: {message}" if line is not None else message)


def _content_lines(text: str):
    """Yield (line number, tokens) for every non-blank, non-comment line."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        cut = raw.find("#")
        line = raw[:cut] if cut >= 0 else raw
        tokens = line.split()
        if tokens:
            yield lineno, tokens


def _split_headers(text: str, known: tuple[str, ...]):
    headers: dict[str, tuple[int, list[str]]] = {}
    body: list[tuple[int, list[str]]] = []
    for lineno, tokens in _content_lines(text):
        first = tokens[0]
        if first.endswith(":") and len(first) > 1:
            name = first[:-1]
            if name not in known:
                raise ParseError(lineno, f"unknown header {name!r}")
            if name in headers:
                raise ParseError(lineno, f"duplicate header {name!r}")
            headers[name] = (lineno, tokens[1:])
        else:
            body.append((lineno, tokens))
    return headers, body


def _single_header_token(headers, name):
    lineno, tokens = headers[name]
    if len(tokens) != 1:
        raise ParseError(lineno, f"header {name!r} needs exactly one symbol")
    return lineno, tokens[0]


def parse_ss_symbol(token: str) -> Optional[SsSymbol]:
    """Decode ``Zs`` or a ``[p,X,q]`` triple token; None if neither."""
    if token == START:
        return START
    match = _TRIPLE_RE.fullmatch(token)
    if match and all(is_token(part) for part in match.groups()):
        return Triple(*match.groups())
    return None


def _declared(header, decode, invalid: str) -> dict:
    lineno, tokens = header
    declared = {}
    for tok in tokens:
        value = decode(tok)
        if value is None:
            raise ParseError(lineno, f"{invalid} {tok!r}")
        declared[tok] = value
    return declared


def _parse_declarations(text: str, decode_state, decode_symbol):
    """Split an automaton file into its headers and move lines, and decode
    the states, input alphabet and stack alphabet it declares.

    ``decode_state`` and ``decode_symbol`` map a token to the state or stack
    symbol it spells in the file's format, or to None if it spells none.
    The declared sets come back as dicts from token to decoded value, keyed
    by the kind of reference that must resolve in them.
    """
    headers, move_lines = _split_headers(text, PDA_HEADERS)
    for name in PDA_HEADERS:
        if name not in headers:
            raise ParseError(None, f"missing header {name!r}")
    lineno, tokens = headers["states"]
    if not tokens:
        raise ParseError(lineno, "empty state set")
    declared = {
        "state": _declared(headers["states"], decode_state, "invalid state name"),
        "input symbol": _declared(headers["input"], _input_symbol, "invalid input symbol"),
        "stack symbol": _declared(headers["stack"], decode_symbol, "invalid stack symbol"),
    }
    return headers, move_lines, declared


def _resolve(declared: dict, kind: str, tok: str, lineno: int):
    value = declared[kind].get(tok)
    if value is None:
        raise ParseError(lineno, f"undeclared {kind} {tok!r}")
    return value


def _parse_references(headers, move_lines, declared):
    """Resolve the start headers and every move line against the declared
    sets.

    Returns the start state, the start stack symbol, and each move as
    ``(line, (from, input, pop, to, push))`` with its symbols decoded.
    """
    lineno, tok = _single_header_token(headers, "start")
    start_state = _resolve(declared, "state", tok, lineno)
    lineno, tok = _single_header_token(headers, "startstack")
    start_stack = _resolve(declared, "stack symbol", tok, lineno)

    moves = []
    for lineno, tokens in move_lines:
        if len(tokens) < 6 or tokens[3] != "->":
            raise ParseError(
                lineno, "malformed transition line (want: FROM INPUT POP -> TO PUSH...)")
        frm = _resolve(declared, "state", tokens[0], lineno)
        to = _resolve(declared, "state", tokens[4], lineno)
        inp = tokens[1]
        if inp == "eps":
            inp = None
        elif not is_input_symbol(inp):
            raise ParseError(lineno, f"invalid input symbol {inp!r}")
        else:
            inp = _resolve(declared, "input symbol", inp, lineno)
        pop = _resolve(declared, "stack symbol", tokens[2], lineno)
        push_toks = tokens[5:]
        if push_toks == ["eps"]:
            push = ()
        elif "eps" in push_toks:
            raise ParseError(lineno, "eps cannot appear inside a push sequence")
        else:
            push = tuple(_resolve(declared, "stack symbol", tok, lineno) for tok in push_toks)
        moves.append((lineno, (frm, inp, pop, to, push)))
    return start_state, start_stack, moves


def _token(tok: str) -> Optional[str]:
    return tok if is_token(tok) else None


def _input_symbol(tok: str) -> Optional[str]:
    return tok if is_input_symbol(tok) else None


def parse_pda(text: str) -> Pda:
    """Parse the multistate PDA file format.

    Headers may appear in any order and anywhere in the file; references are
    validated against the declared sets, with errors reported at the line
    that made them.
    """
    headers, move_lines, declared = _parse_declarations(text, _token, _token)
    start_state, start_stack, moves = _parse_references(headers, move_lines, declared)
    return Pda(declared["state"], declared["input symbol"], declared["stack symbol"],
               {Transition(*move) for _, move in moves}, start_state, start_stack)


def parse_sspda(text: str) -> SingleStatePda:
    """Parse a single-state PDA file: same line format; the only state is
    ``qm``, stack symbols are Zs or triple tokens, the start stack is Zs,
    and Zs is never pushed."""
    headers, move_lines, declared = _parse_declarations(
        text, lambda tok: tok if tok == QM else None, parse_ss_symbol)
    # Before the references, so a missing Zs is reported at the stack
    # header rather than at its first use.
    if START not in declared["stack symbol"]:
        raise ParseError(headers["stack"][0], "stack alphabet must contain Zs")
    _, start_stack, moves = _parse_references(headers, move_lines, declared)
    if start_stack != START:
        raise ParseError(headers["startstack"][0], "start stack symbol must be Zs")
    for lineno, (_, _, _, _, push) in moves:
        if START in push:
            raise ParseError(lineno, "Zs cannot be pushed")
    return SingleStatePda(
        input_alphabet=declared["input symbol"],
        stack_alphabet=declared["stack symbol"].values(),
        transitions=(Transition(*move) for _, move in moves),
    )


def _is_variable_token(tok: str) -> bool:
    return is_token(tok) or parse_ss_symbol(tok) is not None


def _infers_variable(tok: str) -> bool:
    """Whether a body token is a variable in a file with no ``variables:``
    header: bracketed triples, ``Zs`` and multi-character tokens are."""
    return parse_ss_symbol(tok) is not None or len(tok) > 1


def _inferred_variables(productions) -> set[str]:
    """The variables of a file with no ``variables:`` header: the heads,
    and every body token ``_infers_variable`` calls a variable."""
    return {head for head, _ in productions} | {
        tok for _, body in productions for tok in body if _infers_variable(tok)}


def parse_cfg(text: str) -> Cfg:
    """Parse the grammar file format, expanding ``|`` alternatives.

    Bracketed tokens and ``Zs`` are always variables; with no headers the
    variables are the production heads plus every multi-character body token,
    remaining single-character tokens are terminals, and the start symbol is
    the head of the first production line.
    """
    headers, prod_lines = _split_headers(text, CFG_HEADERS)

    declared_vars = declared_terms = None
    if "variables" in headers:
        declared_vars = _declared(headers["variables"],
                                  lambda tok: tok if _is_variable_token(tok) else None,
                                  "invalid variable")
    if "terminals" in headers:
        declared_terms = _declared(headers["terminals"], _input_symbol, "invalid terminal")

    raw_prods: list[tuple[int, str, tuple[str, ...]]] = []
    first_head = None
    for lineno, tokens in prod_lines:
        if len(tokens) < 3 or tokens[1] != "->":
            raise ParseError(lineno, "malformed production line (want: HEAD -> BODY | BODY ...)")
        head = tokens[0]
        if not _is_variable_token(head):
            raise ParseError(lineno, f"invalid variable {head!r}")
        if first_head is None:
            first_head = head
        alt: list[str] = []
        for tok in tokens[2:] + ["|"]:
            if tok != "|":
                alt.append(tok)
                continue
            if alt == ["eps"]:
                body: tuple[str, ...] = ()
            else:
                if not alt:
                    raise ParseError(lineno, "empty alternative")
                if "eps" in alt:
                    raise ParseError(lineno, "eps cannot appear inside a body")
                for sym in alt:
                    if not (_is_variable_token(sym) or is_input_symbol(sym)):
                        raise ParseError(lineno, f"invalid symbol {sym!r}")
                body = tuple(alt)
            raw_prods.append((lineno, head, body))
            alt = []

    if declared_vars is not None:
        variables = set(declared_vars)
    else:
        variables = _inferred_variables([(head, body) for _, head, body in raw_prods])

    if "start" in headers:
        lineno, start = _single_header_token(headers, "start")
        if not _is_variable_token(start):
            raise ParseError(lineno, f"invalid variable {start!r}")
        if declared_vars is not None and start not in variables:
            raise ParseError(lineno, f"undeclared variable {start!r}")
        variables.add(start)
    elif first_head is not None:
        start = first_head
    else:
        raise ParseError(None, "grammar has no productions and no start header")

    terminals = set()
    for lineno, head, body in raw_prods:
        if head not in variables:
            raise ParseError(lineno, f"undeclared variable {head!r}")
        for tok in body:
            if tok in variables:
                continue
            if _infers_variable(tok):
                raise ParseError(lineno, f"undeclared variable {tok!r}")
            if declared_terms is not None and tok not in declared_terms:
                raise ParseError(lineno, f"undeclared terminal {tok!r}")
            terminals.add(tok)
    if declared_terms is not None:
        terminals = set(declared_terms)

    overlap = variables & terminals
    if overlap:
        raise ParseError(None, f"symbol {sorted(overlap)[0]!r} declared both variable and terminal")

    return Cfg(variables, terminals, {(head, body) for _, head, body in raw_prods}, start)


def _header_line(name: str, symbols) -> str:
    rest = " ".join(symbols)
    return f"{name}: {rest}" if rest else f"{name}:"


def _note(row: Transition, spell) -> str:
    """The ``# from:`` note ``spell`` makes of the move read off ``row``
    (None for a seeding row); none if no move builds the row or ``spell``
    makes nothing of its move."""
    from .singlestate import source_move

    try:
        text = spell(source_move(row))
    except ValueError:
        return ""
    return f"  # from: {text}" if text else ""


def _rule(move: Optional[Transition]) -> str:
    """A single-state row's note: the rule that built it, and its move."""
    return "rule3" if move is None else f"rule{2 if move.push else 1} {move}"


def _production_note(cfg: Cfg, head: str, body: tuple[str, ...]) -> str:
    """The note of a production ``[p,X,q] -> a gamma``, decoded as the row
    ``qm a [p,X,q] -> qm gamma``: the row itself in a grammar whose start is
    ``Zs``, else the move it reads back to, and ``start seeding`` for a
    start production of one triple."""
    if (head == cfg.start != START and len(body) == 1
            and isinstance(parse_ss_symbol(body[0]), Triple)):
        return "  # from: start seeding"
    inp = body[0] if body and body[0] in cfg.terminals else None
    pop, *push = map(parse_ss_symbol, (head, *body[inp is not None:]))
    if pop is None or None in push:
        return ""
    row = Transition(QM, inp, pop, QM, tuple(push))
    return _note(row, lambda move: row if cfg.start == START else move)


def _render_automaton(m: Union[Pda, SingleStatePda], verbose: bool) -> str:
    noted = verbose and isinstance(m, SingleStatePda)
    lines = [
        _header_line("states", sorted(m.states)),
        _header_line("input", sorted(m.input_alphabet)),
        _header_line("stack", sorted(str(s) for s in m.stack_alphabet)),
        f"start: {m.start_state}",
        f"startstack: {m.start_stack}",
    ]
    for text, t in sorted(((str(t), t) for t in m.transitions), key=lambda row: row[0]):
        lines.append(text + _note(t, _rule) if noted else text)
    return "\n".join(lines) + "\n"


def _body_text(body: tuple[str, ...]) -> str:
    return " ".join(body) if body else "eps"


def _render_cfg(cfg: Cfg, verbose: bool) -> str:
    by_head = defaultdict(list)
    for head, body in cfg.productions:
        by_head[head].append(body)
    heads = sorted(by_head)

    prod_lines = []
    for head in heads:
        bodies = sorted(by_head[head], key=_body_text)
        if verbose:
            for body in bodies:
                prod_lines.append(f"{head} -> {_body_text(body)}"
                                  + _production_note(cfg, head, body))
        else:
            prod_lines.append(f"{head} -> " + " | ".join(_body_text(b) for b in bodies))

    # Emit a header only when a parser could not infer that set from the
    # production lines alone.
    vars_inferred = _inferred_variables(cfg.productions)
    terms_inferred = {
        tok for _, body in cfg.productions for tok in body if tok not in vars_inferred}

    header_lines = []
    if cfg.variables != vars_inferred:
        header_lines.append(_header_line("variables", sorted(cfg.variables)))
    if cfg.terminals != terms_inferred:
        header_lines.append(_header_line("terminals", sorted(cfg.terminals)))
    if not heads or cfg.start != heads[0]:
        header_lines.append(f"start: {cfg.start}")
    return "\n".join(header_lines + prod_lines) + "\n"


def render(obj: Union[Pda, SingleStatePda, Cfg], verbose: bool = False) -> str:
    """Canonical text for an automaton or grammar.

    With ``verbose``, single-state rows and grammar productions carry
    trailing ``# from: ...`` comments saying where each came from, read
    back off the row or production itself; one that no construction builds
    carries none.
    """
    if isinstance(obj, (Pda, SingleStatePda)):
        return _render_automaton(obj, verbose)
    if isinstance(obj, Cfg):
        return _render_cfg(obj, verbose)
    raise TypeError(f"cannot render {type(obj).__name__}")


def parse_source(text: str) -> Union[Pda, SingleStatePda, Cfg]:
    """Parse text as whichever of the three formats it is.

    Any header only the PDA formats have (``states:``, ``input:``,
    ``stack:``, ``startstack:``) marks the PDA family, so a PDA file missing
    some header is still reported by the PDA parser; a ``stack:`` token that
    decodes to a ``[p,X,q]`` triple marks the single-state variant, so a
    malformed bracketed token is left for the PDA parser to report.
    Everything else parses as a grammar.
    """
    is_pda = False
    for _, tokens in _content_lines(text):
        if tokens[0] == "stack:" and any(
                isinstance(parse_ss_symbol(t), Triple) for t in tokens[1:]):
            return parse_sspda(text)
        is_pda = is_pda or tokens[0] in _PDA_ONLY_HEADERS
    return parse_pda(text) if is_pda else parse_cfg(text)

