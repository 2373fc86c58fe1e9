"""Reader for `.trace` files: the value bindings that `simulate` runs a protocol against.

A `.trace` file is a sequence of `IDENT '=' value` bindings, where

    value := ['-'] INT | STRING | 'true' | 'false'
           | IDENT ['(' value (',' value)* ')'] | '(' value (',' value)+ ')'

A binding has no span, so a well-formed trace needs no token positions: it
is read by walking the lexer's scan of the text (`lexer._MASTER.findall`,
one (gap, token text, closing quote) tuple per token) by index, with no
token lists and no pattern of its own; a value token's kind follows from
its first character, as in the lexer. At the first thing that is not well
formed the reader gives up, and the token parser reads the whole text
again and reports every error, as it does for a `.ssn` file; the tests
hold the two to the same results. The reader shares what a trace repeats:
a flat value token (an int with its sign, a string, a bare tag, `true` or
`false`) with the same text again gives the same value object, and a name
bound to such a token again gives the same `TraceBinding`, so a loop that
binds a value again hands the simulator the same objects (see
`simulator`). A compound value is built fresh each time.

Only `simulate` and the library's ``parse_trace`` load this module.
"""

from __future__ import annotations

from .lexer import _FIRST, _MASTER, KEYWORDS, string_value
from .model import VarId
from .parser import _MAX_NESTING, _TOO_DEEP, ParseFailure, _NestingError, _Parser, _SyntaxError
from .syntax import BoolV, ConV, IntV, StrV, Trace, TraceBinding, TupleV, Value

__all__ = ["parse_trace"]


def parse_trace(text: str) -> Trace:
    """Parse a `.trace` file; raises ParseFailure on malformed value syntax."""
    trace = _read_trace(text)
    return trace if trace is not None else _parse_trace_tokens(text)


def _read_trace(text: str) -> Trace | None:
    """The trace ``text`` holds, or None where the token path reports an error."""
    # The lexer's scan, one (gap, token text, closing quote) tuple per token
    # (see `lexer`). It ends in a tuple with an empty token text, the end.
    scan = _MASTER.findall(text)
    bindings: list[TraceBinding] = []
    ids: dict[str, VarId] = {}  # one VarId per name, as `_Parser.var` keeps
    # One value per flat value token, keyed by the token's text ("-" and the
    # digits for a negative int), and one binding per name and such token:
    # the same text is read the same way.
    flat: dict[str, Value] = {}
    shared: dict[tuple[str, str], TraceBinding] = {}
    # The values being read: for each open '(' its tag (None for a tuple) and
    # the items read so far.
    open_: list[tuple[str | None, list[Value]]] = []
    i = 0
    # A name already bound is an ident; any other is checked as the token path would.
    while (
        (name := scan[i][1]) in ids or _FIRST.get(name[:1]) == "ident" and name not in KEYWORDS
    ) and scan[i + 1][1] == "=":
        i += 2
        while True:  # one value token, then the separators that close what it completes
            _, token, close = scan[i]
            i += 1
            # a tuple, or a tag and its '(' (the end, '', is the last token)
            if token == "(" or token and scan[i][1] == "(" and _FIRST.get(token[:1]) == "ident":
                # a keyword tag, or items nested past the cap
                if token in KEYWORDS or len(open_) + 2 > _MAX_NESTING:
                    return None
                tag = None
                if token != "(":
                    tag = token
                    i += 1  # past the tag's '('
                open_.append((tag, []))
                continue
            if token == "-" and _FIRST.get(scan[i][1][:1]) == "int":  # the sign of an int
                token += scan[i][1]
                i += 1
            if not open_ and (binding := shared.get((name, token))) is not None:
                bindings.append(binding)
                break
            value: Value | None = flat.get(token)
            if value is None:
                kind = _FIRST.get(token.lstrip("-")[:1])  # of a signed int, its digits
                if kind == "ident":
                    if token in KEYWORDS:
                        if token != "true" and token != "false":
                            return None
                        value = BoolV(token == "true")
                    else:
                        value = ConV(token)
                elif kind == "int":
                    try:
                        value = IntV(int(token))
                    except ValueError:  # past sys.get_int_max_str_digits()
                        return None
                elif kind == "string":
                    body = string_value(token[1:-1])
                    if body is None or not close:
                        return None
                    value = StrV(body)
                else:  # punctuation, a bad character, the end or a lone '-'
                    return None
                flat[token] = value
            if not open_:  # a flat value is the whole binding's value, not shared yet
                var = ids.get(name) or ids.setdefault(name, VarId(name))
                bindings.append(binding := TraceBinding(var, value))
                shared[name, token] = binding
                break
            while open_:
                sep = scan[i][1]
                if sep != "," and sep != ")":
                    return None
                i += 1
                tag, items = open_[-1]
                items.append(value)
                if sep == ",":
                    break
                open_.pop()
                if tag is not None:
                    value = ConV(tag, items[0] if len(items) == 1 else TupleV(tuple(items)))
                elif len(items) < 2:
                    return None
                else:
                    value = TupleV(tuple(items))
            else:  # the last ')' closed: the binding's compound value is complete
                var = ids.get(name) or ids.setdefault(name, VarId(name))
                bindings.append(TraceBinding(var, value))
                break
    # Anything but the end is an error the token path reports.
    return None if scan[i][1] else Trace(tuple(bindings))


def _parse_trace_tokens(text: str) -> Trace:
    """Parse a trace from its tokens: the reference for `_read_trace`, and
    the path that reports every error."""
    p = _Parser(text)
    bindings: list[TraceBinding] = []
    while not p.at("eof"):
        try:
            name = p.ident("a message variable")
            p.expect("=")
            value = _parse_value(p)
            bindings.append(TraceBinding(p.var(name), value))
        except _SyntaxError as err:
            p.error(err.pos, err.message)
            break
    if p.errors:
        raise ParseFailure(p.errors)
    return Trace(tuple(bindings))


def _parse_value(p: _Parser) -> Value:
    """A value, one nesting level deeper than its context."""
    start = p.pos
    if p.nesting >= _MAX_NESTING:
        raise _NestingError(start, _TOO_DEEP)
    lit = p.parse_literal_value()
    if lit is not None:
        return lit
    kind = p.peek()
    if kind == "ident":
        tag = p.texts[start]
        p.pos += 1
        if p.at("("):
            p.pos += 1
            args = p.nested_list(lambda: _parse_value(p))
            p.expect(")")
            arg = args[0] if len(args) == 1 else TupleV(tuple(args))
            return ConV(tag, arg)
        return ConV(tag)
    if kind == "(":
        p.pos += 1
        items = p.nested_list(lambda: _parse_value(p))
        p.expect(")", "',' or ')' in tuple value")
        if len(items) < 2:
            raise _SyntaxError(start, "tuple value needs at least two components")
        return TupleV(tuple(items))
    raise _SyntaxError(start, "expected a value")
