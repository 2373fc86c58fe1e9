"""Recursive-descent parser for `.ssn` files and `.trace` files.

Grammar sketch (statements are keyword-led; `--` comments; LL(2)):

    file     := (roles | typedecl | protocol | entry)*
    roles    := 'roles' IDENT (',' IDENT)*
    typedecl := 'type' IDENT '=' ctor ('|' ctor)*
    ctor     := IDENT ['(' type (',' type)* ')']
    protocol := 'protocol' IDENT ['<' param (',' param)* '>']
                '[' IDENT (',' IDENT)* ']' '{' block '}'
    param    := IDENT ':' 'protocol' '[' IDENT (',' IDENT)* ']'
    entry    := 'entry' IDENT
    block    := stmt (';' stmt)* [';']         -- last stmt must close the path
    stmt     := 'msg' IDENT ':' type 'by' IDENT
              | 'dep' IDENT ':' deptype 'by' IDENT
              | 'send' IDENT IDENT '->' IDENT
              | 'read' IDENT '{' arm (';' arm)* [';'] '}'
              | 'rec' | 'end'
              | 'call' IDENT ['(' IDENT (',' IDENT)* ')'] ['then' 'rec']
    arm      := pattern '=>' block
    pattern  := IDENT | INT | STRING | 'true' | 'false' | '_'
    type     := 'Int' | 'Bool' | 'Str' | IDENT | '(' type (',' type)+ ')'
    deptype  := '(' IDENT ':' type (',' IDENT ':' type)* ')' 'where' ref
              | type 'where' ref
    ref      := or-expr over: literals, message vars, component labels,
                'e.N' projection, 'e!' payload unwrap, + - *, == != < <=,
                'and'/'or', 'literal(e)', 'next(e)'

A parse error does not stop the parse: recovery skips to the next
statement boundary (';', '}' or a top-level keyword) so several errors
can be reported in one run. Input nested past the depth cap is the
exception: it unwinds to the enclosing top-level declaration and parsing
resumes at the next one, so the cap is reported once.

A `.trace` file is a sequence of `IDENT '=' value` bindings, where

    value := ['-'] INT | STRING | 'true' | 'false'
           | IDENT ['(' value (',' value)* ')'] | '(' value (',' value)+ ')'

A binding has no span, so a well-formed trace needs no token positions: it
is read by walking the lexer's scan of the text (`lexer._MASTER.findall`,
one tuple of group texts per token) by index, with no `Token` list and no
pattern of its own. At the first thing that is not well formed the reader
gives up, and the token parser reads the whole text again and reports
every error, as it does for a `.ssn` file; the tests hold the two to the
same results. The reader shares what a trace repeats: a flat value token
(an int with its sign, a string, a bare tag, `true` or `false`) with the
same text again gives the same value object, and a name bound to such a
token again gives the same `TraceBinding`, so a loop that binds a value
again hands the simulator the same objects (see `simulator`). A compound
value is built fresh each time.
"""

from __future__ import annotations

import sys

from .diagnostics import Diagnostic
from .lexer import _MASTER, KEYWORDS, Token, parse_error, string_value, tokenize
from .model import (
    BINARY_OPS,
    Arith,
    BaseType,
    BinderRef,
    BoolLit,
    Cmp,
    Ctor,
    IntLit,
    NamedType,
    Proj,
    RefExpr,
    RefinedType,
    RoleId,
    Span,
    StrLit,
    TupleType,
    TypeExpr,
    UnwrapDep,
    VarId,
    VariantDecl,
    VarRef,
    BoolOp,
)
from .syntax import (
    Arm,
    Block,
    BoolV,
    Call,
    ConV,
    CtorPat,
    End,
    IntV,
    LitPat,
    NewDepMsg,
    NewMsg,
    Pattern,
    ProtocolDecl,
    ProtoParam,
    ReadCase,
    Rec,
    RoleDecl,
    Send,
    SourceFile,
    Stmt,
    StrV,
    Trace,
    TraceBinding,
    TupleV,
    Value,
    WildPat,
    TERMINATORS,
)

__all__ = ["ParseFailure", "parse", "parse_trace"]

_TOP_KEYWORDS = ("roles", "type", "protocol", "entry")
_PATTERN_STARTS = ("int", "string", "true", "false", "_", "-")


class ParseFailure(Exception):
    """Carries every error found in one run, each a ``parse`` Diagnostic."""

    def __init__(self, errors: list[Diagnostic]):
        super().__init__("; ".join(f"{e.span.line}:{e.span.col}: {e.message}" for e in errors))
        self.errors = errors


class _SyntaxError(Exception):
    def __init__(self, tok: Token, message: str):
        super().__init__(message)
        self.tok = tok
        self.message = message


def _expected(tok: Token, want: str) -> _SyntaxError:
    return _SyntaxError(tok, f"expected {want}, found {tok.text!r}" if tok.kind != "eof" else f"expected {want}, found end of input")


class _NestingError(_SyntaxError):
    """Past the depth cap: no statement-level recovery, the parser resumes at
    the next top-level declaration, so one cause gives one error."""


# The AST node each binary operator builds; BINARY_OPS orders them.
_BINARY_NODES = {
    "or": BoolOp, "and": BoolOp,
    "==": Cmp, "!=": Cmp, "<": Cmp, "<=": Cmp,
    "+": Arith, "-": Arith, "*": Arith,
}
_BINARY_LEVEL = {op: level for level, ops in enumerate(BINARY_OPS) for op in ops}


# Depth cap on recursive descent. Inputs past it get a parse error instead
# of exhausting the interpreter stack.
_MAX_NESTING = 100
_TOO_DEEP = f"nesting deeper than {_MAX_NESTING} levels"
# Operator nodes one refinement may build: a binary operator, '.N', '!',
# 'literal' or 'next'. It bounds every chain, flat or nested, so a predicate
# tree stays a few hundred levels deep and every later AST walk that
# recurses per level (checker, printer, simulator) stays shallow.
_MAX_OPERATORS = 500


def _nested(parse):
    """Make ``parse(p, ...)`` run one nesting level deeper, raising
    _NestingError at the current token past the depth cap."""

    def nested(p: _Parser, *args):
        p.nesting += 1
        try:
            if p.nesting > _MAX_NESTING:
                raise _NestingError(p.peek(), _TOO_DEEP)
            return parse(p, *args)
        finally:
            p.nesting -= 1

    return nested


class _Parser:
    def __init__(self, text: str):
        self.tokens, self.errors = tokenize(text)
        self.pos = 0
        self.nesting = 0
        self.operators = 0  # built so far by the refinement being parsed
        # One VarId and one RoleId per distinct name: each checks its name once.
        self.vars: dict[str, VarId] = {}
        self.roles: dict[str, RoleId] = {}

    def _operator(self) -> None:
        """Count an operator against the refinement's budget."""
        self.operators += 1
        if self.operators > _MAX_OPERATORS:
            raise _NestingError(self.peek(), f"refinement with more than {_MAX_OPERATORS} operators")

    # -- token plumbing ----------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        # In bounds: a lookahead of k > 0 is only taken past a token that is
        # not 'eof', so position pos + k - 1 is before the last token.
        return self.tokens[self.pos + k]

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind  # pos never passes 'eof'

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != kind:
            raise _expected(tok, what or f"'{kind}'")
        self.pos += 1  # never past 'eof': no rule expects it
        return tok

    def ident(self, what: str) -> str:
        tok = self.tokens[self.pos]
        if tok.kind != "ident":
            raise _expected(tok, what)
        self.pos += 1
        return tok.value

    def var(self, name: str) -> VarId:
        return self.vars.get(name) or self.vars.setdefault(name, VarId(name))

    def role(self, name: str) -> RoleId:
        return self.roles.get(name) or self.roles.setdefault(name, RoleId(name))

    def comma_list(self, parse_one) -> list:
        """``x (',' x)*``: one or more results of ``parse_one()``."""
        out = [parse_one()]
        while self.at(","):
            self.advance()
            out.append(parse_one())
        return out

    def int_value(self, tok: Token) -> int:
        """An int token's value; one past the interpreter's int/str digit limit is an error."""
        if tok.value is None:
            raise _SyntaxError(tok, f"integer literal longer than {sys.get_int_max_str_digits()} digits")
        return tok.value

    def span_from(self, start: Token) -> Span:
        """From ``start`` to the end of the last token taken, which ``start`` is or precedes."""
        end = self.tokens[self.pos - 1]
        return Span(start.line, start.col, max(end.offset + len(end.text) - start.offset, 1))

    def error(self, tok: Token, message: str) -> None:
        self.errors.append(parse_error(tok.line, tok.col, message))

    def sync_stmt(self) -> None:
        """Skip to the next statement boundary."""
        depth = 0
        while not self.at("eof"):
            kind = self.peek().kind
            if depth == 0 and kind in (";", "}") or kind in _TOP_KEYWORDS:
                return
            if kind in ("{", "(", "["):
                depth += 1
            elif kind in ("}", ")", "]"):
                depth -= 1
                if depth < 0:
                    return
            self.advance()

    def sync_arm(self) -> bool:
        """Skip the rest of an arm whose head did not parse, up to the ';'
        before the next arm or the '}' that closes the read. If neither
        comes first, stay put and return False. Only braces nest here: an
        arm body holds no ';' or '}' inside parentheses or brackets."""
        start = self.pos
        depth = 0
        while not self.at("eof") and self.peek().kind not in _TOP_KEYWORDS:
            kind = self.peek().kind
            if depth == 0 and (kind == "}" or kind == ";" and self.ends_arm()):
                return True
            if kind == "{":
                depth += 1
            elif kind == "}":
                depth -= 1
            self.advance()
        self.pos = start
        return False

    def sync_top(self) -> None:
        while not self.at("eof") and self.peek().kind not in _TOP_KEYWORDS:
            self.advance()

    # -- top level ---------------------------------------------------------

    def parse_file(self) -> SourceFile:
        roles: list[RoleDecl] = []
        variants: list[VariantDecl] = []
        protocols: list[ProtocolDecl] = []
        entry: str | None = None
        while not self.at("eof"):
            try:
                kind = self.peek().kind
                if kind == "roles":
                    roles.extend(self.parse_roles())
                elif kind == "type":
                    variants.append(self.parse_typedecl())
                elif kind == "protocol":
                    protocols.append(self.parse_protocol())
                elif kind == "entry":
                    tok = self.advance()
                    name = self.ident("a protocol name")
                    if entry is not None:
                        self.error(tok, "duplicate entry declaration")
                    entry = name
                else:
                    raise _SyntaxError(self.peek(), "expected 'roles', 'type', 'protocol', or 'entry'")
            except _SyntaxError as err:
                self.error(err.tok, err.message)
                self.sync_top()
        return SourceFile(tuple(roles), tuple(variants), tuple(protocols), entry)

    def parse_roles(self) -> list[RoleDecl]:
        self.expect("roles")

        def role() -> RoleDecl:
            tok = self.expect("ident", "a role name")
            return RoleDecl(tok.value, Span(tok.line, tok.col, len(tok.text)))

        return self.comma_list(role)

    def parse_typedecl(self) -> VariantDecl:
        start = self.expect("type")
        name = self.ident("a type name")
        self.expect("=")
        ctors = [self.parse_ctor()]
        while self.at("|"):
            self.advance()
            ctors.append(self.parse_ctor())
        return VariantDecl(name, tuple(ctors), self.span_from(start))

    def parse_ctor(self) -> Ctor:
        tok = self.expect("ident", "a constructor tag")
        payload: TypeExpr | None = None
        if self.at("("):
            self.advance()
            elems = self.comma_list(self.parse_type)
            self.expect(")")
            payload = elems[0] if len(elems) == 1 else TupleType(tuple(elems))
        return Ctor(tok.value, payload, self.span_from(tok))

    def parse_protocol(self) -> ProtocolDecl:
        start = self.expect("protocol")
        name = self.ident("a protocol name")

        def param() -> ProtoParam:
            tok = self.expect("ident", "a parameter name")
            self.expect(":")
            self.expect("protocol")
            return ProtoParam(tok.value, self.parse_role_list(), Span(tok.line, tok.col, len(tok.text)))

        params: list[ProtoParam] = []
        if self.at("<"):
            self.advance()
            params = self.comma_list(param)
            self.expect(">")
        participants = self.parse_role_list()
        self.expect("{")
        body = self.parse_block(in_arm=False)
        self.expect("}")
        return ProtocolDecl(name, tuple(params), participants, body, self.span_from(start))

    def parse_role_list(self) -> tuple[RoleId, ...]:
        self.expect("[")
        roles = self.comma_list(lambda: self.role(self.ident("a role name")))
        self.expect("]")
        return tuple(roles)

    # -- statements ----------------------------------------------------------

    def starts_arm(self, k: int = 0) -> bool:
        kind = self.peek(k).kind
        return kind in _PATTERN_STARTS or kind == "ident" and self.peek(k + 1).kind == "=>"

    def ends_arm(self) -> bool:
        """At a ';' that separates arms (or ends the last one)."""
        return self.starts_arm(1) or self.peek(1).kind == "}"

    def parse_block(self, in_arm: bool) -> Block:
        """A block's statements. The block takes one level of the depth
        cap for all of them: past the cap, its first statement raises
        _NestingError at its first token, and an empty block is reported
        as at any depth."""
        stmts: list[Stmt] = []
        errors_before = len(self.errors)
        self.nesting += 1
        try:
            while True:
                if self.at("}") or self.at("eof"):
                    break
                if in_arm and self.starts_arm():
                    break
                if self.nesting > _MAX_NESTING:
                    raise _NestingError(self.peek(), _TOO_DEEP)
                try:
                    stmt = self.parse_stmt()
                    if stmt is not None:
                        stmts.append(stmt)
                except _NestingError:
                    raise
                except _SyntaxError as err:
                    self.error(err.tok, err.message)
                    before = self.pos
                    self.sync_stmt()
                    if self.pos == before and not self.at(";"):
                        break  # stuck on a top-level keyword; let the caller resync
                if self.at(";"):
                    if in_arm and self.ends_arm():
                        break  # the ';' separates arms; leave it for the read loop
                    self.advance()
                    continue
                break
        finally:
            self.nesting -= 1
        clean = len(self.errors) == errors_before
        if not stmts:
            if clean:
                self.error(self.peek(), "expected a statement")
        elif clean and not isinstance(stmts[-1], TERMINATORS):
            self.error(self.peek(), "a path must finish with 'end', 'rec', 'call', or 'read'")
        return tuple(stmts)

    def parse_stmt(self) -> Stmt | None:
        """One statement, or None for a read whose every arm was skipped
        (its errors are already recorded)."""
        tok = self.peek()
        kind = tok.kind
        if kind in ("msg", "dep"):
            self.advance()
            var = self.var(self.ident("a message variable"))
            self.expect(":")
            type_ = self.parse_type() if kind == "msg" else self.parse_refined_type()
            self.expect("by")
            creator = self.role(self.ident("a role name"))
            return (NewMsg if kind == "msg" else NewDepMsg)(var, type_, creator, self.span_from(tok))
        if kind == "send":
            self.advance()
            var = self.var(self.ident("a message variable"))
            sender = self.role(self.ident("the sending role"))
            self.expect("->")
            receiver = self.role(self.ident("the receiving role"))
            return Send(var, sender, receiver, self.span_from(tok))
        if kind == "read":
            self.advance()
            var = self.var(self.ident("a message variable"))
            self.expect("{")
            arms = [self.parse_arm()]
            # An arm that starts right after an arm lacks its ';'. An empty body's
            # error already stands for that; a skipped arm (None) stops at ';' or '}'.
            while self.at(";") or self.starts_arm():
                if self.at(";"):
                    self.advance()
                    if self.at("}"):
                        break
                elif arms[-1].body:
                    err = _expected(self.peek(), "'}'")
                    self.error(err.tok, err.message)
                arms.append(self.parse_arm())
            self.expect("}")
            arms = [arm for arm in arms if arm is not None]
            return ReadCase(var, tuple(arms), self.span_from(tok)) if arms else None
        if kind == "rec":
            self.advance()
            return Rec(self.span_from(tok))
        if kind == "call":
            self.advance()
            target = self.ident("a protocol name")
            args: list[str] = []
            if self.at("("):
                self.advance()
                args = self.comma_list(lambda: self.ident("a protocol name"))
                self.expect(")")
            then_rec = False
            if self.at("then"):
                self.advance()
                self.expect("rec")
                then_rec = True
            return Call(target, tuple(args), then_rec, self.span_from(tok))
        if kind == "end":
            self.advance()
            return End(self.span_from(tok))
        raise _SyntaxError(tok, "expected a statement")

    def parse_arm(self) -> Arm | None:
        """One arm, or None when its pattern or '=>' is bad and an arm
        boundary follows: the error is recorded and the arm skipped, so the
        read's other arms still parse. Without a boundary the error goes
        to statement-level recovery."""
        start = self.peek()
        try:
            pattern = self.parse_pattern()
            self.expect("=>")
        except _SyntaxError as err:
            if not self.sync_arm():
                raise
            self.error(err.tok, err.message)
            return None
        body = self.parse_block(in_arm=True)
        return Arm(pattern, body, self.span_from(start))

    def parse_pattern(self) -> Pattern:
        tok = self.peek()
        if tok.kind == "_":
            self.advance()
            return WildPat(self.span_from(tok))
        if tok.kind == "ident":
            self.advance()
            return CtorPat(tok.value, self.span_from(tok))
        value = self.parse_literal_value()
        if value is None:
            raise _SyntaxError(tok, "expected a pattern (constructor tag, literal, or '_')")
        return LitPat(value, self.span_from(tok))

    def parse_literal_value(self) -> Value | None:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return IntV(self.int_value(tok))
        if tok.kind == "-" and self.peek(1).kind == "int":
            self.advance()
            return IntV(-self.int_value(self.advance()))
        if tok.kind == "string":
            self.advance()
            return StrV(tok.value)
        if tok.kind in ("true", "false"):
            self.advance()
            return BoolV(tok.kind == "true")
        return None

    # -- types ---------------------------------------------------------------

    @_nested
    def parse_type(self) -> TypeExpr:
        tok = self.peek()
        if tok.kind in ("Int", "Bool", "Str"):
            self.advance()
            return BaseType(tok.kind, Span(tok.line, tok.col, len(tok.text)))
        if tok.kind == "ident":
            self.advance()
            return NamedType(tok.value, Span(tok.line, tok.col, len(tok.text)))
        if tok.kind == "(":
            self.advance()
            elems = self.comma_list(self.parse_type)
            self.expect(")", "',' or ')' in tuple type")
            if len(elems) < 2:
                raise _SyntaxError(tok, "tuple type needs at least two components")
            return TupleType(tuple(elems), self.span_from(tok))
        raise _SyntaxError(tok, "expected a type")

    def parse_refined_type(self) -> RefinedType:
        start = self.peek()
        labels: tuple[str, ...]
        payload: TypeExpr
        if start.kind == "(" and self.peek(1).kind == "ident" and self.peek(2).kind == ":":
            self.advance()

            def component() -> tuple[str, TypeExpr]:
                label = self.ident("a component label")
                self.expect(":")
                return label, self.parse_type()

            labels, types = zip(*self.comma_list(component))
            self.expect(")")
            if len(set(labels)) != len(labels):
                raise _SyntaxError(start, "component labels must be distinct")
            payload = types[0] if len(types) == 1 else TupleType(types)
        else:
            labels = ()
            payload = self.parse_type()
        self.expect("where", "'where' introducing the refinement")
        self.operators = 0
        predicate = self.parse_ref(labels)
        return RefinedType(payload, labels, predicate, self.span_from(start))

    # -- refinement expressions -----------------------------------------------

    @_nested
    def parse_ref(self, labels: tuple[str, ...]) -> RefExpr:
        return self.parse_binary(labels, 0)

    def parse_binary(self, labels: tuple[str, ...], floor: int) -> RefExpr:
        """Operators of level ``floor`` or tighter over postfix operands
        (precedence climbing), every level left-associative.

        A right operand takes only the operators tighter than its own, so
        the levels met in one call never rise: each level's operators form
        one chain, and every node's span starts at its chain's first token.
        """
        tokens = self.tokens
        start = tokens[self.pos]
        lhs = self.parse_postfix(labels)
        while (level := _BINARY_LEVEL.get(tokens[self.pos].kind, -1)) >= floor:
            self._operator()
            op = tokens[self.pos].kind
            self.pos += 1  # an operator, not 'eof'
            rhs = self.parse_binary(labels, level + 1)
            lhs = _BINARY_NODES[op](op, lhs, rhs, span=self.span_from(start))
        return lhs

    def parse_postfix(self, labels) -> RefExpr:
        tokens = self.tokens
        start = tokens[self.pos]
        expr = self.parse_atom(labels)
        while True:
            kind = tokens[self.pos].kind
            if kind == ".":
                self._operator()
                self.pos += 1
                idx = self.expect("int", "a 1-based tuple position")
                position = self.int_value(idx)
                if position < 1:
                    raise _SyntaxError(idx, "projection positions are 1-based")
                expr = Proj(expr, position, self.span_from(start))
            elif kind == "!":
                self._operator()
                self.pos += 1
                expr = UnwrapDep(expr, self.span_from(start))
            else:
                return expr

    def parse_atom(self, labels: tuple[str, ...]) -> RefExpr:
        tok = self.tokens[self.pos]
        kind = tok.kind
        if kind == "ident":
            self.pos += 1
            name = tok.value
            span = Span(tok.line, tok.col, len(tok.text))
            if name in labels:
                ref: RefExpr = BinderRef(span)
                if len(labels) >= 2:
                    ref = Proj(ref, labels.index(name) + 1, span)
                return ref
            return VarRef(self.var(name), span)
        value = self.parse_literal_value()
        if value is not None:
            node = IntLit if isinstance(value, IntV) else StrLit if isinstance(value, StrV) else BoolLit
            return node(value.value, self.span_from(tok))
        if kind == "literal" or kind == "next":
            self._operator()
            self.pos += 1
            self.expect("(")
            inner = self.parse_ref(labels)
            self.expect(")")
            span = self.span_from(tok)
            if kind == "literal":
                return Cmp("==", BinderRef(span), inner, "literal", span)
            return Cmp("==", BinderRef(span), Arith("+", inner, IntLit(1), span), "next", span)
        if kind == "(":
            self.pos += 1
            inner = self.parse_ref(labels)
            self.expect(")")
            return inner
        raise _SyntaxError(tok, "expected a refinement expression")


def parse(text: str) -> SourceFile:
    """Parse a `.ssn` source; raises ParseFailure listing every error found."""
    p = _Parser(text)
    file = p.parse_file()
    if p.errors:
        raise ParseFailure(p.errors)
    return file


# ---------------------------------------------------------------------------
# Trace files: one `var = value` binding after another, read directly or,
# if that gives up, from tokens (see the module docstring).


def parse_trace(text: str) -> Trace:
    """Parse a `.trace` file; raises ParseFailure on malformed value syntax."""
    trace = _read_trace(text)
    return trace if trace is not None else _parse_trace_tokens(text)


def _read_trace(text: str) -> Trace | None:
    """The trace ``text`` holds, or None where the token path reports an error."""
    # The lexer's scan, one tuple of group texts per token (see `lexer`):
    # the gap, word, int, string, string body, closing quote, punct and bad
    # character. It ends in a tuple with no token group set, the end.
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
    while (name := scan[i][1]) and name not in KEYWORDS and scan[i + 1][6] == "=":
        i += 2
        while True:  # one value token, then the separators that close what it completes
            _, word, digits, string, body, close, punct, _ = scan[i]
            i += 1
            if punct == "(" or word and scan[i][6] == "(":  # a tuple, or a tag and its '('
                # a keyword tag, or items nested past the cap
                if word in KEYWORDS or len(open_) + 2 > _MAX_NESTING:
                    return None
                if word:
                    i += 1  # past the tag's '('
                open_.append((word or None, []))
                continue
            if punct == "-" and scan[i][2]:
                digits = scan[i][2]
                token = "-" + digits
                i += 1
            else:
                token = word or digits or string
                if not token:
                    return None
            if not open_ and (binding := shared.get((name, token))) is not None:
                bindings.append(binding)
                break
            value: Value | None = flat.get(token)
            if value is None:
                if word:
                    if word in KEYWORDS:
                        if word != "true" and word != "false":
                            return None
                        value = BoolV(word == "true")
                    else:
                        value = ConV(word)
                elif digits:
                    try:
                        number = int(digits)
                    except ValueError:  # past sys.get_int_max_str_digits()
                        return None
                    value = IntV(-number if punct else number)  # punct is the sign
                else:
                    body = string_value(body)
                    if body is None or not close:
                        return None
                    value = StrV(body)
                flat[token] = value
            if not open_:  # a flat value is the whole binding's value, not shared yet
                var = ids.get(name) or ids.setdefault(name, VarId(name))
                bindings.append(binding := TraceBinding(var, value))
                shared[name, token] = binding
                break
            while open_:
                sep = scan[i][6]
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
    return None if any(scan[i][1:]) else Trace(tuple(bindings))


def _parse_trace_tokens(text: str) -> Trace:
    """Parse a trace from its tokens: the reference for `_read_trace`, and
    the path that reports every error."""
    p = _Parser(text)
    bindings: list[TraceBinding] = []
    while not p.at("eof"):
        try:
            tok = p.expect("ident", "a message variable")
            p.expect("=")
            value = _parse_value(p)
            bindings.append(TraceBinding(p.var(tok.value), value))
        except _SyntaxError as err:
            p.error(err.tok, err.message)
            break
    if p.errors:
        raise ParseFailure(p.errors)
    return Trace(tuple(bindings))


@_nested
def _parse_value(p: _Parser) -> Value:
    tok = p.peek()
    lit = p.parse_literal_value()
    if lit is not None:
        return lit
    if tok.kind == "ident":
        p.advance()
        if p.at("("):
            p.advance()
            args = p.comma_list(lambda: _parse_value(p))
            p.expect(")")
            arg = args[0] if len(args) == 1 else TupleV(tuple(args))
            return ConV(tok.value, arg)
        return ConV(tok.value)
    if tok.kind == "(":
        p.advance()
        items = p.comma_list(lambda: _parse_value(p))
        p.expect(")", "',' or ')' in tuple value")
        if len(items) < 2:
            raise _SyntaxError(tok, "tuple value needs at least two components")
        return TupleV(tuple(items))
    raise _SyntaxError(tok, "expected a value")
