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
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

from .lexer import Token, tokenize
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

__all__ = ["ParseError", "ParseFailure", "parse", "parse_trace"]

_TOP_KEYWORDS = ("roles", "type", "protocol", "entry")
_STMT_KEYWORDS = ("msg", "dep", "send", "read", "rec", "call", "end")
_PATTERN_STARTS = ("int", "string", "true", "false", "_", "-")


@dataclass(frozen=True)
class ParseError:
    line: int
    col: int
    message: str

    def __str__(self) -> str:
        return f"{self.line}:{self.col}: {self.message}"


class ParseFailure(Exception):
    """Carries every ParseError found in one run."""

    def __init__(self, errors: list[ParseError]):
        super().__init__("; ".join(str(e) for e in errors))
        self.errors = errors


class _SyntaxError(Exception):
    def __init__(self, tok: Token, message: str):
        super().__init__(message)
        self.tok = tok
        self.message = message


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


# Depth cap on recursive descent and on operator chains. Inputs past it
# get a parse error instead of exhausting the interpreter stack, and every
# later AST walk (checker, printer, simulator) stays shallow as a result.
_MAX_NESTING = 100


def _nested(parse):
    """Make ``parse(p, ...)`` run one nesting level deeper, raising
    _NestingError at the current token past the depth cap."""

    def nested(p: _Parser, *args):
        p.nesting += 1
        try:
            if p.nesting > _MAX_NESTING:
                raise _NestingError(p.peek(), f"nesting deeper than {_MAX_NESTING} levels")
            return parse(p, *args)
        finally:
            p.nesting -= 1

    return nested


class _Parser:
    def __init__(self, text: str):
        self.tokens, lex_errors = tokenize(text)
        self.pos = 0
        self.nesting = 0
        self.errors: list[ParseError] = [ParseError(e.line, e.col, e.message) for e in lex_errors]

    def _chain(self, count: int) -> None:
        if count > _MAX_NESTING:
            raise _SyntaxError(self.peek(), f"operator chain longer than {_MAX_NESTING} terms")

    # -- token plumbing ----------------------------------------------------

    def peek(self, k: int = 0) -> Token:
        try:
            return self.tokens[self.pos + k]
        except IndexError:  # lookahead past the end sees the final 'eof'
            return self.tokens[-1]

    def at(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind  # pos never passes 'eof'

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            want = what or f"'{kind}'"
            got = tok.text if tok.kind != "eof" else "end of input"
            raise _SyntaxError(tok, f"expected {want}, found {got!r}" if tok.kind != "eof" else f"expected {want}, found end of input")
        return self.advance()

    def int_value(self, tok: Token) -> int:
        """An int token's value; one past the interpreter's int/str digit limit is an error."""
        if tok.value is None:
            raise _SyntaxError(tok, f"integer literal longer than {sys.get_int_max_str_digits()} digits")
        return tok.value

    def prev(self) -> Token:
        return self.tokens[max(self.pos - 1, 0)]

    def span_from(self, start: Token) -> Span:
        end = self.prev()
        return Span(start.line, start.col, max(end.end_offset - start.offset, 1))

    def error_here(self, message: str) -> None:
        tok = self.peek()
        self.errors.append(ParseError(tok.line, tok.col, message))

    def record(self, err: _SyntaxError) -> None:
        self.errors.append(ParseError(err.tok.line, err.tok.col, err.message))

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
        entry_seen = False
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
                    name = self.expect("ident", "a protocol name").value
                    if entry_seen:
                        self.errors.append(ParseError(tok.line, tok.col, "duplicate entry declaration"))
                    entry = str(name)
                    entry_seen = True
                else:
                    raise _SyntaxError(self.peek(), "expected 'roles', 'type', 'protocol', or 'entry'")
            except _SyntaxError as err:
                self.record(err)
                self.sync_top()
        return SourceFile(tuple(roles), tuple(variants), tuple(protocols), entry)

    def parse_roles(self) -> list[RoleDecl]:
        self.expect("roles")
        out = []
        while True:
            tok = self.expect("ident", "a role name")
            out.append(RoleDecl(str(tok.value), Span(tok.line, tok.col, len(tok.text))))
            if not self.at(","):
                return out
            self.advance()

    def parse_typedecl(self) -> VariantDecl:
        start = self.expect("type")
        name = str(self.expect("ident", "a type name").value)
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
            elems = [self.parse_type()]
            while self.at(","):
                self.advance()
                elems.append(self.parse_type())
            self.expect(")")
            payload = elems[0] if len(elems) == 1 else TupleType(tuple(elems))
        return Ctor(str(tok.value), payload, self.span_from(tok))

    def parse_protocol(self) -> ProtocolDecl:
        start = self.expect("protocol")
        name = str(self.expect("ident", "a protocol name").value)
        params: list[ProtoParam] = []
        if self.at("<"):
            self.advance()
            while True:
                ptok = self.expect("ident", "a parameter name")
                self.expect(":")
                self.expect("protocol")
                sig = self.parse_role_list("[", "]")
                params.append(ProtoParam(str(ptok.value), sig, Span(ptok.line, ptok.col, len(ptok.text))))
                if not self.at(","):
                    break
                self.advance()
            self.expect(">")
        participants = self.parse_role_list("[", "]")
        self.expect("{")
        body = self.parse_block(in_arm=False)
        self.expect("}")
        return ProtocolDecl(name, tuple(params), participants, body, self.span_from(start))

    def parse_role_list(self, open_: str, close: str) -> tuple[RoleId, ...]:
        self.expect(open_)
        out = [RoleId(str(self.expect("ident", "a role name").value))]
        while self.at(","):
            self.advance()
            out.append(RoleId(str(self.expect("ident", "a role name").value)))
        self.expect(close)
        return tuple(out)

    # -- statements ----------------------------------------------------------

    def starts_arm(self, k: int = 0) -> bool:
        kind = self.peek(k).kind
        return kind in _PATTERN_STARTS or kind == "ident" and self.peek(k + 1).kind == "=>"

    def ends_arm(self) -> bool:
        """At a ';' that separates arms (or ends the last one)."""
        return self.starts_arm(1) or self.peek(1).kind == "}"

    def parse_block(self, in_arm: bool) -> Block:
        stmts: list[Stmt] = []
        errors_before = len(self.errors)
        while True:
            if self.at("}") or self.at("eof"):
                break
            if in_arm and self.starts_arm():
                break
            try:
                stmt = self.parse_stmt()
                if stmt is not None:
                    stmts.append(stmt)
            except _NestingError:
                raise
            except _SyntaxError as err:
                self.record(err)
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
        clean = len(self.errors) == errors_before
        if not stmts:
            if clean:
                self.error_here("expected a statement")
        elif clean and not isinstance(stmts[-1], TERMINATORS):
            self.error_here("a path must finish with 'end', 'rec', 'call', or 'read'")
        return tuple(stmts)

    @_nested
    def parse_stmt(self) -> Stmt | None:
        """One statement, or None for a read whose every arm was skipped
        (its errors are already recorded)."""
        tok = self.peek()
        kind = tok.kind
        if kind == "msg":
            self.advance()
            var = VarId(str(self.expect("ident", "a message variable").value))
            self.expect(":")
            type_ = self.parse_type()
            self.expect("by")
            creator = RoleId(str(self.expect("ident", "a role name").value))
            return NewMsg(var, type_, creator, self.span_from(tok))
        if kind == "dep":
            self.advance()
            var = VarId(str(self.expect("ident", "a message variable").value))
            self.expect(":")
            rtype = self.parse_refined_type()
            self.expect("by")
            creator = RoleId(str(self.expect("ident", "a role name").value))
            return NewDepMsg(var, rtype, creator, self.span_from(tok))
        if kind == "send":
            self.advance()
            var = VarId(str(self.expect("ident", "a message variable").value))
            sender = RoleId(str(self.expect("ident", "the sending role").value))
            self.expect("->")
            receiver = RoleId(str(self.expect("ident", "the receiving role").value))
            return Send(var, sender, receiver, self.span_from(tok))
        if kind == "read":
            self.advance()
            var = VarId(str(self.expect("ident", "a message variable").value))
            self.expect("{")
            arms = [self.parse_arm()]
            while self.at(";"):
                self.advance()
                if self.at("}"):
                    break
                arms.append(self.parse_arm())
            self.expect("}")
            arms = [arm for arm in arms if arm is not None]
            return ReadCase(var, tuple(arms), self.span_from(tok)) if arms else None
        if kind == "rec":
            self.advance()
            return Rec(self.span_from(tok))
        if kind == "call":
            self.advance()
            target = str(self.expect("ident", "a protocol name").value)
            args: list[str] = []
            if self.at("("):
                self.advance()
                args.append(str(self.expect("ident", "a protocol name").value))
                while self.at(","):
                    self.advance()
                    args.append(str(self.expect("ident", "a protocol name").value))
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
            self.record(err)
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
            return CtorPat(str(tok.value), self.span_from(tok))
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
            return StrV(str(tok.value))
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
            return NamedType(str(tok.value), Span(tok.line, tok.col, len(tok.text)))
        if tok.kind == "(":
            self.advance()
            elems = [self.parse_type()]
            while self.at(","):
                self.advance()
                elems.append(self.parse_type())
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
            names: list[str] = []
            types: list[TypeExpr] = []
            while True:
                names.append(str(self.expect("ident", "a component label").value))
                self.expect(":")
                types.append(self.parse_type())
                if not self.at(","):
                    break
                self.advance()
            self.expect(")")
            labels = tuple(names)
            if len(set(labels)) != len(labels):
                raise _SyntaxError(start, "component labels must be distinct")
            payload = types[0] if len(types) == 1 else TupleType(tuple(types))
        else:
            labels = ()
            payload = self.parse_type()
        self.expect("where", "'where' introducing the refinement")
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
        one chain, counted against the cap, and every node's span starts at
        its chain's first token.
        """
        start = self.peek()
        lhs = self.parse_postfix(labels)
        chain_level, count = floor, 0
        while (level := _BINARY_LEVEL.get(self.peek().kind, -1)) >= floor:
            if level != chain_level:
                chain_level, count = level, 0
            self._chain(count := count + 1)
            op = self.advance().kind
            rhs = self.parse_binary(labels, level + 1)
            lhs = _BINARY_NODES[op](op, lhs, rhs, span=self.span_from(start))
        return lhs

    def parse_postfix(self, labels) -> RefExpr:
        start = self.peek()
        expr = self.parse_atom(labels)
        count = 0
        while True:
            if self.at("."):
                self._chain(count := count + 1)
                self.advance()
                idx = self.expect("int", "a 1-based tuple position")
                position = self.int_value(idx)
                if position < 1:
                    raise _SyntaxError(idx, "projection positions are 1-based")
                expr = Proj(expr, position, self.span_from(start))
            elif self.at("!"):
                self._chain(count := count + 1)
                self.advance()
                expr = UnwrapDep(expr, self.span_from(start))
            else:
                return expr

    def parse_atom(self, labels: tuple[str, ...]) -> RefExpr:
        tok = self.peek()
        value = self.parse_literal_value()
        if value is not None:
            node = IntLit if isinstance(value, IntV) else StrLit if isinstance(value, StrV) else BoolLit
            return node(value.value, self.span_from(tok))
        if tok.kind in ("literal", "next"):
            self.advance()
            self.expect("(")
            inner = self.parse_ref(labels)
            self.expect(")")
            span = self.span_from(tok)
            if tok.kind == "literal":
                return Cmp("==", BinderRef(span), inner, "literal", span)
            return Cmp("==", BinderRef(span), Arith("+", inner, IntLit(1), span), "next", span)
        if tok.kind == "ident":
            self.advance()
            name = str(tok.value)
            span = self.span_from(tok)
            if name in labels:
                ref: RefExpr = BinderRef(span)
                if len(labels) >= 2:
                    ref = Proj(ref, labels.index(name) + 1, span)
                return ref
            return VarRef(VarId(name), span)
        if tok.kind == "(":
            self.advance()
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
# Trace files: one `var = value` binding after another.


def parse_trace(text: str) -> Trace:
    """Parse a `.trace` file; raises ParseFailure on malformed value syntax."""
    p = _Parser(text)
    bindings: list[TraceBinding] = []
    while not p.at("eof"):
        try:
            tok = p.expect("ident", "a message variable")
            p.expect("=")
            value = _parse_value(p)
            bindings.append(TraceBinding(VarId(str(tok.value)), value, p.span_from(tok)))
        except _SyntaxError as err:
            p.record(err)
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
            args = [_parse_value(p)]
            while p.at(","):
                p.advance()
                args.append(_parse_value(p))
            p.expect(")")
            arg = args[0] if len(args) == 1 else TupleV(tuple(args))
            return ConV(str(tok.value), arg)
        return ConV(str(tok.value))
    if tok.kind == "(":
        p.advance()
        items = [_parse_value(p)]
        while p.at(","):
            p.advance()
            items.append(_parse_value(p))
        p.expect(")", "',' or ')' in tuple value")
        if len(items) < 2:
            raise _SyntaxError(tok, "tuple value needs at least two components")
        return TupleV(tuple(items))
    raise _SyntaxError(tok, "expected a value")
