"""Recursive-descent parser for `.ssn` files.

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

The parser reads the parallel token lists of ``lexer.tokenize`` by
position: ``kinds[pos]`` decides every rule, ``texts[pos]`` gives a name
or the text an int or a string is read from, and an error records the
position of the token it is reported at. A ``Span`` or an error takes its
token's offset and the text's one table of line starts; no line or column
is looked up while parsing.

A rule takes its well-formed shape by reading ``kinds`` in place: a
statement head such as ``send IDENT IDENT '->' IDENT``, a ``by IDENT``
tail, a label and its ':', a base type, an operand. Once every kind fits,
it moves ``pos`` past the shape and builds the node and its span in one
step. Where a kind misses, the rule goes through the per-token helpers
(``expect``, ``ident``, ``peek``, ``at``, ``starts_arm``, ``ends_arm``)
from the same position, and the first of them that meets a wrong token
raises. Those helpers are the one place that words a parse error, so an
error's message, position and recovery are the same whichever path met it.

The `.trace` reader (`traces`) falls back on this parse state for a trace
it cannot read directly, so a trace's errors are worded as a `.ssn` file's.
"""

from __future__ import annotations

import sys

from .diagnostics import Diagnostic
from .lexer import parse_error, string_value, tokenize
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
    Value,
    WildPat,
    TERMINATORS,
)

__all__ = ["ParseFailure", "parse"]

_TOP_KEYWORDS = ("roles", "type", "protocol", "entry")
_PATTERN_STARTS = ("int", "string", "true", "false", "_", "-")
_SEND_SHAPE = ["ident", "ident", "->", "ident"]  # the kinds of the tokens after `send`


class ParseFailure(Exception):
    """Carries every error found in one run, each a ``parse`` Diagnostic."""

    def __init__(self, errors: list[Diagnostic]):
        super().__init__("; ".join("{}:{}: {}".format(*e.span.line_col, e.message) for e in errors))
        self.errors = errors


class _SyntaxError(Exception):
    def __init__(self, pos: int, message: str):
        super().__init__(message)
        self.pos = pos  # of the token the error is reported at
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


# Depth cap on recursive descent. Inputs past it get a parse error instead
# of exhausting the interpreter stack.
_MAX_NESTING = 100
_TOO_DEEP = f"nesting deeper than {_MAX_NESTING} levels"
# Operator nodes one refinement may build: a binary operator, '.N', '!',
# 'literal' or 'next'. It bounds every chain, flat or nested, so a predicate
# tree stays a few hundred levels deep and every later AST walk that
# recurses per level (checker, printer, simulator) stays shallow.
_MAX_OPERATORS = 500
_TOO_MANY_OPERATORS = f"refinement with more than {_MAX_OPERATORS} operators"


class _Parser:
    """The parse state: the token lists of ``tokenize``, read by position
    ``pos``. A rule takes a token (``pos += 1``) only once it has checked
    that token's kind, and no rule takes 'eof', so ``pos`` never passes
    the last token."""

    def __init__(self, text: str):
        self.kinds, self.texts, self.offsets, self.errors, self.line_starts = tokenize(text)
        self.pos = 0
        self.nesting = 0
        self.operators = 0  # built so far by the refinement being parsed
        # One VarId and one RoleId per distinct name: each checks its name once.
        self.vars: dict[str, VarId] = {}
        self.roles: dict[str, RoleId] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self, k: int = 0) -> str:
        """The kind of the token ``k`` ahead. In bounds: a lookahead of
        k > 0 is only taken past a token that is not 'eof', so position
        pos + k - 1 is before the last token."""
        return self.kinds[self.pos + k]

    def at(self, kind: str) -> bool:
        return self.kinds[self.pos] == kind

    def expect(self, kind: str, what: str | None = None) -> int:
        pos = self.pos
        if self.kinds[pos] != kind:
            raise self.expected(what or f"'{kind}'")
        self.pos = pos + 1  # never past 'eof': no rule expects it
        return pos

    def ident(self, what: str) -> str:
        pos = self.pos
        if self.kinds[pos] != "ident":
            raise self.expected(what)
        self.pos = pos + 1
        return self.texts[pos]

    def expected(self, want: str) -> _SyntaxError:
        """The error for finding the current token where ``want`` belongs."""
        found = repr(self.texts[self.pos]) if self.kinds[self.pos] != "eof" else "end of input"
        return _SyntaxError(self.pos, f"expected {want}, found {found}")

    def var(self, name: str) -> VarId:
        return self.vars.get(name) or self.vars.setdefault(name, VarId(name))

    def role(self, name: str) -> RoleId:
        return self.roles.get(name) or self.roles.setdefault(name, RoleId(name))

    def comma_list(self, parse_one) -> list:
        """``x (',' x)*``: one or more results of ``parse_one()``."""
        out = [parse_one()]
        while self.at(","):
            self.pos += 1
            out.append(parse_one())
        return out

    def nested_list(self, parse_one) -> list:
        """``comma_list(parse_one)`` one nesting level deeper. A rule that
        nests checks the depth cap as it starts, at its first token."""
        self.nesting += 1
        try:
            return self.comma_list(parse_one)
        finally:
            self.nesting -= 1

    def int_value(self, pos: int) -> int:
        """An int token's value; one past the interpreter's int/str digit limit is an error."""
        try:
            return int(self.texts[pos])
        except ValueError:  # past sys.get_int_max_str_digits()
            raise _SyntaxError(pos, f"integer literal longer than {sys.get_int_max_str_digits()} digits") from None

    def span_from(self, start: int) -> Span:
        """From the token at ``start`` to the end of the last token taken,
        which ``start`` is or precedes. No rule takes 'eof', so the span is
        at least one character long."""
        offsets = self.offsets
        offset = offsets[start]
        end = self.pos - 1
        return Span(offset, offsets[end] + len(self.texts[end]) - offset, self.line_starts)

    def error(self, pos: int, message: str) -> None:
        self.errors.append(parse_error(self.offsets[pos], self.line_starts, message))

    def sync_stmt(self) -> None:
        """Skip to the next statement boundary."""
        depth = 0
        while not self.at("eof"):
            kind = self.peek()
            if depth == 0 and kind in (";", "}") or kind in _TOP_KEYWORDS:
                return
            if kind in ("{", "(", "["):
                depth += 1
            elif kind in ("}", ")", "]"):
                depth -= 1
                if depth < 0:
                    return
            self.pos += 1

    def sync_arm(self) -> bool:
        """Skip the rest of an arm whose head did not parse, up to the ';'
        before the next arm or the '}' that closes the read. If neither
        comes first, stay put and return False. Only braces nest here: an
        arm body holds no ';' or '}' inside parentheses or brackets."""
        start = self.pos
        depth = 0
        while not self.at("eof") and self.peek() not in _TOP_KEYWORDS:
            kind = self.peek()
            if depth == 0 and (kind == "}" or kind == ";" and self.ends_arm()):
                return True
            if kind == "{":
                depth += 1
            elif kind == "}":
                depth -= 1
            self.pos += 1
        self.pos = start
        return False

    def sync_top(self) -> None:
        while not self.at("eof") and self.peek() not in _TOP_KEYWORDS:
            self.pos += 1

    # -- top level ---------------------------------------------------------

    def parse_file(self) -> SourceFile:
        roles: list[RoleDecl] = []
        variants: list[VariantDecl] = []
        protocols: list[ProtocolDecl] = []
        entry: str | None = None
        while not self.at("eof"):
            try:
                kind = self.peek()
                if kind == "roles":
                    roles.extend(self.parse_roles())
                elif kind == "type":
                    variants.append(self.parse_typedecl())
                elif kind == "protocol":
                    protocols.append(self.parse_protocol())
                elif kind == "entry":
                    start = self.pos
                    self.pos += 1
                    name = self.ident("a protocol name")
                    if entry is not None:
                        self.error(start, "duplicate entry declaration")
                    entry = name
                else:
                    raise _SyntaxError(self.pos, "expected 'roles', 'type', 'protocol', or 'entry'")
            except _SyntaxError as err:
                self.error(err.pos, err.message)
                self.sync_top()
        return SourceFile(tuple(roles), tuple(variants), tuple(protocols), entry)

    def parse_roles(self) -> list[RoleDecl]:
        self.expect("roles")

        def role() -> RoleDecl:
            pos = self.expect("ident", "a role name")
            return RoleDecl(self.texts[pos], self.span_from(pos))

        return self.comma_list(role)

    def parse_typedecl(self) -> VariantDecl:
        start = self.expect("type")
        name = self.ident("a type name")
        self.expect("=")
        ctors = [self.parse_ctor()]
        while self.at("|"):
            self.pos += 1
            ctors.append(self.parse_ctor())
        return VariantDecl(name, tuple(ctors), self.span_from(start))

    def parse_ctor(self) -> Ctor:
        start = self.expect("ident", "a constructor tag")
        payload: TypeExpr | None = None
        if self.at("("):
            self.pos += 1
            elems = self.comma_list(self.parse_type)
            self.expect(")")
            payload = elems[0] if len(elems) == 1 else TupleType(tuple(elems))
        return Ctor(self.texts[start], payload, self.span_from(start))

    def parse_protocol(self) -> ProtocolDecl:
        start = self.expect("protocol")
        name = self.ident("a protocol name")

        def param() -> ProtoParam:
            pos = self.expect("ident", "a parameter name")
            span = self.span_from(pos)
            self.expect(":")
            self.expect("protocol")
            return ProtoParam(self.texts[pos], self.parse_role_list(), span)

        params: list[ProtoParam] = []
        if self.at("<"):
            self.pos += 1
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
        kind = self.peek(k)
        return kind in _PATTERN_STARTS or kind == "ident" and self.peek(k + 1) == "=>"

    def ends_arm(self) -> bool:
        """At a ';' that separates arms (or ends the last one)."""
        return self.starts_arm(1) or self.peek(1) == "}"

    def parse_block(self, in_arm: bool) -> Block:
        """A block's statements. The block takes one level of the depth
        cap for all of them: past the cap, its first statement raises
        _NestingError at its first token, and an empty block is reported
        as at any depth."""
        kinds = self.kinds
        stmts: list[Stmt] = []
        errors_before = len(self.errors)
        self.nesting += 1
        try:
            while True:
                kind = kinds[self.pos]
                if kind == "}" or kind == "eof":
                    break
                # An arm starts here (`starts_arm`).
                if in_arm and (kind in _PATTERN_STARTS or kind == "ident" and kinds[self.pos + 1] == "=>"):
                    break
                if self.nesting > _MAX_NESTING:
                    raise _NestingError(self.pos, _TOO_DEEP)
                try:
                    stmt = self.parse_stmt()
                    if stmt is not None:
                        stmts.append(stmt)
                except _NestingError:
                    raise
                except _SyntaxError as err:
                    self.error(err.pos, err.message)
                    before = self.pos
                    self.sync_stmt()
                    if self.pos == before and not self.at(";"):
                        break  # stuck on a top-level keyword; let the caller resync
                pos = self.pos
                if kinds[pos] != ";":
                    break
                # A ';' that separates arms (`ends_arm`) is left for the read loop.
                kind = kinds[pos + 1]
                if in_arm and (kind in _PATTERN_STARTS or kind == "}" or kind == "ident" and kinds[pos + 2] == "=>"):
                    break
                self.pos = pos + 1
        finally:
            self.nesting -= 1
        clean = len(self.errors) == errors_before
        if not stmts:
            if clean:
                self.error(self.pos, "expected a statement")
        elif clean and not isinstance(stmts[-1], TERMINATORS):
            self.error(self.pos, "a path must finish with 'end', 'rec', 'call', or 'read'")
        return tuple(stmts)

    def parse_stmt(self) -> Stmt | None:
        """One statement, or None for a read whose every arm was skipped
        (its errors are already recorded)."""
        start = self.pos
        kinds, texts, offsets = self.kinds, self.texts, self.offsets
        kind = kinds[start]
        # Where a shape misses, the per-token helpers raise its error.
        if kind == "dep" or kind == "msg":
            if kinds[start + 1] != "ident" or kinds[start + 2] != ":":
                self.pos = start + 1
                self.ident("a message variable")
                self.expect(":")
            var = self.var(texts[start + 1])
            self.pos = start + 3
            type_ = self.parse_type() if kind == "msg" else self.parse_refined_type()
            pos = self.pos
            if kinds[pos] != "by" or kinds[pos + 1] != "ident":
                self.expect("by")
                self.ident("a role name")
            self.pos = pos + 2
            creator, offset = texts[pos + 1], offsets[start]
            span = Span(offset, offsets[pos + 1] + len(creator) - offset, self.line_starts)
            return (NewMsg if kind == "msg" else NewDepMsg)(var, type_, self.role(creator), span)
        if kind == "send":
            if kinds[start + 1 : start + 5] != _SEND_SHAPE:
                self.pos = start + 1
                self.ident("a message variable")
                self.ident("the sending role")
                self.expect("->")
                self.ident("the receiving role")
            var, sender, _, receiver = texts[start + 1 : start + 5]
            self.pos = start + 5
            offset = offsets[start]
            span = Span(offset, offsets[start + 4] + len(receiver) - offset, self.line_starts)
            return Send(self.var(var), self.role(sender), self.role(receiver), span)
        if kind == "read":
            self.pos += 1
            var = self.var(self.ident("a message variable"))
            self.expect("{")
            arms = [self.parse_arm()]
            # An arm that starts right after an arm lacks its ';'. An empty body's
            # error already stands for that; a skipped arm (None) stops at ';' or '}'.
            while self.at(";") or self.starts_arm():
                if self.at(";"):
                    self.pos += 1
                    if self.at("}"):
                        break
                elif arms[-1].body:
                    err = self.expected("'}'")
                    self.error(err.pos, err.message)
                arms.append(self.parse_arm())
            self.expect("}")
            arms = [arm for arm in arms if arm is not None]
            return ReadCase(var, tuple(arms), self.span_from(start)) if arms else None
        if kind == "rec":
            self.pos += 1
            return Rec(self.span_from(start))
        if kind == "call":
            self.pos += 1
            target = self.ident("a protocol name")
            args: list[str] = []
            if self.at("("):
                self.pos += 1
                args = self.comma_list(lambda: self.ident("a protocol name"))
                self.expect(")")
            then_rec = False
            if self.at("then"):
                self.pos += 1
                self.expect("rec")
                then_rec = True
            return Call(target, tuple(args), then_rec, self.span_from(start))
        if kind == "end":
            self.pos += 1
            return End(self.span_from(start))
        raise _SyntaxError(start, "expected a statement")

    def parse_arm(self) -> Arm | None:
        """One arm, or None when its pattern or '=>' is bad and an arm
        boundary follows: the error is recorded and the arm skipped, so the
        read's other arms still parse. Without a boundary the error goes
        to statement-level recovery."""
        start = self.pos
        try:
            pattern = self.parse_pattern()
            self.expect("=>")
        except _SyntaxError as err:
            if not self.sync_arm():
                raise
            self.error(err.pos, err.message)
            return None
        body = self.parse_block(in_arm=True)
        return Arm(pattern, body, self.span_from(start))

    def parse_pattern(self) -> Pattern:
        start = self.pos
        kind = self.kinds[start]
        if kind == "_":
            self.pos += 1
            return WildPat(self.span_from(start))
        if kind == "ident":
            self.pos += 1
            return CtorPat(self.texts[start], self.span_from(start))
        value = self.parse_literal_value()
        if value is None:
            raise _SyntaxError(start, "expected a pattern (constructor tag, literal, or '_')")
        return LitPat(value, self.span_from(start))

    def parse_literal_value(self) -> Value | None:
        pos = self.pos
        kind = self.kinds[pos]
        if kind == "int":
            self.pos += 1
            return IntV(self.int_value(pos))
        if kind == "-" and self.peek(1) == "int":
            self.pos += 2
            return IntV(-self.int_value(pos + 1))
        if kind == "string":
            self.pos += 1
            return StrV(string_value(self.texts[pos][1:-1]))  # a string token is well formed
        if kind in ("true", "false"):
            self.pos += 1
            return BoolV(kind == "true")
        return None

    # -- types ---------------------------------------------------------------

    def parse_type(self) -> TypeExpr:
        """A type, one nesting level deeper than its context."""
        start = self.pos
        if self.nesting >= _MAX_NESTING:
            raise _NestingError(start, _TOO_DEEP)
        kind = self.kinds[start]
        if kind == "Int" or kind == "Str" or kind == "Bool":
            self.pos = start + 1
            return BaseType(kind, Span(self.offsets[start], len(kind), self.line_starts))
        if kind == "ident":
            self.pos = start + 1
            return NamedType(self.texts[start], self.span_from(start))
        if kind == "(":
            self.pos += 1
            elems = self.nested_list(self.parse_type)
            self.expect(")", "',' or ')' in tuple type")
            if len(elems) < 2:
                raise _SyntaxError(start, "tuple type needs at least two components")
            return TupleType(tuple(elems), self.span_from(start))
        raise _SyntaxError(start, "expected a type")

    def parse_refined_type(self) -> RefinedType:
        start = self.pos
        kinds = self.kinds
        labels: tuple[str, ...]
        payload: TypeExpr
        if kinds[start] == "(" and kinds[start + 1] == "ident" and kinds[start + 2] == ":":
            pos = start + 1
            names: list[str] = []
            types: list[TypeExpr] = []
            distinct = True
            while True:  # label ':' type (',' label ':' type)*
                if kinds[pos] != "ident" or kinds[pos + 1] != ":":
                    self.ident("a component label")
                    self.expect(":")
                label = self.texts[pos]
                self.pos = pos + 2
                distinct = distinct and label not in names
                names.append(label)
                types.append(self.parse_type())
                pos = self.pos
                if kinds[pos] != ",":
                    break
                self.pos = pos = pos + 1
            self.expect(")")
            if not distinct:
                raise _SyntaxError(start, "component labels must be distinct")
            labels = tuple(names)
            payload = types[0] if len(types) == 1 else TupleType(tuple(types))
        else:
            labels = ()
            payload = self.parse_type()
        if kinds[self.pos] != "where":
            self.expect("where", "'where' introducing the refinement")
        self.pos += 1
        self.operators = 0
        predicate = self.parse_ref(labels)
        return RefinedType(payload, labels, predicate, self.span_from(start))

    # -- refinement expressions -----------------------------------------------

    def parse_ref(self, labels: tuple[str, ...]) -> RefExpr:
        """A refinement expression, one nesting level deeper than its context."""
        if self.nesting >= _MAX_NESTING:
            raise _NestingError(self.pos, _TOO_DEEP)
        self.nesting += 1
        try:
            return self.parse_binary(labels, 0)
        finally:
            self.nesting -= 1

    def parse_binary(self, labels: tuple[str, ...], floor: int) -> RefExpr:
        """Operators of level ``floor`` or tighter over postfix operands
        (precedence climbing), every level left-associative.

        A right operand takes only the operators tighter than its own, so
        the levels met in one call never rise: each level's operators form
        one chain, and every node's span starts at its chain's first token.
        """
        kinds, texts, offsets = self.kinds, self.texts, self.offsets
        start = self.pos
        lhs = self.parse_postfix(labels)
        while (level := _BINARY_LEVEL.get(op := kinds[self.pos], -1)) >= floor:
            self.operators += 1
            if self.operators > _MAX_OPERATORS:
                raise _NestingError(self.pos, _TOO_MANY_OPERATORS)
            self.pos += 1  # an operator, not 'eof'
            rhs = self.parse_binary(labels, level + 1)
            end = self.pos - 1
            offset = offsets[start]
            span = Span(offset, offsets[end] + len(texts[end]) - offset, self.line_starts)
            lhs = _BINARY_NODES[op](op, lhs, rhs, span=span)
        return lhs

    def parse_postfix(self, labels) -> RefExpr:
        kinds = self.kinds
        start = self.pos
        expr = self.parse_atom(labels)
        while True:
            pos = self.pos
            kind = kinds[pos]
            if kind != "!" and kind != ".":
                return expr
            self.operators += 1
            if self.operators > _MAX_OPERATORS:
                raise _NestingError(pos, _TOO_MANY_OPERATORS)
            self.pos = pos + 1
            if kind == "!":
                offset = self.offsets[start]
                expr = UnwrapDep(expr, Span(offset, self.offsets[pos] + 1 - offset, self.line_starts))
                continue
            idx = self.expect("int", "a 1-based tuple position")
            position = self.int_value(idx)
            if position < 1:
                raise _SyntaxError(idx, "projection positions are 1-based")
            expr = Proj(expr, position, self.span_from(start))

    def parse_atom(self, labels: tuple[str, ...]) -> RefExpr:
        start = self.pos
        kinds = self.kinds
        kind = kinds[start]
        if kind == "ident":
            self.pos = start + 1
            name = self.texts[start]
            span = Span(self.offsets[start], len(name), self.line_starts)
            if name in labels:
                ref: RefExpr = BinderRef(span)
                if len(labels) >= 2:
                    ref = Proj(ref, labels.index(name) + 1, span)
                return ref
            return VarRef(self.var(name), span)
        # A literal, as `parse_literal_value` reads one.
        if kind == "int":
            self.pos = start + 1
            return IntLit(self.int_value(start), Span(self.offsets[start], len(self.texts[start]), self.line_starts))
        if kind == "-" and kinds[start + 1] == "int":
            self.pos = start + 2
            return IntLit(-self.int_value(start + 1), self.span_from(start))
        if kind == "string":
            self.pos = start + 1
            return StrLit(string_value(self.texts[start][1:-1]), self.span_from(start))
        if kind == "true" or kind == "false":
            self.pos = start + 1
            return BoolLit(kind == "true", self.span_from(start))
        if kind == "literal" or kind == "next":
            self.operators += 1
            if self.operators > _MAX_OPERATORS:
                raise _NestingError(start, _TOO_MANY_OPERATORS)
            self.pos += 1
            self.expect("(")
            inner = self.parse_ref(labels)
            self.expect(")")
            span = self.span_from(start)
            if kind == "literal":
                return Cmp("==", BinderRef(span), inner, "literal", span)
            return Cmp("==", BinderRef(span), Arith("+", inner, IntLit(1), span), "next", span)
        if kind == "(":
            self.pos += 1
            inner = self.parse_ref(labels)
            self.expect(")")
            return inner
        raise _SyntaxError(start, "expected a refinement expression")


def parse(text: str) -> SourceFile:
    """Parse a `.ssn` source; raises ParseFailure listing every error found."""
    p = _Parser(text)
    file = p.parse_file()
    if p.errors:
        raise ParseFailure(p.errors)
    return file
