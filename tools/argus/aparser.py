"""Argus C++-subset parser.

Recursive-descent parser for the dialect the kernel TUs are written in:
namespaces, function templates over `<int R, bool Add, class V>`-style
parameter lists, declarations (including arrays and alignas), for/while/do/if
(+`if constexpr`)/switch/return, and the expression grammar the kernels use
(calls with explicit template arguments, member access, casts, intrinsics,
and the `std::is_same_v<A, B>` trait that value-type dispatch keys on).

The goal is *faithful structure*, not full C++: anything outside the dialect
is a parse error, which Argus reports as a TU-level violation — a kernel that
cannot be parsed cannot be proven safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from alexer import Tok, tokenize

# Words that begin a type in this dialect. Used to disambiguate declarations
# from expression statements and to accept C-style casts.
TYPE_WORDS = {
    "void", "bool", "char", "short", "int", "long", "float", "double",
    "unsigned", "signed", "auto",
    "size_t", "ssize_t", "ptrdiff_t", "uint8_t", "uint16_t", "uint32_t",
    "uint64_t", "int8_t", "int16_t", "int32_t", "int64_t",
    "Index", "Scalar",
    "__m128", "__m128d", "__m128i", "__m256", "__m256d", "__m256i",
    "__m512", "__m512d", "__m512i", "__mmask8", "__mmask16", "__mmask32",
    "__mmask64",
}
TYPE_PREFIX_WORDS = {"const", "constexpr", "static", "inline", "volatile"}


class ParseError(Exception):
    def __init__(self, line: int, msg: str):
        super().__init__(f"line {line}: {msg}")
        self.line = line


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

@dataclass
class Expr:
    line: int = 0


@dataclass
class Num(Expr):
    value: int = 0


@dataclass
class Ident(Expr):
    name: str = ""


@dataclass
class Member(Expr):
    base: Optional[Expr] = None
    name: str = ""


@dataclass
class Subscript(Expr):
    base: Optional[Expr] = None
    index: Optional[Expr] = None


@dataclass
class Call(Expr):
    fn: str = ""                      # flattened callee name, e.g. std::min
    targs: Tuple[str, ...] = ()       # textual template args, e.g. ("Add",)
    args: Tuple[Expr, ...] = ()
    method_of: Optional[Expr] = None  # receiver for obj.method(...) calls


@dataclass
class Unary(Expr):
    op: str = ""
    operand: Optional[Expr] = None
    postfix: bool = False


@dataclass
class Binary(Expr):
    op: str = ""
    lhs: Optional[Expr] = None
    rhs: Optional[Expr] = None


@dataclass
class Ternary(Expr):
    cond: Optional[Expr] = None
    then: Optional[Expr] = None
    other: Optional[Expr] = None


@dataclass
class Cast(Expr):
    ctype: str = ""
    operand: Optional[Expr] = None


@dataclass
class Sizeof(Expr):
    arg: str = ""


@dataclass
class Stmt:
    line: int = 0


@dataclass
class Block(Stmt):
    stmts: List[Stmt] = field(default_factory=list)


@dataclass
class Decl(Stmt):
    dtype: str = ""
    name: str = ""
    init: Optional[Expr] = None
    array_size: Optional[Expr] = None  # not None => array declaration
    braced_empty_init: bool = False    # `= {}` / `{}` zero init
    aligned: int = 0                   # alignas(N)


@dataclass
class Assign(Stmt):
    target: Optional[Expr] = None
    op: str = "="                      # =, +=, -=, ...
    value: Optional[Expr] = None


@dataclass
class ExprStmt(Stmt):
    expr: Optional[Expr] = None


@dataclass
class For(Stmt):
    init: Optional[Stmt] = None
    cond: Optional[Expr] = None
    step: Optional[Stmt] = None
    body: Optional[Stmt] = None


@dataclass
class While(Stmt):
    cond: Optional[Expr] = None
    body: Optional[Stmt] = None
    do_while: bool = False


@dataclass
class If(Stmt):
    cond: Optional[Expr] = None
    then: Optional[Stmt] = None
    other: Optional[Stmt] = None
    constexpr: bool = False


@dataclass
class SwitchCase:
    label: Optional[int]               # None => default
    body: List[Stmt] = field(default_factory=list)


@dataclass
class Switch(Stmt):
    expr: Optional[Expr] = None
    cases: List[SwitchCase] = field(default_factory=list)


@dataclass
class Return(Stmt):
    value: Optional[Expr] = None


@dataclass
class Jump(Stmt):
    kind: str = "break"               # break | continue


@dataclass
class Param:
    ptype: str
    name: str
    is_pointer: bool
    is_const: bool


@dataclass
class Func:
    name: str
    params: List[Param]
    body: Block
    tparams: List[Tuple[str, str]]    # (kind, name): ("int","R"),("bool","Add")
    annots: List[Tuple[int, str]]     # argus annotation comments above
    line: int = 0
    rtype: str = ""


@dataclass
class TopDecl:
    name: str
    dtype: str
    annots: List[Tuple[int, str]]
    line: int = 0


@dataclass
class TUnit:
    path: str
    funcs: List[Func] = field(default_factory=list)
    decls: List[TopDecl] = field(default_factory=list)
    annots: List[Tuple[int, str]] = field(default_factory=list)  # TU-level


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

class Parser:
    def __init__(self, toks: List[Tok], path: str = "<mem>"):
        self.toks = toks
        self.pos = 0
        self.path = path

    # -- token helpers ------------------------------------------------------
    def cur(self) -> Tok:
        return self.toks[self.pos]

    def peek(self, off: int = 1) -> Tok:
        i = min(self.pos + off, len(self.toks) - 1)
        return self.toks[i]

    def at(self, val: str) -> bool:
        t = self.cur()
        return t.val == val and t.kind in ("punct", "id")

    def accept(self, val: str) -> bool:
        if self.at(val):
            self.pos += 1
            return True
        return False

    def expect(self, val: str) -> Tok:
        t = self.cur()
        if not self.accept(val):
            raise ParseError(t.line, f"expected {val!r}, found {t.val!r}")
        return t

    def advance(self) -> Tok:
        t = self.cur()
        if t.kind != "eof":
            self.pos += 1
        return t

    def save(self) -> int:
        return self.pos

    def restore(self, mark: int) -> None:
        self.pos = mark

    def skip_annots(self) -> List[Tuple[int, str]]:
        out = []
        while self.cur().kind == "annot":
            t = self.advance()
            out.append((t.line, t.val))
        return out

    # -- translation unit ---------------------------------------------------
    def parse_tu(self) -> TUnit:
        tu = TUnit(self.path)
        self._parse_scope(tu, top=True)
        return tu

    def _parse_scope(self, tu: TUnit, top: bool) -> None:
        while True:
            pending = self.skip_annots()
            t = self.cur()
            if t.kind == "eof":
                if pending:
                    tu.annots.extend(pending)
                return
            if t.val == "}" and not top:
                if pending:
                    tu.annots.extend(pending)
                return
            if t.val == "namespace":
                self.advance()
                while self.cur().kind == "id" or self.at("::"):
                    self.advance()
                self.expect("{")
                if pending:
                    tu.annots.extend(pending)
                self._parse_scope(tu, top=False)
                self.expect("}")
                continue
            if t.val == "using":
                while not self.accept(";"):
                    if self.cur().kind == "eof":
                        raise ParseError(t.line, "unterminated using")
                    self.advance()
                continue
            tparams: List[Tuple[str, str]] = []
            if t.val == "template":
                self.advance()
                self.expect("<")
                while not self.accept(">"):
                    kind = self.advance().val
                    name = self.advance().val
                    tparams.append((kind, name))
                    self.accept(",")
            self._parse_top_entity(tu, tparams, pending)

    def _parse_top_entity(self, tu: TUnit, tparams, annots) -> None:
        start_line = self.cur().line
        dtype, align = self._parse_type()
        name = self._parse_qualified_name()
        if self.at("("):
            params = self._parse_params()
            if self.accept(";"):
                return  # forward declaration
            body = self._parse_block()
            tu.funcs.append(Func(name=name, params=params, body=body,
                                 tparams=tparams, annots=annots,
                                 line=start_line, rtype=dtype))
            return
        # Top-level variable (e.g. `constexpr auto kOffsets = ...;`).
        depth = 0
        while True:
            t = self.cur()
            if t.kind == "eof":
                raise ParseError(start_line, f"unterminated declaration {name}")
            if t.val in "([{":
                depth += 1
            elif t.val in ")]}":
                depth -= 1
            elif t.val == ";" and depth == 0:
                self.advance()
                break
            self.advance()
        tu.decls.append(TopDecl(name=name, dtype=dtype, annots=annots,
                                line=start_line))

    # -- types --------------------------------------------------------------
    def _looks_like_type(self) -> bool:
        t = self.cur()
        if t.kind != "id":
            return False
        if t.val in TYPE_PREFIX_WORDS or t.val in TYPE_WORDS or \
                t.val == "alignas":
            return True
        # Uppercase-initial identifiers (view structs, std:: types).
        if t.val == "std" and self.peek().val == "::":
            return True
        return t.val[0].isupper()

    def _parse_type(self) -> Tuple[str, int]:
        """Consume a type; returns (flattened type string, alignas bytes)."""
        parts: List[str] = []
        align = 0
        while True:
            t = self.cur()
            if t.val == "alignas":
                self.advance()
                self.expect("(")
                a = self.advance()
                align = int(a.val, 0) if a.kind == "num" else 0
                self.expect(")")
                continue
            if t.val in TYPE_PREFIX_WORDS:
                parts.append(self.advance().val)
                continue
            break
        parts.append(self._parse_type_name())
        while True:
            t = self.cur()
            if t.val in ("*", "&"):
                parts.append(self.advance().val)
            elif t.val in ("const", "__restrict", "__restrict__", "restrict"):
                parts.append(self.advance().val)
            else:
                break
        return " ".join(parts), align

    def _parse_type_name(self) -> str:
        t = self.cur()
        if t.kind != "id":
            raise ParseError(t.line, f"expected type name, found {t.val!r}")
        name = self.advance().val
        if name in ("unsigned", "signed", "long", "short"):
            while self.cur().val in ("int", "long", "short", "char"):
                name += " " + self.advance().val
        while self.at("::"):
            self.advance()
            name += "::" + self.advance().val
        if self.at("<"):
            name += self._consume_template_args_text()
        return name

    def _consume_template_args_text(self) -> str:
        """Consume a balanced `<...>` and return its text."""
        line = self.cur().line
        self.expect("<")
        depth = 1
        parts = ["<"]
        while depth > 0:
            t = self.cur()
            if t.kind == "eof":
                raise ParseError(line, "unterminated template args")
            if t.val == "<":
                depth += 1
            elif t.val == ">":
                depth -= 1
            elif t.val == ">>":
                depth -= 2
            parts.append(self.advance().val)
        return " ".join(parts)

    def _parse_qualified_name(self) -> str:
        t = self.cur()
        if t.kind != "id":
            raise ParseError(t.line, f"expected name, found {t.val!r}")
        name = self.advance().val
        while self.at("::"):
            self.advance()
            name += "::" + self.advance().val
        return name

    def _parse_params(self) -> List[Param]:
        self.expect("(")
        params: List[Param] = []
        if self.accept(")"):
            return params
        while True:
            ptype, _align = self._parse_type()
            pname = ""
            if self.cur().kind == "id":
                pname = self.advance().val
            params.append(Param(
                ptype=ptype, name=pname,
                is_pointer="*" in ptype,
                is_const=ptype.startswith("const ") or " const" in ptype))
            if self.accept(")"):
                return params
            self.expect(",")

    # -- statements ---------------------------------------------------------
    def _parse_block(self) -> Block:
        lbrace = self.expect("{")
        blk = Block(line=lbrace.line)
        while not self.accept("}"):
            if self.cur().kind == "eof":
                raise ParseError(lbrace.line, "unterminated block")
            blk.stmts.append(self._parse_stmt())
        return blk

    def _parse_stmt(self) -> Stmt:
        self.skip_annots()  # statement-level annotations are not used yet
        t = self.cur()
        if t.val == "{":
            return self._parse_block()
        if t.val == "if":
            self.advance()
            cexpr = bool(self.accept("constexpr"))
            self.expect("(")
            cond = self._parse_expr()
            self.expect(")")
            then = self._parse_stmt()
            other = self._parse_stmt() if self.accept("else") else None
            return If(line=t.line, cond=cond, then=then, other=other,
                      constexpr=cexpr)
        if t.val == "for":
            self.advance()
            self.expect("(")
            init: Optional[Stmt] = None
            if not self.accept(";"):
                init = self._parse_decl_or_assign()
                self.expect(";")
            cond = None
            if not self.at(";"):
                cond = self._parse_expr()
            self.expect(";")
            step = None
            if not self.at(")"):
                step = self._parse_assign_stmt_nosemi()
            self.expect(")")
            body = self._parse_stmt()
            return For(line=t.line, init=init, cond=cond, step=step, body=body)
        if t.val == "while":
            self.advance()
            self.expect("(")
            cond = self._parse_expr()
            self.expect(")")
            return While(line=t.line, cond=cond, body=self._parse_stmt())
        if t.val == "do":
            self.advance()
            body = self._parse_stmt()
            self.expect("while")
            self.expect("(")
            cond = self._parse_expr()
            self.expect(")")
            self.expect(";")
            return While(line=t.line, cond=cond, body=body, do_while=True)
        if t.val == "switch":
            self.advance()
            self.expect("(")
            expr = self._parse_expr()
            self.expect(")")
            self.expect("{")
            sw = Switch(line=t.line, expr=expr)
            cur_case: Optional[SwitchCase] = None
            while not self.accept("}"):
                if self.accept("case"):
                    v = self._parse_expr()
                    self.expect(":")
                    if not isinstance(v, Num):
                        raise ParseError(t.line, "non-constant case label")
                    cur_case = SwitchCase(label=v.value)
                    sw.cases.append(cur_case)
                    continue
                if self.accept("default"):
                    self.expect(":")
                    cur_case = SwitchCase(label=None)
                    sw.cases.append(cur_case)
                    continue
                if cur_case is None:
                    raise ParseError(self.cur().line,
                                     "statement before first case label")
                cur_case.body.append(self._parse_stmt())
            return sw
        if t.val == "return":
            self.advance()
            val = None if self.at(";") else self._parse_expr()
            self.expect(";")
            return Return(line=t.line, value=val)
        if t.val == "break":
            self.advance()
            self.expect(";")
            return Jump(line=t.line, kind="break")
        if t.val == "continue":
            self.advance()
            self.expect(";")
            return Jump(line=t.line, kind="continue")
        stmt = self._parse_decl_or_assign()
        self.expect(";")
        return stmt

    def _parse_decl_or_assign(self) -> Stmt:
        mark = self.save()
        if self._looks_like_type():
            try:
                return self._parse_decl()
            except ParseError:
                self.restore(mark)
        return self._parse_assign_stmt_nosemi()

    def _parse_decl(self) -> Stmt:
        line = self.cur().line
        dtype, align = self._parse_type()
        decls: List[Decl] = []
        while True:
            t = self.cur()
            if t.kind != "id":
                raise ParseError(t.line, "expected declarator name")
            name = self.advance().val
            array_size: Optional[Expr] = None
            if self.accept("["):
                array_size = None if self.at("]") else self._parse_expr()
                self.expect("]")
            init: Optional[Expr] = None
            braced_empty = False
            if self.accept("="):
                if self.accept("{"):
                    if not self.accept("}"):
                        raise ParseError(line, "non-empty braced initializer")
                    braced_empty = True
                else:
                    init = self._parse_expr()
            elif self.accept("{"):
                if not self.accept("}"):
                    raise ParseError(line, "non-empty braced initializer")
                braced_empty = True
            decls.append(Decl(line=line, dtype=dtype, name=name, init=init,
                              array_size=array_size,
                              braced_empty_init=braced_empty, aligned=align))
            if not self.accept(","):
                break
        if not self.at(";") and not self.at(")"):
            raise ParseError(line, f"unexpected token {self.cur().val!r} "
                             "after declarator")
        return decls[0] if len(decls) == 1 else Block(line=line, stmts=decls)

    def _parse_assign_stmt_nosemi(self) -> Stmt:
        line = self.cur().line
        target = self._parse_expr()
        t = self.cur()
        if t.val in ("=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
                     "<<=", ">>="):
            op = self.advance().val
            value = self._parse_expr()
            return Assign(line=line, target=target, op=op, value=value)
        return ExprStmt(line=line, expr=target)

    # -- expressions --------------------------------------------------------
    _BINOPS = [  # (ops, ) from lowest to highest precedence
        ("||",), ("&&",), ("|",), ("^",), ("&",), ("==", "!="),
        ("<", ">", "<=", ">="), ("<<", ">>"), ("+", "-"), ("*", "/", "%"),
    ]

    def _parse_expr(self) -> Expr:
        return self._parse_ternary()

    def _parse_ternary(self) -> Expr:
        cond = self._parse_binary(0)
        if self.accept("?"):
            then = self._parse_expr()
            self.expect(":")
            other = self._parse_ternary()
            return Ternary(line=cond.line, cond=cond, then=then, other=other)
        return cond

    def _parse_binary(self, level: int) -> Expr:
        if level >= len(self._BINOPS):
            return self._parse_unary()
        lhs = self._parse_binary(level + 1)
        ops = self._BINOPS[level]
        while True:
            t = self.cur()
            if t.val in ops and t.kind == "punct":
                # Don't eat `>` that closes a template arg list: callers that
                # parse template args consume them before expressions.
                self.advance()
                rhs = self._parse_binary(level + 1)
                lhs = Binary(line=t.line, op=t.val, lhs=lhs, rhs=rhs)
            else:
                return lhs

    def _parse_unary(self) -> Expr:
        t = self.cur()
        if t.val in ("-", "+", "!", "~", "*", "&", "++", "--") and \
                t.kind == "punct":
            self.advance()
            operand = self._parse_unary()
            return Unary(line=t.line, op=t.val, operand=operand)
        if t.val == "(" and self._cast_ahead():
            self.advance()
            ctype, _align = self._parse_type()
            self.expect(")")
            operand = self._parse_unary()
            return Cast(line=t.line, ctype=ctype, operand=operand)
        return self._parse_postfix()

    def _cast_ahead(self) -> bool:
        """At '(': is this a C-style cast `(type) expr`?"""
        mark = self.save()
        try:
            self.advance()
            if not self._looks_like_type():
                return False
            self._parse_type()
            if not self.at(")"):
                return False
            self.advance()
            nxt = self.cur()
            return nxt.kind in ("id", "num") or nxt.val in ("(", "-", "~",
                                                            "!", "*", "&")
        except ParseError:
            return False
        finally:
            self.restore(mark)

    def _parse_postfix(self) -> Expr:
        e = self._parse_primary()
        while True:
            t = self.cur()
            if t.val == "[":
                self.advance()
                idx = self._parse_expr()
                self.expect("]")
                e = Subscript(line=t.line, base=e, index=idx)
            elif t.val in (".", "->"):
                self.advance()
                name = self.advance().val
                targs: Tuple[str, ...] = ()
                if self.at("<") and self._template_call_ahead():
                    targs = self._parse_template_args()
                if self.at("("):
                    args = self._parse_call_args()
                    e = Call(line=t.line, fn=name, targs=targs, args=args,
                             method_of=e)
                else:
                    e = Member(line=t.line, base=e, name=name)
            elif t.val in ("++", "--"):
                self.advance()
                e = Unary(line=t.line, op=t.val, operand=e, postfix=True)
            else:
                return e

    def _parse_primary(self) -> Expr:
        t = self.cur()
        if t.kind == "num":
            return Num(line=self.advance().line, value=_parse_int(t.val))
        if t.val == "(":
            self.advance()
            e = self._parse_expr()
            self.expect(")")
            return e
        if t.val in ("true", "false"):
            self.advance()
            return Num(line=t.line, value=1 if t.val == "true" else 0)
        if t.val == "nullptr":
            self.advance()
            return Num(line=t.line, value=0)
        if t.val == "sizeof":
            self.advance()
            self.expect("(")
            arg = self._parse_qualified_name() if self.cur().kind == "id" \
                else self.advance().val
            self.expect(")")
            return Sizeof(line=t.line, arg=arg)
        if t.val in ("static_cast", "reinterpret_cast", "const_cast"):
            self.advance()
            self.expect("<")
            ctype, _a = self._parse_type()
            self.expect(">")
            self.expect("(")
            operand = self._parse_expr()
            self.expect(")")
            return Cast(line=t.line, ctype=ctype, operand=operand)
        if t.kind == "id":
            name = self._parse_qualified_name()
            targs: Tuple[str, ...] = ()
            if name == "std::is_same_v":
                # Type trait: a nullary "call" whose template arguments are
                # the two types compared.
                return Call(line=t.line, fn=name,
                            targs=self._parse_template_args())
            if self.at("<") and self._template_call_ahead():
                targs = self._parse_template_args()
            if self.at("("):
                args = self._parse_call_args()
                return Call(line=t.line, fn=name, targs=targs, args=args)
            return Ident(line=t.line, name=name)
        raise ParseError(t.line, f"unexpected token {t.val!r} in expression")

    def _template_call_ahead(self) -> bool:
        """At '<' after a name: is this `<args...>(` (an explicit template
        call) rather than a less-than comparison?"""
        mark = self.save()
        try:
            self.advance()
            depth = 1
            steps = 0
            while depth > 0 and steps < 40:
                t = self.cur()
                if t.kind == "eof" or t.val in (";", "{", "}"):
                    return False
                if t.val == "<":
                    depth += 1
                elif t.val == ">":
                    depth -= 1
                elif t.val == ">>":
                    depth -= 2
                self.advance()
                steps += 1
            return depth <= 0 and self.at("(")
        finally:
            self.restore(mark)

    def _parse_template_args(self) -> Tuple[str, ...]:
        self.expect("<")
        args: List[str] = []
        cur: List[str] = []
        depth = 1
        while depth > 0:
            t = self.advance()
            if t.val == "<":
                depth += 1
            elif t.val in (">", ">>"):
                depth -= 1 if t.val == ">" else 2
                if depth <= 0:
                    break
            elif t.val == "," and depth == 1:
                args.append(" ".join(cur))
                cur = []
                continue
            cur.append(t.val)
        if cur:
            args.append(" ".join(cur))
        return tuple(args)

    def _parse_call_args(self) -> Tuple[Expr, ...]:
        self.expect("(")
        args: List[Expr] = []
        if self.accept(")"):
            return tuple(args)
        while True:
            args.append(self._parse_expr())
            if self.accept(")"):
                return tuple(args)
            self.expect(",")


def _parse_int(text: str) -> int:
    t = text.replace("'", "")
    if t[:2].lower() == "0x":
        body = t[2:]
        while body and body[-1] in "uUlL" and \
                not all(c in "0123456789abcdefABCDEF" for c in body):
            body = body[:-1]
        # Hex digits and u/l suffixes overlap on f/F; strip only letters that
        # leave a valid hex numeral behind.
        while body and not all(c in "0123456789abcdefABCDEF" for c in body):
            body = body[:-1]
        return int(body, 16)
    t = t.rstrip("uUlLfF")
    if "." in t or "e" in t or "E" in t:
        # Float literal: kernels only use them as data values; keep int domain.
        return int(float(t))
    return int(t, 0)


def parse_file(path: str) -> TUnit:
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    return Parser(tokenize(text), path).parse_tu()
