"""Lexer and recursive-descent parser for the extended SMV dialect.

Ordinary SMV keywords are case-insensitive.  The three special markers
are matched exactly as spelled: the ``--controllable`` annotation after
a VAR keyword, and the ``SYS_AUTOMATON_SPEC`` / ``ENV_AUTOMATON_SPEC``
section headers whose entries are automaton file paths terminated by
``;`` and optionally preceded by ``!``.  Both ``--`` and ``//`` start
line comments.  Arithmetic operators are rejected outright.
"""

from __future__ import annotations

from .ast import (
    AssignDecl, AutomatonRef, Binary, BOOL, BoolLit, BoolType, Case,
    DefineDecl, EnumType, Expr, InstanceType, IntLit, Name, RangeType,
    SmvModule, SmvSpec, SmvSyntaxError, Unary, VarDecl,
)

KEYWORDS = {
    "MODULE", "VAR", "DEFINE", "ASSIGN", "INIT", "NEXT", "CASE", "ESAC",
    "TRUE", "FALSE", "BOOLEAN", "XOR",
}

SECTION_MARKERS = {"SYS_AUTOMATON_SPEC", "ENV_AUTOMATON_SPEC"}

_PUNCT = [
    ":=", "..", "<->", "->", "<=", ">=", "!=", "(", ")", "{", "}", ",",
    ";", ":", "=", "<", ">", "&", "|", "!", "-", "+", "*", "/",
]


class Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col

    def __repr__(self) -> str:
        return f"Token({self.kind}, {self.text!r}, {self.line}:{self.col})"


class Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1
        self._peeked: Token | None = None

    def _error(self, msg: str) -> SmvSyntaxError:
        return SmvSyntaxError(msg, self.line, self.col)

    def _advance(self, n: int) -> None:
        for ch in self.text[self.pos:self.pos + n]:
            if ch == "\n":
                self.line += 1
                self.col = 1
            else:
                self.col += 1
        self.pos += n

    def _skip_space_and_comments(self) -> str | None:
        """Skip whitespace/comments; returns 'controllable' on that marker."""
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch in " \t\r\n":
                self._advance(1)
                continue
            if self.text.startswith("//", self.pos):
                eol = self.text.find("\n", self.pos)
                self._advance((eol if eol >= 0 else len(self.text)) - self.pos)
                continue
            if self.text.startswith("--", self.pos):
                rest = self.text[self.pos + 2:]
                if rest.startswith("controllable") and not (
                        len(rest) > len("controllable")
                        and (rest[len("controllable")].isalnum() or rest[len("controllable")] == "_")):
                    self._advance(2 + len("controllable"))
                    return "controllable"
                eol = self.text.find("\n", self.pos)
                self._advance((eol if eol >= 0 else len(self.text)) - self.pos)
                continue
            break
        return None

    def peek(self) -> Token:
        if self._peeked is None:
            self._peeked = self._lex()
        return self._peeked

    def next(self) -> Token:
        tok = self.peek()
        self._peeked = None
        return tok

    def _lex(self) -> Token:
        mark = self._skip_space_and_comments()
        line, col = self.line, self.col
        if mark == "controllable":
            return Token("CONTROLLABLE", "--controllable", line, col)
        if self.pos >= len(self.text):
            return Token("EOF", "", line, col)
        ch = self.text[self.pos]
        if ch.isdigit():
            end = self.pos
            while end < len(self.text) and self.text[end].isdigit():
                end += 1
            text = self.text[self.pos:end]
            self._advance(end - self.pos)
            return Token("NUMBER", text, line, col)
        if ch.isalpha() or ch == "_":
            end = self.pos
            while end < len(self.text) and (self.text[end].isalnum() or self.text[end] == "_"):
                end += 1
            text = self.text[self.pos:end]
            self._advance(end - self.pos)
            if text in SECTION_MARKERS:
                return Token("MARKER", text, line, col)
            if text.upper() in KEYWORDS:
                return Token("KEYWORD", text.upper(), line, col)
            return Token("IDENT", text, line, col)
        if ch == ".":
            # distinguish member access from the range operator
            if self.text.startswith("..", self.pos):
                self._advance(2)
                return Token("PUNCT", "..", line, col)
            self._advance(1)
            return Token("PUNCT", ".", line, col)
        for p in _PUNCT:
            if self.text.startswith(p, self.pos):
                self._advance(len(p))
                return Token("PUNCT", p, line, col)
        raise self._error(f"unexpected character {ch!r}")

    def path_entry(self) -> tuple[str, bool] | None:
        """Read one automaton entry in a SYS/ENV section, or None at its end.

        An entry is ``[!] path ;`` where the path runs to the first
        whitespace or ``;``.  The section ends at the next keyword that
        can open a section or module, or at end of file.
        """
        if self._peeked is not None:
            raise SmvSyntaxError("internal: token lookahead across path mode")
        self._skip_space_and_comments()
        if self.pos >= len(self.text):
            return None
        rest = self.text[self.pos:]
        word_end = 0
        while word_end < len(rest) and (rest[word_end].isalnum() or rest[word_end] == "_"):
            word_end += 1
        word = rest[:word_end]
        if word in SECTION_MARKERS or word.upper() in (
                "MODULE", "VAR", "DEFINE", "ASSIGN"):
            return None
        line, col = self.line, self.col
        negated = False
        if self.text[self.pos] == "!":
            negated = True
            self._advance(1)
            self._skip_space_and_comments()
        if self.pos >= len(self.text):
            raise SmvSyntaxError("automaton entry after '!' is missing", line, col)
        end = self.pos
        while end < len(self.text) and self.text[end] not in " \t\r\n;":
            end += 1
        path = self.text[self.pos:end]
        if not path:
            raise SmvSyntaxError("empty automaton path", line, col)
        self._advance(end - self.pos)
        self._skip_space_and_comments()
        if self.pos >= len(self.text) or self.text[self.pos] != ";":
            raise SmvSyntaxError("automaton entry must end with ';'", self.line, self.col)
        self._advance(1)
        return path, negated


class Parser:
    def __init__(self, text: str):
        self.lx = Lexer(text)

    # token helpers ----------------------------------------------------

    def _peek(self) -> Token:
        return self.lx.peek()

    def _next(self) -> Token:
        return self.lx.next()

    def _error(self, msg: str, tok: Token) -> SmvSyntaxError:
        return SmvSyntaxError(msg, tok.line, tok.col)

    def _expect_punct(self, text: str) -> Token:
        tok = self._next()
        if tok.kind != "PUNCT" or tok.text != text:
            raise self._error(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def _expect_keyword(self, kw: str) -> Token:
        tok = self._next()
        if tok.kind != "KEYWORD" or tok.text != kw:
            raise self._error(f"expected {kw}, found {tok.text!r}", tok)
        return tok

    def _expect_ident(self, what: str) -> Token:
        tok = self._next()
        if tok.kind != "IDENT":
            raise self._error(f"expected {what}, found {tok.text!r}", tok)
        return tok

    def _at_punct(self, text: str) -> bool:
        tok = self._peek()
        return tok.kind == "PUNCT" and tok.text == text

    def _comma_list(self, parse_item) -> list:
        """One or more items separated by ','."""
        items = [parse_item()]
        while self._at_punct(","):
            self._next()
            items.append(parse_item())
        return items

    # grammar ----------------------------------------------------------

    def parse_spec(self) -> SmvSpec:
        modules: list[SmvModule] = []
        tok = self._peek()
        while tok.kind != "EOF":
            if tok.kind == "KEYWORD" and tok.text == "MODULE":
                modules.append(self._parse_module())
            else:
                raise self._error(f"expected MODULE, found {tok.text!r}", tok)
            tok = self._peek()
        if not modules:
            raise SmvSyntaxError("empty specification: no modules")
        seen: set[str] = set()
        for m in modules:
            if m.name in seen:
                raise SmvSyntaxError(f"duplicate module name {m.name!r}", m.line)
            seen.add(m.name)
        if "main" not in seen:
            raise SmvSyntaxError("no module named 'main'")
        for m in modules:
            if m.name != "main":
                if any(v.controllable for v in m.vars):
                    raise SmvSyntaxError(
                        f"controllable mark outside main (module {m.name!r})", m.line)
                if m.sys_automata or m.env_automata:
                    raise SmvSyntaxError(
                        f"automaton sections outside main (module {m.name!r})", m.line)
        return SmvSpec(modules=modules)

    def _parse_module(self) -> SmvModule:
        head = self._expect_keyword("MODULE")
        name = self._expect_ident("module name").text
        params: list[str] = []
        if self._at_punct("("):
            self._next()
            if not self._at_punct(")"):
                params = self._comma_list(
                    lambda: self._expect_ident("parameter name").text)
            self._expect_punct(")")
        module = SmvModule(name=name, params=tuple(params), line=head.line)
        while True:
            tok = self._peek()
            if tok.kind == "EOF" or (tok.kind == "KEYWORD" and tok.text == "MODULE"):
                break
            if tok.kind == "KEYWORD" and tok.text == "VAR":
                self._next()
                controllable = False
                if self._peek().kind == "CONTROLLABLE":
                    self._next()
                    controllable = True
                self._parse_var_section(module, controllable)
            elif tok.kind == "KEYWORD" and tok.text == "DEFINE":
                self._next()
                self._parse_define_section(module)
            elif tok.kind == "KEYWORD" and tok.text == "ASSIGN":
                self._next()
                self._parse_assign_section(module)
            elif tok.kind == "MARKER":
                self._next()
                refs = module.sys_automata if tok.text == "SYS_AUTOMATON_SPEC" \
                    else module.env_automata
                while True:
                    entry = self.lx.path_entry()
                    if entry is None:
                        break
                    path, negated = entry
                    refs.append(AutomatonRef(path=path, negated=negated, line=tok.line))
            else:
                raise self._error(f"expected a section keyword, found {tok.text!r}", tok)
        return module

    def _section_done(self) -> bool:
        tok = self._peek()
        if tok.kind in ("EOF", "MARKER", "CONTROLLABLE"):
            return True
        return tok.kind == "KEYWORD" and tok.text in (
            "MODULE", "VAR", "DEFINE", "ASSIGN")

    def _parse_var_section(self, module: SmvModule, controllable: bool) -> None:
        while not self._section_done():
            name_tok = self._expect_ident("variable name")
            self._expect_punct(":")
            vtype = self._parse_type()
            self._expect_punct(";")
            if controllable and not isinstance(vtype, BoolType):
                raise self._error(
                    f"controllable variable {name_tok.text!r}: only boolean is allowed",
                    name_tok)
            module.vars.append(VarDecl(name=name_tok.text, type=vtype,
                                       controllable=controllable,
                                       line=name_tok.line))

    def _parse_type(self):
        tok = self._next()
        if tok.kind == "KEYWORD" and tok.text == "BOOLEAN":
            return BOOL
        if tok.kind == "NUMBER" or (tok.kind == "PUNCT" and tok.text == "-"):
            lo = self._finish_signed_number(tok)
            self._expect_punct("..")
            hi_tok = self._next()
            hi = self._finish_signed_number(hi_tok)
            if lo > hi:
                raise self._error(f"empty range {lo}..{hi}", tok)
            return RangeType(lo, hi)
        if tok.kind == "PUNCT" and tok.text == "{":
            symbols = self._comma_list(
                lambda: self._expect_ident("enum symbol").text)
            self._expect_punct("}")
            if len(set(symbols)) != len(symbols):
                raise self._error("duplicate enum symbol", tok)
            return EnumType(tuple(symbols))
        if tok.kind == "IDENT":
            actuals: list[Expr] = []
            if self._at_punct("("):
                self._next()
                if not self._at_punct(")"):
                    actuals = self._comma_list(self._parse_expr)
                self._expect_punct(")")
            return InstanceType(module=tok.text, actuals=tuple(actuals))
        raise self._error(f"expected a type, found {tok.text!r}", tok)

    def _finish_signed_number(self, tok: Token) -> int:
        if tok.kind == "PUNCT" and tok.text == "-":
            num = self._next()
            if num.kind != "NUMBER":
                raise self._error("expected a number after '-'", num)
            return -int(num.text)
        if tok.kind != "NUMBER":
            raise self._error(f"expected a number, found {tok.text!r}", tok)
        return int(tok.text)

    def _parse_define_section(self, module: SmvModule) -> None:
        while not self._section_done():
            name_tok = self._expect_ident("define name")
            self._expect_punct(":=")
            expr = self._parse_expr()
            self._expect_punct(";")
            module.defines.append(DefineDecl(name=name_tok.text, expr=expr,
                                             line=name_tok.line))

    def _parse_assign_section(self, module: SmvModule) -> None:
        while not self._section_done():
            tok = self._next()
            if tok.kind != "KEYWORD" or tok.text not in ("INIT", "NEXT"):
                raise self._error(
                    f"expected init(...) or next(...), found {tok.text!r}", tok)
            kind = tok.text.lower()
            self._expect_punct("(")
            target = self._expect_ident("assignment target").text
            self._expect_punct(")")
            self._expect_punct(":=")
            expr = self._parse_expr()
            self._expect_punct(";")
            module.assigns.append(AssignDecl(kind=kind, target=target, expr=expr,
                                             line=tok.line))

    # expressions, loosest to tightest binding -------------------------

    def _parse_expr(self) -> Expr:
        return self._parse_iff()

    def _parse_iff(self) -> Expr:
        left = self._parse_implies()
        while self._at_punct("<->"):
            tok = self._next()
            right = self._parse_implies()
            left = Binary("<->", left, right, line=tok.line)
        return left

    def _parse_implies(self) -> Expr:
        left = self._parse_left_assoc(0)
        if self._at_punct("->"):
            tok = self._next()
            right = self._parse_implies()  # right associative
            return Binary("->", left, right, line=tok.line)
        return left

    # the left-associative levels, loosest first: (token kind, text, operator)
    _LEFT_ASSOC = (("PUNCT", "|", "|"), ("KEYWORD", "XOR", "xor"),
                   ("PUNCT", "&", "&"))

    def _parse_left_assoc(self, depth: int) -> Expr:
        """An expression of ``_LEFT_ASSOC[depth]`` or a tighter level."""
        if depth == len(self._LEFT_ASSOC):
            return self._parse_comparison()
        kind, text, op = self._LEFT_ASSOC[depth]
        left = self._parse_left_assoc(depth + 1)
        while (tok := self._peek()).kind == kind and tok.text == text:
            self._next()
            left = Binary(op, left, self._parse_left_assoc(depth + 1),
                          line=tok.line)
        return left

    _CMP_OPS = ("=", "!=", "<=", ">=", "<", ">")

    def _parse_comparison(self) -> Expr:
        left = self._parse_unary()
        self._reject_arith()
        tok = self._peek()
        if tok.kind == "PUNCT" and tok.text in self._CMP_OPS:
            self._next()
            right = self._parse_unary()
            self._reject_arith()
            return Binary(tok.text, left, right, line=tok.line)
        return left

    def _reject_arith(self) -> None:
        tok = self._peek()
        if tok.kind == "PUNCT" and tok.text in ("+", "-", "*", "/"):
            raise self._error(f"arithmetic operator {tok.text!r} is not supported", tok)

    def _parse_unary(self) -> Expr:
        tok = self._peek()
        if tok.kind == "PUNCT" and tok.text == "!":
            self._next()
            return Unary("!", self._parse_unary(), line=tok.line)
        if tok.kind == "PUNCT" and tok.text == "-":
            self._next()
            num = self._next()
            if num.kind != "NUMBER":
                raise self._error("expected a number after unary '-'", num)
            return IntLit(-int(num.text), line=num.line)
        return self._parse_atom()

    def _parse_atom(self) -> Expr:
        tok = self._next()
        if tok.kind == "PUNCT" and tok.text in ("+", "*", "/"):
            raise self._error(f"arithmetic operator {tok.text!r} is not supported", tok)
        if tok.kind == "NUMBER":
            return IntLit(int(tok.text), line=tok.line)
        if tok.kind == "KEYWORD" and tok.text == "TRUE":
            return BoolLit(True, line=tok.line)
        if tok.kind == "KEYWORD" and tok.text == "FALSE":
            return BoolLit(False, line=tok.line)
        if tok.kind == "KEYWORD" and tok.text == "CASE":
            branches: list[tuple[Expr, Expr]] = []
            while True:
                nxt = self._peek()
                if nxt.kind == "KEYWORD" and nxt.text == "ESAC":
                    self._next()
                    break
                cond = self._parse_expr()
                self._expect_punct(":")
                value = self._parse_expr()
                self._expect_punct(";")
                branches.append((cond, value))
            if not branches:
                raise self._error("empty case expression", tok)
            return Case(tuple(branches), line=tok.line)
        if tok.kind == "PUNCT" and tok.text == "(":
            inner = self._parse_expr()
            self._expect_punct(")")
            return inner
        if tok.kind == "IDENT":
            parts = [tok.text]
            while self._at_punct("."):
                self._next()
                parts.append(self._expect_ident("member name").text)
            return Name(tuple(parts), line=tok.line)
        raise self._error(f"unexpected token {tok.text!r} in expression", tok)


def parse_smv(text: str) -> SmvSpec:
    """Parse extended-SMV source text into an AST."""
    return Parser(text).parse_spec()
