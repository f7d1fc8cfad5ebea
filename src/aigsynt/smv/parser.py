"""Lexer and recursive-descent parser for the extended SMV dialect.

Lexical rules, all in the pattern ``_TOKEN``:

* Space is `` ``, tab, carriage return and newline.  ``//`` and ``--``
  start comments that run to the end of the line, except that
  ``--controllable`` not followed by a letter, digit or ``_`` is the
  controllable marker, which may only follow a VAR keyword.
* A number is a run of decimal digits, the ones ``int()`` reads (``٣``
  is 3; ``²`` is an unexpected character).  Arithmetic operators are
  rejected outright.
* An identifier is a letter or ``_`` followed by letters, digits and
  ``_``.  Ordinary SMV keywords are case-insensitive in ASCII only
  (``aſſıgn`` is an identifier, though ``str.upper`` makes it
  ``ASSIGN``); the section headers ``SYS_AUTOMATON_SPEC`` /
  ``ENV_AUTOMATON_SPEC`` are matched exactly as spelled.  Their
  entries are automaton file paths, each running to the next space or
  ``;``, terminated by ``;`` and optionally preceded by ``!``.
* A column counts characters from 1, so a tab is one column.
"""

from __future__ import annotations

import re
from typing import NamedTuple

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

# the keywords that end a section, the automaton sections included
SECTION_KEYWORDS = ("MODULE", "VAR", "DEFINE", "ASSIGN")


def _ascii_upper(text: str) -> str:
    """``text`` in upper case if it is ASCII, else as it is, so that no
    non-ASCII identifier reads as a keyword."""
    return text.upper() if text.isascii() else text


# space and comments, then one token; no kind matches at a character
# that starts no token.  \d and \w are Unicode-aware: \d is what int()
# reads and \w what str.isalnum() accepts, plus "_".
_TOKEN = re.compile(r"""
    (?: [ \t\r\n] | //.* | --(?!controllable(?!\w)).* )*
    (?: (?P<CONTROLLABLE> --controllable )
      | (?P<NUMBER> \d+ )
      | (?P<IDENT> [^\W\d]\w* )
      | (?P<PUNCT> := | \.\. | <-> | -> | <= | >= | != | [(){},;:=<>&|!+*/.-] )
      | (?P<EOF> \Z ) )?
""", re.VERBOSE)

# an automaton path runs to the next space or ';'
_PATH = re.compile(r"[^ \t\r\n;]*")


class Token(NamedTuple):
    kind: str
    text: str
    line: int
    col: int


class Lexer:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0  # the end of the last token read
        self.line = 1  # the line of pos
        self.line_start = 0  # where that line starts
        self._peeked: Token | None = None

    def _scan(self) -> tuple[re.Match, str | None, int]:
        """The match of the next token, its kind and where it starts.

        At a character that starts no token the kind is None, and the
        token starts at that character.
        """
        m = _TOKEN.match(self.text, self.pos)
        kind = m.lastgroup
        return m, kind, m.start(kind) if kind else m.end()

    def _locate(self, pos: int) -> tuple[int, int]:
        """Move to ``pos``, and return its line and column."""
        newlines = self.text.count("\n", self.pos, pos)
        if newlines:
            self.line += newlines
            self.line_start = self.text.rindex("\n", self.pos, pos) + 1
        self.pos = pos
        return self.line, pos - self.line_start + 1

    def peek(self) -> Token:
        if self._peeked is None:
            self._peeked = self._lex()
        return self._peeked

    def next(self) -> Token:
        tok = self.peek()
        self._peeked = None
        return tok

    def _lex(self) -> Token:
        m, kind, start = self._scan()
        line, col = self._locate(start)
        text = m[kind] if kind else self.text[start]
        # [^\W\d] also matches numerals that are not decimal, such as ²
        if kind is None or kind == "IDENT" and not (
                text[0].isalpha() or text[0] == "_"):
            raise SmvSyntaxError(f"unexpected character {text[0]!r}", line, col)
        self.pos = m.end()
        if kind == "IDENT" and text in SECTION_MARKERS:
            kind = "MARKER"
        elif kind == "IDENT" and _ascii_upper(text) in KEYWORDS:
            kind, text = "KEYWORD", text.upper()
        return Token(kind, text, line, col)

    def path_entry(self) -> tuple[str, bool, int] | None:
        """Read one automaton entry in a SYS/ENV section, or None at its end.

        An entry is ``[!] path ;``; the result is its path, whether it
        is negated and the line it starts on.  The section ends where
        any section does: at a keyword that opens a section or module,
        at the controllable marker, or at end of file.
        """
        if self._peeked is not None:
            raise SmvSyntaxError("internal: token lookahead across path mode")
        m, kind, start = self._scan()
        if kind in ("EOF", "CONTROLLABLE") or kind == "IDENT" and (
                m[kind] in SECTION_MARKERS
                or _ascii_upper(m[kind]) in SECTION_KEYWORDS):
            return None
        line, col = self._locate(start)
        negated = kind == "PUNCT" and m[kind] == "!"
        if negated:
            self.pos = m.end()
            m, kind, start = self._scan()
            if kind == "EOF":
                raise SmvSyntaxError("automaton entry after '!' is missing", line, col)
        end = _PATH.match(self.text, start).end()
        if end == start:
            raise SmvSyntaxError("empty automaton path", line, col)
        path = self.text[start:end]
        self._locate(end)
        m, kind, start = self._scan()
        if kind != "PUNCT" or m[kind] != ";":
            raise SmvSyntaxError("automaton entry must end with ';'",
                                 *self._locate(start))
        self.pos = m.end()
        return path, negated, line


class Parser:
    def __init__(self, text: str):
        self.lx = Lexer(text)

    # token helpers ----------------------------------------------------

    def _error(self, msg: str, tok: Token) -> SmvSyntaxError:
        return SmvSyntaxError(msg, tok.line, tok.col)

    def _int(self, tok: Token) -> int:
        """The value of a NUMBER token."""
        try:
            return int(tok.text)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            raise self._error(
                f"number of {len(tok.text)} digits is too long", tok) from None

    def _expect_punct(self, text: str) -> Token:
        tok = self.lx.next()
        if tok.kind != "PUNCT" or tok.text != text:
            raise self._error(f"expected {text!r}, found {tok.text!r}", tok)
        return tok

    def _expect_keyword(self, kw: str) -> Token:
        tok = self.lx.next()
        if tok.kind != "KEYWORD" or tok.text != kw:
            raise self._error(f"expected {kw}, found {tok.text!r}", tok)
        return tok

    def _expect_ident(self, what: str) -> Token:
        tok = self.lx.next()
        if tok.kind != "IDENT":
            raise self._error(f"expected {what}, found {tok.text!r}", tok)
        return tok

    def _at_punct(self, text: str) -> bool:
        tok = self.lx.peek()
        return tok.kind == "PUNCT" and tok.text == text

    def _comma_list(self, parse_item) -> list:
        """One or more items separated by ','."""
        items = [parse_item()]
        while self._at_punct(","):
            self.lx.next()
            items.append(parse_item())
        return items

    # grammar ----------------------------------------------------------

    def parse_spec(self) -> SmvSpec:
        modules: list[SmvModule] = []
        tok = self.lx.peek()
        while tok.kind != "EOF":
            if tok.kind == "KEYWORD" and tok.text == "MODULE":
                modules.append(self._parse_module())
            else:
                raise self._error(f"expected MODULE, found {tok.text!r}", tok)
            tok = self.lx.peek()
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
            self.lx.next()
            if not self._at_punct(")"):
                params = self._comma_list(
                    lambda: self._expect_ident("parameter name").text)
            self._expect_punct(")")
        module = SmvModule(name=name, params=tuple(params), line=head.line)
        while True:
            tok = self.lx.peek()
            if tok.kind == "EOF" or (tok.kind == "KEYWORD" and tok.text == "MODULE"):
                break
            if tok.kind == "KEYWORD" and tok.text == "VAR":
                self.lx.next()
                controllable = False
                if self.lx.peek().kind == "CONTROLLABLE":
                    self.lx.next()
                    controllable = True
                self._parse_var_section(module, controllable)
            elif tok.kind == "KEYWORD" and tok.text == "DEFINE":
                self.lx.next()
                self._parse_define_section(module)
            elif tok.kind == "KEYWORD" and tok.text == "ASSIGN":
                self.lx.next()
                self._parse_assign_section(module)
            elif tok.kind == "MARKER":
                self.lx.next()
                refs = module.sys_automata if tok.text == "SYS_AUTOMATON_SPEC" \
                    else module.env_automata
                while True:
                    entry = self.lx.path_entry()
                    if entry is None:
                        break
                    path, negated, line = entry
                    refs.append(AutomatonRef(path=path, negated=negated, line=line))
            else:
                raise self._error(f"expected a section keyword, found {tok.text!r}", tok)
        return module

    def _section_done(self) -> bool:
        tok = self.lx.peek()
        if tok.kind in ("EOF", "MARKER", "CONTROLLABLE"):
            return True
        return tok.kind == "KEYWORD" and tok.text in SECTION_KEYWORDS

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
        tok = self.lx.next()
        if tok.kind == "KEYWORD" and tok.text == "BOOLEAN":
            return BOOL
        if tok.kind == "NUMBER" or (tok.kind == "PUNCT" and tok.text == "-"):
            lo = self._finish_signed_number(tok)
            self._expect_punct("..")
            hi_tok = self.lx.next()
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
                self.lx.next()
                if not self._at_punct(")"):
                    actuals = self._comma_list(self._parse_expr)
                self._expect_punct(")")
            return InstanceType(module=tok.text, actuals=tuple(actuals))
        raise self._error(f"expected a type, found {tok.text!r}", tok)

    def _finish_signed_number(self, tok: Token) -> int:
        if tok.kind == "PUNCT" and tok.text == "-":
            num = self.lx.next()
            if num.kind != "NUMBER":
                raise self._error("expected a number after '-'", num)
            return -self._int(num)
        if tok.kind != "NUMBER":
            raise self._error(f"expected a number, found {tok.text!r}", tok)
        return self._int(tok)

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
            tok = self.lx.next()
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
            tok = self.lx.next()
            right = self._parse_implies()
            left = Binary("<->", left, right, line=tok.line)
        return left

    def _parse_implies(self) -> Expr:
        left = self._parse_left_assoc(0)
        if self._at_punct("->"):
            tok = self.lx.next()
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
        while (tok := self.lx.peek()).kind == kind and tok.text == text:
            self.lx.next()
            left = Binary(op, left, self._parse_left_assoc(depth + 1),
                          line=tok.line)
        return left

    _CMP_OPS = ("=", "!=", "<=", ">=", "<", ">")

    def _parse_comparison(self) -> Expr:
        left = self._parse_unary()
        self._reject_arith()
        tok = self.lx.peek()
        if tok.kind == "PUNCT" and tok.text in self._CMP_OPS:
            self.lx.next()
            right = self._parse_unary()
            self._reject_arith()
            return Binary(tok.text, left, right, line=tok.line)
        return left

    def _reject_arith(self) -> None:
        tok = self.lx.peek()
        if tok.kind == "PUNCT" and tok.text in ("+", "-", "*", "/"):
            raise self._error(f"arithmetic operator {tok.text!r} is not supported", tok)

    def _parse_unary(self) -> Expr:
        tok = self.lx.peek()
        if tok.kind == "PUNCT" and tok.text == "!":
            self.lx.next()
            return Unary("!", self._parse_unary(), line=tok.line)
        if tok.kind == "PUNCT" and tok.text == "-":
            self.lx.next()
            num = self.lx.next()
            if num.kind != "NUMBER":
                raise self._error("expected a number after unary '-'", num)
            return IntLit(-self._int(num), line=num.line)
        return self._parse_atom()

    def _parse_atom(self) -> Expr:
        tok = self.lx.next()
        if tok.kind == "PUNCT" and tok.text in ("+", "*", "/"):
            raise self._error(f"arithmetic operator {tok.text!r} is not supported", tok)
        if tok.kind == "NUMBER":
            return IntLit(self._int(tok), line=tok.line)
        if tok.kind == "KEYWORD" and tok.text == "TRUE":
            return BoolLit(True, line=tok.line)
        if tok.kind == "KEYWORD" and tok.text == "FALSE":
            return BoolLit(False, line=tok.line)
        if tok.kind == "KEYWORD" and tok.text == "CASE":
            branches: list[tuple[Expr, Expr]] = []
            while True:
                nxt = self.lx.peek()
                if nxt.kind == "KEYWORD" and nxt.text == "ESAC":
                    self.lx.next()
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
                self.lx.next()
                parts.append(self._expect_ident("member name").text)
            return Name(tuple(parts), line=tok.line)
        raise self._error(f"unexpected token {tok.text!r} in expression", tok)


def parse_smv(text: str) -> SmvSpec:
    """Parse extended-SMV source text into an AST."""
    return Parser(text).parse_spec()
