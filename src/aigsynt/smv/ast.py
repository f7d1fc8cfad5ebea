"""Abstract syntax for the extended SMV dialect.

The dialect covers MODULE / VAR / DEFINE / ASSIGN(init, next) sections,
case expressions, boolean connectives and order comparisons over
boolean, range and enumeration terms, module instantiation, plus two
extra section kinds that list property automata by file path.
"""

from __future__ import annotations

from dataclasses import dataclass, field


class SmvError(Exception):
    """Base for all frontend errors; carries an optional source line."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        where = ""
        if line is not None:
            where = f"line {line}"
            if col is not None:
                where += f", col {col}"
            where = f" ({where})"
        super().__init__(message + where)


class SmvSyntaxError(SmvError):
    pass


class SmvResolveError(SmvError):
    pass


class SmvFlattenError(SmvError):
    pass


# types ---------------------------------------------------------------


class VarType:
    __slots__ = ()


@dataclass(frozen=True)
class BoolType(VarType):
    def __str__(self) -> str:
        return "boolean"


@dataclass(frozen=True)
class RangeType(VarType):
    lo: int
    hi: int

    def __str__(self) -> str:
        return f"{self.lo}..{self.hi}"

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1


@dataclass(frozen=True)
class EnumType(VarType):
    symbols: tuple[str, ...]

    def __str__(self) -> str:
        return "{" + ", ".join(self.symbols) + "}"

    @property
    def size(self) -> int:
        return len(self.symbols)


@dataclass(frozen=True)
class InstanceType(VarType):
    module: str
    actuals: tuple["Expr", ...]

    def __str__(self) -> str:
        return f"{self.module}(...)"


BOOL = BoolType()


# expressions ---------------------------------------------------------


class Expr:
    __slots__ = ()


@dataclass(frozen=True)
class Name(Expr):
    """Possibly dotted reference, e.g. ``h.reached42``."""

    parts: tuple[str, ...]
    line: int | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return ".".join(self.parts)


@dataclass(frozen=True)
class IntLit(Expr):
    value: int
    line: int | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class BoolLit(Expr):
    value: bool
    line: int | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return "TRUE" if self.value else "FALSE"


@dataclass(frozen=True)
class Unary(Expr):
    op: str  # "!"
    arg: Expr
    line: int | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"{self.op}({self.arg})"


@dataclass(frozen=True)
class Binary(Expr):
    op: str  # & | xor -> <-> = != < <= > >=
    left: Expr
    right: Expr
    line: int | None = field(default=None, compare=False)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Case(Expr):
    branches: tuple[tuple[Expr, Expr], ...]
    line: int | None = field(default=None, compare=False)

    def __str__(self) -> str:
        inner = " ".join(f"{c}: {v};" for c, v in self.branches)
        return f"case {inner} esac"


# declarations --------------------------------------------------------


@dataclass(frozen=True)
class VarDecl:
    name: str
    type: VarType
    controllable: bool = False
    line: int | None = None


@dataclass(frozen=True)
class DefineDecl:
    name: str
    expr: Expr
    line: int | None = None


@dataclass(frozen=True)
class AssignDecl:
    kind: str  # "init" | "next"
    target: str
    expr: Expr
    line: int | None = None


@dataclass(frozen=True)
class AutomatonRef:
    path: str
    negated: bool = False
    line: int | None = None


@dataclass
class SmvModule:
    name: str
    params: tuple[str, ...] = ()
    vars: list[VarDecl] = field(default_factory=list)
    defines: list[DefineDecl] = field(default_factory=list)
    assigns: list[AssignDecl] = field(default_factory=list)
    sys_automata: list[AutomatonRef] = field(default_factory=list)
    env_automata: list[AutomatonRef] = field(default_factory=list)
    line: int | None = None

    def var_decl(self, name: str) -> VarDecl | None:
        for v in self.vars:
            if v.name == name:
                return v
        return None

    def define_decl(self, name: str) -> DefineDecl | None:
        for d in self.defines:
            if d.name == name:
                return d
        return None


@dataclass
class SmvSpec:
    modules: list[SmvModule]

    def module(self, name: str) -> SmvModule:
        for m in self.modules:
            if m.name == name:
                return m
        raise SmvResolveError(f"no module named {name!r}")

    @property
    def main(self) -> SmvModule:
        return self.module("main")
