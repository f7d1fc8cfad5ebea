"""Flattening of a resolved module hierarchy into a boolean-only model.

Instances are inlined recursively; names get dotted instance-path
prefixes.  An enum over n symbols occupies ceil(log2 n) bits, codes
assigned in declaration order from 0; a range lo..hi is the enum of its
values, so value v gets code v - lo.  Encoding bit i of variable v is
named ``v.__bit<i>`` (booleans keep their plain name).  Next-state and
init expressions only ever produce valid codes, so out-of-encoding
patterns are unreachable by construction.

One compiler, ``compile_bits``, turns an expression of a given type
into its bits; a boolean is a one-bit word.  Integers compared without
a variable on either side are encoded over the range of their values.
An ``init()`` value is compiled the same way and must fold to constant
bits once the defines it reads are substituted.

Flattening is a pure transformation; the produced values are immutable
and safe to share across threads.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from .. import boolexpr as bx
from ..boolexpr import BAnd, BConst, BNot, BoolExpr, BOr, BVar
from .ast import (
    BOOL, Binary, BoolLit, BoolType, Case, EnumType, Expr, InstanceType, IntLit,
    Name, RangeType, SmvFlattenError, Unary, VarType,
)
from .resolve import (
    IntConstType, ModuleCtx, ParamBinding, ResolvedSpec, SymbolBinding,
    SymConstType, VarBinding,
)

log = logging.getLogger(__name__)

_CONNECTIVES = {
    "&": bx.band, "|": bx.bor, "xor": bx.bxor, "<->": bx.biff,
    "->": lambda l, r: bx.bor(bx.bnot(l), r),
}


@dataclass(frozen=True)
class FlatLatch:
    name: str
    init: int  # 0 or 1
    next: BoolExpr


@dataclass(frozen=True)
class FlatModel:
    """Inputs, latches and defines, each define after the defines it reads.

    ``circuit.compile_model`` checks that every name is bound before it
    is read.
    """
    inputs_u: tuple[str, ...]
    inputs_c: tuple[str, ...]
    latches: tuple[FlatLatch, ...]
    defines: tuple[tuple[str, BoolExpr], ...]


def nbits(size: int) -> int:
    if size < 1:
        raise ValueError(size)
    return max(size - 1, 0).bit_length()


def value_code(t: VarType, value) -> int:
    if isinstance(t, RangeType):
        if not (t.lo <= value <= t.hi):
            raise SmvFlattenError(f"value {value} outside range {t}")
        return value - t.lo
    if isinstance(t, EnumType):
        try:
            return t.symbols.index(value)
        except ValueError:
            raise SmvFlattenError(f"symbol {value!r} not in enum {t}") from None
    raise AssertionError(f"not a word type: {t}")


def code_bits(code: int, width: int) -> list[BoolExpr]:
    return [bx.TRUE if (code >> i) & 1 else bx.FALSE for i in range(width)]


class _Flattener:
    def __init__(self, resolved: ResolvedSpec):
        self.resolved = resolved
        self.inputs_u: list[str] = []
        self.inputs_c: list[str] = []
        self.latches: list[FlatLatch] = []
        self.defines: dict[str, BoolExpr] = {}  # bit name -> signal, in order
        self._visited_defines: set[tuple[int, str]] = set()

    # naming ------------------------------------------------------------

    def _prefix(self, ctx: ModuleCtx) -> str:
        return ".".join(ctx.path) + "." if ctx.path else ""

    def signal(self, ctx: ModuleCtx, name: str) -> str:
        return self._prefix(ctx) + name

    def bit_names(self, ctx: ModuleCtx, name: str, t: VarType) -> list[str]:
        """The signals of variable or define ``name`` of type ``t``.

        A boolean keeps its plain name; bit i of a word is ``name.__bit<i>``.
        """
        base = self.signal(ctx, name)
        if isinstance(t, BoolType):
            return [base]
        return [f"{base}.__bit{i}" for i in range(nbits(t.size))]

    # main walk ----------------------------------------------------------

    def run(self) -> FlatModel:
        self._emit_defines(self.resolved.root)
        self._walk_vars(self.resolved.root)
        return FlatModel(
            inputs_u=tuple(self.inputs_u),
            inputs_c=tuple(self.inputs_c),
            latches=tuple(self.latches),
            defines=tuple(self.defines.items()),
        )

    def _emit_defines(self, ctx: ModuleCtx) -> None:
        for d in ctx.module.defines:
            self._ensure_define(ctx, d.name)
        for v in ctx.module.vars:
            if isinstance(v.type, InstanceType):
                self._emit_defines(ctx.children[v.name])

    def _ensure_define(self, ctx: ModuleCtx, name: str) -> None:
        """Emit a define once, after the defines it reads.

        ``resolve`` has rejected circular defines, so the recursion ends.
        """
        key = (id(ctx), name)
        if key in self._visited_defines:
            return
        self._visited_defines.add(key)
        dtype = ctx.define_types[name]
        # constant-typed defines are inlined at their use sites
        if isinstance(dtype, (BoolType, RangeType, EnumType)):
            bits = self.compile_bits(ctx, ctx.module.define_decl(name).expr, dtype)
            self.defines.update(zip(self.bit_names(ctx, name, dtype), bits))

    def _walk_vars(self, ctx: ModuleCtx) -> None:
        module = ctx.module
        inits = {a.target: a for a in module.assigns if a.kind == "init"}
        nexts = {a.target: a for a in module.assigns if a.kind == "next"}
        for v in module.vars:
            if isinstance(v.type, InstanceType):
                self._walk_vars(ctx.children[v.name])
                continue
            has_next = v.name in nexts
            if not has_next:
                if ctx.path:
                    raise SmvFlattenError(
                        f"variable {self.signal(ctx, v.name)!r} has no next() "
                        f"assignment; only module 'main' may declare inputs",
                        v.line)
                if v.name in inits:
                    raise SmvFlattenError(
                        f"input variable {v.name!r} cannot have an init() "
                        f"assignment", v.line)
                self._emit_input(ctx, v)
                continue
            self._emit_latch(ctx, v, inits.get(v.name), nexts[v.name])

    def _emit_input(self, ctx: ModuleCtx, v) -> None:
        target = self.inputs_c if v.controllable else self.inputs_u
        target.extend(self.bit_names(ctx, v.name, v.type))

    def _emit_latch(self, ctx: ModuleCtx, v, init_assign, next_assign) -> None:
        init_code = self._init_code(ctx, v, init_assign)
        next_bits = self.compile_bits(ctx, next_assign.expr, v.type)
        for i, (bit_name, bit) in enumerate(zip(
                self.bit_names(ctx, v.name, v.type), next_bits)):
            self.latches.append(FlatLatch(bit_name, (init_code >> i) & 1, bit))

    def _init_code(self, ctx: ModuleCtx, v, init_assign) -> int:
        if init_assign is None:
            log.warning("no init() for %s; defaulting to the first value of %s",
                        self.signal(ctx, v.name), v.type)
            return 0
        bits = _inline_defines(
            self.compile_bits(ctx, init_assign.expr, v.type), self.defines)
        if not all(isinstance(b, BConst) for b in bits):
            raise SmvFlattenError(
                f"init({self.signal(ctx, v.name)}) is not a constant expression",
                init_assign.line)
        return sum(b.value << i for i, b in enumerate(bits))

    # expression compilation ---------------------------------------------

    def _bool(self, ctx: ModuleCtx, expr: Expr) -> BoolExpr:
        return self.compile_bits(ctx, expr, BOOL)[0]

    def compile_bits(self, ctx: ModuleCtx, expr: Expr, t: VarType) -> list[BoolExpr]:
        """The signals of an expression of type ``t``, one per bit name."""
        if isinstance(expr, BoolLit):
            return [bx.TRUE if expr.value else bx.FALSE]
        if isinstance(expr, IntLit):
            return code_bits(value_code(t, expr.value), nbits(t.size))
        if isinstance(expr, Name):
            b = ctx.bindings[id(expr)]
            if isinstance(b, SymbolBinding):
                return code_bits(value_code(t, b.name), nbits(t.size))
            if isinstance(b, ParamBinding):
                return self.compile_bits(b.parent, b.actual, t)
            if isinstance(b, VarBinding):
                btype = b.type
            else:
                btype = b.ctx.define_types[b.name]
                if isinstance(btype, (IntConstType, SymConstType)):
                    decl = b.ctx.module.define_decl(b.name)
                    return self.compile_bits(b.ctx, decl.expr, t)
                self._ensure_define(b.ctx, b.name)
            if btype != t:
                raise SmvFlattenError(
                    f"{self.signal(b.ctx, b.name)!r} has type {btype}, "
                    f"context requires {t}", expr.line)
            return [BVar(n) for n in self.bit_names(b.ctx, b.name, t)]
        if isinstance(expr, Unary):
            return [bx.bnot(self._bool(ctx, expr.arg))]
        if isinstance(expr, Binary) and expr.op in _CONNECTIVES:
            l = self._bool(ctx, expr.left)
            r = self._bool(ctx, expr.right)
            return [_CONNECTIVES[expr.op](l, r)]
        if isinstance(expr, Binary):
            return [self._compile_comparison(ctx, expr)]
        if isinstance(expr, Case):
            last_cond, last_value = expr.branches[-1]
            if not (isinstance(last_cond, BoolLit) and last_cond.value):
                raise SmvFlattenError(
                    "unsupported construct: case without a final TRUE branch",
                    expr.line)
            result = self.compile_bits(ctx, last_value, t)
            for cond, value in reversed(expr.branches[:-1]):
                c = self._bool(ctx, cond)
                vbits = self.compile_bits(ctx, value, t)
                result = [bx.bite(c, v, r) for v, r in zip(vbits, result)]
            return result
        raise AssertionError(f"unexpected expression {expr!r}")

    def _compile_comparison(self, ctx: ModuleCtx, expr: Binary) -> BoolExpr:
        op = expr.op
        t = ctx.cmp_types[id(expr)]
        if isinstance(t, IntConstType):  # no variable: the range of the values
            t = RangeType(min(t.values), max(t.values))
        lbits = self.compile_bits(ctx, expr.left, t)
        rbits = self.compile_bits(ctx, expr.right, t)
        if isinstance(t, BoolType):
            return (bx.biff if op == "=" else bx.bxor)(lbits[0], rbits[0])
        if op == "=":
            return bx.band(*[bx.biff(a, b) for a, b in zip(lbits, rbits)])
        if op == "!=":
            return bx.bnot(bx.band(*[bx.biff(a, b) for a, b in zip(lbits, rbits)]))
        if op == "<":
            return self._unsigned_less(lbits, rbits)
        if op == ">":
            return self._unsigned_less(rbits, lbits)
        if op == "<=":
            return bx.bnot(self._unsigned_less(rbits, lbits))
        return bx.bnot(self._unsigned_less(lbits, rbits))  # >=

    @staticmethod
    def _unsigned_less(a: list[BoolExpr], b: list[BoolExpr]) -> BoolExpr:
        result = bx.FALSE  # equal so far means not less
        for ai, bi in zip(a, b):  # LSB to MSB
            result = bx.bite(bx.biff(ai, bi), result, bx.band(bx.bnot(ai), bi))
        return result


def _inline_defines(bits: list[BoolExpr],
                    defines: dict[str, BoolExpr]) -> list[BoolExpr]:
    """``bits`` with each define they read replaced by its bits, folded."""
    memo: dict[int, BoolExpr] = {}  # shared subtrees are visited once

    def step(e: BoolExpr):
        if isinstance(e, BVar):
            return (yield defines[e.name]) if e.name in defines else e
        if isinstance(e, BNot):
            return bx.bnot((yield e.arg))
        if isinstance(e, (BAnd, BOr)):
            args = []
            for arg in e.args:
                args.append((yield arg))
            return (bx.band if isinstance(e, BAnd) else bx.bor)(*args)
        return e

    return [bx.fold(b, step, memo) for b in bits]


def flatten(resolved: ResolvedSpec) -> FlatModel:
    """Flatten a resolved specification to a boolean-only model."""
    return _Flattener(resolved).run()
