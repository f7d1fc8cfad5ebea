"""Name resolution and type checking over the module hierarchy.

Modules are checked per instantiation, template-style, because the
types of parameters follow from the actual expressions at each
instantiation site.  Integer and enum-symbol literals start out as
constant pseudo-types and are coerced by the concrete side of the
comparison, assignment or case expression they appear in.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ast import (
    AssignDecl, Binary, BOOL, BoolLit, BoolType, Case, EnumType, Expr,
    InstanceType, IntLit, Name, RangeType, SmvModule, SmvResolveError,
    SmvSpec, Unary, VarDecl, VarType,
)


@dataclass(frozen=True)
class IntConstType(VarType):
    values: frozenset[int]

    def __str__(self) -> str:
        return "int constant " + ", ".join(map(str, sorted(self.values)))


@dataclass(frozen=True)
class SymConstType(VarType):
    names: frozenset[str]

    def __str__(self) -> str:
        return "symbol " + ", ".join(sorted(self.names))


def unify(t1: VarType, t2: VarType) -> VarType | None:
    if isinstance(t1, BoolType) and isinstance(t2, BoolType):
        return BOOL
    if isinstance(t1, RangeType) and isinstance(t2, RangeType):
        return t1 if t1 == t2 else None
    if isinstance(t1, EnumType) and isinstance(t2, EnumType):
        return t1 if t1 == t2 else None
    if isinstance(t1, IntConstType) and isinstance(t2, RangeType):
        return t2 if all(t2.lo <= v <= t2.hi for v in t1.values) else None
    if isinstance(t2, IntConstType) and isinstance(t1, RangeType):
        return unify(t2, t1)
    if isinstance(t1, IntConstType) and isinstance(t2, IntConstType):
        return IntConstType(t1.values | t2.values)
    if isinstance(t1, SymConstType) and isinstance(t2, EnumType):
        return t2 if all(n in t2.symbols for n in t1.names) else None
    if isinstance(t2, SymConstType) and isinstance(t1, EnumType):
        return unify(t2, t1)
    if isinstance(t1, SymConstType) and isinstance(t2, SymConstType):
        return SymConstType(t1.names | t2.names)
    return None


# bindings ------------------------------------------------------------


@dataclass(frozen=True)
class VarBinding:
    ctx: "ModuleCtx"
    name: str
    type: VarType


@dataclass(frozen=True)
class DefineBinding:
    ctx: "ModuleCtx"
    name: str


@dataclass(frozen=True)
class ParamBinding:
    parent: "ModuleCtx"
    actual: Expr


@dataclass(frozen=True)
class SymbolBinding:
    name: str


@dataclass
class ModuleCtx:
    """One instantiation of a module with concrete parameter bindings."""

    module: SmvModule
    path: tuple[str, ...]
    params: dict[str, ParamBinding] = field(default_factory=dict)
    children: dict[str, "ModuleCtx"] = field(default_factory=dict)
    define_types: dict[str, VarType] = field(default_factory=dict)
    expr_types: dict[int, VarType] = field(default_factory=dict)
    cmp_types: dict[int, VarType] = field(default_factory=dict)
    bindings: dict[int, object] = field(default_factory=dict)
    _defines_in_progress: set[str] = field(default_factory=set)

    @property
    def dotted(self) -> str:
        return ".".join(self.path) if self.path else "main"


def _check_module_structure(module: SmvModule) -> None:
    seen: dict[str, str] = {}
    for p in module.params:
        if p in seen:
            raise SmvResolveError(
                f"module {module.name!r}: duplicate parameter {p!r}", module.line)
        seen[p] = "param"
    for v in module.vars:
        if v.name in seen:
            raise SmvResolveError(
                f"module {module.name!r}: name {v.name!r} declared twice", v.line)
        seen[v.name] = "var"
    for d in module.defines:
        if d.name in seen:
            raise SmvResolveError(
                f"module {module.name!r}: name {d.name!r} declared twice", d.line)
        seen[d.name] = "define"
    assigned: set[tuple[str, str]] = set()
    for a in module.assigns:
        if seen.get(a.target) != "var":
            raise SmvResolveError(
                f"module {module.name!r}: {a.kind}({a.target}) does not assign a variable",
                a.line)
        key = (a.kind, a.target)
        if key in assigned:
            raise SmvResolveError(
                f"module {module.name!r}: duplicate {a.kind}() assignment to {a.target!r}",
                a.line)
        assigned.add(key)
    for a in module.assigns:
        decl = module.var_decl(a.target)
        if isinstance(decl.type, InstanceType):
            raise SmvResolveError(
                f"module {module.name!r}: cannot assign to instance {a.target!r}", a.line)
        if decl.controllable:
            raise SmvResolveError(
                f"module {module.name!r}: controllable variable {a.target!r} "
                f"cannot have assignments", a.line)


def _check_acyclic_instantiation(spec: SmvSpec) -> None:
    graph: dict[str, list[str]] = {}
    for m in spec.modules:
        refs = []
        for v in m.vars:
            if isinstance(v.type, InstanceType):
                spec.module(v.type.module)  # existence check
                refs.append(v.type.module)
        graph[m.name] = refs
    state: dict[str, int] = {}  # 0 visiting, 1 done

    def visit(name: str, chain: list[str]) -> None:
        mark = state.get(name)
        if mark == 1:
            return
        if mark == 0:
            cycle = " -> ".join(chain[chain.index(name):] + [name])
            raise SmvResolveError(f"cyclic module instantiation: {cycle}")
        state[name] = 0
        for ref in graph[name]:
            visit(ref, chain + [name])
        state[name] = 1

    for m in spec.modules:
        visit(m.name, [])


class _Checker:
    def __init__(self, spec: SmvSpec):
        self.spec = spec

    def build_ctx(self, module: SmvModule, path: tuple[str, ...],
                  params: dict[str, ParamBinding]) -> ModuleCtx:
        ctx = ModuleCtx(module=module, path=path, params=params)
        for v in module.vars:
            if isinstance(v.type, InstanceType):
                target = self.spec.module(v.type.module)
                if len(v.type.actuals) != len(target.params):
                    raise SmvResolveError(
                        f"{ctx.dotted}: instance {v.name!r} passes "
                        f"{len(v.type.actuals)} argument(s), module {target.name!r} "
                        f"takes {len(target.params)}", v.line)
                child_params = {
                    formal: ParamBinding(parent=ctx, actual=actual)
                    for formal, actual in zip(target.params, v.type.actuals)
                }
                ctx.children[v.name] = self.build_ctx(
                    target, path + (v.name,), child_params)
        return ctx

    def check_ctx(self, ctx: ModuleCtx) -> None:
        for child in ctx.children.values():
            self.check_ctx(child)
        for d in ctx.module.defines:
            self.define_type(ctx, d.name, d.line)
        for a in ctx.module.assigns:
            decl = ctx.module.var_decl(a.target)
            t = self.expr_type(ctx, a.expr)
            u = unify(decl.type, t)
            if u is None or isinstance(u, (IntConstType, SymConstType)):
                self._reject_loose_symbol(ctx, t, a.line)
                raise SmvResolveError(
                    f"{ctx.dotted}: {a.kind}({a.target}) has type {t}, "
                    f"variable is {decl.type}", a.line)

    def define_type(self, ctx: ModuleCtx, name: str, line=None) -> VarType:
        if name in ctx.define_types:
            return ctx.define_types[name]
        if name in ctx._defines_in_progress:
            raise SmvResolveError(
                f"{ctx.dotted}: circular define {name!r}", line)
        ctx._defines_in_progress.add(name)
        try:
            decl = ctx.module.define_decl(name)
            t = self.expr_type(ctx, decl.expr)
        finally:
            ctx._defines_in_progress.discard(name)
        ctx.define_types[name] = t
        return t

    def resolve_name(self, ctx: ModuleCtx, name: Name):
        """Bind a possibly dotted name and record the binding in
        ``ctx.bindings``, which ``flatten`` reads.  ``expr_type`` memoizes
        per node, so each name is bound once per context.

        Every part but the last must name an instance; the last names a
        parameter, a variable or a define, and a simple name bound to
        none of these is a candidate enum symbol literal.
        """
        *path, part = name.parts
        cur = ctx
        for step in path:
            if step in cur.params:
                raise SmvResolveError(
                    f"{cur.dotted}: cannot access a member of parameter {step!r}",
                    name.line)
            if step not in cur.children:
                if cur.module.var_decl(step) or cur.module.define_decl(step):
                    raise SmvResolveError(
                        f"{cur.dotted}: {step!r} is not an instance", name.line)
                raise SmvResolveError(f"{cur.dotted}: unbound identifier "
                                      f"{'.'.join(name.parts)!r}", name.line)
            cur = cur.children[step]
        decl = cur.module.var_decl(part)
        if part in cur.params:
            binding = cur.params[part]
        elif part in cur.children:
            raise SmvResolveError(
                f"{cur.dotted}: instance {part!r} used as a value", name.line)
        elif decl is not None:
            binding = VarBinding(ctx=cur, name=part, type=decl.type)
        elif cur.module.define_decl(part) is not None:
            binding = DefineBinding(ctx=cur, name=part)
        elif not path:
            binding = SymbolBinding(name=part)
        else:
            raise SmvResolveError(f"{cur.dotted}: unbound identifier "
                                  f"{'.'.join(name.parts)!r}", name.line)
        ctx.bindings[id(name)] = binding
        return binding

    def expr_type(self, ctx: ModuleCtx, expr: Expr) -> VarType:
        cached = ctx.expr_types.get(id(expr))
        if cached is not None:
            return cached
        t = self._expr_type_uncached(ctx, expr)
        ctx.expr_types[id(expr)] = t
        return t

    def _expr_type_uncached(self, ctx: ModuleCtx, expr: Expr) -> VarType:
        if isinstance(expr, BoolLit):
            return BOOL
        if isinstance(expr, IntLit):
            return IntConstType(frozenset([expr.value]))
        if isinstance(expr, Name):
            b = self.resolve_name(ctx, expr)
            if isinstance(b, VarBinding):
                return b.type
            if isinstance(b, DefineBinding):
                return self.define_type(b.ctx, b.name, expr.line)
            if isinstance(b, ParamBinding):
                return self.expr_type(b.parent, b.actual)
            if isinstance(b, SymbolBinding):
                return SymConstType(frozenset([b.name]))
            raise AssertionError(b)
        if isinstance(expr, Unary):
            t = self.expr_type(ctx, expr.arg)
            if not isinstance(t, BoolType):
                self._reject_loose_symbol(ctx, t, expr.line)
                raise SmvResolveError(
                    f"{ctx.dotted}: operand of {expr.op!r} has type {t}, "
                    f"expected boolean", expr.line)
            return BOOL
        if isinstance(expr, Binary):
            return self._binary_type(ctx, expr)
        if isinstance(expr, Case):
            result: VarType | None = None
            for cond, value in expr.branches:
                ct = self.expr_type(ctx, cond)
                if not isinstance(ct, BoolType):
                    raise SmvResolveError(
                        f"{ctx.dotted}: case condition has type {ct}, "
                        f"expected boolean", expr.line)
                vt = self.expr_type(ctx, value)
                if result is None:
                    result = vt
                else:
                    u = unify(result, vt)
                    if u is None:
                        raise SmvResolveError(
                            f"{ctx.dotted}: case branches mix types {result} and {vt}",
                            expr.line)
                    result = u
            assert result is not None
            return result
        raise AssertionError(f"unexpected expression {expr!r}")

    def _reject_loose_symbol(self, ctx: ModuleCtx, t: VarType, line) -> None:
        """A symbol literal outside any enum context is an unbound name."""
        if isinstance(t, SymConstType):
            names = ", ".join(repr(n) for n in sorted(t.names))
            raise SmvResolveError(
                f"{ctx.dotted}: unbound identifier {names}", line)

    def _binary_type(self, ctx: ModuleCtx, expr: Binary) -> VarType:
        op = expr.op
        lt = self.expr_type(ctx, expr.left)
        rt = self.expr_type(ctx, expr.right)
        if op in ("&", "|", "xor", "->", "<->"):
            for side, t in (("left", lt), ("right", rt)):
                if not isinstance(t, BoolType):
                    self._reject_loose_symbol(ctx, t, expr.line)
                    raise SmvResolveError(
                        f"{ctx.dotted}: {side} operand of {op!r} has type {t}, "
                        f"expected boolean", expr.line)
            return BOOL
        if op in ("=", "!=", "<", "<=", ">", ">="):
            u = unify(lt, rt)
            if u is None:
                self._reject_loose_symbol(ctx, lt, expr.line)
                self._reject_loose_symbol(ctx, rt, expr.line)
                raise SmvResolveError(
                    f"{ctx.dotted}: comparison {op!r} between {lt} and {rt}",
                    expr.line)
            if isinstance(u, SymConstType):
                self._reject_loose_symbol(ctx, u, expr.line)
            if isinstance(u, BoolType) and op not in ("=", "!="):
                raise SmvResolveError(
                    f"{ctx.dotted}: order comparison {op!r} on booleans", expr.line)
            # the unified operand type drives the encoding later
            ctx.cmp_types[id(expr)] = u
            return BOOL
        raise AssertionError(f"unknown operator {op!r}")


def resolve(spec: SmvSpec) -> ModuleCtx:
    """Bind names, verify the instance hierarchy and type-check everything.

    Returns the context of ``main``, the root of the instance tree, which
    ``flatten`` walks.
    """
    main = spec.main
    if main.params:
        raise SmvResolveError("module 'main' must not take parameters", main.line)
    for m in spec.modules:
        _check_module_structure(m)
    _check_acyclic_instantiation(spec)
    checker = _Checker(spec)
    root = checker.build_ctx(main, (), {})
    checker.check_ctx(root)
    return root
