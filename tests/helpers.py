"""Shared test oracles and builders.

The reference interpreter executes a resolved specification over typed
values (ints, bools, enum symbols), entirely independent of the boolean
flattening path it is used to check.  The explicit graph oracles
enumerate lassos of small documents directly.
"""

from __future__ import annotations

import random
from itertools import product

from aigsynt import boolexpr as bx
from aigsynt.aiger import AigerDoc, CONTROLLABLE_PREFIX, evaluate_vars, values_lit
from aigsynt.smv.ast import (
    Binary, BoolLit, BoolType, Case, EnumType, InstanceType, IntLit, Name,
    RangeType, Unary,
)
from aigsynt.smv.flatten import FlatModel, nbits, value_code
from aigsynt.smv.resolve import (
    DefineBinding, IntConstType, ModuleCtx, ParamBinding, SymbolBinding,
    VarBinding,
)


# reference interpreter -------------------------------------------------


class RefInterp:
    """Typed-value execution of a resolved spec (oracle for flatten)."""

    def __init__(self, root: ModuleCtx):
        self.root = root
        self.state_vars: list[tuple[ModuleCtx, str]] = []
        self.input_vars: list[tuple[ModuleCtx, str]] = []
        self._collect(root)

    def _collect(self, ctx: ModuleCtx) -> None:
        nexts = {a.target for a in ctx.module.assigns if a.kind == "next"}
        for v in ctx.module.vars:
            if isinstance(v.type, InstanceType):
                self._collect(ctx.children[v.name])
            elif v.name in nexts:
                self.state_vars.append((ctx, v.name))
            else:
                self.input_vars.append((ctx, v.name))

    @staticmethod
    def full_name(ctx: ModuleCtx, name: str) -> str:
        return (".".join(ctx.path) + "." if ctx.path else "") + name

    def type_default(self, t):
        if isinstance(t, BoolType):
            return False
        if isinstance(t, RangeType):
            return t.lo
        if isinstance(t, EnumType):
            return t.symbols[0]
        raise AssertionError(t)

    def initial_state(self) -> dict[tuple[int, str], object]:
        state: dict[tuple[int, str], object] = {}
        for ctx, name in self.state_vars:
            decl = ctx.module.var_decl(name)
            init = next((a for a in ctx.module.assigns
                         if a.kind == "init" and a.target == name), None)
            if init is None:
                state[(id(ctx), name)] = self.type_default(decl.type)
            else:
                state[(id(ctx), name)] = self.eval(ctx, init.expr, {}, {})
        return state

    def eval(self, ctx: ModuleCtx, expr, state, inputs):
        if isinstance(expr, BoolLit):
            return expr.value
        if isinstance(expr, IntLit):
            return expr.value
        if isinstance(expr, Name):
            b = ctx.bindings[id(expr)]
            if isinstance(b, VarBinding):
                key = (id(b.ctx), b.name)
                if key in state:
                    return state[key]
                return inputs[self.full_name(b.ctx, b.name)]
            if isinstance(b, DefineBinding):
                decl = b.ctx.module.define_decl(b.name)
                return self.eval(b.ctx, decl.expr, state, inputs)
            if isinstance(b, ParamBinding):
                return self.eval(b.parent, b.actual, state, inputs)
            if isinstance(b, SymbolBinding):
                return b.name
            raise AssertionError(b)
        if isinstance(expr, Unary):
            return not self.eval(ctx, expr.arg, state, inputs)
        if isinstance(expr, Binary):
            lv = self.eval(ctx, expr.left, state, inputs)
            rv = self.eval(ctx, expr.right, state, inputs)
            op = expr.op
            if op == "&":
                return lv and rv
            if op == "|":
                return lv or rv
            if op == "xor":
                return bool(lv) != bool(rv)
            if op == "->":
                return (not lv) or rv
            if op == "<->":
                return bool(lv) == bool(rv)
            if op in ("=", "!="):
                return (lv == rv) if op == "=" else (lv != rv)
            lk, rk = self._order_keys(ctx, expr, lv, rv)
            return {"<": lk < rk, "<=": lk <= rk,
                    ">": lk > rk, ">=": lk >= rk}[op]
        if isinstance(expr, Case):
            for cond, value in expr.branches:
                if self.eval(ctx, cond, state, inputs):
                    return self.eval(ctx, value, state, inputs)
            raise AssertionError("case fell through")
        raise AssertionError(expr)

    def _order_keys(self, ctx: ModuleCtx, expr: Binary, lv, rv):
        t = ctx.cmp_types[id(expr)]
        if isinstance(t, EnumType):
            return t.symbols.index(lv), t.symbols.index(rv)
        return lv, rv

    def step(self, state, inputs):
        new_state = {}
        for ctx, name in self.state_vars:
            assign = next(a for a in ctx.module.assigns
                          if a.kind == "next" and a.target == name)
            new_state[(id(ctx), name)] = self.eval(ctx, assign.expr, state, inputs)
        return new_state

    def define_values(self, state, inputs) -> dict[str, object]:
        out = {}

        def walk(ctx: ModuleCtx):
            for d in ctx.module.defines:
                out[self.full_name(ctx, d.name)] = self.eval(
                    ctx, d.expr, state, inputs)
            for child in ctx.children.values():
                walk(child)

        walk(self.root)
        return out

    def enumerate_input_values(self) -> list[dict[str, object]]:
        """All typed input assignments, in a deterministic order."""
        domains = []
        for ctx, name in self.input_vars:
            t = ctx.module.var_decl(name).type
            if isinstance(t, BoolType):
                values = [False, True]
            elif isinstance(t, RangeType):
                values = list(range(t.lo, t.hi + 1))
            else:
                values = list(t.symbols)
            domains.append((self.full_name(ctx, name), values))
        names = [n for n, _ in domains]
        combos = product(*[vs for _, vs in domains])
        return [dict(zip(names, combo)) for combo in combos]

    def var_types(self) -> dict[str, object]:
        out = {}
        for ctx, name in self.state_vars + self.input_vars:
            out[self.full_name(ctx, name)] = ctx.module.var_decl(name).type
        return out

    def define_types(self) -> dict[str, object]:
        out = {}

        def walk(ctx: ModuleCtx):
            for d in ctx.module.defines:
                out[self.full_name(ctx, d.name)] = ctx.define_types[d.name]
            for child in ctx.children.values():
                walk(child)

        walk(self.root)
        return out


# flat model simulation ---------------------------------------------------


class FlatSim:
    """Direct evaluation of a FlatModel over bit assignments."""

    def __init__(self, model: FlatModel):
        self.model = model

    def initial(self) -> dict[str, bool]:
        return {l.name: bool(l.init) for l in self.model.latches}

    def env(self, latch_bits: dict[str, bool],
            input_bits: dict[str, bool]) -> dict[str, bool]:
        env = dict(latch_bits)
        env.update(input_bits)
        for name, expr in self.model.defines:
            env[name] = bx.evaluate(expr, env)
        return env

    def step(self, latch_bits, input_bits) -> dict[str, bool]:
        env = self.env(latch_bits, input_bits)
        return {l.name: bx.evaluate(l.next, env) for l in self.model.latches}


def typed_value_to_bits(t, value, base_name: str) -> dict[str, bool]:
    """Encode one typed value using the flatten naming convention."""
    if isinstance(t, BoolType):
        return {base_name: bool(value)}
    code = value_code(t, value)
    width = nbits(t.size)
    return {f"{base_name}.__bit{i}": bool((code >> i) & 1) for i in range(width)}


def bits_to_code(bits: dict[str, bool], base_name: str, width: int) -> int:
    code = 0
    for i in range(width):
        if bits[f"{base_name}.__bit{i}"]:
            code |= 1 << i
    return code


# random document generation ----------------------------------------------


def random_game_doc(seed: int, n_latches: int = 4, n_u: int = 2, n_c: int = 2,
                    n_gates: int = 12, with_justice: bool = True,
                    with_constraint: bool = True) -> AigerDoc:
    """A random well-formed game document with a state-based justice literal."""
    rng = random.Random(seed)
    doc = AigerDoc(fmt="new")
    u_lits = [doc.add_input(f"u{i}") for i in range(n_u)]
    c_lits = [doc.add_input(f"{CONTROLLABLE_PREFIX}c{i}") for i in range(n_c)]
    l_lits = [doc.add_latch(f"l{i}") for i in range(n_latches)]
    aig = doc.aig

    latch_pool = list(l_lits)
    for _ in range(max(1, n_gates // 3)):
        a = rng.choice(latch_pool) ^ rng.randint(0, 1)
        b = rng.choice(latch_pool) ^ rng.randint(0, 1)
        latch_pool.append(aig.and_(a, b))

    pool = u_lits + c_lits + list(latch_pool)
    for _ in range(n_gates):
        a = rng.choice(pool) ^ rng.randint(0, 1)
        b = rng.choice(pool) ^ rng.randint(0, 1)
        pool.append(aig.and_(a, b))

    for lit in l_lits:
        doc.set_latch_next(lit, rng.choice(pool) ^ rng.randint(0, 1))
    doc.bad.append((rng.choice(pool) ^ rng.randint(0, 1), None))
    if with_constraint and rng.random() < 0.7:
        doc.constraints.append((rng.choice(pool) ^ rng.randint(0, 1), None))
    if with_justice:
        doc.justice.append(([rng.choice(latch_pool) ^ rng.randint(0, 1)], None))
    doc.validate()
    return doc


def with_random_outputs(doc: AigerDoc, seed: int) -> AigerDoc:
    """A copy of doc with outputs on 1-3 of its own AND gates.

    Most gates are drawn from the fan-in of the next-state and bad
    literals, so they nest inside each other; the rest from the whole
    table, where some feed nothing.  Each output may be negated, and
    one gate may be named twice, once per polarity or twice in one.  A
    latch literal and a constant are named as well; with no gate, only
    these two are.
    """
    rng = random.Random(seed)
    gates = [var for var, _, _ in doc.aig.nodes()]
    outputs = []
    if gates:
        fan_in = doc.aig.cone([nxt for _, nxt, _ in doc.latches] +
                              [lit for lit, _ in doc.bad])
        near = [var for var in gates if var in fan_in] or gates
        outputs = [((rng.choice(near if rng.random() < 0.8 else gates) << 1)
                    ^ rng.randint(0, 1), f"o{i}")
                   for i in range(rng.randint(1, 3))]
        if rng.random() < 0.5:
            outputs.append((outputs[0][0] ^ rng.randint(0, 1), "again"))
    outputs.append((rng.choice(doc.latches)[0], "latch"))
    outputs.append((rng.randint(0, 1), "const"))
    rng.shuffle(outputs)
    return doc.copy(outputs=outputs)


# explicit lasso oracles ----------------------------------------------------


def _edges(doc: AigerDoc):
    """Explicit transition edges (state, combo, state', inv, just)."""
    n_latches = len(doc.latches)
    n_inputs = len(doc.inputs)
    jlit = doc.justice_literal()
    for s in range(1 << n_latches):
        latch_vals = [bool((s >> i) & 1) for i in range(n_latches)]
        for combo in range(1 << n_inputs):
            input_vals = [bool((combo >> i) & 1) for i in range(n_inputs)]
            values = evaluate_vars(doc, latch_vals, input_vals)
            nxt = 0
            for i, (_, next_lit, _) in enumerate(doc.latches):
                if values_lit(values, next_lit):
                    nxt |= 1 << i
            inv = all(values_lit(values, lit) for lit, _ in doc.constraints)
            just = values_lit(values, jlit) if jlit is not None else True
            yield s, combo, nxt, inv, just


def enumerate_lasso_fg_not_just(doc: AigerDoc) -> bool:
    """Is there a lasso with constraints forever and justice finitely often?

    Exhaustive over the explicit graph: reach via constraint-respecting
    edges, then look for a cycle of constraint-respecting justice-free
    edges.
    """
    inv_edges: dict[int, set[int]] = {}
    quiet_edges: dict[int, set[int]] = {}
    for s, _, nxt, inv, just in _edges(doc):
        if inv:
            inv_edges.setdefault(s, set()).add(nxt)
            if not just:
                quiet_edges.setdefault(s, set()).add(nxt)
    reachable = {0}
    todo = [0]
    while todo:
        s = todo.pop()
        for nxt in inv_edges.get(s, ()):
            if nxt not in reachable:
                reachable.add(nxt)
                todo.append(nxt)
    # cycle search in the quiet subgraph restricted to reachable states
    color: dict[int, int] = {}

    def has_cycle(s: int) -> bool:
        color[s] = 1
        for nxt in quiet_edges.get(s, ()):
            if nxt not in reachable:
                continue
            c = color.get(nxt, 0)
            if c == 1:
                return True
            if c == 0 and has_cycle(nxt):
                return True
        color[s] = 2
        return False

    return any(color.get(s, 0) == 0 and has_cycle(s) for s in reachable)


def enumerate_fair_lasso(doc: AigerDoc) -> bool:
    """Is there a lasso with constraints forever and justice on the cycle?"""
    inv_edges: dict[int, set[int]] = {}
    just_edges: list[tuple[int, int]] = []
    for s, _, nxt, inv, just in _edges(doc):
        if inv:
            inv_edges.setdefault(s, set()).add(nxt)
            if just:
                just_edges.append((s, nxt))

    def reach(srcs) -> set[int]:
        seen = set(srcs)
        todo = list(srcs)
        while todo:
            s = todo.pop()
            for nxt in inv_edges.get(s, ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        return seen

    reachable = reach([0])
    for u, v in just_edges:
        if u in reachable and u in reach([v]):
            return True
    return False

