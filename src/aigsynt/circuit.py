"""Compilation of a flat model plus property monitors into a game circuit.

The produced document is in the new (extended) format: per-guarantee
bad literals, one invariant-constraint literal per assumption (its
monitor staying out of the trap), and at most one justice group.  When
several guarantees carry a live fair signal they are combined by a
round-robin counter that emits the shared justice literal on
wraparound.  The justice literal's meaning is reversed relative to
plain AIGER justice: a violating trace keeps constraints true and hits
the justice literal only finitely often.

Latches initialize to 0 in AIGER, so a latch whose model init bit is 1
is stored inverted; its symbol name carries the suffix ``.__neg``.

Latch order: the round-robin counter comes first, then the monitor
states (guarantees, then assumptions), then the model's latches.
``game.Encoding`` gives latches their decision-diagram levels in document
order, so observers sit above the latches they read.  An observer has
only a few modes; on top, each diagram splits into a few mode branches
that share the model's sub-diagrams, where at the bottom every path
through the model would end in its own copy of the observer's function.
"""

from __future__ import annotations

from . import boolexpr as bx
from .aiger import AigerDoc, CONTROLLABLE_PREFIX, FALSE_LIT
from .automata import Label, Monitor
from .smv.flatten import FlatModel


class CircuitError(Exception):
    pass


class _LatchPlan:
    """The latch of a signal with initial value ``init`` (0 or 1)."""

    __slots__ = ("flip", "lit")

    def __init__(self, doc: AigerDoc, name: str, init: int):
        self.flip = init
        self.lit = doc.add_latch(name + ".__neg" if init else name)

    @property
    def signal_lit(self) -> int:
        return self.lit ^ self.flip

    def set_next(self, doc: AigerDoc, lit: int) -> None:
        doc.set_latch_next(self.lit, lit ^ self.flip)


def _bexpr_to_lit(aig, expr: bx.BoolExpr, signals: dict[str, int],
                  memo: dict[int, int]) -> int:
    """The literal of expr; ``memo`` maps ``id`` of a node to its literal.

    By ``id``: hashing a node walks its whole subtree.  The memo's nodes
    must outlive it.  A name not yet in ``signals`` is a CircuitError;
    this is the one check that a flat model reads only declared names,
    each define after the defines it reads.
    """
    cached = memo.get(id(expr))
    if cached is not None:
        return cached
    if isinstance(expr, bx.BConst):
        lit = 1 if expr.value else 0
    elif isinstance(expr, bx.BVar):
        try:
            lit = signals[expr.name]
        except KeyError:
            raise CircuitError(f"unresolved signal {expr.name!r}") from None
    elif isinstance(expr, bx.BNot):
        lit = _bexpr_to_lit(aig, expr.arg, signals, memo) ^ 1
    elif isinstance(expr, bx.BAnd):
        lit = aig.and_many(_bexpr_to_lit(aig, a, signals, memo)
                           for a in expr.args)
    elif isinstance(expr, bx.BOr):
        lit = aig.or_many(_bexpr_to_lit(aig, a, signals, memo)
                          for a in expr.args)
    else:
        raise TypeError(expr)
    memo[id(expr)] = lit
    return lit


def _label_lit(aig, label: Label, prop_lits: dict[str, int]) -> int:
    lits = [prop_lits[p] for p in sorted(label.pos)]
    lits += [prop_lits[p] ^ 1 for p in sorted(label.neg)]
    return aig.and_many(lits)


class _MonitorPlan:
    def __init__(self, doc: AigerDoc, monitor: Monitor, name: str):
        self.monitor = monitor
        self.name = name
        self.latches = [_LatchPlan(doc, f"{name}.state.__bit{i}", bit)
                        for i, bit in enumerate(monitor.init_code)]

    @property
    def state_lits(self) -> list[int]:
        return [plan.signal_lit for plan in self.latches]

    def states_pred(self, aig, states) -> int:
        bits = self.state_lits
        return aig.or_many(aig.eq_const(bits, s) for s in sorted(states))


def compile_model(model: FlatModel, sys_monitors: list[Monitor],
                  env_monitors: list[Monitor]) -> AigerDoc:
    """Build the extended-format game circuit for a model and its monitors."""
    doc = AigerDoc(fmt="new")
    aig = doc.aig
    signals: dict[str, int] = {}

    for name in model.inputs_u:
        signals[name] = doc.add_input(name)
    for name in model.inputs_c:
        signals[name] = doc.add_input(CONTROLLABLE_PREFIX + name)

    n_sys = len(sys_monitors)
    n_fair = sum(m.fair_nontrivial for m in sys_monitors)
    counter = [doc.add_latch(f"counting_justice.__bit{i}")
               for i in range(max(n_fair - 1, 0).bit_length())]

    monitor_plans = [_MonitorPlan(doc, monitor, f"{role}_prop{k}")
                     for role, monitors in (("sys", sys_monitors),
                                            ("env", env_monitors))
                     for k, monitor in enumerate(monitors)]

    latch_plans: list[tuple[_LatchPlan, bx.BoolExpr]] = []
    for latch in model.latches:
        plan = _LatchPlan(doc, latch.name, latch.init)
        signals[latch.name] = plan.signal_lit
        latch_plans.append((plan, latch.next))

    memo: dict[int, int] = {}  # the model keeps every node alive
    for name, expr in model.defines:
        signals[name] = _bexpr_to_lit(aig, expr, signals, memo)

    for plan, next_expr in latch_plans:
        plan.set_next(doc, _bexpr_to_lit(aig, next_expr, signals, memo))

    for mp in monitor_plans:
        monitor = mp.monitor
        prop_lits = {}
        for p in monitor.props:
            if p not in signals:
                raise CircuitError(
                    f"automaton proposition {p!r} is not a signal of the model")
            prop_lits[p] = signals[p]
        state_lits = mp.state_lits
        for i, plan in enumerate(mp.latches):
            next_lit = FALSE_LIT
            for src in range(monitor.n_states):
                src_eq = aig.eq_const(state_lits, src)
                for label, dst in monitor.table[src]:
                    if (dst >> i) & 1:
                        step = aig.and_(src_eq, _label_lit(aig, label, prop_lits))
                        next_lit = aig.or_(next_lit, step)
            plan.set_next(doc, next_lit)

    for mp in monitor_plans[:n_sys]:
        bad_lit = mp.states_pred(aig, mp.monitor.bad_states)
        doc.bad.append((bad_lit, f"{mp.name}_bad"))
    for mp in monitor_plans[n_sys:]:
        bad_lit = mp.states_pred(aig, mp.monitor.bad_states)
        doc.constraints.append((bad_lit ^ 1, f"{mp.name}_ok"))

    fair_lits = [mp.states_pred(aig, mp.monitor.fair_states)
                 for mp in monitor_plans[:n_sys]
                 if mp.monitor.fair_nontrivial]
    if len(fair_lits) == 1:
        doc.justice.append(([fair_lits[0]], "just"))
    elif len(fair_lits) > 1:
        just = _round_robin(doc, counter, fair_lits)
        doc.justice.append(([just], "just"))

    doc.validate()
    return doc


def _round_robin(doc: AigerDoc, bits: list[int], fair_lits: list[int]) -> int:
    """Counter awaiting each fair signal in turn; emits just on wraparound.

    ``bits`` are the counter's latches, allocated by the caller ahead of
    the latches the fair signals read.
    """
    aig = doc.aig
    n = len(fair_lits)
    for i in range(len(bits)):
        next_i = FALSE_LIT
        for v in range(n):
            stay_bit = (v >> i) & 1
            advance_bit = (((v + 1) % n) >> i) & 1
            bit_next = aig.ite_(fair_lits[v], advance_bit, stay_bit)
            next_i = aig.or_(next_i, aig.and_(aig.eq_const(bits, v), bit_next))
        doc.set_latch_next(bits[i], next_i)
    return aig.and_(aig.eq_const(bits, n - 1), fair_lits[n - 1])
