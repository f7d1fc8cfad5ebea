"""Model checking of AIGER documents and the explicit-state oracle.

The symbolic checks treat every input existentially while searching for
violations, which is the dual of checking the property for all input
choices.  ``check_safety`` looks for a finite trace raising a bad
literal while the constraints held at every step up to and including
that one.  ``check_justice_universal`` looks for a lasso keeping the
constraints true forever with the justice literal eventually never
raised (reversed-polarity reading).  ``find_fair_trace`` is the plain
AIGER reading: a reachable constraint-respecting cycle with the justice
literal raised on it.  Both justice readings are one Emerson-Lei
fair-cycle search, ``_fair_lasso``, with different step predicates: the
reversed reading loops on quiet steps (constraints, no justice), the
plain one loops on constraint-keeping steps and needs a justice step.

The searches stop as soon as the initial state decides the verdict,
with the same result and the same traces as the full fixpoints.  A
backward ring search toward a stem or a violation stops at the first
ring holding the initial state, since a trace walks down from that
ring and reads none beyond it.  The fair-cycle search of both justice
readings returns "no trace" as soon as the initial state leaves the stem
set E[inv U recur] of one νZ iteration's candidate region ``recur``:
the region only shrinks, so no later stem set holds the initial state
again.

``solve_explicit`` computes the winning region of the full objective by
literal fixpoint iteration over enumerated states; it is the reference
implementation the symbolic game solver is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aiger import AigerDoc, evaluate_vars, lit_var, values_lit
from .bdd import BddRef
from .game import encode


class McError(Exception):
    pass


# traces ----------------------------------------------------------------


@dataclass
class Trace:
    input_names: list[str]
    latch_names: list[str]
    steps: list[tuple[tuple[bool, ...], tuple[bool, ...]]]
    loop_start: int | None = None

    def render(self) -> str:
        lines = ["# inputs: " + " ".join(self.input_names),
                 "# latches: " + " ".join(self.latch_names)]
        for i, (inputs, latches) in enumerate(self.steps):
            if self.loop_start is not None and i == self.loop_start:
                lines.append("# loop:")
            lines.append("".join("1" if b else "0" for b in inputs) + " " +
                         "".join("1" if b else "0" for b in latches))
        return "\n".join(lines) + "\n"


@dataclass
class CheckResult:
    holds: bool
    trace: Trace | None = None


@dataclass
class FairResult:
    found: bool
    trace: Trace | None = None


# symbolic machinery ------------------------------------------------------


class _SymbolicModel:
    """State space over the latches; all inputs quantified existentially.

    The encoding is ``game.encode``, so the inputs sit above the latches.
    """

    def __init__(self, doc: AigerDoc):
        self.doc = doc
        enc = encode(doc)
        self.mgr = enc.mgr
        self.latch_levels = enc.latch_levels
        self.input_levels = enc.input_levels  # doc order: trace columns
        self.delta = enc.delta
        self.bad, self.inv, self.just = enc.bad, enc.inv, enc.just
        self.init_state = tuple(False for _ in doc.latches)

    # state/set helpers

    def state_cube(self, state: tuple[bool, ...]) -> BddRef:
        cube = self.mgr.true
        for lvl, bit in zip(self.latch_levels, state):
            v = self.mgr.var(lvl)
            cube = cube & (v if bit else ~v)
        return cube

    def contains(self, region: BddRef, state: tuple[bool, ...]) -> bool:
        assignment = dict(zip(self.latch_levels, state))
        for lvl in self.input_levels:
            assignment[lvl] = False
        return region.evaluate(assignment)

    def pre_exists(self, region: BddRef, step_pred: BddRef) -> BddRef:
        """States with an input making step_pred hold and moving into region."""
        moved = region.compose(self.delta)
        return (step_pred & moved).exists(self.input_levels)

    def now_exists(self, pred: BddRef) -> BddRef:
        return pred.exists(self.input_levels)

    def pick_input(self, state: tuple[bool, ...], pred: BddRef) -> tuple[bool, ...]:
        """A deterministic input assignment satisfying pred at state."""
        constrained = self.state_cube(state) & pred
        sat = constrained.sat_one()
        if sat is None:
            raise McError("internal: no input choice where one was promised")
        return tuple(bool(sat.get(lvl, False)) for lvl in self.input_levels)

    def step(self, state: tuple[bool, ...], inputs: tuple[bool, ...]) -> tuple[bool, ...]:
        values = evaluate_vars(self.doc, state, inputs)
        return tuple(values_lit(values, nxt) for _, nxt, _ in self.doc.latches)

    def make_trace(self, steps, loop_start=None) -> Trace:
        return Trace(input_names=self.doc.input_names(),
                     latch_names=self.doc.latch_names(),
                     steps=steps, loop_start=loop_start)


def _rings(sm: _SymbolicModel, target: BddRef, step_pred: BddRef,
           until: tuple[bool, ...] | None = None) -> list[BddRef]:
    """Cumulative backward layers of target under step_pred-steps.

    With ``until``, stops at the first ring containing that state: a walk
    from it reads no ring beyond the first one that holds it.
    """
    rings = [target]
    while until is None or not sm.contains(rings[-1], until):
        nxt = rings[-1] | sm.pre_exists(rings[-1], step_pred)
        if nxt == rings[-1]:
            break
        rings.append(nxt)
    return rings


def _walk_to_ring0(sm: _SymbolicModel, rings: list[BddRef],
                   state: tuple[bool, ...], step_pred: BddRef, steps: list):
    """Drive the state into rings[0]; appends steps, returns the new state."""
    level = next(i for i in range(len(rings)) if sm.contains(rings[i], state))
    while level > 0:
        moved = rings[level - 1].compose(sm.delta)
        inputs = sm.pick_input(state, step_pred & moved)
        steps.append((inputs, state))
        state = sm.step(state, inputs)
        level -= 1
        while level > 0 and sm.contains(rings[level - 1], state):
            level -= 1
    return state


def check_safety(doc: AigerDoc) -> CheckResult:
    """Search for a finite violation of the weak-until safety part.

    The backward rings stop at the first one holding the initial state;
    the counterexample walks down from that ring, so it is a shortest one
    and needs no ring beyond it.
    """
    sm = _SymbolicModel(doc)
    violate_now = sm.now_exists(sm.inv & sm.bad)
    rings = _rings(sm, violate_now, sm.inv, sm.init_state)
    if not sm.contains(rings[-1], sm.init_state):
        return CheckResult(holds=True)
    steps: list = []
    state = _walk_to_ring0(sm, rings, sm.init_state, sm.inv, steps)
    inputs = sm.pick_input(state, sm.inv & sm.bad)
    steps.append((inputs, state))
    return CheckResult(holds=False, trace=sm.make_trace(steps))


def _fair_lasso(sm: _SymbolicModel, loop_step: BddRef,
                fair_step: BddRef) -> Trace | None:
    """A reachable lasso whose loop keeps loop_step and takes a fair_step.

    fair_step must imply loop_step.  Emerson-Lei fair-cycle search
    (Emerson & Lei, LICS 1986): ``recur`` is the greatest set of states
    with a fair_step into states that reach ``recur`` again by loop_step
    steps.  The stem keeps the constraints up to ``recur``; each turn of
    the loop takes a fair_step and walks back into ``recur``.  Returns
    None when no such lasso starts in the initial state.

    Stop rule: ``recur`` only shrinks from one νZ iteration to the next,
    and so does its stem set E[inv U recur].  Each iteration takes the
    stem rings after the loop rings and returns None once the initial
    state is outside them.  When loop_step is ``sm.inv`` the stem rings
    are a prefix of the loop rings, so they come from the cache.  The
    rings of the last iteration are those of the final ``recur``.
    """
    recur = sm.mgr.true
    while True:
        loop = _rings(sm, recur, loop_step)
        stem = _rings(sm, recur, sm.inv, sm.init_state)
        if not sm.contains(stem[-1], sm.init_state):
            return None
        nxt = sm.pre_exists(loop[-1], fair_step)
        if nxt == recur:
            break
        recur = nxt
    steps: list = []
    state = _walk_to_ring0(sm, stem, sm.init_state, sm.inv, steps)
    seen: dict[tuple[bool, ...], int] = {}
    while state not in seen:
        seen[state] = len(steps)
        inputs = sm.pick_input(state, fair_step & loop[-1].compose(sm.delta))
        steps.append((inputs, state))
        state = _walk_to_ring0(sm, loop, sm.step(state, inputs), loop_step,
                               steps)
    return sm.make_trace(steps, loop_start=seen[state])


def check_justice_universal(doc: AigerDoc) -> CheckResult:
    """Search for a lasso with constraints forever and justice finitely often.

    Vacuously holds without a justice section.
    """
    if not doc.justice:
        return CheckResult(holds=True)
    sm = _SymbolicModel(doc)
    quiet = sm.inv & ~sm.just
    trace = _fair_lasso(sm, quiet, quiet)
    return CheckResult(holds=trace is None, trace=trace)


def find_fair_trace(doc: AigerDoc) -> FairResult:
    """Plain AIGER fair-trace search: GF justice under G constraints."""
    if not doc.justice:
        return FairResult(found=False)
    sm = _SymbolicModel(doc)
    trace = _fair_lasso(sm, sm.inv, sm.inv & sm.just)
    return FairResult(found=trace is not None, trace=trace)


# explicit-state oracle ----------------------------------------------------


@dataclass
class ExplicitResult:
    latch_names: list[str]
    states: np.ndarray          # sorted int64 state codes
    winning: np.ndarray         # bool per state
    realizable: bool
    mode: str

    def winning_set(self) -> set[int]:
        return set(int(s) for s in self.states[self.winning])

    def is_winning(self, state_code: int) -> bool:
        idx = int(np.searchsorted(self.states, state_code))
        if idx >= len(self.states) or self.states[idx] != state_code:
            return False
        return bool(self.winning[idx])


class _ExplicitCircuit:
    """Vectorized evaluation of a document over batches of state codes."""

    def __init__(self, doc: AigerDoc):
        self.doc = doc
        self.latch_bit = {lit_var(lit): i
                          for i, (lit, _, _) in enumerate(doc.latches)}
        u_inputs = [lit for lit, _ in doc.uncontrollable_inputs()]
        c_inputs = [lit for lit, _ in doc.controllable_inputs()]
        self.nu = len(u_inputs)
        self.nc = len(c_inputs)
        # combo index = u_value * 2^nc + c_value
        self.input_bit = {}
        for i, lit in enumerate(u_inputs):
            self.input_bit[lit_var(lit)] = self.nc + i
        for i, lit in enumerate(c_inputs):
            self.input_bit[lit_var(lit)] = i
        self.n_combos = 1 << (self.nu + self.nc)
        if doc.fmt == "old":
            self.bad_lits = [lit for lit, _ in doc.outputs]
            self.constraint_lits = []
            self.just_lit = None
        else:
            self.bad_lits = [lit for lit, _ in doc.bad]
            self.constraint_lits = [lit for lit, _ in doc.constraints]
            self.just_lit = doc.justice_literal()

    def eval_combo(self, states: np.ndarray, combo: int) -> dict[int, np.ndarray]:
        """Values of every variable as bool arrays over the state batch."""
        values: dict[int, np.ndarray] = {0: np.zeros(len(states), dtype=bool)}
        for var, bit in self.latch_bit.items():
            values[var] = ((states >> bit) & 1).astype(bool)
        for var, bit in self.input_bit.items():
            values[var] = np.full(len(states), bool((combo >> bit) & 1))
        for var, rhs0, rhs1 in self.doc.aig.nodes():
            v0 = values[lit_var(rhs0)]
            if rhs0 & 1:
                v0 = ~v0
            v1 = values[lit_var(rhs1)]
            if rhs1 & 1:
                v1 = ~v1
            values[var] = v0 & v1
        return values

    @staticmethod
    def _lit_array(values: dict[int, np.ndarray], lit: int) -> np.ndarray:
        arr = values[lit_var(lit)]
        return ~arr if lit & 1 else arr

    _CHUNK = 1 << 15

    def step_table(self, states: np.ndarray):
        """(next_code, bad, inv, just) arrays of shape [n_combos, len(states)].

        Evaluation runs in state chunks to bound transient memory.
        """
        n = len(states)
        next_code = np.zeros((self.n_combos, n), dtype=np.int64)
        bad = np.zeros((self.n_combos, n), dtype=bool)
        inv = np.ones((self.n_combos, n), dtype=bool)
        just = np.ones((self.n_combos, n), dtype=bool)
        for start in range(0, n, self._CHUNK):
            chunk = states[start:start + self._CHUNK]
            sl = slice(start, start + len(chunk))
            for combo in range(self.n_combos):
                values = self.eval_combo(chunk, combo)
                code = np.zeros(len(chunk), dtype=np.int64)
                for i, (_, next_lit, _) in enumerate(self.doc.latches):
                    code |= self._lit_array(values, next_lit).astype(np.int64) << i
                next_code[combo, sl] = code
                acc = np.zeros(len(chunk), dtype=bool)
                for lit in self.bad_lits:
                    acc |= self._lit_array(values, lit)
                bad[combo, sl] = acc
                acc = np.ones(len(chunk), dtype=bool)
                for lit in self.constraint_lits:
                    acc &= self._lit_array(values, lit)
                inv[combo, sl] = acc
                if self.just_lit is not None:
                    just[combo, sl] = self._lit_array(values, self.just_lit)
        return next_code, bad, inv, just


def _discover_states(circ: _ExplicitCircuit, max_states: int,
                     safe_only: bool) -> np.ndarray:
    known = np.array([0], dtype=np.int64)
    frontier = known
    while len(frontier):
        next_code, bad, inv, just = circ.step_table(frontier)
        if safe_only:
            # moves on which the output fires lose immediately; their
            # successors cannot matter for the verdict
            successors = next_code[~bad]
        else:
            successors = next_code.reshape(-1)
        new = np.setdiff1d(np.unique(successors), known, assume_unique=False)
        if len(new) == 0:
            break
        known = np.union1d(known, new)
        if len(known) > max_states:
            raise McError(
                f"state space too large: more than {max_states} reachable states")
        frontier = new
    return known


def solve_explicit(doc: AigerDoc, max_states: int = 4096,
                   mode: str = "full") -> ExplicitResult:
    """Winning region of the full objective by explicit fixpoint iteration.

    ``mode``: "full" enumerates every latch valuation, "reachable"
    restricts to states reachable under arbitrary play, and
    "safe_reachable" (old format only) additionally stops exploring
    behind output-raising moves; all three agree on the verdict at the
    initial state.
    """
    circ = _ExplicitCircuit(doc)
    n_latches = len(doc.latches)
    if mode == "full":
        if (1 << n_latches) > max_states:
            raise McError(
                f"state space too large: 2^{n_latches} states exceeds {max_states}")
        states = np.arange(1 << n_latches, dtype=np.int64)
    elif mode == "reachable":
        states = _discover_states(circ, max_states, safe_only=False)
    elif mode == "safe_reachable":
        if doc.fmt != "old":
            raise McError("safe_reachable mode applies to old-format documents")
        states = _discover_states(circ, max_states, safe_only=True)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    next_code, bad, inv, just = circ.step_table(states)
    next_idx = np.searchsorted(states, next_code)
    # successors outside the enumerated set only occur behind losing moves
    outside = (next_idx >= len(states)) | (states[np.minimum(
        next_idx, len(states) - 1)] != next_code)
    next_idx = np.minimum(next_idx, len(states) - 1).astype(np.int32)

    if circ.just_lit is None:
        just_state = np.ones(len(states), dtype=bool)
    else:
        if not (just == just[0]).all():
            raise McError(
                "justice literal depends on inputs; delay it into a latch first")
        just_state = just[0]

    shape = (1 << circ.nu, 1 << circ.nc, len(states))
    next_idx = next_idx.reshape(shape)
    bad = bad.reshape(shape)
    inv = inv.reshape(shape)
    outside = outside.reshape(shape)

    def cpre(target: np.ndarray) -> np.ndarray:
        tgt = target[next_idx] & ~outside
        ok = ~inv | (~bad & tgt)
        return ok.any(axis=1).all(axis=0)

    z = np.ones(len(states), dtype=bool)
    while True:
        core = just_state & z
        y = np.zeros(len(states), dtype=bool)
        while True:
            y_next = cpre(core | y)
            if (y_next == y).all():
                break
            y = y_next
        if (y == z).all():
            break
        z = y

    init_idx = int(np.searchsorted(states, 0))
    realizable = bool(states[init_idx] == 0 and z[init_idx])
    return ExplicitResult(latch_names=doc.latch_names(), states=states,
                          winning=z, realizable=realizable, mode=mode)
