"""Model checking of AIGER documents.

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
ring and reads none beyond it.  The safety search stops one pre-image
earlier: before it takes the pre-image of a frontier of
``bdd.SMALL_DIAGRAM_NODES`` (64) nodes or more, it asks whether the
initial state has a step into the frontier, with the step predicate
and δ specialized to that state, so the question is a diagram over the
inputs and cuts alone.  A step exists exactly when the next ring holds
the state, so the search stops where it would have, without building
that ring, the largest of the search; the trace's first step takes its
inputs from the specialized predicate, with the same choices.  Smaller
frontiers are not tested, since there the test costs more kernel calls
than the pre-image it saves.  The stem searches of the justice
readings keep the plain rule: they either never reach the initial
state or take their rings from the cache, so the test would only add
work.  The fair-cycle search of both justice
readings returns "no trace" as soon as the initial state leaves the stem
set E[inv U recur] of one νZ iteration's candidate region ``recur``:
the region only shrinks, so no later stem set holds the initial state
again.

Every ring search, for safety and for both fair searches, grows each
large ring by the pre-image of its frontier: the ring restricted, with
the ``restrict`` kernel, to the states outside the ring before it
(Coudert, Berthet & Madre, 1989).  The rings are the same sets as
with full pre-images, and a trace steps from a state into the
frontier of the ring below it, which agrees with that ring on every
successor the state can have, so the traces are the same too (see
``_rings`` and ``_walk_to_ring0``).

A synthesized model names each strategy function by an output and
substitutes it into every latch that reads it, so its next-state
functions are far larger than the game's.  The checker keeps such an
output as a cut (Kuehlmann & Krohm, DAC 1997): a variable of its own,
quantified like an input, with ``c ↔ f(x, u)`` folded into ``inv``.
Since ∃c. (c ↔ f(x,u)) ∧ φ(x,u,c) ≡ φ(x,u,f(x,u)) and every step
predicate contains ``inv``, each pre-image and each ring is the same
set of states as without cuts.  The traces are the same too.
``sat_one`` walks the inputs first, since the cut levels sit below
them, and at each input takes 0 exactly when the predicate restricted
to the state so far is satisfiable with that input 0.  That question
has the same answer with or without the cuts, because the cuts are
determined by the inputs and the state, so ``pick_input`` makes the
same choices.

A model written by ``synth -o`` ends its comments with a block stating
the solver's winning region W over its latches (``game.winning_block``,
in the spirit of Certifaiger's witness circuits: Yu, Biere & Heljanko,
CAV 2021).  ``check_safety`` builds W in the model's manager, and when
the initial state is in W and ``∃(inputs, cuts). W ∧ inv ∧ (bad ∨
¬W∘δ)`` is empty, W is an inductive invariant that excludes every
violation, so safety holds and no ring is searched.  A block that is
malformed or proves nothing gets one note on stderr and the ring search
runs as without it, so no block can make a violated model hold.  The
justice checks, ``find_fair_trace`` and every violation keep their
searches.

The checks take a document or a ``_SymbolicModel`` of one; the ``mc``
command runs both universal checks on one model, so the justice check
reuses the encoding, the manager and the operation cache of the safety
check.  A check reads only the functions it builds, never node ids,
and a reduced ordered diagram is canonical, so a shared model gives
the same verdicts and traces as a model per check.

The oracle ``solve_explicit`` lives in ``aigsynt.oracle``; the name
``aigsynt.mc.solve_explicit`` still resolves to it, on first use, so
that importing this module does not import numpy.
"""

from __future__ import annotations

import logging
import sys
from dataclasses import dataclass
from typing import NamedTuple

from .aiger import AigerDoc, evaluate_vars, lit_var, values_lit
from .bdd import SMALL_DIAGRAM_NODES, BddRef, Substitution, frontier
from .game import Encoding, GameError, read_winning_block

log = logging.getLogger(__name__)


class McError(Exception):
    pass


def __getattr__(name: str):
    if name == "solve_explicit":
        from .oracle import solve_explicit
        return solve_explicit
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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


def _cut_vars(doc: AigerDoc, read: set[int] | None = None) -> list[int]:
    """The AND gates named by outputs that a checked function reads.

    In output order, each gate once.  Old-format outputs are the bad
    signals themselves, so they get no cuts.  ``read`` is the cone of
    ``doc.root_lits()``, computed here when not given.
    """
    if doc.fmt == "old":
        return []
    gates = [var for var in dict.fromkeys(lit_var(lit) for lit, _ in doc.outputs)
             if doc.aig.is_and(var)]
    if not gates:
        return []
    if read is None:
        read = doc.aig.cone(doc.root_lits())
    return [var for var in gates if var in read]


class _SymbolicModel(Encoding):
    """State space over the latches; all inputs quantified existentially.

    The encoding is ``game.Encoding`` with the outputs' gates cut, so
    the inputs sit above the cuts and the cuts above the latches.
    ``inv`` includes the cuts' definitions, and every ∃inputs also
    quantifies the cuts.
    """

    def __init__(self, doc: AigerDoc):
        read = doc.aig.cone(doc.root_lits())  # one cone for cuts and gates
        super().__init__(doc, _cut_vars(doc, read), read)
        self.init_state = tuple(False for _ in doc.latches)

    # state/set helpers

    def state_cube(self, state: tuple[bool, ...]) -> BddRef:
        return self.mgr.cube(dict(zip(self.latch_levels, state)))

    def contains(self, region: BddRef, state: tuple[bool, ...]) -> bool:
        assignment = dict(zip(self.latch_levels, state))
        for lvl in self.input_levels:
            assignment[lvl] = False
        return region.evaluate(assignment)

    def pre_exists(self, region: BddRef, step_pred: BddRef) -> BddRef:
        """States with an input making step_pred hold and moving into region."""
        moved = region.compose(self.delta)
        return (step_pred & moved).exists(self.quantified)

    def now_exists(self, pred: BddRef) -> BddRef:
        return pred.exists(self.quantified)

    def at_state(self, state: tuple[bool, ...], step_pred: BddRef
                 ) -> tuple[BddRef, Substitution]:
        """step_pred and δ with the state's latch values substituted.

        Both then read only inputs and cuts, so ``F.compose(delta)`` is
        ``F∘δ`` at the state, a small diagram for any set F of states.
        """
        mgr = self.mgr
        values = Substitution(mgr, {
            lvl: mgr.true if value else mgr.false
            for lvl, value in zip(self.latch_levels, state)})
        delta = Substitution(mgr, {lvl: func.compose(values)
                                   for lvl, func in self.delta.items()})
        return step_pred.compose(values), delta

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


class _Rings(NamedTuple):
    """The rings and frontiers ``_rings`` built, and where it found its
    ``until`` state: ``found`` is the first ring holding it, or
    ``len(rings)`` when it has a step into ``fronts[-1]``, or None when
    the search never reached it.  In the second case ``first_step`` is
    the predicate of that step at the state (``_SymbolicModel.at_state``)."""
    rings: list[BddRef]
    fronts: list[BddRef]
    found: int | None
    first_step: BddRef | None = None


def _rings(sm: _SymbolicModel, target: BddRef, step_pred: BddRef,
           until: tuple[bool, ...] | None = None,
           one_step: bool = False) -> _Rings:
    """Cumulative backward layers of target under step_pred-steps, and
    the frontiers ``F`` their pre-images were taken of.

    With ``until``, stops at the first ring containing that state: a walk
    from it reads no ring beyond the first one that holds it.

    With ``one_step`` as well, it stops one pre-image earlier.  Before
    taking the pre-image of a frontier ``F[i]``, it asks whether the
    state has a step_pred step into ``F[i]``: step_pred and δ
    specialized to the state (``_SymbolicModel.at_state``, once per
    search) and ``F[i]`` composed through that δ read only inputs and
    cuts, so the question costs a tiny diagram, where the pre-image is
    the largest of the search.  A step exists exactly when the state is
    in ``ring[i] ∨ pre(F[i])``, the next ring, so the search stops where
    it would without the test.  A frontier of fewer than
    ``bdd.SMALL_DIAGRAM_NODES`` nodes is not tested: its pre-image is
    cheap, and on small models the tests cost more kernel calls than the
    pre-images they save.  Only ``check_safety`` asks for the test; the
    stem searches of ``_fair_lasso`` either never reach the initial state
    or take their rings from the cache, so there it saves nothing.

    Each pre-image is taken of the frontier ``F[i] =
    frontier(ring[i], ring[i-1])`` (``bdd.frontier``: the ring
    restricted to the states outside ``ring[i-1]`` where that pays, else
    the ring), and ``F[0]`` is ``ring[0]``.  ``F[i]`` lies between
    ``ring[i] ∧ ¬ring[i-1]`` and ``ring[i]``; ``pre`` distributes over
    ∨ and ``pre(ring[i-1]) ⊆ ring[i]``, so ``ring[i] ∨ pre(F[i])`` is
    ``ring[i] ∨ pre(ring[i])``, the same ring as without frontiers.
    ``F[i]`` is built only when the next pre-image needs it, so a
    search that stops at ``until`` never builds the last one.
    """
    rings = [target]
    fronts: list[BddRef] = []
    at_until = None  # step_pred and δ at until, made for the first test
    while True:
        if until is not None and sm.contains(rings[-1], until):
            return _Rings(rings, fronts, len(rings) - 1)
        front = (frontier(rings[-1], rings[-2]) if len(rings) > 1
                 else rings[-1])
        fronts.append(front)
        if one_step and front.dag_size() >= SMALL_DIAGRAM_NODES:
            if at_until is None:
                at_until = sm.at_state(until, step_pred)
            pred, delta = at_until
            first_step = pred & front.compose(delta)
            if not first_step.is_false:
                return _Rings(rings, fronts, len(rings), first_step)
        nxt = rings[-1] | sm.pre_exists(front, step_pred)
        if nxt == rings[-1]:
            return _Rings(rings, fronts, None)
        rings.append(nxt)


def _walk_to_ring0(sm: _SymbolicModel, search: _Rings,
                   state: tuple[bool, ...], step_pred: BddRef, steps: list,
                   level: int | None = None):
    """Drive the state into rings[0]; appends steps, returns the new state.

    ``level`` is the first ring holding the state, or ``search.found``
    for the state ``_rings`` searched for; it is computed when None.

    A state first in ring ``l`` moves into the frontier ``F[l-1]``,
    which ``_rings`` built already, not into the full ring ``l-1``.
    The input predicate at that state is the same function: the state
    lies outside ``ring[l-1] ⊇ pre(ring[l-2])``, so none of its
    step_pred-successors lies in ``ring[l-2]``, and outside
    ``ring[l-2]`` the frontier agrees with ``ring[l-1]``.  So
    ``pick_input`` makes the same choices and the trace is the same.
    The same argument puts the successor first in ring ``l-1``, so each
    step lowers the level by exactly one and no ring is tested again.

    A state that ``_rings`` found by its one-step test, with a step into
    the last frontier ``F`` (``level == len(rings)``; only
    ``check_safety`` asks for the test, and only on frontiers of
    ``bdd.SMALL_DIAGRAM_NODES`` nodes or more, so a stem walk never
    starts there), takes its first step from ``search.first_step``.
    That predicate is ``state_cube ∧ step_pred ∧ F∘δ`` with the state's
    latches substituted, and the inputs sit above the latches, so
    ``pick_input`` chooses the same inputs from it as from ``step_pred
    ∧ F∘δ``.  The later steps compose frontiers that the search
    composed already, from the cache.
    """
    rings, fronts = search.rings, search.fronts
    if level is None:
        level = next(i for i in range(len(rings))
                     if sm.contains(rings[i], state))
    while level > 0:
        if level == len(rings):
            pred = search.first_step
        else:
            pred = step_pred & fronts[level - 1].compose(sm.delta)
        inputs = sm.pick_input(state, pred)
        steps.append((inputs, state))
        state = sm.step(state, inputs)
        level -= 1
    return state


def _model(doc: AigerDoc | _SymbolicModel) -> _SymbolicModel:
    return doc if isinstance(doc, _SymbolicModel) else _SymbolicModel(doc)


def _block_proves_safety(sm: _SymbolicModel) -> bool:
    """Whether the document's winning-region block proves safety.

    The block states a set W of states (``game.winning_block``).  W
    proves safety when the initial state is in W and ``∃(inputs, cuts).
    W ∧ inv ∧ (bad ∨ ¬W∘δ)`` is empty: a step from W that keeps the
    constraints raises no bad and stays in W, so no trace keeping them
    from the initial state ever raises bad.  That holds for any W, so a
    block cannot make a violated model hold.  A block that is malformed
    or proves nothing gets one note on stderr; without a block, or
    after the note, the caller searches.
    """
    try:
        winning = read_winning_block(sm)
    except GameError as exc:
        reason = str(exc)
    else:
        if winning is None:
            return False
        if not sm.contains(winning, sm.init_state):
            reason = "the initial state is outside W"
        elif not sm.now_exists(winning & sm.inv & (
                sm.bad | ~winning.compose(sm.delta))).is_false:
            reason = "W is not closed under steps that keep the constraints"
        else:
            return True
    print(f"note: winning-region block not used: {reason}; searching instead",
          file=sys.stderr)
    return False


def check_safety(doc: AigerDoc | _SymbolicModel) -> CheckResult:
    """Search for a finite violation of the weak-until safety part.

    ``doc`` is a document or a model built from one.

    A synthesized model carries its winning region W in a block of its
    comments, and when W proves safety (``_block_proves_safety``) no
    search runs.  Otherwise the backward rings stop at the first one
    holding the initial state; the counterexample walks down from that
    ring, so it is a shortest one and needs no ring beyond it.  That
    last ring is not built either: before each pre-image of a frontier
    of ``bdd.SMALL_DIAGRAM_NODES`` nodes or more, the search asks
    whether the initial state has a step into the frontier, with step
    predicate and δ specialized to that state (``_rings``), and the
    counterexample's first step takes its inputs from that test.
    Smaller frontiers take their pre-images untested, and the justice
    checks' stem searches never test: there the test costs more than it
    saves.  At debug level the search logs the rings it built, the
    pre-images it took and whether the one-step test stopped it.
    """
    sm = _model(doc)
    if _block_proves_safety(sm):
        return CheckResult(holds=True)
    violate_now = sm.now_exists(sm.inv & sm.bad)
    search = _rings(sm, violate_now, sm.inv, sm.init_state, one_step=True)
    stepped = search.found == len(search.rings)
    log.debug("check_safety: %d rings, %d pre-images, one-step stop: %s",
              len(search.rings), len(search.fronts) - stepped,
              "yes" if stepped else "no")
    if search.found is None:
        return CheckResult(holds=True)
    steps: list = []
    state = _walk_to_ring0(sm, search, sm.init_state, sm.inv, steps,
                           search.found)
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
        if stem.found is None:
            return None
        nxt = sm.pre_exists(loop.rings[-1], fair_step)
        if nxt == recur:
            break
        recur = nxt
    steps: list = []
    state = _walk_to_ring0(sm, stem, sm.init_state, sm.inv, steps, stem.found)
    seen: dict[tuple[bool, ...], int] = {}
    while state not in seen:
        seen[state] = len(steps)
        inputs = sm.pick_input(state,
                               fair_step & loop.rings[-1].compose(sm.delta))
        steps.append((inputs, state))
        state = _walk_to_ring0(sm, loop, sm.step(state, inputs), loop_step,
                               steps)
    return sm.make_trace(steps, loop_start=seen[state])


def check_justice_universal(doc: AigerDoc | _SymbolicModel) -> CheckResult:
    """Search for a lasso with constraints forever and justice finitely often.

    Vacuously holds without a justice section.  ``doc`` is a document
    or a model, as for ``check_safety``.
    """
    source = doc.doc if isinstance(doc, _SymbolicModel) else doc
    if not source.justice:
        return CheckResult(holds=True)
    sm = _model(doc)
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
