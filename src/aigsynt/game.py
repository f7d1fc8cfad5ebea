"""Symbolic Mealy games over AIGER documents and strategy extraction.

The objective is the conjunction of a weak-until safety part and an
invariant-relativized recurrence part: the system loses a play iff bad
is raised while the constraints have held at every step up to and
including that one, or the constraints hold forever while the justice
literal is raised only finitely often.  The environment moves first
(Mealy), so the controllable predecessor quantifies controllables
existentially inside a universal over uncontrollables; a step where the
constraints fail is immediately winning for the system even if bad is
raised at the same step.

A game owns one decision-diagram manager and solves single-threaded;
independent games may run in parallel on their own managers.

``Encoding`` is the one symbolic model of a document, shared by the
game solver and the model checker.  Its static variable order is
input-first: uncontrollable inputs, then controllable inputs, then
latches; the model checker's cut variables sit between the inputs and
the latches.  Every fixpoint step quantifies the inputs out of a one-step
formula (``∃C ∀U`` in ``cpre``, ``∃inputs`` in the model checker); with
the quantified inputs on top, that strips the top of each diagram and
keeps the latch functions below it shared, where a latches-first order
rebuilds every diagram down to its input levels.

The solver's path is ``solve`` → ``move_relation`` → ``extract_strategy``.
Each μY pass of ``solve`` is kept on the game until the next one
(``_mu_steps``); the last is the pass over the winning region, and
``move_relation`` reads its layers, so extraction runs no pass.

``synthesize`` writes the winning region W into the model it returns,
as a block at the end of the AIGER comments: ``winning_block`` writes
it and ``read_winning_block`` reads it, side by side below, and the
model checker proves safety with it (see ``mc``).  The block adds no
gate and no symbol, and other AIGER tools skip comments.  A rewrite
whose latches or properties differ from its source's (``delay_justice``,
the ``transforms`` rewrites, ``strategy_to_circuit``, which copies a
game's comments) drops the block with ``without_winning_block``, so a
document never carries a stale or a second one.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Sequence

from .aiger import AigerDoc, CONTROLLABLE_PREFIX, TwoLevelAig, \
    is_controllable, lit_var, read_number, sweep
from .bdd import BddManager, BddRef, Substitution, frontier, postorder, \
    sift

log = logging.getLogger(__name__)


class GameError(Exception):
    pass


DELAY_LATCH_NAME = "__just_delay"


def justice_depends_on_inputs(doc: AigerDoc) -> bool:
    jlit = doc.justice_literal()
    if jlit is None:
        return False
    cone = doc.aig.cone([jlit])
    return any(lit_var(lit) in cone for lit, _ in doc.inputs)


def delay_justice(doc: AigerDoc) -> AigerDoc:
    """Route the justice literal through a fresh latch so it is state-based.

    Recurring infinitely often is insensitive to a one-step delay.  The
    delay latch observes the others, so it is listed first.
    """
    jlit = doc.justice_literal()
    if jlit is None:
        raise GameError("document has no justice literal to delay")
    new = doc.copy(latches=[], justice=[],
                   comments=without_winning_block(doc.comments))
    lit = new.add_latch(DELAY_LATCH_NAME, next_lit=jlit)
    new.latches += doc.latches
    new.justice.append(([lit], doc.justice[0][1]))
    new.validate()
    return new


class Encoding:
    """One document's symbolic model on its own manager.

    The game solver and the model checker both read a document through
    this class.  Levels are allocated input-first: uncontrollable
    inputs, then controllable inputs, then cuts, then latches; inputs
    and latches in document order, cuts in the order given (see the
    module docstring for why).

    Latch levels follow document order, so the document fixes the latch
    order.  Producers list observers first: ``compile_model`` puts the
    monitor latches above the model's, and every rewrite in
    ``transforms`` and ``delay_justice`` puts its added latches above
    the copied ones.  An observer has few modes; on top it splits each
    diagram into a few branches sharing the observed design's
    sub-diagrams, where below them it would leave its own copy of its
    function at the end of every path through the design.

    One loop translates the gates in the cone of ``doc.root_lits()`` in
    definition order (topological, see ``validate``), never recursing.
    A caller that has that cone already passes it as ``read``.

    Each AND-gate variable in ``cut_vars`` (all in that cone) gets its
    own level, a cut, right below the inputs: every function above reads
    the cut instead of the gate's cone, and ``inv`` includes ``cut ↔
    gate function`` for each cut, built with the cuts mapped so that
    nested cuts are defined over each other.  ``quantified`` lists the
    inputs, then the cuts.  With no cuts the levels are those of the
    plain encoding.

    ``bad``, ``inv`` and ``just`` read ``doc.checked_lits()``; without
    a justice literal ``just`` is true, as the game reads it.
    ``_last_pass`` is the solver's one slot: the μY pass ``_mu_steps``
    ran last, None before the first.
    """

    def __init__(self, doc: AigerDoc, cut_vars: Sequence[int] = (),
                 read: set[int] | None = None):
        self.doc = doc
        self.mgr = mgr = BddManager()
        refs: dict[int, BddRef] = {0: mgr.false}  # AIG literal -> variable
        controllable = [is_controllable(name) for _, name in doc.inputs]
        self.input_levels = [0] * len(doc.inputs)  # in doc.inputs order
        # a stable sort keeps document order within each group
        for i in sorted(range(len(doc.inputs)), key=controllable.__getitem__):
            refs[doc.inputs[i][0]] = ref = mgr.add_var()
            self.input_levels[i] = ref.level
        self.u_levels = [lvl for lvl, c in zip(self.input_levels, controllable)
                         if not c]
        self.c_levels = [lvl for lvl, c in zip(self.input_levels, controllable)
                         if c]
        self.quantified = list(self.input_levels)
        for var in cut_vars:
            refs[2 * var] = ref = mgr.add_var()
            self.quantified.append(ref.level)
        self.latch_levels = []  # in doc.latches order
        for lit, _, _ in doc.latches:
            refs[lit] = ref = mgr.add_var()
            self.latch_levels.append(ref.level)

        # gates as node ids: a handle per gate is slower on large circuits
        nodes = {literal: ref.node for literal, ref in refs.items()}

        def node(literal: int) -> int:
            n = nodes.get(literal)
            if n is None:  # a negation, made on first use
                n = nodes[literal] = mgr._neg(nodes[literal ^ 1])
            return n

        if read is None:
            read = doc.aig.cone(doc.root_lits())
        cut_funcs: dict[int, int] = {}
        for var, rhs0, rhs1 in doc.aig.nodes():
            if var in read:
                func = mgr._ite(node(rhs0), node(rhs1), 0)
                if 2 * var in nodes:  # a cut keeps its own variable
                    cut_funcs[var] = func
                else:
                    nodes[2 * var] = func
        define = mgr.true
        for var in cut_vars:  # cut order, whatever the gates' order
            define = define & ~(refs[2 * var] ^ BddRef(mgr, cut_funcs[var]))
        # latch level -> next-state function over (L, U, C)
        self.delta = Substitution(mgr, {
            lvl: BddRef(mgr, node(next_lit))
            for (_, next_lit, _), lvl in zip(doc.latches, self.latch_levels)})
        bad_lits, constraint_lits, jlit = doc.checked_lits()
        self.bad = mgr.false
        for lit in bad_lits:
            self.bad = self.bad | BddRef(mgr, node(lit))
        inv = mgr.true
        for lit in constraint_lits:
            inv = inv & BddRef(mgr, node(lit))
        self.just = mgr.true if jlit is None else BddRef(mgr, node(jlit))
        self.inv = inv & define
        # (z, steps) of the last μY pass
        self._last_pass: tuple[BddRef, list[_Step]] | None = None


def build_game(doc: AigerDoc) -> Encoding:
    """Interpret a document as a game; inputs partition by name prefix.

    Old-format documents play the pure safety game over the disjunction
    of their outputs.  If the justice cone touches input variables the
    document is first rewritten with a delay latch, so ``just`` is a
    state predicate; the game carries the rewritten document.
    """
    if justice_depends_on_inputs(doc):
        doc = delay_justice(doc)
    return Encoding(doc)


def cpre(game: Encoding, target: BddRef,
         escape: BddRef | None = None) -> BddRef:
    """States from which, for every environment move, some system move
    either discharges the constraints now or avoids bad and enters the
    target.

    That is ``∀U E`` with ``E = ∃C (¬inv ∨ (¬bad ∧ target∘δ))``, the
    escape of the target: the pairs of a state and an environment move
    that some system move answers.  With ``escape`` the caller passes
    the escape of a set T it took a step toward already, and the result
    is the predecessor of ``T ∨ target``.  Composition and ∃ distribute
    over ∨, so the escape of ``T ∨ target`` is ``escape ∨ ∃C (¬bad ∧
    target∘δ)``: only ``target`` is composed and ∃C-quantified, and it
    may overlap T.  ∀U does not distribute over ∨ and runs on the whole
    escape.
    """
    return _escape(game, target.compose(game.delta), escape) \
        .forall(game.u_levels)


def _escape(game: Encoding, moved: BddRef,
            escape: BddRef | None = None) -> BddRef:
    """The escape of a target whose composition through δ is ``moved``,
    joined with ``escape``, the escape of another target (see ``cpre``)."""
    if escape is None:
        return (~game.inv | (~game.bad & moved)).exists(game.c_levels)
    return escape | (~game.bad & moved).exists(game.c_levels)


def solve(game: Encoding) -> BddRef:
    """Winning region of the recurrence objective.

    Greatest fixpoint over Z of the least fixpoint over Y of
    cpre((just and Z) or Y); each pass over Z is ``mu_levels(game, z)``.
    With a trivial justice literal this degenerates to the pure safety
    fixpoint.  Each pass is kept on the game until the next one
    (``_mu_steps``): the next pass folds ``Z∘δ`` from the kept frontier
    compositions, and the last one, the pass over the region returned,
    holds the layers ``move_relation`` ranks moves by.  At debug level
    each pass logs its μY iteration count, the node count, the sizes of
    the young and old ``ite`` caches, and how many μY steps took a
    restricted frontier, with the node counts of those frontiers against
    those of their levels, all read off the kept pass.

    Each pass ages the manager's ``ite`` cache as it starts, and ``solve``
    ages it once more before it returns: extraction reads mostly what
    the last pass made, so the entries of the pass before it, which the
    last pass did not read, are dropped rather than kept alive.
    """
    mgr = game.mgr
    z = mgr.true
    for i in itertools.count():
        levels = mu_levels(game, z)
        if log.isEnabledFor(logging.DEBUG):
            young, old = mgr.ite_cache_sizes
            sizes = [(front.dag_size(), y.dag_size())
                     for y, front, _ in game._last_pass[1][1:] if front != y]
            log.debug("solve pass %d: %d mu iterations, %d nodes, ite cache "
                      "%d young / %d old, %d restricted frontiers of %d nodes "
                      "against %d in their levels", i, len(levels),
                      mgr.node_count, young, old, len(sizes),
                      sum(f for f, _ in sizes), sum(y for _, y in sizes))
        y = levels[-1]
        if y == z:
            mgr.age()
            return z
        z = y


# one step of a μY pass: the iterate Y_i, its frontier D_i (None for D_0,
# the core, which is never built) and D_i∘δ
_Step = tuple[BddRef, "BddRef | None", BddRef]


def _mu_steps(game: Encoding, z: BddRef) -> list[_Step]:
    """One pass of the least fixpoint of cpre((just and z) or Y).

    Returns the steps ``(Y_i, D_i, D_i∘δ)`` of the iterates, from ``Y_0``
    empty up to the fixpoint, and keeps them with z on the game in
    ``_last_pass``, replacing the pass before.  ``D_0`` is ``core = just
    ∧ z`` and ``D_{i+1}`` is ``frontier(Y_{i+1}, Y_i)`` (``bdd.frontier``),
    the states the step added, so ``M_i = D_0∘δ ∨ … ∨ D_i∘δ`` is ``(core
    ∨ Y_i)∘δ``.  The pass keeps the escape ``E_i`` of ``core ∨ Y_i`` (see
    ``cpre``) and grows it as ``E_{i+1} = E_i ∨ ∃C (¬bad ∧ D_{i+1}∘δ)``.
    Step 0 is ``Y_1 = cpre(game, ∅, E_0)``, and step i ≥ 1 the one call
    ``Y_{i+1} = cpre(game, D_i, E_{i-1})``; each is ``cpre(core ∨ Y_i)``.
    This is exact: ``Y_i ⊆ Y_{i+1}`` and ``D_{i+1}`` lies between
    ``Y_{i+1} ∧ ¬Y_i`` and ``Y_{i+1}``, so ``core ∨ Y_i ∨ D_{i+1}`` is
    ``core ∨ Y_{i+1}``, and composition and ∃ distribute over ∨.  Every
    iterate is the same function, hence the same node, as with whole
    targets.

    The core itself is never built or composed.  Composition distributes
    over ∧ and ∨ too, so ``D_0∘δ = just∘δ ∧ z∘δ``; ``just∘δ`` is made by
    the first pass and read from the manager's compose cache after it.
    A pass whose fixpoint is ``Y_n`` has ``Y_n∘δ = D_1∘δ ∨ … ∨ D_n∘δ``:
    with ``Y_0 = ∅`` those frontiers cover ``Y_n`` exactly.  So when z is
    the kept pass's fixpoint, ``z∘δ`` is that ∨ of the kept pass's
    compositions, folded once, left to right; any other z is composed
    directly.

    The pass first ages the manager's ``ite`` cache
    (``BddManager.age``): a pass reads mostly what the pass before it
    made, so an entry that neither made nor read is dropped.
    """
    mgr = game.mgr
    mgr.age()
    _, kept = game._last_pass or (None, ())
    if kept and kept[-1][0] == z:
        z_moved = mgr.false
        for _, _, moved in kept[1:]:
            z_moved = z_moved | moved
    else:
        z_moved = z.compose(game.delta)
    y = mgr.false
    moved = game.just.compose(game.delta) & z_moved  # D_0∘δ
    steps: list[_Step] = [(y, None, moved)]
    escape = _escape(game, moved)  # E_0, of core ∨ Y_0 = core
    nxt = cpre(game, y, escape)  # step 0: the target ∅ adds nothing to E_0
    while nxt != y:
        y, target = nxt, frontier(nxt, y)
        moved = target.compose(game.delta)
        steps.append((y, target, moved))
        nxt = cpre(game, target, escape)
        escape = _escape(game, moved, escape)  # the one cpre just built
    game._last_pass = z, steps
    return steps


def mu_levels(game: Encoding, z: BddRef) -> list[BddRef]:
    """Iterates of the least fixpoint of cpre((just and z) or Y).

    The list runs from empty up to the fixpoint; z may be any state set.
    Each step composes and ∃C-quantifies only the states the step before
    it added, its frontier, and grows the escape of the last step by
    them.  The pass is kept on the game (``_mu_steps``): at the winning
    region its layers are the ones ``move_relation`` ranks moves by.
    The pass ages the manager's ``ite`` cache first.
    """
    return [y for y, _, _ in _mu_steps(game, z)]


def is_realizable(game: Encoding, winning: BddRef) -> bool:
    return winning.evaluate({lvl: False for lvl in range(game.mgr.var_count)})


@dataclass
class Strategy:
    funcs: dict[str, BddRef]  # controllable input name -> function over (L, U)


def move_relation(game: Encoding, winning: BddRef) -> BddRef:
    """Nondeterministic winning moves, rank-respecting toward the justice core.

    From states in the i+1st attractor level difference the system
    moves into (just and W) or the ith level; discharged steps (inv
    false now) are always allowed.  The layers are those of the pass
    kept on the game (``_mu_steps``), which must be a pass over
    ``winning`` that reproduced it: after ``solve``, its last pass.
    Nothing is re-run; any other kept pass raises ``GameError``.

    With the pass's steps ``(Y_j, D_j, D_j∘δ)`` and ``Y_n = W``, the
    ranked moves are ``∨_{i=1..n} (Y_i ∧ ¬Y_{i-1} ∧ M_{i-1})`` with
    ``M_i = (core ∨ Y_i)∘δ = D_0∘δ ∨ … ∨ D_i∘δ``.  Gathered by frontier,
    that is ``∨_{j<n} (W ∧ ¬Y_j ∧ D_j∘δ)``, and since the ``¬Y_j`` shrink
    as j grows it is built in Horner form from the last layer down:
    ``R_n = ∅`` and ``R_j = (W ∧ ¬Y_j) ∧ (D_j∘δ ∨ R_{j+1})``, so no
    ``M_i`` is built, and neither the core nor W is composed whole.
    """
    kept_z, kept = game._last_pass or (None, ())
    if kept_z != winning or kept[-1][0] != winning:
        raise GameError("the last μY pass did not reproduce the region")
    rank_ok = game.mgr.false
    for y, _, moved in reversed(kept[:-1]):
        rank_ok = (winning & ~y) & (moved | rank_ok)
    return ~game.inv | (~game.bad & rank_ok)


def extract_strategy(game: Encoding, winning: BddRef) -> Strategy:
    """Determinize the move relation controllable by controllable.

    Each bit resolves by cofactor comparison.  Its value is forced where
    exactly one value keeps the relation satisfiable (``can_true ^
    can_false``), and free where both or neither do.  The function is
    ``can_true & ~can_false`` restricted to that care set (Coudert &
    Madre's ``restrict``), so a free point takes whichever value keeps
    the diagram small.  The care set is not the winning region: with
    ``can_true | can_false``, which is W in effect, the functions stay
    larger and the model checker's backward sets harder.  The resolved
    function substitutes into the relation before the next bit, so
    later bits see the choice.
    """
    if not is_realizable(game, winning):
        raise GameError("cannot extract a strategy: initial state is losing")
    relation = move_relation(game, winning)
    funcs: dict[str, BddRef] = {}
    c_names = [name for _, name in game.doc.controllable_inputs()]
    for idx, (name, lvl) in enumerate(zip(c_names, game.c_levels)):
        later = game.c_levels[idx + 1:]
        arena = relation.exists(later)
        can_true = arena.cofactor(lvl, True)
        can_false = arena.cofactor(lvl, False)
        func = (can_true & ~can_false).restrict(can_true ^ can_false)
        assert not (func.support() & set(game.c_levels))
        funcs[name] = func
        relation = relation.compose({lvl: func})
    return Strategy(funcs=funcs)


def strategy_to_circuit(doc: AigerDoc, game: Encoding, strategy: Strategy) -> AigerDoc:
    """Replace each controllable input by an AND-gate cone of its function.

    The cone is the Shannon expansion along the function's BDD, one
    hash-consed multiplexer per node; latch count is unchanged and the
    controllable inputs disappear from the input list.  Synthesized
    signals are additionally exposed as named outputs.  The diagram
    translated is the strategies' shared diagram as ``bdd.sift`` leaves
    its private copy, in the order sifting finds; that is the game's own
    order when no move shrinks it, and the game's manager is never
    reordered.  At debug level the call logs each strategy's
    node count, the shared diagram's size in the static and the sifted
    order, and the number of swaps sifting made.  The model is
    built on ``TwoLevelAig``, so each AND, of a multiplexer or of a
    translated game gate, is rewritten by the two-level rules where an
    operand is itself a gate.

    The kept inputs, then the latches, take the model's first variables,
    in document order.  Of the game's gates only those in the cone of
    ``doc.section_lits()`` are translated, and ``doc.relabel`` carries
    every section over to the model, with the kept inputs only.  The
    model keeps only the gates its latches, outputs and properties read:
    ``sweep`` drops the gates that constant folding leaves unread (the
    operands of a gate whose controllable input got a constant strategy,
    or a strategy cone nothing reads).  A model with no such gate keeps
    the numbering of a full translation.
    """
    if len(doc.latches) != len(game.latch_levels) or \
            len(doc.inputs) != len(game.input_levels):
        raise GameError("document does not match the game it was solved as")
    aig = TwoLevelAig()
    level_to_lit: dict[int, int] = {}
    var_sub: dict[int, int] = {0: 0}  # constants map to themselves
    c_by_name = {}
    inputs = []
    for (lit, name), lvl in zip(doc.inputs, game.input_levels):
        if is_controllable(name):
            c_by_name[name] = lit
            continue
        var_sub[lit >> 1] = level_to_lit[lvl] = new_lit = 2 * aig.new_var()
        inputs.append((new_lit, name))
    for (lit, _, _), lvl in zip(doc.latches, game.latch_levels):
        var_sub[lit >> 1] = level_to_lit[lvl] = 2 * aig.new_var()

    funcs = list(strategy.funcs.values())
    sifted = sift(game.mgr, funcs)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("strategy_to_circuit: strategies of %s nodes, shared "
                  "diagram of %d nodes in the static order and %d sifted, "
                  "%d swaps", [func.dag_size() for func in funcs],
                  sifted.static_size, sifted.size, sifted.swaps)
    lits = {0: 0, 1: 1}  # node -> literal of its multiplexer
    for n, level, lo, hi in sifted.records:
        lits[n] = aig.ite_(level_to_lit[level], lits[hi], lits[lo])
    for name, root in zip(strategy.funcs, sifted.roots):
        var_sub[c_by_name[name] >> 1] = lits[root]

    def map_lit(lit: int) -> int:
        return var_sub[lit >> 1] ^ (lit & 1)

    read = doc.aig.cone(lit for _, lits in doc.section_lits() for lit in lits)
    for var, rhs0, rhs1 in doc.aig.nodes():
        if var in read:
            var_sub[var] = aig.and_(map_lit(rhs0), map_lit(rhs1))

    new = doc.relabel(map_lit, aig, inputs=inputs,
                      comments=without_winning_block(doc.comments))
    if doc.fmt == "new":
        # old-format outputs are all read as error signals, so the
        # synthesized functions are exposed only in the new format
        new.outputs += [(var_sub[c_by_name[name] >> 1],
                         name[len(CONTROLLABLE_PREFIX):])
                        for name in strategy.funcs]
    new = sweep(new)
    new.validate()
    return new


def synthesize(doc: AigerDoc) -> tuple[bool, AigerDoc | None, Encoding]:
    """Full solve-and-extract; returns (realizable, model, game).

    The model's comments end in its winning-region block
    (``winning_block``), which the model checker reads.
    """
    game = build_game(doc)
    winning = solve(game)
    if not is_realizable(game, winning):
        return False, None, game
    strategy = extract_strategy(game, winning)
    model = strategy_to_circuit(game.doc, game, strategy)
    model.comments += winning_block(game, winning)
    return True, model, game


# the winning-region block ----------------------------------------------------

WINNING_BLOCK = "aigsynt-winning-region"


def _block_start(comments: Sequence[str]) -> int | None:
    """Index of the block's header among the comment lines, if any."""
    for i, line in enumerate(comments):
        if line.split(" ", 1)[0] == WINNING_BLOCK:
            return i
    return None


def without_winning_block(comments: Sequence[str]) -> list[str]:
    """The comment lines before the block; a rewrite with other latches
    or other properties keeps these and drops the block."""
    start = _block_start(comments)
    return list(comments[:start])


def winning_block(game: Encoding, winning: BddRef) -> list[str]:
    """The comment lines stating the winning region W over the latches.

    The header is ``aigsynt-winning-region L``, with L the latch count.
    One line ``latch lo hi`` follows per node of W's diagram, children
    first (``bdd.postorder``): the node tests latch number ``latch``,
    counted from 0 in document order, and ``lo``/``hi`` are its
    children, 0 for false, 1 for true and k ≥ 2 for the node on line
    k - 1 after the header.  W is the last node, and true when there is
    none.  A model is written only when the initial state is in W, so W
    is never false.  The block runs to the end of the comments.
    """
    latch = {lvl: i for i, lvl in enumerate(game.latch_levels)}
    ids = {0: 0, 1: 1}
    lines = [f"{WINNING_BLOCK} {len(game.latch_levels)}"]
    for n, level, lo, hi in postorder(game.mgr._nodes, [winning.node]):
        ids[n] = len(ids)
        lines.append(f"{latch[level]} {ids[lo]} {ids[hi]}")
    return lines


def read_winning_block(enc: Encoding) -> BddRef | None:
    """W from the block in ``enc.doc``'s comments, in enc's manager.

    None when there is no block; a ``GameError`` when the header names
    another latch count or a node line is not three numbers naming a
    latch and two earlier nodes.  Each node is built with ``ite`` on its
    latch's variable, never as a raw node, so a block whose levels are
    out of order still gives the function it states and never an
    unreduced or misordered diagram.
    """
    comments = enc.doc.comments
    start = _block_start(comments)
    if start is None:
        return None
    n_latches = len(enc.latch_levels)
    if comments[start] != f"{WINNING_BLOCK} {n_latches}":
        raise GameError(f"header {comments[start]!r} does not name the "
                        f"model's {n_latches} latches")
    mgr = enc.mgr
    nodes = [mgr.false, mgr.true]
    for line in comments[start + 1:]:
        try:
            latch, lo, hi = map(read_number, line.split(" "))
        except ValueError:
            raise GameError(f"malformed node line {line!r}") from None
        if not (0 <= latch < n_latches and 0 <= lo < len(nodes)
                and 0 <= hi < len(nodes)):
            raise GameError(f"node line {line!r} names no latch or no "
                            f"earlier node")
        nodes.append(mgr.var(enc.latch_levels[latch]).ite(nodes[hi],
                                                          nodes[lo]))
    return nodes[-1]
