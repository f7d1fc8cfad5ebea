"""Symbolic game solving, strategy extraction and circuit substitution."""

import importlib
import logging
import random
import re
from itertools import product
from pathlib import Path

import pytest

from aigsynt.aiger import (
    Aig, AigError, AigerDoc, CONTROLLABLE_PREFIX, TwoLevelAig, evaluate_vars,
    is_controllable, read_aiger, values_lit, write_aiger,
)
from aigsynt.bdd import BddManager, BddRef, Sifted, _SiftTable, frontier, \
    postorder, sift
from aigsynt.cli import build_spec_doc, main
from aigsynt.game import (
    WINNING_BLOCK, Encoding, GameError, Strategy, _mu_steps, build_game, cpre,
    extract_strategy, is_realizable, move_relation, mu_levels,
    read_winning_block, solve, strategy_to_circuit, synthesize,
)
from aigsynt.mc import (
    _cut_vars, check_justice_universal, check_safety, find_fair_trace,
)
from aigsynt.oracle import solve_explicit
from aigsynt.transforms import delay_justice, justice_depends_on_inputs, \
    justice_to_safety, reverse_justice

from helpers import random_game_doc, with_random_outputs


def doc_with(next_of=None, bad=None, constraint=None, justice=None,
             n_u=1, n_c=1, n_latches=1):
    """Tiny document builder; callbacks receive (aig, u, c, l) literal lists."""
    doc = AigerDoc(fmt="new")
    u = [doc.add_input(f"u{i}") for i in range(n_u)]
    c = [doc.add_input(f"{CONTROLLABLE_PREFIX}c{i}") for i in range(n_c)]
    l = [doc.add_latch(f"l{i}") for i in range(n_latches)]
    aig = doc.aig
    if next_of:
        for lit, nxt in zip(l, next_of(aig, u, c, l)):
            doc.set_latch_next(lit, nxt)
    if bad is not None:
        doc.bad.append((bad(aig, u, c, l), None))
    if constraint is not None:
        doc.constraints.append((constraint(aig, u, c, l), None))
    if justice is not None:
        doc.justice.append(([justice(aig, u, c, l)], None))
    doc.validate()
    return doc


def test_empty_game_defaults():
    game = build_game(doc_with())
    assert game.bad.is_false
    assert game.inv.is_true
    assert game.just.is_true


def test_encode_orders_inputs_above_latches():
    # inputs interleaved in the document: c0, u0, c1, u1
    doc = AigerDoc(fmt="new")
    for i in range(2):
        doc.add_input(f"{CONTROLLABLE_PREFIX}c{i}")
        doc.add_input(f"u{i}")
    for i in range(3):
        doc.add_latch(f"l{i}")
    enc = Encoding(doc)
    assert max(enc.u_levels) < min(enc.c_levels)
    assert max(enc.input_levels) < min(enc.latch_levels)
    # uncontrollables, then controllables, each in document order
    assert enc.input_levels == [2, 0, 3, 1]
    assert enc.latch_levels == [4, 5, 6]
    assert enc.mgr.var_count == 7
    assert enc.just.is_true
    assert build_game(doc).just.is_true


def test_encode_agrees_with_simulation():
    """Every function of the encoding matches simulation, with and
    without the outputs' gates cut; a cut set off its gate's simulated
    value makes inv false."""
    with_cuts = 0
    for seed in range(30):
        rng = random.Random(seed)
        doc = random_game_doc(seed, n_latches=rng.randint(1, 4),
                              n_u=rng.randint(0, 2), n_c=rng.randint(0, 2),
                              with_justice=seed % 3 != 0)
        rng.shuffle(doc.inputs)
        if seed % 5 == 1 and doc.justice:
            doc = justice_to_safety(doc, 2)  # old format: bad is the output
        for variant in (doc, with_random_outputs(doc, seed)):
            cuts = _cut_vars(variant)
            with_cuts += bool(cuts)
            states = [([rng.random() < 0.5 for _ in variant.latches],
                       [rng.random() < 0.5 for _ in variant.inputs])
                      for _ in range(16)]
            assert_encoding_simulates(variant, cuts, states, seed)
    assert with_cuts >= 10


def _constants_doc():
    # the constant next-state functions 0 and 1, and bad = a & !b
    doc = AigerDoc(fmt="new")
    a = doc.add_input("a")
    b = doc.add_input("b")
    doc.add_latch("zero", next_lit=0)
    doc.add_latch("one", next_lit=1)
    doc.bad.append((doc.aig.and_(a, b ^ 1), None))
    return doc


def _random_cone_doc():
    # bad at the top of a 25-gate random cone over 6 inputs; that gate
    # is constant false, so the constraint and justice read the two
    # gates below it
    rng = random.Random(7)
    doc = AigerDoc(fmt="new")
    pool = [doc.add_input(f"i{k}") for k in range(6)]
    for _ in range(25):
        a = rng.choice(pool) ^ rng.randint(0, 1)
        b = rng.choice(pool) ^ rng.randint(0, 1)
        pool.append(doc.aig.and_(a, b))
    doc.bad.append((pool[-1], None))
    doc.constraints.append((pool[-2], None))
    doc.justice.append(([pool[-3]], None))
    return doc


@pytest.mark.parametrize("make_doc", [_constants_doc, _random_cone_doc],
                         ids=["constants", "random_cone"])
def test_encode_agrees_with_simulation_on_every_state(make_doc):
    doc = make_doc()
    assert_encoding_simulates(doc, [], all_states(doc))


def all_states(doc):
    """Every (latch values, input values) pair of a document."""
    return [(list(bits[:len(doc.latches)]), list(bits[len(doc.latches):]))
            for bits in product([False, True],
                                repeat=len(doc.latches) + len(doc.inputs))]


def assert_encoding_simulates(doc, cuts, states, seed=None):
    """Each function of ``Encoding(doc, cuts)`` matches simulation at
    each (latch values, input values) pair of ``states``."""
    bad_lits = doc.outputs if doc.fmt == "old" else doc.bad
    enc = Encoding(doc, cuts)
    cut_levels = enc.quantified[len(doc.inputs):]
    assert len(cut_levels) == len(cuts)
    for latches, inputs in states:
        values = evaluate_vars(doc, latches, inputs)
        assignment = dict(zip(enc.latch_levels, latches))
        assignment.update(zip(enc.input_levels, inputs))
        assignment.update((lvl, values[var]) for var, lvl in zip(cuts, cut_levels))
        for (_, nxt, _), lvl in zip(doc.latches, enc.latch_levels):
            assert enc.delta[lvl].evaluate(assignment) == \
                values_lit(values, nxt), seed
        assert enc.bad.evaluate(assignment) == \
            any(values_lit(values, lit) for lit, _ in bad_lits), seed
        assert enc.inv.evaluate(assignment) == \
            all(values_lit(values, lit) for lit, _ in doc.constraints), seed
        jlit = doc.justice_literal()
        if jlit is None:
            assert enc.just.is_true
        else:
            assert enc.just.evaluate(assignment) == \
                values_lit(values, jlit), seed
        for lvl in cut_levels:
            assert not enc.inv.evaluate({**assignment, lvl: not assignment[lvl]})


def test_justice_on_input_gets_delay_latch():
    doc = doc_with(justice=lambda aig, u, c, l: u[0])
    assert justice_depends_on_inputs(doc)
    game = build_game(doc)
    assert len(game.doc.latches) == len(doc.latches) + 1
    assert not justice_depends_on_inputs(game.doc)


def test_delay_latch_listed_first():
    doc = doc_with(justice=lambda aig, u, c, l: u[0], n_latches=2)
    delayed = delay_justice(doc)
    assert delayed.latch_names() == ["__just_delay", "l0", "l1"]
    assert delayed.latches[1:] == doc.latches


def test_latch_justice_untouched():
    doc = doc_with(justice=lambda aig, u, c, l: l[0])
    game = build_game(doc)
    assert len(game.doc.latches) == len(doc.latches)


def test_multiple_justice_groups_rejected():
    doc = doc_with()
    doc.justice = [([0], None), ([0], None)]
    with pytest.raises(AigError, match="justice group"):
        build_game(doc)


def test_cpre_trivial_targets():
    # next(l) = c; bad = l & u
    doc = doc_with(next_of=lambda aig, u, c, l: [c[0]],
                   bad=lambda aig, u, c, l: aig.and_(l[0], u[0]))
    game = build_game(doc)
    # target TRUE: all states where for all u some c avoids bad now
    t = cpre(game, game.mgr.true)
    assert t.evaluate({game.latch_levels[0]: False})
    assert not t.evaluate({game.latch_levels[0]: True})  # u=1 raises bad
    assert cpre(game, game.mgr.false).is_false  # inv is constant true


def test_cpre_matches_explicit_enumeration():
    # 2 latches; next(l0) = u xor c, next(l1) = l0; bad = l1 & !c; inv = !u | l0
    def nexts(aig, u, c, l):
        return [aig.xor_(u[0], c[0]), l[0]]

    doc = doc_with(next_of=nexts,
                   bad=lambda aig, u, c, l: aig.and_(l[1], c[0] ^ 1),
                   constraint=lambda aig, u, c, l: aig.or_(u[0] ^ 1, l[0]),
                   n_latches=2)
    game = build_game(doc)
    # pick an arbitrary target set {l0=1}
    target = game.mgr.var(game.latch_levels[0])
    got = cpre(game, target)

    def explicit_cpre(state_bits):
        for uv in (False, True):
            ok_for_u = False
            for cv in (False, True):
                latch_vals = list(state_bits)
                values = evaluate_vars(doc, latch_vals, [uv, cv])
                inv = values_lit(values, doc.constraints[0][0])
                bad = values_lit(values, doc.bad[0][0])
                nxt = [values_lit(values, nl) for _, nl, _ in doc.latches]
                if not inv or (not bad and nxt[0]):
                    ok_for_u = True
                    break
            if not ok_for_u:
                return False
        return True

    for bits in product([False, True], repeat=2):
        assignment = dict(zip(game.latch_levels, bits))
        assert got.evaluate(assignment) == explicit_cpre(bits), bits


def test_solve_all_safe_game():
    game = build_game(doc_with(next_of=lambda aig, u, c, l: [l[0]]))
    w = solve(game)
    assert w.is_true


def test_solve_bad_true_game():
    game = build_game(doc_with(bad=lambda aig, u, c, l: 1))
    w = solve(game)
    assert w.is_false
    assert not is_realizable(game, w)


def test_solve_matches_explicit_on_random_games():
    for seed in range(25):
        doc = random_game_doc(seed, n_latches=4, n_u=2, n_c=2, n_gates=10)
        game = build_game(doc)
        w = solve(game)
        explicit = solve_explicit(doc)
        for code in range(1 << 4):
            bits = {lvl: bool((code >> i) & 1)
                    for i, lvl in enumerate(game.latch_levels)}
            assert w.evaluate(bits) == explicit.is_winning(code), (seed, code)
        assert is_realizable(game, w) == explicit.realizable, seed


def test_mu_levels_reproduce_region():
    doc = random_game_doc(3, n_latches=3)
    game = build_game(doc)
    w = solve(game)
    levels = mu_levels(game, w)
    assert levels[0].is_false
    assert levels[-1] == w


def test_move_relation_rejects_a_region_that_is_not_the_fixpoint():
    game = build_game(doc_with(bad=lambda aig, u, c, l: 1))
    assert not solve(game).is_true
    with pytest.raises(GameError, match="did not reproduce"):
        move_relation(game, game.mgr.true)


# frontier steps of the μY iteration -------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def plain_mu_levels(game, z):
    """The μY recurrence as written: each step is cpre of core ∨ Y whole."""
    levels = [game.mgr.false]
    core = game.just & z
    while True:
        y = cpre(game, core | levels[-1])
        if y == levels[-1]:
            return levels
        levels.append(y)


def plain_move_relation(game, winning):
    """The move relation, composing each ``core ∨ levels[i]`` whole."""
    levels = plain_mu_levels(game, winning)
    core = game.just & winning
    rank_ok = game.mgr.false
    for i in range(len(levels) - 1):
        diff = levels[i + 1] & ~levels[i]
        rank_ok = rank_ok | (diff & (core | levels[i]).compose(game.delta))
    return ~game.inv | (~game.bad & rank_ok)


def chained_move_relation(game, winning):
    """The move relation as a ∨ over the layers, each ranked move into
    ``M_{i-1} = D_0∘δ ∨ … ∨ D_{i-1}∘δ`` grown as a chain of ∨s."""
    levels = []
    moves = rank_ok = game.mgr.false
    for y, _, moved in _mu_steps(game, winning):
        if levels:
            rank_ok = rank_ok | (y & ~levels[-1] & moves)
        moves = moves | moved
        levels.append(y)
    assert levels[-1] == winning
    return ~game.inv | (~game.bad & rank_ok)


def test_horner_move_relation_is_the_chained_one():
    """Built from the last layer down, the relation is the same node as
    the ∨ over the layers of the ranked moves, on random games."""
    multi_layer = 0
    for seed in range(200):
        doc = random_game_doc(seed + 1400, n_latches=3 + seed % 6)
        game = build_game(doc)
        w = solve(game)
        assert move_relation(game, w) == chained_move_relation(game, w), seed
        multi_layer += len(mu_levels(game, w)) > 2  # ∅ and two layers
    assert multi_layer >= 40


def assert_passes_match_the_plain_recurrence(game):
    """Every pass of ``solve`` gives the same node at every level as the
    plain recurrence, and at the fixpoint the same move relation."""
    z = game.mgr.true
    while True:
        levels = mu_levels(game, z)
        assert levels == plain_mu_levels(game, z)
        if levels[-1] == z:
            break
        z = levels[-1]
    assert move_relation(game, z) == plain_move_relation(game, z)


def benchmark_doc(name, tmp_path, monkeypatch):
    """A bundled benchmark, or ``stressN``: the N-letter stress game that
    ``perfbench/workloads.py`` writes."""
    if not name.startswith("stress"):
        return build_spec_doc(ROOT / "benchmarks" / name / f"{name}.smv")
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    smv, _ = workloads.write_stress_spec(int(name[6:]), tmp_path)
    return build_spec_doc(smv)


def test_mu_levels_and_move_relation_match_the_plain_recurrence():
    for seed in range(120):
        doc = random_game_doc(seed + 7000, n_latches=2 + seed % 5,
                              n_gates=6 + seed % 11,
                              with_justice=seed % 4 != 0,
                              with_constraint=seed % 3 != 0)
        if seed % 5 == 0:
            doc = as_old_format(doc)
        assert_passes_match_the_plain_recurrence(build_game(doc))


@pytest.mark.parametrize("name", ["huffman4", "stress4"])
def test_restricted_frontiers_match_the_plain_recurrence(
        name, tmp_path, monkeypatch, caplog):
    doc = benchmark_doc(name, tmp_path, monkeypatch)
    taken = []

    def counted(ring, inner):
        front = frontier(ring, inner)
        if front != ring:
            taken.append((front.dag_size(), ring.dag_size()))
        return front

    with monkeypatch.context() as m:
        m.setattr("aigsynt.game.frontier", counted)
        assert_passes_match_the_plain_recurrence(build_game(doc))
        assert taken, "no step took a restricted frontier"
        taken.clear()
        solve(build_game(doc))
    # the debug line of each pass reports the frontiers that pass took
    with caplog.at_level(logging.DEBUG, logger="aigsynt.game"):
        solve(build_game(doc))
    logged = [re.search(r"(\d+) restricted frontiers of (\d+) nodes against "
                        r"(\d+) in their levels$", r.getMessage()).groups()
              for r in caplog.records]
    assert [sum(int(row[k]) for row in logged) for k in range(3)] == \
        [len(taken), sum(f for f, _ in taken), sum(y for _, y in taken)]


def assert_handed_on_compositions_are_direct(game, monkeypatch):
    """Each pass of ``solve`` keeps its steps on the game: its own z, the
    iterates, the frontiers and their compositions.  The core's
    composition each pass starts from is the core composed directly,
    each frontier's is the frontier's, and the ∨ of the frontier
    compositions, which the next pass folds into its ``z∘δ``, is the
    fixpoint composed directly.  The direct compositions read no kept
    one: ``compose`` reads only its own cache."""
    passes = []

    def checked(game, z):
        levels = mu_levels(game, z)
        kept_z, steps = game._last_pass
        assert kept_z == z and [y for y, _, _ in steps] == levels
        assert steps[0][1] is None  # the core is never built
        assert steps[0][2] == (game.just & z).compose(game.delta)
        folded = game.mgr.false
        for y, front, moved in steps[1:]:
            assert moved == front.compose(game.delta)
            folded = folded | moved
        assert folded == levels[-1].compose(game.delta)
        passes.append(z)
        return levels

    with monkeypatch.context() as m:
        m.setattr("aigsynt.game.mu_levels", checked)
        w = solve(game)
    assert game._last_pass[0] == w == game._last_pass[1][-1][0]
    # a pass over any other z composes that z itself, and keeps that z
    for z in passes[:-1]:
        levels = mu_levels(game, z)
        assert levels == plain_mu_levels(game, z)
        assert game._last_pass[0] == z
    return len(passes)


def test_handed_on_compositions_are_the_fixpoints_composed(monkeypatch):
    passes = []
    for seed in range(120):
        doc = random_game_doc(seed + 7400, n_latches=2 + seed % 5,
                              n_gates=6 + seed % 11,
                              with_justice=seed % 4 != 0,
                              with_constraint=seed % 3 != 0)
        if seed % 5 == 0:
            doc = as_old_format(doc)
        passes.append(assert_handed_on_compositions_are_direct(
            build_game(doc), monkeypatch))
    assert sum(n > 2 for n in passes) >= 10  # some games take several passes


@pytest.mark.parametrize("name", ["huffman4", "stress4"])
def test_handed_on_compositions_on_benchmarks(name, tmp_path, monkeypatch):
    doc = benchmark_doc(name, tmp_path, monkeypatch)
    assert assert_handed_on_compositions_are_direct(build_game(doc),
                                                    monkeypatch) > 2


@pytest.mark.parametrize("name", ["huffman4", "stress4"])
def test_synthesis_never_composes_a_core_or_the_region(name, tmp_path,
                                                       monkeypatch):
    """``synthesize`` composes ``just`` once and no pass's core ``just ∧
    z`` or the winning region W whole: their compositions are built from
    those of ``just`` and of the frontiers.  ``just`` is composed on each
    pass's call, and only the first call misses the compose cache."""
    doc = benchmark_doc(name, tmp_path, monkeypatch)
    composed, misses, passes = [], [], []
    compose, inner = BddRef.compose, BddManager._compose

    def counted_compose(ref, submap):
        composed.append((ref.node, submap))
        return compose(ref, submap)

    def counted_inner(mgr, f, sub, sub_id, last):
        if (f, sub_id) not in mgr._cache:
            misses.append((f, sub_id))
        return inner(mgr, f, sub, sub_id, last)

    def counted_mu_levels(game, z):
        passes.append(z)
        return mu_levels(game, z)

    monkeypatch.setattr(BddRef, "compose", counted_compose)
    monkeypatch.setattr(BddManager, "_compose", counted_inner)
    monkeypatch.setattr("aigsynt.game.mu_levels", counted_mu_levels)
    realizable, _, game = synthesize(doc)
    assert realizable and len(passes) > 2
    assert not game.just.is_terminal
    through_delta = [n for n, sub in composed if sub is game.delta]
    assert through_delta.count(game.just.node) == len(passes)
    assert misses.count((game.just.node, game.delta.sub_id)) == 1
    cores = [game.just & z for z in passes[1:]]
    assert not {core.node for core in cores} & set(through_delta)
    assert passes[-1].node not in through_delta  # W


@pytest.mark.parametrize("name", ["huffman4", "stress4"])
def test_extraction_runs_no_pass(name, tmp_path, monkeypatch):
    """``extract_strategy`` reads the pass ``solve`` kept: it takes no
    controllable predecessor, no frontier and no cache generation."""
    game = build_game(benchmark_doc(name, tmp_path, monkeypatch))
    w = solve(game)
    calls = []

    def recorded(name, fn):
        def call(*args):
            calls.append(name)
            return fn(*args)
        return call

    monkeypatch.setattr("aigsynt.game.cpre", recorded("cpre", cpre))
    monkeypatch.setattr("aigsynt.game.frontier",
                        recorded("frontier", frontier))
    monkeypatch.setattr(BddManager, "age", recorded("age", BddManager.age))
    assert extract_strategy(game, w).funcs
    assert calls == []


def test_move_relation_needs_the_pass_over_the_region():
    """After a pass over another z the kept layers are not W's, even
    where that pass's fixpoint is W, and ``move_relation`` refuses them;
    a pass over W makes it answer again, with the same node."""
    refused = 0
    for seed in range(40):
        game = build_game(random_game_doc(seed + 7400, n_latches=3))
        z, w = game.mgr.true, solve(game)
        relation = move_relation(game, w)
        for other in (z, mu_levels(game, z)[-1]):
            if other == w:
                continue
            mu_levels(game, other)
            with pytest.raises(GameError, match="did not reproduce"):
                move_relation(game, w)
            refused += 1
        mu_levels(game, w)
        assert move_relation(game, w) == relation
    fresh = build_game(random_game_doc(1, n_latches=3))  # no pass run yet
    with pytest.raises(GameError, match="did not reproduce"):
        move_relation(fresh, fresh.mgr.true)
    assert refused >= 20


# node counts of the huffman4 and stress4 games after ``solve`` and after
# ``synthesize``: extraction reading the kept pass makes the very nodes
# that running the pass again made
SOLVE_NODES = {"huffman4": (14312, 17188), "stress4": (24025, 27696)}


@pytest.mark.parametrize("name", sorted(SOLVE_NODES))
def test_synthesis_node_counts_are_pinned(name, tmp_path, monkeypatch):
    doc = benchmark_doc(name, tmp_path, monkeypatch)
    game = build_game(doc)
    solve(game)
    realizable, _, synthesized = synthesize(doc)
    assert realizable
    assert (game.mgr.node_count, synthesized.mgr.node_count) == \
        SOLVE_NODES[name]


def test_cpre_with_an_escape_is_cpre_of_the_union():
    rng = random.Random(5)
    for seed in range(40):
        game = build_game(random_game_doc(seed + 7200, n_latches=4))

        def state_set():
            s = game.mgr.false
            for _ in range(rng.randint(0, 3)):
                picked = rng.sample(game.latch_levels, rng.randint(1, 3))
                s = s | game.mgr.cube({lvl: rng.random() < 0.5
                                       for lvl in picked})
            return s

        done, added = state_set(), state_set()
        moved = done.compose(game.delta)
        escape = (~game.inv | (~game.bad & moved)).exists(game.c_levels)
        assert cpre(game, added, escape) == cpre(game, done | added)


@pytest.mark.parametrize("name", ["arbiter", "huffman4"])
def test_synth_bytes_match_the_plain_recurrence(name, tmp_path, monkeypatch):
    spec = ROOT / "benchmarks" / name / f"{name}.smv"
    game = tmp_path / "game.aag"
    assert main(["spec2aag", str(spec), "-o", str(game)]) == 0
    assert main(["synth", str(game), "-o", str(tmp_path / "frontier.aag")]) == 0
    monkeypatch.setattr("aigsynt.game.mu_levels", plain_mu_levels)
    monkeypatch.setattr("aigsynt.game.move_relation", plain_move_relation)
    assert main(["synth", str(game), "-o", str(tmp_path / "plain.aag")]) == 0
    assert (tmp_path / "frontier.aag").read_bytes() == \
        (tmp_path / "plain.aag").read_bytes()


def test_strategy_forced_to_copy_input():
    # next(l) = c xor u; recurrence target is l = 0, so every winning
    # move everywhere sets c equal to u
    doc = doc_with(next_of=lambda aig, u, c, l: [aig.xor_(c[0], u[0])],
                   justice=lambda aig, u, c, l: l[0] ^ 1)
    game = build_game(doc)
    w = solve(game)
    assert w.is_true
    strategy = extract_strategy(game, w)
    func = strategy.funcs[CONTROLLABLE_PREFIX + "c0"]
    u_level = game.u_levels[0]
    assert func == game.mgr.var(u_level)


def test_strategy_tie_break_to_zero():
    # both values always fine
    doc = doc_with(next_of=lambda aig, u, c, l: [l[0]])
    game = build_game(doc)
    w = solve(game)
    strategy = extract_strategy(game, w)
    assert strategy.funcs[CONTROLLABLE_PREFIX + "c0"].is_false


def test_extract_on_losing_initial_rejected():
    game = build_game(doc_with(bad=lambda aig, u, c, l: 1))
    w = solve(game)
    with pytest.raises(GameError, match="losing"):
        extract_strategy(game, w)


def test_strategy_circuit_constant_and_wire():
    # c0 forced to u everywhere, c1 free (tie-break 0): the cones
    # collapse to a wire and a constant, no new gates after folding
    def nexts(aig, u, c, l):
        return [aig.xor_(c[0], u[0])]

    doc = doc_with(next_of=nexts, justice=lambda aig, u, c, l: l[0] ^ 1,
                   n_c=2)
    ok, model, game = synthesize(doc)
    assert ok
    assert [n for _, n in model.inputs] == ["u0"]
    by_name = dict((n, lit) for lit, n in model.outputs)
    assert by_name["c1"] == 0  # constant false
    u_lit = model.inputs[0][0]
    assert by_name["c0"] == u_lit  # wired through


def test_synthesized_model_never_leaves_winning_region():
    import random
    rng = random.Random(11)
    checked = 0
    for seed in range(40):
        doc = random_game_doc(seed + 100, n_latches=4, n_u=2, n_c=2)
        game = build_game(doc)
        w = solve(game)
        if not is_realizable(game, w):
            continue
        checked += 1
        strategy = extract_strategy(game, w)
        model = strategy_to_circuit(game, strategy)
        # 20-step random-adversary simulation: stay in W, never raise bad
        # while the constraint history holds
        latch_vals = [False] * len(model.latches)
        env_ok = True
        for _ in range(20):
            inputs = [rng.random() < 0.5 for _ in model.inputs]
            values = evaluate_vars(model, latch_vals, inputs)
            inv_now = all(values_lit(values, lit)
                          for lit, _ in model.constraints)
            if env_ok and inv_now:
                assert not any(values_lit(values, lit)
                               for lit, _ in model.bad), seed
            env_ok = env_ok and inv_now
            latch_vals = [values_lit(values, nl) for _, nl, _ in model.latches]
            if env_ok:
                bits = {lvl: latch_vals[i]
                        for i, lvl in enumerate(game.latch_levels)}
                assert w.evaluate(bits), seed
    assert checked >= 10


def test_determinized_relation_valid_on_winning_region():
    """With every controllable substituted, the move relation holds for
    all environment choices from every winning state (or the constraint
    fails at that step)."""
    from aigsynt.game import move_relation
    for seed in range(15):
        doc = random_game_doc(seed + 200, n_latches=4)
        game = build_game(doc)
        w = solve(game)
        if not is_realizable(game, w):
            continue
        strategy = extract_strategy(game, w)
        relation = move_relation(game, w)
        c_names = [name for _, name in game.doc.controllable_inputs()]
        for name, lvl in zip(c_names, game.c_levels):
            relation = relation.compose({lvl: strategy.funcs[name]})
        assert (w & ~relation.forall(game.u_levels)).is_false, seed


def test_strategy_step_from_winning_stays_winning_or_discharged():
    """One symbolic step under the strategy from W lands in W unless the
    constraints were violated at that step."""
    for seed in range(15):
        doc = random_game_doc(seed + 250, n_latches=4)
        game = build_game(doc)
        w = solve(game)
        if not is_realizable(game, w):
            continue
        strategy = extract_strategy(game, w)
        c_names = [name for _, name in game.doc.controllable_inputs()]
        sub = {lvl: strategy.funcs[name]
               for name, lvl in zip(c_names, game.c_levels)}
        delta_strategized = {lvl: d.compose(sub)
                             for lvl, d in game.delta.items()}
        next_in_w = w.compose(delta_strategized)
        inv_strategized = game.inv.compose(sub)
        stuck = w & inv_strategized & ~next_in_w
        assert stuck.is_false, seed


def test_synthesized_models_pass_both_checks():
    for seed in range(30):
        doc = random_game_doc(seed + 300, n_latches=4)
        ok, model, game = synthesize(doc)
        if not ok:
            continue
        assert check_safety(model).holds, seed
        assert check_justice_universal(model).holds, seed


def test_model_block_states_the_winning_region():
    """Read back in the model's own encoding, each model's block is the
    game's winning region, at every state."""
    models = 0
    for seed in range(60):
        doc = random_game_doc(seed + 1400, n_latches=3 + seed % 6)
        ok, model, game = synthesize(doc)
        if not ok:
            continue
        w = solve(game)
        enc = Encoding(model)
        stated = read_winning_block(enc)
        for state in product((False, True), repeat=len(model.latches)):
            assert stated.evaluate(dict(zip(enc.latch_levels, state))) == \
                w.evaluate(dict(zip(game.latch_levels, state))), seed
        models += 1
    assert models >= 30


def block_doc(*lines):
    """A two-latch document whose comments are the given lines."""
    doc = doc_with(n_latches=2)
    doc.comments = ["made by hand", *lines]
    return doc


def test_block_nodes_in_any_level_order_give_the_stated_function():
    """Nodes are built with ``ite``, so a block whose nodes test a latch
    below their children's still states its function."""
    for nodes in (["1 0 1", "0 0 2"],   # l1 below l0, as the order has it
                  ["0 0 1", "1 0 2"]):  # l0 below l1
        enc = Encoding(block_doc(f"{WINNING_BLOCK} 2", *nodes))
        l0, l1 = (enc.mgr.var(lvl) for lvl in enc.latch_levels)
        assert read_winning_block(enc) == l0 & l1
    # no node line states true, and no block states nothing
    assert read_winning_block(Encoding(block_doc(f"{WINNING_BLOCK} 2"))) \
        .is_true
    assert read_winning_block(Encoding(block_doc())) is None


@pytest.mark.parametrize("lines, message", [
    ([f"{WINNING_BLOCK} 3", "0 0 1"], "does not name the model's 2 latches"),
    ([f"{WINNING_BLOCK}", "0 0 1"], "does not name"),
    ([f"{WINNING_BLOCK} 2", "0 0"], "malformed node line"),
    ([f"{WINNING_BLOCK} 2", "0 0 x"], "malformed node line"),
    ([f"{WINNING_BLOCK} 2", "2 0 1"], "names no latch"),
    ([f"{WINNING_BLOCK} 2", "-1 0 1"], "names no latch"),
    ([f"{WINNING_BLOCK} 2", "0 0 2"], "no earlier node"),
    ([f"{WINNING_BLOCK} 2", "0 1 0", f"{WINNING_BLOCK} 2"], "malformed"),
    # a number is ASCII digits, as in the AIGER reader
    ([f"{WINNING_BLOCK} 2", "+0 0 1"], "malformed node line"),
    ([f"{WINNING_BLOCK} 2", "0 0_0 1"], "malformed node line"),
    ([f"{WINNING_BLOCK} 2", "0 0 \u0661"], "malformed node line"),
])
def test_malformed_block_raises(lines, message):
    with pytest.raises(GameError, match=message):
        read_winning_block(Encoding(block_doc(*lines)))


def test_game_without_latches():
    # combinational game: bad = u & !c, the system must copy u
    doc = AigerDoc(fmt="new")
    u = doc.add_input("u")
    c = doc.add_input(CONTROLLABLE_PREFIX + "c")
    doc.bad.append((doc.aig.and_(u, c ^ 1), None))
    ok, model, _ = synthesize(doc)
    assert ok
    explicit = solve_explicit(doc)
    assert explicit.realizable
    assert check_safety(model).holds


def test_old_format_game_uses_outputs():
    doc = AigerDoc(fmt="old")
    u = doc.add_input("u")
    c = doc.add_input(CONTROLLABLE_PREFIX + "c")
    l = doc.add_latch("l")
    doc.set_latch_next(l, c)
    doc.outputs.append((doc.aig.and_(l, u), "bad"))
    game = build_game(doc)
    w = solve(game)
    assert is_realizable(game, w)
    strategy = extract_strategy(game, w)
    model = strategy_to_circuit(game, strategy)
    assert model.fmt == "old"
    assert [n for _, n in model.outputs] == ["bad"]  # no extra outputs
    assert check_safety(model).holds


FREE = CONTROLLABLE_PREFIX + "free"


def with_dead_logic(doc, seed):
    """A copy of doc with logic that its models must not keep.

    It gains a few gates that nothing reads, and its first bad signal
    (the first output in the old format) widens to ``bad ∨ (free ∧ g)``
    for a fresh controllable input ``free`` and a gate g over latches
    and uncontrollable inputs.  Raising ``free`` can only lose, so its
    strategy is constant false; that folds ``free ∧ g`` away and leaves
    g's gates unread.
    """
    rng = random.Random(seed)
    new = doc.copy()
    aig = new.aig
    pool = [lit for lit, _ in doc.uncontrollable_inputs()] + \
        [lit for lit, _, _ in doc.latches]

    def pick():
        return rng.choice(pool) ^ rng.randint(0, 1)

    for _ in range(3):
        aig.and_(pick(), pick())  # read by nothing
    free = new.add_input(FREE)
    g = aig.and_(aig.and_(pick(), pick()), aig.or_(pick(), pick()))
    checked = new.outputs if new.fmt == "old" else new.bad
    lit, name = checked[0]
    checked[0] = (aig.or_(lit, aig.and_(free, g)), name)
    new.validate()
    return new


def as_old_format(doc):
    """The old-format game of doc's safety part.

    Old-format outputs are bad signals: each named output is conjoined
    with bad, so the verdict stays the plain one's.
    """
    old = doc.copy(fmt="old", bad=[], constraints=[], justice=[])
    bad = doc.bad[0][0]
    old.outputs = [(old.aig.and_(lit, bad), name)
                   for lit, name in doc.outputs] + doc.bad
    return old


def model_roots(model):
    return ([nxt for _, nxt, _ in model.latches] +
            [lit for lit, _ in model.outputs + model.bad + model.constraints] +
            [lit for group, _ in model.justice for lit in group])


def assert_model_follows_game(game, strategy, model):
    """The model keeps only live gates, has no controllable input, and
    at every latch state and uncontrollable input its next-state,
    output, bad, constraint and justice literals read as the game's do
    under the strategy's moves; the synthesized outputs (new format)
    read as the moves."""
    doc = game.doc
    assert {var for var, _, _ in model.aig.nodes()} <= \
        model.aig.cone(model_roots(model))
    assert not model.controllable_inputs()
    assert [n for _, n in model.inputs] == \
        [n for _, n in doc.uncontrollable_inputs()]
    c_names = [name for _, name in doc.controllable_inputs()]
    n_out = len(doc.outputs)
    extra = model.outputs[n_out:]
    assert [n for _, n in extra] == \
        ([name[len(CONTROLLABLE_PREFIX):] for name in c_names]
         if doc.fmt == "new" else [])
    for latches, u_values in all_states(model):
        levels = dict(zip(game.latch_levels, latches))
        levels.update(zip(game.u_levels, u_values))
        moves = {name: strategy.funcs[name].evaluate(levels)
                 for name in c_names}
        u_iter = iter(u_values)
        inputs = [moves[name] if name in moves else next(u_iter)
                  for _, name in doc.inputs]
        game_values = evaluate_vars(doc, latches, inputs)
        model_values = evaluate_vars(model, latches, u_values)

        def read(values, lits):
            return [values_lit(values, lit) for lit in lits]

        assert read(model_values, [nxt for _, nxt, _ in model.latches]) == \
            read(game_values, [nxt for _, nxt, _ in doc.latches])
        for game_section, model_section in (
                (doc.outputs, model.outputs[:n_out]), (doc.bad, model.bad),
                (doc.constraints, model.constraints)):
            assert read(model_values, [lit for lit, _ in model_section]) == \
                read(game_values, [lit for lit, _ in game_section])
        assert [read(model_values, group) for group, _ in model.justice] == \
            [read(game_values, group) for group, _ in doc.justice]
        if doc.fmt == "new":
            assert read(model_values, [lit for lit, _ in extra]) == \
                [moves[name] for name in c_names]


@pytest.mark.parametrize("fmt", ["new", "old"])
@pytest.mark.parametrize("named", [False, True], ids=["plain", "outputs"])
def test_model_keeps_only_live_gates(fmt, named):
    realizable = 0
    for seed in range(40):
        doc = random_game_doc(seed + 600, n_latches=3 + seed % 3)
        if named:
            doc = with_random_outputs(doc, seed)
        if fmt == "old":
            doc = as_old_format(doc)
        for game_doc in (doc, with_dead_logic(doc, seed)):
            game = build_game(game_doc)
            w = solve(game)
            if not is_realizable(game, w):
                continue
            realizable += 1
            strategy = extract_strategy(game, w)
            if FREE in strategy.funcs:
                assert strategy.funcs[FREE].is_false
            model = strategy_to_circuit(game, strategy)
            assert_model_follows_game(game, strategy, model)
    assert realizable >= 20


def assert_same_root_functions(model, other):
    """Every root literal of ``model`` reads as ``other``'s on every
    latch and input assignment."""
    for latches, inputs in all_states(model):
        assert [values_lit(evaluate_vars(model, latches, inputs), lit)
                for lit in model_roots(model)] == \
            [values_lit(evaluate_vars(other, latches, inputs), lit)
             for lit in model_roots(other)]


def sifted_by(mgr, roots, swaps):
    """``sift``'s result for its private copy of the roots after the
    copy's own adjacent swaps at the positions ``swaps(levels)`` lists,
    given the number of levels in the copy."""
    table = _SiftTable(mgr._nodes, [root.node for root in roots])
    static_size = table.size
    for i in swaps(len(table.order)):
        table.swap(i)
    return Sifted(postorder(table.nodes, table.roots), table.roots,
                  static_size, table.size, table.swaps), table.order


def static_order(mgr, roots):
    """``sift`` as if no swap shrank the roots."""
    return sifted_by(mgr, roots, lambda levels: ())[0]


def reversed_order(mgr, roots):
    """``sift`` as if the reversed order were smaller: each top level
    sinks below the rest."""
    sifted, order = sifted_by(mgr, roots, lambda levels: [
        i for bottom in range(levels - 1, 0, -1) for i in range(bottom)])
    assert order == sorted(order, reverse=True)
    return sifted


def test_minimized_models_compute_the_plain_translation(monkeypatch):
    """The two-level rules and the sifted order change a model's gates,
    never its functions: every root literal reads as the plain
    translation's, and as the static and the reversed order's, on every
    latch and input assignment, and the model still follows its game
    and plays legal moves.  The sifted model has no more ANDs than the
    static order's."""
    realizable = 0
    for seed in range(220):
        doc = random_game_doc(seed + 1400, n_latches=3 + seed % 3)
        if seed % 2:
            doc = with_random_outputs(doc, seed)
        if seed % 4 >= 2:
            doc = as_old_format(doc)
        game = build_game(doc)
        w = solve(game)
        if not is_realizable(game, w):
            continue
        realizable += 1
        strategy = extract_strategy(game, w)
        model = strategy_to_circuit(game, strategy)
        with monkeypatch.context() as m:
            m.setattr("aigsynt.game.TwoLevelAig", Aig)
            plain = strategy_to_circuit(game, strategy)
        assert type(model.aig) is TwoLevelAig and type(plain.aig) is Aig
        assert model.aig.num_ands <= plain.aig.num_ands
        assert_same_root_functions(model, plain)
        for order in (static_order, reversed_order):
            with monkeypatch.context() as m:
                m.setattr("aigsynt.game.sift", order)
                other = strategy_to_circuit(game, strategy)
            assert_same_root_functions(model, other)
            if order is static_order:
                assert model.aig.num_ands <= other.aig.num_ands
            assert_model_follows_game(game, strategy, other)
        assert_model_follows_game(game, strategy, model)
        assert_plays_legal_moves(doc, model, seed)
    assert realizable >= 100


def test_copied_model_keeps_its_builder():
    """A model and its copies build on the two-level rules, so a rewrite
    of a model (``reverse_justice`` copies it) keeps minimizing."""
    doc = doc_with(next_of=lambda aig, u, c, l: [aig.xor_(c[0], u[0])],
                   justice=lambda aig, u, c, l: l[0] ^ 1)
    ok, model, _ = synthesize(doc)
    assert ok and type(model.aig) is TwoLevelAig
    assert type(model.copy().aig) is TwoLevelAig
    assert type(reverse_justice(model).aig) is TwoLevelAig


# AND counts of ``synth -o`` models since strategies are translated in
# their sifted order
MODEL_ANDS = {"arbiter": 5, "huffman4": 348, "stress4": 453, "stress8": 713}


@pytest.mark.parametrize("name", MODEL_ANDS)
def test_synthesized_models_do_not_grow(name, tmp_path, monkeypatch):
    game, model = tmp_path / "game.aag", tmp_path / "model.aag"
    game.write_text(write_aiger(benchmark_doc(name, tmp_path, monkeypatch)))
    assert main(["synth", str(game), "-o", str(model)]) == 0
    ands = read_aiger(model.read_text()).aig.num_ands
    assert ands <= MODEL_ANDS[name]
    # nor larger than the translation in the game's own order
    monkeypatch.setattr("aigsynt.game.sift", static_order)
    ok, static, _ = synthesize(read_aiger(game.read_text()))
    assert ok and ands <= static.aig.num_ands


def _steps_by_name(trace):
    """A trace's steps with latch bits keyed by name, and its loop start."""
    if trace is None:
        return None
    return ([(inputs, dict(zip(trace.latch_names, latches)))
             for inputs, latches in trace.steps], trace.loop_start)


def assert_plays_legal_moves(doc, model, seed, steps=12):
    """The model synthesized from doc plays moves its game allows and
    passes both universal checks; returns the number of steps checked.

    Random uncontrollable inputs drive the model for ``steps`` steps,
    up to and including the first step where the game's constraints
    fail: from there on the play is won and every move is allowed.  At
    each step the model must read as the game under some move that
    ``move_relation(game, solve(game))`` allows at that state and
    input: the same next state, outputs, bad, constraint and justice
    literals.  In the new format the model's last outputs are the
    synthesized functions, so the move read off them is the only
    candidate.
    """
    game = build_game(doc)
    relation = move_relation(game, solve(game))
    gdoc = game.doc
    controllable = [is_controllable(name) for _, name in gdoc.inputs]

    def reading(d, values, move=()):
        def read(lits):
            return [values_lit(values, lit) for lit in lits]
        return (read(nxt for _, nxt, _ in d.latches),
                read(lit for lit, _ in d.outputs) + list(move),
                read(lit for lit, _ in d.bad + d.constraints),
                [read(group) for group, _ in d.justice])

    rng = random.Random(seed)
    latches = [False] * len(model.latches)
    for step in range(steps):
        u_values = [rng.random() < 0.5 for _ in model.inputs]
        model_step = reading(model, evaluate_vars(model, latches, u_values))
        legal = inv = False
        for move in product((False, True), repeat=len(game.c_levels)):
            u_iter, c_iter = iter(u_values), iter(move)
            inputs = [next(c_iter) if c else next(u_iter)
                      for c in controllable]
            values = evaluate_vars(gdoc, latches, inputs)
            if reading(gdoc, values, move if gdoc.fmt == "new" else ()) \
                    != model_step:
                continue
            point = dict(zip(game.latch_levels, latches))
            point.update(zip(game.input_levels, inputs))
            legal = legal or relation.evaluate(point)
            inv = game.inv.evaluate(point)  # read off the constraints
        assert legal, f"illegal move at step {step} (seed {seed})"
        if not inv:
            break
        latches = model_step[0]
    assert check_safety(model).holds, seed
    assert check_justice_universal(model).holds, seed
    return step + 1


def test_latch_order_changes_size_not_behaviour():
    """Rotating the latch list moves decision-diagram levels only: the
    verdicts and the counterexamples stay, and both models play legal
    moves.  Their outputs may differ, since a move that is free in the
    game is chosen to keep the diagram small, which depends on the
    order."""
    checks = (lambda d: check_safety(d).trace,
              lambda d: check_justice_universal(d).trace,
              lambda d: find_fair_trace(d).trace)
    realizable = traces = 0
    for seed in range(30):
        doc = random_game_doc(seed + 300, n_latches=3 + seed % 3)
        k = 1 + seed % (len(doc.latches) - 1)
        rotated = doc.copy(latches=doc.latches[k:] + doc.latches[:k])
        for check in checks:
            trace = _steps_by_name(check(doc))
            assert trace == _steps_by_name(check(rotated)), seed
            traces += trace is not None
        ok, model, _ = synthesize(doc)
        ok_rotated, model_rotated, _ = synthesize(rotated)
        assert ok == ok_rotated, seed
        if not ok:
            continue
        realizable += 1
        assert model.outputs and \
            [n for _, n in model.outputs] == [n for _, n in model_rotated.outputs]
        assert_plays_legal_moves(doc, model, seed)
        assert_plays_legal_moves(rotated, model_rotated, seed)
    assert realizable >= 5 and traces >= 10


@pytest.mark.parametrize("fmt", ["new", "old"])
def test_synthesized_models_play_legal_moves(fmt):
    realizable = steps = 0
    for seed in range(100):
        doc = random_game_doc(seed + 1200, n_latches=3 + seed % 3)
        if seed % 2:
            doc = with_random_outputs(doc, seed)
        if fmt == "old":
            doc = as_old_format(doc)
        ok, model, _ = synthesize(doc)
        if not ok:
            continue
        realizable += 1
        steps += assert_plays_legal_moves(doc, model, seed)
    assert realizable >= 30 and steps >= 100


def test_legal_move_check_catches_a_flipped_forced_bit():
    """A mutant model that flips one synthesized bit where the game
    forces it, at the first step the check simulates, plays an illegal
    move there."""
    for seed in range(40):
        doc = random_game_doc(seed + 1300, n_latches=4)
        game = build_game(doc)
        w = solve(game)
        if not is_realizable(game, w):
            continue
        strategy = extract_strategy(game, w)
        relation = move_relation(game, w)
        rng = random.Random(seed)  # the check's first input
        point = {lvl: False for lvl in game.latch_levels}
        point.update((lvl, rng.random() < 0.5) for lvl in game.u_levels)
        c_names = list(strategy.funcs)
        point.update((lvl, strategy.funcs[name].evaluate(point))
                     for name, lvl in zip(c_names, game.c_levels))
        for name, lvl in zip(c_names, game.c_levels):
            if relation.evaluate({**point, lvl: not point[lvl]}):
                continue  # this bit is free here
            state_input = game.mgr.cube({
                v: point[v] for v in game.latch_levels + game.u_levels})
            funcs = dict(strategy.funcs)
            funcs[name] = funcs[name] ^ state_input
            model = strategy_to_circuit(game, strategy)
            mutant = strategy_to_circuit(game, Strategy(funcs))
            assert_plays_legal_moves(doc, model, seed)
            with pytest.raises(AssertionError, match="illegal move at step 0"):
                assert_plays_legal_moves(doc, mutant, seed)
            return
    pytest.fail("no game forces a bit at its first simulated step")


def test_ageing_the_ite_cache_changes_no_node_and_no_output(monkeypatch):
    """Solving with the ite cache aged per pass, and with it never aged,
    gives the same nodes, models and check results.  The ageing does
    drop entries: ``dropped`` counts the ``age`` calls that discard an
    old generation holding keys not promoted into the young one."""
    age = BddManager.age
    dropped_at_age = []

    def counted_age(mgr):
        dropped_at_age.append(len(mgr._ite_old.keys() - mgr._ite_young.keys()))
        age(mgr)

    def run(doc):
        game = build_game(doc)
        w = solve(game)
        checked, text = [doc], None
        if is_realizable(game, w):
            model = strategy_to_circuit(game, extract_strategy(game, w))
            checked.append(model)
            text = write_aiger(model)
        renders = [(r.holds, r.trace and r.trace.render())
                   for d in checked
                   for r in (check_safety(d), check_justice_universal(d))]
        return w.node, game.mgr.node_count, text, renders

    realizable = dropped = 0
    for seed in range(60):
        doc = random_game_doc(seed + 1000, n_latches=3 + seed % 4)
        if seed % 2:
            doc = with_random_outputs(doc, seed)
        dropped_at_age.clear()
        with monkeypatch.context() as m:
            m.setattr(BddManager, "age", counted_age)
            aged = run(doc)
        with monkeypatch.context() as m:
            m.setattr(BddManager, "age", lambda self: None)
            kept = run(doc)
        assert aged == kept, seed
        realizable += aged[2] is not None
        dropped += sum(n > 0 for n in dropped_at_age)
    assert realizable >= 20 and dropped >= 40


def test_solve_logs_each_pass_at_debug_level(caplog, monkeypatch):
    passes = []

    def counted(game, z):
        levels = mu_levels(game, z)
        sizes = [(front.dag_size(), y.dag_size())
                 for y, front, _ in game._last_pass[1][1:] if front != y]
        passes.append((len(levels), game.mgr.node_count, len(sizes),
                       sum(f for f, _ in sizes), sum(y for _, y in sizes)))
        return levels

    monkeypatch.setattr("aigsynt.game.mu_levels", counted)
    doc = random_game_doc(3, n_latches=3)
    with caplog.at_level(logging.DEBUG, logger="aigsynt.game"):
        solve(build_game(doc))
    assert len(passes) >= 2
    pattern = (r"solve pass (\d+): (\d+) mu iterations, (\d+) nodes, ite "
               r"cache \d+ young / \d+ old, (\d+) restricted frontiers of "
               r"(\d+) nodes against (\d+) in their levels")
    assert [tuple(map(int, re.fullmatch(pattern, r.getMessage()).groups()))
            for r in caplog.records] == \
        [(i, *figures) for i, figures in enumerate(passes)]
    caplog.clear()
    solve(build_game(doc))  # the default level logs nothing
    assert not caplog.records


def test_strategy_to_circuit_logs_its_sifted_sizes(caplog, tmp_path,
                                                   monkeypatch):
    game = build_game(benchmark_doc("huffman4", tmp_path, monkeypatch))
    strategy = extract_strategy(game, solve(game))
    funcs = list(strategy.funcs.values())
    sifted = sift(game.mgr, funcs)
    assert sifted.size < sifted.static_size == \
        len(postorder(game.mgr._nodes, [func.node for func in funcs]))
    with caplog.at_level(logging.DEBUG, logger="aigsynt.game"):
        strategy_to_circuit(game, strategy)
    assert [r.getMessage() for r in caplog.records] == [
        f"strategy_to_circuit: strategies of "
        f"{[func.dag_size() for func in funcs]} nodes, shared diagram of "
        f"{sifted.static_size} nodes in the static order and "
        f"{sifted.size} sifted, {sifted.swaps} swaps"]
    caplog.clear()
    strategy_to_circuit(game, strategy)
    assert not caplog.records
