"""Model checker verdicts, trace validity, and the explicit oracle."""

import logging
from itertools import product
from pathlib import Path

import pytest

from aigsynt.aiger import AigerDoc, Simulator, evaluate_vars, values_lit, \
    write_aiger
from aigsynt import mc
from aigsynt.cli import build_spec_doc, main
from aigsynt.game import WINNING_BLOCK, build_game, read_winning_block, \
    solve, synthesize, winning_block
from aigsynt.mc import (
    McError, _Rings, _SymbolicModel, _block_proves_safety, _cut_vars, _rings,
    _walk_to_ring0, check_justice_universal, check_safety, find_fair_trace,
)
from aigsynt.oracle import solve_explicit
from aigsynt.transforms import justice_to_safety, reverse_justice

from helpers import (
    enumerate_lasso_fg_not_just, random_game_doc, with_random_outputs,
)
from test_game import benchmark_doc, doc_with
from test_transforms import closed_doc


def replay(doc: AigerDoc, trace):
    """Replay a trace against the document; returns per-step valuations."""
    latch_vals = [False] * len(doc.latches)
    out = []
    for inputs, latches in trace.steps:
        assert tuple(latch_vals) == latches, "trace latches diverge"
        values = evaluate_vars(doc, latch_vals, list(inputs))
        out.append(values)
        latch_vals = [values_lit(values, nl) for _, nl, _ in doc.latches]
    return out, tuple(latch_vals)


def test_safety_holds_without_bad():
    assert check_safety(doc_with()).holds


def test_safety_bad_true_counterexample_length_one():
    result = check_safety(doc_with(bad=lambda aig, u, c, l: 1))
    assert not result.holds
    assert len(result.trace.steps) == 1


def test_safety_counterexample_replays():
    # bad reachable only after two steps: bad = l1, next(l1) = l0, next(l0) = u
    def nexts(aig, u, c, l):
        return [u[0], l[0]]

    doc = doc_with(next_of=nexts, bad=lambda aig, u, c, l: l[1], n_latches=2)
    result = check_safety(doc)
    assert not result.holds
    values, _ = replay(doc, result.trace)
    assert values_lit(values[-1], doc.bad[0][0])
    # constraints held at every step (there are none, trivially)
    assert len(result.trace.steps) == 3


def test_safety_respects_constraint_discharge():
    # bad can only fire together with a constraint violation: holds
    doc = doc_with(bad=lambda aig, u, c, l: u[0],
                   constraint=lambda aig, u, c, l: u[0] ^ 1)
    assert check_safety(doc).holds


def test_safety_old_format_outputs():
    doc = AigerDoc(fmt="old")
    u = doc.add_input("u")
    doc.outputs.append((u, "bad"))
    result = check_safety(doc)
    assert not result.holds


def test_justice_vacuous_without_section():
    assert check_justice_universal(doc_with()).holds


def test_justice_constant_true_holds():
    doc = doc_with(justice=lambda aig, u, c, l: 1)
    assert check_justice_universal(doc).holds


def test_justice_constant_false_lasso():
    doc = doc_with(next_of=lambda aig, u, c, l: [l[0]],
                   justice=lambda aig, u, c, l: 0)
    result = check_justice_universal(doc)
    assert not result.holds
    assert result.trace.loop_start is not None
    # the loop closes: replaying ends in the state the loop started from
    values, final_state = replay(doc, result.trace)
    assert final_state == result.trace.steps[result.trace.loop_start][1]
    # justice is never raised on the loop and constraints hold throughout
    jlit = doc.justice_literal()
    for v in values[result.trace.loop_start:]:
        assert not values_lit(v, jlit)


def test_justice_agrees_with_enumeration_on_hand_models():
    cases = [
        closed_doc(lambda aig, u, l: [l[0], l[1]], lambda aig, u, l: l[0]),
        closed_doc(lambda aig, u, l: [l[0] ^ 1, l[1]], lambda aig, u, l: l[0]),
        closed_doc(lambda aig, u, l: [u[0], l[0]],
                   lambda aig, u, l: aig.and_(l[0], l[1])),
        closed_doc(lambda aig, u, l: [u[0], l[0]],
                   lambda aig, u, l: aig.or_(l[0], l[1]),
                   constraint=lambda aig, u, l: aig.or_(u[0], l[0])),
        closed_doc(lambda aig, u, l: [aig.ite_(l[1], l[0], u[0]),
                                      aig.or_(l[1], u[0])],
                   lambda aig, u, l: aig.and_(l[0] ^ 1, l[1]) ^ 1),
    ]
    for seed in range(8):
        cases.append(random_game_doc(seed + 500, n_latches=3, n_u=1, n_c=0,
                                     n_gates=6))
    for i, doc in enumerate(cases):
        expected_violation = enumerate_lasso_fg_not_just(doc)
        got = check_justice_universal(doc)
        assert got.holds == (not expected_violation), f"case {i}"


def test_fair_trace_none_when_justice_false():
    doc = doc_with(next_of=lambda aig, u, c, l: [l[0]],
                   justice=lambda aig, u, c, l: 0)
    assert not find_fair_trace(doc).found


def test_fair_trace_self_loop_initial():
    doc = doc_with(next_of=lambda aig, u, c, l: [l[0]],
                   justice=lambda aig, u, c, l: 1)
    result = find_fair_trace(doc)
    assert result.found
    assert result.trace.loop_start == 0  # stem of length zero


def test_fair_trace_replays_with_justice_on_loop():
    doc = closed_doc(lambda aig, u, l: [u[0], l[0]],
                     lambda aig, u, l: aig.and_(l[0], l[1]))
    result = find_fair_trace(doc)
    assert result.found
    values, final_state = replay(doc, result.trace)
    assert final_state == result.trace.steps[result.trace.loop_start][1]
    jlit = doc.justice_literal()
    assert any(values_lit(v, jlit) for v in values[result.trace.loop_start:])
    for v in values:
        assert all(values_lit(v, lit) for lit, _ in doc.constraints)


def test_fair_trace_raises_input_dependent_justice_on_loop():
    # the self-looping latch admits every input; only u0 = 1 is fair, so
    # the loop's closing step must be chosen for justice, not just for
    # keeping the constraints
    doc = doc_with(next_of=lambda aig, u, c, l: [l[0]],
                   justice=lambda aig, u, c, l: u[0])
    result = find_fair_trace(doc)
    assert result.found
    values, final_state = replay(doc, result.trace)
    assert final_state == result.trace.steps[result.trace.loop_start][1]
    jlit = doc.justice_literal()
    assert any(values_lit(v, jlit) for v in values[result.trace.loop_start:])


def test_fair_cycle_in_unreachable_states_stops_early(monkeypatch):
    # l0 stays 0 from the initial state; the only fair cycle is the
    # self-loop of l0 = 1, which the initial state never reaches
    doc = doc_with(next_of=lambda aig, u, c, l: [l[0]],
                   justice=lambda aig, u, c, l: l[0])
    fair_images = []
    pre_exists = _SymbolicModel.pre_exists

    def counting(self, region, step_pred):
        if step_pred == self.inv & self.just:
            fair_images.append(region)
        return pre_exists(self, region, step_pred)

    monkeypatch.setattr(_SymbolicModel, "pre_exists", counting)
    result = find_fair_trace(doc)
    assert not result.found
    # the first pre-image under the fair step already excludes the initial
    # state from the stem; reaching the νZ fixpoint would take a second one
    # to confirm that the region stopped shrinking
    assert len(fair_images) == 1


def test_justice_check_stops_once_init_leaves_the_stem(monkeypatch):
    # l0 stays 0 from the initial state and justice is raised whenever
    # l0 = 0, so the only quiet cycle is the self-loop of l0 = 1, which
    # the initial state never reaches.  The first νZ iteration shrinks the
    # candidate region from every state to l0 = 1; the second finds the
    # initial state outside its stem set and stops there.
    doc = doc_with(next_of=lambda aig, u, c, l: [l[0]],
                   justice=lambda aig, u, c, l: l[0] ^ 1)
    images = []
    pre_exists = _SymbolicModel.pre_exists

    def counting(self, region, step_pred):
        images.append(region)
        return pre_exists(self, region, step_pred)

    monkeypatch.setattr(_SymbolicModel, "pre_exists", counting)
    assert check_justice_universal(doc).holds
    # two quiet-step images for the loop rings, one fair-step image, and
    # one for the stem rings of l0 = 1; reaching the νZ fixpoint would
    # take a second fair-step image to confirm that the region stopped
    # shrinking
    assert len(images) == 4


def test_random_counterexamples_replay_faithfully():
    """Every counterexample or lasso the checker produces is a real run
    of the document with the claimed step properties."""
    safety_violations = 0
    justice_violations = 0
    for seed in range(40):
        doc = random_game_doc(seed + 1000, n_latches=4, n_u=2, n_c=1,
                              n_gates=10)
        sresult = check_safety(doc)
        if not sresult.holds:
            safety_violations += 1
            values, _ = replay(doc, sresult.trace)
            for v in values:
                assert all(values_lit(v, lit) for lit, _ in doc.constraints)
            assert any(values_lit(values[-1], lit) for lit, _ in doc.bad)
        jresult = check_justice_universal(doc)
        if not jresult.holds:
            justice_violations += 1
            trace = jresult.trace
            values, final_state = replay(doc, trace)
            assert final_state == trace.steps[trace.loop_start][1]
            jlit = doc.justice_literal()
            for v in values:
                assert all(values_lit(v, lit) for lit, _ in doc.constraints)
            for v in values[trace.loop_start:]:
                assert not values_lit(v, jlit)
        reversed_doc = reverse_justice(doc)
        fresult = find_fair_trace(reversed_doc)
        assert fresult.found == (not jresult.holds), seed
        if fresult.found:
            trace = fresult.trace
            values, final_state = replay(reversed_doc, trace)
            assert final_state == trace.steps[trace.loop_start][1]
            jlit = reversed_doc.justice_literal()
            for v in values:
                assert all(values_lit(v, lit)
                           for lit, _ in reversed_doc.constraints)
            assert any(values_lit(v, jlit) for v in values[trace.loop_start:])
    assert safety_violations >= 5
    assert justice_violations >= 5


def test_frontiers_give_the_rings_and_the_walks_of_full_rings():
    """Each frontier ``restrict(ring[i], ¬ring[i-1])`` has the same
    pre-image modulo ``ring[i]`` as the ring, and a walk that steps into
    the frontiers takes the same steps as one into the rings, from every
    state.  These rings are too small for ``_rings`` to use frontiers,
    so the frontiers are built here."""
    walked = differ = 0
    for seed in range(60):
        doc = random_game_doc(seed + 1400, n_latches=4 + seed % 3, n_c=1)
        if seed % 2:
            doc = with_random_outputs(doc, seed)
        sm = _SymbolicModel(doc)
        quiet = sm.inv & ~sm.just
        for target, step in ((sm.now_exists(sm.inv & sm.bad), sm.inv),
                             (sm.now_exists(quiet & sm.bad), quiet)):
            rings = _rings(sm, target, step).rings
            fronts = [rings[0]] + [rings[i].restrict(~rings[i - 1])
                                   for i in range(1, len(rings))]
            differ += sum(f != r for f, r in zip(fronts, rings))
            for i in range(len(rings) - 1):
                assert rings[i] | sm.pre_exists(fronts[i], step) == \
                    rings[i + 1], seed
            for state in product((False, True), repeat=len(doc.latches)):
                if not sm.contains(rings[-1], state):
                    continue
                full, frontier = [], []
                end = _walk_to_ring0(sm, _Rings(rings, rings, None), state,
                                     step, full)
                assert _walk_to_ring0(sm, _Rings(rings, fronts, None), state,
                                      step, frontier) == end
                assert frontier == full, seed
                walked += len(full)
    assert walked >= 300 and differ >= 20


def test_each_walk_step_lowers_the_first_ring_holding_the_state(monkeypatch):
    """Along every safety trace and lasso of 200 random games, each step
    of ``_walk_to_ring0`` takes a state first in ring ``l`` to one first
    in ring ``l - 1``, down to ring 0.  A state that the one-step test
    found lies in no ring; it counts as first in ring ``len(rings)``."""
    walks = []

    def recording(sm, search, state, step_pred, steps, level=None):
        start = len(steps)
        end = _walk_to_ring0(sm, search, state, step_pred, steps, level)
        walks.append((sm, search.rings, [s for _, s in steps[start:]] + [end]))
        return end

    monkeypatch.setattr(mc, "_walk_to_ring0", recording)
    for seed in range(200):
        doc = random_game_doc(seed + 1700, n_latches=3 + seed % 4, n_c=1)
        check_safety(doc)
        check_justice_universal(doc)
        find_fair_trace(reverse_justice(doc))
    steps = 0
    for sm, rings, states in walks:
        firsts = [next((i for i, ring in enumerate(rings)
                        if sm.contains(ring, state)), len(rings))
                  for state in states]
        assert firsts == list(range(firsts[0], -1, -1))
        steps += len(states) - 1
    assert len(walks) >= 200 and steps >= 100


def _safety_walk_over_full_rings(sm):
    """``check_safety``'s trace as a walk over the full rings, taken to
    their fixpoint with no stop rule, each ring its own frontier; and
    the first ring holding the initial state."""
    full = _rings(sm, sm.now_exists(sm.inv & sm.bad), sm.inv).rings
    level = next(i for i, ring in enumerate(full)
                 if sm.contains(ring, sm.init_state))
    steps = []
    state = _walk_to_ring0(sm, _Rings(full, full, None), sm.init_state,
                           sm.inv, steps)
    steps.append((sm.pick_input(state, sm.inv & sm.bad), state))
    return sm.make_trace(steps), level


def test_check_safety_tests_the_last_ring_without_building_it(
        tmp_path, monkeypatch, caplog):
    """On the stress4 windows and game, ``check_safety`` stops one
    pre-image before the first ring holding the initial state: it finds
    a step from that state into the frontier below.  Its trace is the
    walk over full rings, and it replays on ``Simulator``."""
    game = benchmark_doc("stress4", tmp_path, monkeypatch)
    calls = []
    original = _SymbolicModel.pre_exists

    def counting(self, region, step_pred):
        calls.append(region)
        return original(self, region, step_pred)

    for doc in [justice_to_safety(game, k) for k in range(1, 5)] + [game]:
        sm = _SymbolicModel(doc)
        reference, level = _safety_walk_over_full_rings(sm)
        calls.clear()
        caplog.clear()
        with monkeypatch.context() as m, \
                caplog.at_level(logging.DEBUG, logger="aigsynt.mc"):
            m.setattr(_SymbolicModel, "pre_exists", counting)
            result = check_safety(_SymbolicModel(doc))
        # stopping at the first ring holding the state takes two
        assert level == 2 and len(calls) == 1
        assert [r.getMessage() for r in caplog.records] == [
            "check_safety: 2 rings, 1 pre-images, one-step stop: yes"]
        assert not result.holds
        assert result.trace.render() == reference.render()
        bad_lits, constraint_lits, _ = doc.checked_lits()
        sim = Simulator(doc)
        for i, (inputs, latches) in enumerate(result.trace.steps):
            assert tuple(sim.latch_values) == latches
            values = sim.step(list(inputs))
            assert all(values_lit(values, lit) for lit in constraint_lits)
            last = i == len(result.trace.steps) - 1
            assert any(values_lit(values, lit) for lit in bad_lits) == last


def test_check_safety_logs_its_search_at_debug_level(caplog, monkeypatch):
    """One line per search: its rings, the pre-images it took (counted
    here) and whether the one-step test stopped it, which on these
    small rings it never does.  A proof by the winning-region block
    searches nothing and logs nothing."""
    calls = []
    original = _SymbolicModel.pre_exists
    monkeypatch.setattr(_SymbolicModel, "pre_exists", lambda self, *args:
                        calls.append(args) or original(self, *args))
    for seed in range(20):
        doc = random_game_doc(seed + 1500, n_latches=3 + seed % 4)
        sm = _SymbolicModel(doc)
        rings = _rings(sm, sm.now_exists(sm.inv & sm.bad), sm.inv,
                       sm.init_state).rings
        calls.clear()
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="aigsynt.mc"):
            check_safety(sm)
        assert [r.getMessage() for r in caplog.records] == [
            f"check_safety: {len(rings)} rings, {len(calls)} pre-images, "
            "one-step stop: no"], seed
    doc = doc_with()
    sm = _SymbolicModel(doc)
    doc.comments += winning_block(sm, sm.mgr.true)
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="aigsynt.mc"):
        assert check_safety(doc).holds
    assert not caplog.records


def test_state_specialized_step_agrees_with_the_full_step():
    """From every state reachable in up to three steps, into every
    frontier of the safety rings: step_pred and δ specialized to the
    state (``at_state``) give an empty step exactly when ``step_pred ∧
    F∘δ`` is empty at that state, and ``pick_input`` chooses the same
    inputs from both."""
    compared = stepped = 0
    for seed in range(60):
        doc = with_random_outputs(
            random_game_doc(seed + 1600, n_latches=4 + seed % 4, n_c=1), seed)
        sm = _SymbolicModel(doc)
        rings = _rings(sm, sm.now_exists(sm.inv & sm.bad), sm.inv).rings
        fronts = set(rings) | {rings[i].restrict(~rings[i - 1])
                               for i in range(1, len(rings))}
        layer = seen = {sm.init_state}
        for _ in range(3):
            layer = {sm.step(state, inputs) for state in layer
                     for inputs in product((False, True),
                                           repeat=len(doc.inputs))} - seen
            seen = seen | layer
        for state in seen:
            pred, delta = sm.at_state(state, sm.inv)
            for front in fronts:
                special = pred & front.compose(delta)
                full = sm.inv & front.compose(sm.delta)
                assert special.is_false == \
                    (sm.state_cube(state) & full).is_false, seed
                if not special.is_false:
                    assert sm.pick_input(state, special) == \
                        sm.pick_input(state, full), seed
                    stepped += 1
                compared += 1
    assert compared >= 1000 and stepped >= 500


def test_trace_render_format():
    doc = doc_with(bad=lambda aig, u, c, l: 1)
    trace = check_safety(doc).trace
    text = trace.render()
    lines = text.splitlines()
    assert lines[0].startswith("# inputs: ")
    assert lines[1].startswith("# latches: ")
    assert lines[2] == "00 0"


# cut outputs -------------------------------------------------------------

HUFFMAN4 = Path(__file__).resolve().parent.parent / "benchmarks" / \
    "huffman4" / "huffman4.smv"


def _check_renders(doc: AigerDoc) -> list:
    """Verdict and trace render of every check, both fair readings too."""
    checks = [check_safety(doc), check_justice_universal(doc)]
    fairs = [find_fair_trace(doc), find_fair_trace(reverse_justice(doc))]
    return ([r.holds for r in checks] + [r.found for r in fairs] +
            [r.trace and r.trace.render() for r in checks + fairs])


def test_cut_outputs_keep_every_verdict_and_trace():
    """Outputs on gates of the checked cones become cuts; the checks
    give the same verdicts and the same traces as without outputs."""
    with_cuts = traces = 0
    for seed in range(300):
        doc = random_game_doc(seed + 1000, n_latches=4, n_u=2, n_c=1,
                              n_gates=10)
        named = with_random_outputs(doc, seed)
        renders = _check_renders(doc)
        assert _check_renders(named) == renders, seed
        with_cuts += bool(_cut_vars(named))
        traces += sum(render is not None for render in renders[4:])
    assert with_cuts >= 250
    assert traces >= 500


def _separate_checks(doc: AigerDoc) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``mc`` from two checks, each on
    a model of its own."""
    safety, justice = check_safety(doc), check_justice_universal(doc)
    if not safety.holds:
        return 1, "VIOLATED (safety)\n", safety.trace.render()
    if not justice.holds:
        return 1, "VIOLATED (justice)\n", justice.trace.render()
    return 0, "SAFETY: holds; JUSTICE: holds\n", ""


def test_mc_command_shares_one_model_between_its_checks(tmp_path, capsys):
    """``mc`` runs both checks on one model and prints what two checks
    on models of their own would."""
    verdicts = []
    path = tmp_path / "doc.aag"
    for seed in range(300):
        doc = random_game_doc(seed + 1000, n_latches=4, n_u=2, n_c=1,
                              n_gates=10)
        for variant in (doc, with_random_outputs(doc, seed)):
            path.write_text(write_aiger(variant))
            code = main(["mc", str(path)])
            out, err = capsys.readouterr()
            expected = _separate_checks(variant)
            assert (code, out, err) == expected, seed
            verdicts.append(expected[1])
    # safety holds and justice fails on 19 of the 300 documents
    assert verdicts.count("VIOLATED (justice)\n") >= 30
    assert verdicts.count("VIOLATED (safety)\n") >= 300
    assert verdicts.count("SAFETY: holds; JUSTICE: holds\n") >= 150


def test_synthesized_outputs_are_cut():
    """Each strategy output read by the model gets one cut level, and
    the next-state functions shrink to a fraction of the inlined ones."""
    ok, model, _ = synthesize(build_spec_doc(HUFFMAN4))
    assert ok
    cut = _SymbolicModel(model)
    plain = _SymbolicModel(model.copy(outputs=[]))
    assert [name for _, name in model.outputs] == ["cipher", "done"]
    assert len(cut.quantified) == len(cut.input_levels) + 2
    assert plain.quantified == plain.input_levels
    biggest = max(f.dag_size() for f in cut.delta.values())
    assert 4 * biggest <= max(f.dag_size() for f in plain.delta.values())


def test_output_outside_the_checked_cones_is_not_cut():
    def nexts(aig, u, c, l):
        return [aig.and_(u[0], l[0])]

    doc = doc_with(next_of=nexts, bad=lambda aig, u, c, l: l[0])
    read = doc.latches[0][1]
    unread = doc.aig.and_(doc.inputs[1][0], doc.latches[0][0] ^ 1)
    doc.outputs = [(unread, "unread"), (read ^ 1, "read"), (read, "again")]
    assert _cut_vars(doc) == [read >> 1]
    assert len(_SymbolicModel(doc).quantified) == len(doc.inputs) + 1
    old = AigerDoc(fmt="old")
    old.outputs.append((old.aig.and_(old.add_input("u"), old.add_latch("l")),
                        "bad"))
    assert _cut_vars(old) == []


# explicit oracle ---------------------------------------------------------


def test_oracle_still_importable_from_mc():
    import aigsynt.mc
    import aigsynt.oracle
    assert aigsynt.mc.solve_explicit is aigsynt.oracle.solve_explicit


def test_explicit_trivial_safe_game_all_states():
    doc = doc_with(next_of=lambda aig, u, c, l: [l[0]])
    result = solve_explicit(doc)
    assert result.realizable
    assert result.winning.all()


def test_explicit_bad_true_empty():
    doc = doc_with(bad=lambda aig, u, c, l: 1)
    result = solve_explicit(doc)
    assert not result.realizable
    assert not result.winning.any()


def test_explicit_hand_solved_two_state_game():
    # next(l) = c; bad = l & u: only l=0 is winning (c must stay 0)
    doc = doc_with(next_of=lambda aig, u, c, l: [c[0]],
                   bad=lambda aig, u, c, l: aig.and_(l[0], u[0]))
    result = solve_explicit(doc)
    assert result.winning_set() == {0}


def test_explicit_weak_until_discharge():
    # bad fires only when the constraint fails the same step: all states win
    doc = doc_with(bad=lambda aig, u, c, l: u[0],
                   constraint=lambda aig, u, c, l: u[0] ^ 1)
    assert solve_explicit(doc).winning.all()


def test_explicit_rejects_input_dependent_justice():
    doc = doc_with(justice=lambda aig, u, c, l: u[0])
    with pytest.raises(McError, match="justice literal depends"):
        solve_explicit(doc)


def test_explicit_too_many_states_rejected():
    doc = AigerDoc(fmt="new")
    for i in range(13):
        lit = doc.add_latch(f"l{i}")
        doc.set_latch_next(lit, lit)
    with pytest.raises(McError, match="too large"):
        solve_explicit(doc, max_states=4096)


def test_explicit_safe_reachable_old_format_only():
    doc = doc_with(justice=lambda aig, u, c, l: l[0])
    with pytest.raises(McError, match="old-format"):
        solve_explicit(doc, mode="safe_reachable")


def _explicit_safety_violation(doc: AigerDoc) -> int | None:
    """Breadth-first explicit search for a weak-until safety violation.

    Returns the depth (steps from the initial state) of the first state
    with a violating input, or None when no violation is reachable.
    """
    n_latches = len(doc.latches)
    n_inputs = len(doc.inputs)
    if doc.fmt == "old":
        bad_lits = [lit for lit, _ in doc.outputs]
        constraint_lits = []
    else:
        bad_lits = [lit for lit, _ in doc.bad]
        constraint_lits = [lit for lit, _ in doc.constraints]
    seen = {0}
    frontier = [0]
    depth = 0
    while frontier:
        successors = []
        for s in frontier:
            latch_vals = [bool((s >> i) & 1) for i in range(n_latches)]
            for combo in range(1 << n_inputs):
                input_vals = [bool((combo >> i) & 1) for i in range(n_inputs)]
                values = evaluate_vars(doc, latch_vals, input_vals)
                inv = all(values_lit(values, lit) for lit in constraint_lits)
                if not inv:
                    continue  # history breaks here; nothing beyond can violate
                if any(values_lit(values, lit) for lit in bad_lits):
                    return depth
                nxt = 0
                for i, (_, next_lit, _) in enumerate(doc.latches):
                    if values_lit(values, next_lit):
                        nxt |= 1 << i
                if nxt not in seen:
                    seen.add(nxt)
                    successors.append(nxt)
        frontier = successors
        depth += 1
    return None


def test_check_safety_agrees_with_explicit_simulation():
    cases = [doc_with(bad=lambda aig, u, c, l: 1),
             doc_with(bad=lambda aig, u, c, l: u[0],
                      constraint=lambda aig, u, c, l: u[0] ^ 1)]
    for seed in range(20):
        cases.append(random_game_doc(seed + 600, n_latches=4, n_u=2, n_c=1,
                                     n_gates=10))
    for i, doc in enumerate(cases):
        expected = _explicit_safety_violation(doc) is not None
        assert check_safety(doc).holds == (not expected), f"case {i}"


def test_safety_counterexamples_are_shortest():
    """The backward rings stop at the first one holding the initial state;
    the counterexample still takes the fewest steps to a violation."""
    depths = []
    for seed in range(20):
        doc = random_game_doc(seed + 900, n_latches=4 + seed % 3, n_u=2,
                              n_c=1, n_gates=10 + seed % 7)
        depth = _explicit_safety_violation(doc)
        result = check_safety(doc)
        assert result.holds == (depth is None), seed
        if depth is not None:
            assert len(result.trace.steps) == 1 + depth, seed
            depths.append(depth)
    assert max(depths) >= 2


def test_fair_trace_iff_justice_violation():
    """find_fair_trace on the reversed model agrees with the universal
    justice check on the original, across the small-model suite."""
    from aigsynt.transforms import reverse_justice
    cases = [random_game_doc(seed + 640, n_latches=3, n_u=1, n_c=0,
                             n_gates=6) for seed in range(12)]
    for i, doc in enumerate(cases):
        violated = not check_justice_universal(doc).holds
        found = find_fair_trace(reverse_justice(doc)).found
        assert found == violated, f"case {i}"


def test_explicit_safe_reachable_agrees_on_verdict():
    from aigsynt.transforms import justice_to_safety
    for seed in range(10):
        doc = random_game_doc(seed + 800, n_latches=3, n_u=1, n_c=1,
                              n_gates=8)
        kdoc = justice_to_safety(doc, 2)
        full = solve_explicit(kdoc, mode="full")
        safe = solve_explicit(kdoc, mode="safe_reachable")
        assert full.realizable == safe.realizable, seed
        assert len(safe.states) <= len(full.states)


# the winning-region block --------------------------------------------------


def realizable_models(n_seeds: int):
    """(seed, model) for each realizable game among the first n_seeds of
    the random-game set."""
    for seed in range(n_seeds):
        ok, model, _ = synthesize(random_game_doc(seed + 1400,
                                                  n_latches=3 + seed % 6))
        if ok:
            yield seed, model


def _mc(doc: AigerDoc, path: Path, capsys) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of ``mc`` on doc, written to path."""
    path.write_text(write_aiger(doc))
    code = main(["mc", str(path)])
    out, err = capsys.readouterr()
    return code, out, err


def _noted(err: str, plain_err: str) -> bool:
    """Whether ``mc``'s stderr is that of the run without the block with
    one note ahead of it, rather than that stderr itself."""
    if err == plain_err:
        return False
    note, rest = err.split("\n", 1)
    assert note.startswith("note: winning-region block not used: ")
    assert rest == plain_err
    return True


def test_winning_region_block_keeps_every_mc_result(tmp_path, capsys):
    """``mc`` exits and prints the same on every synthesized model of the
    random-game set with its block as without it, and every block
    proves safety on its own."""
    path = tmp_path / "model.aag"
    models = 0
    for seed, model in realizable_models(200):
        assert model.comments[0] == f"{WINNING_BLOCK} {len(model.latches)}"
        assert _block_proves_safety(_SymbolicModel(model)), seed
        assert _mc(model, path, capsys) == \
            _mc(model.copy(comments=[]), path, capsys), seed
        models += 1
    assert models >= 100


def test_winning_region_block_never_makes_a_violated_document_hold(
        tmp_path, capsys):
    """The random games read as closed documents, every input free, carry
    a block of W = true or of the game's winning region: each verdict,
    stdout and trace stays as it was, and a block that proves nothing
    adds one note ahead of the trace."""
    path = tmp_path / "doc.aag"
    violated = notes = 0
    for seed in range(200):
        doc = random_game_doc(seed + 1400, n_latches=3 + seed % 6)
        game = build_game(doc)
        assert game.doc is doc  # a state-based justice literal
        plain = _mc(doc, path, capsys)
        violated += plain[1] == "VIOLATED (safety)\n"
        for block in ([f"{WINNING_BLOCK} {len(doc.latches)}"],
                      winning_block(game, solve(game))):
            code, out, err = _mc(doc.copy(comments=block), path, capsys)
            assert (code, out) == plain[:2], seed
            notes += _noted(err, plain[2])
    assert violated >= 50 and notes >= 100


def _corrupted_blocks(model: AigerDoc) -> list[tuple[str, list[str]]]:
    """(kind, block) for each corruption of the model's block that
    applies to it."""
    sm = _SymbolicModel(model)
    w = read_winning_block(sm)
    header, *lines = model.comments
    blocks = [("wrong latch count",
               [f"{WINNING_BLOCK} {len(model.latches) + 1}", *lines])]
    if lines:  # else W is true
        latch, lo, hi = lines[-1].split()
        blocks += [("flipped child",
                    [header, *lines[:-1], f"{latch} {hi} {lo}"]),
                   ("dropped line", [header, *lines[1:]])]
    without_init = w & ~sm.state_cube(sm.init_state)
    if not without_init.is_false:  # an empty W would be written as true
        blocks.append(("no initial state", winning_block(sm, without_init)))
    bad_states = sm.now_exists(sm.inv & sm.bad) & ~w
    if not bad_states.is_false:
        picked = bad_states.sat_one()
        state = tuple(picked.get(lvl, False) for lvl in sm.latch_levels)
        blocks.append(("not inductive",
                       winning_block(sm, w | sm.state_cube(state))))
    return blocks


def test_corrupted_winning_region_block_changes_no_verdict(tmp_path, capsys):
    """A corrupted block never changes what ``mc`` prints or exits with and
    never raises; each corruption that states no proof gets its note."""
    path = tmp_path / "model.aag"
    seen: dict[str, int] = {}
    noted: dict[str, int] = {}
    for seed, model in realizable_models(120):
        plain = _mc(model.copy(comments=[]), path, capsys)
        for kind, block in _corrupted_blocks(model):
            code, out, err = _mc(model.copy(comments=block), path, capsys)
            assert (code, out) == plain[:2], (seed, kind)
            seen[kind] = seen.get(kind, 0) + 1
            noted[kind] = noted.get(kind, 0) + _noted(err, plain[2])
    assert set(seen) == {"flipped child", "dropped line", "wrong latch count",
                         "no initial state", "not inductive"}
    for kind in ("wrong latch count", "no initial state", "not inductive"):
        assert noted[kind] == seen[kind] >= 20, kind
    for kind in ("flipped child", "dropped line"):
        assert noted[kind] >= seen[kind] // 2, kind
