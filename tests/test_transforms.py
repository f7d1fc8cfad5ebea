"""Window reduction and justice reversal, checked against explicit oracles."""

from pathlib import Path

import pytest

from aigsynt.aiger import (
    AigerDoc, CONTROLLABLE_PREFIX, Simulator, evaluate_vars, sweep, values_lit,
    write_aiger,
)
from aigsynt.cli import build_spec_doc
from aigsynt.game import WINNING_BLOCK, delay_justice, synthesize
from aigsynt.mc import find_fair_trace
from aigsynt.oracle import solve_explicit
from aigsynt.transforms import (
    TransformError, fold_constraints_into_bad, justice_to_safety,
    reverse_justice,
)

from helpers import (
    enumerate_fair_lasso, enumerate_lasso_fg_not_just, random_game_doc,
)
from test_game import doc_with


# justice_to_safety ----------------------------------------------------------


def test_requires_single_justice():
    with pytest.raises(TransformError, match="justice"):
        justice_to_safety(doc_with(), 2)


def test_negative_k_rejected():
    doc = doc_with(justice=lambda aig, u, c, l: l[0])
    with pytest.raises(TransformError, match="nonnegative"):
        justice_to_safety(doc, -1)


def test_output_is_old_format_single_bad():
    doc = doc_with(justice=lambda aig, u, c, l: l[0],
                   bad=lambda aig, u, c, l: u[0],
                   constraint=lambda aig, u, c, l: u[0] ^ 1)
    out = justice_to_safety(doc, 2)
    assert out.fmt == "old"
    assert [n for _, n in out.outputs] == ["bad"]
    assert not out.bad and not out.constraints and not out.justice


def test_counter_width():
    doc = doc_with(justice=lambda aig, u, c, l: l[0])
    for k, width in ((0, 1), (1, 2), (2, 2), (3, 3), (6, 3), (7, 4)):
        out = justice_to_safety(doc, k)
        counter = [n for _, _, n in out.latches if n.startswith("justice_wait")]
        assert len(counter) == width, k


@pytest.mark.parametrize("name", ["arbiter", "huffman4"])
def test_windows_have_no_dead_gate(name):
    bench = Path(__file__).resolve().parent.parent / "benchmarks"
    doc = build_spec_doc(bench / name / f"{name}.smv")
    for k in range(9):
        window = justice_to_safety(doc, k)
        assert sweep(window) is window, k


def test_k0_flags_one_quiet_step():
    # justice literal is latch l0, which stays 0: quiet from the start
    doc = doc_with(next_of=lambda aig, u, c, l: [l[0]],
                   justice=lambda aig, u, c, l: l[0])
    out = justice_to_safety(doc, 0)
    bad_lit = out.outputs[0][0]
    sim = Simulator(out)
    runs = [sim.step([False, False]) for _ in range(3)]
    flags = [values_lit(v, bad_lit) for v in runs]
    # counter>0 needs one elapsed quiet step, so the flag rises at step 1
    assert flags == [False, True, True]


def test_just_constant_true_reduces_to_plain_bad():
    doc = doc_with(next_of=lambda aig, u, c, l: [l[0]],
                   justice=lambda aig, u, c, l: 1,
                   bad=lambda aig, u, c, l: u[0])
    out = justice_to_safety(doc, 1)
    bad_lit = out.outputs[0][0]
    for u_val in (False, True):
        values = evaluate_vars(out, [False] * len(out.latches), [u_val, False])
        assert values_lit(values, bad_lit) == u_val
    # and the counter never exceeds zero along any run
    sim = Simulator(out)
    runs = [sim.step([True, False]) for _ in range(5)]
    counter_bits = [i for i, (_, _, n) in enumerate(out.latches)
                    if n.startswith("justice_wait")]
    for values in runs:
        for i in counter_bits:
            lit = out.latches[i][0]
            assert not values_lit(values, lit)


def test_same_step_discharge_not_flagged():
    # bad and the first constraint violation on the same step do not lose
    doc = doc_with(justice=lambda aig, u, c, l: 1,
                   bad=lambda aig, u, c, l: u[0],
                   constraint=lambda aig, u, c, l: u[0] ^ 1)
    out = justice_to_safety(doc, 0)
    bad_lit = out.outputs[0][0]
    # u=1 raises the original bad and breaks the constraint simultaneously
    values = evaluate_vars(out, [False] * len(out.latches), [True, False])
    assert not values_lit(values, bad_lit)


def test_realizable_at_k_implies_extended_and_monotone():
    for seed in range(25):
        doc = random_game_doc(seed + 40, n_latches=3, n_u=1, n_c=1, n_gates=8)
        extended = solve_explicit(doc).realizable
        verdicts = []
        for k in range(6):
            kdoc = justice_to_safety(doc, k)
            verdicts.append(solve_explicit(kdoc).realizable)
        for k in range(5):
            assert not verdicts[k] or verdicts[k + 1], (seed, verdicts)
        if any(verdicts):
            assert extended, (seed, verdicts)


def test_monotone_in_k_via_game_solver():
    from aigsynt.game import build_game, is_realizable, solve
    for seed in range(8):
        doc = random_game_doc(seed + 60, n_latches=3, n_u=1, n_c=1, n_gates=8)
        verdicts = []
        for k in range(4):
            game = build_game(justice_to_safety(doc, k))
            verdicts.append(is_realizable(game, solve(game)))
        for k in range(3):
            assert not verdicts[k] or verdicts[k + 1], (seed, verdicts)


def test_k_strategy_wins_original_game():
    """A strategy winning the window game, played in the original
    extended game, satisfies the full objective.

    The window document shares the original's literals, so the original
    bad/constraint/justice sections remain valid in it; transplanting
    them onto the solved window game yields the product of the original
    objective with the window strategy, which the model checker then
    verifies outright.
    """
    from aigsynt.aiger import AigerDoc
    from aigsynt.game import (
        build_game, extract_strategy, is_realizable, solve,
        strategy_to_circuit,
    )
    from aigsynt.mc import check_justice_universal, check_safety

    verified = 0
    for seed in range(20):
        doc = random_game_doc(seed + 40, n_latches=3, n_u=1, n_c=1, n_gates=8)
        for k in range(4):
            kdoc = justice_to_safety(doc, k)
            game = build_game(kdoc)
            winning = solve(game)
            if not is_realizable(game, winning):
                continue
            strategy = extract_strategy(game, winning)
            # same circuit, the original property sections reattached
            hybrid = AigerDoc(aig=kdoc.aig, inputs=list(kdoc.inputs),
                              latches=list(kdoc.latches), outputs=[],
                              bad=list(doc.bad),
                              constraints=list(doc.constraints),
                              justice=[(list(g), n) for g, n in doc.justice],
                              fmt="new")
            model = strategy_to_circuit(hybrid, game, strategy)
            assert check_safety(model).holds, (seed, k)
            assert check_justice_universal(model).holds, (seed, k)
            verified += 1
            break  # one k per document keeps the suite quick
    assert verified >= 8


def test_fold_constraints_into_bad():
    doc = doc_with(bad=lambda aig, u, c, l: u[0],
                   constraint=lambda aig, u, c, l: u[0] ^ 1)
    out = fold_constraints_into_bad(doc)
    assert out.fmt == "old"
    bad_lit = out.outputs[0][0]
    # simultaneous violation discharges
    values = evaluate_vars(out, [False] * len(out.latches), [True, False])
    assert not values_lit(values, bad_lit)


def test_added_latches_listed_first():
    """Window counter and env_broken come first; the copied latches
    follow unchanged, in their order."""
    doc = random_game_doc(7, n_latches=3)
    copied = [n for _, _, n in doc.latches]
    window = justice_to_safety(doc, 2)
    assert [n for _, _, n in window.latches] == \
        ["justice_wait.__bit0", "justice_wait.__bit1", "env_broken"] + copied
    assert window.latches[3:] == doc.latches

    doc = random_game_doc(7, n_latches=3, with_justice=False)
    folded = fold_constraints_into_bad(doc)
    assert [n for _, _, n in folded.latches] == ["env_broken"] + copied
    assert folded.latches[1:] == doc.latches


def test_rewrites_drop_the_winning_region_block():
    """Every rewrite keeps the comments ahead of the block and drops the
    block, whose state space is the source's; a synthesized model keeps
    the game's comments and carries its own block only."""
    block = [f"{WINNING_BLOCK} 3", "2 0 1"]
    doc = random_game_doc(8, n_latches=3)  # realizable
    doc.comments = ["made by hand", *block]
    rewrites = [justice_to_safety(doc, 2), reverse_justice(doc),
                delay_justice(doc),
                fold_constraints_into_bad(doc.copy(justice=[]))]
    for new in rewrites:
        assert new.comments == ["made by hand"]
    ok, model, game = synthesize(doc)
    assert ok and model.comments[0] == "made by hand"
    assert model.comments[1] == f"{WINNING_BLOCK} {len(game.doc.latches)}"
    assert sum(line.startswith(WINNING_BLOCK)
               for line in model.comments) == 1


# reverse_justice --------------------------------------------------------------


def closed_doc(next_of, justice, constraint=None, n_latches=2, n_u=1):
    doc = AigerDoc(fmt="new")
    u = [doc.add_input(f"u{i}") for i in range(n_u)]
    l = [doc.add_latch(f"l{i}") for i in range(n_latches)]
    aig = doc.aig
    for lit, nxt in zip(l, next_of(aig, u, l)):
        doc.set_latch_next(lit, nxt)
    doc.justice.append(([justice(aig, u, l)], None))
    if constraint is not None:
        doc.constraints.append((constraint(aig, u, l), None))
    doc.validate()
    return doc


def test_adds_aux_input_and_two_latches():
    doc = closed_doc(lambda aig, u, l: [l[0], l[1]], lambda aig, u, l: l[0])
    out = reverse_justice(doc)
    assert [n for _, n in out.inputs] == ["u0", "aux"]
    names = [n for _, _, n in out.latches]
    assert names == ["aux_seen", "just_seen_after_aux", "l0", "l1"]
    assert out.latches[2:] == doc.latches
    assert len(out.justice) == 1


def test_aux_name_deduplicated():
    doc = closed_doc(lambda aig, u, l: [l[0], l[1]], lambda aig, u, l: l[0])
    doc.inputs[0] = (doc.inputs[0][0], "aux")
    out = reverse_justice(doc)
    assert [n for _, n in out.inputs] == ["aux", "aux1"]


def test_just_constant_true_has_no_fair_trace():
    doc = closed_doc(lambda aig, u, l: [l[0], l[1]], lambda aig, u, l: 1)
    out = reverse_justice(doc)
    assert not find_fair_trace(out).found


def test_just_constant_false_fair_from_start():
    doc = closed_doc(lambda aig, u, l: [l[0], l[1]], lambda aig, u, l: 0)
    out = reverse_justice(doc)
    result = find_fair_trace(out)
    assert result.found
    assert result.trace.loop_start is not None


def test_lasso_biconditional_exhaustive():
    """Fair trace in the reversed model iff the original has a lasso
    keeping constraints forever with justice eventually never raised,
    checked by exhaustive lasso enumeration on small models."""
    cases = []

    # hand models
    cases.append(closed_doc(lambda aig, u, l: [l[0], l[1]],
                            lambda aig, u, l: l[0]))
    cases.append(closed_doc(lambda aig, u, l: [l[0] ^ 1, l[1]],
                            lambda aig, u, l: l[0]))
    cases.append(closed_doc(lambda aig, u, l: [u[0], l[0]],
                            lambda aig, u, l: aig.and_(l[0], l[1])))
    cases.append(closed_doc(lambda aig, u, l: [u[0], l[0]],
                            lambda aig, u, l: aig.or_(l[0], l[1]),
                            constraint=lambda aig, u, l: aig.or_(u[0], l[0])))
    # a lasso satisfying FG(not just) only through a specific input choice
    cases.append(closed_doc(
        lambda aig, u, l: [aig.ite_(l[1], l[0], u[0]), aig.or_(l[1], u[0])],
        lambda aig, u, l: aig.and_(l[0] ^ 1, l[1]) ^ 1))

    # random small models (at most 8 states each)
    for seed in range(12):
        doc = random_game_doc(seed + 900, n_latches=3, n_u=1, n_c=0,
                              n_gates=6)
        cases.append(doc)

    for i, doc in enumerate(cases):
        expected = enumerate_lasso_fg_not_just(doc)
        got = find_fair_trace(reverse_justice(doc)).found
        assert got == expected, f"case {i}"


def test_reversed_fair_trace_oracle_agreement():
    """The reversed document's fair lassos agree with direct enumeration."""
    for seed in range(8):
        doc = random_game_doc(seed + 950, n_latches=2, n_u=1, n_c=0,
                              n_gates=5)
        out = reverse_justice(doc)
        assert find_fair_trace(out).found == enumerate_fair_lasso(out), seed
