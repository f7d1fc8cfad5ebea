"""Acceptance criteria, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Tolerances and bounds are pinned here: the desk benchmark
synthesizes in under 60 s, the oracle-equivalence sweep covers 100
random games in under 120 s, and every verdict asserted against an
oracle is computed by that oracle inside this suite.
"""

import time
from pathlib import Path

import pytest

from aigsynt.aiger import (
    Simulator, read_aiger, values_lit, write_aiger,
)
from aigsynt.automata import parse_gff, to_monitor, validate_for_role
from aigsynt.cli import build_spec_doc
from aigsynt.game import build_game, is_realizable, solve, synthesize
from aigsynt.mc import check_justice_universal, check_safety
from aigsynt.oracle import solve_explicit
from aigsynt.transforms import justice_to_safety, reverse_justice

from helpers import enumerate_lasso_fg_not_just, random_game_doc
from test_automata import FIXTURES, assert_monitor_faithful

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks" / "huffman4" / "huffman4.smv"
GOLDEN = Path(__file__).resolve().parent / "data" / "golden"

DECODER_TABLE = {1: "0", 2: "10", 3: "110", 4: "111"}
MAX_CODE_LENGTH = max(len(c) for c in DECODER_TABLE.values())


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _letter_bits(letter: int) -> dict[str, bool]:
    code = letter - 1
    return {"dataIn.__bit0": bool(code & 1), "dataIn.__bit1": bool(code >> 1)}


def test_criterion_1_desk_huffman_end_to_end():
    start = time.monotonic()
    doc = build_spec_doc(BENCH)
    game_view = build_game(doc)
    assert [name for _, name in game_view.doc.controllable_inputs()] == \
        ["controllable_cipher", "controllable_done"]
    ok, model, _ = synthesize(doc)
    elapsed = time.monotonic() - start
    assert ok, "desk benchmark must be realizable"
    assert elapsed < 60.0, f"synthesis took {elapsed:.1f}s"

    safety = check_safety(model)
    justice = check_justice_universal(model)
    assert safety.holds and justice.holds

    out_by_name = {n: lit for lit, n in model.outputs}
    table = {}
    for letter in sorted(DECODER_TABLE):
        sim = Simulator(model)
        code = ""
        for _ in range(2 * MAX_CODE_LENGTH):
            values = sim.step(_letter_bits(letter))
            code += "1" if values_lit(values, out_by_name["cipher"]) else "0"
            if values_lit(values, out_by_name["done"]):
                break
        table[letter] = code
    assert table == DECODER_TABLE, table
    report(1, True,
           f"synthesized in {elapsed:.1f}s, both checks hold, "
           f"cipher table {table}")


def test_criterion_2_minimal_k():
    doc = build_spec_doc(BENCH)
    verdicts = {}
    for k in (2, 3):
        kdoc = justice_to_safety(doc, k)
        game = build_game(kdoc)
        symbolic = is_realizable(game, solve(game))
        explicit = solve_explicit(kdoc, max_states=2_000_000,
                                  mode="safe_reachable").realizable
        assert symbolic == explicit, f"oracle disagrees at k={k}"
        verdicts[k] = symbolic
    assert verdicts == {2: False, 3: True}
    assert MAX_CODE_LENGTH == 3
    report(2, True,
           "k-window variant unrealizable at k=2, realizable at k=3 "
           "(= max code length), both confirmed by the explicit oracle; "
           "the 27-letter variant is stress-only (scripts/stress_huffman27.py, "
           "gate count reported, not asserted)")


def test_criterion_3_oracle_equivalence_100_games():
    start = time.monotonic()
    agreements = 0
    for seed in range(100):
        n_latches = 3 + seed % 4  # 3..6
        doc = random_game_doc(seed, n_latches=n_latches, n_u=2, n_c=2,
                              n_gates=10 + seed % 8)
        game = build_game(doc)
        winning = solve(game)
        explicit = solve_explicit(doc)
        for code in range(1 << n_latches):
            bits = {lvl: bool((code >> i) & 1)
                    for i, lvl in enumerate(game.latch_levels)}
            assert winning.evaluate(bits) == explicit.is_winning(code), \
                (seed, code)
        assert is_realizable(game, winning) == explicit.realizable, seed
        agreements += 1
    elapsed = time.monotonic() - start
    assert agreements == 100
    assert elapsed < 120.0, f"sweep took {elapsed:.1f}s"
    report(3, True,
           f"symbolic = explicit winning region on 100/100 games "
           f"in {elapsed:.1f}s")


def test_criterion_4_transform_soundness():
    checked_docs = 0
    for seed in range(25):
        doc = random_game_doc(seed + 40, n_latches=3, n_u=1, n_c=1,
                              n_gates=8)
        extended = solve_explicit(doc).realizable
        verdicts = [solve_explicit(justice_to_safety(doc, k)).realizable
                    for k in range(6)]
        for k in range(5):
            assert not verdicts[k] or verdicts[k + 1], \
                f"monotonicity broken at seed {seed}, k={k}"
        if any(verdicts):
            assert extended, f"k-realizable but extended-unrealizable: {seed}"
        checked_docs += 1

    biconditional_cases = 0
    for seed in range(15):
        doc = random_game_doc(seed + 900, n_latches=3, n_u=1, n_c=0,
                              n_gates=6)
        expected = enumerate_lasso_fg_not_just(doc)
        from aigsynt.mc import find_fair_trace
        got = find_fair_trace(reverse_justice(doc)).found
        assert got == expected, seed
        biconditional_cases += 1
    report(4, True,
           f"window soundness and k-monotonicity on {checked_docs} docs; "
           f"justice-reversal biconditional on {biconditional_cases} models")


def test_criterion_5_format_fidelity():
    golden = sorted(GOLDEN.glob("*.aag"))
    assert len(golden) == 10
    for path in golden:
        text = path.read_text()
        assert write_aiger(read_aiger(text)) == text, path.name
    partition = read_aiger((GOLDEN / "10_mixed_inputs_new.aag").read_text())
    assert [n for _, n in partition.controllable_inputs()] == [
        "controllable_en"]
    assert [n for _, n in partition.uncontrollable_inputs()] == ["clk", "rst"]
    report(5, True, "10 golden files round-trip byte-identically, "
                    "controllable partition correct")


def test_criterion_6_monitor_faithfulness():
    words_checked = 0
    for name in sorted(FIXTURES):
        role = "assumption" if name in ("safety_no_e", "stability",
                                        "three_phase") else "guarantee"
        aut = validate_for_role(parse_gff(FIXTURES[name]), role)
        monitor = to_monitor(aut)
        assert monitor.n_states <= 6 and len(monitor.props) <= 4
        words_checked += assert_monitor_faithful(aut, monitor, 8, name)
    report(6, True,
           f"monitor runs equal automaton runs on {words_checked} words "
           f"of length 8 (covering all shorter words); bad absorbing")


def test_criterion_7_end_to_end_soundness():
    realizable_count = 0

    def verify(doc, label):
        nonlocal realizable_count
        ok, model, _ = synthesize(doc)
        if not ok:
            return False
        assert check_safety(model).holds, f"{label}: safety violated"
        assert check_justice_universal(model).holds, \
            f"{label}: justice violated"
        realizable_count += 1
        return True

    huffman = build_spec_doc(BENCH)
    assert verify(huffman, "huffman4 extended")
    for k in (3, 4, 5):
        assert verify(justice_to_safety(huffman, k), f"huffman4 k={k}")
    for seed in range(100):
        n_latches = 3 + seed % 4
        doc = random_game_doc(seed, n_latches=n_latches, n_u=2, n_c=2,
                              n_gates=10 + seed % 8)
        verify(doc, f"random game {seed}")
    assert realizable_count >= 20, "suite must contain realizable instances"
    report(7, True,
           f"{realizable_count} realizable instances synthesized; "
           f"model checker confirms every one, zero exceptions")
