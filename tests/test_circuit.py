"""Game-circuit compilation: structure, semantics and liveness combination."""

from itertools import product

import pytest

from aigsynt.aiger import (
    CONTROLLABLE_PREFIX, Simulator, evaluate_vars, values_lit,
)
from aigsynt.automata import parse_gff, to_monitor, validate_for_role
from aigsynt.circuit import CircuitError, compile_model
from aigsynt.game import Encoding
from aigsynt.smv import flatten, parse_smv, resolve

from helpers import FlatSim, typed_value_to_bits
from test_automata import ALL_TRUE, GF_DONE, SAFETY_NO_E, gff


def flat(text):
    return flatten(resolve(parse_smv(text)))


def monitor(doc_text, role="guarantee", negated=False):
    return to_monitor(validate_for_role(parse_gff(doc_text), role, negated))


def test_bare_model_has_no_property_sections():
    model = flat("MODULE main VAR x: boolean; ASSIGN next(x) := !x;")
    doc = compile_model(model, [], [])
    assert len(doc.latches) == 1
    assert not doc.bad and not doc.constraints and not doc.justice


def test_safety_guarantee_structure():
    model = flat("""
    MODULE main
    VAR x: boolean; e: boolean;
    ASSIGN next(x) := x;
    DEFINE never := e;
    """)
    safety = gff(["ok"], "ok", [("ok", "~never", "ok")], ["ok"])
    doc = compile_model(model, [monitor(safety)], [])
    assert len(doc.bad) == 1
    assert not doc.justice  # every live state accepts, fair is trivial


def test_liveness_guarantee_justice_group():
    model = flat("MODULE main VAR done: boolean; x: boolean; ASSIGN next(x) := x;")
    doc = compile_model(model, [monitor(GF_DONE)], [])
    assert len(doc.bad) == 1  # one per guarantee monitor, constant false here
    assert doc.bad[0][0] == 0
    assert len(doc.justice) == 1 and len(doc.justice[0][0]) == 1


def test_assumption_becomes_constraint():
    model = flat("MODULE main VAR e: boolean; x: boolean; ASSIGN next(x) := x;")
    doc = compile_model(model, [], [monitor(SAFETY_NO_E, "assumption")])
    assert len(doc.constraints) == 1
    assert not doc.bad


def test_unresolved_proposition_rejected():
    model = flat("MODULE main VAR x: boolean; ASSIGN next(x) := x;")
    with pytest.raises(CircuitError, match="proposition 'done'"):
        compile_model(model, [monitor(GF_DONE)], [])


def test_controllable_inputs_carry_prefix():
    model = flat("""
    MODULE main
    VAR u: boolean;
    VAR --controllable c: boolean;
    """)
    doc = compile_model(model, [], [])
    assert [n for _, n in doc.inputs] == ["u", CONTROLLABLE_PREFIX + "c"]


def test_nonzero_init_latch_stored_inverted():
    model = flat("""
    MODULE main
    VAR r: 0..5;
    ASSIGN init(r) := 5; next(r) := r;
    """)
    doc = compile_model(model, [], [])
    names = [n for _, _, n in doc.latches]
    assert names == ["r.__bit0.__neg", "r.__bit1", "r.__bit2.__neg"]
    # holding the value: after any step the decoded value is still 5
    values = evaluate_vars(doc, [False] * 3, [])
    nxt = [values_lit(values, nl) for _, nl, _ in doc.latches]
    assert nxt == [False, False, False]


def _bits_for(letter_vals, names):
    bits = []
    for name in names:
        bits.append(bool(letter_vals.get(name, False)))
    return bits


def test_compile_preserves_semantics_small_model():
    """Circuit simulation equals flat-model evaluation on short runs."""
    text = """
    MODULE main
    VAR go: boolean;
        x: 0..2;
    ASSIGN
      init(x) := 0;
      next(x) := case
        go & x = 0 : 1;
        go & x = 1 : 2;
        TRUE : 0;
      esac;
    DEFINE atTop := x = 2;
    """
    model = flat(text)
    doc = compile_model(model, [], [])
    sim = FlatSim(model)
    input_names = [n for _, n in doc.inputs]
    for seq in product([False, True], repeat=6):
        flat_bits = sim.initial()
        latch_vals = [False] * len(doc.latches)
        for go in seq:
            env = sim.env(flat_bits, {"go": go})
            values = evaluate_vars(doc, latch_vals, _bits_for({"go": go},
                                                              input_names))
            by_name = {n: values_lit(values, lit) for lit, _, n in doc.latches
                       if not n.endswith(".__neg")}
            for name, expected in flat_bits.items():
                assert by_name.get(name, expected) == expected
            flat_bits = sim.step(flat_bits, {"go": go})
            latch_vals = [values_lit(values, nl) for _, nl, _ in doc.latches]


def test_compile_preserves_semantics_enum_instance_model():
    text = """
    MODULE cell(set, val)
    VAR stored: {OFF, ON, HOLD};
    ASSIGN
      init(stored) := OFF;
      next(stored) := case
        set & val : ON;
        set & !val : OFF;
        TRUE : HOLD;
      esac;
    DEFINE lit := stored = ON;

    MODULE main
    VAR s: boolean; v: boolean;
        c: cell(s, v);
    DEFINE out := c.lit;
    """
    model = flat(text)
    doc = compile_model(model, [], [])
    sim = FlatSim(model)
    input_names = [n for _, n in doc.inputs]
    for seq in product([False, True], repeat=6):
        flat_bits = sim.initial()
        latch_vals = [False] * len(doc.latches)
        for i, s_val in enumerate(seq):
            inputs = {"s": s_val, "v": seq[(i + 1) % len(seq)]}
            env = sim.env(flat_bits, inputs)
            values = evaluate_vars(doc, latch_vals,
                                   _bits_for(inputs, input_names))
            by_name = {n: values_lit(values, lit) for lit, _, n in doc.latches}
            for name, expected in flat_bits.items():
                assert by_name.get(name, expected) == expected
            flat_bits = sim.step(flat_bits, inputs)
            latch_vals = [values_lit(values, nl) for _, nl, _ in doc.latches]


def test_monitor_state_tracks_automaton_in_circuit():
    model = flat("MODULE main VAR done: boolean; x: boolean; ASSIGN next(x) := x;")
    doc = compile_model(model, [monitor(GF_DONE)], [])
    just = doc.justice[0][0][0]
    word = [True, False, False, True, True]
    sim = Simulator(doc)
    runs = [sim.step([d]) for d in word]
    # fair (the justice literal) holds exactly when done held one step earlier
    fair_seq = [values_lit(v, just) for v in runs]
    assert fair_seq == [False] + word[:-1]


def two_liveness_doc():
    """Model latch x under two recurrence guarantees, GF a and GF b."""
    model = flat("""
    MODULE main
    VAR a: boolean; b: boolean; x: boolean;
    ASSIGN next(x) := x;
    """)
    gf_a = gff(["0", "1"], "0",
               [("0", "~a", "0"), ("0", "a", "1"),
                ("1", "a", "1"), ("1", "~a", "0")], ["1"])
    gf_b = gf_a.replace(">a<", ">b<").replace(">~a<", ">~b<") \
        .replace("<label>a</label>", "<label>b</label>") \
        .replace("<label>~a</label>", "<label>~b</label>")
    return compile_model(model, [monitor(gf_a), monitor(gf_b)], [])


def test_two_liveness_guarantees_round_robin():
    """With two recurrence guarantees the shared justice literal rises
    exactly when both fair signals have been seen since it last rose."""
    doc = two_liveness_doc()
    assert len(doc.justice) == 1
    counter_latches = [n for _, _, n in doc.latches
                       if n.startswith("counting_justice")]
    assert len(counter_latches) == 1  # two guarantees, one bit
    just = doc.justice[0][0][0]

    # hand trace over 8 steps: a then b then both then neither ...
    word = [(1, 0), (0, 1), (1, 1), (0, 0), (0, 1), (1, 0), (1, 1), (1, 1)]
    sim = Simulator(doc)
    runs = [sim.step([a, b]) for a, b in word]
    got = [values_lit(v, just) for v in runs]
    # fair_a / fair_b are one-step delayed views of a / b; the counter
    # awaits fair_a then fair_b and emits just the step fair_b lands:
    #   fair_a:  0 1 0 1 0 0 1 1   (delayed a)
    #   fair_b:  0 0 1 1 0 1 0 1   (delayed b)
    #   counter: 0 0 1 0 1 1 0 1
    #   just:    0 0 1 0 0 1 0 1
    assert got == [False, False, True, False, False, True, False, True]


def test_observer_latches_listed_first():
    """The round-robin counter and the monitor states come before the
    model's latches, so the shared encoding puts them on top."""
    doc = two_liveness_doc()
    assert doc.latch_names() == ["counting_justice.__bit0",
                                 "sys_prop0.state.__bit0",
                                 "sys_prop1.state.__bit0", "x"]
    levels = Encoding(doc).latch_levels
    assert levels[:3] == sorted(levels)[:3]


def test_doc_is_deterministic():
    from aigsynt.aiger import write_aiger
    model = flat("MODULE main VAR done: boolean; x: boolean; ASSIGN next(x) := x;")
    a = write_aiger(compile_model(model, [monitor(GF_DONE)], []))
    b = write_aiger(compile_model(model, [monitor(GF_DONE)], []))
    assert a == b


def test_compiled_benchmark_survives_write_read():
    from pathlib import Path
    from aigsynt.aiger import read_aiger, write_aiger
    from aigsynt.cli import build_spec_doc
    bench = Path(__file__).resolve().parent.parent / "benchmarks" / \
        "huffman4" / "huffman4.smv"
    doc = build_spec_doc(bench)
    text = write_aiger(doc)
    assert write_aiger(read_aiger(text)) == text
