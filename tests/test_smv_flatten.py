"""Resolution and boolean flattening, checked against a typed interpreter."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from aigsynt import boolexpr as bx
from aigsynt.aiger import Simulator
from aigsynt.circuit import CircuitError, compile_model
from aigsynt.smv import (
    FlatModel, SmvFlattenError, SmvResolveError, flatten, parse_smv, resolve,
)
from aigsynt.smv.ast import EnumType, RangeType
from aigsynt.smv.flatten import nbits, value_code

from helpers import FlatSim, RefInterp, bits_to_code, typed_value_to_bits
from test_smv_parser import LISTING_STYLE


def build(text):
    return resolve(parse_smv(text))


# resolution ---------------------------------------------------------------


def test_resolves_through_instance_define():
    resolved = build(LISTING_STYLE)
    model = flatten(resolved)
    names = dict(model.defines)
    assert "is42" in names
    assert "h.reached42" in names


def test_unbound_identifier():
    with pytest.raises(SmvResolveError, match="unbound identifier 'foo'"):
        build("MODULE main VAR x: boolean; DEFINE d := foo & x;")


def test_self_instantiation_cycle():
    with pytest.raises(SmvResolveError, match="cyclic module instantiation"):
        build("MODULE a VAR inner: a(); MODULE main VAR x: a();")


def test_mutual_instantiation_cycle():
    with pytest.raises(SmvResolveError, match="cyclic"):
        build("""
        MODULE a VAR y: b();
        MODULE b VAR z: a();
        MODULE main VAR x: a();
        """)


def test_type_mismatch_comparison():
    with pytest.raises(SmvResolveError, match="comparison"):
        build("""
        MODULE main
        VAR x: 0..3; y: {A, B};
        ASSIGN next(x) := x; next(y) := y;
        DEFINE d := x = y;
        """)


def test_order_comparison_on_booleans_rejected():
    with pytest.raises(SmvResolveError, match="order comparison"):
        build("MODULE main VAR x: boolean; DEFINE d := x < x;")


def test_case_branch_types_must_agree():
    with pytest.raises(SmvResolveError, match="case branches mix"):
        build("""
        MODULE main
        VAR x: 0..3; b: boolean;
        ASSIGN next(x) := case b : 1; TRUE : b; esac;
        """)


def test_int_literal_outside_range_rejected():
    with pytest.raises(SmvResolveError):
        build("MODULE main VAR x: 0..3; ASSIGN next(x) := 7;")


def test_duplicate_assignment_rejected():
    with pytest.raises(SmvResolveError, match="duplicate next"):
        build("MODULE main VAR x: boolean; ASSIGN next(x) := x; next(x) := !x;")


def test_controllable_with_assignment_rejected():
    with pytest.raises(SmvResolveError, match="controllable"):
        build("""
        MODULE main
        VAR --controllable c: boolean;
        ASSIGN next(c) := c;
        """)


def test_circular_define_rejected():
    with pytest.raises(SmvResolveError, match="circular define"):
        build("MODULE main VAR x: boolean; DEFINE a := b; b := a;")


def test_forward_define_reference_accepted():
    resolved = build("""
    MODULE main
    VAR x: boolean;
    DEFINE first := second & x; second := !x;
    """)
    model = flatten(resolved)
    names = [n for n, _ in model.defines]
    assert names.index("second") < names.index("first")


def test_param_count_mismatch():
    with pytest.raises(SmvResolveError, match="argument"):
        build("""
        MODULE sub(p) VAR s: boolean; ASSIGN next(s) := p;
        MODULE main VAR h: sub();
        """)


# flattening ----------------------------------------------------------------


def test_identity_range_latch():
    model = flatten(build(
        "MODULE main VAR x: 0..2; ASSIGN init(x) := 0; next(x) := x;"))
    assert [l.name for l in model.latches] == ["x.__bit0", "x.__bit1"]
    assert [l.init for l in model.latches] == [0, 0]
    assert model.latches[0].next == bx.BVar("x.__bit0")
    assert model.latches[1].next == bx.BVar("x.__bit1")


def test_enum_comparison_truth_table():
    model = flatten(build("""
    MODULE main
    VAR v: {A, B, C};
    ASSIGN next(v) := v;
    DEFINE isA := v = A;
    """))
    is_a = dict(model.defines)["isA"]
    # brute force all three valid codes
    t = EnumType(("A", "B", "C"))
    for symbol in t.symbols:
        bits = typed_value_to_bits(t, symbol, "v")
        assert bx.evaluate(is_a, bits) == (symbol == "A")


def test_listing_style_controllable_inputs():
    model = flatten(build(LISTING_STYLE))
    assert model.inputs_c == ("valueOut",)
    assert set(model.inputs_u) == {"CPUread", "CPUwrite", "valueIn", "done"}


def test_flatten_deterministic():
    a = flatten(build(LISTING_STYLE))
    b = flatten(build(LISTING_STYLE))
    assert a == b


def test_nonmain_var_without_next_rejected():
    with pytest.raises(SmvFlattenError, match="no next"):
        flatten(build("""
        MODULE sub VAR s: boolean;
        MODULE main VAR h: sub(); x: boolean;
        """))


def test_input_with_init_rejected():
    with pytest.raises(SmvFlattenError, match="init"):
        flatten(build("MODULE main VAR x: boolean; ASSIGN init(x) := TRUE;"))


def test_case_without_default_rejected():
    with pytest.raises(SmvFlattenError, match="TRUE branch"):
        flatten(build("""
        MODULE main
        VAR x: boolean; b: boolean;
        ASSIGN next(x) := case b : TRUE; esac;
        """))


def test_missing_init_defaults_to_first_value():
    model = flatten(build("""
    MODULE main
    VAR r: 3..6; e: {P, Q}; b: boolean;
    ASSIGN next(r) := r; next(e) := e; next(b) := b;
    """))
    assert all(l.init == 0 for l in model.latches)


def _main(x_type, init, defines=""):
    # y is an input, so x is the only latch
    return (f"MODULE main VAR x: {x_type}; y: boolean; "
            f"ASSIGN next(x) := x; init(x) := {init}; {defines}")


NOT_CONSTANT = r"init\(x\) is not a constant expression"
# a specification and the inits of its latches, or the error it raises
INIT_VALUES = {
    "constant": (_main("0..5", "5"), [1, 0, 1]),
    "enum-symbol": (_main("{A, B, C}", "C"), [0, 1]),
    "comparison": (_main("boolean", "2 <= 1"), [0]),
    "case": (_main("0..3", "case 1 = 2 : 1; TRUE : 2; esac"), [0, 1]),
    "parameter": ("MODULE sub(p) VAR x: 0..3; "
                  "ASSIGN next(x) := x; init(x) := p; "
                  "MODULE main VAR s: sub(2);", [0, 1]),
    "bool-define": (_main("boolean", "off", "DEFINE on := TRUE; off := !on;"),
                    [0]),
    "int-define": (_main("0..3", "k", "DEFINE k := 3;"), [1, 1]),
    "enum-define": (_main("{A, B, C}", "s", "DEFINE s := B;"), [1, 0]),
    "variable": (_main("boolean", "y"), NOT_CONSTANT),
    "variable-define": (_main("boolean", "d", "DEFINE d := y;"), NOT_CONSTANT),
    # an init value follows the rules of next() and DEFINE: a case needs a
    # final TRUE branch, and an expression that folds to a constant is one
    "case-without-TRUE": (_main("0..3", "case 1 = 1 : 2; esac"),
                          "case without a final TRUE branch"),
    "folds-to-constant": (_main("boolean", "y & FALSE"), [0]),
}


@pytest.mark.parametrize("text, expected", INIT_VALUES.values(),
                         ids=INIT_VALUES.keys())
def test_init_values(text, expected):
    if isinstance(expected, str):
        with pytest.raises(SmvFlattenError, match=expected):
            flatten(build(text))
    else:
        assert [l.init for l in flatten(build(text)).latches] == expected


def test_compile_reads_only_bound_signals():
    # compile_model binds signals in definition order and rejects any it
    # reads before that; the flattener emits each define after those it reads
    compile_model(flatten(build(LISTING_STYLE)), [], [])
    read_before_defined = FlatModel(
        inputs_u=("x",), inputs_c=(), latches=(),
        defines=(("a", bx.BVar("b")), ("b", bx.BVar("x"))))
    with pytest.raises(CircuitError, match="unresolved signal 'b'"):
        compile_model(read_before_defined, [], [])


def _agreement_case(text, max_len=6):
    """Typed interpreter vs flat simulation on all short input sequences."""
    resolved = build(text)
    model = flatten(resolved)
    interp = RefInterp(resolved)
    sim = FlatSim(model)
    var_types = interp.var_types()
    define_types = interp.define_types()
    input_values = interp.enumerate_input_values()

    def input_bits_of(typed_inputs):
        bits = {}
        for name, value in typed_inputs.items():
            bits.update(typed_value_to_bits(var_types[name], value, name))
        return bits

    def check_defines(state, latch_bits, typed_inputs):
        env = sim.env(latch_bits, input_bits_of(typed_inputs))
        typed_defs = interp.define_values(state, typed_inputs)
        for name, value in typed_defs.items():
            t = define_types[name]
            from aigsynt.smv.ast import BoolType
            from aigsynt.smv.resolve import IntConstType, SymConstType
            if isinstance(t, BoolType):
                assert env[name] == value, (name, value)
            elif isinstance(t, (IntConstType, SymConstType)):
                continue  # inlined constants have no flat signal
            else:
                width = nbits(t.size)
                code = bits_to_code(env, name, width)
                assert code == value_code(t, value), (name, value, code)

    # depth-first over input sequences
    def explore(state, latch_bits, depth):
        for typed_inputs in input_values:
            check_defines(state, latch_bits, typed_inputs)
            if depth < max_len:
                next_state = interp.step(state, typed_inputs)
                next_bits = sim.step(latch_bits, input_bits_of(typed_inputs))
                # latch encodings agree as well
                for name, t in var_types.items():
                    key = next(
                        ((id(c), n) for (c, n) in interp.state_vars
                         if interp.full_name(c, n) == name), None)
                    if key is None:
                        continue
                    value = next_state[key]
                    expect = typed_value_to_bits(t, value, name)
                    for bit_name, bit in expect.items():
                        assert next_bits[bit_name] == bit, (name, bit_name)
                explore(next_state, next_bits, depth + 1)

    explore(interp.initial_state(), sim.initial(), 1)


def test_semantics_counter_module():
    _agreement_case("""
    MODULE main
    VAR go: boolean;
        x: 0..2;
    ASSIGN
      init(x) := 0;
      next(x) := case
        go & x = 0 : 1;
        go & x = 1 : 2;
        go & x = 2 : 0;
        TRUE : x;
      esac;
    DEFINE atTop := x = 2; low := x < 1;
    """, max_len=6)


def test_semantics_enum_and_instance():
    _agreement_case("""
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
    """, max_len=6)


def test_semantics_order_comparisons():
    _agreement_case("""
    MODULE main
    VAR b: boolean;
        r: 1..4;
    ASSIGN
      init(r) := 2;
      next(r) := case b : 4; TRUE : 1; esac;
    DEFINE geq := r >= 2; less := r < 4; eq3 := r = 3; neq := r != 2;
    """, max_len=6)


def test_semantics_constant_comparisons():
    # both sides of each comparison are integer constants, folded when flattened
    _agreement_case("""
    MODULE cell(n)
    VAR x: boolean;
    ASSIGN
      init(x) := FALSE;
      next(x) := (n = 2) | (n < 1);

    MODULE main
    VAR go: boolean;
        two: cell(2);
        three: cell(3);
    DEFINE d := 3 >= 4; e := go & (d | two.x); f := three.x;
    """, max_len=4)


def test_semantics_integer_comparisons_on_a_case():
    # the compared integers are constants, but which one depends on an input
    _agreement_case("""
    MODULE main
    VAR go: boolean;
    DEFINE
      pick := case go : 1; TRUE : 2; esac;
      eq := pick = 2; ne := 2 != pick; lt := pick < 2; ge := pick >= 1;
    """, max_len=2)


# ``xor`` and ``!=`` on booleans, ``>``, order comparisons against
# constants, ``!=`` on an enum, and negative literals in a range, a
# comparison and a case value; each define is sampled by a latch, so the
# compiled game shows every operator in its latch values
OPERATORS = """
MODULE main
VAR a : boolean;
    b : boolean;
    u : -3..2;
    e : {RED, GREEN, BLUE};
    x : -3..2;
    c : {IDLE, BUSY};
    s_xor : boolean; s_ne : boolean; s_gt : boolean; s_gtc : boolean;
    s_ge : boolean; s_lt : boolean; s_en : boolean; s_neg : boolean;
DEFINE
  d_xor := a xor b;
  d_ne := a != b;
  d_gt := u > x;
  d_gtc := x > -2;
  d_ge := u >= 1;
  d_lt := -1 < u;
  d_en := e != GREEN;
  neg := case a : -1; b : 2; TRUE : -3; esac;
  d_neg := neg = -1 | x < -1;
ASSIGN
  init(x) := -2;
  next(x) := case
    d_xor : -1;
    d_gt : u;
    x < -1 : -3;
    TRUE : x;
  esac;
  init(c) := IDLE;
  next(c) := case (e != RED) & (c != BUSY) : BUSY; TRUE : IDLE; esac;
  init(s_xor) := FALSE; next(s_xor) := d_xor;
  init(s_ne) := FALSE; next(s_ne) := d_ne;
  init(s_gt) := FALSE; next(s_gt) := d_gt;
  init(s_gtc) := TRUE; next(s_gtc) := d_gtc;
  init(s_ge) := FALSE; next(s_ge) := d_ge;
  init(s_lt) := FALSE; next(s_lt) := d_lt;
  init(s_en) := TRUE; next(s_en) := d_en;
  init(s_neg) := FALSE; next(s_neg) := d_neg;
"""


def test_semantics_rarely_used_operators():
    _agreement_case(OPERATORS, max_len=2)


def test_compiled_game_steps_rarely_used_operators():
    """The game compiled from ``OPERATORS`` steps under
    ``aiger.Simulator`` as the typed interpreter does, over every input
    sequence of two steps."""
    root = build(OPERATORS)
    interp = RefInterp(root)
    doc = compile_model(flatten(root), [], [])
    var_types = interp.var_types()
    latch_names = [name for _, _, name in doc.latches]

    def bits_of(values: dict[str, object]) -> dict[str, bool]:
        bits = {}
        for name, value in values.items():
            bits.update(typed_value_to_bits(var_types[name], value, name))
        return bits

    def state_bits(state) -> dict[str, bool]:
        return bits_of({interp.full_name(ctx, name): state[(id(ctx), name)]
                        for ctx, name in interp.state_vars})

    def latch_bits(values: list[bool]) -> dict[str, bool]:
        # a latch that starts at 1 is stored negated under ``.__neg``
        return {name.removesuffix(".__neg"): v ^ name.endswith(".__neg")
                for name, v in zip(latch_names, values)}

    sim = Simulator(doc)
    steps = 0

    def explore(state, depth):
        nonlocal steps
        assert latch_bits(sim.latch_values) == state_bits(state)
        if depth == 2:
            return
        before = sim.latch_values
        for inputs in interp.enumerate_input_values():
            sim.latch_values = before
            sim.step(bits_of(inputs))
            steps += 1
            explore(interp.step(state, inputs), depth + 1)

    explore(interp.initial_state(), 0)
    assert steps == 72 + 72 * 72


@given(st.lists(st.booleans(), min_size=1, max_size=8))
@settings(max_examples=40, deadline=None)
def test_semantics_listing_random_walk(flips):
    resolved = build(LISTING_STYLE)
    model = flatten(resolved)
    interp = RefInterp(resolved)
    sim = FlatSim(model)
    var_types = interp.var_types()
    state = interp.initial_state()
    latch_bits = sim.initial()
    for i, flip in enumerate(flips):
        typed_inputs = {"CPUread": flip, "CPUwrite": not flip,
                        "valueIn": flip, "done": (i % 2 == 0),
                        "valueOut": not flip}
        bits = {}
        for name, value in typed_inputs.items():
            bits.update(typed_value_to_bits(var_types[name], value, name))
        typed_defs = interp.define_values(state, typed_inputs)
        env = sim.env(latch_bits, bits)
        for name in ("writtenA", "readA", "is42", "h.reached42"):
            assert env[name] == typed_defs[name]
        state = interp.step(state, typed_inputs)
        latch_bits = sim.step(latch_bits, bits)
