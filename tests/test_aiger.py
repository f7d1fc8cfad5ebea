"""AIG construction and AIGER serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from aigsynt.aiger import (
    Aig, AigError, AigerDoc, Simulator, TwoLevelAig, evaluate_vars, read_aiger,
    write_aiger,
)


def test_and_identities():
    aig = Aig()
    v = 2 * aig.new_var()
    assert aig.and_(1, v) == v
    assert aig.and_(0, v) == 0
    assert aig.and_(v, v) == v
    assert aig.and_(v, v ^ 1) == 0


def test_hash_consing_is_commutative():
    aig = Aig()
    a = 2 * aig.new_var()
    b = 2 * aig.new_var()
    assert aig.and_(a, b) == aig.and_(b, a)
    assert aig.num_ands == 1


def test_derived_ops_truth_tables():
    aig = Aig()
    a = 2 * aig.new_var()
    b = 2 * aig.new_var()
    c = 2 * aig.new_var()
    doc = AigerDoc(fmt="new")
    doc.aig = aig
    doc.inputs = [(a, "a"), (b, "b"), (c, "c")]
    exprs = {
        "or": (aig.or_(a, b), lambda va, vb, vc: va or vb),
        "xor": (aig.xor_(a, b), lambda va, vb, vc: va != vb),
        "ite": (aig.ite_(a, b, c), lambda va, vb, vc: vb if va else vc),
        "eq_const": (aig.eq_const([a, b], 2), lambda va, vb, vc: not va and vb),
    }
    from itertools import product
    from aigsynt.aiger import evaluate_vars, values_lit
    for va, vb, vc in product([False, True], repeat=3):
        values = evaluate_vars(doc, [], [va, vb, vc])
        for name, (lit, fn) in exprs.items():
            assert values_lit(values, lit) == fn(va, vb, vc), name


def test_write_empty_doc():
    assert write_aiger(AigerDoc(fmt="old")) == "aag 0 0 0 0 0\n"


def test_write_single_controllable_input():
    doc = AigerDoc(fmt="old")
    doc.add_input("controllable_c")
    text = write_aiger(doc)
    assert text.splitlines()[0] == "aag 1 1 0 0 0"
    assert "i0 controllable_c" in text


def test_round_trip_canonical():
    doc = AigerDoc(fmt="new")
    u = doc.add_input("u")
    c = doc.add_input("controllable_c")
    l = doc.add_latch("l")
    doc.set_latch_next(l, doc.aig.and_(u, c))
    doc.bad.append((l, "b"))
    doc.constraints.append((u ^ 1, None))
    doc.justice.append(([l ^ 1], "j"))
    doc.comments = ["trailing", "comment lines"]
    text = write_aiger(doc)
    again = write_aiger(read_aiger(text))
    assert again == text


def test_header_m_smaller_than_i_rejected():
    with pytest.raises(AigError):
        read_aiger("aag 1 2 0 0 0\n2\n4\n")


def test_old_format_with_sections_rejected():
    doc = AigerDoc(fmt="old")
    doc.bad.append((0, None))
    with pytest.raises(AigError):
        write_aiger(doc)


def test_latch_reset_value_one_rejected():
    text = "aag 1 0 1 0 0\n2 2 1\n"
    with pytest.raises(AigError):
        read_aiger(text)


def test_latch_reset_value_zero_accepted():
    text = "aag 1 0 1 0 0\n2 2 0\n"
    doc = read_aiger(text)
    assert doc.latches == [(2, 2, None)]


def test_non_topological_and_rejected():
    # AND 2 uses AND 4 before it is defined topologically
    text = "aag 2 0 0 1 2\n2\n2 4 4\n4 2 2\n"
    with pytest.raises(AigError):
        read_aiger(text)


def test_literal_out_of_range_rejected():
    with pytest.raises(AigError):
        read_aiger("aag 1 1 0 1 0\n2\n9\n")


def test_duplicate_and_definition_rejected():
    text = "aag 3 1 0 0 2\n2\n4 2 2\n4 2 2\n"
    with pytest.raises(AigError):
        read_aiger(text)


def test_gate_reading_a_higher_gate_defined_above_it_accepted():
    # AND 2 reads AND 3, which is defined first; one pass in definition
    # order evaluates it
    doc = read_aiger("aag 3 1 0 1 2\n2\n4\n6 2 2\n4 7 2\n")
    assert [var for var, _, _ in doc.aig.nodes()] == [3, 2]
    for u in (False, True):
        assert evaluate_vars(doc, [], [u])[2] is False


TWICE_DEFINED = {
    "input_and_latch": "aag 2 1 1 0 0 1 0 0 0\n2\n2 3\n2\n",
    "two_inputs": "aag 2 2 0 0 0\n2\n2\n",
}


@pytest.mark.parametrize("text", TWICE_DEFINED.values(), ids=TWICE_DEFINED)
def test_variable_defined_twice_rejected(text):
    with pytest.raises(AigError, match="defined more than once"):
        read_aiger(text)


NEGATIVE_JUSTICE_SIZE = "aag 1 1 0 0 0 0 0 1 0\n2\n-1\n"


def test_negative_justice_group_size_rejected():
    with pytest.raises(AigError) as info:
        read_aiger(NEGATIVE_JUSTICE_SIZE)
    assert str(info.value) == "justice group 0: malformed size"


def test_controllable_partition():
    text = ("aag 3 3 0 0 0\n2\n4\n6\n"
            "i0 up\ni1 controllable_a\ni2 controllable_b\n")
    doc = read_aiger(text)
    assert [n for _, n in doc.uncontrollable_inputs()] == ["up"]
    assert [n for _, n in doc.controllable_inputs()] == [
        "controllable_a", "controllable_b"]


def test_simulator_counter():
    # 1-bit toggle: next(l) = !l
    doc = AigerDoc(fmt="old")
    l = doc.add_latch("l")
    doc.set_latch_next(l, l ^ 1)
    doc.outputs.append((l, "o"))
    sim = Simulator(doc)
    seen = []
    for _ in range(4):
        values = sim.step([])
        seen.append(values[1])
    assert seen == [False, True, False, True]


@st.composite
def random_docs(draw):
    aig_ops = draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)),
                            min_size=0, max_size=20))
    n_inputs = draw(st.integers(0, 4))
    n_latches = draw(st.integers(0, 4))
    fmt = draw(st.sampled_from(["old", "new"]))
    doc = AigerDoc(fmt=fmt)
    for i in range(n_inputs):
        doc.add_input(f"in{i}" if draw(st.booleans()) else None)
    latch_lits = [doc.add_latch(f"l{i}") for i in range(n_latches)]
    pool = [0, 1] + [lit for lit, _ in doc.inputs] + latch_lits
    for a_idx, b_idx in aig_ops:
        a = pool[a_idx % len(pool)] ^ (a_idx & 1)
        b = pool[b_idx % len(pool)] ^ (b_idx & 1)
        pool.append(doc.aig.and_(a, b))
    for lit in latch_lits:
        doc.set_latch_next(lit, pool[draw(st.integers(0, len(pool) - 1))])
    if fmt == "old":
        if draw(st.booleans()):
            doc.outputs.append((pool[draw(st.integers(0, len(pool) - 1))], "bad"))
    else:
        if draw(st.booleans()):
            doc.bad.append((pool[draw(st.integers(0, len(pool) - 1))], None))
        if draw(st.booleans()):
            doc.justice.append(([pool[draw(st.integers(0, len(pool) - 1))]], None))
    return doc


@given(random_docs())
@settings(max_examples=60, deadline=None)
def test_round_trip_random_docs(doc):
    text = write_aiger(doc)
    parsed = read_aiger(text)
    assert write_aiger(parsed) == text


class OneGatePerCall(TwoLevelAig):
    """Fails any ``and_`` call, the rules' own nested calls included,
    that adds more than one gate."""

    def and_(self, a, b):
        before = self.num_ands
        lit = super().and_(a, b)
        assert self.num_ands - before <= 1, (a, b)
        return lit


def truth_tables(aig, n_inputs):
    """Each variable's exhaustive truth table as an int, one bit per
    assignment of variables 1..n_inputs."""
    rows = range(1 << n_inputs)
    full = (1 << len(rows)) - 1
    tables = {0: 0}
    for i in range(n_inputs):
        tables[i + 1] = sum(1 << r for r in rows if r >> i & 1)

    def read(lit):
        return tables[lit >> 1] ^ (full if lit & 1 else 0)

    for var, rhs0, rhs1 in aig.nodes():
        tables[var] = read(rhs0) & read(rhs1)
    return read


@given(st.integers(1, 6),
       st.lists(st.tuples(st.sampled_from(["and_", "or_", "ite_"]),
                          st.integers(0, 255), st.integers(0, 255),
                          st.integers(0, 255)), max_size=60))
@settings(max_examples=150, deadline=None)
def test_two_level_rules_keep_every_function(n_inputs, ops):
    plain, rules = Aig(), OneGatePerCall()
    pools = []
    for aig in (plain, rules):
        pool = [0, 1] + [2 * aig.new_var() for _ in range(n_inputs)]
        for op, *picks in ops:
            args = [pool[(k >> 1) % len(pool)] ^ (k & 1) for k in picks]
            pool.append(getattr(aig, op)(*args[:3 if op == "ite_" else 2]))
        pools.append(pool)
    read_plain = truth_tables(plain, n_inputs)
    read_rules = truth_tables(rules, n_inputs)
    for lit_plain, lit_rules in zip(*pools):
        assert read_plain(lit_plain) == read_rules(lit_rules)


# One case per rule, with an AND-gate operand and, where the rule has
# one, with two: (aig, a, b, c) -> (built literal, the literal expected
# or the operand set of the gate expected).
TWO_LEVEL_RULES = {
    "contradiction": lambda g, a, b, c: (g.and_(g.and_(a, b), a ^ 1), 0),
    "contradiction_two_gates": lambda g, a, b, c: (
        g.and_(g.and_(a, b), g.and_(b ^ 1, c)), 0),
    "idempotence": lambda g, a, b, c: (g.and_(g.and_(a, b), b), g.and_(a, b)),
    "idempotence_two_gates": lambda g, a, b, c: (
        g.and_(g.and_(a, b), g.and_(a, c)), {g.and_(a, b), c}),
    "subsumption": lambda g, a, b, c: (g.and_(g.and_(a, b) ^ 1, a ^ 1), a ^ 1),
    "subsumption_two_gates": lambda g, a, b, c: (
        g.and_(g.and_(a, b) ^ 1, g.and_(a ^ 1, c)), g.and_(a ^ 1, c)),
    "substitution": lambda g, a, b, c: (g.and_(b, g.and_(b, c) ^ 1), {b, c ^ 1}),
    "substitution_two_gates": lambda g, a, b, c: (
        g.and_(g.and_(a, b) ^ 1, g.and_(a, c)), {b ^ 1, g.and_(a, c)}),
    "resolution": lambda g, a, b, c: (
        g.and_(g.and_(a, b) ^ 1, g.and_(a, b ^ 1) ^ 1), a ^ 1),
}


@pytest.mark.parametrize("rule", TWO_LEVEL_RULES)
def test_two_level_rule_rewrites(rule):
    aig = OneGatePerCall()
    a, b, c = (2 * aig.new_var() for _ in range(3))
    built, expected = TWO_LEVEL_RULES[rule](aig, a, b, c)
    if isinstance(expected, set):
        gates = {2 * var: {rhs0, rhs1} for var, rhs0, rhs1 in aig.nodes()}
        assert gates.get(built) == expected
    else:
        assert built == expected
    # the plain builder leaves each of these as one more gate
    plain = Aig()
    plain.declare_var(3)
    assert TWO_LEVEL_RULES[rule](plain, a, b, c)[0] == 2 * plain.max_var


# One malformed text per error path of the reader and the validator, with
# the exact message each raises.
MALFORMED = {
    # truncated sections
    "empty_file": ("", "unexpected end of file while reading header"),
    "truncated_inputs": ("aag 1 1 0 0 0\n",
                         "unexpected end of file while reading inputs"),
    "truncated_latches": ("aag 1 0 1 0 0\n",
                          "unexpected end of file while reading latches"),
    "truncated_outputs": ("aag 1 1 0 1 0\n2\n",
                          "unexpected end of file while reading outputs"),
    "truncated_bad": ("aag 1 1 0 0 0 1 0 0 0\n2\n",
                      "unexpected end of file while reading bad"),
    "truncated_constraints": ("aag 1 1 0 0 0 0 1 0 0\n2\n",
                              "unexpected end of file while reading constraints"),
    "truncated_justice_sizes": ("aag 1 1 0 0 0 0 0 1 0\n2\n",
                                "unexpected end of file while reading justice sizes"),
    "truncated_justice_literals": (
        "aag 1 1 0 0 0 0 0 1 0\n2\n2\n2\n",
        "unexpected end of file while reading justice literals"),
    "truncated_ands": ("aag 3 2 0 0 1\n2\n4\n",
                       "unexpected end of file while reading AND nodes"),
    # the header
    "not_aag": ("aig 1 0 0 0 0\n",
                "not an ASCII AIGER file (missing 'aag' header)"),
    "header_too_few": ("aag 1 1 0 0\n",
                       "malformed header: expected 5 to 9 counts, got 4"),
    "header_too_many": ("aag 1 1 0 0 0 0 0 0 0 0\n",
                        "malformed header: expected 5 to 9 counts, got 10"),
    "header_not_integer": (
        "aag 1 x 0 0 0\n",
        "malformed header: invalid literal for int() with base 10: 'x'"),
    "header_negative": ("aag 1 -1 0 0 0\n", "malformed header: negative count"),
    "header_fairness": ("aag 1 1 0 0 0 0 0 0 1\n2\n",
                        "fairness sections are not supported"),
    "header_m_too_small": ("aag 1 2 0 0 0\n2\n4\n",
                           "malformed header: M=1 smaller than I+L+A=2"),
    # non-integer tokens
    "input_not_integer": ("aag 1 1 0 0 0\nx\n", "input 0: not a literal: 'x'"),
    "latch_not_integer": ("aag 1 0 1 0 0\nl 2\n", "latch 0: not a literal: 'l'"),
    "latch_next_not_integer": ("aag 1 0 1 0 0\n2 n\n",
                               "latch 0 next: not a literal: 'n'"),
    "output_not_integer": ("aag 1 1 0 1 0\n2\no\n",
                           "output 0: not a literal: 'o'"),
    "bad_not_integer": ("aag 1 1 0 0 0 1 0 0 0\n2\nb\n",
                        "bad 0: not a literal: 'b'"),
    "constraint_not_integer": ("aag 1 1 0 0 0 0 1 0 0\n2\nc\n",
                               "constraint 0: not a literal: 'c'"),
    "justice_size_not_integer": ("aag 1 1 0 0 0 0 0 1 0\n2\nz\n",
                                 "justice group 0: malformed size"),
    "justice_not_integer": ("aag 1 1 0 0 0 0 0 1 0\n2\n1\nj\n",
                            "justice 0: not a literal: 'j'"),
    "and_lhs_not_integer": ("aag 3 2 0 0 1\n2\n4\nx 2 4\n",
                            "AND 0: not a literal: 'x'"),
    "and_operand_not_integer": ("aag 3 2 0 0 1\n2\n4\n6 2 y\n",
                                "AND 0: not a literal: 'y'"),
    "and_first_error_wins": ("aag 3 2 0 0 1\n2\n4\n9 x y\n",
                             "AND 0: literal 9 out of range (max 7)"),
    # wrong token counts
    "latch_one_token": ("aag 1 0 1 0 0\n2\n", "latch 0: expected 'lit next'"),
    "latch_four_tokens": ("aag 1 0 1 0 0\n2 2 0 0\n",
                          "latch 0: expected 'lit next'"),
    "and_two_tokens": ("aag 3 2 0 0 1\n2\n4\n6 2\n",
                       "AND 0: expected 'lhs rhs0 rhs1'"),
    "and_four_tokens": ("aag 3 2 0 0 1\n2\n4\n6 2 4 4\n",
                        "AND 0: expected 'lhs rhs0 rhs1'"),
    # even/odd and range
    "input_odd": ("aag 1 1 0 0 0\n3\n",
                  "input 0: literal 3 must be a positive even literal"),
    "input_zero": ("aag 1 1 0 0 0\n0\n",
                   "input 0: literal 0 must be a positive even literal"),
    "input_out_of_range": ("aag 1 1 0 0 0\n4\n",
                           "input 0: literal 4 out of range (max 3)"),
    "input_negative": ("aag 1 1 0 0 0\n-2\n",
                       "input 0: literal -2 out of range (max 3)"),
    "latch_odd": ("aag 1 0 1 0 0\n3 2\n",
                  "latch 0: literal 3 must be a positive even literal"),
    "latch_out_of_range": ("aag 1 0 1 0 0\n6 2\n",
                           "latch 0: literal 6 out of range (max 3)"),
    "latch_next_out_of_range": ("aag 1 0 1 0 0\n2 4\n",
                                "latch 0 next: literal 4 out of range (max 3)"),
    "output_out_of_range": ("aag 1 1 0 1 0\n2\n9\n",
                            "output 0: literal 9 out of range (max 3)"),
    "bad_out_of_range": ("aag 1 1 0 0 0 1 0 0 0\n2\n4\n",
                         "bad 0: literal 4 out of range (max 3)"),
    "constraint_out_of_range": ("aag 1 1 0 0 0 0 1 0 0\n2\n4\n",
                                "constraint 0: literal 4 out of range (max 3)"),
    "justice_out_of_range": ("aag 1 1 0 0 0 0 0 1 0\n2\n1\n4\n",
                             "justice 0: literal 4 out of range (max 3)"),
    "and_lhs_odd": ("aag 3 2 0 0 1\n2\n4\n7 2 4\n",
                    "AND 0: lhs 7 must be a positive even literal"),
    "and_lhs_zero": ("aag 3 2 0 0 1\n2\n4\n0 2 4\n",
                     "AND 0: lhs 0 must be a positive even literal"),
    "and_lhs_out_of_range": ("aag 3 2 0 0 1\n2\n4\n8 2 4\n",
                             "AND 0: literal 8 out of range (max 7)"),
    "and_operand_out_of_range": ("aag 3 2 0 0 1\n2\n4\n6 2 9\n",
                                 "AND 0: literal 9 out of range (max 7)"),
    "and_operand_negative": ("aag 3 2 0 0 1\n2\n4\n6 -1 4\n",
                             "AND 0: literal -1 out of range (max 7)"),
    # undefined operands, order, reset values
    "and_operand_undefined": ("aag 3 1 0 0 1\n2\n6 2 4\n",
                              "AND 3: literal 4 is undefined"),
    "latch_next_undefined": ("aag 2 0 1 0 0\n2 4\n",
                             "latch next: literal 4 is undefined"),
    "output_undefined": ("aag 2 1 0 1 0\n2\n5\n", "output: literal 5 is undefined"),
    "bad_undefined": ("aag 2 1 0 0 0 1 0 0 0\n2\n4\n",
                      "bad: literal 4 is undefined"),
    "constraint_undefined": ("aag 2 1 0 0 0 0 1 0 0\n2\n4\n",
                             "constraint: literal 4 is undefined"),
    "justice_undefined": ("aag 2 1 0 0 0 0 0 1 0\n2\n1\n4\n",
                          "justice: literal 4 is undefined"),
    "and_not_topological": ("aag 2 0 0 1 2\n2\n2 4 4\n4 0 1\n",
                            "AND 1: operand 4 is not topological"),
    "and_self_reference": ("aag 1 0 0 0 1\n2 2 1\n",
                           "AND 1: operand 2 is not topological"),
    # AND 5 reads AND 4, which the file defines below it
    "and_operand_defined_below": ("aag 5 2 1 0 2 1\n2\n4\n6 10\n6\n"
                                  "10 8 2\n8 2 4\n",
                                  "AND 5: operand 8 is not topological"),
    "latch_reset_one": ("aag 1 0 1 0 0\n2 2 1\n",
                        "latch 0: only reset value 0 is supported"),
    # variables defined twice
    "two_inputs": ("aag 2 2 0 0 0\n2\n2\n", "variable 1 is defined more than once"),
    "input_and_latch": ("aag 2 1 1 0 0\n2\n2 3\n",
                        "variable 1 is defined more than once"),
    "input_and_gate": ("aag 2 1 0 0 1\n2\n2 1 1\n",
                       "variable 1 is defined more than once"),
    "two_gates": ("aag 3 1 0 0 2\n2\n4 2 2\n4 2 2\n", "AND node 2 defined twice"),
    # symbol table
    "symbol_unknown_kind": ("aag 1 1 0 0 0\n2\nx0 foo\n",
                            "unexpected line in symbol table: 'x0 foo'"),
    "symbol_empty_line": ("aag 1 1 0 0 0\n2\n\n",
                          "unexpected line in symbol table: ''"),
    "symbol_no_name": ("aag 1 1 0 0 0\n2\ni0\n", "malformed symbol entry: 'i0'"),
    "symbol_no_index": ("aag 1 1 0 0 0\n2\ni name\n",
                        "malformed symbol entry: 'i name'"),
    "symbol_bad_index": ("aag 1 1 0 0 0\n2\nix name\n",
                         "malformed symbol entry: 'ix name'"),
    "symbol_out_of_range": ("aag 1 1 0 0 0\n2\ni1 name\n",
                            "symbol entry 'i1 name' out of range"),
    "symbol_negative_index": ("aag 1 1 0 0 0\n2\ni-1 name\n",
                              "symbol entry 'i-1 name' out of range"),
    "symbol_empty_section": ("aag 1 1 0 0 0\n2\nl0 name\n",
                             "symbol entry 'l0 name' out of range"),
    # a number is ASCII digits: int() would read a sign, underscores and
    # non-ASCII digits too; a leading '-' is read only to report a range
    "header_plus_sign": (
        "aag +1 1 0 0 0\n2\n",
        "malformed header: invalid literal for int() with base 10: '+1'"),
    "header_underscore": (
        "aag 1_0 1 0 0 0\n2\n",
        "malformed header: invalid literal for int() with base 10: '1_0'"),
    "input_plus_sign": ("aag 1 1 0 0 0\n+2\n", "input 0: not a literal: '+2'"),
    "input_underscore": ("aag 1 1 0 0 0\n0_2\n",
                         "input 0: not a literal: '0_2'"),
    "input_non_ascii_digit": ("aag 1 1 0 0 0\n\u0662\n",
                              "input 0: not a literal: '\u0662'"),
    "input_sign_before_range_fault": ("aag 2 2 0 0 0\n+2\n9\n",
                                      "input 0: not a literal: '+2'"),
    "latch_next_plus_sign": ("aag 1 0 1 0 0\n2 +2\n",
                             "latch 0 next: not a literal: '+2'"),
    "output_non_ascii_digit": ("aag 1 1 0 1 0\n2\n\u0663\n",
                               "output 0: not a literal: '\u0663'"),
    "justice_size_plus_sign": ("aag 1 1 0 0 0 0 0 1 0\n2\n+1\n2\n",
                               "justice group 0: malformed size"),
    "justice_underscore": ("aag 1 1 0 0 0 0 0 1 0\n2\n1\n0_2\n",
                           "justice 0: not a literal: '0_2'"),
    "and_operand_plus_sign": ("aag 3 2 0 0 1\n2\n4\n6 2 +4\n",
                              "AND 0: not a literal: '+4'"),
    "and_lhs_underscore": ("aag 3 2 0 0 1\n2\n4\n0_6 2 4\n",
                           "AND 0: not a literal: '0_6'"),
    "symbol_plus_sign_index": ("aag 1 1 0 0 0\n2\ni+0 name\n",
                               "malformed symbol entry: 'i+0 name'"),
    "symbol_non_ascii_index": ("aag 1 1 0 0 0\n2\ni\u0660 name\n",
                               "malformed symbol entry: 'i\u0660 name'"),
}


@pytest.mark.parametrize("text, message", MALFORMED.values(), ids=MALFORMED)
def test_malformed_text_error_messages(text, message):
    with pytest.raises(AigError) as info:
        read_aiger(text)
    assert str(info.value) == message
