"""AIG construction and AIGER serialization."""

import pytest
from hypothesis import given, settings, strategies as st

from aigsynt.aiger import (
    Aig, AigError, AigerDoc, Simulator, read_aiger, write_aiger,
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


TWICE_DEFINED = {
    "input_and_latch": "aag 2 1 1 0 0 1 0 0 0\n2\n2 3\n2\n",
    "two_inputs": "aag 2 2 0 0 0\n2\n2\n",
}


@pytest.mark.parametrize("text", TWICE_DEFINED.values(), ids=TWICE_DEFINED)
def test_variable_defined_twice_rejected(text):
    with pytest.raises(AigError, match="defined more than once"):
        read_aiger(text)


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
