"""GFF parsing, role validation and monitor compilation."""

from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from aigsynt.automata import (
    AutomatonError, BuchiAutomaton, Label, TRAP_ID, complete,
    parse_gff, parse_label, to_monitor, validate_for_role,
)


def enumerate_assignments(props) -> list[dict[str, bool]]:
    props = list(props)
    return [dict(zip(props, bits))
            for bits in product([False, True], repeat=len(props))]


def gff(states, initial, transitions, accepting, props=()):
    """Assemble a GFF document from compact descriptions."""
    prop_xml = "".join(f"<prop>{p}</prop>" for p in props)
    state_xml = "".join(f'<state sid="{s}"/>' for s in states)
    tr_xml = "".join(
        f"<transition tid=\"{i}\"><from>{src}</from><to>{dst}</to>"
        f"<label>{label}</label></transition>"
        for i, (src, label, dst) in enumerate(transitions))
    acc_xml = "".join(f"<stateID>{s}</stateID>" for s in accepting)
    return f"""<?xml version="1.0" encoding="UTF-8"?>
<structure label-on="transition" type="fa">
  <alphabet type="propositional">{prop_xml}</alphabet>
  <stateSet>{state_xml}</stateSet>
  <initialStateSet><stateID>{initial}</stateID></initialStateSet>
  <transitionSet>{tr_xml}</transitionSet>
  <acc type="buchi">{acc_xml}</acc>
</structure>"""


GF_DONE = gff(["0", "1"], "0",
              [("0", "~done", "0"), ("0", "done", "1"),
               ("1", "done", "1"), ("1", "~done", "0")],
              ["1"])

SAFETY_NO_E = gff(["ok"], "ok", [("ok", "~e", "ok")], ["ok"])

ALL_TRUE = gff(["s"], "s", [("s", "True", "s")], ["s"])


# labels ---------------------------------------------------------------


def test_parse_label_true_forms():
    assert parse_label("True").is_true
    assert parse_label("true").is_true


def test_parse_label_literals():
    l = parse_label("a ~b c")
    assert l.pos == {"a", "c"} and l.neg == {"b"}


def test_label_conflicting_literal_rejected():
    with pytest.raises(AutomatonError):
        parse_label("a ~a")


def test_label_overlap():
    assert parse_label("a").overlaps(parse_label("b"))
    assert not parse_label("a").overlaps(parse_label("~a"))
    assert parse_label("True").overlaps(parse_label("~a b"))


# parsing ---------------------------------------------------------------


def test_parse_minimal_accept_everything():
    aut = parse_gff(ALL_TRUE)
    assert aut.states == ("s",)
    assert aut.accepting == {"s"}
    # accepts every word: single state, True loop, accepting
    word = [{}] * 4
    assert aut.run(word) == ["s"] * 5


def test_parse_gf_done():
    aut = parse_gff(GF_DONE)
    assert aut.states == ("0", "1")
    assert aut.initial == "0"
    assert aut.alphabet_props == {"done"}
    # ultimately periodic words: (done)^omega visits 1 forever,
    # (~done)^omega never does
    run_all_done = aut.run([{"done": True}] * 6)
    assert set(run_all_done[1:]) == {"1"}
    run_never = aut.run([{"done": False}] * 6)
    assert set(run_never) == {"0"}


def test_rabin_acceptance_rejected():
    bad = ALL_TRUE.replace('type="buchi"', 'type="rabin"')
    with pytest.raises(AutomatonError, match="acceptance"):
        parse_gff(bad)


def test_zero_initial_states_rejected():
    bad = ALL_TRUE.replace("<initialStateSet><stateID>s</stateID></initialStateSet>",
                           "<initialStateSet></initialStateSet>")
    with pytest.raises(AutomatonError, match="initial"):
        parse_gff(bad)


def test_malformed_xml_rejected():
    with pytest.raises(AutomatonError, match="XML"):
        parse_gff("<structure><unclosed>")


def test_undeclared_accepting_state_rejected():
    bad = ALL_TRUE.replace('<acc type="buchi"><stateID>s</stateID>',
                           '<acc type="buchi"><stateID>t</stateID>')
    with pytest.raises(AutomatonError,
                       match="^accepting state 't' undeclared$"):
        parse_gff(bad)


def test_unknown_state_message_quotes_the_ids():
    # a newline inside an id must not split the one-line error message
    bad = gff(["fresh", "cont"], "fresh", [("f\nesh", "True", "cont")],
              ["fresh"])
    with pytest.raises(AutomatonError) as info:
        parse_gff(bad)
    assert str(info.value) == \
        "transition 'f\\nesh'->'cont' uses unknown state"


def test_unknown_elements_warn_but_parse(caplog):
    import logging
    doc = ALL_TRUE.replace("</structure>",
                           "<futureExtension/></structure>")
    with caplog.at_level(logging.WARNING):
        parse_gff(doc)
    assert any("futureExtension" in r.message for r in caplog.records)


# validation -------------------------------------------------------------


def test_safety_assumption_accepted():
    v = validate_for_role(parse_gff(SAFETY_NO_E), "assumption")
    assert TRAP_ID in v.states
    assert v.accepting == {"ok"}


def test_gf_done_guarantee_accepted_and_trap_pruned():
    v = validate_for_role(parse_gff(GF_DONE), "guarantee")
    assert TRAP_ID not in v.states


def test_gf_done_as_assumption_rejected():
    with pytest.raises(AutomatonError, match="not a safety property"):
        validate_for_role(parse_gff(GF_DONE), "assumption")


def test_transient_rejecting_initial_state_is_a_safety_assumption():
    aut = gff(["r", "ok"], "r",
              [("r", "True", "ok"), ("ok", "~e", "ok")], ["ok"])
    v = validate_for_role(parse_gff(aut), "assumption")
    assert v.accepting == {"ok"}


@pytest.mark.parametrize("states, transitions, named", [
    (["r1", "r2", "ok"],
     [("r1", "a", "r2"), ("r1", "~a", "ok"), ("r2", "True", "r1"),
      ("ok", "True", "ok")],
     "['r1', 'r2']"),
    (["r", "ok"],
     [("r", "a", "r"), ("r", "~a", "ok"), ("ok", "True", "ok")],
     "['r']"),
], ids=["two-state-cycle", "self-loop"])
def test_rejecting_cycle_assumption_rejected(states, transitions, named):
    aut = gff(states, states[0], transitions, ["ok"])
    with pytest.raises(AutomatonError) as info:
        validate_for_role(parse_gff(aut), "assumption")
    assert str(info.value) == (
        f"assumption: cycle through rejecting state(s) {named}, "
        f"so this is not a safety property")


def test_gf_done_negated_guarantee_rejected():
    with pytest.raises(AutomatonError, match="mixes accepting and rejecting"):
        validate_for_role(parse_gff(GF_DONE), "guarantee", negated=True)


def test_nondeterministic_guarantee_rejected():
    nd = gff(["0", "1"], "0",
             [("0", "a", "0"), ("0", "a b", "1"), ("1", "True", "1")],
             ["1"])
    with pytest.raises(AutomatonError, match="determinize"):
        validate_for_role(parse_gff(nd), "guarantee")


def test_acceptance_swap_involution():
    base = parse_gff(SAFETY_NO_E)
    once = validate_for_role(base, "guarantee", negated=True)
    twice = validate_for_role(once, "guarantee", negated=True)
    # the original accepting set returns (trap may remain materialized)
    assert {s for s in twice.accepting} == {"ok"}


def test_trap_kept_for_unreachable_incomplete_state():
    # s2 is unreachable and loops on p only; on ~p it steps into the
    # completion trap, so the trap stays and s2 stays complete
    aut = gff(["s0", "s2"], "s0", [("s0", "True", "s0"), ("s2", "p", "s2")],
              ["s0"], props=["p"])
    v = validate_for_role(parse_gff(aut), "guarantee")
    assert v.states == ("s0", "s2", TRAP_ID)
    m = to_monitor(v)
    assert m.bad_states == {2}
    assert assert_monitor_faithful(v, m, 4, "unreachable s2") == 16


def test_assumption_with_two_traps_accepted():
    # t1 is a trap of the document; completion adds a second one
    aut = gff(["ok", "t1"], "ok",
              [("ok", "~e ~f", "ok"), ("ok", "e", "t1"), ("t1", "True", "t1")],
              ["ok"], props=["e", "f"])
    v = validate_for_role(parse_gff(aut), "assumption")
    m = to_monitor(v)
    assert m.bad_states == {1, 2}
    assert_monitor_faithful(v, m, 4, "two traps")


def test_completion_prunes_unreachable_trap():
    aut = parse_gff(GF_DONE)
    completed = complete(aut)
    assert completed is aut  # already complete, nothing added


def test_missing_letters_go_to_trap():
    v = validate_for_role(parse_gff(SAFETY_NO_E), "assumption")
    run = v.run([{"e": False}, {"e": True}, {"e": False}])
    assert run == ["ok", "ok", TRAP_ID, TRAP_ID]


# monitors ----------------------------------------------------------------


def test_monitor_all_accepting_single_state():
    m = to_monitor(validate_for_role(parse_gff(ALL_TRUE), "guarantee"))
    assert m.state_bits == 0
    assert m.fair_states == {0}
    assert not m.bad_states
    assert not m.fair_nontrivial


def test_monitor_gf_done():
    m = to_monitor(validate_for_role(parse_gff(GF_DONE), "guarantee"))
    assert m.state_bits == 1
    assert m.fair_states == {1}
    assert not m.bad_states
    assert m.fair_nontrivial
    # 4-step simulation against the direct run
    word = [{"done": b} for b in (True, False, False, True)]
    aut = validate_for_role(parse_gff(GF_DONE), "guarantee")
    direct = aut.run(word)
    state = m.init_index
    seq = [state]
    for letter in word:
        state = m.step(state, letter)
        seq.append(state)
    assert [aut.states[i] for i in seq] == direct


def test_monitor_safety_trap_is_bad_and_absorbing():
    m = to_monitor(validate_for_role(parse_gff(SAFETY_NO_E), "assumption"))
    trap_idx = m.state_ids.index(TRAP_ID)
    assert m.bad_states == {trap_idx}
    for letter in enumerate_assignments(m.props):
        assert m.step(trap_idx, letter) == trap_idx


def assert_monitor_faithful(aut, monitor, length: int, label: str) -> int:
    """Acceptance criterion 6's check; returns the number of words run.

    The monitor starts in the automaton's initial state, runs through
    the same states as the automaton on every word of ``length``
    letters, hence on every shorter word, and never leaves its bad
    states.
    """
    assert monitor.state_ids[monitor.init_index] == aut.initial, label
    letters = enumerate_assignments(sorted(aut.alphabet_props))
    words = 0
    for word in product(letters, repeat=length):
        direct = aut.run(list(word))
        state = monitor.init_index
        for i, letter in enumerate(word):
            state = monitor.step(state, letter)
            assert monitor.state_ids[state] == direct[i + 1], label
        words += 1
    for bad_state in monitor.bad_states:
        for letter in letters:
            assert monitor.step(bad_state, letter) in monitor.bad_states
    return words


@st.composite
def random_gff(draw):
    """A GFF automaton of 1-5 states over 1-2 propositions."""
    props = ["p", "q"][:draw(st.integers(1, 2))]
    states = [f"s{i}" for i in range(draw(st.integers(1, 5)))]
    label = st.lists(st.sampled_from([None, "", "~"]), min_size=len(props),
                     max_size=len(props)).map(
        lambda signs: " ".join(sign + p for sign, p in zip(signs, props)
                               if sign is not None) or "True")
    transitions = draw(st.lists(
        st.tuples(st.sampled_from(states), label, st.sampled_from(states)),
        max_size=3 * len(states)))
    accepting = draw(st.sets(st.sampled_from(states)))
    return gff(states, states[0], transitions, sorted(accepting), props)


@given(random_gff())
@settings(max_examples=300, deadline=None)
def test_every_accepted_automaton_compiles_faithfully(text):
    """Whatever ``validate_for_role`` accepts, in any role and either
    polarity, compiles to a monitor that passes criterion 6's check."""
    for role, negated in product(("guarantee", "assumption"), (False, True)):
        try:
            aut = validate_for_role(parse_gff(text), role, negated=negated)
        except AutomatonError:
            continue
        assert_monitor_faithful(aut, to_monitor(aut), 3, f"{role} {negated}")


FIXTURES = {
    "all_true": ALL_TRUE,
    "gf_done": GF_DONE,
    "safety_no_e": SAFETY_NO_E,
    "done_then_output": gff(
        ["0", "1"], "0",
        [("0", "~done", "0"), ("0", "done", "1"),
         ("1", "enq ~done", "0"), ("1", "enq done", "1")],
        ["0", "1"]),
    "stability": gff(
        ["fresh", "cont"], "fresh",
        [("fresh", "done", "fresh"), ("fresh", "~done", "cont"),
         ("cont", "stable done", "fresh"), ("cont", "stable ~done", "cont")],
        ["fresh", "cont"]),
    "three_phase": gff(
        ["a", "b", "c"], "a",
        [("a", "go", "b"), ("a", "~go", "a"),
         ("b", "go", "c"), ("b", "~go", "b"),
         ("c", "True", "c")],
        ["a", "b", "c"]),
}


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_monitor_faithful_random_words(data):
    name = data.draw(st.sampled_from(sorted(FIXTURES)))
    role = "assumption" if name in ("safety_no_e", "stability",
                                    "three_phase") else "guarantee"
    aut = validate_for_role(parse_gff(FIXTURES[name]), role)
    m = to_monitor(aut)
    props = sorted(aut.alphabet_props)
    word = data.draw(st.lists(
        st.fixed_dictionaries({p: st.booleans() for p in props}),
        min_size=0, max_size=12))
    direct = aut.run(word)
    state = m.init_index
    seq = [m.state_ids[state]]
    for letter in word:
        state = m.step(state, letter)
        seq.append(m.state_ids[state])
    assert seq == direct


def test_determinism_exhaustive_after_validation():
    for name, doc in sorted(FIXTURES.items()):
        role = "assumption" if name in ("safety_no_e", "stability",
                                        "three_phase") else "guarantee"
        aut = validate_for_role(parse_gff(doc), role)
        letters = enumerate_assignments(sorted(aut.alphabet_props))
        for state in aut.states:
            for letter in letters:
                enabled = [dst for label, dst in aut.outgoing(state)
                           if label.matches(letter)]
                assert len(enabled) == 1, (name, state, letter)
