"""Parsing of the extended SMV dialect."""

import pytest
from hypothesis import given, settings, strategies as st

from aigsynt.smv import parse_smv, SmvSyntaxError
from aigsynt.smv.ast import BoolType, EnumType, InstanceType, RangeType


LISTING_STYLE = """
MODULE helper1(input1,input2)  //we can define and use modules as usually
VAR
  state: 0..100;
DEFINE
  reached42 := state=42;
ASSIGN
  init(state) := 0;
  next(state) := case input1 : 42; TRUE : state; esac;

MODULE main  -- the top module carries the synthesis problem
VAR
  CPUread: boolean;
  CPUwrite: boolean;
  valueIn: boolean;
  done: boolean;

VAR --controllable
  valueOut: boolean;  // only boolean is allowed

VAR
  h: helper1(readA, valueOut);

DEFINE
  a := TRUE;
  b := FALSE;
  writtenA := CPUwrite & valueIn=a & done;
  readA := CPUread & valueOut=a & done;
  is42 := h.reached42;

SYS_AUTOMATON_SPEC -- guarantees
  guarantee1.gff;
  !guarantee2.gff;

ENV_AUTOMATON_SPEC
  assumption1.gff;
  !assumption2.gff;
"""


def test_minimal_spec():
    spec = parse_smv("MODULE main VAR x: boolean;")
    assert len(spec.modules) == 1
    (v,) = spec.main.vars
    assert v.name == "x" and not v.controllable
    assert isinstance(v.type, BoolType)


def test_listing_style_spec():
    spec = parse_smv(LISTING_STYLE)
    assert sorted(m.name for m in spec.modules) == ["helper1", "main"]
    main = spec.main
    controllables = [v.name for v in main.vars if v.controllable]
    assert controllables == ["valueOut"]
    assert [(r.path, r.negated) for r in main.sys_automata] == [
        ("guarantee1.gff", False), ("guarantee2.gff", True)]
    assert [(r.path, r.negated) for r in main.env_automata] == [
        ("assumption1.gff", False), ("assumption2.gff", True)]
    h = main.var_decl("h")
    assert isinstance(h.type, InstanceType) and h.type.module == "helper1"
    assert len(h.type.actuals) == 2


def test_duplicate_module_rejected():
    with pytest.raises(SmvSyntaxError, match="duplicate module"):
        parse_smv("MODULE main MODULE main")


def test_missing_main_rejected():
    with pytest.raises(SmvSyntaxError, match="main"):
        parse_smv("MODULE other VAR x: boolean;")


def test_controllable_outside_main_rejected():
    text = """
    MODULE helper VAR --controllable y: boolean;
    MODULE main VAR x: boolean;
    """
    with pytest.raises(SmvSyntaxError, match="controllable mark outside main"):
        parse_smv(text)


def test_automaton_section_outside_main_rejected():
    text = """
    MODULE helper
    SYS_AUTOMATON_SPEC
      p.gff;
    MODULE main
    VAR x: boolean;
    """
    with pytest.raises(SmvSyntaxError, match="automaton sections outside main"):
        parse_smv(text)


def test_controllable_must_be_boolean():
    with pytest.raises(SmvSyntaxError, match="only boolean"):
        parse_smv("MODULE main VAR --controllable x: 0..3;")


def test_syntax_error_carries_position():
    with pytest.raises(SmvSyntaxError) as exc:
        parse_smv("MODULE main\nVAR x: boolean\nDEFINE y := TRUE;")
    assert exc.value.line == 3  # the missing ';' surfaces at DEFINE


# a column counts characters: a tab or a non-ASCII letter is one column
ERROR_POSITIONS = {
    "after-a-tab": ("MODULE main\nVAR\n\tx: boolean;\n\ty boolean;\n",
                    "expected ':'", 4, 4),
    "after-a-non-ascii-identifier": (
        "MODULE main VAR déjà: boolean; ça boolean;", "expected ':'", 1, 35),
    "after-a-dash-comment": (
        "MODULE main -- a comment\n  VAR x: boolean; y boolean;",
        "expected ':'", 2, 21),
    "after-a-slash-comment": (
        "MODULE main // a comment\n  VAR x: boolean; y boolean;",
        "expected ':'", 2, 21),
    "on-a-later-line": (
        "MODULE main\nVAR\n  x: boolean;\n\n  y: 0..3;\nASSIGN\n"
        "  next(y) := y + 1;\n", "arithmetic operator '\\+'", 7, 16),
    "unexpected-character": ("MODULE main VAR x: boolean;\n  DEFINE d := x # x;",
                             "unexpected character '#'", 2, 17),
    "automaton-entry-without-semicolon": (
        "MODULE main\nVAR x: boolean;\nSYS_AUTOMATON_SPEC\n  a.gff;\n"
        "  b.gff c.gff;\n", "must end with ';'", 5, 9),
    "automaton-empty-path": (
        "MODULE main\nVAR x: boolean;\nENV_AUTOMATON_SPEC\n  a.gff;\n  ! ;\n",
        "empty automaton path", 5, 3),
    "automaton-negation-at-end": (
        "MODULE main\nVAR x: boolean;\nENV_AUTOMATON_SPEC\n  a.gff;\n"
        "  !  -- nothing\n", "after '!' is missing", 5, 3),
}


@pytest.mark.parametrize("text, message, line, col", ERROR_POSITIONS.values(),
                         ids=ERROR_POSITIONS)
def test_syntax_error_positions(text, message, line, col):
    with pytest.raises(SmvSyntaxError, match=message) as exc:
        parse_smv(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def test_arithmetic_rejected():
    with pytest.raises(SmvSyntaxError, match="arithmetic"):
        parse_smv("MODULE main VAR x: 0..3; ASSIGN next(x) := x + 1;")


def _define(text):
    (define,) = parse_smv(f"MODULE main DEFINE d := {text};").main.defines
    return str(define.expr)


@pytest.mark.parametrize("text, tree", [
    # each binary operator chained with itself: its associativity
    ("a <-> b <-> c", "((a <-> b) <-> c)"),
    ("a -> b -> c", "(a -> (b -> c))"),
    ("a | b | c", "((a | b) | c)"),
    ("a xor b xor c", "((a xor b) xor c)"),
    ("a & b & c", "((a & b) & c)"),
    # each against its neighbours, on both sides: loosest binding first
    ("a <-> b -> c", "(a <-> (b -> c))"),
    ("a -> b <-> c", "((a -> b) <-> c)"),
    ("a -> b | c", "(a -> (b | c))"),
    ("a | b -> c", "((a | b) -> c)"),
    ("a | b xor c", "(a | (b xor c))"),
    ("a xor b | c", "((a xor b) | c)"),
    ("a xor b & c", "(a xor (b & c))"),
    ("a & b xor c", "((a & b) xor c)"),
    ("a & b = c", "(a & (b = c))"),
    ("a = b & c", "((a = b) & c)"),
    ("a != b | c <= d", "((a != b) | (c <= d))"),
    ("a <-> b & c -> d xor e | f", "(a <-> ((b & c) -> ((d xor e) | f)))"),
])
def test_binary_operator_precedence_and_associativity(text, tree):
    assert _define(text) == tree


def test_comparisons_do_not_chain():
    with pytest.raises(SmvSyntaxError):
        _define("a = b = c")


def test_types():
    spec = parse_smv("""
    MODULE main
    VAR r: 2..5;
        e: {A, B, C};
        n: -2..2;
    ASSIGN next(r) := r; next(e) := e; next(n) := n;
    """)
    r, e, n = spec.main.vars
    assert r.type == RangeType(2, 5)
    assert e.type == EnumType(("A", "B", "C"))
    assert n.type == RangeType(-2, 2)


def test_empty_range_rejected():
    with pytest.raises(SmvSyntaxError, match="empty range"):
        parse_smv("MODULE main VAR x: 5..2;")


def test_case_insensitive_keywords():
    spec = parse_smv("module main var x: BOOLEAN; assign NEXT(x) := True;")
    assert spec.main.var_decl("x") is not None
    assert spec.main.assigns[0].kind == "next"


# "aſſıgn" upper-cases to "ASSIGN": ſ (long s) to S, ı (dotless i) to I
FOLDS_TO_ASSIGN = "a\u017f\u017f\u0131gn"


def test_keywords_fold_ascii_case_only():
    # vAr and Assign stay keywords; aſſıgn is an identifier, here the
    # name of a variable declared in the VAR section
    spec = parse_smv(f"MODULE main vAr x: boolean; {FOLDS_TO_ASSIGN}: boolean;"
                     f" Assign next(x) := !{FOLDS_TO_ASSIGN};")
    assert spec.main.var_decl(FOLDS_TO_ASSIGN) is not None
    assert spec.main.assigns[0].kind == "next"
    # so it cannot start an ASSIGN section
    with pytest.raises(SmvSyntaxError, match="expected ':', found 'NEXT'"):
        parse_smv(f"MODULE main vAr x: boolean; {FOLDS_TO_ASSIGN} "
                  "next(x) := !x;")


def test_non_ascii_keyword_spelling_does_not_end_an_automaton_section():
    spec = parse_smv("MODULE main VAR x: boolean;\nSYS_AUTOMATON_SPEC\n"
                     f"  a.gff;\n  {FOLDS_TO_ASSIGN};\nAssign\n"
                     "  next(x) := x;\n")
    assert [r.path for r in spec.main.sys_automata] == ["a.gff",
                                                        FOLDS_TO_ASSIGN]
    assert spec.main.assigns[0].kind == "next"
    # the entry is a path, which runs to the next space
    with pytest.raises(SmvSyntaxError, match=r"automaton entry must end with "
                                             r"';' \(line 5, col 3\)"):
        parse_smv("MODULE main VAR x: boolean;\nSYS_AUTOMATON_SPEC\n"
                  f"  a.gff;\n{FOLDS_TO_ASSIGN}\n  next(x) := x;\n")


def test_marker_spelling_is_exact():
    # lowercase marker is not a section; it parses as a variable name,
    # which then fails on the missing type
    with pytest.raises(SmvSyntaxError):
        parse_smv("MODULE main VAR x: boolean; sys_automaton_spec p.gff;")


def test_comment_forms():
    spec = parse_smv("""
    MODULE main -- line comment
    // other comment form
    VAR x: boolean; -- controllable is not a marker unless spelled exactly
    """)
    assert not spec.main.vars[0].controllable


def test_controllable_marker_ends_an_automaton_section():
    # as it ends any section; the marker is a token, not a path or a comment
    with pytest.raises(SmvSyntaxError,
                       match="expected a section keyword, found '--controllable'") as exc:
        parse_smv("MODULE main VAR x: boolean;\nSYS_AUTOMATON_SPEC\n"
                  "  a.gff;\n  --controllable.gff;\n")
    assert (exc.value.line, exc.value.col) == (4, 3)


def test_automaton_paths_with_directories():
    spec = parse_smv("""
    MODULE main
    VAR x: boolean;
    SYS_AUTOMATON_SPEC
      props/sub.dir/guarantee-1.gff;
    """)
    assert spec.main.sys_automata[0].path == "props/sub.dir/guarantee-1.gff"


def test_each_automaton_entry_has_its_own_line():
    spec = parse_smv("MODULE main VAR x: boolean;\nSYS_AUTOMATON_SPEC\n"
                     "  a.gff;\n\n  b.gff; !c.gff;\nENV_AUTOMATON_SPEC\n"
                     "  -- an assumption\n  !\n  d.gff\n  ;\n")
    assert [(r.path, r.line) for r in spec.main.sys_automata] == [
        ("a.gff", 3), ("b.gff", 5), ("c.gff", 5)]
    # a negated entry starts at its '!'
    assert [(r.path, r.negated, r.line) for r in spec.main.env_automata] == [
        ("d.gff", True, 8)]


# characters, and the pieces that switch the lexer's rules: a letter and
# digits beyond ASCII (a superscript, an Arabic-Indic three), a form feed,
# the exact marker and section header, and comment and range punctuation
GARBAGE_PIECES = list("MODULEVARDEFINEASSIGN mainxy:=;(){}.!&|<->0123456789\n\t"
                      "abcdef_-") + [
    "\u00e9", "\u00b2", "\u0663", "\x0c", "--controllable", "SYS_AUTOMATON_SPEC",
    "//", ".."]
# the garbage follows one of these, so that it also lands where a
# section, a type, an expression or an automaton entry is read
GARBAGE_PREFIXES = ["", "MODULE main ", "MODULE main VAR x: ",
                    "MODULE main VAR x: boolean; DEFINE d := ",
                    "MODULE main VAR x: boolean; SYS_AUTOMATON_SPEC "]


@given(st.sampled_from(GARBAGE_PREFIXES),
       st.lists(st.sampled_from(GARBAGE_PIECES), max_size=200).map("".join))
@settings(max_examples=300, deadline=None)
def test_parser_total_over_garbage(prefix, text):
    """Arbitrary input either parses or raises the frontend error type."""
    try:
        parse_smv(prefix + text)
    except SmvSyntaxError:
        pass
