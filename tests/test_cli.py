"""Command-line pipeline behavior and exit codes."""

import contextlib
import hashlib
import io
import os
import string
import subprocess
import sys
from pathlib import Path
from random import Random
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import aigsynt
from aigsynt.aiger import AigerDoc, Simulator, evaluate_vars, read_aiger, \
    values_lit, write_aiger
from aigsynt.cli import main
from aigsynt.mc import _cut_vars
from aigsynt.oracle import solve_explicit
from aigsynt.smv import flatten, parse_smv, resolve
from aigsynt.transforms import delay_justice

from helpers import FlatSim, enumerate_fair_lasso, enumerate_lasso_fg_not_just
from test_aiger import LINE_BREAKS, NEGATIVE_JUSTICE_SIZE, TWICE_DEFINED, \
    names_and_comments_text
from test_automata import gff
from test_game import all_states, assert_encoding_simulates, benchmark_doc, \
    doc_with
from test_mc import replay

BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "huffman4"


@pytest.fixture
def spec_aag(tmp_path):
    out = tmp_path / "spec.aag"
    code = main(["spec2aag", str(BENCH / "huffman4.smv"), "-o", str(out),
                 "--extended"])
    assert code == 0
    return out


def test_spec2aag_extended_sections(spec_aag, capsys):
    text = spec_aag.read_text()
    header = text.splitlines()[0].split()
    assert header[0] == "aag"
    b, c, j = int(header[6]), int(header[7]), int(header[8])
    assert b == 3 and c == 2 and j == 1


def test_spec2aag_standard_needs_k(tmp_path, capsys):
    out = tmp_path / "spec.aag"
    code = main(["spec2aag", str(BENCH / "huffman4.smv"), "-o", str(out),
                 "--standard"])
    assert code == 2
    assert "needs --k" in capsys.readouterr().err


def test_spec2aag_k_without_standard_rejected(tmp_path, capsys):
    out = tmp_path / "spec.aag"
    code = main(["spec2aag", str(BENCH / "huffman4.smv"), "-o", str(out),
                 "--k", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --k applies only with --standard\n"
    assert not out.exists()


def test_synth_output_with_realizability_only_rejected(tmp_path, capsys):
    # a realizable game, so a synth that ignored -o would still exit 0
    game = tmp_path / "arbiter.aag"
    assert main(["spec2aag", str(BENCH.parent / "arbiter" / "arbiter.smv"),
                 "-o", str(game)]) == 0
    capsys.readouterr()
    out = tmp_path / "model.aag"
    assert main(["synth", str(game), "-o", str(out),
                 "--print-realizability-only"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err
    assert not out.exists()


def test_spec2aag_standard_k_without_liveness_rejected(tmp_path, capsys):
    (tmp_path / "spec.smv").write_text(
        "MODULE main\nVAR\n  p: boolean;\n\nVAR --controllable\n"
        "  q: boolean;\n\nSYS_AUTOMATON_SPEC\n  guarantee.gff;\n")
    (tmp_path / "guarantee.gff").write_text(gff(
        ["ok"], "ok", [("ok", "~p", "ok"), ("ok", "p q", "ok")], ["ok"],
        props=["p", "q"]))
    out = tmp_path / "spec.aag"
    assert main(["spec2aag", str(tmp_path / "spec.smv"), "-o", str(out)]) == 0
    assert capsys.readouterr().out.endswith(", justice no\n")  # safety only
    out.unlink()
    code = main(["spec2aag", str(tmp_path / "spec.smv"), "-o", str(out),
                 "--standard", "--k", "3"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --k applies only to a specification "
                            "with a liveness objective\n")
    assert not out.exists()


@pytest.mark.parametrize("guarantee, assumption, verdict", [
    ([("ok", "~p", "ok"), ("ok", "p q", "ok")], None, 0),  # q answers p
    ([("ok", "~p", "ok")], None, 1),  # the environment raises p
    ([("ok", "~p", "ok")], [("ok", "~p", "ok")], 0),  # unless assumed not
], ids=["realizable", "unrealizable", "assumed"])
def test_spec2aag_standard_folds_a_safety_spec(tmp_path, capsys, guarantee,
                                              assumption, verdict):
    """``--standard`` on a specification without justice writes an
    old-format game with one output, ``bad``, relativized to the
    assumptions, and the game keeps the extended game's verdict."""
    spec = tmp_path / "spec.smv"
    spec.write_text(
        "MODULE main\nVAR\n  p: boolean;\n\nVAR --controllable\n"
        "  q: boolean;\n\nSYS_AUTOMATON_SPEC\n  guarantee.gff;\n"
        + ("ENV_AUTOMATON_SPEC\n  assumption.gff;\n" if assumption else ""))
    for name, transitions in (("guarantee", guarantee),
                              ("assumption", assumption)):
        if transitions:
            (tmp_path / f"{name}.gff").write_text(gff(
                ["ok"], "ok", transitions, ["ok"], props=["p", "q"]))
    extended, standard = tmp_path / "extended.aag", tmp_path / "standard.aag"
    assert main(["spec2aag", str(spec), "-o", str(extended)]) == 0
    assert len(read_aiger(extended.read_text()).constraints) == \
        (assumption is not None)
    assert main(["spec2aag", str(spec), "-o", str(standard),
                 "--standard"]) == 0
    doc = read_aiger(standard.read_text())
    assert len(standard.read_text().split("\n", 1)[0].split()) == 6
    assert doc.fmt == "old" and [name for _, name in doc.outputs] == ["bad"]
    assert not (doc.bad or doc.constraints or doc.justice)
    capsys.readouterr()
    verdicts = [main(["synth", str(game)]) for game in (extended, standard)]
    assert verdicts == [verdict, verdict]
    assert capsys.readouterr().out.splitlines() == \
        2 * ["UNREALIZABLE" if verdict else "REALIZABLE"]


def test_a_byte_order_mark_reads_as_nothing(tmp_path, capsys):
    """A UTF-8 byte-order mark in front of a specification or an AIGER
    file changes no byte written."""
    plain = BENCH.parent / "arbiter"
    marked = tmp_path / "arbiter"
    marked.mkdir()
    for path in plain.iterdir():
        (marked / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    games = []
    for source in (plain, marked):
        games.append(tmp_path / f"{source.name}-{len(games)}.aag")
        assert main(["spec2aag", str(source / "arbiter.smv"),
                     "-o", str(games[-1])]) == 0
    assert games[0].read_bytes() == games[1].read_bytes()
    marked_game = tmp_path / "marked.aag"
    marked_game.write_bytes(b"\xef\xbb\xbf" + games[0].read_bytes())
    models = [tmp_path / "model.aag", tmp_path / "marked_model.aag"]
    for game, model in zip((games[0], marked_game), models):
        assert main(["synth", str(game), "-o", str(model)]) == 0
    assert models[0].read_bytes() == models[1].read_bytes()
    assert "error" not in capsys.readouterr().err


# SHA-256 of each bundled specification compiled by ``spec2aag``: a
# frontend change that alters a written game byte fails here
SPEC2AAG_SHA256 = [
    ("huffman4", [],
     "96b655a669245e2d13986e8fb4013b775d90336b21041c177c77620ad501c288"),
    ("huffman4", ["--standard", "--k", "3"],
     "84fb93bae3244d601349f34cd2ff6f6dc4303168bdacea613fd81da3251d52ca"),
    ("arbiter", [],
     "0abaaac687a7cd33c54a9337f2d6b2f2d60dddaedef7948b6e422e14fecfdef4"),
    ("arbiter", ["--standard", "--k", "3"],
     "fdfb1208ca0ab226e6c9fbb166acacd5ac3342f2b571fd50eb0853c4c411ad1d"),
]


@pytest.mark.parametrize("name, options, digest", SPEC2AAG_SHA256,
                         ids=["-".join([n, *(x.lstrip("-") for x in o)])
                              for n, o, _ in SPEC2AAG_SHA256])
def test_spec2aag_bundled_specs_pinned(tmp_path, name, options, digest):
    out = tmp_path / "game.aag"
    spec = BENCH.parent / name / f"{name}.smv"
    assert main(["spec2aag", str(spec), "-o", str(out), *options]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def before_comments(data: bytes) -> bytes:
    """The bytes of an AIGER file before its comment line ``c``."""
    head, sep, _ = data.partition(b"\nc\n")
    return head + b"\n" if sep else data


# SHA-256 of ``synth -o`` on each bundled game, of the text before the
# ``c`` line and of the whole file: a change to solving, extraction or
# translation that alters a model's gates fails the first, and one that
# alters its winning-region block the second
SYNTH_SHA256 = [
    ("arbiter", [],
     "0bc027e1b8d2d8d81414b35435b8ea9a0f6e0b9af26f9563686f33b8e57fdf59",
     "16bdc793a2ac7ad7fd9017ad938d7dad15908871450e7827a45641f999ab4741"),
    ("huffman4", [],
     "bf23ffa02ecb5af7d166f1aa1616e73a479fd06c9fab510dbd3f401a1f120a50",
     "3370a090308f96e0ac4de2d7bec29c5e1acd14ad5b3e4618ce7457deb62f30fb"),
    ("huffman4", ["--standard", "--k", "3"],
     "12de9a6aab5b08351c918919f6a65da40194855ee20966f5ebc90b57c5b71485",
     "315f409cf4b04bd32f8ec53c283c8c49cad8451d6731ba040e857963fb11fc48"),
]


@pytest.mark.parametrize("name, options, digest, whole", SYNTH_SHA256,
                         ids=["-".join([n, *(x.lstrip("-") for x in o)])
                              for n, o, _, _ in SYNTH_SHA256])
def test_synth_bundled_models_pinned(tmp_path, name, options, digest, whole):
    game, model = tmp_path / "game.aag", tmp_path / "model.aag"
    spec = BENCH.parent / name / f"{name}.smv"
    assert main(["spec2aag", str(spec), "-o", str(game), *options]) == 0
    assert main(["synth", str(game), "-o", str(model)]) == 0
    data = model.read_bytes()
    assert hashlib.sha256(before_comments(data)).hexdigest() == digest
    assert hashlib.sha256(data).hexdigest() == whole


# SHA-256 of ``synth -o`` on the benchmark's 8-letter stress game, before
# the ``c`` line and whole: the model of the game the benchmark times
# stays the same too
STRESS8_SYNTH_SHA256 = \
    "1dddd9244e6fdf9abe413aeb261a77ed0439772e9e3cb6639268d48fdededb2b"
STRESS8_SYNTH_WHOLE_SHA256 = \
    "cafb68cfa328dde2b220ef034a247efcd80122e57be42dabb237b4168e3dba71"


def test_synth_stress8_model_pinned(tmp_path, monkeypatch):
    game, model = tmp_path / "game.aag", tmp_path / "model.aag"
    game.write_text(write_aiger(benchmark_doc("stress8", tmp_path,
                                              monkeypatch)))
    assert main(["synth", str(game), "-o", str(model)]) == 0
    data = model.read_bytes()
    assert hashlib.sha256(before_comments(data)).hexdigest() == \
        STRESS8_SYNTH_SHA256
    assert hashlib.sha256(data).hexdigest() == STRESS8_SYNTH_WHOLE_SHA256


def test_spec2aag_shared_subexpressions_compile_once(tmp_path):
    """A define of 40 nested ``<->`` compiles in well under a second.

    Each ``<->`` reads both operands twice, so the expression is a DAG
    of 40 levels whose tree has about 2**40 paths; a tree walk over it
    would never finish, hence the subprocess with a timeout.
    """
    n = 40
    expr = "v0"
    for i in range(1, n):
        expr = f"({expr} <-> v{i})"
    (tmp_path / "spec.smv").write_text(
        "MODULE main\nVAR\n" + "".join(f"  v{i}: boolean;\n" for i in range(n))
        + "  l: boolean;\n\nVAR --controllable\n  c: boolean;\n\nASSIGN\n"
        "  init(l) := FALSE;\n  next(l) := x & c;\nDEFINE\n"
        f"  x := {expr};\n")
    src = str(Path(aigsynt.__file__).resolve().parent.parent)
    out = tmp_path / "spec.aag"
    subprocess.run([sys.executable, "-m", "aigsynt.cli", "spec2aag",
                    str(tmp_path / "spec.smv"), "-o", str(out)],
                   env={**os.environ, "PYTHONPATH": src}, check=True,
                   capture_output=True, timeout=60)
    doc = read_aiger(out.read_text())
    rng = Random(n)
    for _ in range(20):
        vs = [rng.random() < 0.5 for _ in range(n)]
        values = evaluate_vars(doc, [False], vs + [True])
        # n - 1 connectives, each a negated xor
        assert values_lit(values, doc.latches[0][1]) == \
            ((sum(vs) + n - 1) % 2 == 1)


def test_options_do_not_leak_between_calls(tmp_path, spec_aag, capsys):
    # one process, one parser: each call starts from the defaults
    k2 = tmp_path / "k2.aag"
    assert main(["just2safe", str(spec_aag), "-o", str(k2), "--k", "2"]) == 0
    assert main(["spec2aag", str(BENCH / "huffman4.smv"), "-o",
                 str(tmp_path / "std.aag"), "--standard"]) == 2
    assert "needs --k" in capsys.readouterr().err
    assert main(["synth", str(spec_aag), "--print-realizability-only"]) == 0
    model = tmp_path / "model.aag"
    assert main(["synth", str(spec_aag), "-o", str(model)]) == 0
    assert model.is_file()
    assert main(["mc", str(model), "--existential"]) == 1
    assert "FAIR TRACE FOUND" in capsys.readouterr().out
    assert main(["mc", str(model)]) == 0
    assert "SAFETY: holds; JUSTICE: holds" in capsys.readouterr().out


def test_spec2aag_standard_with_k(tmp_path):
    out = tmp_path / "std.aag"
    code = main(["spec2aag", str(BENCH / "huffman4.smv"), "-o", str(out),
                 "--standard", "--k", "3"])
    assert code == 0
    header = out.read_text().splitlines()[0].split()
    assert len(header) == 6  # old format
    assert int(header[4]) == 1  # single output


def test_synth_unrealizable_exits_one(tmp_path, capsys):
    doc = doc_with(bad=lambda aig, u, c, l: 1)
    path = tmp_path / "bad.aag"
    path.write_text(write_aiger(doc))
    code = main(["synth", str(path), "-o", str(tmp_path / "model.aag")])
    assert code == 1
    assert "UNREALIZABLE" in capsys.readouterr().out


@pytest.mark.parametrize("exc", [
    MemoryError(), RecursionError("maximum recursion depth exceeded")],
    ids=["MemoryError", "RecursionError"])
def test_exhaustion_in_the_solve_is_one_error_line(
        exc, tmp_path, spec_aag, capsys, monkeypatch):
    def exhausted(doc):
        raise exc
    monkeypatch.setattr("aigsynt.cli.synthesize", exhausted)
    assert main(["synth", str(spec_aag), "-o", str(tmp_path / "m.aag")]) == 2
    detail = str(exc) or "out of memory"
    assert capsys.readouterr().err == \
        f"error: {type(exc).__name__}: {detail}\n"


def test_full_pipeline(tmp_path, spec_aag, capsys):
    model = tmp_path / "model.aag"
    assert main(["synth", str(spec_aag), "-o", str(model)]) == 0
    assert "REALIZABLE" in capsys.readouterr().out

    assert main(["mc", str(model)]) == 0
    assert "SAFETY: holds; JUSTICE: holds" in capsys.readouterr().out

    hwmcc = tmp_path / "hwmcc.aag"
    assert main(["synt2hwmcc", str(model), "-o", str(hwmcc)]) == 0
    capsys.readouterr()
    assert main(["mc", str(hwmcc), "--existential"]) == 0
    assert "NO FAIR TRACE" in capsys.readouterr().out


def test_just2safe_then_synth(tmp_path, spec_aag, capsys):
    k3 = tmp_path / "k3.aag"
    assert main(["just2safe", str(spec_aag), "-o", str(k3), "--k", "3"]) == 0
    assert main(["synth", str(k3), "--print-realizability-only"]) == 0
    capsys.readouterr()
    k2 = tmp_path / "k2.aag"
    assert main(["just2safe", str(spec_aag), "-o", str(k2), "--k", "2"]) == 0
    assert main(["synth", str(k2), "--print-realizability-only"]) == 1


def test_mc_violated_model_exits_one(tmp_path, capsys):
    # closed model whose single bad literal is immediately true
    doc = AigerDoc(fmt="new")
    l = doc.add_latch("l")
    doc.set_latch_next(l, l)
    doc.bad.append((l ^ 1, None))
    path = tmp_path / "violated.aag"
    path.write_text(write_aiger(doc))
    code = main(["mc", str(path)])
    assert code == 1
    captured = capsys.readouterr()
    assert "VIOLATED (safety)" in captured.out
    assert "# inputs:" in captured.err


def test_usage_error_exits_two(tmp_path, capsys):
    assert main(["spec2aag"]) == 2


def test_missing_file_exits_two(tmp_path, capsys):
    assert main(["synth", str(tmp_path / "nope.aag")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("text", TWICE_DEFINED.values(), ids=TWICE_DEFINED)
@pytest.mark.parametrize("command", ["synth", "mc", "mc --existential"])
def test_variable_defined_twice_is_an_input_error(tmp_path, capsys, text, command):
    path = tmp_path / "twice.aag"
    path.write_text(text)
    assert main(command.split() + [str(path)]) == 2
    assert "defined more than once" in capsys.readouterr().err


# every command that reads an AIGER file; ``out.aag`` is a written file
AIGER_COMMANDS = [
    "synth", "synth -o out.aag", "synth --print-realizability-only", "mc",
    "mc --existential", "synt2hwmcc -o out.aag", "just2safe --k 1 -o out.aag"]


def aiger_argv(command, path, out_dir):
    argv = [str(out_dir / a) if a == "out.aag" else a for a in command.split()]
    return argv[:1] + [str(path)] + argv[1:]


@pytest.mark.parametrize("command", AIGER_COMMANDS)
def test_negative_justice_size_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "negative.aag"
    path.write_text(NEGATIVE_JUSTICE_SIZE)
    assert main(aiger_argv(command, path, tmp_path)) == 2
    assert capsys.readouterr().err == "error: justice group 0: malformed size\n"
    assert not (tmp_path / "out.aag").exists()


# numbers that int() reads but AIGER does not: a sign, an underscore
# and a non-ASCII digit in a literal, and an underscore in a count;
# and ASCII digits too many for int() to read
NOT_NUMBERS = {"plus": "aag 1 1 0 0 0\n+2\n", "underscore": "aag 1 1 0 0 0\n0_2\n",
               "arabic_indic": "aag 1 1 0 0 0\n\u0662\n",
               "header": "aag 1_0 1 0 0 0\n2\n",
               "5000_digits": "aag 1 1 0 0 0\n" + "2" * 5000 + "\n"}


@pytest.mark.parametrize("text", NOT_NUMBERS.values(), ids=NOT_NUMBERS)
@pytest.mark.parametrize("command", AIGER_COMMANDS)
def test_a_number_is_ascii_digits(tmp_path, capsys, command, text):
    path = tmp_path / "game.aag"
    path.write_text(text, encoding="utf-8")
    assert main(aiger_argv(command, path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "not a literal" in err or "invalid literal" in err
    assert not (tmp_path / "out.aag").exists()


# the start of a binary AIGER file, SYNTCOMP's default format
BINARY_AIGER = b"aig 200 1 0 1 199\n400\n\x82\x01\x05\x03"


@pytest.mark.parametrize("command", AIGER_COMMANDS)
def test_binary_aiger_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "game.aig"
    path.write_bytes(BINARY_AIGER)
    assert main(aiger_argv(command, path, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "'utf-8' codec can't decode byte 0x82" in err
    assert str(path) in err
    assert not (tmp_path / "out.aag").exists()


def test_synt2hwmcc_keeps_line_breaks_inside_names_and_comments(tmp_path,
                                                              capsys):
    """Only ``\\n`` ends a line: ``synt2hwmcc`` writes a justice-free
    document whose symbol name and comments hold a lone ``\\r`` and the
    other breaks of ``str.splitlines`` byte for byte as it read them."""
    source = tmp_path / "names.aag"
    text = names_and_comments_text("\r" + LINE_BREAKS)
    source.write_bytes(text.encode("utf-8"))
    out = tmp_path / "out.aag"
    assert main(["synt2hwmcc", str(source), "-o", str(out)]) == 0
    assert capsys.readouterr().out.endswith("model unchanged\n")
    assert out.read_bytes() == text.encode("utf-8")


def test_crlf_aiger_files_go_through_main(tmp_path, capsys):
    """An AIGER input with CRLF line ends reads as with LF: written back
    with LF, and a game solved and its model checked as from LF."""
    source = tmp_path / "crlf.aag"
    text = names_and_comments_text(LINE_BREAKS)
    source.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    out = tmp_path / "out.aag"
    assert main(["synt2hwmcc", str(source), "-o", str(out)]) == 0
    assert out.read_bytes() == text.encode("utf-8")
    game = tmp_path / "game.aag"
    assert main(["spec2aag", str(BENCH / "huffman4.smv"), "-o", str(game)]) == 0
    crlf_game = tmp_path / "crlf_game.aag"
    crlf_game.write_bytes(game.read_bytes().replace(b"\n", b"\r\n"))
    models = [tmp_path / "model.aag", tmp_path / "crlf_model.aag"]
    for source, model in zip((game, crlf_game), models):
        assert main(["synth", str(source), "-o", str(model)]) == 0
        assert main(["mc", str(model)]) == 0
    capsys.readouterr()
    assert models[0].read_bytes() == models[1].read_bytes()


def case_table(n_rows: int) -> str:
    """Rows ``u = k : v;`` of a ``case``, ``v`` being ``k % 3 = 0``."""
    return "".join(f"    u = {k} : {'TRUE' if k % 3 == 0 else 'FALSE'};\n"
                   for k in range(n_rows))


def test_a_deep_case_goes_through_the_pipeline(tmp_path, capsys):
    """A 2000-branch ``case`` nests its branches 2000 deep; it compiles
    without recursing, and the game and the flattened model
    (``FlatSim``, whose ``boolexpr.evaluate`` walks 2000 rows down at
    ``u`` = 1999) step as its table says: ``x`` takes the value of row
    ``u``, and keeps its own past the last row."""
    spec = tmp_path / "deep.smv"
    spec.write_text(f"MODULE main\nVAR\n  u : 0..1999;\nVAR\n  x : boolean;\n"
                    f"ASSIGN\n  init(x) := FALSE;\n  next(x) := case\n"
                    f"{case_table(1999)}    TRUE : x;\n  esac;\n")
    game, model = tmp_path / "game.aag", tmp_path / "model.aag"
    assert main(["spec2aag", str(spec), "-o", str(game)]) == 0
    assert main(["synth", str(game), "-o", str(model)]) == 0
    assert main(["mc", str(model)]) == 0
    capsys.readouterr()
    sim = Simulator(read_aiger(game.read_text()))
    flat = FlatSim(flatten(resolve(parse_smv(spec.read_text()))))
    x, flat_latches = False, flat.initial()
    for u in (0, 1999, 1, 1999, 3, 4, 5, 6, 998, 999, 1000, 1997, 1998, 1999):
        bits = {f"u.__bit{i}": bool(u >> i & 1) for i in range(11)}
        sim.step(bits)
        flat_latches = flat.step(flat_latches, bits)
        x = u % 3 == 0 if u < 1999 else x
        assert sim.latch_values == [x] and flat_latches == {"x": x}, u


def test_a_deep_define_read_by_init_is_not_a_constant(tmp_path, capsys):
    """A 1500-branch define reaches the constant check of ``init()``."""
    spec = tmp_path / "deep.smv"
    spec.write_text(f"MODULE main\nVAR\n  u : 0..1499;\nVAR\n  x : boolean;\n"
                    f"DEFINE\n  d := case\n{case_table(1499)}    TRUE : FALSE;\n"
                    f"  esac;\n"
                    f"ASSIGN\n  init(x) := d;\n  next(x) := x;\n")
    assert main(["spec2aag", str(spec), "-o", str(tmp_path / "game.aag")]) == 2
    assert capsys.readouterr().err == \
        "error: init(x) is not a constant expression (line 1510)\n"


def test_automaton_error_names_its_file_and_spec_line(tmp_path, capsys):
    (tmp_path / "spec.smv").write_text(
        "MODULE main\nVAR\n  p: boolean;\n\n"
        "VAR --controllable\n  q: boolean;\n\n"
        "SYS_AUTOMATON_SPEC\n  first.gff;\n  second.gff;\n")
    (tmp_path / "first.gff").write_text(gff(
        ["ok"], "ok", [("ok", "True", "ok")], ["ok"], props=["p", "q"]))
    # both of calm's moves are enabled where p and q hold
    (tmp_path / "second.gff").write_text(gff(
        ["calm"], "calm", [("calm", "p", "calm"), ("calm", "q", "calm"),
                           ("calm", "~p ~q", "calm")], ["calm"],
        props=["p", "q"]))
    out = tmp_path / "spec.aag"
    assert main(["spec2aag", str(tmp_path / "spec.smv"), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: second.gff (spec line 10): nondeterministic: state 'calm' "
        "enables both ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("corrupt", ["spec.smv", "guarantee.gff"])
def test_spec2aag_non_utf8_input_is_an_input_error(tmp_path, capsys, corrupt):
    (tmp_path / "spec.smv").write_text(
        "-- cafe\nMODULE main\nVAR\n  p: boolean;\n\n"
        "VAR --controllable\n  q: boolean;\n\n"
        "SYS_AUTOMATON_SPEC\n  guarantee.gff;\n")
    (tmp_path / "guarantee.gff").write_text(gff(
        ["ok"], "ok", [("ok", "~p", "ok"), ("ok", "p q", "ok")], ["ok"],
        props=["p", "q"]) + "\n<!-- cafe -->\n")
    out = tmp_path / "spec.aag"
    assert main(["spec2aag", str(tmp_path / "spec.smv"), "-o", str(out)]) == 0
    out.unlink()
    capsys.readouterr()
    # the comment's e becomes a Latin-1 e-acute
    path = tmp_path / corrupt
    path.write_bytes(path.read_bytes().replace(b"cafe", b"caf\xe9"))
    assert main(["spec2aag", str(tmp_path / "spec.smv"), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "'utf-8' codec can't decode byte 0xe9" in captured.err
    assert str(path) in captured.err
    assert not out.exists()


# a range bound that int() cannot read: a digit that is not decimal, and
# more digits than sys.get_int_max_str_digits() allows
@pytest.mark.parametrize("bound, message", [
    ("\u00b2", "unexpected character '\u00b2'"),
    ("9" * 5000, "number of 5000 digits is too long"),
], ids=["superscript-two", "5000-digits"])
def test_spec2aag_unreadable_number_is_an_input_error(tmp_path, capsys, bound,
                                                      message):
    spec = tmp_path / "spec.smv"
    spec.write_text(f"MODULE main\nVAR\n  x : 0..{bound};\n", encoding="utf-8")
    out = tmp_path / "spec.aag"
    assert main(["spec2aag", str(spec), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message} (line 3, col 10)\n"
    assert not out.exists()


def gff_xml(states='<state sid="s"/>',
            transitions="<transition><from>s</from><to>s</to>"
                        "<label>True</label></transition>",
            acc='<acc type="buchi"><stateID>s</stateID></acc>'):
    """A one-state GFF automaton with one of its elements replaced."""
    return ('<structure label-on="transition" type="fa">'
            '<alphabet type="propositional"/>'
            f"<stateSet>{states}</stateSet><initialStateSet><stateID>s"
            f"</stateID></initialStateSet><transitionSet>{transitions}"
            f"</transitionSet>{acc}</structure>")


SPEC_HEAD = "MODULE main\nVAR x: boolean; r: 0..3;\n"
# id: (specification, its one guarantee automaton or None, error message);
# an automaton is listed on line 4 of its specification
SPEC_ERRORS = {
    # resolution
    "duplicate_parameter": (
        "MODULE m(p, p)\nVAR y: boolean;\nMODULE main\nVAR i: m(TRUE, FALSE);\n",
        None, "module 'm': duplicate parameter 'p' (line 1)"),
    "variable_and_define": (
        "MODULE main\nVAR x: boolean;\nDEFINE x := TRUE;\n",
        None, "module 'main': name 'x' declared twice (line 3)"),
    "next_of_a_define": (
        "MODULE main\nVAR x: boolean;\nDEFINE d := x;\nASSIGN next(d) := x;\n",
        None, "module 'main': next(d) does not assign a variable (line 4)"),
    "assign_to_instance": (
        "MODULE m\nVAR y: boolean;\nMODULE main\nVAR i: m;\n"
        "ASSIGN next(i) := TRUE;\n",
        None, "module 'main': cannot assign to instance 'i' (line 5)"),
    "member_of_parameter": (
        "MODULE m(p)\nDEFINE d := p.x;\nMODULE main\nVAR a: boolean; i: m(a);\n",
        None, "i: cannot access a member of parameter 'p' (line 2)"),
    "instance_as_value": (
        "MODULE m\nVAR y: boolean;\nMODULE main\nVAR i: m; x: boolean;\n"
        "ASSIGN next(x) := i;\n",
        None, "main: instance 'i' used as a value (line 5)"),
    "member_of_variable": (SPEC_HEAD + "ASSIGN next(x) := x.y;\n",
                           None, "main: 'x' is not an instance (line 3)"),
    "member_of_define": (
        SPEC_HEAD + "DEFINE d := x;\nASSIGN next(x) := d.y;\n",
        None, "main: 'd' is not an instance (line 4)"),
    "unbound_dotted_name": (SPEC_HEAD + "ASSIGN next(x) := w.y;\n",
                            None, "main: unbound identifier 'w.y' (line 3)"),
    "not_of_a_word": (
        SPEC_HEAD + "ASSIGN next(x) := !r;\n",
        None, "main: operand of '!' has type 0..3, expected boolean (line 3)"),
    "and_of_a_word": (
        SPEC_HEAD + "ASSIGN next(x) := x & r;\n", None,
        "main: right operand of '&' has type 0..3, expected boolean (line 3)"),
    "case_condition_of_a_word": (
        SPEC_HEAD + "ASSIGN next(x) := case r : TRUE; TRUE : FALSE; esac;\n",
        None, "main: case condition has type 0..3, expected boolean (line 3)"),
    "main_with_parameters": (
        "MODULE main(p)\nVAR x: boolean;\n",
        None, "module 'main' must not take parameters (line 1)"),
    # parsing
    "duplicate_enum_symbol": ("MODULE main\nVAR e: {A, B, A};\n",
                              None, "duplicate enum symbol (line 2, col 8)"),
    "range_minus_without_number": (
        "MODULE main\nVAR r: -x..3;\n",
        None, "expected a number after '-' (line 2, col 9)"),
    "range_bound_not_a_number": (
        "MODULE main\nVAR r: 0..x;\n",
        None, "expected a number, found 'x' (line 2, col 11)"),
    "assign_neither_init_nor_next": (
        SPEC_HEAD + "ASSIGN last(x) := TRUE;\n", None,
        "expected init(...) or next(...), found 'last' (line 3, col 8)"),
    "star_as_an_atom": (
        SPEC_HEAD + "ASSIGN next(x) := * x;\n",
        None, "arithmetic operator '*' is not supported (line 3, col 19)"),
    "empty_case": (SPEC_HEAD + "ASSIGN next(x) := case esac;\n",
                   None, "empty case expression (line 3, col 19)"),
    # automata
    "label_mixes_true": (
        SPEC_HEAD, gff(["s"], "s", [("s", "True x", "s")], ["s"]),
        "aut.gff (spec line 4): cannot mix True with literals: 'True x'"),
    "unparsable_label_literal": (
        SPEC_HEAD, gff(["s"], "s", [("s", "x-y", "s")], ["s"]),
        "aut.gff (spec line 4): unparsable label literal 'x-y'"),
    "duplicate_state_ids": (
        SPEC_HEAD, gff(["s", "s"], "s", [("s", "True", "s")], ["s"]),
        "aut.gff (spec line 4): duplicate state ids"),
    "undeclared_initial_state": (
        SPEC_HEAD, gff(["s"], "t", [("s", "True", "s")], ["s"]),
        "aut.gff (spec line 4): initial state 't' undeclared"),
    "transition_to_unknown_state": (
        SPEC_HEAD, gff(["s"], "s", [("s", "True", "t")], ["s"]),
        "aut.gff (spec line 4): transition 's'->'t' uses unknown state"),
    "state_without_sid": (
        SPEC_HEAD, gff_xml(states='<state sid="s"/><state/>'),
        "aut.gff (spec line 4): <state> without sid attribute"),
    "transition_without_to": (
        SPEC_HEAD, gff_xml(transitions="<transition><from>s</from>"
                           "<label>True</label></transition>"),
        "aut.gff (spec line 4): <transition> without <from>/<to>"),
    "no_acc": (SPEC_HEAD, gff_xml(acc=""),
               "aut.gff (spec line 4): missing <acc> element"),
}


@pytest.mark.parametrize("line_end", ["\n", "\r"], ids=["lf", "cr"])
@pytest.mark.parametrize("spec, automaton, message", SPEC_ERRORS.values(),
                         ids=SPEC_ERRORS)
def test_spec2aag_error_messages(tmp_path, capsys, spec, automaton, message,
                                 line_end):
    """Each fault of a specification or of its automaton exits 2 with
    one ``error:`` line, and writes nothing.  Specification and automaton
    files, unlike AIGER inputs, read a lone ``\\r`` as a line end, so the
    line numbers are the same with either line end."""
    if automaton is not None:
        spec += "SYS_AUTOMATON_SPEC\n  aut.gff;\n"
        (tmp_path / "aut.gff").write_bytes(
            automaton.replace("\n", line_end).encode())
    (tmp_path / "spec.smv").write_bytes(spec.replace("\n", line_end).encode())
    out = tmp_path / "spec.aag"
    assert main(["spec2aag", str(tmp_path / "spec.smv"), "-o", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out.exists()


def test_spec2aag_keyword_folding_only_ascii(tmp_path, capsys):
    # "aſſıgn" upper-cases to "ASSIGN" (ſ to S, ı to I), but only ASCII
    # case folds, so the VAR section reads it as a variable's name
    spec = tmp_path / "spec.smv"
    spec.write_text("MODULE main vAr x: boolean; a\u017f\u017f\u0131gn "
                    "next(x) := !x;\n", encoding="utf-8")
    out = tmp_path / "spec.aag"
    assert main(["spec2aag", str(spec), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == \
        "error: expected ':', found 'NEXT' (line 1, col 36)\n"
    assert not out.exists()


# an ASCII locale with neither UTF-8 mode nor locale coercion
ASCII_LOCALE = {"LC_ALL": "POSIX", "PYTHONUTF8": "0",
                "PYTHONCOERCECLOCALE": "0"}


def run_in_ascii_locale(*argv):
    src = str(Path(aigsynt.__file__).resolve().parent.parent)
    env = {**os.environ, **ASCII_LOCALE, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-m", "aigsynt.cli", *argv],
                          env=env, capture_output=True)


def test_files_are_written_as_utf8_whatever_the_locale(tmp_path):
    spec = tmp_path / "spec.smv"
    spec.write_text("MODULE main\nVAR\n  \u00e9t\u00e9: boolean;\n"
                    "ASSIGN\n  init(\u00e9t\u00e9) := FALSE;\n"
                    "  next(\u00e9t\u00e9) := !\u00e9t\u00e9;\n",
                    encoding="utf-8")
    game = tmp_path / "game.aag"
    doc = AigerDoc()
    c = doc.add_input("controllable_\u65e5")
    doc.add_latch("l", next_lit=c)
    doc.bad = [(doc.latches[0][0], "bad")]
    game.write_text(write_aiger(doc), encoding="utf-8")
    for argv, out, name in (
            (["spec2aag", spec], tmp_path / "spec.aag", "\u00e9t\u00e9"),
            # the model outputs the controllable input under its bare name
            (["synth", game], tmp_path / "model.aag", "\u65e5")):
        proc = run_in_ascii_locale(*argv, "-o", out)
        assert proc.returncode == 0, proc.stderr
        written = read_aiger(out.read_text(encoding="utf-8"))
        names = [n for _, n in written.inputs + written.outputs]
        names += [n for _, _, n in written.latches]
        assert name in names


def test_spec2aag_nul_in_automaton_path_is_an_input_error(tmp_path, capsys):
    (tmp_path / "spec.smv").write_bytes(
        b"MODULE main\nVAR\n  p: boolean;\n\nVAR --controllable\n"
        b"  q: boolean;\n\nSYS_AUTOMATON_SPEC\n  guar\x00antee.gff;\n")
    out = tmp_path / "spec.aag"
    assert main(["spec2aag", str(tmp_path / "spec.smv"), "-o", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    automaton = str(tmp_path / "guar\x00antee.gff")
    assert captured.err == \
        f"error: cannot read {automaton!r}: embedded null byte\n"
    assert not out.exists()


def test_resource_exhaustion_is_never_a_verdict(tmp_path, capsys):
    # 1100 self-looping latches with bad = their conjunction: realizable,
    # but deep enough to exhaust the recursive BDD construction
    doc = AigerDoc(fmt="old")
    lits = [doc.add_latch(f"l{i}") for i in range(1100)]
    doc.latches = [(lit, lit, name) for lit, _, name in doc.latches]
    doc.outputs = [(doc.aig.and_many(lits), "bad")]
    game = tmp_path / "deep.aag"
    game.write_text(write_aiger(doc))
    code = main(["synth", str(game), "-o", str(tmp_path / "model.aag")])
    assert code in (0, 2)
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if code == 2:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_outputs_idempotent(tmp_path):
    a = tmp_path / "a.aag"
    b = tmp_path / "b.aag"
    for target in (a, b):
        assert main(["spec2aag", str(BENCH / "huffman4.smv"),
                     "-o", str(target), "--extended"]) == 0
    assert a.read_bytes() == b.read_bytes()
    ma = tmp_path / "ma.aag"
    mb = tmp_path / "mb.aag"
    for src, target in ((a, ma), (b, mb)):
        assert main(["synth", str(src), "-o", str(target)]) == 0
    assert ma.read_bytes() == mb.read_bytes()


def test_spec2aag_on_module_hierarchy_spec(tmp_path):
    """A spec shaped like the format's reference example (helper module,
    controllable var, two guarantees and two assumptions with one
    negation each) compiles to an extended file with B, C and J
    sections."""
    from test_smv_parser import LISTING_STYLE
    (tmp_path / "spec.smv").write_text(LISTING_STYLE)
    # guarantee 1: done recurs (deterministic liveness automaton)
    (tmp_path / "guarantee1.gff").write_text(gff(
        ["0", "1"], "0",
        [("0", "~done", "0"), ("0", "done", "1"),
         ("1", "done", "1"), ("1", "~done", "0")], ["1"]))
    # guarantee 2, negated: complement of "writtenA eventually holds"
    (tmp_path / "guarantee2.gff").write_text(gff(
        ["w", "f"], "w",
        [("w", "~writtenA", "w"), ("w", "writtenA", "f"),
         ("f", "True", "f")], ["f"]))
    # assumption 1: CPUread and CPUwrite never together
    (tmp_path / "assumption1.gff").write_text(gff(
        ["ok"], "ok",
        [("ok", "~CPUread", "ok"), ("ok", "CPUread ~CPUwrite", "ok")], ["ok"]))
    # assumption 2, negated: complement of "valueIn eventually holds",
    # which is the safety property "valueIn never holds"
    (tmp_path / "assumption2.gff").write_text(gff(
        ["w", "f"], "w",
        [("w", "~valueIn", "w"), ("w", "valueIn", "f"),
         ("f", "True", "f")], ["f"]))

    out = tmp_path / "spec.aag"
    assert main(["spec2aag", str(tmp_path / "spec.smv"), "-o", str(out),
                 "--extended"]) == 0
    header = out.read_text().splitlines()[0].split()
    b, c, j = int(header[6]), int(header[7]), int(header[8])
    assert b == 2 and c == 2 and j == 1
    doc = read_aiger(out.read_text())
    assert [n for _, n in doc.controllable_inputs()] == [
        "controllable_valueOut"]


def test_automaton_paths_resolve_relative_to_spec(tmp_path):
    # copy the spec into a nested directory along with its automata
    nested = tmp_path / "specs" / "inner"
    nested.mkdir(parents=True)
    for f in BENCH.iterdir():
        (nested / f.name).write_text(f.read_text())
    out = tmp_path / "out.aag"
    assert main(["spec2aag", str(nested / "huffman4.smv"),
                 "-o", str(out), "--extended"]) == 0


def test_spec2aag_accepts_guarantee_with_unreachable_incomplete_state(
        tmp_path, capsys):
    """The guarantee's unreachable state s2 loops on p alone; its move on
    ~p into the completion trap keeps the trap, so the spec compiles."""
    (tmp_path / "spec.smv").write_text(
        "MODULE main\nVAR\n  p: boolean;\n\nVAR --controllable\n"
        "  q: boolean;\n\nSYS_AUTOMATON_SPEC\n  guarantee.gff;\n")
    (tmp_path / "guarantee.gff").write_text(gff(
        ["s0", "s2"], "s0", [("s0", "True", "s0"), ("s2", "p", "s2")],
        ["s0"], props=["p"]))
    out = tmp_path / "spec.aag"
    assert main(["spec2aag", str(tmp_path / "spec.smv"), "-o", str(out),
                 "--extended"]) == 0
    assert capsys.readouterr().err == ""
    assert main(["synth", str(out), "-o", str(tmp_path / "model.aag")]) == 0


def test_cli_import_leaves_numpy_out():
    """Only the explicit-state oracle needs numpy, and no command runs it."""
    src = str(Path(aigsynt.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    probe = "import sys, aigsynt.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"


# deep gate chains ----------------------------------------------------------


CHAIN_GATES = 3000


def chain_doc(fmt):
    """A chain of 3 000 gates over one input and one latch, each gate
    reading the one before; the top gate is ``l & !u``, and next(l) = u."""
    doc = AigerDoc(fmt=fmt)
    u = doc.add_input("u")
    l = doc.add_latch("l")
    doc.set_latch_next(l, u)
    gate = doc.aig.and_(u, l ^ 1)
    for k in range(CHAIN_GATES - 2):
        gate = doc.aig.and_(gate ^ 1, (l if k % 2 else u) ^ (k % 3 == 0))
    top = doc.aig.and_(gate ^ 1, u ^ 1)  # gate is !u & !l here
    assert doc.aig.num_ands == CHAIN_GATES
    return doc, top


def parse_trace(rendered):
    """The steps of a trace as ``Trace.render`` writes it."""
    steps = []
    for line in rendered.splitlines():
        if not line.startswith("#"):
            inputs, latches = line.split(" ")
            steps.append((tuple(c == "1" for c in inputs),
                          tuple(c == "1" for c in latches)))
    return SimpleNamespace(steps=steps)


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_deep_gate_chain_safety(tmp_path, capsys):
    doc, top = chain_doc("old")
    doc.outputs = [(top, "bad")]
    assert_encoding_simulates(doc, [], all_states(doc))
    path = tmp_path / "chain.aag"
    path.write_text(write_aiger(doc))
    # no controllable input, so the game is won iff the safety check holds
    assert not solve_explicit(doc).realizable
    code, out, err = run(["mc", str(path)], capsys)
    assert (code, out) == (1, "VIOLATED (safety)\n")
    values, _ = replay(doc, parse_trace(err))
    assert values_lit(values[-1], top)
    assert run(["mc", str(path), "--existential"], capsys)[:2] == \
        (0, "NO FAIR TRACE\n")
    assert run(["synth", str(path), "--print-realizability-only"],
               capsys)[:2] == (1, "UNREALIZABLE\n")


def test_deep_gate_chain_justice(tmp_path, capsys):
    doc, top = chain_doc("new")
    doc.justice = [([top], None)]
    # an output inside the chain, which the model checker cuts
    doc.outputs = [(2 * (CHAIN_GATES // 2 + 2), "mid")]
    cuts = _cut_vars(doc)
    assert cuts == [CHAIN_GATES // 2 + 2]
    assert_encoding_simulates(doc, cuts, all_states(doc))
    path = tmp_path / "chain.aag"
    path.write_text(write_aiger(doc))
    assert enumerate_lasso_fg_not_just(doc)
    assert run(["mc", str(path)], capsys)[:2] == (1, "VIOLATED (justice)\n")
    assert enumerate_fair_lasso(doc)
    assert run(["mc", str(path), "--existential"], capsys)[:2] == \
        (1, "FAIR TRACE FOUND\n")
    assert not solve_explicit(delay_justice(doc)).realizable
    assert run(["synth", str(path), "--print-realizability-only"],
               capsys)[:2] == (1, "UNREALIZABLE\n")


# the exit-code contract ----------------------------------------------------


GOLDEN_AIGER = [path.read_bytes() for path in sorted(
    (Path(__file__).resolve().parent / "data" / "golden").glob("*.aag"))]
# AIGER's own characters, NUL, a stray UTF-8 continuation byte (0x80)
# and 0xFF, which UTF-8 never uses
MUTATION_BYTES = b"0123456789 \n-acgijlo\x00\x80\xff"


def draw_edits(draw, data, alphabet):
    """``data`` after 1-4 byte edits, each a replace, insert or delete."""
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 4))):
        pos = draw(st.integers(0, len(data) - 1))
        byte = draw(st.sampled_from(alphabet))
        op = draw(st.sampled_from(["replace", "insert", "delete"]))
        if op == "replace":
            data[pos] = byte
        elif op == "insert":
            data.insert(pos, byte)
        else:
            del data[pos]
    return bytes(data)


@st.composite
def mutated_aiger(draw):
    return draw_edits(draw, draw(st.sampled_from(GOLDEN_AIGER)), MUTATION_BYTES)


@given(mutated_aiger())
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_exit_code_contract_on_mutated_aiger(tmp_path, data):
    """Every AIGER command exits 0, 1 or 2, and an error is one line."""
    path = tmp_path / "game.aag"
    path.write_bytes(data)
    for command in AIGER_COMMANDS:
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(aiger_argv(command, path, tmp_path))
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1


# the bundled specifications, each a {file name: bytes} map of the .smv
# file and its automata
BUNDLED_SPECS = [{path.name: path.read_bytes() for path in sorted(d.iterdir())}
                 for d in (BENCH, BENCH.parent / "arbiter")]
# SMV and GFF characters, letters, NUL, 0x80 and 0xFF
SPEC_MUTATION_BYTES = b"0123456789 \n;:=()!&|-.~<>_" + \
    string.ascii_letters.encode() + b"\x00\x80\xff"


@st.composite
def mutated_spec(draw):
    files = dict(draw(st.sampled_from(BUNDLED_SPECS)))
    name = draw(st.sampled_from(sorted(files)))
    files[name] = draw_edits(draw, files[name], SPEC_MUTATION_BYTES)
    return files


def bundled_with(name, old, new):
    """The bundled spec holding file ``name``, with the last ``old`` in
    that file replaced by ``new``."""
    files = dict(next(spec for spec in BUNDLED_SPECS if name in spec))
    head, _, tail = files[name].rpartition(old)
    files[name] = head + new + tail
    return files


# one-byte edits that each broke the contract once: an undeclared
# accepting state, a NUL in an automaton path, a newline in a state id
@given(mutated_spec())
@example(files=bundled_with("guar_requests_granted.gff",
                            b"<stateID>calm", b"<stateID>cal(m"))
@example(files=bundled_with("arbiter.smv", b"guar_requests",
                            b"guar_re\x00quests"))
@example(files=bundled_with("guar_requests_granted.gff",
                            b"<from>pending", b"<from>p\nending"))
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_exit_code_contract_on_mutated_spec(tmp_path, files):
    """spec2aag exits 0 or 2; an error is the last line of stderr, the
    only error line, after at most the GFF reader's warnings, and
    nothing is written."""
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    spec = next(name for name in files if name.endswith(".smv"))
    out = tmp_path / "game.aag"
    out.unlink(missing_ok=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(["spec2aag", str(tmp_path / spec), "-o", str(out)])
    assert code in (0, 2)
    lines = err.getvalue().splitlines()
    warnings = lines[:-1] if code == 2 else lines
    assert all(line.startswith("ignoring unknown GFF element")
               for line in warnings), lines
    if code == 2:
        assert lines[-1].startswith("error: ") and err.getvalue().endswith("\n")
        assert not out.exists()
