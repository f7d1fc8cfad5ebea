"""End-to-end behavior of the bundled benchmark specifications."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from aigsynt.aiger import AigerDoc, Simulator, values_lit, write_aiger
from aigsynt.automata import AutomatonError, parse_gff, validate_for_role
from aigsynt import cli
from aigsynt.cli import build_spec_doc
from aigsynt.game import GameError, synthesize
from aigsynt.mc import (
    CheckResult, FairResult, Trace, check_justice_universal, check_safety,
)
from aigsynt.oracle import solve_explicit

ROOT = Path(__file__).resolve().parent.parent / "benchmarks"


def files_under(directory):
    return {path.relative_to(directory): path.read_bytes()
            for path in sorted(directory.rglob("*")) if path.is_file()}


def test_perfbench_data_matches_bundled_specs():
    # the tests read benchmarks/ and the benchmark harness its own copy in
    # perfbench/data/; a drift would leave the benchmark's inputs untested
    assert files_under(ROOT) == files_under(ROOT.parent / "perfbench" / "data")


@pytest.fixture(scope="module")
def arbiter_model():
    doc = build_spec_doc(ROOT / "arbiter" / "arbiter.smv")
    ok, model, _ = synthesize(doc)
    assert ok
    return doc, model


def test_arbiter_structure(arbiter_model):
    doc, _ = arbiter_model
    assert len(doc.bad) == 2
    assert len(doc.justice) == 1
    assert [n for _, n in doc.controllable_inputs()] == ["controllable_grant"]


def test_arbiter_realizable_both_routes(arbiter_model):
    doc, _ = arbiter_model
    assert solve_explicit(doc).realizable


def test_arbiter_model_checks(arbiter_model):
    _, model = arbiter_model
    assert check_safety(model).holds
    assert check_justice_universal(model).holds


def test_arbiter_grants_every_request(arbiter_model):
    _, model = arbiter_model
    out = {n: lit for lit, n in model.outputs}
    rng = random.Random(5)
    for _ in range(20):
        sim = Simulator(model)
        pending = False
        starved = 0
        for _ in range(40):
            req = rng.random() < 0.4
            values = sim.step({"req": req})
            grant = values_lit(values, out["grant"])
            spurious_ok = (not grant) or req or pending
            assert spurious_ok, "grant without live or pending request"
            pending = (pending or req) and not grant
            starved = starved + 1 if pending else 0
            assert starved <= 2, "request left pending too long"


def test_request_grant_automaton_is_liveness_only():
    text = (ROOT / "arbiter" / "guar_requests_granted.gff").read_text()
    aut = parse_gff(text)
    validate_for_role(aut, "guarantee")
    with pytest.raises(AutomatonError, match="not a safety property"):
        validate_for_role(aut, "assumption")


def test_huffman_spec_parses_and_sizes():
    doc = build_spec_doc(ROOT / "huffman4" / "huffman4.smv")
    assert len(doc.latches) == 21
    assert len(doc.inputs) == 4


def _load_script(name):
    path = ROOT.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACE = Trace(input_names=[], latch_names=[], steps=[])


def _raising(exc):
    def fake(*args):
        raise exc
    return fake


def _ladder_script(tmp_path, monkeypatch, **fakes):
    """The ladder script's exit status at 3 letters with --synth, with
    the named ``aigsynt.cli`` functions replaced by fakes."""
    for name, fake in fakes.items():
        monkeypatch.setattr(cli, name, fake)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    script = _load_script("stress_huffman27")
    monkeypatch.setattr(sys, "argv", [
        "stress_huffman27.py", "--letters", "3", "--synth",
        "--out-dir", str(tmp_path)])
    return script.main()


WRONG = {  # a wrong verdict, or an error, from one ``aigsynt.cli`` name
    "check_safety": lambda model: CheckResult(holds=False, trace=TRACE),
    "check_justice_universal":
        lambda model: CheckResult(holds=False, trace=TRACE),
    "find_fair_trace": lambda doc: FairResult(found=True, trace=TRACE),
    "synthesize": _raising(GameError("cannot extract a strategy")),
}


@pytest.mark.parametrize("wrong, expected", [
    (None, 0),
    ("check_safety", 1),
    ("check_justice_universal", 1),
    ("find_fair_trace", 1),
    ("synthesize", 2),
])
def test_ladder_script_exit_status_follows_the_verdicts(
        wrong, expected, tmp_path, monkeypatch):
    fakes = {wrong: WRONG[wrong]} if wrong else {}
    assert _ladder_script(tmp_path, monkeypatch, **fakes) == expected


EXHAUSTION = pytest.mark.parametrize("exc", [
    MemoryError(), RecursionError("maximum recursion depth exceeded")],
    ids=["MemoryError", "RecursionError"])


def _assert_one_error_line(exc, err):
    detail = str(exc) or "out of memory"
    assert [line for line in err.splitlines() if line.startswith("error:")] \
        == [f"error: {type(exc).__name__}: {detail}"]
    assert "Traceback" not in err


@EXHAUSTION
def test_ladder_script_exhaustion_is_an_error(
        exc, tmp_path, monkeypatch, capsys):
    assert _ladder_script(tmp_path, monkeypatch,
                          synthesize=_raising(exc)) == 2
    _assert_one_error_line(exc, capsys.readouterr().err)


def _search_min_k(game, monkeypatch, *options, **fakes):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    script = _load_script("search_min_k")
    for name, fake in fakes.items():
        monkeypatch.setattr(script, name, fake)
    monkeypatch.setattr(sys, "argv", ["search_min_k.py", str(game), *options])
    return script.main()


def _huffman4_game(tmp_path):
    game = tmp_path / "huffman4.aag"
    game.write_text(write_aiger(build_spec_doc(ROOT / "huffman4" / "huffman4.smv")))
    return game


def test_min_k_script_finds_the_huffman_window(tmp_path, monkeypatch, capsys):
    assert _search_min_k(_huffman4_game(tmp_path), monkeypatch) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "minimal realizable window: 3"


@EXHAUSTION
def test_min_k_script_exhaustion_is_an_error(
        exc, tmp_path, monkeypatch, capsys):
    game = _huffman4_game(tmp_path)
    assert _search_min_k(game, monkeypatch, solve=_raising(exc)) == 2
    err = capsys.readouterr().err
    _assert_one_error_line(exc, err)
    assert err.count("\n") == 1


def test_min_k_script_rejects_a_negative_max_k(tmp_path, monkeypatch, capsys):
    # no window is checked, so there is no verdict to give
    game = _huffman4_game(tmp_path)
    with pytest.raises(SystemExit) as exit_info:
        _search_min_k(game, monkeypatch, "--max-k", "-1")
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: --max-k must be at least 0" in captured.err


@pytest.mark.parametrize("data", [
    b"aag 1 1 0 0 0 1 0 0 0\n2\n2\n",
    b"not an AIGER file\n",
    b"aag 0 0 0 0 0\nc\ncaf\xe9\n",
], ids=["no-justice", "not-aiger", "latin-1"])
def test_min_k_script_reports_bad_input_as_an_error(
        data, tmp_path, monkeypatch, capsys):
    game = tmp_path / "game.aag"
    game.write_bytes(data)
    assert _search_min_k(game, monkeypatch) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")


def test_min_k_script_resource_exhaustion_is_never_a_verdict(
        tmp_path, monkeypatch, capsys):
    # 1100 self-looping latches with bad = their conjunction: realizable,
    # but deep enough to exhaust the recursive BDD construction
    doc = AigerDoc()
    lits = [doc.add_latch(f"l{i}") for i in range(1100)]
    doc.latches = [(lit, lit, name) for lit, _, name in doc.latches]
    doc.bad = [(doc.aig.and_many(lits), "bad")]
    doc.justice = [([1], "always")]
    game = tmp_path / "deep.aag"
    game.write_text(write_aiger(doc))
    code = _search_min_k(game, monkeypatch)
    assert code in (0, 2)  # 1 is the verdict "unrealizable for every k"
    if code == 2:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
