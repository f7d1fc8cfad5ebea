"""End-to-end behavior of the bundled benchmark specifications."""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from aigsynt.aiger import Simulator, values_lit
from aigsynt.automata import AutomatonError, parse_gff, validate_for_role
from aigsynt.cli import build_spec_doc
from aigsynt.game import synthesize
from aigsynt.mc import (
    CheckResult, FairResult, check_justice_universal, check_safety,
    solve_explicit,
)

ROOT = Path(__file__).resolve().parent.parent / "benchmarks"


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


def _load_ladder_script():
    path = ROOT.parent / "scripts" / "stress_huffman27.py"
    spec = importlib.util.spec_from_file_location("stress_huffman27", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("wrong, expected", [
    (None, 0),
    ("check_safety", 1),
    ("check_justice_universal", 1),
    ("find_fair_trace", 1),
])
def test_ladder_script_exit_status_follows_the_verdicts(
        wrong, expected, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    script = _load_ladder_script()
    if wrong == "find_fair_trace":
        monkeypatch.setattr(script, wrong, lambda doc: FairResult(found=True))
    elif wrong is not None:
        monkeypatch.setattr(script, wrong, lambda doc: CheckResult(holds=False))
    monkeypatch.setattr(sys, "argv", [
        "stress_huffman27.py", "--letters", "3", "--synth",
        "--out-dir", str(tmp_path)])
    assert script.main() == expected
