"""Tests of the benchmark itself: determinism, metric names, checks.

    python3 -m pytest -q perfbench/test_perfbench.py

Each workload runs twice in its ``tiny`` form, traced, in fresh worker
processes; verdicts, model sizes and every count-type layer metric must
repeat exactly.
"""

from __future__ import annotations

import contextlib
import json
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402
from aigsynt.aiger import read_aiger  # noqa: E402
from tracing import COUNTS, Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
TRACE_METRICS = Tracer.metric_names() + ["trace.total_s", "trace.overhead_s"]


def run_worker(tmp: Path, workload: str, tag: str) -> dict:
    cfg = {"workload": workload, "seed": 7, "mode": "measure", "trace": True,
           "rounds": 1, "seconds": 0, "budget": 150, "tiny": True,
           "work": str(tmp / tag), "spans": str(tmp / f"spans-{tag}.json")}
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    assert (tmp / f"spans-{tag}.json").is_file()
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_tiny_runs_repeat(tmp_path, workload):
    first, second = (run_worker(tmp_path, workload, tag) for tag in "ab")
    for result in (first, second):
        (only_round,) = result["rounds"]
        assert only_round["failures"] == []
        assert set(only_round["times"]) == set(workloads.KINDS)
        assert all(only_round["times"][kind] > 0 for kind in workloads.KINDS)
        assert list(result["layers"]) == Tracer.metric_names()
    assert first["rounds"][0]["model_ands"] == second["rounds"][0]["model_ands"] > 0
    counts = COUNTS + ("game.cpre_calls", "bdd.managers")
    assert {k: first["layers"][k] for k in counts} == \
        {k: second["layers"][k] for k in counts}
    assert all(first["layers"][k] > 0 for k in counts)


def test_stress_specs_are_byte_identical(tmp_path):
    for letters in (6, 8):
        a, code_a = workloads.write_stress_spec(letters, tmp_path / f"a{letters}")
        b, code_b = workloads.write_stress_spec(letters, tmp_path / f"b{letters}")
        assert a.read_bytes() == b.read_bytes()
        assert code_a == code_b
    # window-sweep expects both of its games to need a window of 3
    assert workloads.write_stress_spec(6, tmp_path / "c")[1] == 3


def test_stress_spec_matches_the_ladder_script(tmp_path):
    script = HERE.parent / "scripts" / "stress_huffman27.py"
    if not script.is_file():
        pytest.skip("no ladder script in this checkout")
    subprocess.run([sys.executable, str(script), "--letters", "8", "--out-dir",
                    str(tmp_path / "script")], check=True, capture_output=True)
    ours, _ = workloads.write_stress_spec(8, tmp_path / "ours")
    assert ours.read_bytes() == (tmp_path / "script" / "huffman8.smv").read_bytes()


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == TRACE_METRICS
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(metric["name"])
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert units == {name: unit for name, (unit, _) in run.END_TO_END.items()}
    for metric in spec["per_layer"]:
        assert metric["unit"] == run.layer_unit(metric["name"])


def test_small_game_classes_fill(tmp_path):
    games = workloads.SmallGames(3, tmp_path, tiny=True)
    games.prepare()
    classes = [(r, h) for _, r, h in games.games]
    assert sorted(set(classes)) == sorted(workloads.SMALL_CLASSES)


def _violated_game(tmp_path) -> tuple[Path, str, str]:
    """A random game whose free-controllable check reports a safety trace."""
    from aigsynt.cli import main
    rng = random.Random(11)
    for i in range(200):
        path = tmp_path / f"g{i}.aag"
        path.write_text(workloads.random_game_text(rng, n_latches=8))
        out, err = tmp_path / "out", tmp_path / "err"
        with out.open("w") as o, err.open("w") as e, \
                contextlib.redirect_stdout(o), contextlib.redirect_stderr(e):
            rc = main(["mc", str(path)])
        if rc == 1 and "safety" in out.read_text():
            return path, out.read_text(), err.read_text()
    raise AssertionError("no violated game found")


def test_checks_accept_real_and_reject_forged_counterexamples(tmp_path):
    game, out, trace = _violated_game(tmp_path)
    check = workloads.expect_mc(game, holds=False)
    assert check(1, out, trace) is None
    assert check(0, "SAFETY: holds; JUSTICE: holds\n", "") is not None
    lines = trace.splitlines()
    ins, lat = lines[-1].split(" ")
    flipped = lat[:-1] + ("0" if lat[-1] == "1" else "1")
    forged = "\n".join(lines[:-1] + [f"{ins} {flipped}"]) + "\n"
    assert check(1, out, forged) is not None
    assert workloads.expect_mc(game, holds=True)(1, out, trace) is not None


def test_realizability_check_needs_the_expected_word():
    assert workloads.expect_realizability(True)(0, "REALIZABLE\n", "") is None
    assert workloads.expect_realizability(True)(1, "UNREALIZABLE\n", "") is not None
    assert workloads.expect_realizability(False)(0, "REALIZABLE\n", "") is not None
    assert workloads.expect_realizability(False)(1, "UNREALIZABLE\n", "") is None


def test_closed_game_has_no_controllable_input():
    text = workloads.random_game_text(random.Random(1), n_latches=8)
    assert read_aiger(text).controllable_inputs()
    assert not read_aiger(workloads.close_game(text)).controllable_inputs()
