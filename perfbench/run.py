#!/usr/bin/env python3
"""Synthesis benchmark: end-to-end and per-layer metrics of the CLI pipeline.

    python3 perfbench/run.py --workload stress8 --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and measures the package in
``src/``, in fresh single-threaded child processes (``worker.py``) with
their own address-space and CPU-time ceilings.  Operations are a closed
loop with one caller: each ``aigsynt`` command waits for the last.

* ``--trace 0``: set up the workload ``SETUP_REPS`` times (interpreter
  start, package import, input generation) and report the median as
  ``setup_s``; then one untraced worker repeats rounds of the workload
  for ``--seconds`` seconds (always at least one whole round) and
  every end-to-end metric is the median over rounds.
* ``--trace 1``: one traced round gives the per-layer metrics; one
  untraced round in another fresh process gives the tracing overhead
  (``trace.overhead_s``, traced minus untraced ``total_s``).

Every operation's verdict is checked (see ``workloads.py``).  The
failure rate is ``failed / attempted`` of the result line.  The last
line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("stress8", "window-sweep", "small-games")

SETUP_REPS = 5
RUN_LIMIT_S = 170        # every run ends well inside the 180 s allowed
ADDRESS_LIMIT = 5 << 30  # bytes of address space per worker
WORKER_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

# end-to-end metric -> (unit, operation kind whose per-round time it sums)
END_TO_END = {
    "setup_s": ("s", None),
    "realize_s": ("s", "realize"),
    "synth_s": ("s", "synth"),
    "verify_s": ("s", "verify"),
    "refute_s": ("s", "refute"),
    "hwmcc_verify_s": ("s", "hwmcc"),
    "total_s": ("s", None),
    "peak_rss_mb": ("MB", None),
    "model_ands": ("count", None),
}


def layer_unit(name: str) -> str:
    if name.endswith("_s") or name == "automata.s":
        return "s"
    if ".rss_mb." in name:
        return "MB"
    return "bytes" if name == "aiger.bytes" else "count"


def _limits() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_LIMIT, ADDRESS_LIMIT))
    resource.setrlimit(resource.RLIMIT_CPU, (RUN_LIMIT_S, RUN_LIMIT_S + 5))


def spawn(cfg: dict, deadline: float) -> tuple[float, dict | None, str]:
    """Run one worker; returns (wall seconds, parsed result, diagnosis)."""
    env = dict(os.environ, **WORKER_ENV)
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), json.dumps(cfg)],
            stdout=subprocess.PIPE, env=env, preexec_fn=_limits, text=True,
            timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, None, "worker killed at the run limit"
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        return wall, None, f"worker exited with {proc.returncode}"
    if cfg["mode"] == "setup":
        return wall, {}, ""
    return wall, json.loads(proc.stdout.strip().splitlines()[-1]), ""


def measure(args, work: Path, deadline: float) -> tuple[dict, int, list[str], bool]:
    """Metrics, attempted operations, failed operations and whether
    every round repeated the same model size."""
    base = {"workload": args.workload, "seed": args.seed}
    setup = []
    for rep in range(0 if args.trace else SETUP_REPS):
        wall, res, why = spawn(dict(base, mode="setup", work=str(work / f"setup{rep}")),
                               deadline)
        if res is None:
            raise RuntimeError(f"set-up failed: {why}")
        setup.append(wall)

    def worker(trace: bool, rounds: int) -> dict:
        cfg = dict(base, mode="measure", trace=trace, rounds=rounds,
                   seconds=args.seconds, work=str(work / f"run{int(trace)}"),
                   spans=str(HERE / "out" / f"spans-{args.workload}-{args.seed}.json"),
                   budget=deadline - time.monotonic() - 5)
        _, res, why = spawn(cfg, deadline)
        if res is None:
            raise RuntimeError(f"measurement failed: {why}")
        return res

    if args.trace:
        traced, plain = worker(True, 1), worker(False, 1)
        runs = [traced, plain]
        metrics = dict(traced["layers"])
        metrics["trace.total_s"] = traced["rounds"][0]["total_s"]
        metrics["trace.overhead_s"] = (traced["rounds"][0]["total_s"]
                                       - plain["rounds"][0]["total_s"])
    else:
        plain = worker(False, 10 ** 6)
        runs = [plain]
        rounds = plain["rounds"]
        metrics = {"setup_s": statistics.median(setup),
                   "total_s": statistics.median(r["total_s"] for r in rounds),
                   "peak_rss_mb": plain["peak_rss_mb"],
                   "model_ands": rounds[0]["model_ands"]}
        for name, (_, kind) in END_TO_END.items():
            if kind:
                metrics[name] = statistics.median(r["times"][kind] for r in rounds)
    attempted = sum(r["attempted"] for run in runs for r in run["rounds"])
    failures = [f for run in runs for r in run["rounds"] for f in r["failures"]]
    repeatable = len({r["model_ands"] for run in runs for r in run["rounds"]}) == 1
    return metrics, attempted, failures, repeatable


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()
    if not (ROOT / "src" / "aigsynt" / "cli.py").is_file():
        print(f"perfbench: no package source at {ROOT / 'src' / 'aigsynt'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    (HERE / "out").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / "out"))
    try:
        metrics, attempted, failures, repeatable = measure(
            args, work, start + RUN_LIMIT_S)
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = {name: unit for name, (unit, _) in END_TO_END.items()}
    report = {name: {"value": value, "unit": units.get(name) or layer_unit(name)}
              for name, value in metrics.items()}
    print(f"{args.workload} seed {args.seed}: {attempted} operations, "
          f"{len(failures)} failed (fail_rate {len(failures) / attempted:.4f})")
    for failure in failures[:20]:
        print(f"  FAILED {failure}")
    if not repeatable:
        print("  FAILED model_ands differs between rounds")
    for name, entry in report.items():
        print(f"  {name:32s} {entry['value']:>16.6f} {entry['unit']}")
    print(json.dumps({"correct": not failures and repeatable,
                      "attempted": attempted, "failed": len(failures),
                      "metrics": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
