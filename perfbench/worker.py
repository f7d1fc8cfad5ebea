"""One benchmark process: set up a workload, then run timed rounds of it.

Started by ``run.py`` as a fresh single-threaded interpreter, with one
JSON argument (workload, seed, work directory, mode, ...).  It imports
the package from the checkout's ``src``, generates the workload's
inputs, and in ``setup`` mode exits there.  In ``measure`` mode it
computes the expected answers, then repeats rounds of operations until
``seconds`` have passed (or ``rounds`` rounds ran) and prints one JSON
object with per-round timings, verdict failures, peak RSS and, when
traced, the per-layer metrics.

Every operation runs in-process through ``aigsynt.cli.main`` with its
output captured.  An operation fails when it raises (MemoryError and
RecursionError included), exits other than 0 or 1, outlives the run's
deadline, or its check rejects the verdict or the files it wrote.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from aigsynt import cli  # noqa: E402

import workloads  # noqa: E402
from tracing import Tracer, rss_mb  # noqa: E402


class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout("the run's deadline passed")


def run_round(ops, deadline: float, tracer: Tracer | None) -> dict:
    """Run one round's operations in order; each waits for the last."""
    times = dict.fromkeys(workloads.KINDS, 0.0)
    failures = []
    model_ands = 0
    for op in ops:
        problem = None
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            failures.append(f"{' '.join(op.argv[:2])}: not started, deadline passed")
            continue
        out, err = io.StringIO(), io.StringIO()
        signal.setitimer(signal.ITIMER_REAL, remaining)
        if tracer:
            tracer.active = True
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(op.argv)
        except Exception as exc:  # a crash is a failed operation, never a verdict
            rc = None
            problem = f"raised {type(exc).__name__}: {str(exc)[:120]}"
        finally:
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.active = False
            signal.setitimer(signal.ITIMER_REAL, 0)
        times[op.kind] += elapsed
        if rc is not None:
            try:
                problem = op.check(rc, out.getvalue(), err.getvalue())
            except Exception as exc:  # unreadable output counts as wrong
                problem = f"check raised {type(exc).__name__}: {str(exc)[:120]}"
        if problem is None and op.model is not None:
            model_ands += workloads.aag_ands(op.model)
        if problem is not None:
            failures.append(f"{' '.join(op.argv[:2])}: {problem}")
    return {"times": times, "total_s": sum(times.values()),
            "attempted": len(ops), "failures": failures,
            "model_ands": model_ands}


def main() -> int:
    cfg = json.loads(sys.argv[1])
    work = Path(cfg["work"])
    workload = workloads.WORKLOADS[cfg["workload"]](
        cfg["seed"], work / "inputs", cfg.get("tiny", False))
    if cfg["mode"] == "setup":
        return 0

    deadline = time.monotonic() + cfg["budget"]
    signal.signal(signal.SIGALRM, _alarm)
    workload.prepare()
    tracer = None
    if cfg["trace"]:
        tracer = Tracer()
        tracer.install()

    rounds = []
    start = time.monotonic()
    while True:
        out = work / f"round{len(rounds)}"
        out.mkdir()
        rounds.append(run_round(workload.ops(out), deadline, tracer))
        shutil.rmtree(out)
        if len(rounds) >= cfg["rounds"] or time.monotonic() - start >= cfg["seconds"]:
            break

    result = {"rounds": rounds, "peak_rss_mb": rss_mb()}
    if tracer:
        result["layers"] = tracer.metrics()
        spans = Path(cfg["spans"])
        spans.parent.mkdir(parents=True, exist_ok=True)
        spans.write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
