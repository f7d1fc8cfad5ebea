#!/usr/bin/env python3
"""Stress-scale benchmark: a 27-letter prefix decoder (A-Z plus space).

Writes the specification (decoder module, FIFOs, property automata)
with the benchmark's generator, ``perfbench/workloads.py``, from its
fixed letter-frequency table, prints the code table and compiles the
game with ``aigsynt spec2aag``.  With ``--synth`` it goes on through the
commands the benchmark runs: ``synth -o``, ``mc`` on the model, then
``synt2hwmcc`` and ``mc --existential`` on its reversed form.  Each
command runs in-process through ``aigsynt.cli.main`` and prints its own
lines; after each, the script prints the command's wall time and this
process's peak resident set size so far.  That peak is cumulative: it is
the high-water mark (``ru_maxrss``) of every command run before it in
the process, and a later command's reading follows the heap that the
earlier ones left, so one in-process run cannot show a change below
about 50 MB; check a single command in a fresh process to see less.
This is a stress target: gate counts, runtimes and memory are
reported, never asserted.

The exit status follows the CLI's contract (``aigsynt.cli.run_guarded``):
the script stops at the first command that exits nonzero and returns its
status, so 1 means a wrong verdict (an unrealizable game, a violated
model, a fair trace in the reversed model) and 2 an error, resource
exhaustion among them.
"""

import argparse
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from aigsynt import cli
from workloads import WEIGHTS, stress_codes, write_stress_spec


def peak_rss() -> str:
    """This process's peak resident set size so far, over every command
    it has run (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return f"peak RSS so far {kib / 1024:.0f} MB"


def ladder(letters: int, out_dir: Path, synth: bool) -> int:
    codes = stress_codes(letters)
    spec_path, max_len = write_stress_spec(letters, out_dir)
    print(f"{letters}-letter code table, max code length {max_len} "
          f"(window reduction would need k = {max_len}):")
    for sym in sorted(codes):
        print(f"  {sym}: {codes[sym]}")
    print(f"specification written to {spec_path}")

    stem = spec_path.with_suffix("")
    game, model, hwmcc = f"{stem}.aag", f"{stem}_model.aag", f"{stem}_hwmcc.aag"
    commands = [["spec2aag", str(spec_path), "-o", game]]
    if synth:
        print("warning: synthesizing and checking the full-scale game is a "
              "stress target; the engine is deliberately desk-scale (a fixed "
              "variable order for solving and model checking, no garbage "
              "collection) and the four commands may need over half a "
              "gigabyte and several seconds to half a minute", file=sys.stderr)
        commands += [["synth", game, "-o", model], ["mc", model],
                     ["synt2hwmcc", model, "-o", hwmcc],
                     ["mc", hwmcc, "--existential"]]
    for argv in commands:
        t0 = time.monotonic()
        code = cli.main(argv)
        print(f"{' '.join(Path(arg).name for arg in argv)}: "
              f"{time.monotonic() - t0:.1f}s, {peak_rss()}")
        if code:
            return code
    if not synth:
        print("stress synthesis skipped (pass --synth to run it)")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", type=Path,
                        default=Path("huffman27_generated"))
    parser.add_argument("--synth", action="store_true",
                        help="run the (long) synthesis after generating")
    parser.add_argument("--letters", type=int, default=27,
                        help="alphabet size: the N heaviest symbols (2..27)")
    args = parser.parse_args()

    if not 2 <= args.letters <= len(WEIGHTS):
        parser.error(f"--letters must be within 2..{len(WEIGHTS)}")
    return cli.run_guarded(ladder, args.letters, args.out_dir, args.synth)


if __name__ == "__main__":
    sys.exit(main())
