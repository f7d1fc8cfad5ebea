#!/usr/bin/env python3
"""Stress-scale benchmark: a 27-letter prefix decoder (A-Z plus space).

Writes the specification (decoder module, FIFOs, property automata)
with the benchmark's generator, ``perfbench/workloads.py``, from its
fixed letter-frequency table; reports the code table and the game
circuit size, and optionally runs synthesis, the model check of the
synthesized model, and the fair-trace search on its reversed form (the
``synt2hwmcc`` + ``mc --existential`` stage).  After each stage it
prints the time and this process's peak resident set size so far.  This
is a stress target: gate counts, runtimes and memory are reported, never
asserted.

With ``--synth`` the exit status follows the CLI's contract: 1 when the
game is unrealizable, the model check reports a violation, or the
reversed model has a fair trace; 0 when every verdict is the expected
one.
"""

import argparse
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from aigsynt.cli import build_spec_doc
from aigsynt.game import synthesize
from aigsynt.mc import _SymbolicModel, check_justice_universal, check_safety, \
    find_fair_trace
from aigsynt.transforms import reverse_justice
from workloads import WEIGHTS, stress_codes, write_stress_spec


def peak_rss() -> str:
    """This process's peak resident set size so far (Linux reports KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return f"peak RSS {kib / 1024:.0f} MB"


def model_check(model):
    """Both universal checks on one symbolic model, as ``aigsynt mc`` runs
    them; the model is released on return, before the fair-trace search."""
    symbolic = _SymbolicModel(model)
    return check_safety(symbolic), check_justice_universal(symbolic)


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
    codes = stress_codes(args.letters)
    spec_path, max_len = write_stress_spec(args.letters, args.out_dir)
    print(f"{args.letters}-letter code table, max code length {max_len} "
          f"(window reduction would need k = {max_len}):")
    for sym in sorted(codes):
        print(f"  {sym}: {codes[sym]}")
    print(f"specification written to {spec_path}")

    doc = build_spec_doc(spec_path)
    print(f"game circuit: {len(doc.inputs)} inputs, {len(doc.latches)} "
          f"latches, {doc.aig.num_ands} AND gates")

    if not args.synth:
        print("stress synthesis skipped (pass --synth to run it)")
        return 0

    print("warning: full-scale synthesis is a stress target; the engine "
          "is deliberately desk-scale (fixed variable order, no garbage "
          "collection) and may need half a gigabyte and several seconds "
          "to half a minute", file=sys.stderr)
    t0 = time.monotonic()
    # bind only the model, so the game and its manager are freed
    # before the checks run
    ok, model = synthesize(doc)[:2]
    elapsed = time.monotonic() - t0
    if not ok:
        print(f"UNREALIZABLE after {elapsed:.1f}s, {peak_rss()}")
        return 1
    print(f"realizable; {elapsed:.1f}s, {peak_rss()}, model has "
          f"{model.aig.num_ands} AND gates (reported, not asserted)")
    t0 = time.monotonic()
    safety, justice = model_check(model)
    print(f"model check in {time.monotonic() - t0:.1f}s, {peak_rss()}: "
          f"safety {'holds' if safety.holds else 'VIOLATED'}, "
          f"justice {'holds' if justice.holds else 'VIOLATED'}")
    t0 = time.monotonic()
    fair = find_fair_trace(reverse_justice(model))
    print(f"reversed model (synt2hwmcc + mc --existential) in "
          f"{time.monotonic() - t0:.1f}s, {peak_rss()}: "
          f"{'FAIR TRACE FOUND' if fair.found else 'NO FAIR TRACE'}")
    return 0 if safety.holds and justice.holds and not fair.found else 1


if __name__ == "__main__":
    sys.exit(main())
