#!/usr/bin/env python3
"""Search the minimal window length that makes a specification realizable.

The window reduction needs a length as input; this iterates candidate
values upward and reports the first realizable one.  A strategy that
keeps every window of length k wins the unbounded justice game too, so
each window's winning region lies inside the unbounded game's: that
game is solved once first, and when its initial state is losing no
window is tried.

Exit status follows the CLI's contract (``aigsynt.cli.run_guarded``):
0 when some window up to --max-k is realizable, 1 when none is, 2 when
the input cannot be read (it is read as UTF-8) or has no justice
section, or when the search runs out of recursion depth or memory.
A negative --max-k is a usage error (exit 2): it leaves no window to
check, so there is no verdict.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from aigsynt.cli import read_aiger_input, run_guarded
from aigsynt.game import build_game, is_realizable, solve
from aigsynt.transforms import justice_to_safety


def solved(label: str, doc) -> bool:
    """Whether doc's game is realizable, printed with the solve's time."""
    t0 = time.monotonic()
    game = build_game(doc)
    realizable = is_realizable(game, solve(game))
    print(f"{label}: {'realizable' if realizable else 'unrealizable'} "
          f"({time.monotonic() - t0:.2f}s)")
    return realizable


def search(aag: Path, max_k: int) -> int:
    doc = read_aiger_input(aag)
    # a document the reduction rejects is an error before any solve
    justice_to_safety(doc, 0)
    if solved("unbounded", doc):
        for k in range(max_k + 1):
            if solved(f"k={k}", justice_to_safety(doc, k)):
                print(f"minimal realizable window: {k}")
                return 0
    print(f"unrealizable for every k up to {max_k}")
    return 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("aag", type=Path,
                        help="extended-format game with a justice section")
    parser.add_argument("--max-k", type=int, default=32)
    args = parser.parse_args()
    if args.max_k < 0:
        parser.error("--max-k must be at least 0")
    return run_guarded(search, args.aag, args.max_k)


if __name__ == "__main__":
    sys.exit(main())
