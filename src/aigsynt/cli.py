"""Command-line surface for the synthesis pipeline.

Subcommands mirror the pipeline stages: ``spec2aag`` compiles an
extended-SMV specification to a game circuit (extended format, or
standard single-output via the k-window reduction), ``just2safe``
applies the reduction to an existing file, ``synth`` solves a game and
writes the synthesized model (only the gates its latches, outputs and
properties read), ``synt2hwmcc`` reverses the justice polarity of a
model for standard fair-trace checkers, and ``mc`` runs the built-in
model checker.

Exit codes: 0 success / holds, 1 unrealizable or violated, 2 usage or
input errors (an unreadable or non-UTF-8 input file among them) and
resource exhaustion (RecursionError, MemoryError).  ``run_guarded``
states the error half of this contract once, for ``main`` and the
scripts under ``scripts/``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from . import __version__
from .aiger import AigError, AigerDoc, read_aiger, write_aiger
from .automata import AutomatonError, parse_gff, to_monitor, validate_for_role
from .circuit import CircuitError, compile_model
from .game import GameError, build_game, is_realizable, solve, synthesize
from .mc import McError, _SymbolicModel, check_justice_universal, \
    check_safety, find_fair_trace
from .smv import SmvError, flatten, parse_smv, resolve
from .transforms import TransformError, fold_constraints_into_bad, \
    justice_to_safety, reverse_justice


class InputError(Exception):
    """An input file that cannot be read as UTF-8 text."""


PIPELINE_ERRORS = (AigError, AutomatonError, CircuitError, GameError,
                   InputError, McError, SmvError, TransformError, OSError)


def run_guarded(fn, *args) -> int:
    """``fn(*args)``, an exit status, with every error mapped to 2.

    A pipeline error, or an exhausted resource (RecursionError,
    MemoryError), prints one ``error:`` line on stderr and gives 2; it
    is never a verdict.
    """
    try:
        return fn(*args)
    except PIPELINE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RecursionError, MemoryError) as exc:
        detail = str(exc) or "out of memory"
        print(f"error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return 2


def read_input(path: str | Path, newline: str | None = None) -> str:
    """The text of a specification, automaton or AIGER input file.

    ``newline`` is ``open``'s: by default every ``\\r\\n`` and lone
    ``\\r`` reads as ``\\n``; ``read_aiger_input`` passes ``""``, which
    keeps them.  Every way the read can fail (a missing or unreadable
    file, a NUL byte in the path, bytes that are not UTF-8) raises
    ``InputError`` naming the path.
    """
    try:
        with open(path, encoding="utf-8", newline=newline) as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # ValueError covers decode errors
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror \
            else exc
        raise InputError(f"cannot read {str(path)!r}: {reason}") from None


def read_aiger_input(path: str | Path) -> AigerDoc:
    """The AIGER document of an input file, read with no newline
    translation: ``read_aiger`` ends a line at ``\\n`` only, so a lone
    ``\\r`` in a symbol name or a comment stays in it."""
    return read_aiger(read_input(path, newline=""))


def build_spec_doc(spec_path: Path) -> AigerDoc:
    """Frontend plus monitor compilation for one specification file.

    An automaton that cannot be read, validated or turned into a monitor
    raises ``AutomatonError`` prefixed with its entry's path and the
    line of the specification that lists it.
    """
    spec = parse_smv(read_input(spec_path))
    model = flatten(resolve(spec))
    base = spec_path.parent
    monitors = {"sys": [], "env": []}
    for role_key, refs, role in (("sys", spec.main.sys_automata, "guarantee"),
                                 ("env", spec.main.env_automata, "assumption")):
        for ref in refs:
            text = read_input(base / ref.path)
            try:
                validated = validate_for_role(parse_gff(text), role,
                                              negated=ref.negated)
                monitor = to_monitor(validated)
            except AutomatonError as exc:
                raise AutomatonError(f"{ref.path} (spec line {ref.line}): "
                                     f"{exc}") from None
            monitors[role_key].append(monitor)
    return compile_model(model, monitors["sys"], monitors["env"])


def _write(path: str, doc: AigerDoc) -> None:
    Path(path).write_text(write_aiger(doc), encoding="utf-8")


def _doc_summary(doc: AigerDoc) -> str:
    nc = len(doc.controllable_inputs())
    parts = [f"{len(doc.inputs)} inputs ({nc} controllable)",
             f"{len(doc.latches)} latches",
             f"{doc.aig.num_ands} ands"]
    if doc.fmt == "new":
        parts.append(f"{len(doc.bad)} bad")
        parts.append(f"{len(doc.constraints)} constraints")
        parts.append(f"justice {'yes' if doc.justice else 'no'}")
    else:
        parts.append(f"{len(doc.outputs)} outputs")
    return ", ".join(parts)


def cmd_spec2aag(args) -> int:
    if args.k is not None and not args.standard:
        print("error: --k applies only with --standard", file=sys.stderr)
        return 2
    doc = build_spec_doc(Path(args.spec))
    if args.standard:
        if doc.justice and args.k is None:
            print("error: --standard with a liveness objective needs --k",
                  file=sys.stderr)
            return 2
        if not doc.justice and args.k is not None:
            print("error: --k applies only to a specification with a "
                  "liveness objective", file=sys.stderr)
            return 2
        doc = (justice_to_safety(doc, args.k) if doc.justice
               else fold_constraints_into_bad(doc))
    _write(args.output, doc)
    print(f"wrote {args.output}: {_doc_summary(doc)}")
    return 0


def cmd_just2safe(args) -> int:
    doc = read_aiger_input(args.input)
    out = justice_to_safety(doc, args.k)
    _write(args.output, out)
    print(f"wrote {args.output}: {_doc_summary(out)}")
    return 0


def cmd_synth(args) -> int:
    doc = read_aiger_input(args.input)
    if args.output is None:
        game = build_game(doc)
        winning = solve(game)
        if is_realizable(game, winning):
            print("REALIZABLE")
            return 0
        print("UNREALIZABLE")
        return 1
    before = doc.aig.num_ands
    ok, model, _ = synthesize(doc)
    if not ok:
        print("UNREALIZABLE")
        return 1
    _write(args.output, model)
    print(f"REALIZABLE: wrote {args.output} "
          f"({model.aig.num_ands} ands, was {before})")
    return 0


def cmd_synt2hwmcc(args) -> int:
    doc = read_aiger_input(args.input)
    if not doc.justice:
        _write(args.output, doc)
        print(f"wrote {args.output}: no justice section, model unchanged")
        return 0
    out = reverse_justice(doc)
    _write(args.output, out)
    print(f"wrote {args.output}: {_doc_summary(out)}")
    return 0


def cmd_mc(args) -> int:
    doc = read_aiger_input(args.input)
    if args.existential:
        result = find_fair_trace(doc)
        if result.found:
            print("FAIR TRACE FOUND")
            sys.stderr.write(result.trace.render())
            return 1
        print("NO FAIR TRACE")
        return 0
    model = _SymbolicModel(doc)  # one encoding for both checks
    for name, check in (("safety", check_safety),
                        ("justice", check_justice_universal)):
        result = check(model)
        if not result.holds:
            print(f"VIOLATED ({name})")
            sys.stderr.write(result.trace.render())
            return 1
    print("SAFETY: holds; JUSTICE: holds")
    return 0


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``parse_args`` keeps no state."""
    parser = argparse.ArgumentParser(
        prog="aigsynt",
        description="SMV-to-AIGER reactive synthesis toolchain")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spec2aag",
                       help="compile an extended-SMV specification to AIGER")
    p.add_argument("spec", help="specification file (.smv)")
    p.add_argument("-o", "--output", required=True, help="output .aag file")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--extended", action="store_true", default=True,
                      help="emit the extended format (default)")
    mode.add_argument("--standard", action="store_true",
                      help="emit the standard single-output format")
    p.add_argument("--k", type=int, default=None,
                   help="window length for --standard liveness reduction")
    p.set_defaults(func=cmd_spec2aag)

    p = sub.add_parser("just2safe",
                       help="reduce a justice objective to a k-window safety game")
    p.add_argument("input", help="extended-format .aag file")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--k", type=int, required=True, help="window length")
    p.set_defaults(func=cmd_just2safe)

    p = sub.add_parser("synth", help="solve a game and extract a model")
    p.add_argument("input", help="game in AIGER format")
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("-o", "--output", default=None,
                      help="synthesized model; it keeps only the gates its "
                      "latches, outputs and properties read")
    mode.add_argument("--print-realizability-only", action="store_true",
                      help="print the verdict only (the default without -o)")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("synt2hwmcc",
                       help="reverse justice polarity for standard checkers")
    p.add_argument("input", help="synthesized model (.aag)")
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_synt2hwmcc)

    p = sub.add_parser("mc", help="model check a synthesized model")
    p.add_argument("input", help="model (.aag)")
    p.add_argument("--existential", action="store_true",
                   help="search for a fair trace instead (reversed models)")
    p.set_defaults(func=cmd_mc)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    return run_guarded(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
