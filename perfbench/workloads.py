"""Inputs, operations and expected answers of the benchmark's workloads.

Generating a workload's inputs is the set-up step: it writes every file
the operations read into a work directory and does not touch the
package under test.  The expected answers come from outside the timed
code path: the Huffman code table the stress specifications are built
from, the explicit-state oracle ``mc.solve_explicit`` (small games
only, run outside the timed operations), and replaying every
counterexample on ``aiger.Simulator``.

Each operation is one ``aigsynt`` command line plus a check of its exit
code, output and written files.  ``kind`` names the end-to-end metric
its wall time is added to; ``prep`` operations (``spec2aag``,
``just2safe``) count toward ``total_s`` only.
"""

from __future__ import annotations

import heapq
import random
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from aigsynt.aiger import CONTROLLABLE_PREFIX, Simulator, read_aiger, values_lit
from aigsynt.mc import solve_explicit

DATA = Path(__file__).resolve().parent / "data"

KINDS = ("prep", "realize", "synth", "verify", "refute", "hwmcc")

# per-mille letter weights, A..Z then space
WEIGHTS = {
    "A": 65, "B": 12, "C": 22, "D": 34, "E": 102, "F": 18, "G": 16,
    "H": 49, "I": 56, "J": 1, "K": 6, "L": 32, "M": 19, "N": 54,
    "O": 60, "P": 15, "Q": 1, "R": 48, "S": 51, "T": 73, "U": 22,
    "V": 8, "W": 19, "X": 1, "Y": 16, "Z": 1, "_": 180,
}

PROPERTY_FILES = [
    "guar_done_then_output.gff", "guar_streams_match.gff",
    "guar_done_recurs.gff", "asm_input_in_range.gff", "asm_input_stable.gff",
]

# The bundled 4-letter decoder reads codes 0, 10, 110, 111.
HUFFMAN4_MAX_CODE = 3

# Games per class of (realizable, holds with controllables free), near
# the generator's natural mix of 38/13/49 %.  Fixed class sizes keep the
# per-round work of different seeds alike: the realizable share alone
# would otherwise move synth_s and model_ands by several percent.
SMALL_CLASSES = {(True, True): 150, (True, False): 50, (False, False): 200}
SMALL_GAME_GATES = 20
ARBITER_WINDOW = 2


# stress specifications ----------------------------------------------------


def huffman_codes(weights: dict[str, int]) -> dict[str, str]:
    heap = [(w, i, sym) for i, (sym, w) in enumerate(sorted(weights.items()))]
    heapq.heapify(heap)
    counter = len(heap)
    parent: dict = {}
    while len(heap) > 1:
        w1, _, a = heapq.heappop(heap)
        w2, _, b = heapq.heappop(heap)
        node = (a, b)
        parent[a] = (node, "0")
        parent[b] = (node, "1")
        heapq.heappush(heap, (w1 + w2, counter, node))
        counter += 1
    codes = {}
    for sym in weights:
        bits = ""
        cur = sym
        while cur in parent:
            cur, bit = parent[cur]
            bits = bit + bits
        codes[sym] = bits
    return codes


def stress_codes(n_letters: int) -> dict[str, str]:
    """Code table of the N heaviest letters."""
    chosen = sorted(sorted(WEIGHTS), key=lambda s: -WEIGHTS[s])[:n_letters]
    return huffman_codes({sym: WEIGHTS[sym] for sym in chosen})


def _decoder_module(codes: dict[str, str], width: int) -> str:
    """State machine over the code tree's internal nodes."""
    letter_value = {sym: i + 1 for i, sym in enumerate(sorted(codes))}
    prefixes = {""}
    for code in codes.values():
        for i in range(1, len(code)):
            prefixes.add(code[:i])
    ordered = sorted(prefixes, key=lambda p: (len(p), p))
    node_id = {p: i for i, p in enumerate(ordered)}
    is_leaf = {code: sym for sym, code in codes.items()}

    step_branches = []
    emit_conds = []
    letter_branches = []
    for prefix in ordered:
        sid = node_id[prefix]
        for bit, cond in (("0", f"s = {sid} & !c"), ("1", f"s = {sid} & c")):
            target = prefix + bit
            if target in is_leaf:
                emit_conds.append(f"({cond})")
                letter_branches.append(
                    f"    {cond} : {letter_value[is_leaf[target]]};")
            else:
                step_branches.append(f"    {cond} : {node_id[target]};")

    top = (1 << width) - 1
    lines = [
        "MODULE decoder(c)",
        "VAR",
        f"  s: 0..{len(prefixes) - 1};",
        "  out_valid: boolean;",
        f"  out_letter: 0..{top};",
        "ASSIGN",
        "  init(s) := 0;",
        "  next(s) := case",
        *step_branches,
        "    TRUE : 0;",
        "  esac;",
        "  init(out_valid) := FALSE;",
        "  next(out_valid) := " + "\n    | ".join(emit_conds) + ";",
        "  init(out_letter) := 0;",
        "  next(out_letter) := case",
        *letter_branches,
        "    TRUE : out_letter;",
        "  esac;",
    ]
    return "\n".join(lines)


def _main_module(n_letters: int, width: int) -> str:
    top = (1 << width) - 1
    return f"""
MODULE fifo1(din, enq, deq)
VAR
  full: boolean;
  slot: 0..{top};
DEFINE
  empty := !full;
  overflow := enq & !deq & full;
ASSIGN
  init(full) := FALSE;
  next(full) := case
    enq : TRUE;
    deq : FALSE;
    TRUE : full;
  esac;
  init(slot) := 0;
  next(slot) := case
    enq : din;
    TRUE : slot;
  esac;

MODULE main
VAR
  dataIn: 0..{top};

VAR --controllable
  cipher: boolean;
  done: boolean;

VAR
  prevIn: 0..{top};
  done_d: boolean;
  dec: decoder(cipher);
  fifo_enc: fifo1(prevIn, done_d, cmp);
  fifo_dec: fifo1(dec.out_letter, enq_dec, cmp);
ASSIGN
  init(prevIn) := 0;
  next(prevIn) := dataIn;
  init(done_d) := FALSE;
  next(done_d) := done;
DEFINE
  enq_dec := dec.out_valid;
  cmp := !fifo_enc.empty & !fifo_dec.empty;
  diff := (cmp & !(fifo_enc.slot = fifo_dec.slot))
        | fifo_enc.overflow | fifo_dec.overflow;
  validIn := dataIn >= 1 & dataIn <= {n_letters};
  stable := dataIn = prevIn;

SYS_AUTOMATON_SPEC
  guar_done_then_output.gff;
  guar_streams_match.gff;
  guar_done_recurs.gff;

ENV_AUTOMATON_SPEC
  asm_input_in_range.gff;
  asm_input_stable.gff;
"""


def write_stress_spec(n_letters: int, out_dir: Path) -> tuple[Path, int]:
    """The N-letter prefix-decoder specification; returns (path, max code length)."""
    codes = stress_codes(n_letters)
    width = max(n_letters.bit_length(), 1)
    out_dir.mkdir(parents=True, exist_ok=True)
    spec = out_dir / f"huffman{n_letters}.smv"
    spec.write_text(_decoder_module(codes, width) + "\n"
                    + _main_module(n_letters, width))
    for name in PROPERTY_FILES:
        shutil.copy(DATA / "huffman4" / name, out_dir / name)
    return spec, max(len(c) for c in codes.values())


# small random games ---------------------------------------------------------


def random_game_text(rng: random.Random, n_latches: int, n_u: int = 2,
                     n_c: int = 2, n_gates: int = SMALL_GAME_GATES) -> str:
    """An extended-format game with a state-based justice literal.

    Gates over latches only feed the justice literal, so it never reads
    an input; bad, the optional constraint and the next-state functions
    draw from every signal.
    """
    n_in = n_u + n_c
    inputs = [2 * (i + 1) for i in range(n_in)]
    latches = [2 * (n_in + 1 + i) for i in range(n_latches)]
    ands: list[tuple[int, int, int]] = []

    def gate(a: int, b: int) -> int:
        lit = 2 * (n_in + n_latches + 1 + len(ands))
        ands.append((lit, a, b))
        return lit

    def pick(pool: list[int]) -> int:
        return rng.choice(pool) ^ rng.randint(0, 1)

    latch_pool = list(latches)
    for _ in range(max(1, n_gates // 3)):
        latch_pool.append(gate(pick(latch_pool), pick(latch_pool)))
    pool = inputs + latch_pool
    for _ in range(n_gates):
        pool.append(gate(pick(pool), pick(pool)))
    nexts = [pick(pool) for _ in latches]
    bad = pick(pool)
    constraints = [pick(pool)] if rng.random() < 0.7 else []
    justice = pick(latch_pool)

    max_var = n_in + n_latches + len(ands)
    lines = [f"aag {max_var} {n_in} {n_latches} 0 {len(ands)} 1 "
             f"{len(constraints)} 1 0"]
    lines += [str(lit) for lit in inputs]
    lines += [f"{lit} {nxt}" for lit, nxt in zip(latches, nexts)]
    lines.append(str(bad))
    lines += [str(lit) for lit in constraints]
    lines += ["1", str(justice)]
    lines += [f"{lhs} {a} {b}" for lhs, a, b in ands]
    lines += [f"i{i} u{i}" for i in range(n_u)]
    lines += [f"i{n_u + i} {CONTROLLABLE_PREFIX}c{i}" for i in range(n_c)]
    lines += [f"l{i} l{i}" for i in range(n_latches)]
    return "\n".join(lines) + "\n"


def close_game(text: str) -> str:
    """The same game with every input uncontrollable."""
    return text.replace(f" {CONTROLLABLE_PREFIX}", " fixed_")


# checks ---------------------------------------------------------------------


Check = Callable[[int, str, str], "str | None"]


def aag_ands(path: Path) -> int:
    """AND count from an ASCII AIGER header."""
    with path.open() as fh:
        return int(fh.readline().split()[5])


def expect_realizability(realizable: bool) -> Check:
    word = "REALIZABLE" if realizable else "UNREALIZABLE"

    def check(rc: int, out: str, err: str) -> str | None:
        if rc != (0 if realizable else 1) or out.split(":")[0].split() != [word]:
            return f"expected {word}, got exit {rc}: {out.strip()[:80]!r}"
        return None
    return check


def expect_model(model: Path) -> Check:
    """Realizable, and the written model has no controllable input left."""
    verdict = expect_realizability(True)

    def check(rc: int, out: str, err: str) -> str | None:
        problem = verdict(rc, out, err)
        if problem:
            return problem
        doc = read_aiger(model.read_text())
        if doc.controllable_inputs():
            return f"{model.name} still has controllable inputs"
        return None
    return check


def expect_written(path: Path, fmt: str) -> Check:
    def check(rc: int, out: str, err: str) -> str | None:
        if rc != 0:
            return f"expected exit 0, got {rc}: {err.strip()[:80]!r}"
        if read_aiger(path.read_text()).fmt != fmt:
            return f"{path.name} is not in the {fmt} format"
        return None
    return check


def expect_no_fair_trace(rc: int, out: str, err: str) -> str | None:
    if rc != 0 or out.strip() != "NO FAIR TRACE":
        return f"expected NO FAIR TRACE, got exit {rc}: {out.strip()[:80]!r}"
    return None


def expect_mc(game: Path, holds: bool) -> Check:
    """``mc`` verdict; a reported violation must replay on the simulator."""
    def check(rc: int, out: str, err: str) -> str | None:
        if holds:
            if rc != 0 or out.strip() != "SAFETY: holds; JUSTICE: holds":
                return f"expected holds, got exit {rc}: {out.strip()[:80]!r}"
            return None
        if rc != 1 or not out.startswith("VIOLATED"):
            return f"expected a violation, got exit {rc}: {out.strip()[:80]!r}"
        return replay(read_aiger(game.read_text()), err,
                      lasso="justice" in out)
    return check


def parse_trace(text: str) -> tuple[list[tuple[list[bool], list[bool]]], int | None]:
    """Steps (inputs, latches) and loop start of a rendered trace."""
    steps = []
    loop_start = None
    for line in text.splitlines():
        if line == "# loop:":
            loop_start = len(steps)
        elif line and not line.startswith("#"):
            ins, lat = line.split(" ")
            steps.append(([c == "1" for c in ins], [c == "1" for c in lat]))
    return steps, loop_start


def replay(doc, text: str, lasso: bool) -> str | None:
    """Check that a counterexample is a real violation of ``doc``.

    A safety trace keeps the constraints at every step and raises bad
    at its last step.  A justice lasso keeps the constraints, never
    raises the justice literal inside the loop, and returns to the
    loop's first state.
    """
    steps, loop_start = parse_trace(text)
    if not steps:
        return "violation reported without a trace"
    if lasso and loop_start is None:
        return "justice violation without a loop"
    bad_lits = [lit for lit, _ in (doc.bad if doc.fmt == "new" else doc.outputs)]
    just = doc.justice_literal()
    sim = Simulator(doc)
    for i, (inputs, latches) in enumerate(steps):
        if sim.latch_values != latches:
            return f"trace step {i}: latches disagree with simulation"
        values = sim.step(inputs)
        if not all(values_lit(values, lit) for lit, _ in doc.constraints):
            return f"trace step {i}: constraints do not hold"
        if lasso and i >= loop_start and values_lit(values, just):
            return f"trace step {i}: justice raised inside the loop"
    if lasso:
        if sim.latch_values != steps[loop_start][1]:
            return "lasso does not return to its loop start"
    elif not any(values_lit(values, lit) for lit in bad_lits):
        return "bad is not raised at the last trace step"
    return None


# workloads -----------------------------------------------------------------


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Check
    model: Path | None = None  # synthesized model whose ANDs count toward model_ands


def _pipeline_ops(game: Path, out: Path, stem: str, fmt: str = "new") -> list[Op]:
    """Synthesize a realizable game, check the model, then check its
    reversed-justice form (a plain copy when the model has no justice)."""
    model = out / f"{stem}_model.aag"
    hwmcc = out / f"{stem}_hwmcc.aag"
    return [
        Op("synth", ["synth", str(game), "-o", str(model)], expect_model(model),
           model=model),
        Op("verify", ["mc", str(model)], expect_mc(model, holds=True)),
        Op("hwmcc", ["synt2hwmcc", str(model), "-o", str(hwmcc)],
           expect_written(hwmcc, fmt)),
        Op("hwmcc", ["mc", str(hwmcc), "--existential"], expect_no_fair_trace),
    ]


def _spec2aag_op(spec: Path, game: Path) -> Op:
    return Op("prep", ["spec2aag", str(spec), "-o", str(game)],
              expect_written(game, "new"))


def _just2safe_op(game: Path, window: Path, k: int) -> Op:
    return Op("prep", ["just2safe", str(game), "-o", str(window), "--k", str(k)],
              expect_written(window, "old"))


def _refute_op(game: Path) -> Op:
    """Model check a game with its controllables left free; the checker
    finds the violating moves."""
    return Op("refute", ["mc", str(game)], expect_mc(game, holds=False))


def _interleave(main: list[Op], side: list[Op]) -> list[Op]:
    """Spread ``side`` evenly through ``main``, keeping both orders.

    Short operations then sample the whole round rather than one stretch
    of it, which evens out the machine's speed drifting during a round.
    """
    keyed = [((i + 0.5) / len(main), op) for i, op in enumerate(main)]
    keyed += [((j + 0.5) / len(side), op) for j, op in enumerate(side)]
    return [op for _, op in sorted(keyed, key=lambda pair: pair[0])]


class Workload:
    """Generated inputs and the operations of one round.

    The constructor is the set-up step.  ``prepare`` computes expected
    answers that need the oracle; it runs once, untimed, before the first
    round.  With ``tiny`` a workload builds a seconds-long variant for
    the benchmark's tests.
    """

    def prepare(self) -> None:
        pass

    def ops(self, out: Path) -> list[Op]:
        raise NotImplementedError


class Stress8(Workload):
    """The 8-letter stress game; fixed, so the seed has no effect."""

    def __init__(self, seed: int, inputs: Path, tiny: bool = False):
        self.spec, self.max_code = write_stress_spec(4 if tiny else 8, inputs)

    def ops(self, out: Path) -> list[Op]:
        game = out / "game.aag"
        windows = [out / f"game_k{k}.aag" for k in range(self.max_code + 1)]
        # the standard single-output games up to the minimal window
        prep = [_spec2aag_op(self.spec, game)]
        prep += [_just2safe_op(game, w, k) for k, w in enumerate(windows)]
        main = [Op("realize", ["synth", str(game), "--print-realizability-only"],
                   expect_realizability(True)),
                *_pipeline_ops(game, out, "game")]
        side = [_refute_op(w) for w in windows[:-1]] + [_refute_op(game)]
        return prep + _interleave(main, side)


class WindowSweep(Workload):
    """``huffman4`` and the 6-letter stress game; fixed, so the seed has
    no effect."""

    def __init__(self, seed: int, inputs: Path, tiny: bool = False):
        h4 = inputs / "huffman4"
        shutil.copytree(DATA / "huffman4", h4)
        self.specs = [("huffman4", h4 / "huffman4.smv", HUFFMAN4_MAX_CODE)]
        if not tiny:
            s6, s6_code = write_stress_spec(6, inputs / "huffman6")
            self.specs.append(("huffman6", s6, s6_code))

    def ops(self, out: Path) -> list[Op]:
        prep, sweep, side = [], [], []
        for stem, spec, max_code in self.specs:
            game = out / f"{stem}.aag"
            prep.append(_spec2aag_op(spec, game))
            for k in range(max_code + 2):
                window = out / f"{stem}_k{k}.aag"
                prep.append(_just2safe_op(game, window, k))
                sweep.append(Op("realize", ["synth", str(window),
                                            "--print-realizability-only"],
                                expect_realizability(k >= max_code)))
                if k < max_code:
                    side.append(_refute_op(window))
        # huffman4 at its minimal window, and with its justice objective,
        # which the minimal window's strategy already satisfies
        side += _pipeline_ops(out / f"huffman4_k{HUFFMAN4_MAX_CODE}.aag", out,
                              "huffman4_window", fmt="old")
        side += _pipeline_ops(out / "huffman4.aag", out, "huffman4")
        return prep + _interleave(sweep, side)


class SmallGames(Workload):
    """Random games drawn from the seed, 8 to 12 latches each.

    About twice as many candidates as the classes ask for are written;
    the rarest class fills after about three quarters of them.
    """

    def __init__(self, seed: int, inputs: Path, tiny: bool = False):
        self.classes = SMALL_CLASSES if not tiny else \
            {key: max(n // 50, 1) for key, n in SMALL_CLASSES.items()}
        rng = random.Random(seed)
        inputs.mkdir(parents=True, exist_ok=True)
        self.candidates = []
        for i in range(2 * sum(self.classes.values()) + 40):
            path = inputs / f"g{i}.aag"
            path.write_text(random_game_text(rng, n_latches=8 + i % 5))
            self.candidates.append(path)
        self.games: list[tuple[Path, bool, bool]] = []

    def prepare(self) -> None:
        """Classify candidates in order until every class is full."""
        wanted = dict(self.classes)
        for path in self.candidates:
            if not any(wanted.values()):
                break
            text = path.read_text()
            realizable = solve_explicit(read_aiger(text)).realizable
            closed_holds = solve_explicit(read_aiger(close_game(text))).realizable
            if wanted.get((realizable, closed_holds), 0) > 0:
                wanted[(realizable, closed_holds)] -= 1
                self.games.append((path, realizable, closed_holds))
        if any(wanted.values()):
            raise RuntimeError(f"candidate games ran out; still wanted {wanted}")

    def ops(self, out: Path) -> list[Op]:
        arbiter = out / "arbiter.aag"
        window = out / f"arbiter_k{ARBITER_WINDOW}.aag"
        ops = [
            _spec2aag_op(DATA / "arbiter" / "arbiter.smv", arbiter),
            _just2safe_op(arbiter, window, ARBITER_WINDOW),
            Op("realize", ["synth", str(window), "--print-realizability-only"],
               _expect_explicit(window)),
        ]
        for i, (game, realizable, closed_holds) in enumerate(self.games):
            ops.append(Op("realize", ["synth", str(game),
                                      "--print-realizability-only"],
                          expect_realizability(realizable)))
            if realizable:
                ops += _pipeline_ops(game, out, f"g{i}")
            else:
                ops.append(Op("synth", ["synth", str(game), "-o",
                                        str(out / f"g{i}_model.aag")],
                              expect_realizability(False)))
            ops.append(Op("refute", ["mc", str(game)],
                          expect_mc(game, closed_holds)))
        return ops


def _expect_explicit(game: Path) -> Check:
    """Realizability verdict on a file written earlier in the round,
    checked against the explicit oracle after the operation."""
    def check(rc: int, out: str, err: str) -> str | None:
        realizable = solve_explicit(read_aiger(game.read_text())).realizable
        return expect_realizability(realizable)(rc, out, err)
    return check


WORKLOADS = {"stress8": Stress8, "window-sweep": WindowSweep,
             "small-games": SmallGames}
