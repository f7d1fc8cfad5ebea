"""Spans and counts around the package's public calls, from outside it.

``Tracer.install`` rebinds each traced function, in every ``aigsynt``
module that holds it, to a wrapper that records a span (name, start,
end, parent) while the tracer is active.  Counts are read at the same
boundaries: node and cache-entry counts of the game's decision-diagram
manager after each stage, sizes of the winning region and the strategy,
counterexample lengths, bytes of AIGER text.  Three counts are
reachable only through module-level names, which are wrapped too:
``game.cpre`` calls, managers constructed through the ``BddManager``
name of ``game`` and ``mc``, and ``mc._SymbolicModel.pre_exists`` calls.

A name missing from the package is skipped with a warning, and the
metrics that depend on it read 0.
"""

from __future__ import annotations

import importlib
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "smv", "automata", "circuit", "transforms", "aiger", "game", "mc")

# (module, attribute, span name); span names start with their layer
TRACED = [
    ("aigsynt.cli", "main", "cli.main"),
    ("aigsynt.smv.parser", "parse_smv", "smv.parse"),
    ("aigsynt.smv.resolve", "resolve", "smv.resolve"),
    ("aigsynt.smv.flatten", "flatten", "smv.flatten"),
    ("aigsynt.automata", "parse_gff", "automata.parse_gff"),
    ("aigsynt.automata", "validate_for_role", "automata.validate"),
    ("aigsynt.automata", "to_monitor", "automata.to_monitor"),
    ("aigsynt.circuit", "compile_model", "circuit.compile"),
    ("aigsynt.transforms", "justice_to_safety", "transforms.just2safe"),
    ("aigsynt.transforms", "reverse_justice", "transforms.reverse_justice"),
    ("aigsynt.aiger", "read_aiger", "aiger.read"),
    ("aigsynt.aiger", "write_aiger", "aiger.write"),
    ("aigsynt.game", "synthesize", "game.synthesize"),
    ("aigsynt.game", "build_game", "game.build"),
    ("aigsynt.game", "solve", "game.solve"),
    ("aigsynt.game", "cpre", "game.cpre"),
    ("aigsynt.game", "mu_levels", "game.mu_levels"),
    ("aigsynt.game", "extract_strategy", "game.extract"),
    ("aigsynt.game", "strategy_to_circuit", "game.to_circuit"),
    ("aigsynt.mc", "check_safety", "mc.safety"),
    ("aigsynt.mc", "check_justice_universal", "mc.justice"),
    ("aigsynt.mc", "find_fair_trace", "mc.fair"),
]

# per-layer metric -> span names whose summed durations it reports
SPAN_TIMES = {
    "game.build_s": ["game.build"],
    "game.solve_s": ["game.solve"],
    "game.cpre_s": ["game.cpre"],
    "game.extract_s": ["game.extract"],
    "game.mu_levels_s": ["game.mu_levels"],
    "game.to_circuit_s": ["game.to_circuit"],
    "mc.safety_s": ["mc.safety"],
    "mc.justice_s": ["mc.justice"],
    "mc.fair_s": ["mc.fair"],
    "transforms.just2safe_s": ["transforms.just2safe"],
    "transforms.reverse_justice_s": ["transforms.reverse_justice"],
    "aiger.read_s": ["aiger.read"],
    "aiger.write_s": ["aiger.write"],
    "smv.parse_s": ["smv.parse"],
    "smv.resolve_s": ["smv.resolve"],
    "smv.flatten_s": ["smv.flatten"],
    "automata.s": ["automata.parse_gff", "automata.validate",
                   "automata.to_monitor"],
    "circuit.compile_s": ["circuit.compile"],
}

COUNTS = (
    "game.cpre_calls", "game.winning_nodes", "game.strategy_nodes",
    "bdd.nodes.build", "bdd.nodes.solve", "bdd.nodes.extract",
    "bdd.cache.solve", "bdd.cache.extract", "bdd.managers",
    "mc.pre_exists_calls", "mc.nodes", "mc.trace_steps",
    "aiger.bytes", "automata.monitor_states",
    "circuit.game_ands", "circuit.game_latches",
)
PEAKS = ("bdd.rss_mb.solve", "bdd.rss_mb.extract")


def rss_mb() -> float:
    """Peak resident set size of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _cache_entries(mgr) -> int:
    # the operation cache has no public size accessor
    return len(getattr(mgr, "_cache", ()))


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.counts: dict[str, float] = defaultdict(int)
        # managers built during the current operation, released when it ends
        self.managers: list = []
        self._hooks = {
            "game.build": self._after_build,
            "game.solve": self._after_solve,
            "game.extract": self._after_extract,
            "mc.safety": self._after_check,
            "mc.justice": self._after_check,
            "mc.fair": self._after_check,
            "aiger.read": lambda res, args, mark: self._add(
                "aiger.bytes", len(args[0])),
            "aiger.write": lambda res, args, mark: self._add(
                "aiger.bytes", len(res)),
            "automata.to_monitor": lambda res, args, mark: self._add(
                "automata.monitor_states", res.n_states),
            "circuit.compile": self._after_compile,
        }

    # installation -----------------------------------------------------------

    def install(self) -> None:
        importlib.import_module("aigsynt.cli")  # loads every traced module
        for module_name, attr, span in TRACED:
            orig = getattr(sys.modules.get(module_name), attr, None)
            if orig is None:
                self._missing(f"{module_name}.{attr}")
                continue
            self._rebind(orig, self._wrap(orig, span))

        game, mc = sys.modules["aigsynt.game"], sys.modules["aigsynt.mc"]
        base = getattr(game, "BddManager", None)
        if base is None:
            self._missing("aigsynt.game.BddManager")
        else:
            tracer = self

            class CountingManager(base):
                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    if tracer.active:
                        tracer.counts["bdd.managers"] += 1
                        tracer.managers.append(self)

            for module in (game, mc):
                if getattr(module, "BddManager", None) is base:
                    module.BddManager = CountingManager

        model = getattr(mc, "_SymbolicModel", None)
        pre_exists = getattr(model, "pre_exists", None)
        if pre_exists is None:
            self._missing("aigsynt.mc._SymbolicModel.pre_exists")
        else:
            def counting_pre_exists(*args, **kwargs):
                if self.active:
                    self.counts["mc.pre_exists_calls"] += 1
                return pre_exists(*args, **kwargs)
            model.pre_exists = counting_pre_exists

    @staticmethod
    def _missing(name: str) -> None:
        print(f"perfbench: {name} not found; its layer metrics read 0",
              file=sys.stderr)

    @staticmethod
    def _rebind(orig, wrapper) -> None:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "aigsynt":
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, wrapper)

    def _wrap(self, fn, span: str):
        hook = self._hooks.get(span)

        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            mark = len(self.managers)
            index = len(self.spans)
            self.spans.append([span, time.perf_counter(), None,
                               self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._open.pop()
            if hook is not None:
                hook(result, args, mark)
            if not self._open:
                self.managers.clear()
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # counts -----------------------------------------------------------------

    def _add(self, name: str, value) -> None:
        self.counts[name] += value

    def _peak(self, name: str) -> None:
        self.counts[name] = max(self.counts[name], rss_mb())

    def _after_build(self, game, args, mark) -> None:
        self._add("bdd.nodes.build", game.mgr.node_count)

    def _after_solve(self, winning, args, mark) -> None:
        mgr = args[0].mgr
        self._add("game.winning_nodes", winning.dag_size())
        self._add("bdd.nodes.solve", mgr.node_count)
        self._add("bdd.cache.solve", _cache_entries(mgr))
        self._peak("bdd.rss_mb.solve")

    def _after_extract(self, strategy, args, mark) -> None:
        mgr = args[0].mgr
        self._add("game.strategy_nodes",
                  sum(f.dag_size() for f in strategy.funcs.values()))
        self._add("bdd.nodes.extract", mgr.node_count)
        self._add("bdd.cache.extract", _cache_entries(mgr))
        self._peak("bdd.rss_mb.extract")

    def _after_check(self, result, args, mark) -> None:
        self._add("mc.nodes", sum(m.node_count for m in self.managers[mark:]))
        if result.trace is not None:
            self._add("mc.trace_steps", len(result.trace.steps))

    def _after_compile(self, doc, args, mark) -> None:
        self._add("circuit.game_ands", doc.aig.num_ands)
        self._add("circuit.game_latches", len(doc.latches))

    # report -----------------------------------------------------------------

    @staticmethod
    def metric_names() -> list[str]:
        return (list(SPAN_TIMES) + [f"{layer}.self_s" for layer in LAYERS]
                + list(COUNTS) + list(PEAKS))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of everything recorded so far."""
        duration: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        calls: dict[str, int] = defaultdict(int)
        for name, start, end, parent in self.spans:
            duration[name] += end - start
            calls[name] += 1
            if parent >= 0:
                child_time[parent] += end - start
        self_time = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), children in zip(self.spans, child_time):
            self_time[name.split(".")[0]] += end - start - children

        values = dict(self.counts)
        values.update({metric: sum(duration[n] for n in names)
                       for metric, names in SPAN_TIMES.items()})
        values.update({f"{layer}.self_s": s for layer, s in self_time.items()})
        values["game.cpre_calls"] = calls["game.cpre"]
        return {name: values.get(name, 0) for name in self.metric_names()}
