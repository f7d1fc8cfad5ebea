"""The explicit-state oracle: winning regions by enumerated states.

``solve_explicit`` computes the winning region of the full objective by
literal fixpoint iteration over enumerated states; it is the reference
implementation the symbolic game solver is tested against.  It lives
apart from ``mc`` so that the command-line tool, which never runs it,
does not import numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .aiger import AigerDoc, lit_var
from .mc import McError


@dataclass
class ExplicitResult:
    latch_names: list[str]
    states: np.ndarray          # sorted int64 state codes
    winning: np.ndarray         # bool per state
    realizable: bool
    mode: str

    def winning_set(self) -> set[int]:
        return set(int(s) for s in self.states[self.winning])

    def is_winning(self, state_code: int) -> bool:
        idx = int(np.searchsorted(self.states, state_code))
        if idx >= len(self.states) or self.states[idx] != state_code:
            return False
        return bool(self.winning[idx])


class _ExplicitCircuit:
    """Vectorized evaluation of a document over batches of state codes."""

    def __init__(self, doc: AigerDoc):
        self.doc = doc
        self.latch_bit = {lit_var(lit): i
                          for i, (lit, _, _) in enumerate(doc.latches)}
        u_inputs = [lit for lit, _ in doc.uncontrollable_inputs()]
        c_inputs = [lit for lit, _ in doc.controllable_inputs()]
        self.nu = len(u_inputs)
        self.nc = len(c_inputs)
        # combo index = u_value * 2^nc + c_value
        self.input_bit = {}
        for i, lit in enumerate(u_inputs):
            self.input_bit[lit_var(lit)] = self.nc + i
        for i, lit in enumerate(c_inputs):
            self.input_bit[lit_var(lit)] = i
        self.n_combos = 1 << (self.nu + self.nc)
        self.bad_lits, self.constraint_lits, self.just_lit = doc.checked_lits()

    def eval_combo(self, states: np.ndarray, combo: int) -> dict[int, np.ndarray]:
        """Values of every variable as bool arrays over the state batch."""
        values: dict[int, np.ndarray] = {0: np.zeros(len(states), dtype=bool)}
        for var, bit in self.latch_bit.items():
            values[var] = ((states >> bit) & 1).astype(bool)
        for var, bit in self.input_bit.items():
            values[var] = np.full(len(states), bool((combo >> bit) & 1))
        for var, rhs0, rhs1 in self.doc.aig.nodes():
            v0 = values[lit_var(rhs0)]
            if rhs0 & 1:
                v0 = ~v0
            v1 = values[lit_var(rhs1)]
            if rhs1 & 1:
                v1 = ~v1
            values[var] = v0 & v1
        return values

    @staticmethod
    def _lit_array(values: dict[int, np.ndarray], lit: int) -> np.ndarray:
        arr = values[lit_var(lit)]
        return ~arr if lit & 1 else arr

    _CHUNK = 1 << 15

    def step_table(self, states: np.ndarray):
        """(next_code, bad, inv, just) arrays of shape [n_combos, len(states)].

        Evaluation runs in state chunks to bound transient memory.
        """
        n = len(states)
        next_code = np.zeros((self.n_combos, n), dtype=np.int64)
        bad = np.zeros((self.n_combos, n), dtype=bool)
        inv = np.ones((self.n_combos, n), dtype=bool)
        just = np.ones((self.n_combos, n), dtype=bool)
        for start in range(0, n, self._CHUNK):
            chunk = states[start:start + self._CHUNK]
            sl = slice(start, start + len(chunk))
            for combo in range(self.n_combos):
                values = self.eval_combo(chunk, combo)
                code = np.zeros(len(chunk), dtype=np.int64)
                for i, (_, next_lit, _) in enumerate(self.doc.latches):
                    code |= self._lit_array(values, next_lit).astype(np.int64) << i
                next_code[combo, sl] = code
                acc = np.zeros(len(chunk), dtype=bool)
                for lit in self.bad_lits:
                    acc |= self._lit_array(values, lit)
                bad[combo, sl] = acc
                acc = np.ones(len(chunk), dtype=bool)
                for lit in self.constraint_lits:
                    acc &= self._lit_array(values, lit)
                inv[combo, sl] = acc
                if self.just_lit is not None:
                    just[combo, sl] = self._lit_array(values, self.just_lit)
        return next_code, bad, inv, just


def _discover_states(circ: _ExplicitCircuit, max_states: int) -> np.ndarray:
    known = np.array([0], dtype=np.int64)
    frontier = known
    while len(frontier):
        next_code, bad, inv, just = circ.step_table(frontier)
        # moves on which the output fires lose immediately; their
        # successors cannot matter for the verdict
        successors = next_code[~bad]
        new = np.setdiff1d(np.unique(successors), known, assume_unique=False)
        if len(new) == 0:
            break
        known = np.union1d(known, new)
        if len(known) > max_states:
            raise McError(
                f"state space too large: more than {max_states} reachable states")
        frontier = new
    return known


def solve_explicit(doc: AigerDoc, max_states: int = 4096,
                   mode: str = "full") -> ExplicitResult:
    """Winning region of the full objective by explicit fixpoint iteration.

    ``mode``: "full" enumerates every latch valuation, and
    "safe_reachable" (old format only) the states reachable without an
    output-raising move; both agree on the verdict at the initial state.
    """
    circ = _ExplicitCircuit(doc)
    n_latches = len(doc.latches)
    if mode == "full":
        if (1 << n_latches) > max_states:
            raise McError(
                f"state space too large: 2^{n_latches} states exceeds {max_states}")
        states = np.arange(1 << n_latches, dtype=np.int64)
    elif mode == "safe_reachable":
        if doc.fmt != "old":
            raise McError("safe_reachable mode applies to old-format documents")
        states = _discover_states(circ, max_states)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    next_code, bad, inv, just = circ.step_table(states)
    next_idx = np.searchsorted(states, next_code)
    # successors outside the enumerated set only occur behind losing moves
    outside = (next_idx >= len(states)) | (states[np.minimum(
        next_idx, len(states) - 1)] != next_code)
    next_idx = np.minimum(next_idx, len(states) - 1).astype(np.int32)

    if circ.just_lit is None:
        just_state = np.ones(len(states), dtype=bool)
    else:
        if not (just == just[0]).all():
            raise McError(
                "justice literal depends on inputs; delay it into a latch first")
        just_state = just[0]

    shape = (1 << circ.nu, 1 << circ.nc, len(states))
    next_idx = next_idx.reshape(shape)
    bad = bad.reshape(shape)
    inv = inv.reshape(shape)
    outside = outside.reshape(shape)

    def cpre(target: np.ndarray) -> np.ndarray:
        tgt = target[next_idx] & ~outside
        ok = ~inv | (~bad & tgt)
        return ok.any(axis=1).all(axis=0)

    z = np.ones(len(states), dtype=bool)
    while True:
        core = just_state & z
        y = np.zeros(len(states), dtype=bool)
        while True:
            y_next = cpre(core | y)
            if (y_next == y).all():
                break
            y = y_next
        if (y == z).all():
            break
        z = y

    init_idx = int(np.searchsorted(states, 0))
    realizable = bool(states[init_idx] == 0 and z[init_idx])
    return ExplicitResult(latch_names=doc.latch_names(), states=states,
                          winning=z, realizable=realizable, mode=mode)
