"""Büchi automata in the GFF file format, validation, and monitor compilation.

The GFF subset honored here: ``stateSet/state`` (document order fixes
the state encoding), ``initialStateSet``, ``transitionSet/transition``
with ``from``/``to``/``label`` children, an ``alphabet`` of
propositions, and ``acc type="buchi"``.  Labels are either ``True`` or
a space-separated conjunction of literals with ``~`` for negation.
Unknown elements are ignored with a warning.

Validation completes an automaton with a rejecting trap state, checks
determinism, optionally complements by swapping the acceptance set, and
enforces the per-role restrictions: guarantees must be deterministic,
assumptions must describe safety properties.
"""

from __future__ import annotations

import logging
import xml.etree.ElementTree as ET
from dataclasses import dataclass, replace
from itertools import combinations

log = logging.getLogger(__name__)

KNOWN_ELEMENTS = {
    "structure", "alphabet", "prop", "stateSet", "state",
    "initialStateSet", "stateID", "transitionSet", "transition",
    "from", "to", "label", "acc", "name", "description", "formula",
    "properties",
}

TRAP_ID = "__trap"


class AutomatonError(Exception):
    pass


@dataclass(frozen=True)
class Label:
    """Conjunction of literals; both sets empty means True."""

    pos: frozenset[str] = frozenset()
    neg: frozenset[str] = frozenset()

    def __post_init__(self):
        clash = self.pos & self.neg
        if clash:
            raise AutomatonError(
                f"label uses {sorted(clash)} both positively and negatively")

    @property
    def is_true(self) -> bool:
        return not self.pos and not self.neg

    def props(self) -> frozenset[str]:
        return self.pos | self.neg

    def overlaps(self, other: "Label") -> bool:
        """True when some assignment satisfies both conjunctions."""
        return not (self.pos & other.neg) and not (self.neg & other.pos)

    def matches(self, assignment: dict[str, bool]) -> bool:
        return all(assignment[p] for p in self.pos) and \
            not any(assignment[p] for p in self.neg)

    def __str__(self) -> str:
        if self.is_true:
            return "True"
        lits = sorted(self.pos) + ["~" + p for p in sorted(self.neg)]
        return " ".join(lits)


def parse_label(text: str | None) -> Label:
    text = (text or "").strip()
    if text in ("True", "true", ""):
        return Label()
    pos: set[str] = set()
    neg: set[str] = set()
    for tok in text.split():
        if tok in ("True", "true"):
            raise AutomatonError(f"cannot mix True with literals: {text!r}")
        if tok.startswith("~"):
            name = tok[1:]
            target = neg
        else:
            name = tok
            target = pos
        if not name or not all(c.isalnum() or c in "_." for c in name):
            raise AutomatonError(f"unparsable label literal {tok!r}")
        target.add(name)
    return Label(pos=frozenset(pos), neg=frozenset(neg))


@dataclass(frozen=True)
class BuchiAutomaton:
    states: tuple[str, ...]  # document order
    initial: str
    alphabet_props: frozenset[str]
    transitions: tuple[tuple[str, Label, str], ...]
    accepting: frozenset[str]

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise AutomatonError("duplicate state ids")
        if self.initial not in self.states:
            raise AutomatonError(f"initial state {self.initial!r} undeclared")
        for src, label, dst in self.transitions:
            if src not in self.states or dst not in self.states:
                raise AutomatonError(
                    f"transition {src!r}->{dst!r} uses unknown state")
            extra = label.props() - self.alphabet_props
            if extra:
                raise AutomatonError(
                    f"transition {src!r}->{dst!r} uses propositions outside "
                    f"the alphabet: {sorted(extra)}")
        for state in sorted(self.accepting):
            if state not in self.states:
                raise AutomatonError(f"accepting state {state!r} undeclared")

    def outgoing(self, state: str) -> list[tuple[Label, str]]:
        return [(label, dst) for src, label, dst in self.transitions
                if src == state]

    def run(self, word: list[dict[str, bool]]) -> list[str]:
        """The unique run on a word; requires determinism and completeness."""
        state = self.initial
        visited = [state]
        for letter in word:
            enabled = [dst for label, dst in self.outgoing(state)
                       if label.matches(letter)]
            if len(enabled) != 1:
                raise AutomatonError(
                    f"state {state!r} has {len(enabled)} enabled transitions "
                    f"for {letter}")
            state = enabled[0]
            visited.append(state)
        return visited


def parse_gff(text: str) -> BuchiAutomaton:
    """Parse a GFF (XML) automaton description."""
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        raise AutomatonError(f"malformed XML: {exc}") from None
    for elem in root.iter():
        if elem.tag not in KNOWN_ELEMENTS:
            log.warning("ignoring unknown GFF element <%s>", elem.tag)

    states: list[str] = []
    for st in root.iter("state"):
        sid = st.get("sid")
        if sid is None:
            raise AutomatonError("<state> without sid attribute")
        states.append(sid)

    initial_ids = [sid.text.strip()
                   for iss in root.iter("initialStateSet")
                   for sid in iss.iter("stateID") if sid.text]
    if len(initial_ids) != 1:
        raise AutomatonError(
            f"expected exactly one initial state, found {len(initial_ids)}")

    props: set[str] = set()
    for p in root.iter("prop"):
        if p.text and p.text.strip():
            props.add(p.text.strip())

    transitions: list[tuple[str, Label, str]] = []
    for tr in root.iter("transition"):
        src = tr.findtext("from")
        dst = tr.findtext("to")
        if src is None or dst is None:
            raise AutomatonError("<transition> without <from>/<to>")
        label = parse_label(tr.findtext("label"))
        transitions.append((src.strip(), label, dst.strip()))
        props |= label.props()

    acc = root.find("acc")
    if acc is None:
        raise AutomatonError("missing <acc> element")
    acc_type = acc.get("type", "")
    if acc_type.lower() != "buchi":
        raise AutomatonError(f"unsupported acceptance type {acc_type!r}")
    accepting = frozenset(e.text.strip() for e in acc.iter("stateID") if e.text)

    return BuchiAutomaton(
        states=tuple(states),
        initial=initial_ids[0],
        alphabet_props=frozenset(props),
        transitions=tuple(transitions),
        accepting=accepting,
    )


# validation ----------------------------------------------------------


def _missing_cubes(labels: list[Label], props: list[str]) -> list[Label]:
    """Disjoint cubes over ``props`` matched by none of ``labels``."""

    def go(remaining: list[str], pos: frozenset[str], neg: frozenset[str],
           active: list[Label]) -> list[Label]:
        if not active:
            return [Label(pos=pos, neg=neg)]
        if any(l.pos <= pos and l.neg <= neg for l in active):
            return []
        for p in remaining:
            if any(p in l.props() for l in active):
                rest = [q for q in remaining if q != p]
                out = []
                sub = [l for l in active if p not in l.neg]
                out += go(rest, pos | {p}, neg, sub)
                sub = [l for l in active if p not in l.pos]
                out += go(rest, pos, neg | {p}, sub)
                return out
        # no active label constrains the remaining props, none satisfied fully
        raise AssertionError("unreachable: undecided labels without free props")

    return go(list(props), frozenset(), frozenset(), list(labels))


def complete(aut: BuchiAutomaton) -> BuchiAutomaton:
    """Add a rejecting trap with a True self-loop for all missing letters.

    The trap is added only when some state lacks a letter, so some
    state steps into it and ``validate_for_role`` keeps it, even when
    the initial state cannot reach it.
    """
    trap = TRAP_ID
    k = 0
    while trap in aut.states:
        k += 1
        trap = f"{TRAP_ID}{k}"
    props = sorted(aut.alphabet_props)
    transitions = list(aut.transitions)
    trap_used = False
    for state in aut.states:
        labels = [label for label, _ in aut.outgoing(state)]
        for cube in _missing_cubes(labels, props):
            transitions.append((state, cube, trap))
            trap_used = True
    if not trap_used:
        return aut
    transitions.append((trap, Label(), trap))
    return replace(aut, states=aut.states + (trap,),
                   transitions=tuple(transitions))


def check_deterministic(aut: BuchiAutomaton) -> None:
    for state in aut.states:
        out = aut.outgoing(state)
        for (l1, d1), (l2, d2) in combinations(out, 2):
            if l1.overlaps(l2):
                raise AutomatonError(
                    f"nondeterministic: state {state!r} enables both "
                    f"[{l1}] -> {d1!r} and [{l2}] -> {d2!r}; determinize the "
                    f"automaton offline and retry")


def _is_trap(aut: BuchiAutomaton, state: str) -> bool:
    """Rejecting, and its only move is a True self-loop."""
    if state in aut.accepting:
        return False
    out = aut.outgoing(state)
    return len(out) == 1 and out[0][0].is_true and out[0][1] == state


def _find_trap(aut: BuchiAutomaton) -> str | None:
    return next((s for s in aut.states if _is_trap(aut, s)), None)


def _successors(aut: BuchiAutomaton) -> dict[str, list[str]]:
    succ: dict[str, list[str]] = {s: [] for s in aut.states}
    for src, _, dst in aut.transitions:
        succ[src].append(dst)
    return succ


def _reachable(succ: dict[str, list[str]], frontier: list[str]) -> set[str]:
    seen = set(frontier)
    todo = list(frontier)
    while todo:
        for dst in succ[todo.pop()]:
            if dst not in seen:
                seen.add(dst)
                todo.append(dst)
    return seen


def _cyclic_sccs(aut: BuchiAutomaton) -> list[frozenset[str]]:
    """The strongly connected components that hold a cycle.

    A state lies on a cycle exactly when it reaches itself in one or
    more steps; its component is the set of states it reaches that also
    reach it back.  Components come in the document order of their
    first state.  One search per state: O(n·(n+T)) for n states and T
    transitions, and automata have a handful of states.
    """
    succ = _successors(aut)
    reach = {s: _reachable(succ, succ[s]) for s in aut.states}
    sccs: list[frozenset[str]] = []
    covered: set[str] = set()
    for s in aut.states:
        if s in reach[s] and s not in covered:
            scc = frozenset(t for t in reach[s] if s in reach[t])
            covered |= scc
            sccs.append(scc)
    return sccs


def _prune_unreachable_trap(aut: BuchiAutomaton) -> BuchiAutomaton:
    """Drop a trap that is not initial and that no other state steps into.

    A state that steps into the trap, reachable or not, would lose those
    letters with it and stop being complete.
    """
    trap = _find_trap(aut)
    if trap is None or trap == aut.initial or any(
            d == trap and s != trap for s, _, d in aut.transitions):
        return aut
    return replace(
        aut,
        states=tuple(s for s in aut.states if s != trap),
        transitions=tuple((s, l, d) for s, l, d in aut.transitions
                          if s != trap and d != trap))


def check_safety(aut: BuchiAutomaton, what: str) -> None:
    """Safety shape: acceptance only ever stops by falling into a trap.

    Every state reachable from an accepting state must be accepting or
    a trap, and the only cycles through rejecting states are the trap
    self-loops.  ``to_monitor`` marks every trap bad.
    """
    traps = {s for s in aut.states if _is_trap(aut, s)}
    for src, _, dst in aut.transitions:
        if src in aut.accepting and dst not in aut.accepting | traps:
            raise AutomatonError(
                f"{what}: accepting state {src!r} steps to rejecting "
                f"non-trap state {dst!r}, so this is not a safety property")
    for scc in _cyclic_sccs(aut):
        rejecting = scc - aut.accepting - traps
        if rejecting:
            raise AutomatonError(
                f"{what}: cycle through rejecting state(s) "
                f"{sorted(rejecting)}, so this is not a safety property")


def validate_for_role(aut: BuchiAutomaton, role: str,
                      negated: bool = False) -> BuchiAutomaton:
    """Complete, determinism-check, optionally complement, enforce role.

    ``role`` is "guarantee" or "assumption".  Negation swaps the
    acceptance set, which complements the language only for
    deterministic, complete automata without a cycle mixing accepting
    and rejecting states; anything else is rejected.
    """
    if role not in ("guarantee", "assumption"):
        raise ValueError(f"unknown role {role!r}")
    aut = complete(aut)
    check_deterministic(aut)
    if negated:
        for scc in _cyclic_sccs(aut):
            if scc & aut.accepting and scc - aut.accepting:
                raise AutomatonError(
                    f"cannot negate by acceptance swap: the cycle through "
                    f"{sorted(scc)} mixes accepting and rejecting states, so "
                    f"the swapped automaton would not recognize the complement")
        aut = replace(aut, accepting=frozenset(aut.states) - aut.accepting)
        # the swap may have created a fresh trap or removed the old one
    aut = _prune_unreachable_trap(aut)
    if role == "assumption":
        check_safety(aut, "assumption")
    return aut


# monitors ------------------------------------------------------------


@dataclass(frozen=True)
class Monitor:
    """Binary-encoded deterministic automaton with bad/fair state sets.

    ``fair`` holds in accepting states; ``bad`` holds in rejecting
    states whose only behavior is a True self-loop (the completion
    trap).  ``bad`` states are sinks, so the flag is absorbing.
    """

    state_ids: tuple[str, ...]
    init_index: int
    props: tuple[str, ...]
    table: tuple[tuple[tuple[Label, int], ...], ...]
    bad_states: frozenset[int]
    fair_states: frozenset[int]

    @property
    def n_states(self) -> int:
        return len(self.state_ids)

    @property
    def state_bits(self) -> int:
        return max(self.n_states - 1, 0).bit_length()

    @property
    def init_code(self) -> tuple[int, ...]:
        return tuple((self.init_index >> i) & 1 for i in range(self.state_bits))

    def step(self, state: int, assignment: dict[str, bool]) -> int:
        enabled = [dst for label, dst in self.table[state]
                   if label.matches(assignment)]
        if len(enabled) != 1:
            raise AutomatonError(
                f"monitor state {state} has {len(enabled)} enabled moves")
        return enabled[0]

    @property
    def fair_nontrivial(self) -> bool:
        """True when some live (non-bad) state is not accepting."""
        return any(i not in self.fair_states and i not in self.bad_states
                   for i in range(self.n_states))


def to_monitor(aut: BuchiAutomaton) -> Monitor:
    """Encode a validated, deterministic, complete automaton.

    States are numbered in document order from 0 and packed into
    ceil(log2 n) bits.
    """
    props = sorted(aut.alphabet_props)
    index = {s: i for i, s in enumerate(aut.states)}
    for state in aut.states:
        labels = [l for l, _ in aut.outgoing(state)]
        if _missing_cubes(labels, props):
            raise AutomatonError(
                f"state {state!r} is not complete; validate the automaton first")
    check_deterministic(aut)
    table = tuple(
        tuple((label, index[dst]) for label, dst in aut.outgoing(state))
        for state in aut.states)
    bad = frozenset(index[s] for s in aut.states if _is_trap(aut, s))
    fair = frozenset(index[s] for s in aut.accepting)
    monitor = Monitor(
        state_ids=aut.states,
        init_index=index[aut.initial],
        props=tuple(props),
        table=table,
        bad_states=bad,
        fair_states=fair,
    )
    assert not (monitor.bad_states & monitor.fair_states)
    return monitor
