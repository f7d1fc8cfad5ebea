"""And-inverter graphs and the ASCII AIGER exchange format.

Literals follow the AIGER convention: variable v has literal 2*v, its
negation 2*v+1; literal 0 is constant false, literal 1 constant true.
Documents come in two flavours: the old format (header ``aag M I L O A``,
properties expressed through outputs) and the new format (header
``aag M I L O A B C J F`` with bad, invariant-constraint and justice
sections).  Latches always initialize to 0.

Graph construction is single-writer; a finished document is treated as
immutable and may be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass, field

FALSE_LIT = 0
TRUE_LIT = 1

CONTROLLABLE_PREFIX = "controllable_"


class AigError(Exception):
    pass


def is_controllable(name: str | None) -> bool:
    """The SYNTCOMP input partition: controllable iff the name has the prefix."""
    return name is not None and name.startswith(CONTROLLABLE_PREFIX)


def lit_var(lit: int) -> int:
    return lit >> 1


def is_negated(lit: int) -> bool:
    return bool(lit & 1)


class Aig:
    """AND-node table with structural hashing and constant folding.

    Nodes added through the build operations are hash-consed: the same
    ordered operand pair never creates two nodes, and trivial operands
    are folded away.  Nodes read from a file are recorded verbatim so a
    parsed document serializes back byte-identically.
    """

    def __init__(self) -> None:
        self.max_var = 0
        self._ands: dict[int, tuple[int, int]] = {}
        self._and_order: list[int] = []
        self._hash: dict[tuple[int, int], int] = {}

    def new_var(self) -> int:
        self.max_var += 1
        return self.max_var

    def declare_var(self, var: int) -> None:
        if var > self.max_var:
            self.max_var = var

    def is_and(self, var: int) -> bool:
        return var in self._ands

    def and_node(self, var: int) -> tuple[int, int]:
        return self._ands[var]

    def cone(self, lits) -> set[int]:
        """The variables of ``lits`` and of every gate in their fan-in."""
        ands = self._ands
        seen: set[int] = set()
        stack = [lit >> 1 for lit in lits]
        while stack:
            var = stack.pop()
            if var not in seen:
                seen.add(var)
                node = ands.get(var)
                if node is not None:
                    stack += (node[0] >> 1, node[1] >> 1)
        return seen

    def nodes(self):
        for var in self._and_order:
            rhs0, rhs1 = self._ands[var]
            yield var, rhs0, rhs1

    @property
    def num_ands(self) -> int:
        return len(self._and_order)

    def add_and_raw(self, var: int, rhs0: int, rhs1: int) -> None:
        """Record a node as read from a file, without folding or dedup."""
        if var in self._ands:
            raise AigError(f"AND node {var} defined twice")
        self._ands[var] = (rhs0, rhs1)
        self._and_order.append(var)
        self.declare_var(var)
        self._hash.setdefault((rhs0, rhs1), 2 * var)

    def and_(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        # a <= b from here on
        if a == FALSE_LIT:
            return FALSE_LIT
        if a == TRUE_LIT:
            return b
        if a == b:
            return a
        if a ^ 1 == b:
            return FALSE_LIT
        key = (b, a)
        cached = self._hash.get(key)
        if cached is not None:
            return cached
        var = self.new_var()
        self._ands[var] = key
        self._and_order.append(var)
        lit = 2 * var
        self._hash[key] = lit
        return lit

    def or_(self, a: int, b: int) -> int:
        return self.and_(a ^ 1, b ^ 1) ^ 1

    def xor_(self, a: int, b: int) -> int:
        return self.or_(self.and_(a, b ^ 1), self.and_(a ^ 1, b))

    def ite_(self, c: int, t: int, e: int) -> int:
        return self.or_(self.and_(c, t), self.and_(c ^ 1, e))

    def and_many(self, lits) -> int:
        out = TRUE_LIT
        for lit in lits:
            out = self.and_(out, lit)
        return out

    def or_many(self, lits) -> int:
        out = FALSE_LIT
        for lit in lits:
            out = self.or_(out, lit)
        return out

    def eq_const(self, bits: list[int], value: int) -> int:
        """True iff the bit-vector ``bits`` (least significant first) reads value."""
        return self.and_many(bit if (value >> i) & 1 else bit ^ 1
                             for i, bit in enumerate(bits))

    def copy(self) -> "Aig":
        other = Aig.__new__(Aig)
        other.max_var = self.max_var
        other._ands = dict(self._ands)
        other._and_order = list(self._and_order)
        other._hash = dict(self._hash)
        return other


@dataclass
class AigerDoc:
    """An AIG plus AIGER sectioning and symbol names.

    ``inputs`` are (literal, name) pairs; ``latches`` are
    (literal, next_literal, name); ``outputs``, ``bad`` and
    ``constraints`` are (literal, name); ``justice`` holds
    (literal_group, name) entries.  ``fmt`` is "old" or "new".
    """

    aig: Aig = field(default_factory=Aig)
    inputs: list[tuple[int, str | None]] = field(default_factory=list)
    latches: list[tuple[int, int, str | None]] = field(default_factory=list)
    outputs: list[tuple[int, str | None]] = field(default_factory=list)
    bad: list[tuple[int, str | None]] = field(default_factory=list)
    constraints: list[tuple[int, str | None]] = field(default_factory=list)
    justice: list[tuple[list[int], str | None]] = field(default_factory=list)
    fmt: str = "new"
    comments: list[str] = field(default_factory=list)

    def copy(self, **changes) -> "AigerDoc":
        """A copy sharing nothing mutable; keywords replace whole fields."""
        fields = dict(aig=self.aig.copy(), inputs=list(self.inputs),
                      latches=list(self.latches), outputs=list(self.outputs),
                      bad=list(self.bad), constraints=list(self.constraints),
                      justice=[(list(g), n) for g, n in self.justice],
                      fmt=self.fmt, comments=list(self.comments))
        fields.update(changes)
        return AigerDoc(**fields)

    def add_input(self, name: str | None = None) -> int:
        var = self.aig.new_var()
        lit = 2 * var
        self.inputs.append((lit, name))
        return lit

    def add_latch(self, name: str | None = None, next_lit: int = FALSE_LIT) -> int:
        var = self.aig.new_var()
        lit = 2 * var
        self.latches.append((lit, next_lit, name))
        return lit

    def set_latch_next(self, lit: int, next_lit: int) -> None:
        for i, (llit, _, name) in enumerate(self.latches):
            if llit == lit:
                self.latches[i] = (llit, next_lit, name)
                return
        raise AigError(f"no latch with literal {lit}")

    def input_names(self) -> list[str]:
        return [n or f"i{i}" for i, (_, n) in enumerate(self.inputs)]

    def latch_names(self) -> list[str]:
        return [n or f"l{i}" for i, (_, _, n) in enumerate(self.latches)]

    def controllable_inputs(self) -> list[tuple[int, str | None]]:
        return [(lit, n) for lit, n in self.inputs if is_controllable(n)]

    def uncontrollable_inputs(self) -> list[tuple[int, str | None]]:
        return [(lit, n) for lit, n in self.inputs if not is_controllable(n)]

    def justice_literal(self) -> int | None:
        """The single justice literal, or None when no justice section.

        The one place the supported shape is checked: at most one
        justice group, holding exactly one literal.
        """
        if not self.justice:
            return None
        if len(self.justice) > 1 or len(self.justice[0][0]) != 1:
            raise AigError("expected a single one-literal justice group")
        return self.justice[0][0][0]

    def validate(self) -> None:
        if self.fmt not in ("old", "new"):
            raise AigError(f"unknown format {self.fmt!r}")
        if self.fmt == "old" and (self.bad or self.constraints or self.justice):
            raise AigError("old format cannot carry bad/constraint/justice sections")
        defined = {0}
        defining = [lit_var(lit) for lit, _ in self.inputs]
        defining += [lit_var(lit) for lit, _, _ in self.latches]
        defining += [var for var, _, _ in self.aig.nodes()]
        for var in defining:
            if var in defined:
                raise AigError(f"variable {var} is defined more than once")
            defined.add(var)

        def check(lit: int, what: str) -> None:
            if lit_var(lit) > self.aig.max_var:
                raise AigError(f"{what}: literal {lit} out of range")
            if lit_var(lit) not in defined:
                raise AigError(f"{what}: literal {lit} is undefined")

        for lit, _ in self.inputs:
            if is_negated(lit):
                raise AigError(f"input literal {lit} must be even")
        for lit, _, _ in self.latches:
            if is_negated(lit):
                raise AigError(f"latch literal {lit} must be even")
        for var, rhs0, rhs1 in self.aig.nodes():
            for rhs in (rhs0, rhs1):
                check(rhs, f"AND {var}")
                if self.aig.is_and(lit_var(rhs)) and lit_var(rhs) >= var:
                    raise AigError(f"AND {var}: operand {rhs} is not topological")
        for _, next_lit, _ in self.latches:
            check(next_lit, "latch next")
        for lit, _ in self.outputs:
            check(lit, "output")
        for lit, _ in self.bad:
            check(lit, "bad")
        for lit, _ in self.constraints:
            check(lit, "constraint")
        for group, _ in self.justice:
            for lit in group:
                check(lit, "justice")


def write_aiger(doc: AigerDoc) -> str:
    doc.validate()
    aig = doc.aig
    lines: list[str] = []
    counts = [aig.max_var, len(doc.inputs), len(doc.latches),
              len(doc.outputs), aig.num_ands]
    if doc.fmt == "new":
        counts += [len(doc.bad), len(doc.constraints), len(doc.justice), 0]
    lines.append("aag " + " ".join(str(c) for c in counts))
    for lit, _ in doc.inputs:
        lines.append(str(lit))
    for lit, next_lit, _ in doc.latches:
        lines.append(f"{lit} {next_lit}")
    for lit, _ in doc.outputs:
        lines.append(str(lit))
    for lit, _ in doc.bad:
        lines.append(str(lit))
    for lit, _ in doc.constraints:
        lines.append(str(lit))
    for group, _ in doc.justice:
        lines.append(str(len(group)))
    for group, _ in doc.justice:
        for lit in group:
            lines.append(str(lit))
    for var, rhs0, rhs1 in aig.nodes():
        lines.append(f"{2 * var} {rhs0} {rhs1}")
    for prefix, entries in (("i", doc.inputs), ("l", doc.latches),
                            ("o", doc.outputs), ("b", doc.bad),
                            ("c", doc.constraints), ("j", doc.justice)):
        for pos, entry in enumerate(entries):
            name = entry[-1]
            if name is not None:
                lines.append(f"{prefix}{pos} {name}")
    if doc.comments:
        lines.append("c")
        lines.extend(doc.comments)
    return "\n".join(lines) + "\n"


def read_aiger(text: str) -> AigerDoc:
    raw_lines = text.splitlines()
    pos = 0

    def next_line(what: str) -> str:
        nonlocal pos
        if pos >= len(raw_lines):
            raise AigError(f"unexpected end of file while reading {what}")
        line = raw_lines[pos]
        pos += 1
        return line

    header = next_line("header").split()
    if not header or header[0] != "aag":
        raise AigError("not an ASCII AIGER file (missing 'aag' header)")
    fields = header[1:]
    if len(fields) < 5 or len(fields) > 9:
        raise AigError(f"malformed header: expected 5 to 9 counts, got {len(fields)}")
    try:
        nums = [int(f) for f in fields]
    except ValueError as exc:
        raise AigError(f"malformed header: {exc}") from None
    if any(n < 0 for n in nums):
        raise AigError("malformed header: negative count")
    nums += [0] * (9 - len(nums))
    m, ni, nl, no, na, nb, nc, nj, nf = nums
    if nf:
        raise AigError("fairness sections are not supported")
    if m < ni + nl + na:
        raise AigError(f"malformed header: M={m} smaller than I+L+A={ni + nl + na}")
    fmt = "new" if len(fields) > 5 else "old"

    doc = AigerDoc(fmt=fmt)
    doc.aig.declare_var(m)
    max_lit = 2 * m + 1

    def parse_lit(tok: str, what: str) -> int:
        try:
            lit = int(tok)
        except ValueError:
            raise AigError(f"{what}: not a literal: {tok!r}") from None
        if lit < 0 or lit > max_lit:
            raise AigError(f"{what}: literal {lit} out of range (max {max_lit})")
        return lit

    for i in range(ni):
        lit = parse_lit(next_line("inputs").strip(), f"input {i}")
        if is_negated(lit) or lit == 0:
            raise AigError(f"input {i}: literal {lit} must be a positive even literal")
        doc.inputs.append((lit, None))
    for i in range(nl):
        parts = next_line("latches").split()
        if len(parts) == 3:
            if parts[2] != "0":
                raise AigError(f"latch {i}: only reset value 0 is supported")
            parts = parts[:2]
        if len(parts) != 2:
            raise AigError(f"latch {i}: expected 'lit next'")
        lit = parse_lit(parts[0], f"latch {i}")
        if is_negated(lit) or lit == 0:
            raise AigError(f"latch {i}: literal {lit} must be a positive even literal")
        nxt = parse_lit(parts[1], f"latch {i} next")
        doc.latches.append((lit, nxt, None))
    for i in range(no):
        doc.outputs.append((parse_lit(next_line("outputs").strip(), f"output {i}"), None))
    for i in range(nb):
        doc.bad.append((parse_lit(next_line("bad").strip(), f"bad {i}"), None))
    for i in range(nc):
        doc.constraints.append((parse_lit(next_line("constraints").strip(), f"constraint {i}"), None))
    group_sizes = []
    for i in range(nj):
        try:
            group_sizes.append(int(next_line("justice sizes").strip()))
        except ValueError:
            raise AigError(f"justice group {i}: malformed size") from None
    for i, size in enumerate(group_sizes):
        group = [parse_lit(next_line("justice literals").strip(), f"justice {i}")
                 for _ in range(size)]
        doc.justice.append((group, None))
    for i in range(na):
        parts = next_line("AND nodes").split()
        if len(parts) != 3:
            raise AigError(f"AND {i}: expected 'lhs rhs0 rhs1'")
        lhs = parse_lit(parts[0], f"AND {i}")
        if is_negated(lhs) or lhs == 0:
            raise AigError(f"AND {i}: lhs {lhs} must be a positive even literal")
        rhs0 = parse_lit(parts[1], f"AND {i}")
        rhs1 = parse_lit(parts[2], f"AND {i}")
        doc.aig.add_and_raw(lit_var(lhs), rhs0, rhs1)

    sections = {"i": doc.inputs, "l": doc.latches, "o": doc.outputs,
                "b": doc.bad, "c": doc.constraints, "j": doc.justice}
    while pos < len(raw_lines):
        line = raw_lines[pos]
        if line == "c":
            pos += 1
            doc.comments = raw_lines[pos:]
            pos = len(raw_lines)
            break
        kind = line[:1]
        if kind not in sections:
            raise AigError(f"unexpected line in symbol table: {line!r}")
        body = line[1:]
        sep = body.find(" ")
        if sep < 1:
            raise AigError(f"malformed symbol entry: {line!r}")
        try:
            idx = int(body[:sep])
        except ValueError:
            raise AigError(f"malformed symbol entry: {line!r}") from None
        name = body[sep + 1:]
        entries = sections[kind]
        if idx < 0 or idx >= len(entries):
            raise AigError(f"symbol entry {line!r} out of range")
        entries[idx] = (*entries[idx][:-1], name)
        pos += 1

    doc.validate()
    return doc


class Simulator:
    """Step-wise evaluation of a document from the all-zero latch state."""

    def __init__(self, doc: AigerDoc):
        self.doc = doc
        self.latch_values = [False] * len(doc.latches)
        self._input_index = {name: i for i, (_, name) in enumerate(doc.inputs)
                             if name is not None}

    def reset(self) -> None:
        self.latch_values = [False] * len(self.doc.latches)

    def step(self, inputs) -> dict[int, bool]:
        """Evaluate one step and advance the latches.

        ``inputs`` is either a sequence of bools in input order or a
        mapping from input name to bool.  Returns the variable valuation
        of the step (before the latch update).
        """
        if isinstance(inputs, dict):
            vals = [False] * len(self.doc.inputs)
            for name, v in inputs.items():
                vals[self._input_index[name]] = bool(v)
        else:
            vals = [bool(v) for v in inputs]
            if len(vals) != len(self.doc.inputs):
                raise AigError("wrong number of input values")
        values = evaluate_vars(self.doc, self.latch_values, vals)
        self.latch_values = [values_lit(values, nxt)
                             for _, nxt, _ in self.doc.latches]
        return values


def evaluate_vars(doc: AigerDoc, latch_values, input_values) -> dict[int, bool]:
    """Valuation of every defined variable for one step."""
    values: dict[int, bool] = {0: False}
    for (lit, _), v in zip(doc.inputs, input_values):
        values[lit_var(lit)] = bool(v)
    for (lit, _, _), v in zip(doc.latches, latch_values):
        values[lit_var(lit)] = bool(v)
    for var, rhs0, rhs1 in doc.aig.nodes():
        values[var] = values_lit(values, rhs0) and values_lit(values, rhs1)
    return values


def values_lit(values: dict[int, bool], lit: int) -> bool:
    v = values[lit_var(lit)]
    return (not v) if is_negated(lit) else v
