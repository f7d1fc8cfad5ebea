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

    Only synthesized models (``game.strategy_to_circuit``) are built on
    ``TwoLevelAig``, which adds the two-level rules of Brummayer and
    Biere: contradiction, idempotence, subsumption, substitution and
    resolution.  The game producers (``spec2aag``, ``just2safe``,
    ``synt2hwmcc``) and the reader keep this plain builder, since the
    rules pick other gates and so would change every file those write;
    ``sweep`` copies gates as they are.
    """

    def __init__(self) -> None:
        self.max_var = 0
        # var -> (rhs0, rhs1), in definition order
        self._ands: dict[int, tuple[int, int]] = {}
        self._hash: dict[tuple[int, int], int] = {}

    def new_var(self) -> int:
        self.max_var += 1
        return self.max_var

    def declare_var(self, var: int) -> None:
        if var > self.max_var:
            self.max_var = var

    def is_and(self, var: int) -> bool:
        return var in self._ands

    def cone(self, lits) -> set[int]:
        """The variables of ``lits`` and of every gate in their fan-in,
        found in one backward pass: a gate is defined after its operands."""
        seen = {lit >> 1 for lit in lits}
        for var, (rhs0, rhs1) in reversed(self._ands.items()):
            if var in seen:
                seen.add(rhs0 >> 1)
                seen.add(rhs1 >> 1)
        return seen

    def nodes(self):
        for var, (rhs0, rhs1) in self._ands.items():
            yield var, rhs0, rhs1

    @property
    def num_ands(self) -> int:
        return len(self._ands)

    def add_and_raw(self, var: int, rhs0: int, rhs1: int) -> None:
        """Record a node as read from a file, without folding or dedup.

        ``var`` must be declared already (``declare_var``, ``new_var``):
        the reader declares the header's M before any gate and bounds
        each gate by it, and ``sweep`` takes each gate from ``new_var``.
        """
        if var in self._ands:
            raise AigError(f"AND node {var} defined twice")
        self._ands[var] = (rhs0, rhs1)
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
        other = type(self).__new__(type(self))
        other.max_var = self.max_var
        other._ands = dict(self._ands)
        other._hash = dict(self._hash)
        return other


class TwoLevelAig(Aig):
    """An ``Aig`` whose ``and_`` also applies the local two-level rules
    of Brummayer and Biere ("Local Two-Level And-Inverter Graph
    Minimization without Blowup", MEMICS 2006).

    When an operand is itself an AND gate, plain or negated, the call
    is rewritten before it is hash-consed.  With ``p = x ∧ y``:

    - contradiction: ``p ∧ ¬x`` is 0, and ``p ∧ q`` is 0 when the
      operands of gate ``q`` contain the complement of ``x`` or ``y``;
    - idempotence: ``p ∧ x`` is ``p``, and ``p ∧ (x ∧ z)`` is ``p ∧ z``;
    - subsumption: ``¬p ∧ ¬x`` is ``¬x``, and ``¬p ∧ q`` is ``q`` when
      gate ``q`` reads the complement of ``x`` or ``y``;
    - substitution: ``¬p ∧ x`` is ``¬y ∧ x``, and ``¬p ∧ q`` is
      ``¬y ∧ q`` when gate ``q`` reads ``x``;
    - resolution: ``¬(x ∧ y) ∧ ¬(x ∧ ¬y)`` is ``¬x``.

    A rule returns an existing literal or makes one more ``and_`` call
    on an operand of a gate, which was defined before the gate, so the
    rewriting ends, and a call adds at most the one gate a plain call
    would.  Each gate holds the operands of a call on which no rule
    fired, so a pair already hashed is returned at once.
    """

    def and_(self, a: int, b: int) -> int:
        if a > b:
            a, b = b, a
        if a <= TRUE_LIT or a >> 1 == b >> 1 or (b, a) in self._hash:
            return super().and_(a, b)
        ga = self._ands.get(a >> 1)
        gb = self._ands.get(b >> 1)
        for p, gp, q in ((a, ga, b), (b, gb, a)):
            if gp is None:
                continue
            p0, p1 = gp
            if p & 1:  # ¬(p0 ∧ p1) ∧ q
                if q ^ 1 in gp:
                    return q  # subsumption
                if q == p0:
                    return self.and_(p1 ^ 1, q)  # substitution
                if q == p1:
                    return self.and_(p0 ^ 1, q)
            else:  # (p0 ∧ p1) ∧ q
                if q ^ 1 in gp:
                    return FALSE_LIT  # contradiction
                if q in gp:
                    return p  # idempotence
        if ga is None or gb is None:
            return super().and_(a, b)
        for p, gp, q, gq in ((a, ga, b, gb), (b, gb, a, ga)):
            for i in (0, 1):
                for j in (0, 1):
                    x, y = gp[i], gq[j]
                    if p & 1 == 0 and q & 1 == 0:  # (x ∧ _) ∧ (y ∧ _)
                        if x == y ^ 1:
                            return FALSE_LIT  # contradiction
                        if x == y:
                            return self.and_(p, gq[1 - j])  # idempotence
                    elif p & 1 and q & 1 == 0:  # ¬(x ∧ _) ∧ (y ∧ _)
                        if x == y ^ 1:
                            return q  # subsumption
                        if x == y:
                            return self.and_(gp[1 - i] ^ 1, q)  # substitution
                    elif p & 1 and q & 1:  # ¬(x ∧ _) ∧ ¬(y ∧ _)
                        if x == y and gp[1 - i] == gq[1 - j] ^ 1:
                            return x ^ 1  # resolution
        return super().and_(a, b)


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
        """A copy sharing nothing mutable: ``relabel`` of the identity on
        a copy of the graph; keywords replace whole fields."""
        return self.relabel(lambda lit: lit, self.aig.copy(), **changes)

    def relabel(self, f, aig: Aig, **changes) -> "AigerDoc":
        """A copy on graph ``aig`` in which every section literal ``lit``,
        of an input, a latch or its next state, an output, a bad signal,
        a constraint or a justice group, becomes ``f(lit)``; names and
        comments are kept, and keywords replace whole fields.

        Code that renumbers a document (``copy``, ``sweep``,
        ``game.strategy_to_circuit``) goes through it, so none of it
        lists the sections itself.
        """
        fields = dict(
            aig=aig, inputs=[(f(lit), name) for lit, name in self.inputs],
            latches=[(f(lit), f(nxt), name) for lit, nxt, name in self.latches],
            outputs=[(f(lit), name) for lit, name in self.outputs],
            bad=[(f(lit), name) for lit, name in self.bad],
            constraints=[(f(lit), name) for lit, name in self.constraints],
            justice=[([f(lit) for lit in group], name)
                     for group, name in self.justice],
            fmt=self.fmt, comments=list(self.comments))
        fields.update(changes)
        return AigerDoc(**fields)

    def section_lits(self) -> list[tuple[str, list[int]]]:
        """The literals the document reads, as ``(section, literals)``
        pairs in file order: latch next states, outputs, bad signals,
        constraints and justice groups.  ``validate`` names a fault by
        its section, and ``sweep`` and ``game.strategy_to_circuit`` take
        their live cones from these literals."""
        return [("latch next", [nxt for _, nxt, _ in self.latches]),
                ("output", [lit for lit, _ in self.outputs]),
                ("bad", [lit for lit, _ in self.bad]),
                ("constraint", [lit for lit, _ in self.constraints]),
                ("justice", [lit for group, _ in self.justice
                             for lit in group])]

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

    def checked_lits(self) -> tuple[list[int], list[int], int | None]:
        """The checked literals: (bad, constraints, justice literal).

        Old-format documents read their outputs as bad signals, with no
        constraints and no justice.
        """
        if self.fmt == "old":
            return [lit for lit, _ in self.outputs], [], None
        return ([lit for lit, _ in self.bad],
                [lit for lit, _ in self.constraints], self.justice_literal())

    def root_lits(self) -> list[int]:
        """The literals a symbolic model reads: next-state, then checked."""
        bad_lits, constraint_lits, jlit = self.checked_lits()
        roots = [nxt for _, nxt, _ in self.latches] + bad_lits + constraint_lits
        return roots if jlit is None else roots + [jlit]

    def validate(self) -> None:
        """Raise AigError at the first structural fault of the document.

        Each AND operand and each literal of ``section_lits`` is tested
        with one set lookup, the variables defined before it (the
        constant, the inputs, the latches and the gates above it), and
        one range test against ``max_var``; the message, which names the
        gate or the section, is formatted only for a literal that fails.
        So a gate must be defined after every gate it reads.
        """
        if self.fmt not in ("old", "new"):
            raise AigError(f"unknown format {self.fmt!r}")
        if self.fmt == "old" and (self.bad or self.constraints or self.justice):
            raise AigError("old format cannot carry bad/constraint/justice sections")
        ands = self.aig._ands
        defining = [lit >> 1 for lit, _ in self.inputs]
        defining += [lit >> 1 for lit, _, _ in self.latches]
        known = {0, *defining}
        if (len(known) <= len(defining)
                or not known.isdisjoint(ands)):  # a variable defined twice
            seen = {0}
            for var in defining + list(ands):
                if var in seen:
                    raise AigError(f"variable {var} is defined more than once")
                seen.add(var)

        for lit, _ in self.inputs:
            if is_negated(lit):
                raise AigError(f"input literal {lit} must be even")
        for lit, _, _ in self.latches:
            if is_negated(lit):
                raise AigError(f"latch literal {lit} must be even")
        max_var = self.aig.max_var
        for var, operands in ands.items():
            for rhs in operands:
                if rhs >> 1 not in known or rhs >> 1 > max_var:
                    raise _literal_fault(rhs, f"AND {var}", max_var, ands)
            known.add(var)
        for what, lits in self.section_lits():
            for lit in lits:
                if lit >> 1 not in known or lit >> 1 > max_var:
                    raise _literal_fault(lit, what, max_var, ands)


def sweep(doc: AigerDoc) -> AigerDoc:
    """The document without the AND gates that none of its literals read.

    The roots are the literals of ``doc.section_lits()``.  Inputs and
    latches keep their variables; the live gates are renumbered above
    them in definition order, so each still follows its operands, on the
    document's own builder class, and ``doc.relabel`` carries every
    section over.  A document with no dead gate is returned as it is.
    """
    live = doc.aig.cone(lit for _, lits in doc.section_lits() for lit in lits)
    if live.issuperset(doc.aig._ands):
        return doc
    aig = type(doc.aig)()
    aig.declare_var(max((lit_var(lit) for lit, *_ in doc.inputs + doc.latches),
                        default=0))
    var_map: dict[int, int] = {}  # live gate -> its new variable

    def lit_map(lit: int) -> int:
        var = lit >> 1
        return 2 * var_map.get(var, var) | (lit & 1)

    for var, rhs0, rhs1 in doc.aig.nodes():
        if var in live:
            var_map[var] = new = aig.new_var()
            aig.add_and_raw(new, lit_map(rhs0), lit_map(rhs1))
    return doc.relabel(lit_map, aig)


def _literal_fault(lit: int, what: str, max_var: int, ands) -> AigError:
    """The fault of a literal read before its variable is defined."""
    if lit >> 1 > max_var:
        return AigError(f"{what}: literal {lit} out of range")
    if lit >> 1 not in ands:
        return AigError(f"{what}: literal {lit} is undefined")
    return AigError(f"{what}: operand {lit} is not topological")


# the symbol table's line prefix of each named section, in file order
SYMBOL_PREFIXES = (("i", "inputs"), ("l", "latches"), ("o", "outputs"),
                   ("b", "bad"), ("c", "constraints"), ("j", "justice"))


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
    for prefix, section in SYMBOL_PREFIXES:
        for pos, entry in enumerate(getattr(doc, section)):
            name = entry[-1]
            if name is not None:
                lines.append(f"{prefix}{pos} {name}")
    if doc.comments:
        lines.append("c")
        lines.extend(doc.comments)
    return "\n".join(lines) + "\n"


def read_number(tok: str) -> int:
    """The number a token of ASCII digits states.

    A leading ``-`` is read too, so that a negative count or literal is
    reported as out of range; any other token, one with a ``+``, an
    underscore, a non-ASCII digit or space in it among them, raises
    ``ValueError`` with ``int``'s message.
    """
    digits = tok.removeprefix("-")
    if not (digits.isdigit() and digits.isascii()):
        raise ValueError(f"invalid literal for int() with base 10: {tok!r}")
    return int(tok)


def _lit(tok: str, max_lit: int, what: str, i: int) -> int:
    """The literal a token of ASCII digits states, at most ``max_lit``.

    Any other token raises, naming its line ``what.format(i)``, a format
    only a failing token pays for.  A leading ``-`` is read
    (``read_number``), so a negative literal is reported out of range,
    and a token of more digits than ``int`` reads is not a literal.
    """
    try:
        lit = int(tok) if tok.isdigit() and tok.isascii() else read_number(tok)
    except ValueError:
        raise AigError(f"{what.format(i)}: not a literal: {tok!r}") from None
    if 0 <= lit <= max_lit:
        return lit
    raise AigError(f"{what.format(i)}: literal {lit} out of range (max {max_lit})")


def _not_defining(what: str, i: int, role: str, lit: int) -> AigError:
    return AigError(f"{what} {i}: {role} {lit} must be a positive even literal")


def _truncated(what: str) -> AigError:
    return AigError(f"unexpected end of file while reading {what}")


def read_aiger(text: str) -> AigerDoc:
    """Parse ASCII AIGER in one pass over its lines, then validate it.

    A line ends at ``\\n``; one ``\\r`` before it is dropped, so CRLF
    files read alike, and any other character, a lone ``\\r`` among
    them, belongs to its line: a symbol name or a comment may hold it.
    Every literal is read in file order by ``_lit``, which raises the
    first fault of its line; the counts of the header and of the
    justice groups and the symbol indices are read by ``read_number``.
    A truncated section raises after the lines it does have are read,
    so an earlier fault wins.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    n_lines = len(lines)
    if not lines:
        raise _truncated("header")
    header = lines[0].split()
    if not header or header[0] != "aag":
        raise AigError("not an ASCII AIGER file (missing 'aag' header)")
    fields = header[1:]
    if len(fields) < 5 or len(fields) > 9:
        raise AigError(f"malformed header: expected 5 to 9 counts, got {len(fields)}")
    try:
        nums = [read_number(f) for f in fields]
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

    doc = AigerDoc(fmt="new" if len(fields) > 5 else "old")
    doc.aig.declare_var(m)
    max_lit = 2 * m + 1
    pos = 1

    end = pos + ni
    for i, line in enumerate(lines[pos:end]):
        lit = _lit(line.strip(), max_lit, "input {}", i)
        if lit & 1 or not lit:
            raise _not_defining("input", i, "literal", lit)
        doc.inputs.append((lit, None))
    if end > n_lines:
        raise _truncated("inputs")
    pos = end

    end = pos + nl
    for i, line in enumerate(lines[pos:end]):
        parts = line.split()
        if len(parts) == 3:
            if parts[2] != "0":
                raise AigError(f"latch {i}: only reset value 0 is supported")
            del parts[2]
        if len(parts) != 2:
            raise AigError(f"latch {i}: expected 'lit next'")
        lit = _lit(parts[0], max_lit, "latch {}", i)
        if lit & 1 or not lit:
            raise _not_defining("latch", i, "literal", lit)
        doc.latches.append((lit, _lit(parts[1], max_lit, "latch {} next", i), None))
    if end > n_lines:
        raise _truncated("latches")
    pos = end

    for count, entries, what, section in (
            (no, doc.outputs, "output {}", "outputs"),
            (nb, doc.bad, "bad {}", "bad"),
            (nc, doc.constraints, "constraint {}", "constraints")):
        end = pos + count
        for i, line in enumerate(lines[pos:end]):
            entries.append((_lit(line.strip(), max_lit, what, i), None))
        if end > n_lines:
            raise _truncated(section)
        pos = end

    group_sizes = []
    for i in range(nj):
        if pos >= n_lines:
            raise _truncated("justice sizes")
        try:
            size = read_number(lines[pos].strip())
        except ValueError:
            size = -1
        if size < 0:
            raise AigError(f"justice group {i}: malformed size")
        group_sizes.append(size)
        pos += 1
    for i, size in enumerate(group_sizes):
        group = [_lit(line.strip(), max_lit, "justice {}", i)
                 for line in lines[pos:pos + size]]
        if pos + size > n_lines:
            raise _truncated("justice literals")
        pos += size
        doc.justice.append((group, None))

    end = pos + na
    add_and = doc.aig.add_and_raw
    for i, line in enumerate(lines[pos:end]):
        parts = line.split()
        if len(parts) != 3:
            raise AigError(f"AND {i}: expected 'lhs rhs0 rhs1'")
        lhs = _lit(parts[0], max_lit, "AND {}", i)
        if lhs & 1 or not lhs:
            raise _not_defining("AND", i, "lhs", lhs)
        add_and(lhs >> 1, _lit(parts[1], max_lit, "AND {}", i),
                _lit(parts[2], max_lit, "AND {}", i))
    if end > n_lines:
        raise _truncated("AND nodes")
    pos = end

    sections = {prefix: getattr(doc, section)
                for prefix, section in SYMBOL_PREFIXES}
    for k in range(pos, n_lines):
        line = lines[k]
        if line == "c":
            doc.comments = lines[k + 1:]
            break
        entries = sections.get(line[:1])
        if entries is None:
            raise AigError(f"unexpected line in symbol table: {line!r}")
        sep = line.find(" ", 1)
        if sep < 2:
            raise AigError(f"malformed symbol entry: {line!r}")
        try:
            idx = read_number(line[1:sep])
        except ValueError:
            raise AigError(f"malformed symbol entry: {line!r}") from None
        if idx < 0 or idx >= len(entries):
            raise AigError(f"symbol entry {line!r} out of range")
        entries[idx] = (*entries[idx][:-1], line[sep + 1:])

    doc.validate()
    return doc


class Simulator:
    """Step-wise evaluation of a document from the all-zero latch state."""

    def __init__(self, doc: AigerDoc):
        self.doc = doc
        self.latch_values = [False] * len(doc.latches)
        self._input_index = {name: i for i, (_, name) in enumerate(doc.inputs)
                             if name is not None}

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
