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
        """Record a node as read from a file, without folding or dedup."""
        if var in self._ands:
            raise AigError(f"AND node {var} defined twice")
        self._ands[var] = (rhs0, rhs1)
        if var > self.max_var:  # declare_var, inlined: it runs per gate read
            self.max_var = var
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

        AND operands, the bulk of a document, are checked inline; the
        message naming the gate is formatted only for one that fails.
        A gate must be defined after every gate it reads.
        """
        if self.fmt not in ("old", "new"):
            raise AigError(f"unknown format {self.fmt!r}")
        if self.fmt == "old" and (self.bad or self.constraints or self.justice):
            raise AigError("old format cannot carry bad/constraint/justice sections")
        ands = self.aig._ands
        defining = [lit_var(lit) for lit, _ in self.inputs]
        defining += [lit_var(lit) for lit, _, _ in self.latches]
        defining += ands
        defined = set(defining)
        defined.add(0)
        if len(defined) <= len(defining):  # some variable is defined twice
            seen = {0}
            for var in defining:
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
        above: set[int] = set()  # the gates defined so far
        for var, operands in ands.items():
            for rhs in operands:
                rhs_var = rhs >> 1
                if rhs_var > max_var or rhs_var not in defined:
                    _check_defined(rhs, f"AND {var}", max_var, defined)
                if rhs_var in ands and rhs_var not in above:
                    raise AigError(f"AND {var}: operand {rhs} is not topological")
            above.add(var)
        sections = (("latch next", [nxt for _, nxt, _ in self.latches]),
                    ("output", [lit for lit, _ in self.outputs]),
                    ("bad", [lit for lit, _ in self.bad]),
                    ("constraint", [lit for lit, _ in self.constraints]),
                    ("justice", [lit for group, _ in self.justice
                                 for lit in group]))
        for what, lits in sections:
            for lit in lits:
                _check_defined(lit, what, max_var, defined)


def sweep(doc: AigerDoc) -> AigerDoc:
    """The document without the AND gates that none of its literals read.

    The roots are the next-state, output, bad, constraint and justice
    literals.  Inputs and latches keep their variables; the live gates
    are renumbered above them in definition order, so each still follows
    its operands, on the document's own builder class.  A document with
    no dead gate is returned as it is.
    """
    roots = [nxt for _, nxt, _ in doc.latches]
    roots += [lit for lit, _ in doc.outputs + doc.bad + doc.constraints]
    roots += [lit for group, _ in doc.justice for lit in group]
    live = doc.aig.cone(roots)
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
    return AigerDoc(
        aig=aig, inputs=list(doc.inputs),
        latches=[(lit, lit_map(nxt), name) for lit, nxt, name in doc.latches],
        outputs=[(lit_map(lit), name) for lit, name in doc.outputs],
        bad=[(lit_map(lit), name) for lit, name in doc.bad],
        constraints=[(lit_map(lit), name) for lit, name in doc.constraints],
        justice=[([lit_map(lit) for lit in group], name)
                 for group, name in doc.justice],
        fmt=doc.fmt, comments=list(doc.comments))


def _check_defined(lit: int, what: str, max_var: int, defined: set[int]) -> None:
    if lit_var(lit) > max_var:
        raise AigError(f"{what}: literal {lit} out of range")
    if lit_var(lit) not in defined:
        raise AigError(f"{what}: literal {lit} is undefined")


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


def read_number(tok: str) -> int:
    """The number a token of ASCII digits states.

    A leading ``-`` is read too, so that a negative count or literal is
    reported as out of range; any other token, one with a ``+``, an
    underscore, a non-ASCII digit or space in it among them, raises
    ``ValueError`` with ``int``'s message.
    """
    digits = tok[1:] if tok[:1] == "-" else tok
    if not (digits.isdigit() and digits.isascii()):
        raise ValueError(f"invalid literal for int() with base 10: {tok!r}")
    return int(tok)


def _plain(lines: list[str]) -> bool:
    """No line holds a ``+``, an underscore or a non-ASCII character,
    the characters ``int`` reads in a number and ``read_number`` does
    not."""
    text = "\n".join(lines)
    return text.isascii() and "+" not in text and "_" not in text


def _parse_lit(tok: str, what: str, max_lit: int) -> int:
    try:
        lit = read_number(tok)
    except ValueError:
        raise AigError(f"{what}: not a literal: {tok!r}") from None
    if lit < 0 or lit > max_lit:
        raise AigError(f"{what}: literal {lit} out of range (max {max_lit})")
    return lit


def _parse_defining_lit(tok: str, what: str, max_lit: int,
                        role: str = "literal") -> int:
    lit = _parse_lit(tok, what, max_lit)
    if is_negated(lit) or lit == 0:
        raise AigError(f"{what}: {role} {lit} must be a positive even literal")
    return lit


def _parse_latch(parts: list[str], i: int, max_lit: int) -> tuple[int, int]:
    if len(parts) == 3:
        if parts[2] != "0":
            raise AigError(f"latch {i}: only reset value 0 is supported")
        parts = parts[:2]
    if len(parts) != 2:
        raise AigError(f"latch {i}: expected 'lit next'")
    return (_parse_defining_lit(parts[0], f"latch {i}", max_lit),
            _parse_lit(parts[1], f"latch {i} next", max_lit))


def _parse_and(parts: list[str], i: int, max_lit: int) -> tuple[int, int, int]:
    if len(parts) != 3:
        raise AigError(f"AND {i}: expected 'lhs rhs0 rhs1'")
    return (_parse_defining_lit(parts[0], f"AND {i}", max_lit, role="lhs"),
            _parse_lit(parts[1], f"AND {i}", max_lit),
            _parse_lit(parts[2], f"AND {i}", max_lit))


def _truncated(what: str) -> AigError:
    return AigError(f"unexpected end of file while reading {what}")


def read_aiger(text: str) -> AigerDoc:
    """Parse ASCII AIGER in one pass over its lines, then validate it.

    Each line is converted and range-checked inline.  A line failing
    that check is parsed again by the ``_parse_*`` helpers, which check
    its tokens in order and raise the first fault; they are the
    reference for what a valid line is.  A number is ASCII digits
    (``read_number``); ``int``, which converts inline, reads more, so
    each run of lines it converts is first checked in one piece
    (``_plain``), and a run that may hold such a token goes to the
    helpers whole.  A truncated section raises after the lines it does
    have are read, so an earlier fault wins.
    """
    lines = text.splitlines()
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
        nums = [int(f) for f in fields]
        # int() reads more than read_number does, so the header and the
        # lines converted inline below are checked in one piece
        plain = _plain(lines[:1 + sum(nums[1:4]) + sum(nums[5:8])])
        if not plain:
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
    # where a run of lines is not plain, fast_max fails every inline
    # range check in it, and the helpers read each line
    fast_max = max_lit if plain else -1

    end = pos + ni
    for i, line in enumerate(lines[pos:end]):
        try:
            lit = int(line)
        except ValueError:
            lit = 0
        if lit & 1 or not 0 < lit <= fast_max:
            lit = _parse_defining_lit(line.strip(), f"input {i}", max_lit)
        doc.inputs.append((lit, None))
    if end > n_lines:
        raise _truncated("inputs")
    pos = end

    end = pos + nl
    for i, line in enumerate(lines[pos:end]):
        parts = line.split()
        try:
            lit, nxt = map(int, parts)
            valid = not lit & 1 and 0 < lit <= fast_max and 0 <= nxt <= max_lit
        except ValueError:
            valid = False
        if not valid:
            lit, nxt = _parse_latch(parts, i, max_lit)
        doc.latches.append((lit, nxt, None))
    if end > n_lines:
        raise _truncated("latches")
    pos = end

    for count, entries, what, section in (
            (no, doc.outputs, "output", "outputs"), (nb, doc.bad, "bad", "bad"),
            (nc, doc.constraints, "constraint", "constraints")):
        end = pos + count
        for i, line in enumerate(lines[pos:end]):
            try:
                lit = int(line)
            except ValueError:
                lit = -1
            if not 0 <= lit <= fast_max:
                lit = _parse_lit(line.strip(), f"{what} {i}", max_lit)
            entries.append((lit, None))
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
        group = []
        for line in lines[pos:pos + size]:
            group.append(_parse_lit(line.strip(), f"justice {i}", max_lit))
        if pos + size > n_lines:
            raise _truncated("justice literals")
        pos += size
        doc.justice.append((group, None))

    end = pos + na
    fast_max = max_lit if _plain(lines[pos:end]) else -1
    add_and = doc.aig.add_and_raw
    for i, line in enumerate(lines[pos:end]):
        parts = line.split()
        try:
            lhs, rhs0, rhs1 = map(int, parts)
            valid = not lhs & 1 and 0 < lhs <= fast_max and \
                0 <= rhs0 <= max_lit and 0 <= rhs1 <= max_lit
        except ValueError:
            valid = False
        if not valid:
            lhs, rhs0, rhs1 = _parse_and(parts, i, max_lit)
        add_and(lhs >> 1, rhs0, rhs1)
    if end > n_lines:
        raise _truncated("AND nodes")
    pos = end

    sections = {"i": doc.inputs, "l": doc.latches, "o": doc.outputs,
                "b": doc.bad, "c": doc.constraints, "j": doc.justice}
    ascii_text = text.isascii()  # then isdigit() means ASCII digits
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
        tok = line[1:sep]
        try:
            idx = int(tok) if tok.isdigit() and ascii_text \
                else read_number(tok)
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
