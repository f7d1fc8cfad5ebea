"""Reduced ordered binary decision diagrams.

Design: a fixed static variable order, the order of ``add_var`` calls,
no complement edges, no reordering and no garbage collection, so runs
are deterministic and a node id identifies a boolean function for the
manager's lifetime.  Terminals are node 0 (false) and node 1 (true).
A manager never reorders.  ``sift`` makes a few finished diagrams
smaller by reordering a private copy of them and returns that copy; the
strategy translation reads it, and nothing else does.

The node record.  A node is one tuple ``(level, lo, hi)``: ``_nodes[n]``
holds it, and the very same tuple object is the key of ``n`` in the
unique table ``_unique`` (Brace, Rudell & Bryant, DAC 1990), so a node
is stored once.  Every reader unpacks the record.  The terminals'
records carry a level greater than any variable's, and their children
are themselves.

Operation caches.  ``_ite`` keys on the triple of node ids ``(f, g,
h)`` in a cache of two generations, a young dict and an old one.  A
lookup that misses the young dict reads the old one and, on a hit,
copies the entry into the young one.  ``age`` makes the young dict the
old one and starts an empty young one, so an entry is dropped at the
second ``age`` after it was last made or read.  ``age`` also records
the node count, and a lookup reads the old dict only when f, g and h
are all below it: an old key was made or read before that ``age``, so
it holds only nodes made before it.  On stress8 synthesis that skips
146 893 of 188 386 old lookups.  The game solver ages
the cache once per pass of its outer fixpoint.  Every other operation keeps its
entries for the manager's lifetime in one shared cache, ``_cache``, so
their keys must never be equal; each has its own key shape: ``_neg``
the bare node id, ``_compose`` the pair ``(f, sub_id)``, where
``sub_id`` is the small per-manager id of a ``Substitution``,
``_quantify`` ``(f, exists, levels)`` with a frozenset last, and
``_restrict`` ``(f, c, "r")`` with a string last.

Dropping an ``_ite`` entry never changes a node id.  Every operation is
a pure function of node ids, and no node is ever freed, so an entry
recomputes to the node it held, and every node that recomputation meets
is already in the unique table: it was made when the entry was first
computed.  A dropped entry costs time, never a different node, node
count or output.

A substitution used over and over, such as a transition function, is
made once as a ``Substitution``; a plain mapping passed to
``BddRef.compose`` is interned on each call.  ``_compose`` returns a
node below the deepest substituted level as it is, making no cache
entry, so a cofactor or a one-bit substitution walks only the levels
above it.  ``_ite`` first rewrites ``ite(f, f, h)`` to ``ite(f, 1, h)``
and ``ite(f, g, f)`` to ``ite(f, g, 0)`` (Brace, Rudell & Bryant, DAC
1990), so equal calls share one cache entry, and it resolves terminal
cofactor triples without a recursive call.

Every recursion here is at most as deep as the number of variables.
Callers build a diagram one connective at a time; ``game.Encoding``
translates a circuit gate by gate in one loop.

One manager per thread; handles must never cross managers.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

_TERMINAL_LEVEL = 1 << 30


class BddError(Exception):
    pass


class BddManager:
    def __init__(self) -> None:
        # _nodes[n] is node n's record (level, lo, hi), and that same
        # tuple is n's key in _unique; slots 0/1 are the terminals
        self._nodes: list[tuple[int, int, int]] = [
            (_TERMINAL_LEVEL, 0, 0), (_TERMINAL_LEVEL, 1, 1)]
        self._unique: dict[tuple[int, int, int], int] = {}
        # the two generations of _ite's cache, and the lifetime cache of
        # every other operation; see the module docstring
        self._ite_young: dict[tuple[int, int, int], int] = {}
        self._ite_old: dict[tuple[int, int, int], int] = {}
        self._ite_mark = 0  # node count at the last age()
        self._cache: dict[int | tuple, int] = {}
        self._sub_ids: dict[tuple[tuple[int, int], ...], int] = {}
        self._var_count = 0

    # variables ---------------------------------------------------------

    def add_var(self) -> "BddRef":
        """A new variable, at the level below every existing one."""
        self._var_count += 1
        return BddRef(self, self._mk(self._var_count - 1, 0, 1))

    @property
    def var_count(self) -> int:
        return self._var_count

    def var(self, level: int) -> "BddRef":
        if not 0 <= level < self._var_count:
            raise BddError(f"unknown variable level {level}")
        return BddRef(self, self._mk(level, 0, 1))

    @property
    def true(self) -> "BddRef":
        return BddRef(self, 1)

    @property
    def false(self) -> "BddRef":
        return BddRef(self, 0)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    @property
    def ite_cache_sizes(self) -> tuple[int, int]:
        """Entries of ``_ite``'s young and old cache generations."""
        return len(self._ite_young), len(self._ite_old)

    def age(self) -> None:
        """Start a new generation of ``_ite``'s cache.

        Entries neither made nor read since the call before this one are
        dropped; node ids stay what they are (see the module docstring).
        The node count now bounds every node of an old key.
        """
        self._ite_old = self._ite_young
        self._ite_young = {}
        self._ite_mark = len(self._nodes)

    def cube(self, assignment: Mapping[int, bool]) -> "BddRef":
        """The conjunction of the literals ``level = value``."""
        node = 1
        for level, value in sorted(assignment.items(), reverse=True):
            node = self._mk(level, 0, node) if value else self._mk(level, node, 0)
        return BddRef(self, node)

    # core construction ---------------------------------------------------

    def _mk(self, level: int, lo: int, hi: int) -> int:
        if lo == hi:
            return lo
        key = (level, lo, hi)
        node = self._unique.get(key)
        if node is None:
            node = len(self._nodes)
            self._nodes.append(key)
            self._unique[key] = node
        return node

    def _ite(self, f: int, g: int, h: int) -> int:
        if g == f:
            g = 1  # ite(f, f, h) = ite(f, 1, h)
        if h == f:
            h = 0  # ite(f, g, f) = ite(f, g, 0)
        if f <= 1:
            return g if f else h
        if g == h:
            return g
        if g == 1 and h == 0:
            return f
        key = (f, g, h)
        cache = self._ite_young
        cached = cache.get(key)
        if cached is not None:
            return cached
        mark = self._ite_mark
        if f < mark and g < mark and h < mark:  # else no old key holds it
            cached = self._ite_old.get(key)
            if cached is not None:
                cache[key] = cached  # promoted: read in this generation
                return cached
        nodes = self._nodes
        lf, f0, f1 = nodes[f]
        lg, g0, g1 = nodes[g]
        lh, h0, h1 = nodes[h]
        v = lf if lf < lg else lg
        if lh < v:
            v = lh
        if lf != v:
            f0 = f1 = f
        if lg != v:
            g0 = g1 = g
        if lh != v:
            h0 = h1 = h
        # terminal cofactor triples are resolved here, not by a call
        if f0 <= 1:
            lo = g0 if f0 else h0
        elif g0 == h0:
            lo = g0
        else:
            lo = self._ite(f0, g0, h0)
        if f1 <= 1:
            hi = g1 if f1 else h1
        elif g1 == h1:
            hi = g1
        else:
            hi = self._ite(f1, g1, h1)
        if lo == hi:
            r = lo
        else:
            # _mk's unique-table lookup, inlined on the hottest path
            ukey = (v, lo, hi)
            r = self._unique.get(ukey)
            if r is None:
                r = len(nodes)
                nodes.append(ukey)
                self._unique[ukey] = r
        cache[key] = r
        return r

    def _neg(self, f: int) -> int:
        if f <= 1:
            return 1 - f
        cached = self._cache.get(f)
        if cached is not None:
            return cached
        level, lo, hi = self._nodes[f]
        r = self._mk(level, self._neg(lo), self._neg(hi))
        self._cache[f] = r
        return r

    # quantification ------------------------------------------------------

    def _quantify(self, f: int, levels: frozenset[int], exists: bool,
                  last: int) -> int:
        """Quantify ``levels`` out of f; ``last`` is the deepest of them."""
        if f <= 1:
            return f
        v, lo, hi = self._nodes[f]
        if v > last:
            return f
        key = (f, exists, levels)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        lo = self._quantify(lo, levels, exists, last)
        hi = self._quantify(hi, levels, exists, last)
        if v in levels:
            if exists:
                r = self._ite(lo, 1, hi)  # lo | hi
            else:
                r = self._ite(lo, hi, 0)  # lo & hi
        else:
            r = self._mk(v, lo, hi)
        self._cache[key] = r
        return r

    # composition ---------------------------------------------------------

    def _compose(self, f: int, sub: dict[int, int], sub_id: int,
                 last: int) -> int:
        """Substitute into f; ``last`` is the deepest substituted level.

        A node below ``last`` reads no substituted variable and is its
        own result, as in CUDD's vector compose, so the walk and the
        cache entries stop there.
        """
        if f <= 1:
            return f
        key = (f, sub_id)
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        v, lo, hi = self._nodes[f]
        if v > last:
            return f
        lo = self._compose(lo, sub, sub_id, last)
        hi = self._compose(hi, sub, sub_id, last)
        g = sub.get(v)
        if g is None:
            g = self._mk(v, 0, 1)
        r = self._ite(g, hi, lo)
        self._cache[key] = r
        return r

    # generalized cofactor -------------------------------------------------

    def _restrict(self, f: int, c: int) -> int:
        """A function that agrees with f wherever c holds.

        Coudert & Madre's ``restrict`` (ICCAD 1990): where one branch of
        the care set is empty, the other branch of f is taken, and a
        variable of c that f does not read is quantified out of c, so
        the support of the result is a subset of f's.  Outside c the
        result is whatever makes it small; with c false it is false.
        """
        if c == 1 or f <= 1:
            return f
        if c == 0:
            return 0
        if f == c:
            return 1
        key = (f, c, "r")
        cached = self._cache.get(key)
        if cached is not None:
            return cached
        nodes = self._nodes
        v, f0, f1 = nodes[f]
        lc, c0, c1 = nodes[c]
        while lc < v:  # f does not read c's top variable
            c = self._ite(c0, 1, c1)
            lc, c0, c1 = nodes[c]
        if lc != v:
            c0 = c1 = c
        if c == 1:
            r = f
        elif c0 == 0:
            r = self._restrict(f1, c1)
        elif c1 == 0:
            r = self._restrict(f0, c0)
        else:
            r = self._mk(v, self._restrict(f0, c0), self._restrict(f1, c1))
        self._cache[key] = r
        return r

    # inspection ------------------------------------------------------------

    def _dag(self, f: int) -> set[int]:
        """The internal nodes reachable from f."""
        nodes = self._nodes
        seen: set[int] = set()
        stack = [f]
        while stack:
            n = stack.pop()
            if n > 1 and n not in seen:
                seen.add(n)
                _, lo, hi = nodes[n]
                stack.append(lo)
                stack.append(hi)
        return seen

    def _eval(self, f: int, assignment) -> bool:
        nodes = self._nodes
        while f > 1:
            level, lo, hi = nodes[f]
            f = hi if assignment[level] else lo
        return f == 1


class BddRef:
    """Handle to a node; valid while its manager lives."""

    __slots__ = ("mgr", "node")

    def __init__(self, mgr: BddManager, node: int):
        self.mgr = mgr
        self.node = node

    def _lift(self, other: "BddRef") -> int:
        if other.mgr is not self.mgr:
            raise BddError("mixing BDDs from different managers")
        return other.node

    def __eq__(self, other) -> bool:
        return isinstance(other, BddRef) and other.mgr is self.mgr \
            and other.node == self.node

    def __hash__(self) -> int:
        return hash((id(self.mgr), self.node))

    def __repr__(self) -> str:
        return f"BddRef({self.node})"

    @property
    def is_true(self) -> bool:
        return self.node == 1

    @property
    def is_false(self) -> bool:
        return self.node == 0

    @property
    def is_terminal(self) -> bool:
        return self.node <= 1

    @property
    def level(self) -> int:
        if self.is_terminal:
            raise BddError("terminal node has no variable")
        return self.mgr._nodes[self.node][0]

    # operators ---------------------------------------------------------

    def __invert__(self) -> "BddRef":
        return BddRef(self.mgr, self.mgr._neg(self.node))

    def __and__(self, other: "BddRef") -> "BddRef":
        return BddRef(self.mgr, self.mgr._ite(self.node, self._lift(other), 0))

    def __or__(self, other: "BddRef") -> "BddRef":
        return BddRef(self.mgr, self.mgr._ite(self.node, 1, self._lift(other)))

    def __xor__(self, other: "BddRef") -> "BddRef":
        g = self._lift(other)
        return BddRef(self.mgr, self.mgr._ite(self.node, self.mgr._neg(g), g))

    def ite(self, g: "BddRef", h: "BddRef") -> "BddRef":
        return BddRef(self.mgr,
                      self.mgr._ite(self.node, self._lift(g), self._lift(h)))

    # quantification -------------------------------------------------------

    def exists(self, levels: Iterable[int]) -> "BddRef":
        levels = frozenset(levels)
        if not levels:
            return self
        return BddRef(self.mgr, self.mgr._quantify(self.node, levels, True,
                                                   max(levels)))

    def forall(self, levels: Iterable[int]) -> "BddRef":
        levels = frozenset(levels)
        if not levels:
            return self
        return BddRef(self.mgr, self.mgr._quantify(self.node, levels, False,
                                                   max(levels)))

    def compose(self, submap: Mapping[int, "BddRef"]) -> "BddRef":
        """Simultaneous substitution of variables by functions.

        ``submap`` is a plain mapping or a ``Substitution`` of this
        manager.
        """
        if not submap:
            return self
        if not isinstance(submap, Substitution):
            submap = Substitution(self.mgr, submap)
        elif submap.mgr is not self.mgr:
            raise BddError("mixing BDDs from different managers")
        return BddRef(self.mgr, self.mgr._compose(self.node, submap.nodes,
                                                  submap.sub_id, submap.last))

    def restrict(self, care: "BddRef") -> "BddRef":
        """A function equal to this one wherever ``care`` holds, usually
        smaller, over a subset of this one's variables."""
        return BddRef(self.mgr, self.mgr._restrict(self.node, self._lift(care)))

    def cofactor(self, level: int, value: bool) -> "BddRef":
        target = self.mgr.true if value else self.mgr.false
        return self.compose({level: target})

    # inspection -------------------------------------------------------------

    def support(self) -> frozenset[int]:
        nodes = self.mgr._nodes
        return frozenset(nodes[n][0] for n in self.mgr._dag(self.node))

    def evaluate(self, assignment) -> bool:
        """``assignment`` maps variable level to bool (list or dict)."""
        return self.mgr._eval(self.node, assignment)

    def sat_one(self) -> dict[int, bool] | None:
        """One satisfying partial assignment, deterministically chosen."""
        if self.is_false:
            return None
        out: dict[int, bool] = {}
        nodes = self.mgr._nodes
        n = self.node
        while n > 1:
            level, lo, hi = nodes[n]
            out[level] = lo == 0
            n = hi if lo == 0 else lo
        return out

    def dag_size(self) -> int:
        return len(self.mgr._dag(self.node)) + 2


# A diagram of fewer nodes than this (``dag_size``) is carried forward as
# it is: on it neither a frontier (``frontier``) nor the model checker's
# one-step test of the initial state (``mc._rings``) pays for itself.
SMALL_DIAGRAM_NODES = 64


def frontier(ring: BddRef, inner: BddRef) -> BddRef:
    """What a growing iteration has to carry forward from ``ring``.

    ``inner ⊆ ring`` is the iterate before ``ring``.  The frontier is
    ``restrict(ring, ¬inner)`` (Coudert, Berthet & Madre, 1989): it
    agrees with ``ring`` outside ``inner`` and is usually smaller.
    Either it or ``ring`` itself lies between ``ring ∧ ¬inner`` and
    ``ring``, so an operation that distributes over ∨ (a pre-image, a
    composition, an ∃), taken of it and joined with its value on
    ``inner``, gives its value on ``ring``.

    ``ring`` itself is returned where a frontier cannot pay: when the
    ring has fewer than ``SMALL_DIAGRAM_NODES`` nodes.  The ring shares
    the sub-diagrams of ``inner``, whose compositions are cached, where
    the frontier's nodes are mostly new, and the frontier costs a
    negation and a ``restrict`` of its own; on small models, where
    nearly every ring has fewer than 64 nodes, frontiers made 2-5 % more
    nodes.  The frontier is taken on every larger ring, even one it
    does not shrink.
    """
    if ring.dag_size() < SMALL_DIAGRAM_NODES:
        return ring
    return ring.restrict(~inner)


class Substitution(Mapping):
    """A read-only map from levels to functions, interned in its manager.

    ``sub_id`` is a small id naming the substitution for the manager's
    lifetime; equal maps get the same id, so ``_compose`` cache entries
    are shared between them.  ``last`` is the deepest substituted level,
    -1 when the map is empty.
    """

    __slots__ = ("mgr", "_refs", "nodes", "sub_id", "last")

    def __init__(self, mgr: BddManager, submap: Mapping[int, BddRef]):
        self.mgr = mgr
        self._refs = dict(submap)
        self.nodes = {lvl: ref.node for lvl, ref in self._refs.items()}
        self.last = max(self.nodes, default=-1)
        key = tuple(sorted(self.nodes.items()))
        self.sub_id = mgr._sub_ids.setdefault(key, len(mgr._sub_ids))

    def __getitem__(self, level: int) -> BddRef:
        return self._refs[level]

    def __iter__(self):
        return iter(self._refs)

    def __len__(self) -> int:
        return len(self._refs)


def postorder(nodes: Sequence[tuple[int, int, int]],
              roots: Iterable[int]) -> list[tuple[int, int, int, int]]:
    """The internal nodes reachable from ``roots`` as records ``(node,
    level, lo, hi)``, each after both its children.

    ``nodes[n]`` is node n's record ``(level, lo, hi)``, as in
    ``BddManager._nodes`` and ``_SiftTable.nodes``, and nodes 0 and 1
    are the terminals.  The order is a depth-first walk of the roots in
    turn, the high branch before the low one, made with an explicit
    stack.  Sizes and supports, which need no order, use
    ``BddManager._dag``: it visits a node in about a third of the time.
    """
    out: list[tuple[int, int, int, int]] = []
    seen: set[int] = set()
    for root in roots:
        stack = [root]
        while stack:
            n = stack.pop()
            if n < 0:  # both children are done
                out.append((~n, *nodes[~n]))
            elif n > 1 and n not in seen:
                seen.add(n)
                _, lo, hi = nodes[n]
                stack += (~n, lo, hi)
    return out


# A sifted variable stops going one way once the diagram has grown past
# this factor of the smallest size seen (CUDD's default ``maxGrowth``).
SIFT_MAX_GROWTH = 1.2


class Sifted(NamedTuple):
    records: list[tuple[int, int, int, int]]  # the diagram, by ``postorder``
    roots: list[int]  # the node of each root in ``records``
    static_size: int  # internal nodes of the roots' shared diagram as given
    size: int  # internal nodes of the sifted diagram
    swaps: int  # adjacent-level swaps made to find it


def sift(mgr: BddManager, roots: Sequence[BddRef]) -> Sifted:
    """The roots' shared diagram, reordered to be small.

    Rudell's sifting ("Dynamic variable ordering for ordered binary
    decision diagrams", ICCAD 1993) on a private copy of the diagram:
    each variable of the roots' support, the one with the most nodes
    first, is moved level by level to the nearer end of the order, then
    to the other end, and left where the diagram was smallest.  A
    direction is abandoned once the diagram is larger than
    ``SIFT_MAX_GROWTH`` times the smallest size seen, and a variable
    moves only where that makes the diagram strictly smaller.  The
    result is deterministic.

    The copy is returned as sifting leaves it: the reduced diagram of
    the roots' functions in the order found.  Its records carry the
    manager's levels, and each record's level lies above its children's
    in that order, which is the manager's own when no move shrinks the
    diagram.  A node keeps its function through every swap, so the
    roots' nodes stay valid.  The manager itself is never reordered.
    """
    for root in roots:
        if root.mgr is not mgr:
            raise BddError("mixing BDDs from different managers")
    table = _SiftTable(mgr._nodes, [root.node for root in roots])
    static_size = table.size
    for level in sorted(table.order, key=lambda lvl: -len(table.unique[lvl])):
        table.sift(level)
    return Sifted(postorder(table.nodes, table.roots), table.roots,
                  static_size, table.size, table.swaps)


class _SiftTable:
    """The private copy ``sift`` reorders.

    Node n is the record ``nodes[n] = (level, lo, hi)`` of
    ``BddManager._nodes``'s shape, with the manager's level of its
    variable, and ``refs[n]`` counts its parents and roots; nodes 0 and
    1 are the terminals.  ``unique[level]`` maps the record of each live
    node of that level to the node.  ``order`` lists the support's
    levels top first, and ``pos[level]`` is a level's position in it.
    ``roots`` are the copies of the roots given.
    """

    def __init__(self, nodes: Sequence[tuple[int, int, int]],
                 roots: Sequence[int]):
        records = postorder(nodes, roots)
        self.order = sorted({level for _, level, _, _ in records})
        self.pos = {level: i for i, level in enumerate(self.order)}
        self.unique: dict[int, dict[tuple[int, int, int], int]] = \
            {level: {} for level in self.order}
        self.nodes = [(_TERMINAL_LEVEL, 0, 0), (_TERMINAL_LEVEL, 1, 1)]
        self.refs = [0, 0]
        self.size = self.swaps = 0
        copy = {0: 0, 1: 1}
        for n, level, lo, hi in records:
            copy[n] = self._mk(level, copy[lo], copy[hi])
        self.roots = [copy[root] for root in roots]
        for root in self.roots:
            self.refs[root] += 1

    def _mk(self, level: int, lo: int, hi: int) -> int:
        """The node of this level with these children, made if it is
        new; the caller counts the reference it takes."""
        if lo == hi:
            return lo
        key = (level, lo, hi)
        n = self.unique[level].get(key)
        if n is None:
            n = len(self.nodes)
            self.nodes.append(key)
            self.refs.append(0)
            self.refs[lo] += 1
            self.refs[hi] += 1
            self.unique[level][key] = n
            self.size += 1
        return n

    def swap(self, i: int) -> None:
        """Exchange the levels at positions i and i + 1 in place.

        A node of the upper level x that reads the lower one y keeps
        its id and becomes a node of y over new or shared nodes of x;
        every other node keeps its record (Rudell 1993).  Only a node of
        y can lose its last parent here, and its children do not: the
        new nodes of x read them.
        """
        x, y = self.order[i], self.order[i + 1]
        nodes, refs = self.nodes, self.refs
        ux, uy = self.unique[x], self.unique[y]
        moved = [(key, n) for key, n in ux.items()
                 if nodes[key[1]][0] == y or nodes[key[2]][0] == y]
        for key, _ in moved:
            del ux[key]
        for (_, f0, f1), n in moved:
            l0, f00, f01 = nodes[f0]
            if l0 != y:
                f00 = f01 = f0
            l1, f10, f11 = nodes[f1]
            if l1 != y:
                f10 = f11 = f1
            g0 = self._mk(x, f00, f10)
            g1 = self._mk(x, f01, f11)
            refs[g0] += 1
            refs[g1] += 1
            nodes[n] = key = (y, g0, g1)
            uy[key] = n
            for f in (f0, f1):  # the old children lose n as a parent
                if f > 1:
                    refs[f] -= 1
                    if not refs[f]:  # a node of y
                        _, lo, hi = dead = nodes[f]
                        del uy[dead]
                        refs[lo] -= 1
                        refs[hi] -= 1
                        self.size -= 1
        self.order[i], self.order[i + 1] = y, x
        self.pos[x], self.pos[y] = i + 1, i
        self.swaps += 1

    def sift(self, level: int) -> None:
        """Move a level to the position where the diagram is smallest."""
        last = len(self.order) - 1
        start = self.pos[level]
        best_size, best_pos = self.size, start
        ends = (0, last) if start <= last - start else (last, 0)
        for end in ends:
            step = 1 if end > self.pos[level] else -1
            while self.pos[level] != end:
                here = self.pos[level]
                self.swap(min(here, here + step))
                if self.size < best_size:
                    best_size, best_pos = self.size, self.pos[level]
                elif self.size > SIFT_MAX_GROWTH * best_size:
                    break
        while self.pos[level] != best_pos:
            here = self.pos[level]
            self.swap(here if best_pos > here else here - 1)
