"""Decision diagram engine against truth-table oracles."""

import graphlib
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from aigsynt.bdd import BddError, BddManager, Substitution, frontier, \
    postorder, sift


def fresh(n=5):
    mgr = BddManager()
    refs = [mgr.add_var() for _ in range(n)]
    return mgr, refs


# random formula evaluation -------------------------------------------------


@st.composite
def formulas(draw, n_vars=5, max_depth=4):
    def go(depth):
        if depth == 0 or draw(st.integers(0, 3)) == 0:
            return ("var", draw(st.integers(0, n_vars - 1)))
        kind = draw(st.sampled_from(["and", "or", "xor", "not", "ite"]))
        if kind == "not":
            return ("not", go(depth - 1))
        if kind == "ite":
            return ("ite", go(depth - 1), go(depth - 1), go(depth - 1))
        return (kind, go(depth - 1), go(depth - 1))
    return go(max_depth)


def eval_formula(f, assignment):
    kind = f[0]
    if kind == "var":
        return assignment[f[1]]
    if kind == "not":
        return not eval_formula(f[1], assignment)
    if kind == "and":
        return eval_formula(f[1], assignment) and eval_formula(f[2], assignment)
    if kind == "or":
        return eval_formula(f[1], assignment) or eval_formula(f[2], assignment)
    if kind == "xor":
        return eval_formula(f[1], assignment) != eval_formula(f[2], assignment)
    if kind == "ite":
        return eval_formula(f[2] if eval_formula(f[1], assignment) else f[3],
                            assignment)
    raise AssertionError(f)


def build_formula(mgr, refs, f):
    kind = f[0]
    if kind == "var":
        return refs[f[1]]
    if kind == "not":
        return ~build_formula(mgr, refs, f[1])
    args = [build_formula(mgr, refs, a) for a in f[1:]]
    if kind == "and":
        return args[0] & args[1]
    if kind == "or":
        return args[0] | args[1]
    if kind == "xor":
        return args[0] ^ args[1]
    if kind == "ite":
        return args[0].ite(args[1], args[2])
    raise AssertionError(f)


@given(formulas())
@settings(max_examples=150, deadline=None)
def test_ite_matches_truth_table(f):
    mgr, refs = fresh()
    node = build_formula(mgr, refs, f)
    for bits in product([False, True], repeat=5):
        assert node.evaluate(list(bits)) == eval_formula(f, list(bits))


def over_levels(value, base, levels):
    """value(a) for every assignment a that agrees with base off levels."""
    out = []
    for combo in product([False, True], repeat=len(levels)):
        a = list(base)
        for lvl, v in zip(sorted(levels), combo):
            a[lvl] = v
        out.append(value(a))
    return out


@given(formulas(), st.sets(st.integers(0, 4), max_size=5))
@settings(max_examples=100, deadline=None)
def test_quantifiers_match_truth_table(f, qvars):
    mgr, refs = fresh()
    node = build_formula(mgr, refs, f)
    ex = node.exists(qvars)
    fa = node.forall(qvars)
    for bits in product([False, True], repeat=5):
        base = list(bits)
        values = over_levels(lambda a: eval_formula(f, a), base, qvars)
        assert ex.evaluate(base) == any(values)
        assert fa.evaluate(base) == all(values)


@given(formulas(), formulas(n_vars=5))
@settings(max_examples=100, deadline=None)
def test_compose_matches_truth_table(f, g):
    mgr, refs = fresh()
    fn = build_formula(mgr, refs, f)
    gn = build_formula(mgr, refs, g)
    composed = fn.compose({2: gn})
    for bits in product([False, True], repeat=5):
        a = list(bits)
        a2 = list(bits)
        a2[2] = eval_formula(g, a)
        assert composed.evaluate(a) == eval_formula(f, a2)


@st.composite
def substitutions(draw, n_vars=5):
    """A simultaneous substitution of 2-3 levels by random formulas."""
    levels = draw(st.lists(st.integers(0, n_vars - 1), min_size=2,
                           max_size=3, unique=True))
    return {lvl: draw(formulas(max_depth=3)) for lvl in levels}


def substituted(f, sub, assignment):
    """The value of f with every level of sub replaced by its formula."""
    a2 = list(assignment)
    for lvl, g in sub.items():
        a2[lvl] = eval_formula(g, assignment)
    return eval_formula(f, a2)


@given(formulas(), substitutions(), substitutions(), formulas(),
       st.sets(st.integers(0, 4), max_size=5))
@settings(max_examples=150, deadline=None)
def test_vector_compose_then_apply_matches_truth_table(f, sub_a, sub_b, h,
                                                       qvars):
    # every operation of one manager but ite shares one cache, so two
    # substitutions followed by ite and both quantifiers would read a
    # wrong entry if the keys of two operations could be equal
    assume(sub_a != sub_b)
    mgr, refs = fresh()
    fn = build_formula(mgr, refs, f)
    hn = build_formula(mgr, refs, h)
    ca, cb = (fn.compose({lvl: build_formula(mgr, refs, g)
                          for lvl, g in sub.items()})
              for sub in (sub_a, sub_b))
    interned = Substitution(mgr, {lvl: build_formula(mgr, refs, g)
                                  for lvl, g in sub_a.items()})
    assert fn.compose(interned) == ca
    mixed = ca.ite(cb, hn)
    ex = mixed.exists(qvars)
    fa = mixed.forall(qvars)

    def mixed_value(a):
        return (substituted(f, sub_b, a) if substituted(f, sub_a, a)
                else eval_formula(h, a))

    for bits in product([False, True], repeat=5):
        base = list(bits)
        assert ca.evaluate(base) == substituted(f, sub_a, base)
        assert cb.evaluate(base) == substituted(f, sub_b, base)
        assert mixed.evaluate(base) == mixed_value(base)
        values = over_levels(mixed_value, base, qvars)
        assert ex.evaluate(base) == any(values)
        assert fa.evaluate(base) == all(values)


def shannon_compose(f, sub):
    """f with sub's levels substituted, by Shannon expansion at every
    node of f: the reference the level cut of ``_compose`` must match."""
    mgr = f.mgr
    memo = {0: mgr.false, 1: mgr.true}

    def go(n):
        if n not in memo:
            level, lo, hi = mgr._nodes[n]
            memo[n] = sub.get(level, mgr.var(level)).ite(go(hi), go(lo))
        return memo[n]
    return go(f.node)


@given(formulas(n_vars=6), st.lists(st.integers(0, 5), min_size=1,
                                     max_size=3, unique=True),
       st.lists(formulas(n_vars=6, max_depth=3), min_size=3, max_size=3))
@settings(max_examples=150, deadline=None)
def test_partial_compose_stops_at_the_deepest_substituted_level(f, levels,
                                                                gs):
    mgr, refs = fresh(6)
    fn = build_formula(mgr, refs, f)
    sub = Substitution(mgr, {lvl: build_formula(mgr, refs, g)
                             for lvl, g in zip(levels, gs)})
    assert sub.last == max(levels)
    composed = fn.compose(sub)
    assert composed == shannon_compose(fn, sub)
    # no cache entry of this substitution is made below its deepest level
    entries = [key[0] for key in mgr._cache
               if isinstance(key, tuple) and len(key) == 2
               and key[1] == sub.sub_id]
    assert all(mgr._nodes[n][0] <= sub.last for n in entries)
    assert Substitution(mgr, {}).last == -1


# variable reordering -------------------------------------------------------


def shared_size(roots):
    if not roots:
        return 0
    return len(postorder(roots[0].mgr._nodes, [r.node for r in roots]))


def assert_sifted_diagram(mgr, roots, sifted):
    """The records ``sift`` returns compute the roots' functions on every
    assignment, each after its children and at a level above theirs in
    one order, and there are as many as the size ``sift`` counted;
    returns whether that order is the manager's own."""
    levels = {0: None, 1: None}
    above: dict[int, set[int]] = {}  # level -> levels of records above it
    for n, level, lo, hi in sifted.records:
        assert lo != hi and lo in levels and hi in levels and n not in levels
        levels[n] = level
        for child in (lo, hi):
            if child > 1:
                above.setdefault(levels[child], set()).add(level)
    graphlib.TopologicalSorter(above).prepare()  # raises on a cycle
    assert len(sifted.records) == sifted.size
    assert all(root in levels for root in sifted.roots)
    for bits in product([False, True], repeat=mgr.var_count):
        value = {0: False, 1: True}
        for n, level, lo, hi in sifted.records:
            value[n] = value[hi] if bits[level] else value[lo]
        assert [value[r] for r in sifted.roots] == \
            [r.evaluate(bits) for r in roots]
    return all(level < child for child, parents in above.items()
               for level in parents)


def test_sift_reaches_the_interleaved_order():
    # (x0 & x3) | (x1 & x4) | (x2 & x5): 14 nodes in the order x0..x5, 6
    # with each pair adjacent
    mgr, x = fresh(6)
    f = (x[0] & x[3]) | (x[1] & x[4]) | (x[2] & x[5])
    _, y = fresh(6)
    interleaved = (y[0] & y[1]) | (y[2] & y[3]) | (y[4] & y[5])
    assert shared_size([f]) == 14
    sifted = sift(mgr, [f])
    assert sifted.static_size == 14
    assert sifted.size == shared_size([interleaved]) == 6
    assert sifted.swaps > 0
    assert not assert_sifted_diagram(mgr, [f], sifted)
    assert sift(mgr, [f]) == sifted


@given(st.lists(formulas(n_vars=6), min_size=1, max_size=3))
@settings(max_examples=100, deadline=None)
def test_sifted_functions_match_the_originals(fs):
    mgr, refs = fresh(6)
    roots = [build_formula(mgr, refs, f) for f in fs]
    sifted = sift(mgr, roots)
    assert sifted.size <= sifted.static_size == shared_size(roots)
    # a diagram in the manager's own order is the static one
    assert (sifted.size < sifted.static_size) == \
        (not assert_sifted_diagram(mgr, roots, sifted))
    assert sift(mgr, roots) == sifted  # deterministic


def test_sift_keeps_the_static_order_where_no_swap_shrinks():
    mgr, x = fresh(6)
    for roots in ([(x[0] & x[1]) | (x[2] & x[3])],  # already interleaved
                  [x[1] & x[3] & x[5], x[4]],
                  [x[2]], [mgr.true, mgr.false], []):
        sifted = sift(mgr, roots)
        assert assert_sifted_diagram(mgr, roots, sifted)
        assert sifted.size == sifted.static_size == shared_size(roots)
    with pytest.raises(BddError):
        sift(BddManager(), [x[0]])


# generalized cofactor ----------------------------------------------------


@given(formulas(), formulas())
@settings(max_examples=150, deadline=None)
def test_restrict_agrees_on_the_care_set(f, c):
    mgr, refs = fresh()
    fn = build_formula(mgr, refs, f)
    cn = build_formula(mgr, refs, c)
    r = fn.restrict(cn)
    for bits in product([False, True], repeat=5):
        if eval_formula(c, list(bits)):
            assert r.evaluate(list(bits)) == eval_formula(f, list(bits))
    assert r.support() <= fn.support()
    assert fn.restrict(mgr.true) == fn
    assert fn.restrict(fn) == mgr.true or fn.is_false


def test_restrict_examples():
    mgr, (x, y, z, *_) = fresh()
    assert ((x & y) | z).restrict(x) == (y | z)
    assert (x & y).restrict(x | y) == (x & y)  # y is read, x is not forced
    assert (x ^ z).restrict(~x & y) == z  # y is not read by f
    assert x.restrict(mgr.false).is_false


def transfer(ref, refs):
    """ref's function in another manager with the same variables, read
    off the records of ref's nodes."""
    nodes = ref.mgr._nodes

    def go(n):
        if n <= 1:
            return refs[0].mgr.true if n else refs[0].mgr.false
        level, lo, hi = nodes[n]
        return refs[level].ite(go(hi), go(lo))
    return go(ref.node)


@given(formulas(), formulas(), formulas(), substitutions(),
       st.sets(st.integers(0, 4), max_size=5))
@settings(max_examples=150, deadline=None)
def test_restrict_interleaved_with_other_operations(f, c, h, sub, qvars):
    # one manager runs restrict between ite, compose and quantification,
    # all but ite on one cache; a fresh manager runs each step alone, so a key
    # of one operation read as another's would give a different function
    mgr, refs = fresh()
    levels = sorted(sub)
    vals = {"f": build_formula(mgr, refs, f), "c": build_formula(mgr, refs, c),
            "h": build_formula(mgr, refs, h)}
    vals.update((f"s{lvl}", build_formula(mgr, refs, sub[lvl]))
                for lvl in levels)
    program = [
        ("r1", lambda f, c: f.restrict(c), ("f", "c")),
        ("n1", lambda f, c: f & c, ("f", "c")),
        ("i1", lambda r, h, c: r.ite(h, c), ("r1", "h", "c")),
        ("k1", lambda f, *gs: f.compose(dict(zip(levels, gs))),
         ("f", *(f"s{lvl}" for lvl in levels))),
        ("r2", lambda k, h: k.restrict(h), ("k1", "h")),
        ("e1", lambda r: r.exists(qvars), ("r2",)),
        ("r3", lambda e, i: e.restrict(~i), ("e1", "i1")),
        ("a1", lambda r: r.forall(qvars), ("r3",)),
        ("r4", lambda c, f: c.restrict(f), ("c", "f")),
        ("x1", lambda a, r: a ^ r, ("a1", "r4")),
    ]
    for name, op, args in program:
        vals[name] = op(*(vals[a] for a in args))
        _, alone_refs = fresh()
        alone = op(*(transfer(vals[a], alone_refs) for a in args))
        assert transfer(vals[name], alone_refs) == alone, name


# ite cache generations ---------------------------------------------------

STEP_OPS = ("and", "or", "xor", "not", "ite", "compose", "exists", "forall",
            "restrict")


# steps of (operation, operand indices, levels, age first or not)
programs = st.lists(st.tuples(
    st.sampled_from(STEP_OPS),
    st.lists(st.integers(0, 1000), min_size=3, max_size=3),
    st.lists(st.integers(0, 4), min_size=1, max_size=3, unique=True),
    st.booleans()), min_size=1, max_size=40)


def run_step(pool, op, args, levels):
    """One step on operands picked from pool by index."""
    a, b, c = (pool[i % len(pool)] for i in args)
    if op == "and":
        return a & b
    if op == "or":
        return a | b
    if op == "xor":
        return a ^ b
    if op == "not":
        return ~a
    if op == "ite":
        return a.ite(b, c)
    if op == "compose":
        return a.compose({lvl: pool[(args[1] + k) % len(pool)]
                          for k, lvl in enumerate(levels)})
    if op == "exists":
        return a.exists(levels)
    if op == "forall":
        return a.forall(levels)
    return a.restrict(b)


@given(programs)
@settings(max_examples=200, deadline=None)
def test_ageing_the_ite_cache_never_changes_a_node(program):
    # the program runs twice, so its second run repeats every call of
    # the first, recomputing what ageing dropped in between
    plain_mgr, plain = fresh()
    aged_mgr, aged = fresh()
    for _ in range(2):
        plain_pool, aged_pool = list(plain), list(aged)
        for op, args, levels, age in program:
            if age:
                aged_mgr.age()
            p = run_step(plain_pool, op, args, levels)
            a = run_step(aged_pool, op, args, levels)
            assert p.node == a.node, op
            plain_pool.append(p)
            aged_pool.append(a)
    assert plain_mgr.node_count == aged_mgr.node_count
    assert_node_table_sound(plain_mgr)
    assert_node_table_sound(aged_mgr)


def assert_node_table_sound(mgr):
    """Each node is one reduced, ordered record, stored once: the tuple
    in the node list is the very key of the node in the unique table."""
    nodes, unique = mgr._nodes, mgr._unique
    assert len(unique) + 2 == mgr.node_count == len(nodes)
    for record, n in unique.items():
        assert nodes[n] is record
    for n in range(2, len(nodes)):
        level, lo, hi = nodes[n]
        assert unique[nodes[n]] == n
        assert lo != hi
        assert level < nodes[lo][0] and level < nodes[hi][0]


def test_ite_cache_keeps_what_each_generation_reads():
    mgr, (x, y, z, *_) = fresh()
    read, unread = (x.node, y.node, 0), (x.node, 1, z.node)  # x & y, x | z
    x & y
    x | z

    def cached():
        return mgr._ite_young.keys() | mgr._ite_old.keys()

    mgr.age()
    assert {read, unread} <= cached()
    assert mgr.ite_cache_sizes == (0, 2)
    x & y  # read from the old generation, promoted into the young one
    assert mgr.ite_cache_sizes == (1, 2)
    mgr.age()
    assert read in cached()
    assert unread not in cached()
    assert mgr.ite_cache_sizes == (0, 1)
    mgr.age()
    assert mgr.ite_cache_sizes == (0, 0)


def test_young_misses_skip_the_old_generation_when_it_cannot_hold_the_key():
    mgr, (x, y, *_) = fresh()
    x & y
    mgr.age()
    reads = []

    class Spy(dict):
        def get(self, key, default=None):
            reads.append(key)
            return super().get(key, default)

    mgr._ite_old = Spy(mgr._ite_old)
    new = mgr.add_var()  # made after the age: no old key holds it
    new & x
    assert reads == []
    x & y  # every node of the key is older: read and promoted
    assert reads == [(x.node, y.node, 0)]
    assert mgr.ite_cache_sizes == (2, 1)


# frontiers -------------------------------------------------------------------


def test_frontier_lies_between_the_new_states_and_the_ring():
    mgr, refs = fresh(10)
    # a ring of over 64 nodes: the comparator x[0:5] <= x[5:10], with
    # one word's variables all above the other's
    ring = mgr.true
    for a, b in zip(refs[4::-1], refs[:4:-1]):
        ring = (~a & b) | (~(a ^ b) & ring)
    inner = ring & refs[0] & refs[5]
    assert ring.dag_size() >= 64
    front = frontier(ring, inner)
    assert front == ring.restrict(~inner) != ring
    assert (ring & ~inner) & ~front == mgr.false  # new states kept
    assert front & ~ring == mgr.false  # nothing outside the ring
    small = refs[0] | refs[1]
    assert small.dag_size() < 64
    assert frontier(small, refs[0]) == small  # too small to pay


# canonicity ------------------------------------------------------------------


@given(formulas(), formulas())
@settings(max_examples=100, deadline=None)
def test_canonicity_equal_functions_same_handle(f, g):
    mgr, refs = fresh()
    fn = build_formula(mgr, refs, f)
    gn = build_formula(mgr, refs, g)
    same = all(eval_formula(f, list(bits)) == eval_formula(g, list(bits))
               for bits in product([False, True], repeat=5))
    assert (fn == gn) == same


def test_basic_identities():
    mgr, (x, y, *_) = fresh()
    assert x.ite(mgr.true, mgr.false) == x
    g = x | y
    assert x.ite(g, g) == g
    assert (x & ~x).is_false
    assert (x | ~x).is_true
    assert x.exists([0]).is_true
    assert x.forall([0]).is_false


def test_de_morgan_and_quantifier_duality():
    mgr, (x, y, z, *_) = fresh()
    f = (x & y) | (z & ~y)
    assert ~(x & y) == (~x | ~y)
    assert ~(x | y) == (~x & ~y)
    assert ~(f.exists([1])) == (~f).forall([1])
    assert ~(f.forall([0, 2])) == (~f).exists([0, 2])


def test_substitute_examples():
    mgr, (x, y, z, *_) = fresh()
    assert x.compose({0: y}) == y
    assert (x & z).compose({0: ~z}).is_false


def test_managers_do_not_mix():
    m1 = BddManager()
    m2 = BddManager()
    a = m1.add_var()
    b = m2.add_var()
    with pytest.raises(BddError):
        _ = a & b
    with pytest.raises(BddError):
        a.compose(Substitution(m2, {0: b}))


def test_cube_is_the_conjunction_of_its_literals():
    mgr, refs = fresh()
    assignment = {3: True, 0: False, 4: True}
    chain = mgr.true
    for lvl, value in assignment.items():
        chain = chain & (refs[lvl] if value else ~refs[lvl])
    assert mgr.cube(assignment) == chain
    assert mgr.cube({}).is_true


def test_cofactor_and_support():
    mgr, (x, y, z, *_) = fresh()
    f = (x & y) | z
    assert f.cofactor(0, True) == (y | z)
    assert f.cofactor(0, False) == z
    assert f.support() == {0, 1, 2}


@given(formulas())
@settings(max_examples=100, deadline=None)
def test_support_is_the_semantic_support(f):
    mgr, refs = fresh()
    node = build_formula(mgr, refs, f)

    def reads(level):  # the two cofactors at level differ somewhere
        return any(
            eval_formula(f, [*bits[:level], False, *bits[level + 1:]])
            != eval_formula(f, [*bits[:level], True, *bits[level + 1:]])
            for bits in product([False, True], repeat=5))
    assert node.support() == {level for level in range(5) if reads(level)}


def test_sat_one_deterministic():
    mgr, (x, y, *_) = fresh()
    f = (x & ~y) | (x & y)
    assert f.sat_one() == {0: True}
