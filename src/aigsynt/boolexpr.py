"""Boolean expression trees shared by the flattened model and the circuit builder."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping


class BoolExpr:
    """Base class; all nodes are immutable and hashable."""

    __slots__ = ()


@dataclass(frozen=True)
class BConst(BoolExpr):
    value: bool


@dataclass(frozen=True)
class BVar(BoolExpr):
    name: str


@dataclass(frozen=True)
class BNot(BoolExpr):
    arg: BoolExpr


@dataclass(frozen=True)
class BAnd(BoolExpr):
    args: tuple[BoolExpr, ...]


@dataclass(frozen=True)
class BOr(BoolExpr):
    args: tuple[BoolExpr, ...]


TRUE = BConst(True)
FALSE = BConst(False)


def bnot(e: BoolExpr) -> BoolExpr:
    if isinstance(e, BConst):
        return BConst(not e.value)
    if isinstance(e, BNot):
        return e.arg
    return BNot(e)


def band(*es: BoolExpr) -> BoolExpr:
    flat: list[BoolExpr] = []
    for e in es:
        if isinstance(e, BConst):
            if not e.value:
                return FALSE
            continue
        if isinstance(e, BAnd):
            flat.extend(e.args)
        else:
            flat.append(e)
    if not flat:
        return TRUE
    if len(flat) == 1:
        return flat[0]
    return BAnd(tuple(flat))


def bor(*es: BoolExpr) -> BoolExpr:
    flat: list[BoolExpr] = []
    for e in es:
        if isinstance(e, BConst):
            if e.value:
                return TRUE
            continue
        if isinstance(e, BOr):
            flat.extend(e.args)
        else:
            flat.append(e)
    if not flat:
        return FALSE
    if len(flat) == 1:
        return flat[0]
    return BOr(tuple(flat))


def bite(c: BoolExpr, t: BoolExpr, e: BoolExpr) -> BoolExpr:
    return bor(band(c, t), band(bnot(c), e))


def biff(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    return bor(band(a, b), band(bnot(a), bnot(b)))


def bxor(a: BoolExpr, b: BoolExpr) -> BoolExpr:
    return bor(band(a, bnot(b)), band(bnot(a), b))


def fold(root: BoolExpr, step, memo: dict) -> object:
    """The value ``step`` gives ``root``, found without recursing.

    ``step(node)`` is a generator that yields each node whose value it
    needs, is sent that value, and returns the value of ``node``; so it
    reads like a recursive function, and nodes are visited in the order
    that function would visit them, however deep the tree (a ``case``
    nests one level per branch).  ``memo`` maps ``id`` of a node to its
    value, since hashing a node walks its whole subtree; its nodes must
    outlive it.
    """
    stack = []  # (node, its step) of each node whose value is pending
    node = root
    while True:
        if id(node) in memo:
            value = memo[id(node)]
        else:
            stack.append((node, step(node)))
            value = None
        while stack:  # send the value up until a step yields a node
            top, steps = stack[-1]
            try:
                node = steps.send(value)
                break
            except StopIteration as done:
                stack.pop()
                value = memo[id(top)] = done.value
        else:
            return value


def evaluate(e: BoolExpr, env: Mapping[str, bool]) -> bool:
    if isinstance(e, BConst):
        return e.value
    if isinstance(e, BVar):
        return env[e.name]
    if isinstance(e, BNot):
        return not evaluate(e.arg, env)
    if isinstance(e, BAnd):
        return all(evaluate(a, env) for a in e.args)
    if isinstance(e, BOr):
        return any(evaluate(a, env) for a in e.args)
    raise TypeError(f"not a BoolExpr: {e!r}")
