"""Format-level rewrites: bounded liveness-to-safety and justice reversal.

``justice_to_safety`` turns an extended document (bad / constraint /
justice sections) into an old-format single-output safety game: the
recurrence obligation on the justice literal is replaced by a window of
length k, enforced by a saturating counter of steps since the literal
last held.  ``fold_constraints_into_bad`` is the same rewrite for a
document without justice.  Both end in one output builder,
``_with_bad_output``, which relativizes bad to the constraints.
``reverse_justice`` rewrites a synthesized model so that a standard
existential fair-trace search witnesses the reversed-polarity justice
violations.

Every latch a rewrite adds observes the copied ones (the window counter,
``env_broken``, the ``aux`` watcher), so it is listed ahead of them and
the copied latches keep their relative order.  ``game.Encoding`` gives
latches their decision-diagram levels in document order, and an
observer with few modes placed on top splits each diagram into a few
branches that share the copied design's sub-diagrams; see
``circuit.py``.

Every rewrite keeps the source's comments but drops its winning-region
block (``game.without_winning_block``): the block states a set of the
source's states, and the rewrite's latches or properties differ.
"""

from __future__ import annotations

from .aiger import AigerDoc, FALSE_LIT, TRUE_LIT
from .game import without_winning_block


class TransformError(Exception):
    pass


def _single_justice_literal(doc: AigerDoc) -> int:
    jlit = doc.justice_literal()
    if jlit is None:
        raise TransformError("expected a justice section, found none")
    return jlit


def _old_format_copy(doc: AigerDoc) -> AigerDoc:
    """Copy without property sections or latches; the caller adds its
    observer latches, then ``doc.latches`` after them."""
    return doc.copy(latches=[], outputs=[], bad=[], constraints=[],
                    justice=[], fmt="old",
                    comments=without_winning_block(doc.comments))


def _fresh_name(doc: AigerDoc, base: str) -> str:
    taken = {n for _, n in doc.inputs if n is not None}
    taken |= {n for _, _, n in doc.latches if n is not None}
    if base not in taken:
        return base
    k = 1
    while f"{base}{k}" in taken:
        k += 1
    return f"{base}{k}"


def fold_constraints_into_bad(doc: AigerDoc) -> AigerDoc:
    """Old-format view of a justice-free extended document.

    The single output raises when some bad literal holds while the
    constraints have held at every step up to and including this one.
    """
    if doc.justice:
        raise TransformError("document still has a justice section")
    return _with_bad_output(_old_format_copy(doc), doc, FALSE_LIT)


def _with_bad_output(new: AigerDoc, doc: AigerDoc, extra_bad: int) -> AigerDoc:
    """Finish an old-format rewrite of doc with its single output.

    The output raises when a bad literal of doc or ``extra_bad`` holds
    while the constraints have held at every step up to and including
    this one.  The ``env_broken`` latch records that they failed at an
    earlier step; AIGER latches start at 0, so it stores the negation.
    It follows the rewrite's own latches and precedes doc's.
    """
    aig = new.aig
    inv_now = aig.and_many(lit for lit, _ in doc.constraints)
    bad_now = aig.or_many(lit for lit, _ in doc.bad)
    broken = new.add_latch("env_broken")
    new.set_latch_next(broken, aig.or_(broken, inv_now ^ 1))
    new.latches += doc.latches
    out = aig.and_many([broken ^ 1, inv_now, aig.or_(bad_now, extra_bad)])
    new.outputs.append((out, "bad"))
    new.validate()
    return new


def justice_to_safety(doc: AigerDoc, k: int) -> AigerDoc:
    """Replace the recurrence objective by a k-step window.

    A saturating counter counts steps since the justice literal last
    held; the single output raises when the constraints have held so
    far (including the current step) and either an original bad literal
    holds or the counter exceeds k.  The counter saturates at k+1
    rather than wrapping.
    """
    if k < 0:
        raise TransformError(f"window length must be nonnegative, got {k}")
    if doc.outputs:
        raise TransformError("document already has outputs")
    just = _single_justice_literal(doc)

    new = _old_format_copy(doc)
    aig = new.aig

    width = (k + 1).bit_length()  # ceil(log2(k + 2)) bits for values 0 .. k+1
    bits = [new.add_latch(f"justice_wait.__bit{i}") for i in range(width)]

    at_top = aig.eq_const(bits, k + 1)
    # incremented value, ripple carry
    inc_bits = []
    carry = TRUE_LIT
    for i in range(width):
        inc_bits.append(aig.xor_(bits[i], carry))
        if i + 1 < width:  # the top bit's carry out is read by nothing
            carry = aig.and_(bits[i], carry)
    for i in range(width):
        held = aig.ite_(at_top, bits[i], inc_bits[i])
        new.set_latch_next(bits[i], aig.and_(just ^ 1, held))
    return _with_bad_output(new, doc, at_top)


def reverse_justice(doc: AigerDoc) -> AigerDoc:
    """Swap the justice polarity of a closed model for fair-trace search.

    Adds an uncontrollable input ``aux`` and a three-state watcher:
    waiting until aux first holds, then checking, then dead once the
    original justice literal holds during checking.  The new justice
    literal marks checking steps where the original literal is low, so
    an (inputs-existential) fair trace of the result projects onto a
    trace of the model whose original literal eventually stays low, and
    vice versa for traces keeping the constraints true.
    """
    just = _single_justice_literal(doc)

    new = doc.copy(latches=[], justice=[], fmt="new",
                   comments=without_winning_block(doc.comments))
    aig = new.aig
    aux = new.add_input(_fresh_name(doc, "aux"))
    armed = new.add_latch(_fresh_name(doc, "aux_seen"))
    dead = new.add_latch(_fresh_name(doc, "just_seen_after_aux"))
    new.latches += doc.latches
    new.set_latch_next(armed, aig.or_(armed, aux))
    new.set_latch_next(dead, aig.or_(dead, aig.and_(armed, just)))
    checking = aig.and_(armed, dead ^ 1)
    new_just = aig.and_(checking, just ^ 1)
    new.justice.append(([new_just], "just_reversed"))
    new.validate()
    return new
