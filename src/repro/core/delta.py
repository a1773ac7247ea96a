"""Behavior comparison: did a packet class change, and where?

Section I's fault localization and attack detection both reduce to the
same primitive: compare the behavior of every packet class before and
after some event, and pinpoint where the forwarding trees diverge.  This
module holds the per-class half (:func:`diff_behaviors`,
:func:`first_divergence`); the sweep over all classes of two generations
-- exact within and across managers -- is
:func:`repro.diff.diff_generations`.
"""

from __future__ import annotations

from .behavior import Behavior

__all__ = ["diff_behaviors", "first_divergence"]


def diff_behaviors(before: Behavior, after: Behavior) -> bool:
    """True iff the two behaviors differ observably (paths or deliveries)."""
    return (
        sorted(map(tuple, before.paths())) != sorted(map(tuple, after.paths()))
        or before.delivered_hosts() != after.delivered_hosts()
    )


def first_divergence(before: Behavior, after: Behavior) -> str | None:
    """The box whose forwarding decision made the traces diverge.

    This is the fault-localization answer (Section I): the *last common*
    box before the traversals disagree is where the changed/broken rule
    acted, so that is where to look.
    """
    before_boxes = before.boxes_traversed()
    after_boxes = after.boxes_traversed()
    divergence_index: int | None = None
    for index, (a, b) in enumerate(zip(before_boxes, after_boxes)):
        if a != b:
            divergence_index = index
            break
    if divergence_index is None:
        if len(before_boxes) == len(after_boxes):
            return None
        divergence_index = min(len(before_boxes), len(after_boxes))
    if divergence_index == 0:
        # Same ingress always shares index 0; a 0 here means one trace is
        # empty, which cannot happen for a computed behavior -- but guard.
        return before_boxes[0] if before_boxes else None
    return before_boxes[divergence_index - 1]
