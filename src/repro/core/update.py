"""Real-time update engine (Section VI-A).

Data plane changes arrive as :class:`PredicateChange` diffs from the
:class:`DataPlane`.  Applying one keeps the classifier exact:

* **removal** tombstones the predicate -- the AP Tree keeps evaluating it
  (removing internal nodes would require merging subtrees), but stage 2 and
  the ``R`` mapping forget it immediately;
* **addition** refines the atoms the new predicate cuts (``a & p`` /
  ``a & ~p``), found by descending the tree's labels, and mirrors the
  splits onto the tree's leaves.

Both operations are local and fast; they degrade tree balance over time,
which is what periodic reconstruction (Section VI-B) repairs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Sequence

from ..network.dataplane import LabeledPredicate, PredicateChange
from .aptree import APTree
from .atomic import AtomicUniverse
from .weights import VisitCounter

__all__ = ["UpdateEngine", "UpdateResult"]


@dataclass(frozen=True)
class UpdateResult:
    """Accounting for one applied predicate change (Fig. 13 material)."""

    removed_pid: int | None
    added_pid: int | None
    atoms_split: int
    #: Atoms whose membership flipped: for a removal, every atom the
    #: predicate is tombstoned out of (pure removals split nothing, but
    #: every atom that carried the predicate had its reverse mapping
    #: patched, and Fig. 13 accounting needs to tell the two maintenance
    #: kinds apart); for an in-place replacement
    #: (:meth:`IncrementalEngine.replace_predicate`), the atoms and atom
    #: parts inside ``p_old ^ p_new``.
    tombstoned: int
    elapsed_s: float


class UpdateEngine:
    """Applies predicate changes to a (universe, tree) pair in lock-step."""

    def __init__(
        self,
        universe: AtomicUniverse,
        tree: APTree | None,
        counter: VisitCounter | None = None,
        recorder=None,
    ) -> None:
        self.universe = universe
        self.tree = tree
        self.counter = counter
        #: Optional :class:`repro.obs.Recorder` for update metrics
        #: (splits applied, affected leaves, latency distribution).
        self.recorder = recorder
        self.updates_applied = 0

    def apply(self, change: PredicateChange) -> UpdateResult:
        """Apply one diff; returns timing and split statistics."""
        started = time.perf_counter()
        removed, added = change.removed, change.added
        removed_pid = removed.pid if removed is not None else None
        added_pid = added.pid if added is not None else None
        atoms_split = 0
        tombstoned = 0
        if removed is None:
            atoms_split = self.add_predicate(added)
        elif added is None:
            tombstoned = self.remove_predicate(removed.pid)
        else:
            atoms_split, tombstoned = self.replace_predicate(
                removed.pid, added
            )
        self.updates_applied += 1
        elapsed_s = time.perf_counter() - started
        rec = self.recorder
        if rec is not None:
            rec.updates.record_update(
                added=added_pid is not None,
                removed=removed_pid is not None,
                atoms_split=atoms_split,
                tombstoned=tombstoned,
                elapsed_s=elapsed_s,
            )
        return UpdateResult(
            removed_pid=removed_pid,
            added_pid=added_pid,
            atoms_split=atoms_split,
            tombstoned=tombstoned,
            elapsed_s=elapsed_s,
        )

    def apply_all(self, changes: list[PredicateChange]) -> list[UpdateResult]:
        return [self.apply(change) for change in changes]

    def add_predicate(self, labeled: LabeledPredicate) -> int:
        """Refine the universe by one predicate and split tree leaves.

        Returns the number of atoms that were split in two.
        """
        splits = self.universe.add_predicate(
            labeled.pid, labeled.fn, self.tree
        )
        split_count = 0
        if self.counter is not None:
            for split in splits:
                if split.is_split:
                    assert split.inside_id is not None
                    assert split.outside_id is not None
                    self.counter.on_split(
                        split.old_id, split.inside_id, split.outside_id
                    )
        if self.tree is not None:
            split_count = self.tree.apply_splits(
                labeled.pid, labeled.fn.node, splits
            )
        else:
            split_count = sum(1 for split in splits if split.is_split)
        return split_count

    def replace_predicate(
        self, old_pid: int, labeled: LabeledPredicate
    ) -> tuple[int, int]:
        """One port's predicate changed: remove ``old_pid``, then add
        ``labeled`` (Section VI-A).  Returns ``(atoms split, atoms
        tombstoned)``."""
        tombstoned = self.remove_predicate(old_pid)
        return self.add_predicate(labeled), tombstoned

    def replay(self, journal: Sequence[PredicateChange]) -> int:
        """Re-apply updates that arrived while a reconstruction ran.

        ``journal`` is the list of :class:`PredicateChange` diffs the
        query process applied to the old structures during the rebuild
        (Fig. 8); additions carry the *original*
        :class:`LabeledPredicate`, so the replayed universe matches a
        direct build field-for-field.  Entries this engine's freshly
        built structures already reflect -- a removal of a predicate
        they do not hold, an addition of one they do -- are skipped, so
        a journal that reaches back before the rebuild's snapshot is
        harmless.  An entry whose removal and addition both still apply
        goes through :meth:`replace_predicate`, the path it took live.
        Replays are not counted as new updates (each was accounted when
        first applied).  Returns the number of entries
        that changed anything, and adds it to ``updates.replayed``.
        """
        replayed = 0
        has_predicate = self.universe.has_predicate
        for change in journal:
            removed, added = change.removed, change.added
            remove = removed is not None and has_predicate(removed.pid)
            add = added is not None and not has_predicate(added.pid)
            if remove and add:
                self.replace_predicate(removed.pid, added)
            elif remove:
                self.remove_predicate(removed.pid)
            elif add:
                self.add_predicate(added)
            if remove or add:
                replayed += 1
        rec = self.recorder
        if rec is not None:
            rec.updates.replayed += replayed
        return replayed

    def remove_predicate(self, pid: int) -> int:
        """Tombstone a predicate; the tree structure is intentionally kept.

        The tree is still marked changed: compiled artifacts treat any
        maintenance conservatively as staleness and fall back to the
        interpreted tree until recompiled (Section VI-B split).  Returns
        the number of atoms whose ``R`` membership the tombstone patched.
        """
        tombstoned = len(self.universe.r(pid))
        self.universe.remove_predicate(pid)
        if self.tree is not None:
            self.tree.touch()
        return tombstoned
