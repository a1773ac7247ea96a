"""Hot-header result cache for the serving front-end.

Real query streams are heavily skewed: a handful of (flow, behavior)
headers dominate -- the Zipf-shaped workloads the serve benchmarks
replay.  For those, even the batch kernel is wasted work after the
first sighting, and so is the whole micro-batching machinery (future,
queue slot, dispatcher pass).  :class:`ResultCache` lets the service
answer repeats synchronously at admission time: one dict probe instead
of a queue round-trip.

Correctness hinges on *generation keying*.  Every event that can change
what a header classifies to -- a rule update, a reconstruction swap, a
generation handoff, or an out-of-band tree mutation observed through
the tree-version stamp -- bumps :attr:`ResultCache.generation` and empties
the map, so a hit can only ever return an atom id computed by the
classifier generation currently serving.  The service performs all
cache operations on the event-loop thread and never awaits between the
generation check and the probe, which makes bump-then-clear atomic with
respect to queries.

Eviction is plain LRU over an ordered dict: hits refresh recency,
inserts beyond ``capacity`` evict the oldest entry.  Counters (hits,
misses, evictions, invalidations) land in
:class:`repro.obs.ServeCounters` when one is attached, feeding the
``serve.result_cache`` snapshot section (schema /5).
"""

from __future__ import annotations

from collections import OrderedDict

__all__ = ["ResultCache"]


class ResultCache:
    """Bounded LRU of ``header -> atom id`` for one classifier generation.

    Not thread-safe by itself: the owning :class:`~repro.serve.QueryService`
    confines every call to its event-loop thread.
    """

    __slots__ = ("capacity", "generation", "_entries", "_counters")

    def __init__(self, capacity: int, counters=None) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        #: Bumped on every invalidation; exposed so tests and benchmarks
        #: can assert that a swap really retired the cached generation.
        self.generation = 0
        self._entries: OrderedDict[int, int] = OrderedDict()
        self._counters = counters

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, header: int) -> int | None:
        """The cached atom id for ``header``, refreshing its recency."""
        entries = self._entries
        atom_id = entries.get(header)
        counters = self._counters
        if atom_id is None:
            if counters is not None:
                counters.cache_misses += 1
            return None
        entries.move_to_end(header)
        if counters is not None:
            counters.cache_hits += 1
        return atom_id

    def put(self, header: int, atom_id: int) -> None:
        """Remember ``header``'s atom id, evicting the LRU entry if full."""
        entries = self._entries
        if header in entries:
            entries[header] = atom_id
            entries.move_to_end(header)
            return
        if len(entries) >= self.capacity:
            entries.popitem(last=False)
            if self._counters is not None:
                self._counters.cache_evictions += 1
        entries[header] = atom_id

    def invalidate(self) -> None:
        """Retire the whole generation: clear the map, bump the counter."""
        self.generation += 1
        self._entries.clear()
        if self._counters is not None:
            self._counters.cache_invalidations += 1

    def stats(self) -> dict:
        """Instantaneous gauges (the cumulative counters live in obs)."""
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "generation": self.generation,
        }

    def __repr__(self) -> str:
        return (
            f"ResultCache({len(self._entries)}/{self.capacity} entries, "
            f"generation {self.generation})"
        )
