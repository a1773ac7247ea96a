"""MDD packet classifier (Inoue et al., ICNP 2014 style).

The paper's closest prior work [10] classifies packets to equivalence
classes with a multi-valued decision diagram: the header is consumed one
*chunk* (e.g. a byte) per level, so a lookup costs a fixed, tiny number
of table indexings -- faster than an AP Tree search. Its drawbacks, which
motivate AP Classifier, are exactly reproducible here:

* construction is far more expensive (every node expands ``2**chunk``
  branches over the atom set);
* the structure is static -- there is no incremental update; any data
  plane change forces a full rebuild (footnote 2 of the paper).

The MDD is built over the same atomic predicates as the AP Tree, so both
classifiers return identical atom ids -- tests exploit that.
"""

from __future__ import annotations

from ..core.atomic import AtomicUniverse

__all__ = ["MddClassifier"]


class _MddNode:
    """One interior level: ``children[chunk_value] -> node | atom id``.

    Leaves are plain ints (atom ids); interior nodes are ``_MddNode``.
    ``level`` is stored because redundant levels are skipped during
    construction, so a child may sit several chunks below its parent.
    """

    __slots__ = ("level", "children")

    def __init__(self, level: int, children: tuple) -> None:
        self.level = level
        self.children = children


class MddClassifier:
    """Chunk-indexed multi-valued decision diagram over the atoms."""

    def __init__(self, universe: AtomicUniverse, chunk_bits: int = 8) -> None:
        if chunk_bits <= 0:
            raise ValueError("chunk_bits must be positive")
        self.universe = universe
        self.chunk_bits = chunk_bits
        self.width = universe.manager.num_vars
        self.levels = (self.width + chunk_bits - 1) // chunk_bits
        self._node_count = 0
        # Hash-consing: identical (restricted) sub-problems share nodes.
        self._unique: dict[tuple, object] = {}
        manager = universe.manager
        # Work on raw BDD node ids; a "state" is the tuple of each atom's
        # restricted BDD, which fully determines the sub-MDD below it.
        state = tuple(
            (atom_id, fn.node) for atom_id, fn in sorted(universe.atoms().items())
        )
        self._manager = manager
        self._reads = self._chunk_reads(manager.var_shifts)
        self.root = self._build(state, level=0)

    def _chunk_reads(self, var_shifts) -> list[tuple[tuple[int, int, int], ...]]:
        """Per level, how to read its chunk value from a packed header.

        A chunk is ``chunk_bits`` consecutive *variables*, its first one
        the value's top bit.  Their header bits (``var_shifts``) are
        split into runs of adjacent bits, each read as one
        ``(header >> shift) & mask`` placed at ``place`` in the value:
        one run per chunk when the chunk lies inside one field.
        """
        reads = []
        for level in range(self.levels):
            first_var = level * self.chunk_bits
            bits = min(self.chunk_bits, self.width - first_var)
            runs: list[list[int]] = []  # [lowest shift, length, place]
            for offset in range(bits):
                shift = var_shifts[first_var + offset]
                place = bits - 1 - offset
                if runs and runs[-1][0] == shift + 1:  # the next bit down
                    runs[-1][0] = shift
                    runs[-1][1] += 1
                    runs[-1][2] = place
                else:
                    runs.append([shift, 1, place])
            reads.append(tuple(
                (shift, (1 << length) - 1, place)
                for shift, length, place in runs
            ))
        return reads

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _restrict_chunk(self, node: int, level: int, value: int) -> int:
        """Restrict a BDD by fixing one chunk of header bits."""
        manager = self._manager
        first_var = level * self.chunk_bits
        bits = min(self.chunk_bits, self.width - first_var)
        for offset in range(bits):
            bit = (value >> (bits - 1 - offset)) & 1
            node = manager.restrict(node, first_var + offset, bool(bit))
        return node

    def _build(self, state: tuple, level: int):
        live = [(atom_id, node) for atom_id, node in state if node != 0]
        if len(live) == 1 and live[0][1] == 1:
            return live[0][0]  # a decided leaf: one atom remains, fully true
        if level >= self.levels:
            # All header bits consumed: exactly one atom must remain TRUE.
            remaining = [atom_id for atom_id, node in live if node == 1]
            if len(remaining) != 1:
                raise RuntimeError("atoms do not partition the header space")
            return remaining[0]
        key = (level, tuple(live))
        cached = self._unique.get(key)
        if cached is not None:
            return cached
        first_var = level * self.chunk_bits
        bits = min(self.chunk_bits, self.width - first_var)
        children = tuple(
            self._build(
                tuple(
                    (atom_id, self._restrict_chunk(node, level, value))
                    for atom_id, node in live
                ),
                level + 1,
            )
            for value in range(1 << bits)
        )
        if all(child is children[0] for child in children):
            node = children[0]  # redundant level: skip it
        else:
            node = _MddNode(level, children)
            self._node_count += 1
        self._unique[key] = node
        return node

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def classify(self, header: int) -> int:
        """Atom id of a packed header; O(levels) table indexings."""
        node = self.root
        reads = self._reads
        while isinstance(node, _MddNode):
            value = 0
            for shift, mask, place in reads[node.level]:
                value |= ((header >> shift) & mask) << place
            node = node.children[value]
        return node

    @property
    def node_count(self) -> int:
        return self._node_count

    def __repr__(self) -> str:
        return (
            f"MddClassifier({self.levels} levels x {1 << self.chunk_bits} "
            f"branches, {self._node_count} nodes)"
        )
