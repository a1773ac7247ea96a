"""Hash-consed reduced ordered binary decision diagram (ROBDD) manager.

The paper represents every predicate -- every ACL and every forwarding-table
output port -- as a BDD over the bits of the packet header (Section III,
footnote 3).  The authors used the JDD Java library; this module is a
from-scratch pure-Python replacement providing the same operation set.

Design notes
------------
* Nodes are identified by small integers.  ``0`` and ``1`` are the FALSE and
  TRUE terminals.  Every internal node is a triple ``(var, low, high)`` where
  ``low`` is followed when the variable is 0 and ``high`` when it is 1.
* The manager keeps a *unique table* mapping triples to node ids, so
  structurally equal functions always share the same id.  Equality of Boolean
  functions is therefore integer equality, which the rest of the library
  leans on heavily (e.g. atomic-predicate deduplication).
* Binary operations are computed by the classic memoized Shannon-expansion
  ``apply`` algorithm.  Negation is a memoized terminal swap (no complement
  edges; simplicity wins over the constant-factor saving).
* Variable order is fixed at construction time: variable 0 is closest to the
  root.  Which header bit a variable stands for is the manager's
  ``var_shifts`` (variable ``v`` is bit ``var_shifts[v]`` of a packed
  header), which a :class:`~repro.headerspace.fields.HeaderLayout`
  computes; the default reads variable 0 as the most significant bit.
  Node structure never depends on it -- only :meth:`BDDManager.evaluate`,
  :meth:`~BDDManager.first_sat` and :meth:`~BDDManager.random_sat`, which
  translate between variables and packed headers, read it.
"""

from __future__ import annotations

from time import perf_counter as _perf_counter
from typing import Iterator

__all__ = [
    "BDDManager", "DEFAULT_CACHE_LIMIT", "FALSE", "TRUE", "checked_shifts",
    "packing_shifts",
]

FALSE = 0
TRUE = 1

# Operator codes for the shared apply cache.  Using small ints keeps the
# cache keys cheap to hash.
_OP_AND = 0
_OP_OR = 1
_OP_XOR = 2
_OP_DIFF = 3

_OP_NAMES = {_OP_AND: "and", _OP_OR: "or", _OP_XOR: "xor", _OP_DIFF: "diff"}

_TERMINAL_VAR = 1 << 30  # sentinel "variable" for terminals; orders last
#: ``_mk`` packs a variable index into 16 bits of its unique-table key.
_MAX_VARS = 1 << 16

#: Entries the four memo caches (apply / ite / not / relation) may hold
#: *together* before a size-triggered :meth:`BDDManager.clear_caches`.
#: The memo caches are pure accelerators -- unlike the unique table they
#: carry no canonicity obligation -- but they referenced every operand
#: pair ever combined, so long dynamic-update runs grew them without
#: bound.  At roughly 200 bytes per entry this bounds them to ~50 MB
#: worst case.  Builds stay below it (stanford at the ``coldstart``
#: size reaches ~215k entries, acl-heavy ~237k); under rule churn a
#: budget twice as large re-ran ~11 % fewer ``relation`` steps but held
#: ~36 MB more at its peak, most of it the relation cache's dict
#: doubling to 2^20 slots just before each clear.
DEFAULT_CACHE_LIMIT = 1 << 18


def packing_shifts(num_vars: int) -> tuple[int, ...]:
    """The identity mapping: variable ``v`` is bit ``num_vars - 1 - v``."""
    return tuple(range(num_vars - 1, -1, -1))


def checked_shifts(num_vars: int, shifts) -> tuple[int, ...]:
    """``shifts`` as a tuple of ints; :class:`ValueError` unless it maps
    ``num_vars`` variables one-to-one onto bits ``0 .. num_vars - 1``."""
    shifts = tuple(int(shift) for shift in shifts)
    if sorted(shifts) != list(range(num_vars)):
        raise ValueError(
            f"var_shifts must be a permutation of 0..{num_vars - 1}"
        )
    return shifts


class BDDManager:
    """Owns a universe of BDD nodes over ``num_vars`` Boolean variables.

    All node ids returned by one manager are only meaningful within that
    manager.  The manager never garbage-collects nodes; for this workload
    (predicates of a data plane snapshot) the node population is small and
    stable, and keeping ids immortal keeps every cache valid forever.

    ``var_shifts`` maps each variable to its packed header bit (a
    layout's :attr:`~repro.headerspace.fields.HeaderLayout.var_shifts`);
    it defaults to :func:`packing_shifts`.
    """

    def __init__(
        self,
        num_vars: int,
        cache_limit: int = DEFAULT_CACHE_LIMIT,
        var_shifts=None,
    ) -> None:
        if not 0 < num_vars <= _MAX_VARS:
            raise ValueError(
                f"num_vars must be in 1..{_MAX_VARS}, got {num_vars}"
            )
        if cache_limit <= 0:
            raise ValueError(f"cache_limit must be positive, got {cache_limit}")
        self.num_vars = num_vars
        #: Entry budget shared by the four memo caches; crossing it on a
        #: top-level operation clears them all (see ``clear_caches``).
        self.cache_limit = cache_limit
        #: Optional :class:`repro.obs.Recorder`.  ``None`` (the default)
        #: keeps every hot path on its uninstrumented branch; the off
        #: state costs one attribute check per operation.
        self.recorder = None
        self._cache_clears = 0
        #: ``var_shifts[v]``: the right shift that brings variable ``v``
        #: to bit 0 of a packed header.
        self.var_shifts = (
            packing_shifts(num_vars) if var_shifts is None
            else checked_shifts(num_vars, var_shifts)
        )
        # Parallel arrays for node fields; indices 0/1 are terminals and the
        # var entries hold a sentinel that sorts after every real variable.
        self._var = [_TERMINAL_VAR, _TERMINAL_VAR]
        self._low = [0, 1]
        self._high = [0, 1]
        # (var, low, high) packed into one int (see ``_mk``): an int key
        # is smaller than a 3-tuple, and the table holds every node.
        self._unique: dict[int, int] = {}
        self._apply_cache: dict[tuple[int, int, int], int] = {}
        self._not_cache: dict[int, int] = {}
        self._ite_cache: dict[tuple[int, int, int], int] = {}
        self._relation_cache: dict[tuple[int, int], int] = {}
        # Single-variable nodes are requested constantly; precompute them.
        self._var_nodes = [self._mk(i, FALSE, TRUE) for i in range(num_vars)]
        self._nvar_nodes = [self._mk(i, TRUE, FALSE) for i in range(num_vars)]
        # Prebound evaluation entry point; see :meth:`make_evaluator`.
        self.evaluate_from = self.make_evaluator()

    def adopt_var_shifts(self, shifts) -> None:
        """Take a layout's variable-to-bit mapping on a manager that has
        built nothing yet (only its terminals and single-variable nodes).

        Node structure does not depend on the mapping, but every function
        already built means headers of the old one.  Raises
        :class:`ValueError` on a used manager whose mapping differs.
        """
        shifts = checked_shifts(self.num_vars, shifts)
        if shifts == self.var_shifts:
            return
        if len(self) != 2 + 2 * self.num_vars:
            raise ValueError(
                "cannot change the variable-to-bit mapping of a manager "
                f"that already holds {len(self)} nodes"
            )
        self.var_shifts = shifts
        self.evaluate_from = self.make_evaluator()

    # ------------------------------------------------------------------
    # Node construction
    # ------------------------------------------------------------------

    def _mk(self, var: int, low: int, high: int) -> int:
        """Return the node for ``var ? high : low``, reusing or creating it."""
        if low == high:
            return low
        key = (low << 32 | high) << 16 | var
        node = self._unique.get(key)
        if node is None:
            node = len(self._var)
            self._var.append(var)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def var(self, index: int) -> int:
        """BDD for the single variable ``index``."""
        return self._var_nodes[index]

    def nvar(self, index: int) -> int:
        """BDD for the negation of variable ``index``."""
        return self._nvar_nodes[index]

    # ------------------------------------------------------------------
    # Node inspection
    # ------------------------------------------------------------------

    def top_var(self, node: int) -> int:
        """Topmost variable of ``node`` (sentinel for terminals)."""
        return self._var[node]

    def low(self, node: int) -> int:
        return self._low[node]

    def high(self, node: int) -> int:
        return self._high[node]

    def is_terminal(self, node: int) -> bool:
        return node <= TRUE

    def __len__(self) -> int:
        """Total number of nodes ever created (including terminals)."""
        return len(self._var)

    # ------------------------------------------------------------------
    # Boolean operations
    # ------------------------------------------------------------------

    def apply_and(self, u: int, v: int) -> int:
        return self._top_apply(_OP_AND, u, v)

    def apply_or(self, u: int, v: int) -> int:
        return self._top_apply(_OP_OR, u, v)

    def apply_xor(self, u: int, v: int) -> int:
        return self._top_apply(_OP_XOR, u, v)

    def apply_diff(self, u: int, v: int) -> int:
        """``u AND NOT v`` without materializing ``NOT v``."""
        return self._top_apply(_OP_DIFF, u, v)

    def _top_apply(self, op: int, u: int, v: int) -> int:
        """Top-level apply entry: cache budget check + optional timing.

        Recursive work goes straight to :meth:`_apply`; only the public
        wrappers route through here, so the budget check and the per-op
        clock run once per user-visible operation, not once per node.
        """
        if self._memo_entries() >= self.cache_limit:
            self.clear_caches()
        rec = self.recorder
        if rec is None or not rec.time_bdd_ops:
            return self._apply(op, u, v)
        started = _perf_counter()
        result = self._apply(op, u, v)
        rec.bdd.record_op(_OP_NAMES[op], _perf_counter() - started)
        return result

    def _apply(self, op: int, u: int, v: int) -> int:
        # Terminal short-cuts keep the recursion shallow for the common
        # "predicate vs. complement" pattern of atomic-predicate refinement.
        if op == _OP_AND:
            if u == FALSE or v == FALSE:
                return FALSE
            if u == TRUE:
                return v
            if v == TRUE:
                return u
            if u == v:
                return u
            if u > v:  # AND commutes; canonicalize for the cache
                u, v = v, u
        elif op == _OP_OR:
            if u == TRUE or v == TRUE:
                return TRUE
            if u == FALSE:
                return v
            if v == FALSE:
                return u
            if u == v:
                return u
            if u > v:
                u, v = v, u
        elif op == _OP_XOR:
            if u == v:
                return FALSE
            if u == FALSE:
                return v
            if v == FALSE:
                return u
            if u == TRUE:
                return self._negate(v)
            if v == TRUE:
                return self._negate(u)
            if u > v:
                u, v = v, u
        else:  # _OP_DIFF: u AND NOT v
            if u == FALSE or v == TRUE:
                return FALSE
            if v == FALSE:
                return u
            if u == v:
                return FALSE
            if u == TRUE:
                return self._negate(v)

        key = (op, u, v)
        cached = self._apply_cache.get(key)
        rec = self.recorder
        if cached is not None:
            if rec is not None:
                rec.bdd.apply_hits += 1
            return cached
        if rec is not None:
            rec.bdd.apply_misses += 1

        var_u = self._var[u]
        var_v = self._var[v]
        if var_u == var_v:
            result = self._mk(
                var_u,
                self._apply(op, self._low[u], self._low[v]),
                self._apply(op, self._high[u], self._high[v]),
            )
        elif var_u < var_v:
            result = self._mk(
                var_u,
                self._apply(op, self._low[u], v),
                self._apply(op, self._high[u], v),
            )
        else:
            result = self._mk(
                var_v,
                self._apply(op, u, self._low[v]),
                self._apply(op, u, self._high[v]),
            )
        self._apply_cache[key] = result
        return result

    def negate(self, u: int) -> int:
        """Logical NOT, via a memoized terminal swap."""
        if self._memo_entries() >= self.cache_limit:
            self.clear_caches()
        rec = self.recorder
        if rec is None or not rec.time_bdd_ops:
            return self._negate(u)
        started = _perf_counter()
        result = self._negate(u)
        rec.bdd.record_op("not", _perf_counter() - started)
        return result

    def _negate(self, u: int) -> int:
        if u == FALSE:
            return TRUE
        if u == TRUE:
            return FALSE
        cached = self._not_cache.get(u)
        rec = self.recorder
        if cached is not None:
            if rec is not None:
                rec.bdd.not_hits += 1
            return cached
        if rec is not None:
            rec.bdd.not_misses += 1
        result = self._mk(
            self._var[u], self._negate(self._low[u]), self._negate(self._high[u])
        )
        self._not_cache[u] = result
        self._not_cache[result] = u
        return result

    def ite(self, f: int, g: int, h: int) -> int:
        """If-then-else: ``(f AND g) OR (NOT f AND h)``."""
        if self._memo_entries() >= self.cache_limit:
            self.clear_caches()
        rec = self.recorder
        if rec is None or not rec.time_bdd_ops:
            return self._ite(f, g, h)
        started = _perf_counter()
        result = self._ite(f, g, h)
        rec.bdd.record_op("ite", _perf_counter() - started)
        return result

    def _ite(self, f: int, g: int, h: int) -> int:
        if f == TRUE:
            return g
        if f == FALSE:
            return h
        if g == h:
            return g
        if g == TRUE and h == FALSE:
            return f
        key = (f, g, h)
        cached = self._ite_cache.get(key)
        rec = self.recorder
        if cached is not None:
            if rec is not None:
                rec.bdd.ite_hits += 1
            return cached
        if rec is not None:
            rec.bdd.ite_misses += 1
        top = min(self._var[f], self._var[g], self._var[h])
        f0, f1 = self._branches(f, top)
        g0, g1 = self._branches(g, top)
        h0, h1 = self._branches(h, top)
        result = self._mk(top, self._ite(f0, g0, h0), self._ite(f1, g1, h1))
        self._ite_cache[key] = result
        return result

    def _branches(self, node: int, var: int) -> tuple[int, int]:
        """Cofactors of ``node`` with respect to ``var``."""
        if self._var[node] == var:
            return self._low[node], self._high[node]
        return node, node

    def relation(self, u: int, v: int) -> int:
        """How ``u`` sits relative to ``v``, as two bits, building nothing.

        Bit 0 is set iff ``u AND v`` is satisfiable, bit 1 iff
        ``u AND NOT v`` is: ``0`` only for ``u = FALSE``, ``1`` = ``u``
        inside ``v``, ``2`` = disjoint, ``3`` = ``v`` cuts ``u``.  One
        memoized product traversal answers both questions and stops as
        soon as both bits are set; unlike ``apply_and``/``apply_diff`` it
        never calls :meth:`_mk`, so a test leaves the node table alone.
        """
        if self._memo_entries() >= self.cache_limit:
            self.clear_caches()
        rec = self.recorder
        if rec is None or not rec.time_bdd_ops:
            return self._relation(u, v)
        started = _perf_counter()
        result = self._relation(u, v)
        rec.bdd.record_op("relation", _perf_counter() - started)
        return result

    def _relation(self, u: int, v: int) -> int:
        # A reduced BDD other than FALSE is satisfiable, so every case
        # with a terminal operand (or u == v) is decided on the spot.
        if u == FALSE:
            return 0
        if v == FALSE:
            return 2
        if v == TRUE or u == v:
            return 1
        if u == TRUE:
            return 3
        key = (u, v)
        cached = self._relation_cache.get(key)
        rec = self.recorder
        if cached is not None:
            if rec is not None:
                rec.bdd.apply_hits += 1
            return cached
        if rec is not None:
            rec.bdd.apply_misses += 1

        var_u = self._var[u]
        var_v = self._var[v]
        if var_u == var_v:
            result = self._relation(self._low[u], self._low[v])
            if result != 3:
                result |= self._relation(self._high[u], self._high[v])
        elif var_u < var_v:
            result = self._relation(self._low[u], v)
            if result != 3:
                result |= self._relation(self._high[u], v)
        else:
            result = self._relation(u, self._low[v])
            if result != 3:
                result |= self._relation(u, self._high[v])
        self._relation_cache[key] = result
        return result

    def implies(self, u: int, v: int) -> bool:
        """True iff the function of ``u`` implies that of ``v``."""
        return not self.relation(u, v) & 2

    # ------------------------------------------------------------------
    # Cube and cofactor helpers
    # ------------------------------------------------------------------

    def cube(self, literals: dict[int, bool]) -> int:
        """Conjunction of literals given as ``{var_index: polarity}``.

        Built bottom-up in descending variable order so construction is
        linear and needs no apply calls -- the hot path when converting
        thousands of prefix rules.
        """
        node = TRUE
        for index in sorted(literals, reverse=True):
            if literals[index]:
                node = self._mk(index, FALSE, node)
            else:
                node = self._mk(index, node, FALSE)
        return node

    def restrict(self, u: int, var: int, value: bool) -> int:
        """Cofactor of ``u`` with variable ``var`` fixed to ``value``."""
        memo: dict[int, int] = {}

        def walk(node: int) -> int:
            if self._var[node] > var:
                return node
            hit = memo.get(node)
            if hit is not None:
                return hit
            if self._var[node] == var:
                result = self._high[node] if value else self._low[node]
            else:
                result = self._mk(
                    self._var[node],
                    walk(self._low[node]),
                    walk(self._high[node]),
                )
            memo[node] = result
            return result

        return walk(u)

    def exists(self, u: int, variables: set[int]) -> int:
        """Existential quantification over ``variables``.

        ``exists(u, V)`` is true for an assignment iff *some* completion
        of the V-bits satisfies ``u``. Used to project predicates onto a
        subset of header fields (e.g. "which destinations does this
        predicate cover, for any source?").
        """
        if not variables:
            return u
        frozen = frozenset(variables)
        memo: dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= TRUE:
                return node
            hit = memo.get(node)
            if hit is not None:
                return hit
            var = self._var[node]
            low = walk(self._low[node])
            high = walk(self._high[node])
            if var in frozen:
                result = self.apply_or(low, high)
            else:
                result = self._mk(var, low, high)
            memo[node] = result
            return result

        return walk(u)

    def forall(self, u: int, variables: set[int]) -> int:
        """Universal quantification: true iff *every* completion satisfies."""
        if not variables:
            return u
        frozen = frozenset(variables)
        memo: dict[int, int] = {}

        def walk(node: int) -> int:
            if node <= TRUE:
                return node
            hit = memo.get(node)
            if hit is not None:
                return hit
            var = self._var[node]
            low = walk(self._low[node])
            high = walk(self._high[node])
            if var in frozen:
                result = self.apply_and(low, high)
            else:
                result = self._mk(var, low, high)
            memo[node] = result
            return result

        return walk(u)

    # ------------------------------------------------------------------
    # Evaluation and model counting
    # ------------------------------------------------------------------

    def evaluate(self, u: int, assignment: int) -> bool:
        """Evaluate ``u`` under a packed assignment.

        ``assignment`` is a packed header: it carries variable ``i`` at
        bit ``var_shifts[i]``.  This is the single hottest operation of the
        whole library: every AP Tree node visit and every linear-scan
        baseline step lands here.  Hot loops should prefer
        :attr:`evaluate_from`, which has the node arrays and shifts
        prebound.
        """
        var = self._var
        low = self._low
        high = self._high
        shifts = self.var_shifts
        while u > TRUE:
            if (assignment >> shifts[var[u]]) & 1:
                u = high[u]
            else:
                u = low[u]
        return u == TRUE

    def make_evaluator(self):
        """Build ``evaluate_from(entry, header)`` with prebound locals.

        The closure captures the node arrays and the shifts once, so
        repeated calls skip every ``self.`` lookup of :meth:`evaluate`.
        It stays valid as the manager grows: the arrays are only ever
        appended to in place, never replaced.  An instance is installed as
        :attr:`evaluate_from` at construction.
        """
        var = self._var
        low = self._low
        high = self._high
        shifts = self.var_shifts

        def evaluate_from(entry: int, assignment: int) -> bool:
            u = entry
            while u > TRUE:
                if (assignment >> shifts[var[u]]) & 1:
                    u = high[u]
                else:
                    u = low[u]
            return u == TRUE

        return evaluate_from

    def node_arrays(self) -> tuple[list[int], list[int], list[int]]:
        """The live ``(var, low, high)`` parallel lists.

        Read-only views for compilers that flatten BDDs into other
        layouts (:mod:`repro.core.compiled`); mutating them corrupts the
        manager.
        """
        return self._var, self._low, self._high

    def sat_count(self, u: int) -> int:
        """Number of satisfying assignments over all ``num_vars`` variables."""
        if u == FALSE:
            return 0
        if u == TRUE:
            return 1 << self.num_vars
        memo: dict[int, int] = {}

        def models(node: int) -> int:
            """Models of ``node`` over variables var(node)..num_vars-1."""
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            hit = memo.get(node)
            if hit is not None:
                return hit
            var = self._var[node]
            lo, hi = self._low[node], self._high[node]
            result = (models(lo) << (self._gap(var, lo) - 1)) + (
                models(hi) << (self._gap(var, hi) - 1)
            )
            memo[node] = result
            return result

        # Scale for variables skipped above the root.
        return models(u) << (self._gap(-1, u) - 1)

    def _gap(self, var: int, node: int) -> int:
        """Number of variable levels skipped from ``var`` down to ``node``."""
        below = self.num_vars if node <= TRUE else self._var[node]
        return below - var

    def random_sat(self, u: int, rng) -> int:
        """Sample a uniformly random satisfying assignment of ``u``.

        Returns a packed header, as :meth:`evaluate` reads one.  The walk
        draws variables in variable order, so one ``rng`` stream yields
        different headers under different orders (each uniform).  Used
        by workload generators to synthesize packets "randomly with
        respect to the atomic predicates" (Section VII-D).
        """
        if u == FALSE:
            raise ValueError("cannot sample from an unsatisfiable BDD")
        memo: dict[int, int] = {}

        def models(node: int) -> int:
            if node == FALSE:
                return 0
            if node == TRUE:
                return 1
            hit = memo.get(node)
            if hit is None:
                var = self._var[node]
                hit = models(self._low[node]) << (
                    self._gap(var, self._low[node]) - 1
                )
                hit += models(self._high[node]) << (
                    self._gap(var, self._high[node]) - 1
                )
                memo[node] = hit
            return hit

        assignment = 0
        shifts = self.var_shifts
        var = 0
        node = u
        while var < self.num_vars:
            if node <= TRUE or self._var[node] > var:
                # Variable unconstrained here: flip a fair coin.
                if rng.random() < 0.5:
                    assignment |= 1 << shifts[var]
                var += 1
                continue
            lo, hi = self._low[node], self._high[node]
            lo_weight = models(lo) << (self._gap(var, lo) - 1)
            hi_weight = models(hi) << (self._gap(var, hi) - 1)
            total = lo_weight + hi_weight
            if rng.randrange(total) < hi_weight:
                assignment |= 1 << shifts[var]
                node = hi
            else:
                node = lo
            var += 1
        return assignment

    def first_sat(self, u: int) -> int:
        """The least satisfying assignment of ``u``, as a packed header.

        Walks from the root preferring the low (0) branch whenever it is
        satisfiable; variables the BDD does not constrain stay 0.  The
        witness is therefore minimal in *variable* order (read variable
        0 as the most significant digit) -- the numerically smallest
        header only when variables follow packing order.  Either way it
        is a canonical, label-free representative of the satisfying set,
        which atom renumbering (:meth:`AtomicUniverse.renumber_canonical`)
        and the diff peel rely on.
        """
        if u == FALSE:
            raise ValueError("cannot extract a witness from an unsatisfiable BDD")
        assignment = 0
        shifts = self.var_shifts
        node = u
        while node > TRUE:
            low = self._low[node]
            if low != FALSE:
                node = low
            else:
                assignment |= 1 << shifts[self._var[node]]
                node = self._high[node]
        return assignment

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------

    def count_nodes(self, u: int) -> int:
        """Number of distinct nodes reachable from ``u`` (incl. terminals)."""
        seen: set[int] = set()
        stack = [u]
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            if node > TRUE:
                stack.append(self._low[node])
                stack.append(self._high[node])
        return len(seen)

    def support(self, u: int) -> set[int]:
        """Set of variable indices the function of ``u`` depends on."""
        result: set[int] = set()
        seen: set[int] = set()
        stack = [u]
        while stack:
            node = stack.pop()
            if node <= TRUE or node in seen:
                continue
            seen.add(node)
            result.add(self._var[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return result

    def iter_cubes(self, u: int) -> Iterator[dict[int, bool]]:
        """Yield the cubes (partial assignments) of each path to TRUE."""
        path: dict[int, bool] = {}

        def walk(node: int) -> Iterator[dict[int, bool]]:
            if node == FALSE:
                return
            if node == TRUE:
                yield dict(path)
                return
            var = self._var[node]
            path[var] = False
            yield from walk(self._low[node])
            path[var] = True
            yield from walk(self._high[node])
            del path[var]

        yield from walk(u)

    def _memo_entries(self) -> int:
        """Entries held by the four memo caches together."""
        return (
            len(self._apply_cache)
            + len(self._not_cache)
            + len(self._ite_cache)
            + len(self._relation_cache)
        )

    def cache_stats(self) -> dict[str, int]:
        """Sizes of the internal caches, for memory accounting."""
        return {
            "nodes": len(self._var),
            "unique_table": len(self._unique),
            "apply_cache": len(self._apply_cache),
            "not_cache": len(self._not_cache),
            "ite_cache": len(self._ite_cache),
            "relation_cache": len(self._relation_cache),
            "cache_entries": self._memo_entries(),
            "cache_limit": self.cache_limit,
            "cache_clears": self._cache_clears,
        }

    def clear_caches(self) -> None:
        """Drop the apply/ite/not/relation memo caches.

        The *unique table* is untouched -- node ids are immortal and every
        previously returned id stays canonical -- so clearing costs only
        recomputation, never correctness.  Called automatically when the
        memo caches *together* cross :attr:`cache_limit` (long
        dynamic-update runs otherwise grow them without bound), and
        available to callers that want a deterministic memory floor
        between phases.
        """
        self._apply_cache.clear()
        self._not_cache.clear()
        self._ite_cache.clear()
        self._relation_cache.clear()
        self._cache_clears += 1
        rec = self.recorder
        if rec is not None:
            rec.bdd.cache_clears += 1
