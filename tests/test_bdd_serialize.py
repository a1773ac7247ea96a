"""The BDD image (`dump_image` / `load_image`): round trips, sharing,
byte stability and refusal of tampered input."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bdd import BDDManager, Function, dump_image, load_image
from repro.bdd.manager import FALSE, TRUE

WIDTH = 6


@pytest.fixture()
def mgr() -> BDDManager:
    return BDDManager(WIDTH)


def sample_function(mgr: BDDManager) -> Function:
    x0 = Function.variable(mgr, 0)
    x2 = Function.variable(mgr, 2)
    x5 = Function.variable(mgr, 5)
    return (x0 & x2) | (~x0 & x5)


def reachable(mgr: BDDManager, roots) -> set[int]:
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if node > TRUE and node not in seen:
            seen.add(node)
            stack += (mgr.low(node), mgr.high(node))
    return seen


# A function set is a list of truth tables over WIDTH variables: the
# extremes are the terminals, and the draw may repeat a table.
_TABLES = st.lists(
    st.one_of(
        st.sampled_from([0, (1 << (1 << WIDTH)) - 1]),
        st.integers(min_value=0, max_value=(1 << (1 << WIDTH)) - 1),
    ),
    max_size=6,
).flatmap(lambda tables: st.permutations(tables + tables[:2]))


def build(mgr: BDDManager, table: int, var: int = 0) -> int:
    """The function with truth table ``table`` (bit ``a`` = value on
    assignment ``a``; variable 0 is the assignment's top bit)."""
    if var == WIDTH:
        return TRUE if table else FALSE
    half = 1 << (WIDTH - var - 1)
    low = build(mgr, table & ((1 << half) - 1), var + 1)
    high = build(mgr, table >> half, var + 1)
    return mgr.ite(mgr.var(var), high, low)


class TestNodeRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(_TABLES)
    def test_same_manager(self, tables):
        """Into the (populated) source manager: node identity."""
        mgr = BDDManager(WIDTH)
        roots = [build(mgr, table) for table in tables]
        assert load_image(mgr, dump_image(mgr, roots)) == roots

    @settings(max_examples=40, deadline=None)
    @given(_TABLES)
    def test_fresh_manager(self, tables):
        """Into an empty manager: same functions, and dumping again
        gives the same image (the load keeps the emitted order)."""
        mgr = BDDManager(WIDTH)
        roots = [build(mgr, table) for table in tables]
        image = dump_image(mgr, roots)
        other = BDDManager(WIDTH)
        rebuilt = load_image(other, image)
        assert [other.sat_count(node) for node in rebuilt] == [
            bin(table).count("1") for table in tables
        ]
        for node, table in zip(rebuilt, tables):
            for assignment in range(1 << WIDTH):
                assert other.evaluate(node, assignment) == bool(
                    table >> assignment & 1
                )
        assert dump_image(other, rebuilt) == image

    def test_terminals(self, mgr):
        image = dump_image(mgr, [TRUE, FALSE, TRUE])
        assert image == (WIDTH, [], [1, 0, 1])
        assert load_image(BDDManager(WIDTH), image) == [TRUE, FALSE, TRUE]

    def test_empty_payload_rejected(self, mgr):
        with pytest.raises(ValueError):
            load_image(mgr, ())
        num_vars, nodes, roots = dump_image(mgr, [sample_function(mgr).node])
        with pytest.raises(ValueError, match="whole triples"):
            load_image(mgr, (num_vars, nodes[:-1], roots))

    @pytest.mark.parametrize(
        "case, node, roots",
        [
            ("negative ref", (2, -3, 1), [2]),
            ("ref to itself", (2, 2, 1), [2]),
            ("forward ref", (2, 0, 3), [2]),
            ("var out of range", (99, 0, 1), [2]),
            ("negative var", (-1, 0, 1), [2]),
            ("redundant node", (2, 1, 1), [2]),
            ("negative root", (2, 0, 1), [-1]),
            ("root past the end", (2, 0, 1), [3]),
        ],
    )
    def test_tampered_node_rejected(self, mgr, case, node, roots):
        with pytest.raises(ValueError):
            load_image(mgr, (WIDTH, list(node), roots))

    def test_unordered_parent_rejected(self, mgr):
        """A parent must test a variable strictly above both children."""
        child = (3, 0, 1)
        for parent_var in (3, 4):
            with pytest.raises(ValueError, match="malformed"):
                load_image(mgr, (WIDTH, [*child, parent_var, 0, 2], [3]))
            with pytest.raises(ValueError, match="malformed"):
                load_image(mgr, (WIDTH, [*child, parent_var, 2, 1], [3]))
        assert load_image(mgr, (WIDTH, [*child, 2, 0, 2], [3]))

    def test_negative_ref_cannot_load_another_function(self):
        """A ref of -3 is a legal Python index; it must raise, not
        answer with whatever sits three from the end."""
        mgr = BDDManager(8)
        fn = Function.cube(mgr, {0: True, 3: False}) | Function.cube(
            mgr, {1: True, 5: True, 7: False}
        )
        num_vars, nodes, roots = dump_image(mgr, [fn.node])
        tampered = list(nodes)
        tampered[-2] = -3
        with pytest.raises(ValueError):
            load_image(BDDManager(8), (num_vars, tampered, roots))


class TestFunctionsRoundTrip:
    @settings(max_examples=40, deadline=None)
    @given(_TABLES)
    def test_many_functions_share_structure(self, tables):
        """Every node reachable from any root is emitted exactly once."""
        mgr = BDDManager(WIDTH)
        roots = [build(mgr, table) for table in tables]
        num_vars, nodes, refs = dump_image(mgr, roots)
        assert num_vars == WIDTH
        assert len(nodes) // 3 == len(reachable(mgr, roots))
        assert len(refs) == len(roots)
        # Duplicate roots share one ref.
        assert len(set(refs)) == len(set(roots))

    def test_empty_list(self, mgr):
        image = dump_image(mgr, [])
        assert image == (WIDTH, [], [])
        assert load_image(BDDManager(WIDTH), image) == []

    def test_wrong_width_manager_rejected(self, mgr):
        image = dump_image(mgr, [sample_function(mgr).node])
        with pytest.raises(ValueError):
            load_image(BDDManager(3), image)

    def test_into_existing_manager_preserves_identity(self, mgr):
        fn = sample_function(mgr)
        other = BDDManager(WIDTH)
        Function.cube(other, {1: True, 4: False})  # populate differently
        twin = sample_function(other)
        (loaded,) = load_image(other, dump_image(mgr, [fn.node]))
        assert loaded == twin.node

    @settings(max_examples=40, deadline=None)
    @given(_TABLES, _TABLES)
    def test_unrelated_nodes_do_not_change_the_bytes(self, tables, later):
        """Refs are positions in the image, never raw node ids, and the
        emission order is the walk's, not the manager's creation order."""
        mgr = BDDManager(WIDTH)
        roots = [build(mgr, table) for table in tables]
        before = dump_image(mgr, roots)
        for table in later:
            build(mgr, table)
        assert dump_image(mgr, roots) == before
        other = BDDManager(WIDTH)
        for table in later + tables[::-1]:
            build(other, table)
        assert dump_image(other, [build(other, t) for t in tables]) == before


class TestDeepBDDs:
    def test_chain_cube_beyond_recursion_limit(self):
        """A cube over thousands of variables moves without recursion.

        The BDD of a full cube is a chain with one node per constrained
        variable -- a recursive walk would blow the interpreter's
        recursion limit (default 1000) long before this width.
        """
        width = sys.getrecursionlimit() + 3000
        mgr = BDDManager(width)
        fn = Function.cube(mgr, {var: bool(var % 2) for var in range(width)})
        image = dump_image(mgr, [fn.node])
        assert len(image[1]) == 3 * width  # one node per variable
        other = BDDManager(width)
        (rebuilt,) = load_image(other, image)
        witness = sum(1 << other.var_shifts[v] for v in range(width) if v % 2)
        assert other.evaluate_from(rebuilt, witness)
        assert not other.evaluate_from(rebuilt, witness ^ 1)
