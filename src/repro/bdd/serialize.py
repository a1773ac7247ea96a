"""The BDD image: how every predicate/atom set crosses a boundary.

An *image* is ``(num_vars, nodes, roots)``: ``nodes`` is one flat int
list, three ints ``var, low, high`` per node, holding every node
reachable from any root exactly once; ``roots`` is one ref per dumped
root, in the caller's order.  A ref is a *position in the image*: ``0``
and ``1`` are the FALSE/TRUE terminals, ``k + 2`` is the k-th emitted
node.  Refs are never raw node ids, and nodes are emitted in one
depth-first postorder over the roots in order (low before high, a node
after both children), so the bytes are a function of the dumped
functions and their order alone -- nothing else the manager holds or
gains later, and not the order it happened to create nodes in (a fresh
build, an incrementally maintained one or an earlier load), can change
them.

Postorder is topological: every ref points backwards, and loading is
one forward pass.

This is the only module that knows the layout.  Processes
(:mod:`repro.core.reconstruction`, the reconstruction process of
Section VI-B), artifacts (:mod:`repro.artifact`) and the cross-manager
transfer in :mod:`repro.diff` all move images.
"""

from __future__ import annotations

from typing import Sequence

from .manager import FALSE, TRUE, BDDManager

__all__ = ["Image", "dump_image", "load_image", "image_nbytes", "to_dot"]

#: ``(num_vars, nodes, roots)`` -- see the module docstring.
Image = tuple[int, Sequence[int], Sequence[int]]


def dump_image(manager: BDDManager, roots: Sequence[int]) -> Image:
    """The functions under ``roots`` (node ids, terminals and duplicates
    welcome) as one image; shared sub-graphs are emitted once.

    The walk keeps an explicit stack -- a chain cube has one level per
    constrained variable, far past the interpreter's recursion limit.
    """
    var, low, high = manager.node_arrays()
    ref = {FALSE: 0, TRUE: 1}
    nodes: list[int] = []
    for root in roots:
        stack = [root]
        while stack:
            node = stack[-1]
            if node in ref:
                stack.pop()
            elif low[node] not in ref:
                stack.append(low[node])
            elif high[node] not in ref:
                stack.append(high[node])
            else:
                stack.pop()
                ref[node] = len(ref)
                nodes += (var[node], ref[low[node]], ref[high[node]])
    return manager.num_vars, nodes, [ref[root] for root in roots]


def load_image(manager: BDDManager, image: Image) -> list[int]:
    """Rebuild an image in ``manager``; returns one node id per root.

    Serves empty and populated managers alike: every node goes through
    ``_mk``, so functions the manager already holds come back under
    their existing ids.  Images arrive from files and pipes, so each
    node is validated before it is built -- a bad ref must raise, never
    load a different function: ``var`` in range and strictly above
    (smaller than) both children's, refs non-negative and backwards,
    ``low != high``.  Raises :class:`ValueError`.
    """
    num_vars, nodes, roots = image
    if num_vars != manager.num_vars:
        raise ValueError(
            f"image is over {num_vars} variables, manager has "
            f"{manager.num_vars}"
        )
    if hasattr(nodes, "tolist"):  # numpy / array.array section views:
        nodes = nodes.tolist()  # python ints are faster in this loop
    if hasattr(roots, "tolist"):
        roots = roots.tolist()
    if len(nodes) % 3:
        raise ValueError(
            f"image node list of {len(nodes)} ints is not whole triples"
        )
    mk = manager._mk
    built = [FALSE, TRUE]
    # Terminals order after every variable, like the manager's sentinel.
    var_of = [num_vars, num_vars]
    for var, low, high in zip(nodes[0::3], nodes[1::3], nodes[2::3]):
        here = len(built)
        if not (
            0 <= var < num_vars
            and 0 <= low < here
            and 0 <= high < here
            and low != high
            and var < var_of[low]
            and var < var_of[high]
        ):
            raise ValueError(
                f"image node {here - 2} is malformed: "
                f"(var={var}, low={low}, high={high}) over {num_vars} variables"
            )
        built.append(mk(var, built[low], built[high]))
        var_of.append(var)
    count = len(built)
    for root in roots:
        if not 0 <= root < count:
            raise ValueError(f"image root ref {root} is out of range")
    return [built[root] for root in roots]


def image_nbytes(image: Image) -> int:
    """Size of an image as int32 columns -- what an artifact stores and
    the figure ``ParallelCounters.record_shipping`` reports for a hand-off."""
    _, nodes, roots = image
    return 4 * (len(nodes) + len(roots))


def to_dot(
    manager: BDDManager,
    node: int,
    name: str = "bdd",
    var_names: dict[int, str] | None = None,
) -> str:
    """Render the DAG under ``node`` as Graphviz DOT (debugging aid).

    Dashed edges are the low (false) branch, solid edges the high (true)
    branch, following the usual BDD drawing convention.
    """
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    lines.append('  node_F [label="0", shape=box];')
    lines.append('  node_T [label="1", shape=box];')
    seen: set[int] = set()

    def label(current: int) -> str:
        if current == FALSE:
            return "node_F"
        if current == TRUE:
            return "node_T"
        return f"node_{current}"

    def visit(current: int) -> None:
        if current <= TRUE or current in seen:
            return
        seen.add(current)
        var = manager.top_var(current)
        var_label = (var_names or {}).get(var, f"x{var}")
        lines.append(f'  node_{current} [label="{var_label}", shape=circle];')
        low, high = manager.low(current), manager.high(current)
        lines.append(f"  node_{current} -> {label(low)} [style=dashed];")
        lines.append(f"  node_{current} -> {label(high)};")
        visit(low)
        visit(high)

    visit(node)
    lines.append("}")
    return "\n".join(lines)
