"""Pure-Python ROBDD engine (substrate for all predicates).

The paper represents every packet filter as a BDD (Section III).  This
subpackage is a self-contained replacement for the JDD library the authors
used: a hash-consed manager (:class:`BDDManager`), an operator-friendly
handle type (:class:`Function`), and the shared-node-table image every
function set crosses a process or file boundary as (:mod:`.serialize`).
"""

from .function import Function
from .manager import FALSE, TRUE, BDDManager
from .serialize import dump_image, load_image, to_dot

__all__ = [
    "BDDManager",
    "Function",
    "FALSE",
    "TRUE",
    "dump_image",
    "load_image",
    "to_dot",
]
