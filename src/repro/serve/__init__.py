"""``repro.serve``: the online query service (serving layer).

Fronts an :class:`~repro.core.classifier.APClassifier` with an asyncio
micro-batching dispatcher so many concurrent callers share the compiled
engine's batch path, with bounded admission (backpressure or shedding),
per-request deadlines, and graceful degradation while the data plane
churns and reconstructions swap trees underneath the queries.  An
optional generation-keyed :class:`ResultCache` answers repeated hot
headers synchronously at admission.  Every serving process -- single
node or :class:`ServeGrid` worker -- runs the one connection loop of
:mod:`repro.serve.tcp`.  See ``docs/serving.md``
for the operations guide and the TCP wire protocol.
"""

from .cache import ResultCache
from .grid import ServeGrid, closed_loop_qps
from .service import QueryService, QueryShed, ServiceClosed
from .tcp import serve_forever, start_tcp_server

__all__ = [
    "QueryService",
    "QueryShed",
    "ResultCache",
    "ServeGrid",
    "ServiceClosed",
    "closed_loop_qps",
    "serve_forever",
    "start_tcp_server",
]
