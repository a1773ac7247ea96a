"""Core of the reproduction: atomic predicates, the AP Tree, and the
two-stage AP Classifier, with real-time updates and reconstruction."""

from .aptree import APTree, APTreeNode, build_ap_tree
from .atomic import AtomicUniverse, LeafSplit
from .delta import diff_behaviors, first_divergence
from .propagation import AtomPropagation, PropagationResult
from .verifier import NetworkVerifier, WaypointViolation
from .behavior import Behavior, BehaviorComputer, TraceEdge, TraceNode
from .classifier import APClassifier, ClassifierStats
from .compiled import (
    CompiledAPTree,
    FlatBDDSet,
    available_backends,
    default_backend,
)
from .construction import (
    ConstructionReport,
    STRATEGIES,
    best_from_random,
    build_oapt,
    build_optimal,
    build_quick_ordering,
    build_random,
    build_tree,
    build_with_order,
)
from .middlebox import (
    DETERMINISTIC,
    PAYLOAD_DEPENDENT,
    PROBABILISTIC,
    FlowEntry,
    HeaderRewrite,
    Middlebox,
    MiddleboxAwareComputer,
    MiddleboxTable,
    PossibleBehavior,
    RewriteBranch,
)
from .ordering import (
    fixed_order_chooser,
    oapt_chooser,
    optimal_subtree_cost,
    quick_ordering,
)
from .reconstruction import (
    DynamicSimulation,
    QueryCostModel,
    ThroughputSample,
    UpdateEvent,
    poisson_update_schedule,
)
from .snapshots import SnapshotMismatch
from .transactions import UpdateTransaction, VerificationFailed
from .update import UpdateEngine, UpdateResult
from .weights import VisitCounter

__all__ = [
    "APClassifier",
    "CompiledAPTree",
    "FlatBDDSet",
    "available_backends",
    "default_backend",
    "ClassifierStats",
    "NetworkVerifier",
    "WaypointViolation",
    "AtomPropagation",
    "PropagationResult",
    "diff_behaviors",
    "first_divergence",
    "APTree",
    "APTreeNode",
    "build_ap_tree",
    "AtomicUniverse",
    "LeafSplit",
    "Behavior",
    "BehaviorComputer",
    "TraceNode",
    "TraceEdge",
    "ConstructionReport",
    "STRATEGIES",
    "best_from_random",
    "build_oapt",
    "build_optimal",
    "build_quick_ordering",
    "build_random",
    "build_tree",
    "build_with_order",
    "fixed_order_chooser",
    "oapt_chooser",
    "optimal_subtree_cost",
    "quick_ordering",
    "UpdateEngine",
    "UpdateResult",
    "UpdateTransaction",
    "VerificationFailed",
    "SnapshotMismatch",
    "VisitCounter",
    "DynamicSimulation",
    "QueryCostModel",
    "ThroughputSample",
    "UpdateEvent",
    "poisson_update_schedule",
    "Middlebox",
    "MiddleboxTable",
    "MiddleboxAwareComputer",
    "FlowEntry",
    "RewriteBranch",
    "HeaderRewrite",
    "PossibleBehavior",
    "DETERMINISTIC",
    "PAYLOAD_DEPENDENT",
    "PROBABILISTIC",
]
