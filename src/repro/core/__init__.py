"""FaaSFlow's core: engines, scheduler, grouping, FaaStore, reclamation."""

from .config import EngineConfig
from .dataflow_engine import DataflowEngine, DataflowSystem
from .faastore import DataPolicy, FaaStorePolicy, RemoteStorePolicy, object_key
from .faults import (
    CancelCause,
    CancelKind,
    FaultDriver,
    FaultInjector,
    FaultPlan,
    FunctionFailure,
    NetworkDegradation,
    NodeCrash,
    ProcessRegistry,
    RetryPolicy,
    TaskCancelled,
)
from .grouping import (
    GroupingConfig,
    GroupingError,
    GroupingResult,
    group_functions,
)
from .master_engine import HyperFlowServerlessSystem
from .monolithic import MonolithicSystem
from .reclamation import (
    MemoryUsageHistory,
    ReclamationConfig,
    over_provisioned,
    per_node_quotas,
    workflow_quota,
)
from .runtime import ExecutionResult, FunctionRuntime
from .scheduler import (
    GraphScheduler,
    SchedulerReport,
    hash_partition,
    update_edge_weights,
)
from .switching import is_skipped, selected_case
from .system import WorkflowSystem, static_critical_exec
from .tracing import Kind, TraceEvent, Tracer
from .state import (
    FunctionInfo,
    FunctionState,
    InvocationID,
    InvocationState,
    Placement,
    PlacementError,
    WorkflowStructure,
    new_invocation_id,
)
from .worker_engine import FaaSFlowSystem, WorkerEngine

# Engine names accepted by the CLIs and experiments -> system class.
ENGINES: dict[str, type[WorkflowSystem]] = {
    "worker": FaaSFlowSystem,
    "master": HyperFlowServerlessSystem,
    "dataflow": DataflowSystem,
}

__all__ = [
    "ENGINES",
    "DataPolicy",
    "DataflowEngine",
    "DataflowSystem",
    "EngineConfig",
    "ExecutionResult",
    "FaaSFlowSystem",
    "FaaStorePolicy",
    "CancelCause",
    "CancelKind",
    "FaultDriver",
    "FaultInjector",
    "FaultPlan",
    "FunctionFailure",
    "NetworkDegradation",
    "NodeCrash",
    "ProcessRegistry",
    "RetryPolicy",
    "TaskCancelled",
    "FunctionInfo",
    "FunctionRuntime",
    "FunctionState",
    "GraphScheduler",
    "GroupingConfig",
    "GroupingError",
    "GroupingResult",
    "group_functions",
    "hash_partition",
    "is_skipped",
    "selected_case",
    "HyperFlowServerlessSystem",
    "InvocationID",
    "InvocationState",
    "MemoryUsageHistory",
    "MonolithicSystem",
    "new_invocation_id",
    "object_key",
    "over_provisioned",
    "per_node_quotas",
    "Placement",
    "PlacementError",
    "ReclamationConfig",
    "RemoteStorePolicy",
    "SchedulerReport",
    "static_critical_exec",
    "TraceEvent",
    "Tracer",
    "Kind",
    "update_edge_weights",
    "WorkerEngine",
    "WorkflowStructure",
    "WorkflowSystem",
    "workflow_quota",
]
