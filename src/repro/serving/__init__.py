"""Cloud inference serving: traces, queueing, SLAs, tenant isolation, RAS,
fleet-level resilience (multi-device failover + quarantine/repair) and
overload robustness (open-loop load generation, SLO-class admission,
continuous batching, autoscaling)."""

from repro.serving.admission import (
    DEFAULT_SLO_CLASSES,
    AdmissionController,
    AdmissionDecision,
    AdmissionPolicy,
    SloClass,
)
from repro.serving.autoscale import Autoscaler, AutoscalerConfig, ScaleAction
from repro.serving.fleet import (
    DeviceReport,
    FleetConfig,
    FleetManager,
    FleetReport,
    FleetTenantStats,
    LifecycleEvent,
    ReplicaStatus,
)
from repro.serving.loadgen import (
    LoadSpec,
    LoadSummary,
    demo_specs,
    generate_load,
    merge_traces,
    summarize_trace,
)
from repro.serving.powercap import (
    FleetPowerGovernor,
    PowerCapConfig,
    PowerCapPhase,
)
from repro.serving.server import (
    InferenceServer,
    NoHealthyGroupsError,
    RasConfig,
    SloClassStats,
    TenantConfig,
    TenantHealth,
    TenantReport,
    batch_service_time_ns,
    measure_service_time_ns,
)
from repro.serving.workload import Request, TrafficPattern, generate_trace

__all__ = [
    "AdmissionController", "AdmissionDecision", "AdmissionPolicy",
    "Autoscaler", "AutoscalerConfig",
    "DEFAULT_SLO_CLASSES", "DeviceReport", "FleetConfig", "FleetManager",
    "FleetPowerGovernor", "FleetReport", "FleetTenantStats",
    "InferenceServer", "LifecycleEvent",
    "LoadSpec", "LoadSummary", "NoHealthyGroupsError",
    "PowerCapConfig", "PowerCapPhase", "RasConfig",
    "ReplicaStatus", "Request", "ScaleAction", "SloClass", "SloClassStats",
    "TenantConfig", "TenantHealth", "TenantReport", "TrafficPattern",
    "batch_service_time_ns", "demo_specs", "generate_load", "generate_trace",
    "measure_service_time_ns", "merge_traces", "summarize_trace",
]
