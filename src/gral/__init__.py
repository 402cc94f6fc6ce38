"""Range-free localization of drifting sensors in tree-shaped pipe networks."""

__version__ = "0.1.0"

from .graph import (
    EnvironmentGraph,
    Gateway,
    GraphError,
    GraphPosition,
    Junction,
    Link,
    build_graph,
    load_graph,
)
from .packages import (
    Checkpoint,
    GatewayObservation,
    LocalizedMeasurement,
    NodeContact,
    Package,
    StreamFormatError,
    parse_package_stream,
    serialize_packages,
)
from .epochs import Epoch, EpochKind, EpochSet
from .localize import VARIANTS, BackendState, baseline_localize, build_state, run_pipeline
from .sim import (
    Insertion,
    InstanceResult,
    ScenarioError,
    ScenarioSpec,
    load_scenario,
    make_scenario,
    run_instance,
)
from .metrics import VariantResult, mae, normalized_mae, rmse, run_experiment

__all__ = [
    "EnvironmentGraph",
    "Gateway",
    "GraphError",
    "GraphPosition",
    "Junction",
    "Link",
    "build_graph",
    "load_graph",
    "Checkpoint",
    "GatewayObservation",
    "LocalizedMeasurement",
    "NodeContact",
    "Package",
    "StreamFormatError",
    "parse_package_stream",
    "serialize_packages",
    "Epoch",
    "EpochKind",
    "EpochSet",
    "VARIANTS",
    "BackendState",
    "baseline_localize",
    "build_state",
    "run_pipeline",
    "Insertion",
    "InstanceResult",
    "ScenarioError",
    "ScenarioSpec",
    "load_scenario",
    "make_scenario",
    "run_instance",
    "VariantResult",
    "mae",
    "normalized_mae",
    "rmse",
    "run_experiment",
]
