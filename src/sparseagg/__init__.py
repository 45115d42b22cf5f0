"""Skip-topology compiler and trainer for aggregation networks.

Build plain/dense/sparse/fractal skip graphs, statically price them in
parameters and FLOPs, compile the trainable families into small numpy
networks, train at desk scale on CIFAR-10 binaries, and inspect feature
reuse through weight heat maps.
"""

from .architecture import (
    BlockSpec,
    CostReport,
    InputSpec,
    NetworkSpec,
    StemSpec,
    analyze,
    compare_topologies,
    load_spec,
    plan_network,
    save_spec,
    spec_hash,
)
from .errors import (
    CheckpointError,
    DataFormatError,
    NoPathError,
    NonFiniteError,
    PlanError,
    SparseAggError,
    SpecFormatError,
    TopologyError,
    TrainConfigError,
    TrainingDivergedError,
    ValidationError,
)
from .gradcheck import check_gradients
from .introspect import export_heatmap, load_heatmap_csv, weight_heatmap
from .model import ForwardStats, Network, compile_network, load_checkpoint, save_checkpoint
from .tensor import BatchNormState, Tensor, no_grad
from .topology import (
    AggregationGraph,
    Dense,
    Fractal,
    Plain,
    Sparse,
    build_graph,
    export_dot,
    export_json,
    format_topology,
    gradient_path_lengths,
    parse_topology,
    predecessors,
    shortest_gradient_path,
)
from .train import Cifar10, SGD, TrainConfig, evaluate, load_cifar10, train_model

__version__ = "0.1.0"

__all__ = [
    "AggregationGraph",
    "BatchNormState",
    "BlockSpec",
    "CheckpointError",
    "Cifar10",
    "CostReport",
    "DataFormatError",
    "Dense",
    "ForwardStats",
    "Fractal",
    "InputSpec",
    "Network",
    "NetworkSpec",
    "NoPathError",
    "NonFiniteError",
    "Plain",
    "PlanError",
    "SGD",
    "Sparse",
    "SparseAggError",
    "SpecFormatError",
    "StemSpec",
    "Tensor",
    "TopologyError",
    "TrainConfig",
    "TrainConfigError",
    "TrainingDivergedError",
    "ValidationError",
    "analyze",
    "build_graph",
    "check_gradients",
    "compare_topologies",
    "compile_network",
    "evaluate",
    "export_dot",
    "export_heatmap",
    "export_json",
    "format_topology",
    "gradient_path_lengths",
    "load_checkpoint",
    "load_cifar10",
    "load_heatmap_csv",
    "load_spec",
    "no_grad",
    "parse_topology",
    "plan_network",
    "predecessors",
    "save_checkpoint",
    "save_spec",
    "shortest_gradient_path",
    "spec_hash",
    "train_model",
    "weight_heatmap",
]
