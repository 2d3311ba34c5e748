"""Sparse logistic regression with SGD and a communication-avoiding s-step
variant, run over a deterministic simulated distributed-memory cluster."""

from .cluster import (
    BLOCK_COLUMN,
    BLOCK_ROW,
    CostCounters,
    LayoutDescriptor,
    VirtualCluster,
    partition,
)
from .costs import CostParams, MachineModel, crossover_s, modeled_time, theoretical_cost
from .datagen import synthetic_dataset
from .model import accuracy, loss, sig
from .sampling import BatchStream
from .solvers import (
    ConfigError,
    SolverConfig,
    SolverRun,
    TraceRecord,
    relative_solution_error,
    run_casgd,
    run_sgd,
)
from .sparse import (
    CsrMatrix,
    LabeledDataset,
    LibsvmParseError,
    parse_libsvm,
    serialize_libsvm,
)

__version__ = "0.1.0"
