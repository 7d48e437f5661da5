"""Robust regression feed-forward networks: sign-based training with robust
losses, contamination generators and a factorial simulation harness."""

from .contamination import ContaminationKind, ContaminationSpec
from .datagen import DataGenSpec, Dataset, Structure
from .experiment import CellSummary, Depth, ExperimentConfig, RunRecord
from .losses import LossKind, LossSpec
from .net import Activation, Architecture, Network
from .optimizer import (
    OptimizerSpec,
    Rule,
    TrainJob,
    TrainOutcome,
    TrainStatus,
    train,
    train_slots,
)

__version__ = "0.1.0"

__all__ = [
    "Activation", "Architecture", "Network",
    "LossKind", "LossSpec",
    "OptimizerSpec", "Rule", "TrainJob", "TrainOutcome", "TrainStatus", "train",
    "train_slots",
    "ContaminationKind", "ContaminationSpec",
    "DataGenSpec", "Dataset", "Structure",
    "CellSummary", "Depth", "ExperimentConfig", "RunRecord",
    "__version__",
]
